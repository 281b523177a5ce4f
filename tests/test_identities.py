"""The same group built two ways: identities between group kinds.

Schur orthogonality and the homomorphism check pass any consistent
construction.  These identities need no oracle, and they also catch a wrong
basis convention, label order or table of roots: ``zn:n`` against
``circle:n``, the rotations of ``dihedral:n`` against ``zn:n``, and
``sym:3`` against ``dihedral:3``, the spin-1/2 grid of ``su2`` against
``su2_matrix_from_euler``, the elements the grid is made of, and each spin
on the torus beta = 0 against the circle characters of alpha + gamma.
"""
from itertools import permutations

import numpy as np
import pytest

from grouplab.catalog import build_catalog, su2_irrep_matrix
from grouplab.groups import make_group, su2_matrix_from_euler


def _characters(cat, lab):
    return np.einsum("gii->g", cat.grids[lab.key])


@pytest.mark.parametrize("n", [5, 7, 12, 64])
def test_zn_rows_are_the_circle_rows_bit_for_bit_and_for_even_n_one_more(n):
    # both gather exp(2 pi i m k / n) from one table of roots; the circle's
    # full catalog stops at |m| <= (n - 1) // 2, so for even n it lacks m = n/2
    zn = build_catalog(make_group(f"zn:{n}"))
    circle = build_catalog(make_group(f"circle:{n}"))
    zn_rows = {row.tobytes() for row in zn.store}
    circle_rows = {row.tobytes() for row in circle.store}
    assert len(zn_rows) == n and len(circle_rows) == len(circle.labels)
    assert circle_rows <= zn_rows
    roots = np.exp(1j * circle.group.thetas)
    nyquist = {roots[(n // 2) * np.arange(n) % n].tobytes()} if n % 2 == 0 else set()
    assert zn_rows - circle_rows == nyquist


@pytest.mark.parametrize("n", [3, 4, 5, 12, 64])
def test_dihedral_2d_irreps_on_the_rotations_are_diagonals_of_two_zn_characters(n):
    # element k < n of dihedral:n is the rotation r^k, and k of zn:n its image
    dihedral = build_catalog(make_group(f"dihedral:{n}"))
    zn = build_catalog(make_group(f"zn:{n}"))
    characters = {row.tobytes() for row in zn.store}
    pairs = set()
    for lab in (lab for lab in dihedral.labels if lab.degree == 2):
        rotations = dihedral.grids[lab.key][:n]
        assert not np.any(rotations[:, 0, 1]) and not np.any(rotations[:, 1, 0]), lab.key
        a, b = rotations[:, 0, 0].copy(), rotations[:, 1, 1].copy()
        assert a.tobytes() in characters and b.tobytes() in characters, lab.key
        assert a.tobytes() != b.tobytes() and np.max(np.abs(a * b - 1.0)) <= 1e-15, lab.key
        pairs.add(frozenset((a.tobytes(), b.tobytes())))
    assert len(pairs) == (n - 1) // 2    # one conjugate pair per 2-D irrep, none repeated


def test_sym3_and_dihedral3_characters_agree_under_every_table_isomorphism():
    sym, dihedral = make_group("sym:3"), make_group("dihedral:3")
    # maps phi that fix the identity with phi(a b) = phi(a) phi(b)
    maps = [
        phi for phi in (np.array((0, *p)) for p in permutations(range(1, 6)))
        if np.array_equal(phi[sym.table], dihedral.table[np.ix_(phi, phi)])
    ]
    assert len(maps) == 6    # the automorphisms of S_3
    sym_cat, dihedral_cat = build_catalog(sym), build_catalog(dihedral)
    assert [(lab.key, lab.degree) for lab in sym_cat.labels] == [
        (lab.key, lab.degree) for lab in dihedral_cat.labels
    ]
    for phi in maps:
        for s, d in zip(sym_cat.labels, dihedral_cat.labels):
            gap = np.max(np.abs(_characters(dihedral_cat, d)[phi] - _characters(sym_cat, s)))
            assert gap <= 1e-12, (s.key, gap)


@pytest.mark.parametrize("spec", ["su2:j=0.5", "su2:j=1", "su2:j=2", "su2:j=4"])
def test_su2_spin_half_grid_is_the_euler_element_at_every_node(spec):
    # the catalog orders rows and columns m = +1/2, -1/2, as su2_matrix_from_euler
    # does, so D^(1/2) is the element itself; the store multiplies d(beta) by two
    # torus phases, while the element takes one phase of (alpha +- gamma) / 2
    cat = build_catalog(make_group(spec), truncation=0.5)
    elements = np.array([su2_matrix_from_euler(*angles) for angles in cat.group.eulers])
    assert np.max(np.abs(cat.grids["j:0.5"] - elements)) <= 1e-15


def test_su2_irreps_on_the_torus_are_diagonal_with_circle_characters():
    # at beta = 0 the element is diag(a, conj(a)) with a = e^{-i(alpha + gamma)/2}
    # and b = 0, so every term that moves m carries a power of b and is exactly 0;
    # the diagonal is a^(j+m) conj(a)^(j-m) = e^{-im(alpha + gamma)}, m = j, ..., -j
    group = make_group("su2:j=4")
    alphas, gammas = np.unique(group.eulers[:, 0]), np.unique(group.eulers[:, 2])
    assert len(alphas) == len(gammas) == 17
    for two_j in range(9):
        m = (two_j - 2 * np.arange(two_j + 1)) / 2
        off_diagonal = ~np.eye(two_j + 1, dtype=bool)
        for alpha in alphas:
            for gamma in gammas:
                u = su2_irrep_matrix(two_j, su2_matrix_from_euler(alpha, 0.0, gamma))
                assert not np.any(u[off_diagonal]), (two_j, alpha, gamma)
                gap = np.max(np.abs(np.diag(u) - np.exp(-1j * m * (alpha + gamma))))
                assert gap <= 1e-14, (two_j, alpha, gamma, gap)
