import math
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from grouplab.groups import (
    circle_group,
    cyclic_group,
    dihedral_group,
    make_group,
    su2_group,
    symmetric_group,
)
from support import haar_integrate, node_element


ALL_FINITE = ["zn:1", "zn:4", "zn:12", "dihedral:3", "dihedral:5", "sym:3", "sym:4"]


def test_trivial_group():
    g = cyclic_group(1)
    assert g.order == 1
    assert g.weights.tolist() == [1.0]


def test_cyclic4_uniform_weights():
    g = cyclic_group(4)
    assert g.order == 4
    assert np.allclose(g.weights, 0.25)


def test_sym3_table_matches_permutation_composition():
    # oracle: rebuild the table directly from tuple composition, for sym:3 and sym:4
    for n in (3, 4):
        g = symmetric_group(n)
        elems = sorted(permutations(range(n)))
        for a, pa in enumerate(elems):
            for b, pb in enumerate(elems):
                prod = tuple(pa[pb[x]] for x in range(n))
                assert elems[g.table[a, b]] == prod


def _table_by_rule(spec):
    """The table of ``zn:N`` or ``dihedral:N`` from its composition rule, one product at a time."""
    head, n = spec.split(":")
    n = int(n)
    if head == "zn":
        elems, compose = range(n), lambda a, b: (a + b) % n
    else:
        # s^f1 r^k1 * s^f2 r^k2 = s^(f1+f2) r^((-1)^f2 k1 + k2), with s^f r^k at index f*n + k
        elems = [(f, k) for f in (0, 1) for k in range(n)]
        compose = lambda x, y: ((x[0] + y[0]) % 2, ((-1) ** y[0] * x[1] + y[1]) % n)
    index = {e: i for i, e in enumerate(elems)}
    return np.array([[index[compose(a, b)] for b in elems] for a in elems])


@pytest.mark.parametrize(
    "spec", [f"zn:{n}" for n in range(1, 65)] + [f"dihedral:{n}" for n in range(3, 130)]
)
def test_cyclic_and_dihedral_tables_match_the_composition_rules(spec):
    g = make_group(spec)
    assert np.array_equal(g.table, _table_by_rule(spec))
    assert g.table.dtype == np.int64 and g.table.flags.c_contiguous
    assert g.identity == 0


def test_dihedral_table_peaks_at_twice_its_bytes_at_most():
    # the table is built in place: one temporary as large would already reach 2x
    tracemalloc.start()
    try:
        g = make_group("dihedral:1024")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * g.table.nbytes


@pytest.mark.parametrize("spec", ALL_FINITE)
def test_finite_table_is_latin_square(spec):
    g = make_group(spec)
    n = g.order
    want = list(range(n))
    for r in range(n):
        assert sorted(g.table[r, :]) == want
        assert sorted(g.table[:, r]) == want


@pytest.mark.parametrize("spec", ALL_FINITE)
def test_identity_law(spec):
    g = make_group(spec)
    e = g.identity
    for k in range(g.order):
        assert g.multiply(e, k) == k
        assert g.multiply(k, e) == k


@pytest.mark.parametrize("spec", ALL_FINITE)
def test_weights_sum_to_one(spec):
    g = make_group(spec)
    assert abs(g.weights.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("spec", ALL_FINITE)
def test_haar_invariance_finite(spec):
    g = make_group(spec)
    rng = np.random.default_rng(3)
    phi = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
    base = np.dot(g.weights, phi)
    for h in range(g.order):
        shifted = phi[g.table[h, :]]
        assert abs(np.dot(g.weights, shifted) - base) < 1e-12


def test_haar_constant_is_one():
    for spec in ["zn:5", "sym:3", "circle:16"]:
        g = make_group(spec)
        assert abs(haar_integrate(g, lambda x: 1.0) - 1.0) < 1e-12


def test_haar_fourth_roots_of_unity():
    g = cyclic_group(4)
    val = haar_integrate(g, lambda k: np.exp(2j * np.pi * k / 4))
    assert abs(val) < 1e-12


def test_haar_circle_constant_integrand():
    g = circle_group(8)
    val = haar_integrate(g, lambda t: np.exp(1j * t) * np.exp(-1j * t))
    assert abs(val - 1.0) < 1e-12


def test_circle_quadrature_kills_characters():
    g = circle_group(16)
    for m in range(1, 16):
        for sign in (1, -1):
            val = haar_integrate(g, np.exp(1j * sign * m * g.thetas))
            assert abs(val) < 1e-12, (m, sign)


def test_circle_angles_reduced():
    g = circle_group(8)
    assert np.all(g.thetas >= 0) and np.all(g.thetas < 2 * np.pi)
    prod = g.multiply(g.thetas[7], g.thetas[5])
    assert 0 <= prod < 2 * np.pi


def test_su2_nodes_unitary_unit_determinant():
    g = su2_group(1.5)
    for mat in (node_element(g, k) for k in range(g.n_nodes)):
        assert np.max(np.abs(mat @ mat.conj().T - np.eye(2))) < 1e-12
        assert abs(np.linalg.det(mat) - 1.0) < 1e-12
    assert abs(g.weights.sum() - 1.0) < 1e-12


def test_su2_grid_nodes_match_euler_factorization():
    # node k's Euler angles and weight are the k-th point of the product grid
    from grouplab.groups import su2_matrix_from_euler

    g = make_group("su2:j=1.5")
    x, glw = np.polynomial.legendre.leggauss(4)
    n_torus = 7
    k = 0
    for alpha in 2 * np.pi * np.arange(n_torus) / n_torus:
        for ib, beta in enumerate(np.arccos(x)):
            for gamma in 4 * np.pi * np.arange(n_torus) / n_torus:
                assert node_element(g, k).tobytes() == su2_matrix_from_euler(alpha, beta, gamma).tobytes()
                assert g.eulers[k].tolist() == [alpha, beta, gamma]
                assert g.weights[k] == glw[ib] / (2.0 * n_torus * n_torus)
                k += 1
    assert k == g.n_nodes == 196


def test_su2_wigner_entry_orthogonality():
    # quadrature reproduces Schur orthogonality of the cached Wigner entries
    from grouplab.catalog import su2_irrep_matrix

    g = su2_group(1.5)
    entries = {}
    for two_j in range(0, 4):
        grids = np.array([su2_irrep_matrix(two_j, node_element(g, k)) for k in range(g.n_nodes)])
        entries[two_j] = grids
    for tj1 in range(0, 4):
        d1 = tj1 + 1
        for tj2 in range(tj1, 4):
            d2 = tj2 + 1
            for i1 in range(d1):
                for j1 in range(d1):
                    for i2 in range(d2):
                        for j2 in range(d2):
                            val = np.dot(
                                g.weights,
                                entries[tj1][:, i1, j1] * np.conj(entries[tj2][:, i2, j2]),
                            )
                            want = (
                                1.0 / d1
                                if (tj1, i1, j1) == (tj2, i2, j2)
                                else 0.0
                            )
                            assert abs(val - want) < 1e-8


def test_make_group_rejects_bad_specs():
    for bad in ["zn", "zn:0", "dihedral:2", "sym:5", "circle:0", "su2:j=-1", "su2:quad=4", "what:3"]:
        with pytest.raises(ValueError):
            make_group(bad)


def test_su2_quad_too_small_rejected():
    with pytest.raises(ValueError):
        su2_group(2, quad=3)


def test_haar_integrate_value_array_shape_check():
    g = cyclic_group(4)
    with pytest.raises(ValueError):
        haar_integrate(g, np.ones(5))


def test_dihedral_order():
    assert dihedral_group(5).order == 10
    assert make_group("dihedral:5").name == "dihedral:5"


def test_identity_law_continuous():
    g = circle_group(16)
    for k in [0, 3, 11]:
        theta = node_element(g, k)
        assert abs(g.multiply(g.identity, theta) - theta) < 1e-15
        assert abs(g.multiply(theta, g.identity) - theta) < 1e-15
    s = su2_group(1)
    for k in [0, 4, 20]:
        mat = node_element(s, k)
        assert np.max(np.abs(s.multiply(s.identity, mat) - mat)) < 1e-15
        assert np.max(np.abs(s.multiply(mat, s.identity) - mat)) < 1e-15
