import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from grouplab import catalog
from grouplab.catalog import (
    RepCatalog,
    build_catalog,
    gram_defect_bound,
    matrix_coefficient,
    peter_weyl_basis,
    store_bytes,
    su2_irrep_matrix,
)
from grouplab.groups import circle_group, cyclic_group, grid_shape, make_group, su2_group
from grouplab.hilbert import OrthonormalFamily, tolerance
from grouplab.semicomplete import OmissionSpec, build_riemann_lebesgue_family
from grouplab.spec import ConfigError
from support import dixon_irreps

#: The finite groups of tests/test_groups.py, and one of order 128.
FINITE = ["zn:1", "zn:4", "zn:12", "dihedral:3", "dihedral:5", "sym:3", "sym:4", "dihedral:64"]


def test_cyclic4_characters_match_brute_force():
    # oracle: the four characters k -> exp(2 pi i m k / 4), matched as a set
    g = cyclic_group(4)
    cat = build_catalog(g)
    assert [lab.degree for lab in cat.labels] == [1, 1, 1, 1]
    assert sum(lab.degree**2 for lab in cat.labels) == 4
    expected = [np.exp(2j * np.pi * m * np.arange(4) / 4) for m in range(4)]
    got = [cat.grids[lab.key][:, 0, 0] for lab in cat.labels]
    matched = set()
    for vec in got:
        hits = [
            m
            for m, exp in enumerate(expected)
            if m not in matched and np.max(np.abs(vec - exp)) < 1e-10
        ]
        assert hits, "catalog character is not a 4th-root character"
        matched.add(hits[0])
    assert matched == {0, 1, 2, 3}


def test_sym3_degrees(sym3_catalog):
    assert sorted(lab.degree for lab in sym3_catalog.labels) == [1, 1, 2]
    assert sum(lab.degree**2 for lab in sym3_catalog.labels) == 6


def test_sym3_character_orthogonality_brute_force(sym3, sym3_catalog):
    # oracle: plain double loop over the 6 elements, no kernel code
    chars = {
        lab.key: np.array([np.trace(sym3_catalog.grids[lab.key][g]) for g in range(6)])
        for lab in sym3_catalog.labels
    }
    keys = list(chars)
    for k1 in keys:
        for k2 in keys:
            acc = sum(chars[k1][g] * np.conj(chars[k2][g]) for g in range(6)) / 6
            want = 1.0 if k1 == k2 else 0.0
            assert abs(acc - want) < 1e-10


@pytest.mark.parametrize("spec,order", [("zn:12", 12), ("dihedral:5", 10), ("sym:3", 6), ("sym:4", 24)])
def test_dimension_count(spec, order):
    cat = build_catalog(make_group(spec))
    assert sum(lab.degree**2 for lab in cat.labels) == order


@pytest.mark.parametrize("spec", ["zn:12", "dihedral:5", "sym:4"])
def test_homomorphism_unitarity_on_samples(spec):
    g = make_group(spec)
    cat = build_catalog(g)
    rng = np.random.default_rng(11)
    for _ in range(25):
        a, b = rng.integers(0, g.order, 2)
        ab = g.multiply(int(a), int(b))
        for lab in cat.labels:
            ua = cat.coefficient_matrix(lab, int(a))
            ub = cat.coefficient_matrix(lab, int(b))
            uab = cat.coefficient_matrix(lab, ab)
            assert np.max(np.abs(ua @ ub - uab)) < 1e-10
            assert np.max(np.abs(ua @ ua.conj().T - np.eye(lab.degree))) < 1e-10


# ---------------------------------------------------------------------------
# finite groups: the closed forms, their checks, and Dixon's method as the oracle

#: Every group of FINITE, and the cyclic and dihedral groups up to order 80.
ORACLE = list(dict.fromkeys([*FINITE, *(f"zn:{n}" for n in range(1, 41)), *(f"dihedral:{n}" for n in range(3, 41))]))


@pytest.mark.parametrize("spec", ORACLE)
def test_closed_forms_match_dixon_label_by_label(spec):
    # characters do not depend on the basis, so the sort by rounded characters
    # gives Dixon's order, keys and degrees
    group = make_group(spec)
    cat = build_catalog(group)
    want = dixon_irreps(group.table)
    assert [lab.key for lab in cat.labels] == [f"irrep:{k}" for k in range(len(want))]
    assert [lab.degree for lab in cat.labels] == [d for d, _ in want]
    for lab, (_, chars) in zip(cat.labels, want):
        assert np.max(np.abs(np.einsum("gii->g", cat.grids[lab.key]) - chars)) <= 1e-12, lab.key


@pytest.mark.parametrize("spec", FINITE)
def test_every_product_is_unitary_homomorphic_and_schur_orthogonal_within_1e_12(spec):
    # the build checks the generators only; every pair of elements is what that stands for
    group = make_group(spec)
    cat = build_catalog(group)
    assert peter_weyl_basis(cat).gram_defect() <= 1e-12
    for lab in cat.labels:
        grid = cat.grids[lab.key]
        assert np.max(np.abs(grid[group.table] - grid[:, None] @ grid[None])) <= 1e-12, lab.key
        assert np.max(np.abs(grid @ grid.conj().transpose(0, 2, 1) - np.eye(lab.degree))) <= 1e-12


@pytest.mark.parametrize("spec", FINITE)
def test_the_trivial_irrep_and_the_identity_images_are_exact(spec):
    cat = build_catalog(make_group(spec))
    assert np.all(cat.store[0] == 1.0)
    for lab in cat.labels:
        assert np.array_equal(cat.grids[lab.key][0], np.eye(lab.degree)), lab.key


def test_the_finite_build_draws_no_random_numbers_and_calls_no_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the finite build called a random or LAPACK routine")

    for name in ("eig", "eigh", "qr", "svd", "solve", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    for spec in FINITE:
        build_catalog(make_group(spec))


def _corrupted_form(monkeypatch, spec, corrupt):
    """Patch the closed form of ``spec``'s family to pass its grids through ``corrupt``."""
    head = spec.split(":")[0]
    form = catalog._FINITE_FORMS[head]

    def patched(size, table):
        grids, generators = form(size, table)
        return corrupt(grids), generators

    monkeypatch.setitem(catalog._FINITE_FORMS, head, patched)


@pytest.mark.parametrize("spec, element", [("zn:12", 5), ("dihedral:5", 7), ("sym:4", 13), ("sym:4", 0)])
def test_a_grid_entry_off_by_1e_9_fails_the_generator_check_naming_its_label(monkeypatch, spec, element):
    group = make_group(spec)
    clean = build_catalog(group)
    head, size = spec.split(":")
    last = catalog._FINITE_FORMS[head](int(size), group.table)[0][-1]    # the irrep to corrupt
    key = next(lab.key for lab in clean.labels if np.array_equal(clean.grids[lab.key], last))

    def corrupt(grids):
        grids[-1][element, 0, -1] += 1e-9
        return grids

    _corrupted_form(monkeypatch, spec, corrupt)
    with pytest.raises(RuntimeError, match=f"{key} of {spec} has homomorphism residual") as raised:
        build_catalog(group)
    assert 0.5e-9 <= float(str(raised.value).split()[-1]) <= 2e-9


def test_a_non_unitary_equivalent_irrep_fails_the_generator_check(monkeypatch):
    # A u A^-1 still multiplies like the group, but its images are not unitary
    a = np.array([[1.0, 0.5], [0.0, 1.0]])
    _corrupted_form(monkeypatch, "dihedral:5", lambda grids: grids[:-1] + [a @ grids[-1] @ np.linalg.inv(a)])
    with pytest.raises(RuntimeError, match=r"irrep:\d of dihedral:5 has homomorphism residual 0\.\d"):
        build_catalog(make_group("dihedral:5"))


def test_a_repeated_irrep_fails_the_schur_check(monkeypatch):
    # a copy of an irrep is a unitary homomorphism but not orthogonal to its original
    _corrupted_form(monkeypatch, "dihedral:5", lambda grids: grids + grids[-1:])
    with pytest.raises(RuntimeError, match="dihedral:5 have Schur orthogonality defect 1"):
        build_catalog(make_group("dihedral:5"))


def test_finite_stores_have_the_same_bytes_under_one_and_two_blas_threads():
    script = (
        "import hashlib, sys\n"
        "from grouplab.catalog import build_catalog\n"
        "from grouplab.groups import make_group\n"
        "for spec in sys.argv[1:]:\n"
        "    print(spec, hashlib.sha256(build_catalog(make_group(spec)).store.tobytes()).hexdigest())\n"
    )
    src = str(Path(catalog.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script, "dihedral:64", "sym:4"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        digests.append(result.stdout)
    assert digests[0] == digests[1] and digests[0].count("\n") == 2


def test_identity_matrix_at_identity(sym3, sym3_catalog):
    for lab in sym3_catalog.labels:
        u = sym3_catalog.coefficient_matrix(lab, sym3.identity)
        assert np.max(np.abs(u - np.eye(lab.degree))) < 1e-10


def test_schur_orthogonality_finite(sym3, sym3_catalog):
    # haar(u_ij conj(u_kl)) = delta/d, by explicit sum over the group
    labs = sym3_catalog.labels
    for l1 in labs:
        g1 = sym3_catalog.grids[l1.key]
        for l2 in labs:
            g2 = sym3_catalog.grids[l2.key]
            for i in range(l1.degree):
                for j in range(l1.degree):
                    for k in range(l2.degree):
                        for l in range(l2.degree):
                            acc = np.dot(sym3.weights, g1[:, i, j] * np.conj(g2[:, k, l]))
                            want = (
                                1.0 / l1.degree
                                if (l1.key, i, j) == (l2.key, k, l)
                                else 0.0
                            )
                            assert abs(acc - want) < 1e-10


def test_matrix_coefficient_entry_and_range(sym3_catalog):
    lab = sym3_catalog.labels[-1]
    assert lab.degree == 2
    val = matrix_coefficient(sym3_catalog, lab, 0, 0, 0)
    assert abs(val - 1.0) < 1e-12  # identity element
    with pytest.raises(IndexError):
        matrix_coefficient(sym3_catalog, lab, 2, 0, 0)


def test_circle_coefficient_at_quarter_turn():
    g = circle_group(8)
    cat = build_catalog(g, truncation=1)
    lab = cat.label_by_key("m:1")
    val = matrix_coefficient(cat, lab, 0, 0, np.pi / 2)
    assert abs(val - 1j) < 1e-12


def test_su2_defining_representation():
    g = su2_group(1)
    cat = build_catalog(g)
    lab = cat.label_by_key("j:0.5")
    for k in [0, 5, 17]:
        mat = g.node_element(k)
        assert np.max(np.abs(cat.coefficient_matrix(lab, mat) - mat)) < 1e-12


def test_su2_spin1_is_symmetric_square_of_defining():
    # oracle: project g (x) g onto the symmetric subspace in an orthonormal basis
    g = su2_group(1)
    p = np.array(
        [
            [1, 0, 0, 0],
            [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0],
            [0, 0, 0, 1],
        ]
    )
    rng = np.random.default_rng(5)
    for k in rng.integers(0, g.n_nodes, 10):
        mat = g.node_element(k)
        sym_sq = p @ np.kron(mat, mat) @ p.conj().T
        spin1 = su2_irrep_matrix(2, mat)
        assert np.max(np.abs(sym_sq - spin1)) < 1e-12


@pytest.mark.parametrize("spec", ["su2:j=4", "su2:j=2.5,quad=7"])
def test_su2_grid_matches_per_node_oracle(spec):
    # the Euler-factorized grid against su2_irrep_matrix at every node
    g = make_group(spec)
    cat = build_catalog(g)
    for lab in cat.labels:
        two_j = int(round(2 * lab.payload))
        grid = cat.grids[lab.key]
        assert grid.shape == (g.n_nodes, two_j + 1, two_j + 1)
        oracle = np.array([su2_irrep_matrix(two_j, g.node_element(k)) for k in range(g.n_nodes)])
        assert np.max(np.abs(grid - oracle)) < 1e-13


@pytest.mark.parametrize(
    "spec, n_beta, n_spins", [("su2:j=4", 9, 9), ("su2:j=2.5,quad=7", 7, 6)]
)
def test_su2_build_calls_oracle_once_per_beta_node_and_spin(monkeypatch, spec, n_beta, n_spins):
    import grouplab.catalog as catalog

    g = make_group(spec)
    assert len(np.unique(g.eulers[:, 1])) == n_beta
    calls = []

    def counting(two_j, mat):
        calls.append(two_j)
        return su2_irrep_matrix(two_j, mat)

    monkeypatch.setattr(catalog, "su2_irrep_matrix", counting)
    cat = catalog.build_catalog(g)
    assert len(cat.labels) == n_spins
    assert len(calls) == n_beta * n_spins  # 81 for su2:j=4


def test_catalog_label_order_nondecreasing_magnitude():
    for spec, trunc in [("sym:4", None), ("circle:16", 5), ("su2:j=1.5", None)]:
        cat = build_catalog(make_group(spec), truncation=trunc)
        mags = [lab.magnitude for lab in cat.labels]
        assert mags == sorted(mags)


def test_circle_truncation_magnitudes():
    cat = build_catalog(circle_group(64), truncation=5)
    ms = sorted(lab.payload for lab in cat.labels)
    assert ms == list(range(-5, 6))
    assert all(lab.magnitude == abs(lab.payload) for lab in cat.labels)


def test_truncation_beyond_capacity_rejected():
    with pytest.raises(ValueError):
        build_catalog(circle_group(8), truncation=4)
    with pytest.raises(ValueError):
        build_catalog(su2_group(1), truncation=2)


@pytest.mark.parametrize("make, truncation", [(circle_group, 2.7), (su2_group, 1.3)])
def test_truncation_between_magnitudes_rejected(make, truncation):
    # rounding would give a label whose magnitude exceeds the bound, or silently drop one
    with pytest.raises(ValueError, match="multiple of"):
        build_catalog(make(16 if make is circle_group else 2), truncation=truncation)


def test_integral_float_truncation_accepted():
    assert [lab.magnitude for lab in build_catalog(su2_group(2), truncation=1.5).labels] == [
        0.0, 0.5, 1.0, 1.5
    ]
    assert len(build_catalog(circle_group(16), truncation=2.0).labels) == 5


def test_peter_weyl_gram_cyclic2():
    cat = build_catalog(cyclic_group(2))
    fam = peter_weyl_basis(cat)
    # the two characters are 1 and (-1)^k
    vals = sorted(tuple(np.round(row.real).astype(int)) for row in fam.members)
    assert vals == [(1, -1), (1, 1)]
    assert np.max(np.abs(fam.gram_matrix() - np.eye(2))) < 1e-12


def test_peter_weyl_gram_sym3_brute_force(sym3, sym3_catalog):
    fam = peter_weyl_basis(sym3_catalog)
    assert fam.n_members == 6
    # gram by explicit double sum, independent of the kernel path
    chi = fam.scale[:, None] * fam.members
    g = np.empty((6, 6), dtype=complex)
    for a in range(6):
        for b in range(6):
            g[a, b] = sum(sym3.weights[k] * chi[a, k] * np.conj(chi[b, k]) for k in range(6))
    assert np.max(np.abs(g - np.eye(6))) < 1e-12
    assert fam.gram_defect() < 1e-12


def test_peter_weyl_gram_circle64():
    cat = build_catalog(circle_group(64), truncation=5)
    fam = peter_weyl_basis(cat)
    assert fam.n_members == 11
    assert fam.gram_defect() < 1e-12


# ---------------------------------------------------------------------------
# the circle: store rows from one table of roots, and the Toeplitz Gram bound

CIRCLE_SIZES = [1, 2, 3, 16, 64, 1023, 1024, 4096]


@pytest.mark.parametrize("n", CIRCLE_SIZES)
def test_circle_store_is_gathered_from_one_table_of_roots(n):
    group = circle_group(n)
    cat = build_catalog(group)
    roots = np.exp(1j * group.thetas)
    nodes = np.arange(n)
    # exp(i m theta_k) at the exact angle 2 pi (m k mod n) / n, evaluated in long
    # double; the float product m * theta_k alone rounds by up to 2.3e-12 at n = 4096
    angle = nodes * (8 * np.arctan(np.longdouble(1)) / n)
    exact = (np.cos(angle) + 1j * np.sin(angle)).astype(np.complex128)
    for row, lab in enumerate(cat.labels):
        index = lab.payload * nodes % n
        assert np.array_equal(cat.store[row], roots[index]), lab.key
        assert np.max(np.abs(cat.store[row] - exact[index])) < 1e-12, lab.key


def test_circle_store_is_gathered_through_a_bounded_index_slab():
    # circle:1024's store is 16.7 MB; beside it the build holds one 0.5 MB
    # index slab and the labels and grid views (about 1.5 MB), while an index
    # of the store's size would add 8.4 MB and a gathered copy 16.7 MB
    tracemalloc.start()
    try:
        cat = build_catalog(circle_group(1024))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cat.store.nbytes + 4 * 2**20, peak - cat.store.nbytes


@pytest.mark.parametrize("n", CIRCLE_SIZES)
def test_circle_gram_bound_is_at_least_the_dense_defect_and_within_1e_13(n):
    cat = build_catalog(circle_group(n))
    top = int(cat.group.capacity)
    # a gap (m:-1 is the second store row) and the top frequency's tail
    omissions = [()] + ([("m:-1", f"m:{top}")] if top else [])
    for omit in omissions:
        fam = build_riemann_lebesgue_family(cat, OmissionSpec(omitted=omit))
        bound, dense = gram_defect_bound(cat, fam), fam.gram_defect()
        assert dense <= bound <= dense + 1e-13, (omit, bound, dense)


@pytest.mark.parametrize("spec", ["sym:3", "su2:j=1"])
def test_gram_defect_bound_is_the_dense_defect_off_the_circle(spec):
    cat = build_catalog(make_group(spec))
    fam = peter_weyl_basis(cat)
    assert gram_defect_bound(cat, fam) == fam.gram_defect()


def test_circle_gram_bound_sees_one_weight_and_one_member_entry():
    cat = build_catalog(circle_group(1024))
    fam = peter_weyl_basis(cat)
    limit = tolerance("gram", "circle")
    assert gram_defect_bound(cat, fam) < 1e-13
    members = fam.members.copy()
    members[700, 300] += 1e-6
    broken = OrthonormalFamily(fam.group, fam.blocks, members, fam.scale)
    # rho = 1e-6 adds 2e-6; the dense defect sees about 1e-6 / n of it
    assert gram_defect_bound(cat, broken) > 2e-6 > limit > broken.gram_defect()
    weights = cat.group.weights.copy()
    weights[300] += 1e-6
    group = dataclasses.replace(cat.group, weights=weights)
    moved = OrthonormalFamily(group, fam.blocks, fam.members, fam.scale)
    moved_cat = RepCatalog(group, cat.labels, cat.store)
    # every w^(j) moves by 1e-6
    assert gram_defect_bound(moved_cat, moved) > 1e-6 > limit
    members[700, 300] = np.nan
    nan = OrthonormalFamily(fam.group, fam.blocks, members, fam.scale)
    assert math.isnan(gram_defect_bound(cat, nan))


def test_circle_gram_bound_sees_a_weight_ripple_at_a_lag_the_family_lacks():
    # frequencies |m| <= 3 differ by at most 6, so a ripple at lag 20 leaves the
    # dense defect at rounding; the whole weight spectrum still shows it
    cat = build_catalog(circle_group(64), truncation=3)
    weights = 1.0 + 1e-6 * np.cos(2 * np.pi * 20 * np.arange(64) / 64)
    group = dataclasses.replace(cat.group, weights=weights / weights.sum())
    rippled = RepCatalog(group, cat.labels, cat.store)
    fam = peter_weyl_basis(rippled)
    assert fam.gram_defect() < 1e-15
    assert gram_defect_bound(rippled, fam) > 1e-8 >= tolerance("gram", "circle")


# ---------------------------------------------------------------------------
# the coefficient store


def _vstack_family_members(cat, labels):
    # the per-label construction the store replaced
    return np.vstack(
        [math.sqrt(lab.degree) * cat.grids[lab.key].reshape(-1, lab.degree**2).T for lab in labels]
    )


@pytest.mark.parametrize("spec", ["sym:3", "dihedral:5", "su2:j=1.5", "circle:16", "zn:12"])
def test_grids_are_views_of_the_store_in_member_layout(spec):
    cat = build_catalog(make_group(spec))
    n = cat.group.n_nodes
    assert cat.store.shape == (sum(lab.degree**2 for lab in cat.labels), n)
    assert len(cat.blocks) == len(cat.labels)
    for lab, b in zip(cat.labels, cat.blocks):
        d = lab.degree
        assert (b.label, b.size) == (lab.key, d)
        grid = cat.grids[lab.key]
        assert grid.shape == (n, d, d) and np.shares_memory(grid, cat.store)
        rows = grid.reshape(n, d * d).T
        assert rows.flags.c_contiguous and np.shares_memory(rows, cat.store)
        assert np.array_equal(rows, cat.store[b.rows])
        # u_ij sits at row offset + i*d + j
        assert np.array_equal(cat.store[b.offset + (d - 1) * d], grid[:, d - 1, 0])


@pytest.mark.parametrize(
    "spec, omit, unit_view",
    [
        ("circle:16", (), True),
        ("zn:12", (), True),
        ("circle:16", ("m:7", "m:-7", "m:6"), True),    # a tail omission
        ("circle:16", ("m:1",), False),                 # a gap in the retained rows
        ("sym:3", (), False),                           # sqrt(2) scaling
        ("sym:3", ("irrep:1",), False),
        ("dihedral:5", (), False),
        ("dihedral:5", ("irrep:2",), False),
        ("su2:j=1.5", (), False),
        ("su2:j=1.5", ("j:0.5",), False),
        ("dihedral:5", ("irrep:3",), False),            # tail omissions of degree 2
        ("su2:j=1.5", ("j:1.5", "j:1"), False),
    ],
)
def test_families_share_the_store_or_bit_equal_per_label_vstack(spec, omit, unit_view):
    # a retained set on one run of store rows is a view of the store and of
    # cat.scale, a set with a gap is gathered; ``unit_view`` families are views
    # with a unit scale, whose store rows are their member functions
    from grouplab.semicomplete import OmissionSpec, build_riemann_lebesgue_family

    cat = build_catalog(make_group(spec))
    fam = build_riemann_lebesgue_family(cat, OmissionSpec(omitted=omit))
    runs = [b.rows for b in cat.blocks if b.label not in omit]
    contiguous = all(a.stop == b.start for a, b in zip(runs, runs[1:]))
    assert np.shares_memory(fam.members, cat.store) == contiguous
    assert np.shares_memory(fam.scale, cat.scale) == contiguous
    assert (contiguous and bool(np.all(fam.scale == 1.0))) == unit_view
    if not omit:
        pw = peter_weyl_basis(cat)
        assert np.shares_memory(pw.members, cat.store) and np.shares_memory(pw.scale, cat.scale)
    retained = [lab for lab in cat.labels if lab.key not in omit]
    want = _vstack_family_members(cat, retained)
    assert (fam.scale[:, None] * fam.members).tobytes() == want.tobytes()
    if unit_view:   # 1.0 * u may differ from u in the sign of a zero
        assert np.array_equal(fam.members, want)


def test_omitting_the_top_spin_allocates_no_family_copy():
    # su2:j=4 without j:4 keeps the contiguous blocks j:0 .. j:3.5: a view, where
    # a gathered and scaled copy of those rows would be 8.1 MiB of the 11.3 MiB store
    from grouplab.semicomplete import OmissionSpec, build_riemann_lebesgue_family

    cat = build_catalog(make_group("su2:j=4"))
    tracemalloc.start()
    try:
        fam = build_riemann_lebesgue_family(cat, OmissionSpec(omitted=("j:4",)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fam.n_members == cat.store.shape[0] - 81
    assert peak < 0.01 * cat.store.nbytes, f"family build allocated {peak} B"


def test_store_grids_and_shared_members_are_read_only():
    cat = build_catalog(make_group("circle:16"))
    with pytest.raises(ValueError, match="read-only"):
        cat.grids["m:1"][0, 0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        cat.store[0, 0] = 0.0
    fam = peter_weyl_basis(cat)
    with pytest.raises(ValueError, match="read-only"):
        fam.members[0, 0] = 0.0
    su2 = build_catalog(make_group("su2:j=1"))
    with pytest.raises(ValueError, match="read-only"):
        su2.grids["j:1"][0] *= 2.0


@pytest.mark.parametrize(
    "spec, truncation",
    [
        ("zn:5", None),
        ("dihedral:4", 1),
        ("sym:3", None),
        ("sym:4", None),
        ("circle:16", None),
        ("circle:16", 3),
        ("circle:17", 2.0),
        ("su2:j=1.5", None),
        ("su2:j=2", 1),
        ("su2:j=2", 0.5),
        ("su2:j=1,quad=4", None),
        # truncations that build_catalog refuses, on every kind
        ("circle:16", math.nan),
        ("circle:16", math.inf),
        ("circle:16", -math.inf),
        ("circle:16", 2.7),
        ("circle:16", -1),
        ("circle:16", 8),
        pytest.param("circle:16", "3", id="circle:16-string"),
        ("circle:16", True),
        ("su2:j=2", math.nan),
        ("su2:j=2", math.inf),
        ("su2:j=2", 1.3),
        ("su2:j=2", 2.5),
        ("su2:j=2,quad=6", 2.5),
        ("zn:4", math.nan),
        ("zn:4", -math.inf),
        pytest.param("zn:4", "3", id="zn:4-string"),
        ("sym:3", True),
        # a finite group ignores any finite truncation
        ("zn:4", 2.7),
        ("dihedral:4", -5),
    ],
)
def test_store_size_from_the_spec_matches_the_built_catalog(spec, truncation):
    # the preflight sizes a run from the spec alone; the built models are its
    # oracle, and it refuses exactly the truncations that build_catalog refuses
    group = make_group(spec)
    assert grid_shape(spec) == (group.kind, group.n_nodes, group.capacity)

    def outcome(size):
        try:
            return size()
        except ConfigError:
            return ConfigError

    built = outcome(lambda: build_catalog(group, truncation).store.nbytes)
    assert outcome(lambda: store_bytes(spec, truncation)) == built


@pytest.mark.parametrize(
    "spec",
    ["circle:0", "zn:0", "dihedral:2", "sym:2", "sym:5", "su2:j=1.3", "su2:j=1.5000000000001", "su2:j=2,quad=4"],
)
def test_grid_shape_rejects_each_spec_make_group_rejects_with_its_message(spec):
    # one size rule per head: a circle with no nodes is blamed on its node
    # count before any truncation rule sees its capacity
    with pytest.raises(ConfigError) as built:
        make_group(spec)
    with pytest.raises(ConfigError) as sized:
        grid_shape(spec)
    assert str(sized.value) == str(built.value)
