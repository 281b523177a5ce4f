import math
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from grouplab.catalog import (
    _FINITE_SEED,
    _averaged_commutant,
    _cluster_eigs,
    build_catalog,
    matrix_coefficient,
    peter_weyl_basis,
    store_bytes,
    su2_irrep_matrix,
)
from grouplab.groups import circle_group, cyclic_group, grid_shape, make_group, su2_group
from grouplab.hilbert import tolerance
from grouplab.spec import ConfigError

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


def _scatter_add_commutant(table, rng):
    # the longhand construction the gathers replaced: (L_g H L_g^T)[perm[i], perm[j]] = H[i, j]
    n = table.shape[0]
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = x + x.conj().T
    t = np.zeros((n, n), dtype=np.complex128)
    for g in range(n):
        perm = table[g, :]
        t[np.ix_(perm, perm)] += h
    return t / n


def _first_draw(table):
    """The inverse-translation table and the first draw's averaged commutant, as the catalog makes them."""
    n = table.shape[0]
    left = np.argsort(table, axis=1)
    t = _averaged_commutant(left, np.random.default_rng(_FINITE_SEED + 977 * n))
    return left, t


@pytest.mark.parametrize("spec", FINITE)
def test_gathered_commutant_equals_the_scatter_add_loop_bitwise(spec):
    table = make_group(spec).table
    n = table.shape[0]
    left, t = _first_draw(table)
    # row g of ``left`` lists g^-1 x: it inverts row g of the table
    assert np.array_equal(np.take_along_axis(table, left, axis=1), np.tile(np.arange(n), (n, 1)))
    assert np.array_equal(t, _scatter_add_commutant(table, np.random.default_rng(_FINITE_SEED + 977 * n)))


def _cluster_eigs_loop(vals, tol):
    # the longhand chaining the split replaced: a value joins the last cluster
    # when it is less than tol above the cluster's last value
    order = np.argsort(vals)
    clusters = [[order[0]]]
    for idx in order[1:]:
        if vals[idx] - vals[clusters[-1][-1]] < tol:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    return [np.array(c) for c in clusters]


def _assert_same_clusters(got, want):
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("spec", FINITE)
def test_cluster_split_equals_the_chaining_loop_on_the_first_draw(spec):
    vals = np.linalg.eigh(_first_draw(make_group(spec).table)[1])[0]
    tol = tolerance("irrep_cluster") * max(float(vals[-1] - vals[0]), 1.0)
    _assert_same_clusters(_cluster_eigs(vals, tol), _cluster_eigs_loop(vals, tol))


@pytest.mark.parametrize("tol, sizes", [(0.5, [2, 1, 1, 1]), (np.nextafter(0.5, 1.0), [4, 1])])
def test_cluster_split_at_a_gap_of_exactly_tol_and_just_below_it(tol, sizes):
    # the gaps are 0, 0.5, 0.5 and 1.0: a gap of exactly tol splits, one just below chains
    vals = np.array([1.0, 0.0, 2.0, 0.5, 0.0])
    got = _cluster_eigs(vals, tol)
    _assert_same_clusters(got, _cluster_eigs_loop(vals, tol))
    assert [len(c) for c in got] == sizes


@pytest.mark.parametrize("spec", FINITE)
def test_store_grids_match_the_per_element_loop_on_each_first_copy(spec):
    # the store keeps each class's first cluster, whose grid B^H L_g B the
    # per-element loop rebuilds; no bitwise claim, since another BLAS may
    # split the catalog's batched product differently
    group = make_group(spec)
    table = group.table
    n = table.shape[0]
    vals, vecs = np.linalg.eigh(_first_draw(table)[1])
    spread = max(float(vals[-1] - vals[0]), 1.0)
    cat = build_catalog(group)
    unmatched = {lab.key: cat.grids[lab.key] for lab in cat.labels}
    for cluster in _cluster_eigs(vals, tolerance("irrep_cluster") * spread):
        basis, _ = np.linalg.qr(vecs[:, cluster])
        want = np.empty((n, len(cluster), len(cluster)), dtype=np.complex128)
        for g in range(n):
            # L_g basis: row permutation e_h -> e_{g h}
            lb = np.zeros_like(basis)
            lb[table[g, :], :] = basis
            want[g] = basis.conj().T @ lb
        chars = np.einsum("gii->g", want)
        key = next(
            (k for k, grid in unmatched.items() if np.allclose(np.einsum("gii->g", grid), chars, atol=1e-6)),
            None,
        )
        if key is not None:    # a later copy of a class finds its key taken
            assert np.max(np.abs(unmatched.pop(key) - want)) <= 1e-14
    assert not unmatched


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
