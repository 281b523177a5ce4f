import math

import numpy as np
import pytest

from grouplab.catalog import build_catalog, peter_weyl_basis
from grouplab.fourier import fourier_transform, synthesize
from grouplab.groups import circle_group, cyclic_group, make_group
from grouplab.hilbert import (
    ExpansionWeights,
    L2Function,
    coefficients,
    expand,
    inner,
    project,
    random_function,
    random_functions,
    unit_weights,
)
from grouplab.semicomplete import (
    OmissionSpec,
    build_riemann_lebesgue_family,
    choose_omissions,
    omission_tail_bound,
    semi_fourier_expand,
    semicompleteness_defect,
    validate_weights,
)
from grouplab.spec import ConfigError


def test_omit_nothing_gives_peter_weyl(sym3_catalog):
    fam = build_riemann_lebesgue_family(sym3_catalog, OmissionSpec())
    full = peter_weyl_basis(sym3_catalog)
    assert fam.labels == full.labels
    assert np.array_equal(fam.members, full.members)


def test_omit_top_character_cyclic4():
    cat = build_catalog(cyclic_group(4))
    top = cat.labels[-1].key
    fam = build_riemann_lebesgue_family(cat, OmissionSpec(omitted=(top,)))
    assert fam.n_members == 3


def test_omit_two_dim_block_sym3(sym3_catalog):
    fam = build_riemann_lebesgue_family(sym3_catalog, OmissionSpec(omitted=("irrep:2",)))
    assert fam.n_members == 2
    assert fam.gram_defect() < 1e-12


def test_omission_errors(sym3_catalog):
    with pytest.raises(ValueError):
        build_riemann_lebesgue_family(
            sym3_catalog, OmissionSpec(omitted=("irrep:7",))
        )
    everything = tuple(lab.key for lab in sym3_catalog.labels)
    with pytest.raises(ValueError):
        build_riemann_lebesgue_family(sym3_catalog, OmissionSpec(omitted=everything))


def test_tail_bound_constant_function(sym3, sym3_catalog):
    f = L2Function(sym3, np.ones(6))
    bound = omission_tail_bound(f, sym3_catalog, OmissionSpec(omitted=("irrep:2",)))
    assert bound < 1e-10


def test_tail_bound_single_member(sym3, sym3_catalog):
    # f = sqrt(d) u_00 with its own block omitted: bound = d / sqrt(d) = sqrt(d)
    lab = sym3_catalog.label_by_key("irrep:2")
    f = L2Function(sym3, np.sqrt(2.0) * sym3_catalog.grids[lab.key][:, 0, 0])
    bound = omission_tail_bound(f, sym3_catalog, OmissionSpec(omitted=(lab.key,)))
    assert abs(bound - np.sqrt(2.0)) < 1e-10


def test_tail_bound_matches_coefficient_cyclic12(zn12, zn12_catalog):
    # degree-1 blocks: the bound is exactly |<f, u_m>|
    f = random_function(zn12, 4)
    key = zn12_catalog.labels[5].key
    bound = omission_tail_bound(f, zn12_catalog, OmissionSpec(omitted=(key,)))
    grid = zn12_catalog.grids[key][:, 0, 0]
    oracle = abs(sum(zn12.weights[k] * f.values[k] * np.conj(grid[k]) for k in range(12)))
    assert abs(bound - oracle) < 1e-12


@pytest.mark.parametrize("spec", ["sym:3", "dihedral:5", "zn:12", "circle:16", "su2:j=1.5"])
def test_tail_bound_per_label_is_sqrt_degree_sum_over_its_block(spec):
    cat = build_catalog(make_group(spec))
    f = random_function(cat.group, 9)
    c = coefficients(f, peter_weyl_basis(cat))     # <f, sqrt(d) u_ij>, every label in one row
    start = 0
    for lab in cat.labels:
        d = lab.degree
        bound = omission_tail_bound(f, cat, OmissionSpec(omitted=(lab.key,)))
        assert abs(bound - np.sqrt(d) * np.sum(np.abs(c[start : start + d * d]))) < 1e-12
        start += d * d
    assert start == len(c)


@pytest.mark.parametrize("spec", ["zn:12", "sym:3", "sym:4", "dihedral:5", "circle:64", "su2:j=2"])
def test_stacked_tails_match_the_per_label_transform_loop(spec):
    # the oracle is the longhand loop: one Fourier transform per function, and
    # sqrt(d) * sum_ij |fhat_ij| read from each label's matrix
    cat = build_catalog(make_group(spec))
    fns = random_functions(cat.group, 21, 4)
    oracle = np.array([
        [math.sqrt(lab.degree) * np.sum(np.abs(fourier_transform(f, cat).matrix(lab.key)))
         for lab in cat.labels]
        for f in fns
    ])
    for f, tails in zip(fns, oracle):
        for lab, tail in zip(cat.labels, tails):
            bound = omission_tail_bound(f, cat, OmissionSpec(omitted=(lab.key,)))
            assert bound == pytest.approx(tail, rel=1e-12)
    # choose_omissions against the oracle's greedy suffix, one budget between
    # each pair of consecutive suffix bounds
    n = len(cat.labels)
    suffix = np.cumsum(oracle[:, :0:-1], axis=1).max(axis=0)   # top 1, 2, ..., n-1 labels
    edges = np.concatenate([[0.0], suffix, [2.0 * suffix[-1]]])
    for chosen in range(n):
        eps = (edges[chosen] + edges[chosen + 1]) / 2
        want = tuple(lab.key for lab in cat.labels[n - chosen:])
        assert choose_omissions(cat, fns, eps).omitted == want, chosen


def test_tail_bound_dominates_actual_defect(sym3_catalog, zn12_catalog):
    rng = np.random.default_rng(12)
    for cat in (sym3_catalog, zn12_catalog):
        full = peter_weyl_basis(cat)
        keys = [lab.key for lab in cat.labels]
        for trial in range(25):
            n_omit = int(rng.integers(1, len(keys) - 1))
            omitted = tuple(rng.choice(keys, size=n_omit, replace=False))
            fam = build_riemann_lebesgue_family(cat, OmissionSpec(omitted=omitted))
            f = random_function(cat.group, 1000 + trial)
            actual = (project(f, full) - project(f, fam)).norm()
            bound = omission_tail_bound(f, cat, OmissionSpec(omitted=omitted))
            assert actual <= bound + 1e-9


def test_choose_omissions_band_limited():
    cat = build_catalog(circle_group(64), truncation=10)
    g = cat.group
    rng = np.random.default_rng(9)
    values = np.zeros(64, dtype=complex)
    for m in range(-2, 3):
        values += (rng.standard_normal() + 1j * rng.standard_normal()) * np.exp(
            1j * m * g.thetas
        )
    spec = choose_omissions(cat, [L2Function(g, values)], epsilon=1e-6)
    omitted = set(spec.omitted)
    expected = {lab.key for lab in cat.labels if lab.magnitude > 2}
    assert omitted == expected


def test_choose_omissions_adversarial_member(sym3_catalog):
    # the top block itself is in the test set, with epsilon below sqrt(d)
    lab = sym3_catalog.labels[-1]
    f = L2Function(
        sym3_catalog.group, np.sqrt(2.0) * sym3_catalog.grids[lab.key][:, 0, 0]
    )
    spec = choose_omissions(sym3_catalog, [f], epsilon=1.0)
    assert spec.omitted == ()


def test_choose_omissions_geometric_tail():
    cat = build_catalog(circle_group(64), truncation=10)
    g = cat.group
    values = np.zeros(64, dtype=complex)
    for m in range(-10, 11):
        values += 2.0 ** (-abs(m)) * np.exp(1j * m * g.thetas)
    f = L2Function(g, values)
    eps = 0.1
    spec = choose_omissions(cat, [f], epsilon=eps)
    assert spec.omitted
    # recompute the bound independently and check maximality of the suffix
    assert omission_tail_bound(f, cat, spec) < eps
    n_omitted = len(spec.omitted)
    labels = list(cat.labels)
    longer = tuple(lab.key for lab in labels[-(n_omitted + 1):])
    assert omission_tail_bound(f, cat, OmissionSpec(omitted=longer)) >= eps


def test_choose_omissions_validation(sym3_catalog):
    f = random_function(sym3_catalog.group, 0)
    with pytest.raises(ValueError):
        choose_omissions(sym3_catalog, [f], epsilon=0.0)
    with pytest.raises(ValueError):
        choose_omissions(sym3_catalog, [f], epsilon=float("nan"))
    with pytest.raises(ValueError):
        choose_omissions(sym3_catalog, [], epsilon=0.5)


def test_semicompleteness_defect_needs_one_id_per_function(sym3_catalog):
    # zip would drop the functions past the ids, and max_defect with them
    fam = peter_weyl_basis(sym3_catalog)
    testset = random_functions(sym3_catalog.group, 0, 3)
    with pytest.raises(ValueError, match="1 function ids for 3 test functions"):
        semicompleteness_defect(fam, unit_weights(2), sym3_catalog, testset, function_ids=["a"])


def test_semi_fourier_unit_weights_complete(sym3, sym3_catalog):
    fam = peter_weyl_basis(sym3_catalog)
    w = unit_weights(fam.max_block_size)
    for seed in range(5):
        f = random_function(sym3, seed)
        g = semi_fourier_expand(f, fam, w)
        assert (f - g).norm() < 1e-10


def test_semi_fourier_diagonal_member_reciprocal_weights(sym3_catalog):
    fam = peter_weyl_basis(sym3_catalog)
    gamma = np.array([2.0, -0.5 + 1.0j])
    beta = np.array([[1.0 / 2.0, 3.0], [4.0, 1.0 / (-0.5 + 1.0j)]])
    w = ExpansionWeights(gamma, beta)
    # f = chi at diagonal position (i, i): only the diagonal term survives
    for i in range(2):
        f = fam.member(2, i, i)
        g = semi_fourier_expand(f, fam, w)
        assert (f - g).norm() < 1e-10


def test_semi_fourier_weight_distortion(sym3_catalog):
    fam = peter_weyl_basis(sym3_catalog)
    gamma = np.array([2.0, 1.0])
    beta = np.ones((2, 2))
    f = fam.member(0, 0, 0)
    g = semi_fourier_expand(f, fam, ExpansionWeights(gamma, beta))
    assert (g - 2.0 * f).norm() < 1e-10


def test_semi_fourier_weights_match_longhand_loop(sym3, sym3_catalog):
    # member (i, j) of every block is weighted by gamma[j] * beta[i, j]; the
    # weights are wider than the largest block, so only their leading corner is
    # used.  Their real and imaginary parts are dyadic, so every product
    # gamma[j] * beta[i, j] is exact however it is evaluated, and the scalar
    # loop below must build the same weight vector bit for bit
    fam = peter_weyl_basis(sym3_catalog)
    gamma = np.array([0.5 + 0.5j, 2.0, -0.25j])
    beta = np.array([
        [1.0 - 1.0j, 0.75 + 0.25j, -1.5],
        [0.5j, 0.5, 2.0 - 0.125j],
        [-0.375, 1.0 + 1.0j, 4.0j],
    ])
    w = ExpansionWeights(gamma, beta)
    assert np.array_equal(gamma * np.diag(beta), np.ones(3))
    f = random_function(sym3, 8)
    scale = [
        w.gamma[j] * w.beta[i, j] for b in fam.blocks for i in range(b.size) for j in range(b.size)
    ]
    want = expand(coefficients(f, fam) * np.array(scale), fam)
    assert np.array_equal(semi_fourier_expand(f, fam, w).values, want.values)


def test_semi_fourier_dimension_mismatch(sym3_catalog):
    fam = peter_weyl_basis(sym3_catalog)
    w = unit_weights(1)   # 2-dim block cannot be covered
    with pytest.raises(ConfigError, match="cannot cover a block of size 2"):
        semi_fourier_expand(fam.member(0, 0, 0), fam, w)


def test_semi_fourier_zero_weights_rejected(sym3_catalog):
    # zero weights never reach the expansion: ExpansionWeights rejects them
    fam = peter_weyl_basis(sym3_catalog)
    with pytest.raises(ValueError):
        w = ExpansionWeights(np.array([1.0, 0.0]), np.ones((2, 2)))
        semi_fourier_expand(fam.member(0, 0, 0), fam, w)


def test_coefficient_fixed_point_for_admissible_weights(sym3_catalog):
    # <expansion, chi_ii> equals <f, chi_ii> when gamma_i beta_ii = 1
    fam = peter_weyl_basis(sym3_catalog)
    rng = np.random.default_rng(14)
    for trial in range(10):
        gamma = rng.standard_normal(2) + 1j * rng.standard_normal(2) + 2.0
        beta = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + 2.0
        beta[np.diag_indices(2)] = 1.0 / gamma
        w = ExpansionWeights(gamma, beta)
        for i in range(2):
            f = fam.member(2, i, i)
            g = semi_fourier_expand(f, fam, w)
            assert abs(inner(g, f) - inner(f, f)) < 1e-10


def test_defect_full_family_unit_weights(sym3, sym3_catalog):
    fam = peter_weyl_basis(sym3_catalog)
    testset = [random_function(sym3, s) for s in range(8)]
    report = semicompleteness_defect(fam, unit_weights(2), sym3_catalog, testset)
    assert report.max_defect < 1e-10
    assert report.max_defect == max(d for _, d in report.per_function)


def test_defect_omitted_unit_vector(sym3_catalog):
    fam = build_riemann_lebesgue_family(sym3_catalog, OmissionSpec(omitted=("irrep:2",)))
    lab = sym3_catalog.label_by_key("irrep:2")
    f = L2Function(
        sym3_catalog.group, np.sqrt(2.0) * sym3_catalog.grids[lab.key][:, 0, 0]
    )
    report = semicompleteness_defect(fam, unit_weights(1), sym3_catalog, [f])
    assert abs(report.max_defect - 1.0) < 1e-10


def test_defect_retained_span_small(sym3_catalog):
    fam = build_riemann_lebesgue_family(sym3_catalog, OmissionSpec(omitted=("irrep:2",)))
    testset = [fam.member_flat(k) for k in range(fam.n_members)]
    report = semicompleteness_defect(fam, unit_weights(1), sym3_catalog, testset)
    assert report.max_defect < 1e-9


def test_defect_monotone_in_omission(zn12, zn12_catalog):
    rng = np.random.default_rng(6)
    keys = [lab.key for lab in zn12_catalog.labels]
    f = random_function(zn12, 77)
    for _ in range(10):
        k1 = int(rng.integers(1, 10))
        k2 = int(rng.integers(k1, 11))
        small = tuple(keys[-k1:])
        large = tuple(keys[-k2:])
        fam_small = build_riemann_lebesgue_family(zn12_catalog, OmissionSpec(omitted=small))
        fam_large = build_riemann_lebesgue_family(zn12_catalog, OmissionSpec(omitted=large))
        d_small = semicompleteness_defect(
            fam_small, unit_weights(1), zn12_catalog, [f]
        ).max_defect
        d_large = semicompleteness_defect(
            fam_large, unit_weights(1), zn12_catalog, [f]
        ).max_defect
        assert d_large >= d_small - 1e-12


def test_defect_equals_pw_minus_weighted_expansion(sym3, sym3_catalog):
    # cross-check the report against its definition computed longhand
    fam = build_riemann_lebesgue_family(sym3_catalog, OmissionSpec(omitted=("irrep:1",)))
    w = unit_weights(fam.max_block_size)
    f = random_function(sym3, 55)
    report = semicompleteness_defect(fam, w, sym3_catalog, [f])
    pw = synthesize(fourier_transform(f, sym3_catalog), sym3_catalog)
    expansion = semi_fourier_expand(f, fam, w)
    assert abs(report.max_defect - (pw - expansion).norm()) < 1e-12


def test_validate_weights_unit():
    diag = validate_weights(unit_weights(3))
    assert diag.admissible
    assert diag.diagonal_violations == ()


def test_validate_weights_reciprocal_pair():
    w = ExpansionWeights(np.array([2.0, 1.0]), np.array([[0.5, 1.0], [1.0, 1.0]]))
    diag = validate_weights(w)
    assert diag.admissible


def test_validate_weights_violation_residual():
    w = ExpansionWeights(np.array([2.0, 1.0]), np.ones((2, 2)))
    diag = validate_weights(w)
    assert not diag.admissible
    assert diag.diagonal_violations == ((0, 1.0),)


def test_validate_weights_zero_entries():
    # the zero rule lives in ExpansionWeights, which names every zero entry
    with pytest.raises(ValueError, match=r"gamma\[1\], beta\[1\]\[0\]$"):
        ExpansionWeights(np.array([1.0, 0.0]), np.array([[1.0, 1.0], [0.0, 1.0]]))
