import numpy as np
import pytest

from grouplab.catalog import build_catalog, peter_weyl_basis
from grouplab.groups import circle_group, cyclic_group, make_group
from grouplab.hilbert import (
    ExpansionWeights,
    L2Function,
    OrthonormalFamily,
    coefficients,
    diag_reciprocal_weights,
    expand,
    gram_tol,
    inner,
    parseval_defect,
    project,
    random_function,
    unit_weights,
    zero_function,
)
from grouplab.semicomplete import OmissionSpec, build_riemann_lebesgue_family


@pytest.fixture(scope="module")
def sym3_basis(sym3_catalog):
    return peter_weyl_basis(sym3_catalog)


def test_inner_constant_function(sym3):
    one = L2Function(sym3, np.ones(6))
    assert abs(inner(one, one) - 1.0) < 1e-12


def test_inner_distinct_members_orthogonal(sym3_basis):
    for a in range(6):
        for b in range(6):
            val = inner(sym3_basis.member_flat(a), sym3_basis.member_flat(b))
            want = 1.0 if a == b else 0.0
            assert abs(val - want) < 1e-12


def test_inner_distinct_circle_characters():
    g = circle_group(8)
    f1 = L2Function(g, np.exp(1j * g.thetas))
    f2 = L2Function(g, np.exp(2j * g.thetas))
    assert abs(inner(f1, f2)) < 1e-12


def test_inner_conjugate_symmetric_and_linear(sym3):
    f = random_function(sym3, 1)
    h = random_function(sym3, 2)
    k = random_function(sym3, 3)
    assert abs(inner(f, h) - np.conj(inner(h, f))) < 1e-12
    assert abs(inner(f + 2.0 * k, h) - (inner(f, h) + 2.0 * inner(k, h))) < 1e-12


def test_inner_group_mismatch_raises(sym3):
    other = cyclic_group(6)
    with pytest.raises(ValueError):
        inner(random_function(sym3, 0), random_function(other, 0))


def test_coefficients_of_member_is_unit_vector(sym3_basis):
    f = sym3_basis.member(0, 0, 0)
    c = coefficients(f, sym3_basis)
    want = np.zeros(6)
    want[0] = 1.0
    assert np.max(np.abs(c - want)) < 1e-12


def test_coefficients_of_zero(sym3, sym3_basis):
    c = coefficients(zero_function(sym3), sym3_basis)
    assert np.max(np.abs(c)) == 0.0


def test_coefficients_match_change_of_basis_solve(sym3, sym3_basis):
    # oracle: the family is a basis of C^6, solve the 6x6 linear system
    f = random_function(sym3, 99)
    c = coefficients(f, sym3_basis)
    solved = np.linalg.solve(sym3_basis.members.T, f.values)
    assert np.max(np.abs(c - solved)) < 1e-10


def test_expand_unit_vector_gives_member(sym3_basis):
    e0 = np.zeros(6)
    e0[3] = 1.0
    f = expand(e0, sym3_basis)
    assert np.max(np.abs(f.values - sym3_basis.member_flat(3).values)) < 1e-12


def test_expand_round_trip_in_span(sym3, sym3_basis):
    rng = np.random.default_rng(17)
    coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    f = expand(coeffs, sym3_basis)
    g = expand(coefficients(f, sym3_basis), sym3_basis)
    assert (f - g).norm() < 1e-10


def test_expand_round_trip_orthogonal_complement(sym3_catalog):
    # f built from the omitted block projects to zero through the family
    omit = OmissionSpec(omitted=("irrep:2",))
    fam = build_riemann_lebesgue_family(sym3_catalog, omit)
    lab = sym3_catalog.label_by_key("irrep:2")
    f = L2Function(
        sym3_catalog.group,
        np.sqrt(2.0) * sym3_catalog.grids[lab.key][:, 0, 0],
    )
    g = expand(coefficients(f, fam), fam)
    assert g.norm() < 1e-10


def test_expand_length_mismatch(sym3_basis):
    with pytest.raises(ValueError):
        expand(np.ones(5), sym3_basis)


def test_parseval_defect_complete_family(sym3, sym3_basis):
    for seed in range(5):
        f = random_function(sym3, seed)
        assert abs(parseval_defect(f, sym3_basis)) < 1e-10


def test_parseval_defect_member_zero(sym3_basis):
    f = sym3_basis.member(2, 0, 1)
    assert abs(parseval_defect(f, sym3_basis)) < 1e-12


def test_parseval_defect_omitted_unit_vector(sym3_catalog):
    omit = OmissionSpec(omitted=("irrep:2",))
    fam = build_riemann_lebesgue_family(sym3_catalog, omit)
    full = peter_weyl_basis(sym3_catalog)
    f = full.member(2, 1, 0)   # an omitted Peter-Weyl member, unit norm
    assert abs(parseval_defect(f, fam) - 1.0) < 1e-10


def test_bessel_inequality_randomized(sym3_catalog, circle64):
    families = [
        build_riemann_lebesgue_family(sym3_catalog, OmissionSpec(omitted=("irrep:2",))),
        peter_weyl_basis(sym3_catalog),
        peter_weyl_basis(build_catalog(circle64, truncation=4)),
    ]
    for fam in families:
        for seed in range(20):
            f = random_function(fam.group, seed)
            assert parseval_defect(f, fam) >= -1e-9


def test_completeness_equivalences_finite(sym3, sym3_catalog):
    # complete family: zero defect on every basis vector <=> round trip is identity
    full = peter_weyl_basis(sym3_catalog)
    omitted = build_riemann_lebesgue_family(sym3_catalog, OmissionSpec(omitted=("irrep:2",)))
    for fam, complete in [(full, True), (omitted, False)]:
        all_zero_defect = True
        round_trip_identity = True
        for k in range(6):
            e = np.zeros(6)
            e[k] = 1.0
            f = L2Function(sym3, e)
            if abs(parseval_defect(f, fam)) > 1e-10:
                all_zero_defect = False
            if (project(f, fam) - f).norm() > 1e-10:
                round_trip_identity = False
        spans = fam.n_members == sym3.order
        assert all_zero_defect == complete
        assert round_trip_identity == complete
        assert spans == complete


def test_projection_idempotent_self_adjoint(sym3_catalog):
    fam = build_riemann_lebesgue_family(sym3_catalog, OmissionSpec(omitted=("irrep:2",)))
    g = sym3_catalog.group
    for seed in range(10):
        f = random_function(g, seed)
        h = random_function(g, seed + 100)
        pf = project(f, fam)
        assert (project(pf, fam) - pf).norm() < 1e-9
        assert abs(inner(pf, h) - inner(f, project(h, fam))) < 1e-9


def test_empty_family_degenerate_case(sym3):
    # both subspaces are too small: defect is the full norm, only 0 is accepted
    fam = OrthonormalFamily(group=sym3, blocks=(), members=np.zeros((0, 6)))
    for k in range(6):
        e = np.zeros(6)
        e[k] = 1.0
        f = L2Function(sym3, e)
        assert abs(parseval_defect(f, fam) - f.norm_sq()) < 1e-15
        assert parseval_defect(f, fam) > 1e-3   # rejected as a member
        assert (project(f, fam) - f).norm() > 1e-3
    z = zero_function(sym3)
    assert parseval_defect(z, fam) == 0.0
    assert project(z, fam).norm() == 0.0


def test_family_gram_tolerance_attributes(sym3_catalog, circle64):
    fam = peter_weyl_basis(sym3_catalog)
    assert fam.gram_defect() < 1e-12
    fam_c = peter_weyl_basis(build_catalog(circle64, truncation=10))
    assert fam_c.gram_defect() < 1e-8


def test_flat_index_and_positions(sym3_basis):
    # blocks in catalog order, row-major within a block
    positions = sym3_basis.flat_positions()
    assert positions[0][0] == "irrep:0"
    assert positions[-1] == ("irrep:2", 1, 1)
    assert sym3_basis.flat_index(2, 1, 0) == 2 + 2
    with pytest.raises(IndexError):
        sym3_basis.flat_index(2, 2, 0)


def test_expansion_weights_validation():
    with pytest.raises(ValueError):
        ExpansionWeights(np.ones(3), np.ones((2, 2)))
    w = unit_weights(4)
    assert w.n == 4
    r = diag_reciprocal_weights(5, seed=3)
    assert np.max(np.abs(r.gamma * np.diag(r.beta) - 1.0)) < 1e-12
    assert np.all(r.gamma != 0) and np.all(r.beta != 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_l2_function_rejects_non_finite(sym3, bad):
    values = np.ones(6, dtype=np.complex128)
    values[4] = bad
    with pytest.raises(ValueError, match="finite"):
        L2Function(sym3, values)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_expansion_weights_reject_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        ExpansionWeights(np.array([bad, 1.0]), np.ones((2, 2)))
    with pytest.raises(ValueError, match="finite"):
        ExpansionWeights(np.ones(2), np.array([[1.0, bad], [1.0, 1.0]]))


@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_gram_defect_bitwise_equals_dense_formula(n):
    fam = peter_weyl_basis(build_catalog(make_group(f"zn:{n}")))
    rng = np.random.default_rng(n)
    for scale in (1e-14, 1e-3, 2.0):
        g = np.eye(n) + scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        assert fam.gram_defect(g) == float(np.max(np.abs(g - np.eye(n))))
    if n > 1:
        g = np.eye(n, dtype=np.complex128)
        g[0, -1] = 3e-7j            # the maximum sits off the diagonal
        assert fam.gram_defect(g) == 3e-7


@pytest.mark.parametrize("spec", ["sym:3", "circle:64"])
def test_gram_defect_sees_one_perturbed_member(spec):
    g = make_group(spec)
    fam = peter_weyl_basis(build_catalog(g, truncation=None if spec == "sym:3" else 10))
    assert fam.gram_defect() < gram_tol(g)
    members = fam.members.copy()
    members[1, 2] += 1e-6
    broken = OrthonormalFamily(group=g, blocks=fam.blocks, members=members)
    assert broken.gram_defect() > gram_tol(g)
