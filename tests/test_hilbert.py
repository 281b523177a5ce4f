import numpy as np
import pytest

from grouplab import _kernels
from grouplab.catalog import build_catalog, peter_weyl_basis
from grouplab.groups import circle_group, cyclic_group, make_group
from grouplab.hilbert import (
    ExpansionWeights,
    L2Function,
    OrthonormalFamily,
    coefficients,
    diag_reciprocal_weights,
    expand,
    inner,
    parseval_defect,
    project,
    random_function,
    tolerance,
    unit_weights,
)
from grouplab.semicomplete import OmissionSpec, build_riemann_lebesgue_family
from support import zero_function


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
    chi = sym3_basis.scale[:, None] * sym3_basis.members
    solved = np.linalg.solve(chi.T, f.values)
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
    fam = OrthonormalFamily(group=sym3, blocks=(), members=np.zeros((0, 6)), scale=np.zeros(0))
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


def _dense_defect(fam):
    # the oracle: max |G - I| over the whole Gram matrix
    return float(np.max(np.abs(fam.gram_matrix() - np.eye(fam.n_members)), initial=0.0))


@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_gram_defect_bitwise_equals_dense_formula(n):
    fam = peter_weyl_basis(build_catalog(make_group(f"zn:{n}")))
    rng = np.random.default_rng(n)
    shape = fam.members.shape
    for size in (1e-14, 1e-3, 2.0):
        noise = size * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        broken = OrthonormalFamily(fam.group, fam.blocks, fam.members + noise, fam.scale)
        assert broken.gram_defect() == _dense_defect(broken)
    if n > 1:
        members = fam.members.copy()
        members[-1] += 3e-7j * members[0]       # the maximum sits off the diagonal
        broken = OrthonormalFamily(fam.group, fam.blocks, members, fam.scale)
        g = broken.gram_matrix()
        assert broken.gram_defect() == _dense_defect(broken) == float(np.max(np.abs(g[0, 1:])))
        assert abs(broken.gram_defect() - 3e-7) < 1e-15


@pytest.mark.parametrize("spec", ["sym:3", "circle:64"])
def test_gram_defect_sees_one_perturbed_member(spec):
    g = make_group(spec)
    fam = peter_weyl_basis(build_catalog(g, truncation=None if spec == "sym:3" else 10))
    assert fam.gram_defect() < tolerance("gram", g.kind)
    members = fam.members.copy()
    members[1, 2] += 1e-6
    broken = OrthonormalFamily(group=g, blocks=fam.blocks, members=members, scale=fam.scale)
    assert broken.gram_defect() > tolerance("gram", g.kind)


@pytest.mark.parametrize("spec", ["sym:3", "su2:j=1.5"])
def test_gram_defect_sees_one_perturbed_scale(spec):
    fam = peter_weyl_basis(build_catalog(make_group(spec)))
    limit = tolerance("gram", fam.group.kind)
    assert fam.gram_defect() < limit
    for row in (0, fam.n_members - 1):
        scale = fam.scale.copy()
        scale[row] += 1e-7
        broken = OrthonormalFamily(fam.group, fam.blocks, fam.members, scale)
        assert broken.gram_defect() > limit, row
        assert broken.gram_defect() == _dense_defect(broken)


def test_gram_defect_sees_a_missing_sqrt_degree():
    # the unscaled coefficients u_ij of a degree-2 irrep have norm 1/2, not 1
    fam = peter_weyl_basis(build_catalog(make_group("sym:3")))
    unscaled = OrthonormalFamily(fam.group, fam.blocks, fam.members, np.ones(fam.n_members))
    assert unscaled.gram_defect() > tolerance("gram", fam.group.kind)


@pytest.mark.parametrize("spec", ["sym:4", "dihedral:5", "zn:12", "circle:1024", "su2:j=1.5"])
def test_streamed_gram_defect_equals_dense_defect_bitwise(spec):
    fam = peter_weyl_basis(build_catalog(make_group(spec)))
    if spec == "circle:1024":
        assert fam.n_members > 3 * _kernels.GRAM_SLAB_ROWS
    dense = _dense_defect(fam)
    assert fam.gram_defect() == dense
    assert 0 < dense < tolerance("gram", fam.group.kind)


def test_streamed_gram_defect_sees_the_last_slab():
    fam = peter_weyl_basis(build_catalog(make_group("circle:1024")))
    limit = tolerance("gram", fam.group.kind)
    last = fam.n_members - 1
    assert (last - 1) // _kernels.GRAM_SLAB_ROWS == last // _kernels.GRAM_SLAB_ROWS == 3
    # each breach sits only in the last slab's block: the entry of two of its
    # members, or the diagonal entry of one of them
    for change in ("tilt", "norm"):
        members = fam.members.copy()
        if change == "tilt":
            members[last] += 1e-6 * members[last - 1]
        else:
            members[last] *= 1 + 1e-7
        broken = OrthonormalFamily(fam.group, fam.blocks, members, fam.scale)
        assert broken.gram_defect() > limit, change
        assert broken.gram_defect() == _dense_defect(broken)
