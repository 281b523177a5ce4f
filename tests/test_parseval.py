import numpy as np
import pytest

from grouplab.catalog import build_catalog, peter_weyl_basis
from grouplab.groups import circle_group
from grouplab.hilbert import (
    L2Function,
    block_layout,
    coefficients,
    expand,
    inner,
    project,
    random_function,
    zero_function,
)
from grouplab.parseval import (
    MatrixSequence,
    basis_sequence,
    block_decompose,
    hs_inner,
    inverse_H,
    isometry_defect,
    membership,
    transform_H,
    zero_sequence,
)
from grouplab.semicomplete import OmissionSpec, build_riemann_lebesgue_family


@pytest.fixture(scope="module")
def rl_family(sym3_catalog):
    return build_riemann_lebesgue_family(sym3_catalog, OmissionSpec(omitted=("irrep:2",)))


@pytest.fixture(scope="module")
def full_family(sym3_catalog):
    return peter_weyl_basis(sym3_catalog)


def omitted_unit_vector(sym3_catalog):
    lab = sym3_catalog.label_by_key("irrep:2")
    return L2Function(
        sym3_catalog.group, np.sqrt(2.0) * sym3_catalog.grids[lab.key][:, 0, 0]
    )


def random_span_element(family, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(family.n_members) + 1j * rng.standard_normal(family.n_members)
    return expand(c, family)


def test_membership_family_member(rl_family):
    v = membership(rl_family.member(0, 0, 0), rl_family)
    assert v.member
    assert abs(v.defect) < 1e-12
    assert v.span_dimension == 2


def test_membership_omitted_member(sym3_catalog, rl_family):
    f = omitted_unit_vector(sym3_catalog)
    v = membership(f, rl_family)
    assert not v.member
    assert abs(v.defect - 1.0) < 1e-10


def test_membership_zero_function(sym3, rl_family):
    v = membership(zero_function(sym3), rl_family)
    assert v.member
    assert v.defect == 0.0


def test_membership_agrees_with_projection_oracle(sym3, rl_family):
    tol = 1e-10
    for seed in range(20):
        f = random_function(sym3, seed)
        v = membership(f, rl_family, tol=tol)
        oracle = (f - project(f, rl_family)).norm() <= np.sqrt(tol)
        assert v.member == oracle


def test_membership_tol_validation(sym3, rl_family):
    with pytest.raises(ValueError):
        membership(random_function(sym3, 0), rl_family, tol=0.0)


def test_transform_single_member(rl_family):
    f = rl_family.member(1, 0, 0)   # second retained block, 1x1
    seq = transform_H(f, rl_family)
    assert abs(seq.matrix(rl_family.blocks[1].label)[0, 0] - 1.0) < 1e-12
    assert abs(seq.matrix(rl_family.blocks[0].label)[0, 0]) < 1e-12


def test_transform_norm_on_span(rl_family):
    for seed in range(10):
        f = random_span_element(rl_family, seed)
        seq = transform_H(f, rl_family)
        assert abs(seq.norm_sq() - f.norm_sq()) < 1e-10


def test_transform_orthogonal_complement(sym3_catalog, rl_family):
    f = omitted_unit_vector(sym3_catalog)
    seq = transform_H(f, rl_family)
    assert seq.norm_sq() < 1e-10


def test_inverse_zero_sequence(rl_family):
    assert inverse_H(zero_sequence(rl_family), rl_family).norm() == 0.0


def test_inverse_basis_sequence(rl_family):
    label = rl_family.blocks[0].label
    seq = basis_sequence(rl_family, label, 0, 0)
    f = inverse_H(seq, rl_family)
    assert (f - rl_family.member(0, 0, 0)).norm() < 1e-12


def test_transform_inverse_round_trip(rl_family):
    rng = np.random.default_rng(23)
    for _ in range(20):
        seq = zero_sequence(rl_family)
        for b in rl_family.blocks:
            seq.matrix(b.label)[...] = rng.standard_normal(
                (b.size, b.size)
            ) + 1j * rng.standard_normal((b.size, b.size))
        back = transform_H(inverse_H(seq, rl_family), rl_family)
        err = max(
            np.max(np.abs(back.matrix(b.label) - seq.matrix(b.label)))
            for b in rl_family.blocks
        )
        assert err < 1e-12


def test_inverse_shape_mismatch(rl_family, full_family):
    with pytest.raises(ValueError):
        inverse_H(zero_sequence(full_family), rl_family)
    # same labels, different block sizes
    wide = block_layout((b.label, b.size + 1) for b in rl_family.blocks)
    with pytest.raises(ValueError):
        inverse_H(MatrixSequence(wide, np.zeros(8)), rl_family)
    # same sizes and length, other labels
    renamed = block_layout((b.label + "'", b.size) for b in rl_family.blocks)
    with pytest.raises(ValueError):
        inverse_H(MatrixSequence(renamed, np.zeros(2)), rl_family)


def test_hs_inner_unit_entries(rl_family):
    a = basis_sequence(rl_family, rl_family.blocks[0].label, 0, 0)
    assert abs(hs_inner(a, a) - 1.0) < 1e-15


def test_hs_inner_disjoint_support(rl_family):
    a = basis_sequence(rl_family, rl_family.blocks[0].label, 0, 0)
    b = basis_sequence(rl_family, rl_family.blocks[1].label, 0, 0)
    assert hs_inner(a, b) == 0.0


def test_hs_inner_matches_synthesis_inner(full_family):
    rng = np.random.default_rng(3)

    def rand_seq():
        seq = zero_sequence(full_family)
        for b in full_family.blocks:
            seq.matrix(b.label)[...] = rng.standard_normal(
                (b.size, b.size)
            ) + 1j * rng.standard_normal((b.size, b.size))
        return seq

    for _ in range(10):
        a, b = rand_seq(), rand_seq()
        lhs = hs_inner(a, b)
        rhs = inner(inverse_H(a, full_family), inverse_H(b, full_family))
        assert abs(lhs - rhs) < 1e-10


def test_hs_inner_conjugate_symmetry_and_norm(full_family):
    rng = np.random.default_rng(4)
    seq = zero_sequence(full_family)
    for b in full_family.blocks:
        seq.matrix(b.label)[...] = rng.standard_normal(
            (b.size, b.size)
        ) + 1j * rng.standard_normal((b.size, b.size))
    assert abs(hs_inner(seq, seq) - seq.norm_sq()) < 1e-12


def test_hs_inner_polarization(full_family):
    rng = np.random.default_rng(41)

    def rand_seq():
        seq = zero_sequence(full_family)
        for b in full_family.blocks:
            seq.matrix(b.label)[...] = rng.standard_normal(
                (b.size, b.size)
            ) + 1j * rng.standard_normal((b.size, b.size))
        return seq

    def norm_sq_of_combo(a, b, scalar):
        combo = zero_sequence(full_family)
        for blk in full_family.blocks:
            combo.matrix(blk.label)[...] = a.matrix(blk.label) + scalar * b.matrix(blk.label)
        return norm_sq(combo)

    def norm_sq(seq):
        return seq.norm_sq()

    for _ in range(5):
        a, b = rand_seq(), rand_seq()
        polar = (
            norm_sq_of_combo(a, b, 1.0)
            - norm_sq_of_combo(a, b, -1.0)
            + 1j * norm_sq_of_combo(a, b, 1j)
            - 1j * norm_sq_of_combo(a, b, -1j)
        ) / 4.0
        assert abs(polar - hs_inner(a, b)) < 1e-9


def test_hs_inner_structure_mismatch(rl_family, full_family):
    with pytest.raises(ValueError):
        hs_inner(zero_sequence(rl_family), zero_sequence(full_family))
    # same labels, different block sizes: a (1, 1) block would broadcast silently
    one = MatrixSequence(block_layout([("x", 1)]), np.ones(1))
    two = MatrixSequence(block_layout([("x", 2)]), np.ones(4))
    with pytest.raises(ValueError):
        hs_inner(one, two)


def test_matrix_sequence_norm_recomputed_entrywise(full_family):
    rng = np.random.default_rng(5)
    seq = zero_sequence(full_family)
    for b in full_family.blocks:
        seq.matrix(b.label)[...] = rng.standard_normal(
            (b.size, b.size)
        ) + 1j * rng.standard_normal((b.size, b.size))
    total = 0.0
    for b in full_family.blocks:
        for i in range(b.size):
            for j in range(b.size):
                total += abs(seq.matrix(b.label)[i, j]) ** 2
    assert abs(seq.norm_sq() - total) < 1e-12


def test_matrix_sequence_rejects_flat_length_mismatch():
    with pytest.raises(ValueError):
        MatrixSequence(block_layout([("a", 2)]), np.zeros(6))


def test_matrix_is_a_writable_view_of_flat(full_family):
    seq = zero_sequence(full_family)
    b = full_family.blocks[2]       # irrep:2, a 2 x 2 block
    seq.matrix(b.label)[1, 0] = 3.0 - 1.0j
    assert seq.flat[b.offset + 1 * b.size + 0] == 3.0 - 1.0j
    assert np.count_nonzero(seq.flat) == 1
    assert np.shares_memory(seq.matrix(b.label), seq.flat)
    with pytest.raises(KeyError):
        seq.matrix("irrep:7")


def test_isometry_defect_span_and_complement(sym3_catalog, rl_family):
    for seed in range(5):
        assert isometry_defect(random_span_element(rl_family, seed), rl_family) < 1e-10
    f = omitted_unit_vector(sym3_catalog)
    assert abs(isometry_defect(f, rl_family) - 1.0) < 1e-10
    assert isometry_defect(zero_function(rl_family.group), rl_family) == 0.0


def test_fourier_subspace_contained_in_membership(sym3, rl_family):
    # round-trip fixed points are members (Parseval equality holds for them)
    for seed in range(10):
        f = random_function(sym3, seed)
        pf = project(f, rl_family)
        if (project(pf, rl_family) - pf).norm() < 1e-9:
            assert membership(pf, rl_family).member


def test_zero_coefficients_and_zero_defect_forces_zero(sym3, rl_family):
    # construct functions with all-zero coefficients; defect 0 only for f = 0
    for seed in range(10):
        f = random_function(sym3, seed)
        perp = f - project(f, rl_family)
        c = coefficients(perp, rl_family)
        assert np.max(np.abs(c)) < 1e-10
        defect = membership(perp, rl_family).defect
        if defect < 1e-9:
            assert perp.norm() < 1e-9
    z = zero_function(sym3)
    assert membership(z, rl_family).defect < 1e-15
    assert z.norm() == 0.0


def test_membership_and_round_trip_accept_same_basis_vectors(sym3, rl_family, full_family):
    # exhaustive sweep over the standard basis of L2(sym3)
    for fam in (rl_family, full_family):
        for k in range(6):
            e = np.zeros(6)
            e[k] = 1.0
            f = L2Function(sym3, e)
            member = membership(f, fam, tol=1e-10).member
            round_trip = (project(f, fam) - f).norm() <= 1e-5
            iso = isometry_defect(f, fam) <= 1e-10
            assert member == round_trip == iso


def test_block_decompose_single_member(rl_family):
    f = rl_family.member(0, 0, 0)
    parts = block_decompose(f, rl_family)
    assert len(parts) == 2
    label0 = rl_family.blocks[0].label
    for label, i, comp in parts:
        if (label, i) == (label0, 0):
            assert (comp - f).norm() < 1e-12
        else:
            assert comp.norm() < 1e-12


def test_block_decompose_sums_to_projection(sym3, rl_family, full_family):
    for fam in (rl_family, full_family):
        for seed in range(10):
            f = random_function(sym3, seed)
            parts = block_decompose(f, fam)
            total = zero_function(sym3)
            for _, _, comp in parts:
                total = total + comp
            assert (total - project(f, fam)).norm() < 1e-9


def test_block_decompose_orthogonal_components(sym3, full_family):
    f = random_function(sym3, 13)
    parts = block_decompose(f, full_family)
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            assert abs(inner(parts[a][2], parts[b][2])) < 1e-9


def test_block_decompose_orthogonal_complement(sym3_catalog, rl_family):
    f = omitted_unit_vector(sym3_catalog)
    for _, _, comp in block_decompose(f, rl_family):
        assert comp.norm() < 1e-9


def test_block_decompose_on_circle():
    cat = build_catalog(circle_group(64), truncation=5)
    fam = peter_weyl_basis(cat)
    f = random_function(cat.group, 2)
    parts = block_decompose(f, fam)
    total = zero_function(cat.group)
    for _, _, comp in parts:
        total = total + comp
    assert (total - project(f, fam)).norm() < 1e-9
