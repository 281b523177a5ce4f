import numpy as np
import pytest

from grouplab.catalog import build_catalog, peter_weyl_basis
from grouplab.fourier import block_project, fourier_transform, inversion_defect, synthesize
from grouplab.groups import circle_group, cyclic_group, make_group
from grouplab.hilbert import L2Function, coefficients, expand, inner, random_function
from grouplab.parseval import hs_inner, transform_H


def test_constant_function_hits_only_trivial_block(sym3, sym3_catalog):
    f = L2Function(sym3, np.ones(6))
    fhat = fourier_transform(f, sym3_catalog)
    assert abs(fhat.matrices["irrep:0"][0, 0] - 1.0) < 1e-12
    for lab in sym3_catalog.labels[1:]:
        assert np.max(np.abs(fhat.matrices[lab.key])) < 1e-10


def test_identity_indicator_on_cyclic4():
    # <f, u_m> = (1/4) conj(u_m(e)) = 1/4 for every character
    g = cyclic_group(4)
    cat = build_catalog(g)
    values = np.zeros(4)
    values[g.identity] = 1.0
    fhat = fourier_transform(L2Function(g, values), cat)
    for lab in cat.labels:
        assert abs(fhat.matrices[lab.key][0, 0] - 0.25) < 1e-12


def test_matrix_coefficient_transforms_to_schur_integral(sym3, sym3_catalog):
    # oracle: explicit Schur integral sum_g w_g u_00 conj(u_ij); the transform
    # is taken against sqrt(d) u_ij, so fhat / sqrt(d) is the raw integral
    lab = sym3_catalog.label_by_key("irrep:2")
    grid = sym3_catalog.grids[lab.key]
    f = L2Function(sym3, grid[:, 0, 0])
    fhat = fourier_transform(f, sym3_catalog)
    raw = fhat.matrices[lab.key] / np.sqrt(lab.degree)
    for i in range(2):
        for j in range(2):
            oracle = sum(
                sym3.weights[g] * grid[g, 0, 0] * np.conj(grid[g, i, j]) for g in range(6)
            )
            assert abs(raw[i, j] - oracle) < 1e-12
    assert abs(raw[0, 0] - 0.5) < 1e-10
    for key in ("irrep:0", "irrep:1"):
        assert np.max(np.abs(fhat.matrices[key])) < 1e-10


def test_synthesize_zero(sym3_catalog):
    fhat = fourier_transform(
        L2Function(sym3_catalog.group, np.zeros(6)), sym3_catalog
    )
    assert synthesize(fhat, sym3_catalog).norm() == 0.0


def test_round_trip_random_sym3(sym3, sym3_catalog):
    for seed in range(10):
        f = random_function(sym3, seed)
        g = synthesize(fourier_transform(f, sym3_catalog), sym3_catalog)
        assert (f - g).norm() < 1e-10


def test_round_trip_band_limited_circle():
    g = circle_group(32)
    cat = build_catalog(g, truncation=5)
    rng = np.random.default_rng(8)
    values = np.zeros(32, dtype=complex)
    for m in range(-5, 6):
        values += (rng.standard_normal() + 1j * rng.standard_normal()) * np.exp(
            1j * m * g.thetas
        )
    f = L2Function(g, values)
    assert inversion_defect(f, cat) < 1e-10


def test_truncated_inversion_equals_span_projection():
    g = circle_group(32)
    cat = build_catalog(g, truncation=3)
    fam = peter_weyl_basis(cat)
    for seed in range(5):
        f = random_function(g, seed)
        synth = synthesize(fourier_transform(f, cat), cat)
        proj = expand(coefficients(f, fam), fam)
        assert (synth - proj).norm() < 1e-9


def test_plancherel_randomized(sym3, sym3_catalog):
    for seed in range(10):
        f = random_function(sym3, seed, normalize=False)
        fhat = fourier_transform(f, sym3_catalog)
        assert abs(f.norm_sq() - fhat.norm_sq()) < 1e-10


def test_transform_linearity(sym3, sym3_catalog):
    f = random_function(sym3, 21)
    h = random_function(sym3, 22)
    a, b = 1.5 - 0.5j, -2.0 + 1.0j
    lhs = fourier_transform(a * f + b * h, sym3_catalog)
    fh = fourier_transform(f, sym3_catalog)
    hh = fourier_transform(h, sym3_catalog)
    for lab in sym3_catalog.labels:
        want = a * fh.matrices[lab.key] + b * hh.matrices[lab.key]
        assert np.max(np.abs(lhs.matrices[lab.key] - want)) < 1e-10


def test_block_project_fixes_own_row(sym3, sym3_catalog):
    lab = sym3_catalog.label_by_key("irrep:2")
    f = L2Function(sym3, sym3_catalog.grids[lab.key][:, 0, 0])
    p = block_project(f, sym3_catalog, lab, 0)
    assert (p - f).norm() < 1e-12
    q = block_project(f, sym3_catalog, lab, 1)
    assert q.norm() < 1e-12


def test_block_project_sums_to_identity(sym3, sym3_catalog):
    for seed in range(10):
        f = random_function(sym3, seed)
        total = L2Function(sym3, np.zeros(6))
        for lab in sym3_catalog.labels:
            for i in range(lab.degree):
                total = total + block_project(f, sym3_catalog, lab, i)
        assert (total - f).norm() < 1e-10


def test_block_projections_mutually_orthogonal(sym3, sym3_catalog):
    f = random_function(sym3, 31)
    parts = [
        (lab.key, i, block_project(f, sym3_catalog, lab, i))
        for lab in sym3_catalog.labels
        for i in range(lab.degree)
    ]
    for k1, i1, p1 in parts:
        for k2, i2, p2 in parts:
            if (k1, i1) != (k2, i2):
                assert abs(inner(p1, p2)) < 1e-9


def test_block_project_index_range(sym3, sym3_catalog):
    lab = sym3_catalog.label_by_key("irrep:2")
    with pytest.raises(IndexError):
        block_project(random_function(sym3, 0), sym3_catalog, lab, 2)


def test_synthesize_shape_mismatch(sym3_catalog):
    fhat = fourier_transform(random_function(sym3_catalog.group, 0), sym3_catalog)
    fhat.matrices["irrep:2"] = np.zeros((3, 3))
    with pytest.raises(ValueError):
        synthesize(fhat, sym3_catalog)


def test_block_norms_summary(sym3_catalog):
    f = peter_weyl_basis(sym3_catalog).member(2, 0, 0)
    seq = fourier_transform(f, sym3_catalog)
    norms = {key: np.linalg.norm(seq.matrices[key]) for key in seq.labels}
    assert set(norms) == {lab.key for lab in sym3_catalog.labels}
    assert norms["irrep:2"] > 0
    assert norms["irrep:0"] < 1e-10


@pytest.mark.parametrize(
    "spec,truncation",
    [("sym:3", None), ("dihedral:5", None), ("circle:16", 5), ("su2:j=1.5", None)],
)
def test_transform_is_transform_H_against_peter_weyl(spec, truncation):
    group = make_group(spec)
    cat = build_catalog(group, truncation=truncation)
    f = random_function(group, 3)
    seq = fourier_transform(f, cat)
    oracle = transform_H(f, peter_weyl_basis(cat))
    assert seq.labels == oracle.labels == tuple(lab.key for lab in cat.labels)
    for key in seq.labels:
        assert np.max(np.abs(seq.matrices[key] - oracle.matrices[key])) < 1e-13


def test_hs_inner_of_transforms_is_l2_inner(sym3, sym3_catalog):
    for seed in range(5):
        f = random_function(sym3, seed, normalize=False)
        h = random_function(sym3, 100 + seed, normalize=False)
        fh = fourier_transform(f, sym3_catalog)
        hh = fourier_transform(h, sym3_catalog)
        assert abs(hs_inner(fh, hh) - inner(f, h)) < 1e-12
