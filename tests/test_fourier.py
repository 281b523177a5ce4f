import numpy as np
import pytest

from grouplab.catalog import build_catalog, peter_weyl_basis
from grouplab.fourier import fourier_transform, synthesize
from grouplab.groups import circle_group, cyclic_group, make_group
from grouplab.hilbert import (
    L2Function,
    block_layout,
    coefficients,
    expand,
    inner,
    random_function,
)
from grouplab.parseval import MatrixSequence, block_decompose, hs_inner, transform_H


def test_constant_function_hits_only_trivial_block(sym3, sym3_catalog):
    f = L2Function(sym3, np.ones(6))
    fhat = fourier_transform(f, sym3_catalog)
    assert abs(fhat.matrix("irrep:0")[0, 0] - 1.0) < 1e-12
    for lab in sym3_catalog.labels[1:]:
        assert np.max(np.abs(fhat.matrix(lab.key))) < 1e-10


def test_identity_indicator_on_cyclic4():
    # <f, u_m> = (1/4) conj(u_m(e)) = 1/4 for every character
    g = cyclic_group(4)
    cat = build_catalog(g)
    values = np.zeros(4)
    values[g.identity] = 1.0
    fhat = fourier_transform(L2Function(g, values), cat)
    for lab in cat.labels:
        assert abs(fhat.matrix(lab.key)[0, 0] - 0.25) < 1e-12


def test_matrix_coefficient_transforms_to_schur_integral(sym3, sym3_catalog):
    # oracle: explicit Schur integral sum_g w_g u_00 conj(u_ij); the transform
    # is taken against sqrt(d) u_ij, so fhat / sqrt(d) is the raw integral
    lab = sym3_catalog.label_by_key("irrep:2")
    grid = sym3_catalog.grids[lab.key]
    f = L2Function(sym3, grid[:, 0, 0])
    fhat = fourier_transform(f, sym3_catalog)
    raw = fhat.matrix(lab.key) / np.sqrt(lab.degree)
    for i in range(2):
        for j in range(2):
            oracle = sum(
                sym3.weights[g] * grid[g, 0, 0] * np.conj(grid[g, i, j]) for g in range(6)
            )
            assert abs(raw[i, j] - oracle) < 1e-12
    assert abs(raw[0, 0] - 0.5) < 1e-10
    for key in ("irrep:0", "irrep:1"):
        assert np.max(np.abs(fhat.matrix(key))) < 1e-10


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
    assert (f - synthesize(fourier_transform(f, cat), cat)).norm() < 1e-10


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
        want = a * fh.matrix(lab.key) + b * hh.matrix(lab.key)
        assert np.max(np.abs(lhs.matrix(lab.key) - want)) < 1e-10


def _row_projections(f, cat):
    """Row-block projections H_i of f against the Peter-Weyl family, by (label, i)."""
    parts = block_decompose(f, peter_weyl_basis(cat))
    assert [(key, i) for key, i, _ in parts] == [
        (lab.key, i) for lab in cat.labels for i in range(lab.degree)
    ]
    return {(key, i): p for key, i, p in parts}


def test_block_project_fixes_own_row(sym3, sym3_catalog):
    f = L2Function(sym3, sym3_catalog.grids["irrep:2"][:, 0, 0])
    parts = _row_projections(f, sym3_catalog)
    assert (parts["irrep:2", 0] - f).norm() < 1e-12
    assert parts["irrep:2", 1].norm() < 1e-12


def test_block_project_sums_to_identity(sym3, sym3_catalog):
    for seed in range(10):
        f = random_function(sym3, seed)
        total = L2Function(sym3, np.zeros(6))
        for p in _row_projections(f, sym3_catalog).values():
            total = total + p
        assert (total - f).norm() < 1e-10


def test_block_projections_mutually_orthogonal(sym3, sym3_catalog):
    parts = _row_projections(random_function(sym3, 31), sym3_catalog)
    for k1, p1 in parts.items():
        for k2, p2 in parts.items():
            if k1 != k2:
                assert abs(inner(p1, p2)) < 1e-9


def test_synthesize_shape_mismatch(sym3_catalog):
    # same labels, irrep:2 resized from 2 x 2 to 3 x 3
    blocks = block_layout(
        (b.label, 3 if b.label == "irrep:2" else b.size) for b in sym3_catalog.blocks
    )
    fhat = MatrixSequence(blocks, np.zeros(11))
    with pytest.raises(ValueError):
        synthesize(fhat, sym3_catalog)


def test_block_norms_summary(sym3_catalog):
    f = peter_weyl_basis(sym3_catalog).member(2, 0, 0)
    seq = fourier_transform(f, sym3_catalog)
    norms = {key: np.linalg.norm(seq.matrix(key)) for key in seq.labels}
    assert set(norms) == {lab.key for lab in sym3_catalog.labels}
    assert norms["irrep:2"] > 0
    assert norms["irrep:0"] < 1e-10


@pytest.mark.parametrize(
    "spec,truncation",
    [
        ("sym:3", None),
        ("dihedral:5", None),
        ("circle:16", 5),
        ("su2:j=1.5", None),
        ("sym:4", None),
        ("zn:12", None),
        ("circle:16", None),
    ],
)
def test_transform_is_transform_H_against_peter_weyl(spec, truncation):
    group = make_group(spec)
    cat = build_catalog(group, truncation=truncation)
    f = random_function(group, 3)
    seq = fourier_transform(f, cat)
    oracle = transform_H(f, peter_weyl_basis(cat))
    assert seq.labels == oracle.labels == tuple(lab.key for lab in cat.labels)
    # one block layout: the transform, the Peter-Weyl family and the catalog store
    assert seq.blocks == peter_weyl_basis(cat).blocks == cat.blocks
    for key in seq.labels:
        assert np.max(np.abs(seq.matrix(key) - oracle.matrix(key))) < 1e-13


def test_hs_inner_of_transforms_is_l2_inner(sym3, sym3_catalog):
    for seed in range(5):
        f = random_function(sym3, seed, normalize=False)
        h = random_function(sym3, 100 + seed, normalize=False)
        fh = fourier_transform(f, sym3_catalog)
        hh = fourier_transform(h, sym3_catalog)
        assert abs(hs_inner(fh, hh) - inner(f, h)) < 1e-12
