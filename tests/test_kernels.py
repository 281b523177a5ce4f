import tracemalloc

import numpy as np
import pytest

from grouplab import _kernels


@pytest.fixture
def random_inputs():
    rng = np.random.default_rng(7)
    members = rng.standard_normal((9, 40)) + 1j * rng.standard_normal((9, 40))
    w = rng.random(40)
    w /= w.sum()
    f = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    return members, w, f


def test_weighted_inner_matches_direct_sum(random_inputs):
    members, w, f = random_inputs
    a, b = members[0], members[1]
    direct = sum(w[k] * a[k] * np.conj(b[k]) for k in range(40))
    assert abs(_kernels.weighted_inner(a, b, w) - direct) < 1e-13


def test_coefficients_matches_loop(random_inputs):
    members, w, f = random_inputs
    out = _kernels.coefficients_against(members, w, f)
    for m in range(members.shape[0]):
        direct = sum(w[k] * f[k] * np.conj(members[m, k]) for k in range(40))
        assert abs(out[m] - direct) < 1e-13


def test_gram_hermitian_and_correct(random_inputs):
    members, w, _ = random_inputs
    g = _kernels.gram(members, w)
    assert np.max(np.abs(g - g.conj().T)) < 1e-14
    direct = (members * w) @ members.conj().T
    assert np.max(np.abs(g - direct)) < 1e-13


def test_combine_matches_matmul(random_inputs):
    members, _, _ = random_inputs
    coeffs = np.arange(1, 10, dtype=np.complex128)
    assert np.max(np.abs(_kernels.combine(coeffs, members) - coeffs @ members)) < 1e-13


def test_stacked_operands_match_one_at_a_time(random_inputs):
    members, w, _ = random_inputs
    rng = np.random.default_rng(8)
    fs = rng.standard_normal((5, 40)) + 1j * rng.standard_normal((5, 40))
    stacked = _kernels.coefficients_against(members, w, fs)
    assert stacked.shape == (5, 9)
    for f, row in zip(fs, stacked):
        assert np.max(np.abs(row - _kernels.coefficients_against(members, w, f))) < 1e-14
    combined = _kernels.combine(stacked, members)
    assert combined.shape == (5, 40)
    for c, row in zip(stacked, combined):
        assert np.max(np.abs(row - _kernels.combine(c, members))) < 1e-13


def _old_gram(members, w):
    # the unslabbed formula: two member-sized temporaries and the result
    return (members * w) @ np.conj(members).T


SLAB = _kernels.GRAM_SLAB_ROWS


@pytest.mark.parametrize("rows", [0, 1, SLAB - 1, SLAB, SLAB + 1, 2 * SLAB + 3])
def test_slabbed_gram_matches_unslabbed_formula(rows):
    rng = np.random.default_rng(rows)
    members = rng.standard_normal((rows, 48)) + 1j * rng.standard_normal((rows, 48))
    w = rng.random(48) + 0.1
    g = _kernels.gram(members, w)
    assert g.shape == (rows, rows) and g.dtype == np.complex128
    want = _old_gram(members, w)
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    assert np.max(np.abs(g - want), initial=0.0) <= 1e-13 * scale
    # the upper triangle is mirrored: exactly Hermitian, with a real diagonal
    assert np.array_equal(g, g.conj().T)
    # and the streamed defect reads the same numbers as the dense one
    dense = float(np.max(np.abs(g - np.eye(rows)), initial=0.0))
    assert _kernels.gram_defect(members, w) == dense


def test_gram_allocates_result_and_slabs_only():
    rng = np.random.default_rng(3)
    members = rng.standard_normal((1023, 1024)) + 1j * rng.standard_normal((1023, 1024))
    w = rng.random(1024)
    result_bytes = 16 * 1023 * 1023
    slab_bytes = 16 * SLAB * 1024
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = _kernels.gram(members, w)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert g.shape == (1023, 1023)
    # the unslabbed formula peaks at three member-sized arrays
    assert peak <= result_bytes + 2 * slab_bytes, f"gram peak {peak / 2**20:.1f} MB"


def test_streamed_gram_defect_carries_nan():
    members = np.eye(2 * SLAB + 3, 2 * SLAB + 8, dtype=np.complex128)
    w = np.ones(2 * SLAB + 8)
    assert _kernels.gram_defect(members, w) == 0.0
    # a NaN must fail the check, not vanish in a max() comparison
    members[-1, 5] = np.nan
    assert np.isnan(_kernels.gram_defect(members, w))


def test_streamed_gram_defect_holds_a_few_slabs_not_the_gram_matrix():
    rng = np.random.default_rng(3)
    members = rng.standard_normal((1023, 1024)) + 1j * rng.standard_normal((1023, 1024))
    w = rng.random(1024)
    slab_bytes = 16 * SLAB * 1024
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _kernels.gram_defect(members, w)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # one member slab, one block of Gram rows and its real |G| values; the
    # (1023, 1023) Gram matrix alone would be 16 MB, four slabs
    assert peak <= 3 * slab_bytes, f"gram_defect peak {peak / 2**20:.1f} MB"
