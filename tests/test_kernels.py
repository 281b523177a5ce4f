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
