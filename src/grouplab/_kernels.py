"""Weighted dot-product kernels behind every L2 operation in the package.

All inner products here reduce to sums of the form sum_k w_k a_k conj(b_k)
over quadrature nodes, so the whole package funnels through the four kernels
in this module: a single weighted inner product, coefficients of functions
against a family, the Gram matrix of a family, and linear combinations of
family members.  Each is one BLAS-backed numpy expression.

``coefficients_against`` and ``combine`` take either one operand vector or a
stack of them, one per row, and evaluate the same matrix product either way;
callers with a whole test set make one call instead of one per function.
Time the kernels in context with ``perfbench/run.py``.
"""
from __future__ import annotations

import numpy as np


def _c128(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.complex128)


def _f64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def backend_name() -> str:
    """Name of the kernel implementation, reported in benchmark records."""
    return "numpy"


def weighted_inner(a, b, w) -> complex:
    """Weighted inner product sum_k w_k a_k conj(b_k)."""
    return complex(np.dot(_c128(a) * _f64(w), np.conj(_c128(b))))


def coefficients_against(members, w, f) -> np.ndarray:
    """out[..., m] = sum_k w_k f[..., k] conj(members[m, k]).

    ``members`` is (M, K); ``f`` is one function (K,) or a stack (F, K), giving
    (M,) or (F, M).  Conjugating the small operand instead of ``members``
    spares a copy of the member matrix.
    """
    return np.conj(_c128(members) @ np.conj(_c128(f) * _f64(w)).T).T


def gram(members, w) -> np.ndarray:
    """out[i, j] = sum_k w_k members[i, k] conj(members[j, k])."""
    members = _c128(members)
    return (members * _f64(w)) @ np.conj(members).T


def combine(coeffs, members) -> np.ndarray:
    """out[..., k] = sum_m coeffs[..., m] members[m, k] for (M,) or (F, M) coeffs."""
    return _c128(coeffs) @ _c128(members)
