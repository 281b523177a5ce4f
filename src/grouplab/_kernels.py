"""Weighted dot-product kernels behind every L2 operation in the package.

All inner products here reduce to sums of the form sum_k w_k a_k conj(b_k)
over quadrature nodes, so the whole package funnels through the four kernels
in this module: a single weighted inner product, coefficients of functions
against a family, the Gram matrix of a family, and linear combinations of
family members.  Each is one BLAS-backed matrix product; ``gram`` evaluates
its product in row slabs of ``GRAM_SLAB_ROWS`` members, straight into the
preallocated result, so its only temporary is one slab rather than two
copies of the member matrix.

``coefficients_against`` and ``combine`` take either one operand vector or a
stack of them, one per row, and evaluate the same matrix product either way;
callers with a whole test set make one call instead of one per function.
Time the kernels in context with ``perfbench/run.py``.
"""
from __future__ import annotations

import numpy as np

#: Member rows per slab of ``gram``; a slab is GRAM_SLAB_ROWS x n_nodes complex values.
GRAM_SLAB_ROWS = 256


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
    """out[i, j] = sum_k w_k members[i, k] conj(members[j, k]).

    Each slab of rows r is conj((conj(members[r]) * w) @ members.T), which
    conjugates the slab instead of a copy of the whole member matrix.
    """
    members = _c128(members)
    w = _f64(w)
    m = members.shape[0]
    out = np.empty((m, m), dtype=np.complex128)
    slab = np.empty((min(m, GRAM_SLAB_ROWS), members.shape[1]), dtype=np.complex128)
    for start in range(0, m, GRAM_SLAB_ROWS):
        rows = slice(start, min(start + GRAM_SLAB_ROWS, m))
        part = slab[: rows.stop - start]
        np.conj(members[rows], out=part)
        part *= w
        np.matmul(part, members.T, out=out[rows])
        np.conj(out[rows], out=out[rows])
    return out


def combine(coeffs, members) -> np.ndarray:
    """out[..., k] = sum_m coeffs[..., m] members[m, k] for (M,) or (F, M) coeffs."""
    return _c128(coeffs) @ _c128(members)
