"""Weighted dot-product kernels behind the L2 operations on families and functions.

All inner products here reduce to sums of the form sum_k w_k a_k conj(b_k)
over quadrature nodes: a single weighted inner product, coefficients of
functions against a family, linear combinations of family members, and two
kernels over a family's Gram matrix.  Each product is one BLAS-backed matrix
product.  Two weighted sums call ``np.dot`` themselves:
``L2Function.norm_sq`` (and ``TestSet``'s row norms, the same sum row by
row) and ``IwasawaModel.an_mass``.

The Gram kernels share one slab generator.  A family's member m is
``scale[m] * members[m]`` for one real scale per row, so the Gram matrix is
G_ij = s_i s_j sum_k w_k u_ik conj(u_jk).  For each slab r of
``GRAM_SLAB_ROWS`` members the generator evaluates only the upper-triangle
block G[r, r.start:], since G_ji = conj(G_ij), scaling the slab's rows and
the block's columns; the square block on the diagonal is made exactly
Hermitian, with a real diagonal.  ``gram`` writes every block
into the result and mirrors its conjugate into the lower triangle, so it
evaluates about half the products and returns an exactly Hermitian matrix.
``gram_defect`` reduces each block to max |G - I| and drops it, so the
orthonormality check never holds more than one slab of the Gram matrix, and
it returns the same float as the dense defect of ``gram``.

``coefficients_against`` and ``combine`` take either one operand vector or a
stack of them, one per row, and evaluate the same matrix product either way;
callers with a whole test set make one call instead of one per function.
``coefficients_against`` takes its functions as the operand
``conj_weighted(f, w)``, which a caller makes once per function or stack,
not once per call.  The allocation contract: ``conj_weighted`` allocates its
result, the size of the function stack; ``coefficients_against`` allocates
only its result, and ``combine`` at most one temporary, the size of its
coefficients, beside its result; no operand is written; each product is one
``np.dot``, which reads ``members`` in place in any layout (every family and
catalog keeps it C-ordered complex128; a real one would be cast to complex,
a copy of its size).
The Fourier transform calls them once per catalog label, so their per-call
overhead, not their arithmetic, sets its speed on a catalog of many small
blocks.  Time the kernels in context with ``perfbench/run.py``.
"""
from __future__ import annotations

import numpy as np

#: Member rows per slab of the Gram kernels; a slab is GRAM_SLAB_ROWS x n_nodes complex values.
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


def conj_weighted(f, w) -> np.ndarray:
    """conj(f * w), the operand of ``coefficients_against``, in one fresh C-ordered buffer.

    ``f`` is one function (K,) or a stack (F, K); ``w`` is real, or complex128
    with zero imaginary parts, which gives the same bits.  The conjugation is
    made in place.
    """
    fw = np.multiply(f, w, dtype=np.complex128, order="C")
    np.conjugate(fw, out=fw)
    return fw


def coefficients_against(members, fw) -> np.ndarray:
    """out[..., m] = sum_k w_k f[..., k] conj(members[m, k]) for fw = ``conj_weighted(f, w)``.

    ``members`` is (M, K); ``fw`` is (K,) or (F, K), giving (M,) or (F, M).
    The product is conj(members @ fw.T).T: the small operand is conjugated
    instead of ``members``, and the result in place.  A caller with one
    function and many member blocks makes ``fw`` once for all of them.
    """
    out = np.dot(members, fw.T)
    np.conjugate(out, out=out)
    return out.T


def _upper_gram_blocks(members, w, scale, out=None):
    """Yield (rows, block) with block = G[rows, rows.start:] for each row slab.

    Each block is conj((conj(members[rows]) * w * s[rows]) @ members[rows.start:].T)
    with its columns times s[rows.start:], for the row scale s = ``scale``; it
    conjugates the slab instead of a copy of the whole member matrix.
    Its leading square, the diagonal block, gets a real diagonal and the
    conjugate of its upper triangle below it.  Blocks are written in place
    into ``out[rows, rows.start:]`` when an (M, M) ``out`` is given, so
    ``gram`` holds no block buffer beside its result; otherwise
    each is a C-contiguous view of one reused buffer, which the caller may
    overwrite and which is valid until the next block is yielded.
    """
    members = _c128(members)
    w = _f64(w)
    scale = _f64(scale)
    m = members.shape[0]
    slab = np.empty((min(m, GRAM_SLAB_ROWS), members.shape[1]), dtype=np.complex128)
    if out is None:
        buf = np.empty(min(m, GRAM_SLAB_ROWS) * m, dtype=np.complex128)
    for start in range(0, m, GRAM_SLAB_ROWS):
        rows = slice(start, min(start + GRAM_SLAB_ROWS, m))
        s = rows.stop - start
        part = slab[:s]
        np.conj(members[rows], out=part)
        part *= w
        part *= scale[rows, None]
        if out is None:
            block = buf[: s * (m - start)].reshape(s, m - start)
        else:
            block = out[rows, start:]
        np.matmul(part, members[start:].T, out=block)
        block *= scale[start:]
        np.conj(block, out=block)
        for i in range(s):
            block[i, i] = block[i, i].real
            np.conj(block[i, i + 1 : s], out=block[i + 1 : s, i])
        yield rows, block


def gram(members, w, scale) -> np.ndarray:
    """out[i, j] = s_i s_j sum_k w_k members[i, k] conj(members[j, k]), exactly Hermitian."""
    m = members.shape[0]
    out = np.empty((m, m), dtype=np.complex128)
    for rows, block in _upper_gram_blocks(members, w, scale, out):
        np.conj(block[:, rows.stop - rows.start :].T, out=out[rows.stop :, rows])
    return out


def gram_defect(members, w, scale) -> float:
    """max |G - I| over the Gram matrix G of the scaled ``members``, one slab at a time.

    Equal to the max of |G_ij| off the diagonal and |G_ii - 1| on it, taken
    over the exactly Hermitian matrix ``gram`` returns.
    """
    defect = 0.0
    for rows, block in _upper_gram_blocks(members, w, scale):
        # row by row, so |G| never takes a block-sized array of its own;
        # np.maximum, unlike max(), carries a NaN through to the result
        for i, row in enumerate(block):
            row[i] -= 1.0       # G_ii sits at column i of the block
            defect = np.maximum(defect, np.max(np.abs(row)))
    return float(defect)


def combine(coeffs, members) -> np.ndarray:
    """out[..., k] = sum_m coeffs[..., m] members[m, k] for (M,) or (F, M) coeffs."""
    return np.dot(_c128(coeffs), members)
