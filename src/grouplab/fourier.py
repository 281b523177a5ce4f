"""Fourier transform to the Peter-Weyl matrix sequence and synthesis.

The transform of f is the L2(A) coefficient transform against the Peter-Weyl
family {sqrt(d) u_ij}: a ``MatrixSequence`` on the catalog's block layout
``cat.blocks`` with fhat(label)_ij = <f, sqrt(d) u_ij>, the sequence
``transform_H(f, peter_weyl_basis(cat))``.  Each label's coefficients come
from one kernel call on its store rows, written into its slice of the one
flat vector; synthesis likewise makes one kernel call per label.  The family
is orthonormal, so the Plancherel sum is the plain ``norm_sq`` of the sequence
and ``hs_inner`` of two transforms is the L2 inner product of the functions.
Synthesis weights each block by sqrt(d), so on a finite group with the
complete catalog the round trip is the identity, and on a truncated
continuous catalog it is the band-limited projection.  The row-block
projections H_i of f are ``parseval.block_decompose(f, peter_weyl_basis(cat))``.
"""
from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .catalog import RepCatalog
from .groups import require_same_group
from .hilbert import L2Function
from .parseval import MatrixSequence


def fourier_transform(f: L2Function, cat: RepCatalog) -> MatrixSequence:
    """fhat(label)_ij = <f, sqrt(d) u_ij> for every label in the catalog."""
    require_same_group(f.group, cat.group)
    # sqrt(d) is real, so it folds into the quadrature weights once per degree
    weights = {}
    flat = np.empty(cat.store.shape[0], dtype=np.complex128)
    for b in cat.blocks:
        if b.size not in weights:
            weights[b.size] = math.sqrt(b.size) * cat.group.weights
        flat[b.rows] = _kernels.coefficients_against(cat.store[b.rows], weights[b.size], f.values)
    return MatrixSequence(cat.blocks, flat)


def synthesize(seq: MatrixSequence, cat: RepCatalog) -> L2Function:
    """sum_label sqrt(d) * sum_ij seq_ij u_ij as a function on the grid."""
    if seq.blocks != cat.blocks:
        raise ValueError("matrix sequence does not have the catalog's block layout")
    out = np.zeros(cat.group.n_nodes, dtype=np.complex128)
    for b in cat.blocks:
        out += _kernels.combine(math.sqrt(b.size) * seq.flat[b.rows], cat.store[b.rows])
    return L2Function(cat.group, out)


def inversion_defect(f: L2Function, cat: RepCatalog) -> float:
    """L2 norm of f - synthesize(fourier_transform(f)); 0 for complete catalogs."""
    return (f - synthesize(fourier_transform(f, cat), cat)).norm()
