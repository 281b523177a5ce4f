"""Prime-Parseval membership, the matrix-sequence space L2(A), and blocks.

Membership in the prime-Parseval subspace of a family is decided by the
Parseval equality ||f||^2 = sum |<f, chi>|^2 within a tolerance.  The
coefficient transform maps f to one square matrix per block; it is an isometry
exactly on the family span, and the span decomposes into the mutually
orthogonal row subspaces span{chi_(i,j) : j}.

A matrix sequence is the family's coefficient vector with its block layout:
one flat complex vector in the family's flat order plus the family's
``FamilyBlock`` tuple, so block b's n_b x n_b matrix is ``flat[b.rows]`` read
row-major.  Block sizes may differ (omission families have ragged degrees).
The transform and its inverse are ``coefficients`` and ``expand`` with that
layout attached; sequences on different layouts never combine.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .hilbert import (
    FamilyBlock,
    L2Function,
    OrthonormalFamily,
    coefficients,
    expand,
    parseval_defect,
    tolerance,
)


@dataclass(eq=False)
class MatrixSequence:
    """An element of L2(A): one square complex matrix per block, stored flat.

    ``flat`` holds every entry in the flat order of ``blocks``.
    ``transform_H`` makes one against any family; ``fourier.fourier_transform``
    makes the one against the Peter-Weyl family, whose blocks are the catalog's.
    """

    blocks: tuple[FamilyBlock, ...]
    flat: np.ndarray

    def __post_init__(self):
        self.blocks = tuple(self.blocks)
        self.flat = np.ascontiguousarray(self.flat, dtype=np.complex128)
        # ``block_layout`` lays the blocks back to back from 0, so the last one
        # ends at the entry count: an O(1) check, made once per transform
        n = self.blocks[-1].rows.stop if self.blocks else 0
        if self.flat.shape != (n,):
            raise ValueError(
                f"blocks hold {n} entries, got a flat vector of shape {self.flat.shape}"
            )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(b.label for b in self.blocks)

    def matrix(self, label: str) -> np.ndarray:
        """The square matrix of block ``label``: a writable view of ``flat``."""
        for b in self.blocks:
            if b.label == label:
                return self.flat[b.rows].reshape(b.size, b.size)
        raise KeyError(f"no block {label!r} in the matrix sequence")

    def norm_sq(self) -> float:
        """Squared Hilbert-Schmidt norm summed over all blocks."""
        return float(np.sum(np.abs(self.flat) ** 2))


def zero_sequence(family: OrthonormalFamily) -> MatrixSequence:
    return MatrixSequence(family.blocks, np.zeros(family.n_members, dtype=np.complex128))


def hs_inner(a: MatrixSequence, b: MatrixSequence) -> complex:
    """Hilbert-Schmidt inner product sum_alpha tr(a(alpha) b(alpha)^*)."""
    if a.blocks != b.blocks:
        raise ValueError("matrix sequences have different block layouts")
    return complex(np.sum(a.flat * np.conj(b.flat)))


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of the Parseval-equality membership test."""

    defect: float
    tolerance: float
    member: bool
    span_dimension: int
    norm_sq: float


def membership(
    f: L2Function, family: OrthonormalFamily, tol: float | None = None
) -> MembershipVerdict:
    """Member iff ||f||^2 - sum |<f, chi>|^2 <= tol (default: the ``membership`` tolerance)."""
    if tol is None:
        tol = tolerance("membership", family.group.kind)
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    defect = parseval_defect(f, family)
    return MembershipVerdict(
        defect=defect,
        tolerance=tol,
        member=defect <= tol,
        span_dimension=family.n_members,
        norm_sq=f.norm_sq(),
    )


def transform_H(f: L2Function, family: OrthonormalFamily) -> MatrixSequence:
    """Coefficient matrices fhat(alpha)_ij = <f, chi_(i,j)> per block."""
    return MatrixSequence(family.blocks, coefficients(f, family))


def inverse_H(seq: MatrixSequence, family: OrthonormalFamily) -> L2Function:
    """Synthesis sum_alpha sum_ij seq(alpha)_ij chi_(i,j)."""
    if seq.blocks != family.blocks:
        raise ValueError("matrix sequence does not have the family's block layout")
    return expand(seq.flat, family)


def isometry_defect(f: L2Function, family: OrthonormalFamily) -> float:
    """| ||f||^2 - ||transform_H(f)||^2 |; zero exactly on prime-Parseval members."""
    return abs(parseval_defect(f, family))


def block_decompose(
    f: L2Function, family: OrthonormalFamily
) -> list[tuple[str, int, L2Function]]:
    """Projections of f onto the row subspaces span{chi_(i,j) : j}.

    The components are mutually orthogonal and sum to the projection of f onto
    the family span.
    """
    flat = coefficients(f, family) * family.scale   # coefficients of the unscaled rows
    out = []
    for b in family.blocks:
        members, block = family.members[b.rows], flat[b.rows]
        for i in range(b.size):
            row = slice(i * b.size, (i + 1) * b.size)
            part = _kernels.combine(block[row], members[row])
            out.append((b.label, i, L2Function(f.group, part)))
    return out
