"""Prime-Parseval membership, the matrix-sequence space L2(A), and blocks.

Membership in the prime-Parseval subspace of a family is decided by the
Parseval equality ||f||^2 = sum |<f, chi>|^2 within a tolerance.  The
coefficient transform maps f to one square matrix per block; it is an isometry
exactly on the family span, and the span decomposes into the mutually
orthogonal row subspaces span{chi_(i,j) : j}.

Block sizes may differ between blocks (omission families have ragged
degrees), so a matrix sequence carries one n_alpha x n_alpha matrix per
block rather than a single fixed size.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .groups import require_same_group
from .hilbert import (
    L2Function,
    OrthonormalFamily,
    coefficients,
    expand,
    parseval_defect,
)


@dataclass(eq=False)
class MatrixSequence:
    """An element of L2(A): one square complex matrix per block label.

    ``transform_H`` makes one against any family; ``fourier.fourier_transform``
    makes the one against the Peter-Weyl family, keyed by catalog label.
    """

    labels: tuple[str, ...]
    matrices: dict[str, np.ndarray]

    def __post_init__(self):
        for key in self.labels:
            m = np.ascontiguousarray(self.matrices[key], dtype=np.complex128)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"block {key!r} must hold a square matrix, got {m.shape}")
            self.matrices[key] = m

    def norm_sq(self) -> float:
        """Squared Hilbert-Schmidt norm summed over all blocks."""
        return float(
            sum(np.sum(np.abs(self.matrices[key]) ** 2) for key in self.labels)
        )

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(self.matrices[key].shape[0] for key in self.labels)


def zero_sequence(family: OrthonormalFamily) -> MatrixSequence:
    return MatrixSequence(
        labels=family.labels,
        matrices={
            b.label: np.zeros((b.size, b.size), dtype=np.complex128) for b in family.blocks
        },
    )


def basis_sequence(family: OrthonormalFamily, label: str, i: int, j: int) -> MatrixSequence:
    seq = zero_sequence(family)
    seq.matrices[label][i, j] = 1.0
    return seq


def require_structure(
    seq: MatrixSequence, labels: tuple[str, ...], sizes: tuple[int, ...]
) -> None:
    """Raise unless ``seq`` has exactly these block labels and sizes, in order."""
    if seq.labels != labels or seq.block_sizes() != sizes:
        raise ValueError("matrix sequence does not match the expected block labels and sizes")


def hs_inner(a: MatrixSequence, b: MatrixSequence) -> complex:
    """Hilbert-Schmidt inner product sum_alpha tr(a(alpha) b(alpha)^*)."""
    require_structure(b, a.labels, a.block_sizes())
    total = 0.0 + 0.0j
    for key in a.labels:
        total += complex(np.sum(a.matrices[key] * np.conj(b.matrices[key])))
    return total


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of the Parseval-equality membership test."""

    defect: float
    tolerance: float
    member: bool
    span_dimension: int
    norm_sq: float


def membership_tol(family: OrthonormalFamily) -> float:
    return 1e-10 if family.group.kind == "finite" else 1e-8


def membership(
    f: L2Function, family: OrthonormalFamily, tol: float | None = None
) -> MembershipVerdict:
    """Member iff ||f||^2 - sum |<f, chi>|^2 <= tol."""
    if tol is None:
        tol = membership_tol(family)
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
    require_same_group(f.group, family.group)
    flat = coefficients(f, family)
    matrices = {}
    for b in family.blocks:
        matrices[b.label] = flat[b.offset : b.offset + b.size * b.size].reshape(
            b.size, b.size
        )
    return MatrixSequence(labels=family.labels, matrices=matrices)


def inverse_H(seq: MatrixSequence, family: OrthonormalFamily) -> L2Function:
    """Synthesis sum_alpha sum_ij seq(alpha)_ij chi_(i,j)."""
    require_structure(seq, family.labels, tuple(b.size for b in family.blocks))
    flat = np.concatenate(
        [seq.matrices[b.label].reshape(b.size * b.size) for b in family.blocks]
    ) if family.blocks else np.zeros(0, dtype=np.complex128)
    return expand(flat, family)


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
    require_same_group(f.group, family.group)
    flat = coefficients(f, family)
    out = []
    for b in family.blocks:
        for i in range(b.size):
            row = np.ascontiguousarray(
                family.members[b.offset + i * b.size : b.offset + (i + 1) * b.size]
            )
            row_coeffs = flat[b.offset + i * b.size : b.offset + (i + 1) * b.size]
            out.append((b.label, i, L2Function(f.group, _kernels.combine(row_coeffs, row))))
    return out
