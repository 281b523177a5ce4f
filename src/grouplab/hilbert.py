"""The L2(G) function space: inner products, orthonormal families, defects.

Functions are complex vectors on the group's quadrature grid; "closed span"
statements from the continuous theory become span statements on the grid.
Orthonormal families are stored as a dense member matrix plus block metadata
(block label, square block size, flat offset), with the flat order fixed as:
blocks in catalog order, row-major (i outer, j inner) within a block.  The
member matrix may be a read-only view of a catalog's coefficient store (see
``catalog``); operations here only read it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .groups import GroupModel, require_same_group

#: Gram tolerance for families on finite groups (exact arithmetic up to rounding).
GRAM_TOL_FINITE = 1e-12
#: Gram tolerance for families on quadrature groups.
GRAM_TOL_CONTINUOUS = 1e-8


def gram_tol(group: GroupModel) -> float:
    return GRAM_TOL_FINITE if group.kind == "finite" else GRAM_TOL_CONTINUOUS


@dataclass(eq=False)
class L2Function:
    """An element of L2(G): finite complex values on the quadrature grid."""

    group: GroupModel
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.group.n_nodes,):
            raise ValueError(
                f"function needs {self.group.n_nodes} node values, got {self.values.shape}"
            )
        if not np.isfinite(self.values).all():
            raise ValueError("function values must be finite (no NaN or infinity)")

    def norm_sq(self) -> float:
        return float(np.dot(self.group.weights, np.abs(self.values) ** 2))

    def norm(self) -> float:
        return float(np.sqrt(max(self.norm_sq(), 0.0)))

    def __add__(self, other: "L2Function") -> "L2Function":
        require_same_group(self.group, other.group)
        return L2Function(self.group, self.values + other.values)

    def __sub__(self, other: "L2Function") -> "L2Function":
        require_same_group(self.group, other.group)
        return L2Function(self.group, self.values - other.values)

    def __mul__(self, scalar) -> "L2Function":
        return L2Function(self.group, self.values * scalar)

    __rmul__ = __mul__


def zero_function(group: GroupModel) -> L2Function:
    return L2Function(group, np.zeros(group.n_nodes, dtype=np.complex128))


def random_functions(
    group: GroupModel, seed: int, count: int, normalize: bool = True
) -> list[L2Function]:
    """``count`` seeded random functions: complex standard-normal node values, normalized.

    The functions are consecutive draws from one generator, so the first is
    ``random_function(group, seed)``.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        v = rng.standard_normal(group.n_nodes) + 1j * rng.standard_normal(group.n_nodes)
        f = L2Function(group, v)
        n = f.norm() if normalize else 0.0
        out.append(f * (1.0 / n) if n > 0 else f)
    return out


def random_function(group: GroupModel, seed: int, normalize: bool = True) -> L2Function:
    """Seeded random function: complex standard-normal node values, normalized."""
    return random_functions(group, seed, 1, normalize)[0]


@dataclass(frozen=True)
class FamilyBlock:
    label: str
    size: int
    offset: int


@dataclass(eq=False)
class OrthonormalFamily:
    """An indexed family of functions with square block structure.

    ``members`` holds one function per row.  Block b contributes size**2
    consecutive rows starting at its offset; the member at in-block position
    (i, j) sits at row offset + i*size + j.
    """

    group: GroupModel
    blocks: tuple[FamilyBlock, ...]
    members: np.ndarray             # (n_members, n_nodes) complex

    def __post_init__(self):
        self.members = np.ascontiguousarray(self.members, dtype=np.complex128)
        expected = sum(b.size * b.size for b in self.blocks)
        if self.members.shape != (expected, self.group.n_nodes):
            raise ValueError(
                f"member matrix shape {self.members.shape} does not match blocks "
                f"({expected} members on {self.group.n_nodes} nodes)"
            )

    @property
    def n_members(self) -> int:
        return self.members.shape[0]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(b.label for b in self.blocks)

    @property
    def max_block_size(self) -> int:
        return max((b.size for b in self.blocks), default=0)

    def flat_index(self, block: int, i: int, j: int) -> int:
        b = self.blocks[block]
        if not (0 <= i < b.size and 0 <= j < b.size):
            raise IndexError(f"position ({i}, {j}) out of range for block of size {b.size}")
        return b.offset + i * b.size + j

    def member(self, block: int, i: int, j: int) -> L2Function:
        return L2Function(self.group, self.members[self.flat_index(block, i, j)].copy())

    def member_flat(self, k: int) -> L2Function:
        return L2Function(self.group, self.members[k].copy())

    def flat_positions(self) -> list[tuple[str, int, int]]:
        """(block label, i, j) for every member in flat order."""
        out = []
        for b in self.blocks:
            for i in range(b.size):
                for j in range(b.size):
                    out.append((b.label, i, j))
        return out

    def gram_matrix(self) -> np.ndarray:
        return _kernels.gram(self.members, self.group.weights)

    def gram_defect(self, gram: np.ndarray | None = None) -> float:
        """max |G - I| over the Gram matrix G (computed here unless given)."""
        if self.n_members == 0:
            return 0.0
        g = self.gram_matrix() if gram is None else gram
        # max over |G_ij| off the diagonal and |G_ii - 1| on it, with no identity
        # or difference matrix: one abs array whose diagonal is overwritten
        dev = np.abs(g)
        np.fill_diagonal(dev, np.abs(np.diagonal(g) - 1.0))
        return float(np.max(dev))


@dataclass(eq=False)
class ExpansionWeights:
    """Scalar weights (gamma_j, beta_ij) for weighted semi-Fourier expansion.

    The member at block position (i, j) is weighted by gamma[j] * beta[i, j].
    Coefficient-preserving expansion needs gamma[i] * beta[i, i] == 1 on the
    diagonal; ``semicomplete.validate_weights`` reports violations.
    """

    gamma: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        self.gamma = np.ascontiguousarray(self.gamma, dtype=np.complex128)
        self.beta = np.ascontiguousarray(self.beta, dtype=np.complex128)
        n = self.gamma.shape[0]
        if self.gamma.ndim != 1 or self.beta.shape != (n, n):
            raise ValueError(
                f"weights need gamma (n,) and beta (n, n); got {self.gamma.shape} and {self.beta.shape}"
            )
        if not (np.all(np.isfinite(self.gamma)) and np.all(np.isfinite(self.beta))):
            # NaN passes the zero and diagonal checks and turns every defect into NaN
            raise ValueError("expansion weights must be finite")

    @property
    def n(self) -> int:
        return self.gamma.shape[0]


def unit_weights(n: int) -> ExpansionWeights:
    return ExpansionWeights(np.ones(n), np.ones((n, n)))


def diag_reciprocal_weights(n: int, seed: int) -> ExpansionWeights:
    """Random nonzero weights with gamma_i * beta_ii = 1 by construction."""
    rng = np.random.default_rng(seed)

    def nonzero(shape):
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        small = np.abs(v) < 0.1
        v[small] = v[small] + (1.0 + 1.0j)
        return v

    gamma = nonzero(n)
    beta = nonzero((n, n))
    beta[np.diag_indices(n)] = 1.0 / gamma
    return ExpansionWeights(gamma, beta)


# ---------------------------------------------------------------------------
# operations


def inner(f: L2Function, h: L2Function) -> complex:
    """L2 inner product <f, h> = sum_k w_k f(g_k) conj(h(g_k))."""
    require_same_group(f.group, h.group)
    return _kernels.weighted_inner(f.values, h.values, f.group.weights)


def coefficients(f: L2Function, family: OrthonormalFamily) -> np.ndarray:
    """<f, chi> for every family member, in the family's flat order."""
    require_same_group(f.group, family.group)
    if family.n_members == 0:
        return np.zeros(0, dtype=np.complex128)
    return _kernels.coefficients_against(family.members, f.group.weights, f.values)


def expand(coeffs, family: OrthonormalFamily) -> L2Function:
    """sum_m coeffs[m] * chi_m; inverse of ``coefficients`` on the span."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape != (family.n_members,):
        raise ValueError(
            f"expected {family.n_members} coefficients, got shape {coeffs.shape}"
        )
    if family.n_members == 0:
        return zero_function(family.group)
    return L2Function(family.group, _kernels.combine(coeffs, family.members))


def project(f: L2Function, family: OrthonormalFamily) -> L2Function:
    """Orthogonal projection of f onto the span of the family."""
    return expand(coefficients(f, family), family)


def parseval_defect(f: L2Function, family: OrthonormalFamily) -> float:
    """||f||^2 - sum |<f, chi>|^2; >= 0 up to rounding (Bessel), 0 on the span."""
    c = coefficients(f, family)
    return f.norm_sq() - float(np.sum(np.abs(c) ** 2))
