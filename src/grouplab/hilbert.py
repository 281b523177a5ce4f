"""The L2(G) function space: inner products, orthonormal families, defects.

Functions are complex vectors on the group's quadrature grid; "closed span"
statements from the continuous theory become span statements on the grid.
A finite test set of F functions is one ``TestSet``, an (F, n_nodes) array,
or a ``StreamedTestSet``, whose rows are written into one reused block a
chunk of ``TEST_CHUNK_ROWS`` at a time; both are walked in the same chunks
(``chunk_slices``), so the analysis commands hold one chunk of test
functions and of their coefficients at a time.
Orthonormal families are stored as a dense member matrix, one real scale per
member row, and one ``FamilyBlock`` (label, square size, flat offset) per
block, with the flat order fixed as: blocks in catalog order, row-major
(i outer, j inner) within a block.  ``block_layout`` is the one constructor
of that layout; the catalog store and the L2(A) matrix sequences use it too.
``OrthonormalFamily.positions`` is its one per-row table: each row's block and (i, j).
Member m is ``scale[m] * members[m]``: the Peter-Weyl family keeps the
catalog's unscaled coefficients u_ij and its sqrt(d) in ``scale``, so both
may be read-only views of the catalog (see ``catalog``).  The scale is
applied only where members meet arithmetic: ``coefficients``, ``expand``,
``member`` and the Gram kernels.  A family's orthonormality defect max |G - I|
is reduced slab by slab over the upper triangle of its Gram matrix G, so
checking a family never allocates an (M, M) array; ``gram_matrix`` builds G
for library callers and tests that need the matrix itself, and no CLI command
calls it.  ``gram_defect`` is the check of finite and SU(2) families and the
oracle of the circle's Toeplitz bound, ``catalog.gram_defect_bound``.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _kernels
from .groups import GroupModel, require_same_group
from .spec import ConfigError

_GRAM = {"finite": 1e-12, "circle": 1e-8, "su2": 1e-8}  # finite groups are exact up to rounding
#: Every tolerance that decides a claim, by invariant name: one value, or one
#: per ``GroupModel.kind``.  A residual meets its invariant when it is at most
#: the tolerance, so a NaN residual never does.
TOLERANCES = {
    "gram": _GRAM,                  # max |G - I| over the Gram matrix G of a family
    "bessel": 1e-9,                 # max of sum |<f, chi>|^2 - ||f||^2 over a test set
    "lift_restriction": 0.0,        # max |chi(., identity AN node) - xi| on K
    "lift_condition_i": 0.0,        # |f| at the identity AN node
    "lift_gram": 1e-9,              # max |Gram(lift) - Gram(xi)|; K is a circle
    "lift_norm": 1e-9,              # max |Gram(lift)_mm - 1|
    "membership": {"finite": 1e-10, "circle": 1e-8, "su2": 1e-8},  # Parseval defect of a member
    "weights_diagonal": 1e-12,      # |gamma_i beta_ii - 1| of admissible weights
    "homomorphism": 1e-12,          # max |u(s g) - u(s) u(g)|, |u(s) u(s)^H - I| over generators s
}
#: The invariants the CLI checks; a breach of one exits 3.
CLI_INVARIANTS = ("gram", "bessel", "lift_restriction", "lift_condition_i", "lift_gram", "lift_norm")


def tolerance(name: str, kind: str | None = None) -> float:
    """The tolerance of invariant ``name`` on a group of ``kind``."""
    value = TOLERANCES[name]
    return value[kind] if isinstance(value, dict) else value


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


#: ``write(start, out)``: fill ``out`` with rows start, start + 1, ... of a test set.
RowWriter = Callable[[int, np.ndarray], None]


def random_rows(group: GroupModel, seed: int) -> RowWriter:
    """A writer of seeded random rows: complex standard-normal node values, each row normalized.

    The rows are consecutive draws from one generator, each filled in place
    (its real part, then its imaginary part, then its scaling): every call
    writes the next ``len(out)`` draws whatever its ``start``, so the calls
    of one writer must come in row order from row 0.
    """
    rng = np.random.default_rng(seed)

    def write(start: int, out: np.ndarray) -> None:
        for row in out:
            row.real = rng.standard_normal(group.n_nodes)
            row.imag = rng.standard_normal(group.n_nodes)
            row *= 1.0 / L2Function(group, row).norm()

    return write


def random_function(group: GroupModel, seed: int) -> L2Function:
    """Seeded random function: complex standard-normal node values, normalized;
    row 0 of ``random_rows(group, seed)``."""
    out = np.empty((1, group.n_nodes), dtype=np.complex128)
    random_rows(group, seed)(0, out)
    return L2Function(group, out[0])


#: Rows per chunk in which the analysis commands walk a test set: a run holds
#: one chunk of test functions and of their coefficients at a time.
TEST_CHUNK_ROWS = 32


def chunk_slices(count: int) -> list[slice]:
    """Consecutive row slices of ``count`` rows, ``TEST_CHUNK_ROWS`` each but
    the last, except that a last single row joins the slice before it.

    So every chunk starts at a multiple of 32 rows, and each row of the
    chunks' coefficients has the bits of the whole set's one product: the
    BLAS product kernels take the function columns in groups that divide 32,
    while a one-row product goes through a matrix-vector kernel, whose sums
    differ from the product's.
    """
    stops = list(range(TEST_CHUNK_ROWS, count, TEST_CHUNK_ROWS))
    if stops and count - stops[-1] == 1:
        stops.pop()
    return [slice(start, stop) for start, stop in zip([0, *stops], [*stops, count])]


@dataclass(eq=False)
class TestSet:
    """A finite test set: F functions as the rows of one C-ordered
    (F, n_nodes) complex array, one id per row, and a descriptor of its spec.

    It is nonempty (an empty one is a ConfigError), its values are finite
    and so are their squared norms (a row whose norm overflows is a
    ConfigError naming its id); ``ids`` defaults to ``fn:<k>``.  Row k is
    the function ``function(k)``.
    """

    __test__ = False    # a library type, not a pytest test class

    group: GroupModel
    values: np.ndarray
    ids: tuple[str, ...] | None = None
    descriptor: str = "explicit"
    _norm_sq: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.complex128)
        n_fns = len(self.values)
        self.ids = tuple(f"fn:{k}" for k in range(n_fns)) if self.ids is None else tuple(self.ids)
        if self.values.ndim != 2 or self.values.shape[1] != self.group.n_nodes:
            raise ValueError(
                f"a test set needs (F, {self.group.n_nodes}) node values, got {self.values.shape}"
            )
        self.require_nonempty(n_fns)
        if len(self.ids) != n_fns:
            raise ValueError(f"{len(self.ids)} function ids for {n_fns} test functions")
        if not np.isfinite(self.values).all():
            raise ValueError("test set values must be finite (no NaN or infinity)")
        w = self.group.weights
        with np.errstate(over="ignore"):    # an overflow is refused below
            self._norm_sq = np.array([np.dot(w, np.abs(row) ** 2) for row in self.values], dtype=float)
        over = np.flatnonzero(~np.isfinite(self._norm_sq))
        if over.size:
            raise ConfigError(f"the squared norm of test function {self.ids[over[0]]!r} overflows")
        self._norm_sq.flags.writeable = False

    @staticmethod
    def require_nonempty(count: int) -> None:
        """The one size rule of a test set of ``count`` functions, also applied
        to a spec before any function is made: an empty one is a ConfigError."""
        if not count:
            raise ConfigError("a test set must be nonempty")

    def __len__(self) -> int:
        return len(self.values)

    def function(self, k: int) -> L2Function:
        """Row k as an ``L2Function``, a view of the row."""
        return L2Function(self.group, self.values[k])

    def norm_sq(self) -> np.ndarray:
        """(F,) squared norms, each the float ``L2Function.norm_sq`` gives its
        row; read-only, computed once when the set is made."""
        return self._norm_sq

    def chunks(self):
        """The set as ``TestSet`` views of the row slices of ``chunk_slices``."""
        for rows in chunk_slices(len(self)):
            yield TestSet(self.group, self.values[rows], self.ids[rows], self.descriptor)


@dataclass(eq=False)
class StreamedTestSet:
    """A test set that is never held whole: F functions on ``group`` with one
    id per row and a descriptor, like a ``TestSet``, written a chunk at a time.

    ``writer()`` starts one pass over the rows and returns its ``write(start,
    out)``, which the pass calls on consecutive blocks of rows from row 0.
    """

    __test__ = False    # a library type, not a pytest test class

    group: GroupModel
    ids: tuple[str, ...]
    descriptor: str
    writer: Callable[[], RowWriter]

    def __post_init__(self):
        self.ids = tuple(self.ids)
        TestSet.require_nonempty(len(self.ids))

    def __len__(self) -> int:
        return len(self.ids)

    def chunks(self):
        """The rows in the chunks of ``chunk_slices``, each a ``TestSet`` written
        into one reused block and valid until the next chunk is made."""
        slices = chunk_slices(len(self))
        block = np.empty((max(s.stop - s.start for s in slices), self.group.n_nodes), dtype=np.complex128)
        write = self.writer()
        for s in slices:
            values = block[: s.stop - s.start]
            write(s.start, values)
            yield TestSet(self.group, values, self.ids[s], self.descriptor)

    def whole(self) -> TestSet:
        """Every row in one ``TestSet``, written in one call of one pass."""
        values = np.empty((len(self), self.group.n_nodes), dtype=np.complex128)
        self.writer()(0, values)
        return TestSet(self.group, values, self.ids, self.descriptor)


@dataclass(frozen=True)
class FamilyBlock:
    """Where one square block sits in a flat layout: its size**2 entries start
    at ``offset``, entry (i, j) at offset + i*size + j."""

    label: str
    size: int
    offset: int

    @property
    def rows(self) -> slice:
        return slice(self.offset, self.offset + self.size * self.size)


def block_layout(sizes) -> tuple[FamilyBlock, ...]:
    """Blocks for ``(label, size)`` pairs laid out back to back, in order."""
    blocks, offset = [], 0
    for label, size in sizes:
        blocks.append(FamilyBlock(label=label, size=size, offset=offset))
        offset += size * size
    return tuple(blocks)


class MemberPositions(NamedTuple):
    """Row m of a family is entry (i[m], j[m]) of block block[m], of size sizes[block[m]]."""

    sizes: np.ndarray   # (n_blocks,)
    block: np.ndarray   # (n_members,), as are i and j
    i: np.ndarray
    j: np.ndarray


@dataclass(eq=False)
class OrthonormalFamily:
    """An indexed family of functions with square block structure.

    Member m is the function ``scale[m] * members[m]``; block b's members are
    the rows ``b.rows``, in-block position (i, j) at row b.offset + i*b.size + j.
    """

    group: GroupModel
    blocks: tuple[FamilyBlock, ...]
    members: np.ndarray             # (n_members, n_nodes) complex, unscaled
    scale: np.ndarray               # (n_members,) real, one factor per row

    def __post_init__(self):
        self.members = np.ascontiguousarray(self.members, dtype=np.complex128)
        self.scale = np.ascontiguousarray(self.scale, dtype=np.float64)
        expected = sum(b.size * b.size for b in self.blocks)
        if self.members.shape != (expected, self.group.n_nodes) or self.scale.shape != (expected,):
            raise ValueError(
                f"member matrix {self.members.shape} and scale {self.scale.shape} do not "
                f"match blocks ({expected} members on {self.group.n_nodes} nodes)"
            )

    @property
    def n_members(self) -> int:
        return self.members.shape[0]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(b.label for b in self.blocks)

    @cached_property
    def max_block_size(self) -> int:
        return max((b.size for b in self.blocks), default=0)

    @cached_property
    def positions(self) -> MemberPositions:
        """Each block's size and, for every member row, its block and in-block (i, j)."""
        sizes = np.array([b.size for b in self.blocks], dtype=np.intp)
        block = np.repeat(np.arange(len(sizes)), sizes * sizes)
        offset = np.repeat(np.array([b.offset for b in self.blocks], dtype=np.intp), sizes * sizes)
        i, j = divmod(np.arange(self.n_members) - offset, sizes[block])
        return MemberPositions(sizes, block, i, j)

    def flat_index(self, block: int, i: int, j: int) -> int:
        b = self.blocks[block]
        if not (0 <= i < b.size and 0 <= j < b.size):
            raise IndexError(f"position ({i}, {j}) out of range for block of size {b.size}")
        return b.offset + i * b.size + j

    def member(self, block: int, i: int, j: int) -> L2Function:
        k = self.flat_index(block, i, j)
        return L2Function(self.group, self.scale[k] * self.members[k])

    def gram_matrix(self) -> np.ndarray:
        return _kernels.gram(self.members, self.group.weights, self.scale)

    def gram_defect(self) -> float:
        """max |G - I| over the Gram matrix G, reduced slab by slab and never
        built; the same float as the dense max |gram_matrix() - I|."""
        return _kernels.gram_defect(self.members, self.group.weights, self.scale)


@dataclass(eq=False)
class ExpansionWeights:
    """Scalar weights (gamma_j, beta_ij) for weighted semi-Fourier expansion.

    The member at block position (i, j) is weighted by gamma[j] * beta[i, j].
    Every entry is finite and nonzero (a ValueError names each zero entry).
    Coefficient-preserving expansion needs gamma[i] * beta[i, i] == 1 on the
    diagonal; ``semicomplete.validate_weights`` reports violations.
    """

    gamma: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        self.gamma = np.ascontiguousarray(self.gamma, dtype=np.complex128)
        self.beta = np.ascontiguousarray(self.beta, dtype=np.complex128)
        if self.gamma.ndim != 1 or self.beta.shape != (self.gamma.size,) * 2:
            raise ValueError(
                f"weights need gamma (n,) and beta (n, n); got {self.gamma.shape} and {self.beta.shape}"
            )
        if not (np.all(np.isfinite(self.gamma)) and np.all(np.isfinite(self.beta))):
            # NaN passes the zero and diagonal checks and turns every defect into NaN
            raise ValueError("expansion weights must be finite")
        zeros = [f"gamma[{i}]" for i in np.flatnonzero(self.gamma == 0)]
        zeros += [f"beta[{i}][{j}]" for i, j in zip(*np.nonzero(self.beta == 0))]
        if zeros:
            raise ValueError(f"expansion weights must be nonzero, got 0 at {', '.join(zeros)}")

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


def coefficients(f, family: OrthonormalFamily) -> np.ndarray:
    """<f, chi> for every family member, in the family's flat order.

    ``f`` is one ``L2Function``, giving (n_members,), or a ``TestSet`` of F
    functions, giving (F, n_members) from one kernel call on its array.
    """
    require_same_group(f.group, family.group)
    fw = _kernels.conj_weighted(f.values, family.group.weights)
    out = _kernels.coefficients_against(family.members, fw)
    out *= family.scale
    return out


def expand(coeffs, family: OrthonormalFamily) -> L2Function:
    """sum_m coeffs[m] * chi_m; inverse of ``coefficients`` on the span."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape != (family.n_members,):
        raise ValueError(
            f"expected {family.n_members} coefficients, got shape {coeffs.shape}"
        )
    return L2Function(family.group, _kernels.combine(coeffs * family.scale, family.members))


def project(f: L2Function, family: OrthonormalFamily) -> L2Function:
    """Orthogonal projection of f onto the span of the family."""
    return expand(coefficients(f, family), family)


def parseval_defect(f: L2Function, family: OrthonormalFamily) -> float:
    """||f||^2 - sum |<f, chi>|^2; >= 0 up to rounding (Bessel), 0 on the span."""
    c = coefficients(f, family)
    return f.norm_sq() - float(np.sum(np.abs(c) ** 2))
