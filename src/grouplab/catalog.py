"""Catalog of irreducible unitary representations up to a truncation.

Exposes the dual object of a group model as an ordered list of labels with
degrees d and an ordering magnitude |.|, plus the matrix coefficients
u_ij(g) as functions on the group:

* finite groups -- irreps in closed form, read off the family and size in the
  group's name: ``zn`` characters and ``dihedral`` irreps gathered from the
  circle's table of roots of unity, Young's orthogonal form for ``sym``.  Each
  is checked to be a unitary homomorphism on the family's generators, and the
  store for Schur orthogonality;
* circle -- characters exp(i m theta) for |m| <= M.  On the uniform grid
  theta_k = 2 pi k / n every value of a character is an n-th root of unity, so
  store row m is gathered from one table of them, ``roots[(m k) mod n]``, in
  slabs of rows through one small index buffer.  ``gram_defect_bound`` reads
  the same table and index rule (``_circle_table``): the characters' Gram
  matrix is Toeplitz, so the largest entry of one FFT of the weights and one
  pass over the members bound its defect in O(M n + n log n), where the dense
  check costs O(M^2 n);
* SU(2) -- spin-j Wigner matrices for j = 0, 1/2, ..., jmax.  On the Euler
  product grid they are built from the factorization
  D^j(alpha, beta, gamma) = diag(e^{-i m alpha}) d^j(beta) diag(e^{-i m' gamma}):
  the small matrix d^j(beta) is evaluated once per distinct beta node and
  multiplied by the torus phases at every node.  Off the grid,
  ``su2_irrep_matrix`` evaluates D^j from the Cayley-Klein parameters of the
  2x2 element, so products of grid elements need no Euler-angle extraction;
  it is also the oracle for the beta nodes.

Matrix coefficients are cached on the quadrature grid at build time; every
downstream inner product is then a plain weighted dot product.  The cache is
one read-only ``(sum d^2, n_nodes)`` store in member layout, described by
``blocks``, the Peter-Weyl layout of the catalog (one ``hilbert.FamilyBlock``
per label, keyed by label): label block b keeps u_ij at row
b.offset + i*d + j, its rows are ``store[b.rows]``, and ``grids[key]`` is an
``(n_nodes, d, d)`` view of them.  The Peter-Weyl family and the matrix
sequence of a Fourier transform have the same ``blocks``.  The normalization
sqrt(d) of the Peter-Weyl family {sqrt(d) u_ij} is one read-only per-row
vector, ``scale``.  A family whose retained blocks form one contiguous run
of store rows (every Peter-Weyl family and every tail omission) has members
and scale that are views of ``store`` and ``scale``; only a retained set with
a gap gathers its rows.  So an analysis run holds the coefficient grid once.

``gram_defect_bound`` is the one orthonormality check of every family a
command builds, per group kind: the streamed dense defect for finite groups
and SU(2), the Toeplitz bound for the circle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from . import _kernels
from .groups import (
    TWO_PI,
    GroupModel,
    _fmt_spin,
    _parse_group_spec,
    grid_shape,
    require_same_group,
    su2_matrix_from_euler,
)
from .hilbert import FamilyBlock, OrthonormalFamily, block_layout, tolerance
from .spec import ConfigError, is_finite, steps_of


@dataclass(frozen=True)
class IrrepLabel:
    """A dual-object element: group kind, payload, degree d, magnitude |.|."""

    kind: str        # "finite" | "circle" | "su2"
    payload: object  # finite: catalog index; circle: frequency m; su2: spin j
    degree: int
    magnitude: float

    @property
    def key(self) -> str:
        if self.kind == "finite":
            return f"irrep:{self.payload}"
        if self.kind == "circle":
            return f"m:{self.payload}"
        return f"j:{_fmt_spin(self.payload)}"


@dataclass(eq=False)
class RepCatalog:
    """Ordered irrep labels with their matrix coefficients on the grid, stored once.

    ``store`` is the read-only (sum d^2, n_nodes) coefficient matrix; label
    block b of ``blocks`` owns rows ``store[b.rows]`` and ``grids[b.label]``
    is the same numbers as an (n_nodes, d, d) view.  ``block_rows`` holds,
    in block order, each block's row slice and its view ``store[b.rows]``,
    made once for the per-label loops of ``fourier``.  ``scale`` is the
    read-only (sum d^2,) Peter-Weyl normalization, sqrt(d) on every row of a
    degree-d block.
    """

    group: GroupModel
    labels: tuple[IrrepLabel, ...]
    store: np.ndarray                      # (sum d^2, n_nodes), member layout
    blocks: tuple[FamilyBlock, ...] = field(init=False)   # Peter-Weyl layout
    block_rows: tuple[tuple[slice, np.ndarray], ...] = field(init=False)  # (b.rows, store[b.rows])
    scale: np.ndarray = field(init=False)                # (sum d^2,) sqrt(d) per row
    grids: dict[str, np.ndarray] = field(init=False)   # key -> (n_nodes, d, d) view

    def __post_init__(self):
        n = self.group.n_nodes
        self.blocks = _peter_weyl_layout(self.labels)
        rows = sum(b.size**2 for b in self.blocks)
        if self.store.shape != (rows, n) or self.store.dtype != np.complex128:
            raise ValueError(
                f"coefficient store {self.store.dtype}{self.store.shape} does not match "
                f"{rows} coefficients on {n} nodes"
            )
        self.store.flags.writeable = False
        sizes = np.array([b.size for b in self.blocks], dtype=np.float64)
        self.scale = np.repeat(np.sqrt(sizes), [b.size**2 for b in self.blocks])
        self.scale.flags.writeable = False
        self.block_rows = tuple((b.rows, self.store[b.rows]) for b in self.blocks)
        self.grids = {
            b.label: rows.T.reshape(n, b.size, b.size)
            for b, (_, rows) in zip(self.blocks, self.block_rows)
        }

    def label_by_key(self, key: str) -> IrrepLabel:
        for lab in self.labels:
            if lab.key == key:
                return lab
        raise KeyError(f"label {key!r} not in catalog")


def peter_weyl_basis(cat: RepCatalog) -> OrthonormalFamily:
    """The orthonormal family {sqrt(d) u_ij} over all catalog labels."""
    return _sqrt_degree_family(cat, cat.blocks)


def _sqrt_degree_family(cat: RepCatalog, retained) -> OrthonormalFamily:
    """{sqrt(d) u_ij} over the ``retained`` blocks of ``cat.blocks``, in catalog order.

    The members are the store rows of the retained blocks and the scale their
    rows of ``cat.scale``.  Blocks on one contiguous run of store rows make
    both read-only views of the catalog; a retained set with a gap gathers.
    """
    blocks = block_layout((b.label, b.size) for b in retained)
    runs = [b.rows for b in retained] or [slice(0, 0)]
    if all(a.stop == b.start for a, b in zip(runs, runs[1:])):
        rows = slice(runs[0].start, runs[-1].stop)
    else:
        rows = np.concatenate([np.arange(r.start, r.stop) for r in runs])
    return OrthonormalFamily(cat.group, blocks, cat.store[rows], cat.scale[rows])


# ---------------------------------------------------------------------------
# SU(2) Wigner matrices


def su2_irrep_matrix(two_j: int, g: np.ndarray) -> np.ndarray:
    """Spin-j representation matrix from the Cayley-Klein parameters of g.

    g is an SU(2) matrix [[a, b], [-conj(b), conj(a)]]; rows and columns are
    ordered m = j, j-1, ..., -j, which makes two_j == 1 return g itself.  The
    formula is the action on homogeneous polynomials of degree 2j, so it is a
    polynomial in (a, b) and their conjugates and is exactly multiplicative.
    """
    a = complex(g[0, 0])
    b = complex(g[0, 1])
    ac = a.conjugate()
    bc = b.conjugate()
    d = two_j + 1
    out = np.zeros((d, d), dtype=np.complex128)
    fact = [math.factorial(t) for t in range(two_j + 1)]
    for r in range(d):          # p' = j + m'
        pp = two_j - r
        qp = r
        for c in range(d):      # p = j + m
            p = two_j - c
            q = c
            pref = math.sqrt(fact[pp] * fact[qp] * fact[p] * fact[q])
            lo = max(0, p + pp - two_j)
            hi = min(p, pp)
            acc = 0.0 + 0.0j
            for k in range(lo, hi + 1):
                term = (a ** k) * ((-bc) ** (p - k)) * (b ** (pp - k)) * (
                    ac ** (k - p - pp + two_j)
                )
                acc += term / (fact[k] * fact[p - k] * fact[pp - k] * fact[k - p - pp + two_j])
            out[r, c] = pref * acc
    return out


# ---------------------------------------------------------------------------
# finite-group irreps in closed form: each family's (n, d, d) grids and generators

_CHAR_ROUND = 6


def _cyclic(size: int, table: np.ndarray):
    """zn:N: the characters k -> w^(h k), w = exp(2 pi i / N), from the roots table."""
    return list(_characters(size, range(size))[:, :, None, None]), [1 % size]


def _dihedral(size: int, table: np.ndarray):
    """dihedral:N, element f N + k = s^f r^k (Serre, *Linear Representations of
    Finite Groups*, 5.3): s^f r^k -> a^f b^k for a, b = +-1 (b = -1 for even N
    only), and for 1 <= h < N/2, s^f r^k -> [[0, 1], [1, 0]]^f diag(w^(h k),
    w^(-h k)), both entries from the roots table."""
    f, k = np.divmod(np.arange(2 * size), size)
    signs = [(a, b) for a in (1, -1) for b in (1, -1)[: 2 - size % 2]]
    grids = [(a**f * b**k).astype(np.complex128)[:, None, None] for a, b in signs]
    phases = _characters(size, [m for h in range(1, (size + 1) // 2) for m in (h, -h)])
    for plus, minus in zip(phases[::2], phases[1::2]):
        grid = np.zeros((2 * size, 2, 2), dtype=np.complex128)
        grid[:size, 0, 0] = grid[size:, 1, 0] = plus
        grid[:size, 1, 1] = grid[size:, 0, 1] = minus
        grids.append(grid)
    return grids, [1, size]


def _symmetric(size: int, table: np.ndarray):
    """sym:N in Young's orthogonal form (G. James and A. Kerber, 1981) on the standard
    tableaux T of each shape, as Yamanouchi words (letter t in row word[t]): with
    r the axial distance from letter i to i + 1, s_i = (i, i + 1) takes T to
    T / r + sqrt(1 - 1/r^2) s_i T, where s_i T swaps the two letters (|r| = 1 if
    they share a row or a column); then u(s_i g) = u(s_i) u(g), breadth first."""
    perms = sorted(permutations(range(size)))      # the element order of ``symmetric_group``
    generators = [perms.index((*range(i), i + 1, i, *range(i + 2, size))) for i in range(size - 1)]
    queue, seen, steps = [0], {0}, []
    for g in queue:             # (h, i, g): h = s_i g, with g reached before h
        for i, s in enumerate(generators):
            if (h := int(table[s, g])) not in seen:
                seen.add(h)
                queue.append(h)
                steps.append((h, i, g))
    words = [()]
    for _ in range(size):
        words = [w + (r,) for w in words for r in range(size) if r == 0 or w.count(r - 1) > w.count(r)]
    shapes: dict[tuple, list] = {}
    for w in words:
        shapes.setdefault(tuple(map(w.count, range(size))), []).append(w)
    grids = []
    for tableaux in shapes.values():
        d, index = len(tableaux), {w: a for a, w in enumerate(tableaux)}
        images = np.zeros((size - 1, d, d))
        for a, w in enumerate(tableaux):
            content = [w[:t].count(row) - row for t, row in enumerate(w)]     # column - row
            for i in range(size - 1):
                r = content[i + 1] - content[i]
                images[i, a, a] = 1 / r
                if abs(r) > 1:
                    images[i, index[w[:i] + (w[i + 1], w[i]) + w[i + 2 :]], a] = math.sqrt(1 - 1 / r**2)
        grid = np.empty((len(table), d, d), dtype=np.complex128)
        grid[0] = np.eye(d)
        for h, i, g in steps:
            grid[h] = images[i] @ grid[g]
        grids.append(grid)
    return grids, generators


def _catalog_order(grids) -> np.ndarray:
    """Indices of ``grids`` in catalog order: trivial first, then by degree, then by the
    characters rounded to ``_CHAR_ROUND`` places, compared (re, im) element by element."""
    chars = np.array([np.einsum("gii->g", grid) for grid in grids])
    rounded = np.round(np.stack([chars.real, chars.imag], axis=-1).reshape(len(grids), -1), _CHAR_ROUND)
    return np.lexsort([*rounded.T[::-1], [grid.shape[1] for grid in grids], ~np.all(chars == 1, axis=1)])


_FINITE_FORMS = {"zn": _cyclic, "dihedral": _dihedral, "sym": _symmetric}


def _finite_irreps(group: GroupModel) -> tuple[list[int], np.ndarray]:
    """Degrees and coefficient store of the distinct unitary irreps of a finite group,
    in catalog order and ``build_catalog``'s layout.  Each irrep must be unitary on
    the family's generators s and satisfy u(s g) = u(s) u(g) for every g, which
    makes it a unitary homomorphism, and the store must be Schur orthogonal."""
    head, (size,) = _parse_group_spec(group.name)
    grids, generators = _FINITE_FORMS[head](size, group.table)
    grids = [grids[k] for k in _catalog_order(grids)]
    for idx, grid in enumerate(grids):
        images = grid[generators]
        residual = np.maximum(
            np.max(np.abs(grid[group.table[generators]] - images[:, None] @ grid)),
            np.max(np.abs(images @ images.conj().transpose(0, 2, 1) - np.eye(grid.shape[1]))),
        )
        if not residual <= tolerance("homomorphism"):
            raise RuntimeError(f"irrep:{idx} of {group.name} has homomorphism residual {residual:.3g}")
    degrees = [grid.shape[1] for grid in grids]
    store = np.empty((sum(np.square(degrees)), group.n_nodes), dtype=np.complex128)   # rows in C order
    np.concatenate([grid.reshape(group.n_nodes, -1).T for grid in grids], out=store)
    schur = _kernels.gram_defect(store, group.weights, np.repeat(np.sqrt(degrees), np.square(degrees)))
    if not schur <= tolerance("gram", "finite"):
        raise RuntimeError(f"the irreps of {group.name} have Schur orthogonality defect {schur:.3g}")
    return degrees, store


# ---------------------------------------------------------------------------
# circle characters from one table of roots of unity

#: Entries of the reused index slab through which the circle's store rows are
#: gathered and checked; a slab holds at least one whole row.
_CIRCLE_SLAB_ENTRIES = 1 << 16
#: Unit roundoff of float64.
_U = np.finfo(np.float64).eps / 2
#: Bound, in units of ``_U``, on |roots[j] - exp(2 pi i j / n)|: theta_j =
#: 2 pi j / n carries three roundings of a value below 2 pi (6 pi u), and exp
#: at most one ulp per component (sqrt(2) u).
_ROOT_ERROR = 24
#: Relative l2 error of an FFT of length n, in units of ``_U`` log2(n).
_FFT_ERROR = 8
#: Rounding of a weighted sum of n unit-modulus products, in units of
#: ``_U`` sqrt(n) ||w||_1: the probabilistic scale of a dot product's error
#: (Higham and Mary, SIAM J. Sci. Comput. 41 (2019)), which the dense Gram
#: kernel meets; its worst case, n u ||w||_1, would be 4.5e-13 at n = 4096.
_SUM_ERROR = 4


def _circle_table(n: int, ms):
    """The one table of n-th roots of unity and the index rule into it.

    Returns ``roots``, exp(i theta_j) at the nodes theta_j = 2 pi j / n of
    ``circle_group(n)``, computed as it computes them, and an iterator of
    ``(rows, index)`` over slabs of the frequencies ``ms`` with
    index[r, k] = (m k) mod n for m = ms[rows][r]: character m takes the
    value roots[index[r, k]] at node k, since m theta_k = 2 pi (m k mod n) / n
    modulo 2 pi.  Every slab is a view of one reused index buffer of at most
    ``_CIRCLE_SLAB_ENTRIES`` entries (one row, if a row is longer), valid until
    the next slab is yielded.
    """
    ms = np.asarray(ms, dtype=np.int64)
    step = max(1, _CIRCLE_SLAB_ENTRIES // n)
    nodes = np.arange(n, dtype=np.int64)

    def slabs():
        buf = np.empty((min(step, len(ms)), n), dtype=np.int64)
        for start in range(0, len(ms), step):
            index = buf[: len(ms[start : start + step])]
            np.multiply.outer(ms[start : start + step], nodes, out=index)
            np.remainder(index, n, out=index)
            yield slice(start, start + len(index)), index

    return np.exp(1j * (TWO_PI * nodes / n)), slabs()


def _characters(n: int, ms) -> np.ndarray:
    """(len(ms), n) rows k -> exp(2 pi i m k / n), one per m in ``ms``, gathered
    from the table of n-th roots of unity (``_circle_table``)."""
    roots, slabs = _circle_table(n, ms)
    out = np.empty((len(ms), n), dtype=np.complex128)
    for rows, index in slabs:
        np.take(roots, index, out=out[rows])
    return out


def gram_defect_bound(cat: RepCatalog, family: OrthonormalFamily) -> float:
    """An upper bound on max |G - I| over the Gram matrix G of a family of ``cat``.

    Finite groups and SU(2): the streamed dense defect ``family.gram_defect()``
    itself.  Circle, in O(M n + n log n) for M members on n nodes: the Gram
    matrix of exact characters is Toeplitz, G[a, b] = w^(m_b - m_a) for the
    DFT w^ of the weights, and every label has |m| <= (n - 1) / 2, so each
    difference is a nonzero index of w^ mod n and the defect is at most the
    larger of |w^(0) - 1| and |w^(j)| over the whole spectrum, from one FFT.
    The members are those characters up to rho, the largest distance of a
    stored member entry from its table value (``_circle_table``), which adds
    ||w||_1 (2 rho + rho^2).  A rounding term covers the table's distance from
    the exact roots of unity, the FFT and the dense kernel's own sums, so
    the bound is never below ``family.gram_defect()``.  A corrupted weight
    moves w^, and a corrupted member entry rho.
    """
    group = cat.group
    require_same_group(family.group, group)
    if group.kind != "circle":
        return family.gram_defect()
    n, w = group.n_nodes, group.weights
    frequency = {lab.key: lab.payload for lab in cat.labels}
    ms = np.array([frequency[b.label] for b in family.blocks], dtype=np.int64)
    roots, slabs = _circle_table(n, ms)
    rho = 0.0
    for rows, index in slabs:
        gap = family.members[rows] * family.scale[rows, None]
        gap -= roots[index]
        rho = np.maximum(rho, np.max(np.abs(gap)))     # carries a NaN through
    spectrum = np.fft.fft(w)
    spectrum[0] -= 1.0
    toeplitz = np.max(np.abs(spectrum))
    l1, l2 = np.sum(np.abs(w)), np.linalg.norm(w)
    rounding = _U * (
        2 * _ROOT_ERROR * l1
        + _FFT_ERROR * max(math.log2(n), 1.0) * math.sqrt(n) * l2
        + _SUM_ERROR * math.sqrt(n) * l1
    )
    return float(toeplitz + l1 * (2 * rho + rho * rho) + rounding)


# ---------------------------------------------------------------------------
# catalog construction


def _bound_in_steps(truncation, kind: str, name: str, capacity: float | None) -> int | None:
    """The magnitude bound of group ``name`` as a count of magnitude steps
    (circle M, SU(2) 2*jmax); None for a finite group, which ignores it but
    still needs a finite number or null.  A bound between two steps is
    rejected rather than rounded: every label has magnitude <= truncation.
    """
    if truncation is not None and not is_finite(truncation):
        raise ConfigError(f"truncation for {name} must be a finite number or null, got {truncation!r}")
    if kind == "finite":
        return None
    per_unit = 2 if kind == "su2" else 1     # spins come in halves, frequencies in integers
    bound = capacity if truncation is None else truncation
    steps = steps_of(bound, per_unit)
    if steps is None:
        raise ConfigError(
            f"truncation for {name} must be a nonnegative multiple of "
            f"{1 / per_unit:g}, got {truncation!r}"
        )
    if bound > capacity:
        raise ConfigError(f"truncation {bound} exceeds quadrature capacity {capacity:g} of {name}")
    return steps


def build_catalog(group: GroupModel, truncation: float | None = None) -> RepCatalog:
    """Enumerate irreps with magnitude <= truncation (complete for finite groups).

    ``truncation`` is the maximum magnitude (circle frequency bound M, an
    integer; SU(2) spin bound jmax, a half-integer); it defaults to, and may
    not exceed, the group's quadrature capacity.  Finite groups always get
    their complete dual and ignore ``truncation``.
    """
    n = group.n_nodes
    steps = _bound_in_steps(truncation, group.kind, group.name, group.capacity)
    if group.kind == "finite":
        degrees, store = _finite_irreps(group)
        labels = [
            IrrepLabel(kind="finite", payload=idx, degree=d, magnitude=float(idx))
            for idx, d in enumerate(degrees)
        ]
    elif group.kind == "circle":
        ms = sorted(range(-steps, steps + 1), key=lambda m: (abs(m), m))
        labels = [
            IrrepLabel(kind="circle", payload=m, degree=1, magnitude=float(abs(m))) for m in ms
        ]
        store = _characters(n, ms)   # one row per label, in label order
    elif group.kind == "su2":
        labels = [
            IrrepLabel(kind="su2", payload=two_j / 2.0, degree=two_j + 1, magnitude=two_j / 2.0)
            for two_j in range(steps + 1)
        ]
        alphas, betas, gammas = group.eulers.T
        beta_nodes, beta_index = np.unique(betas, return_inverse=True)
        blocks = _peter_weyl_layout(labels)
        store = np.empty((sum(b.size**2 for b in blocks), n), dtype=np.complex128)
        for lab, b in zip(labels, blocks):
            d, rows = lab.degree, store[b.rows]
            small = np.array(
                [su2_irrep_matrix(d - 1, su2_matrix_from_euler(0.0, be, 0.0)) for be in beta_nodes]
            )
            m = lab.payload - np.arange(d)
            # gather d^j(beta) to every node's store column ("clip" writes straight
            # into the rows, with no buffer), then apply the torus phases in
            # place through the (n, d, d) view of those rows
            np.take(small.reshape(-1, d * d).T, beta_index, axis=1, out=rows, mode="clip")
            grid = rows.T.reshape(n, d, d)
            grid *= np.exp(-1j * np.multiply.outer(alphas, m))[:, :, None]
            grid *= np.exp(-1j * np.multiply.outer(gammas, m))[:, None, :]
    else:
        raise ValueError(f"unsupported group kind {group.kind!r}")
    return RepCatalog(group=group, labels=tuple(labels), store=store)


def store_bytes(spec: str, truncation: float | None = None) -> int:
    """Bytes of the coefficient store that ``build_catalog(make_group(spec),
    truncation)`` allocates, computed from the spec alone: sum d^2 rows of
    n_nodes complex128 values.

    A finite group has sum d^2 = |G| rows, the circle one row per frequency
    |m| <= M, and SU(2) (2j+1)^2 rows per spin j <= jmax.  A spec or a
    truncation that ``build_catalog`` would reject raises the same ConfigError.
    """
    kind, n_nodes, capacity = grid_shape(spec)
    steps = _bound_in_steps(truncation, kind, spec, capacity)
    if kind == "finite":
        rows = n_nodes
    elif kind == "circle":
        rows = 2 * steps + 1
    else:
        d = steps + 1                          # degree of the top spin
        rows = d * (d + 1) * (2 * d + 1) // 6  # sum of d'^2 for d' <= d
    return rows * n_nodes * np.dtype(np.complex128).itemsize


def _peter_weyl_layout(labels) -> tuple[FamilyBlock, ...]:
    """One d x d block per label, keyed by label, in catalog order."""
    return block_layout((lab.key, lab.degree) for lab in labels)
