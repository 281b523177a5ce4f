"""Catalog of irreducible unitary representations up to a truncation.

Exposes the dual object of a group model as an ordered list of labels with
degrees d and an ordering magnitude |.|, plus the matrix coefficients
u_ij(g) as functions on the group:

* finite groups -- irreps are constructed, not tabulated (Dixon's method): a
  random Hermitian matrix is averaged over the left regular representation by
  gathers through one table of g^-1 x, and the orthonormal basis B of each
  eigenvalue cluster gives its grid B^H L_g B in one batched product.  One scan
  checks each cluster for irreducibility and keeps the first grid of each
  character class; the classes are written once into the store, which is checked
  against sum(d^2) = |G|, the multiplicities d and Schur orthogonality;
* circle -- characters exp(i m theta) for |m| <= M.  On the uniform grid
  theta_k = 2 pi k / n every value of a character is an n-th root of unity, so
  store row m is gathered from one table of them, ``roots[(m k) mod n]``, in
  slabs of rows through one small index buffer.  ``gram_defect_bound`` reads
  the same table and index rule (``_circle_table``): the characters' Gram
  matrix is Toeplitz, so one FFT of the weights and one pass over the members
  bound its defect in O(M n + n log n), where the dense check costs O(M^2 n);
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

``gram_defect_bound`` is the one orthonormality check of an analysis family,
per group kind: the streamed dense defect for finite groups and SU(2), the
Toeplitz bound for the circle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .groups import GroupModel, _fmt_spin, grid_shape, require_same_group, su2_matrix_from_euler
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

    def coefficient_matrix(self, label: IrrepLabel, g) -> np.ndarray:
        """u(g) for an arbitrary group element (not necessarily a grid node)."""
        if label.key not in self.grids:
            raise KeyError(f"label {label.key!r} not in catalog")
        if self.group.kind == "finite":
            return self.grids[label.key][int(g)]
        if self.group.kind == "circle":
            return np.array([[np.exp(1j * label.payload * g)]], dtype=np.complex128)
        return su2_irrep_matrix(int(round(2 * label.payload)), np.asarray(g))


def matrix_coefficient(cat: RepCatalog, label: IrrepLabel, i: int, j: int, g) -> complex:
    """Entry (i, j) of u(g), 0-based; raises IndexError outside the degree."""
    d = label.degree
    if not (0 <= i < d and 0 <= j < d):
        raise IndexError(f"coefficient index ({i}, {j}) out of range for degree {d}")
    return complex(cat.coefficient_matrix(label, g)[i, j])


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
# finite-group irreps from the regular representation

_FINITE_SEED = 0x5EED
_CHAR_ROUND = 6
#: Random commutant draws before the decomposition of a regular representation fails.
_FINITE_TRIES = 12


def _averaged_commutant(left: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """mean_g L_g H L_g^T for a random Hermitian H, where row g of ``left``
    lists g^-1 x for every x: (L_g H L_g^T)[x, y] = H[g^-1 x, g^-1 y]."""
    n = left.shape[0]
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = x + x.conj().T
    t = np.zeros((n, n), dtype=np.complex128)
    for inv in left:
        t += h[np.ix_(inv, inv)]
    return t / n


def _cluster_eigs(vals: np.ndarray, tol: float) -> list[np.ndarray]:
    """Indices of ``vals`` by ascending value, split before each one ``tol`` or more above the last."""
    order = np.argsort(vals)
    return np.split(order, np.flatnonzero(np.diff(vals[order]) >= tol) + 1)


def _finite_irreps(table: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Degrees and coefficient store of the distinct unitary irreps of a finite group:
    one per equivalence class, in catalog order and ``build_catalog``'s layout.
    """
    n = table.shape[0]
    left = np.argsort(table, axis=1)   # row g inverts row g of the table: g^-1 x
    rng = np.random.default_rng(_FINITE_SEED + 977 * n)
    char_tol = tolerance("irrep_character")

    # deterministic order: trivial first, then by degree and character key
    def sort_key(entry):
        grid, chars, _ = entry
        d = grid.shape[1]
        rounded = tuple((round(c.real, _CHAR_ROUND), round(c.imag, _CHAR_ROUND)) for c in chars)
        trivial = d == 1 and np.max(np.abs(chars - 1.0)) < char_tol
        return (0 if trivial else 1, d, rounded)

    for _ in range(_FINITE_TRIES):
        vals, vecs = np.linalg.eigh(_averaged_commutant(left, rng))
        spread = max(float(vals[-1] - vals[0]), 1.0)
        classes = []    # [grid, characters, copies] per class, with its first copy's grid
        for cluster in _cluster_eigs(vals, tolerance("irrep_cluster") * spread):
            basis, _ = np.linalg.qr(vecs[:, cluster])
            grid = basis.conj().T @ basis[left]    # B^H L_g B, as (L_g B)[x] = B[g^-1 x]
            chars = np.einsum("gii->g", grid)
            # irreducibility: mean |character|^2 == 1; a reducible cluster abandons the draw
            if abs(np.mean(np.abs(chars) ** 2) - 1.0) > char_tol:
                classes = None
                break
            # equivalent copies share a character
            copy_of = next((c for c in classes if np.max(np.abs(c[1] - chars)) < char_tol), None)
            if copy_of is None:
                classes.append([grid, chars, 1])
            else:
                copy_of[2] += 1
        if classes is None:
            continue
        classes.sort(key=sort_key)
        degrees = [grid.shape[1] for grid, _, _ in classes]
        if sum(d * d for d in degrees) != n or degrees != [copies for _, _, copies in classes]:
            continue
        store = np.empty((n, n), dtype=np.complex128)
        np.concatenate([grid.reshape(n, -1).T for grid, _, _ in classes], out=store)
        # Schur orthogonality: {sqrt(d) u_ij} is orthonormal within the Gram tolerance
        scale = np.repeat(np.sqrt(degrees), [d * d for d in degrees])
        if _kernels.gram_defect(store, np.full(n, 1.0 / n), scale) <= tolerance("gram", "finite"):
            return degrees, store
    raise RuntimeError(f"failed to decompose the regular representation in {_FINITE_TRIES} tries")


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


def _circle_table(group: GroupModel, ms):
    """The circle's one table of roots of unity and the index rule into it.

    Returns ``roots``, exp(i theta_j) at the n nodes theta_j = 2 pi j / n,
    and an iterator of ``(rows, index)`` over slabs of the frequencies ``ms``
    with index[r, k] = (m k) mod n for m = ms[rows][r]: character m takes the
    value roots[index[r, k]] at node k, since m theta_k = 2 pi (m k mod n) / n
    modulo 2 pi.  Every slab is a view of one reused index buffer of at most
    ``_CIRCLE_SLAB_ENTRIES`` entries (one row, if a row is longer), valid until
    the next slab is yielded.
    """
    n = group.n_nodes
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

    return np.exp(1j * group.thetas), slabs()


def _differences(ms: np.ndarray) -> np.ndarray:
    """The positive differences m' - m over pairs of the distinct integers ``ms``,
    ascending: the nonzero lags of their indicator's autocorrelation, from two
    real FFTs of length 2L + 1 for the span L = max - min."""
    if len(ms) < 2:
        return np.zeros(0, dtype=np.int64)
    span = int(ms.max() - ms.min())
    indicator = np.zeros(span + 1)
    indicator[ms - ms.min()] = 1.0
    spectrum = np.fft.rfft(indicator, 2 * span + 1)
    pairs = np.fft.irfft(spectrum * spectrum.conj(), 2 * span + 1)[1 : span + 1]
    return np.flatnonzero(pairs > 0.5) + 1     # pair counts are integers


def gram_defect_bound(cat: RepCatalog, family: OrthonormalFamily) -> float:
    """An upper bound on max |G - I| over the Gram matrix G of a family of ``cat``.

    Finite groups and SU(2): the streamed dense defect ``family.gram_defect()``
    itself.  Circle, in O(M n + n log n) for M members on n nodes: the Gram
    matrix of exact characters is Toeplitz, G[a, b] = w^(m_b - m_a) for the
    DFT w^ of the weights, so its defect is the larger of |w^(0) - 1| and
    |w^(j)| over the differences j of the family's frequencies, from one FFT.
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
    roots, slabs = _circle_table(group, ms)
    rho = 0.0
    for rows, index in slabs:
        gap = family.members[rows] * family.scale[rows, None]
        gap -= roots[index]
        rho = np.maximum(rho, np.max(np.abs(gap)))     # carries a NaN through
    spectrum = np.fft.fft(w)
    lags = _differences(ms)
    toeplitz = np.max(np.abs(np.concatenate(
        [[spectrum[0] - 1.0], spectrum[lags % n], spectrum[-lags % n]]
    )))
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
        degrees, store = _finite_irreps(group.table)
        labels = [
            IrrepLabel(kind="finite", payload=idx, degree=d, magnitude=float(idx))
            for idx, d in enumerate(degrees)
        ]
    elif group.kind == "circle":
        ms = sorted(range(-steps, steps + 1), key=lambda m: (abs(m), m))
        labels = [
            IrrepLabel(kind="circle", payload=m, degree=1, magnitude=float(abs(m))) for m in ms
        ]
        _, store = _empty_store(labels, n)   # one row per label, in label order
        roots, slabs = _circle_table(group, ms)
        for rows, index in slabs:
            np.take(roots, index, out=store[rows])
    elif group.kind == "su2":
        labels = [
            IrrepLabel(kind="su2", payload=two_j / 2.0, degree=two_j + 1, magnitude=two_j / 2.0)
            for two_j in range(steps + 1)
        ]
        alphas, betas, gammas = group.eulers.T
        beta_nodes, beta_index = np.unique(betas, return_inverse=True)
        blocks, store = _empty_store(labels, n)
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


def _empty_store(labels, n_nodes: int) -> tuple[tuple[FamilyBlock, ...], np.ndarray]:
    """The Peter-Weyl layout of ``labels`` and an uninitialised store it describes."""
    blocks = _peter_weyl_layout(labels)
    return blocks, np.empty((sum(b.size**2 for b in blocks), n_nodes), np.complex128)


def _peter_weyl_layout(labels) -> tuple[FamilyBlock, ...]:
    """One d x d block per label, keyed by label, in catalog order."""
    return block_layout((lab.key, lab.degree) for lab in labels)
