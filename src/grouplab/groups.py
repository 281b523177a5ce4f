"""Concrete compact groups with exact or quadrature-based Haar integration.

Three families are supported:

* finite groups (cyclic ``zn:N``, dihedral ``dihedral:N``, symmetric
  ``sym:N`` for N in {3, 4}) -- elements are indices with the identity at 0,
  multiplication is a table that one array formula per family builds, Haar
  measure is uniform and integration is exact;
* the circle ``circle:N`` -- N uniform angle nodes, trapezoid-free uniform
  weights; exact for trigonometric polynomials of degree < N;
* SU(2) ``su2:j=J[,quad=Q]`` -- a product Euler-angle grid, uniform in the
  two torus angles and Gauss-Legendre in cos(beta), exact for matrix
  coefficients up to the stored spin capacity.

Weights are always stored explicitly and sum to 1, so every L2 inner product
downstream is a plain weighted dot product over the node grid.  ``make_group``
reads these spec strings with the grammar of ``spec.py``; a size or spin
outside a constructor's range is a ``ConfigError``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .spec import ConfigError, integer, parse_params, parse_value, real, split_spec, steps_of

TWO_PI = 2.0 * math.pi


@dataclass(eq=False)
class GroupModel:
    """A compact group discretized on a fixed quadrature grid.

    The per-kind payload fields are mutually exclusive: finite groups carry a
    multiplication ``table``, the circle carries ``thetas``, SU(2) carries
    each node's z-y-z Euler angles ``eulers``, from which ``node_element``
    makes the node's 2x2 matrix with ``su2_matrix_from_euler``; no node
    matrix is stored.  ``capacity`` is the largest irrep magnitude the
    quadrature integrates exactly (None for finite groups, whose integration
    is exact outright).
    """

    kind: str                     # "finite" | "circle" | "su2"
    name: str                     # canonical spec string, e.g. "zn:12"
    weights: np.ndarray           # (n_nodes,) normalized Haar weights
    identity: object
    table: np.ndarray | None = None           # finite: (n, n) index table
    thetas: np.ndarray | None = None          # circle: (n_nodes,) angles
    eulers: np.ndarray | None = None          # su2: (n_nodes, 3)
    capacity: float | None = None

    @property
    def n_nodes(self) -> int:
        return len(self.weights)

    @property
    def order(self) -> int:
        """Group order; only meaningful for finite groups."""
        if self.kind != "finite":
            raise ValueError(f"{self.name} is not a finite group")
        return self.n_nodes

    def node_element(self, k: int):
        """The group element sitting at quadrature node k."""
        if self.kind == "finite":
            return int(k)
        if self.kind == "circle":
            return float(self.thetas[k])
        return su2_matrix_from_euler(*self.eulers[k])

    def multiply(self, a, b):
        """Group product a*b in the element encoding of this group kind."""
        if self.kind == "finite":
            return int(self.table[a, b])
        if self.kind == "circle":
            return (a + b) % TWO_PI
        return a @ b


def same_group(g1: GroupModel, g2: GroupModel) -> bool:
    return g1 is g2 or (g1.kind == g2.kind and g1.name == g2.name and g1.n_nodes == g2.n_nodes)


def require_same_group(g1: GroupModel, g2: GroupModel) -> None:
    if not same_group(g1, g2):
        raise ValueError(f"group mismatch: {g1.name} vs {g2.name}")


# ---------------------------------------------------------------------------
# finite groups


def _finite_model(name: str, table: np.ndarray) -> GroupModel:
    """The finite group of multiplication ``table``, whose element 0 is the identity."""
    n = len(table)
    return GroupModel(kind="finite", name=name, weights=np.full(n, 1.0 / n), identity=0, table=table)


def cyclic_group(n: int) -> GroupModel:
    _sized_nodes("zn", n)
    r = np.arange(n, dtype=np.int64)
    table = r[:, None] + r
    table %= n
    return _finite_model(f"zn:{n}", table)


def dihedral_group(n: int) -> GroupModel:
    """Dihedral group of order 2n; element f*n + k is s^f r^k, so 0 is the identity."""
    _sized_nodes("dihedral", n)
    f, k = np.divmod(np.arange(2 * n, dtype=np.int64), n)
    # s^f1 r^k1 * s^f2 r^k2 = s^(f1+f2) r^((-1)^f2 k1 + k2), built in place
    table = (1 - 2 * f) * k[:, None]
    table += k
    table %= n
    table[:n, n:] += n      # the flips differ in the off-diagonal quarters
    table[n:, :n] += n
    return _finite_model(f"dihedral:{n}", table)


def symmetric_group(n: int) -> GroupModel:
    """Symmetric group on n letters, n in {3, 4}; element i is the i-th permutation
    tuple in lexicographic order, so 0 is the identity."""
    _sized_nodes("sym", n)
    perms = np.array(sorted(permutations(range(n))), dtype=np.int64)
    code = n ** np.arange(n - 1, -1, -1, dtype=np.int64)   # base-n codes sort as the tuples do
    # perms[:, perms][i, j] is perms[i] o perms[j]: (p*q)(x) = p(q(x))
    table = np.searchsorted(perms @ code, perms[:, perms] @ code)
    return _finite_model(f"sym:{n}", table)


# ---------------------------------------------------------------------------
# circle


def circle_group(n_nodes: int) -> GroupModel:
    _sized_nodes("circle", n_nodes)
    thetas = TWO_PI * np.arange(n_nodes) / n_nodes
    return GroupModel(
        kind="circle",
        name=f"circle:{n_nodes}",
        weights=np.full(n_nodes, 1.0 / n_nodes),
        identity=0.0,
        thetas=thetas,
        capacity=_circle_capacity(n_nodes),
    )


def _circle_capacity(n_nodes: int) -> float:
    """The largest frequency |m| that N uniform nodes integrate exactly."""
    return float((n_nodes - 1) // 2)


# ---------------------------------------------------------------------------
# SU(2)


def su2_matrix_from_euler(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """SU(2) element for z-y-z Euler angles; rows/cols ordered m = +1/2, -1/2."""
    c = math.cos(beta / 2.0)
    s = math.sin(beta / 2.0)
    a = c * np.exp(-0.5j * (alpha + gamma))
    b = -s * np.exp(-0.5j * (alpha - gamma))
    return np.array([[a, b], [-np.conj(b), np.conj(a)]], dtype=np.complex128)


def su2_group(jmax: float, quad: int | None = None) -> GroupModel:
    """SU(2) on an Euler product grid exact for spins up to ``jmax``.

    The torus angles use uniform grids (alpha over [0, 2pi), gamma over
    [0, 4pi) to cover half-integer frequencies); cos(beta) uses Gauss-Legendre
    nodes.  Grid sizes default to the smallest counts that integrate all
    matrix-coefficient products up to jmax exactly: 2*jmax+1 Gauss nodes and
    4*jmax+1 uniform nodes per torus angle.
    """
    n_beta, n_torus = _su2_grid_sizes(jmax, quad)
    x, glw = np.polynomial.legendre.leggauss(n_beta)
    betas = np.arccos(x)
    alphas = TWO_PI * np.arange(n_torus) / n_torus
    gammas = 2.0 * TWO_PI * np.arange(n_torus) / n_torus

    # nodes run alpha-major, then beta, then gamma
    grid = np.broadcast_arrays(alphas[:, None, None], betas[None, :, None], gammas[None, None, :])
    eulers = np.stack(grid, axis=-1).reshape(-1, 3)
    weights = np.broadcast_to(
        glw[None, :, None] / (2.0 * n_torus * n_torus), (n_torus, n_beta, n_torus)
    ).reshape(-1)
    return GroupModel(
        kind="su2",
        name=f"su2:j={_fmt_spin(jmax)},quad={n_beta}",
        weights=weights,
        identity=np.eye(2, dtype=np.complex128),
        eulers=eulers,
        capacity=float(jmax),
    )


def _su2_grid_sizes(jmax: float, quad: int | None) -> tuple[int, int]:
    """(Gauss nodes in cos(beta), uniform nodes per torus angle) of the SU(2)
    grid for ``jmax``; a spin that is not a nonnegative half-integer, or a
    quadrature order below 2*jmax + 1, is a ConfigError."""
    two_j = steps_of(jmax, 2)
    if two_j is None:
        raise ConfigError(f"su2 jmax must be a nonnegative half-integer, got {jmax}")
    n_beta = quad if quad is not None else two_j + 1
    if n_beta < two_j + 1:
        raise ConfigError(
            f"su2 quadrature order {n_beta} too small for jmax={jmax}; need >= {two_j + 1}"
        )
    return n_beta, max(2 * n_beta - 1, 2 * two_j + 1)


def _fmt_spin(j: float) -> str:
    return str(int(j)) if float(j).is_integer() else str(j)


# ---------------------------------------------------------------------------
# spec parsing and integration


#: Per spec head that takes one integer size N: whether it accepts N, what it
#: needs, the node count of its model and the constructor that builds it.
_SIZED = {
    "zn": (lambda n: n >= 1, "cyclic group needs n >= 1", lambda n: n, cyclic_group),
    "dihedral": (lambda n: n >= 3, "dihedral group needs n >= 3", lambda n: 2 * n, dihedral_group),
    "sym": (lambda n: n in (3, 4), "symmetric group supported for n in {3, 4}", math.factorial, symmetric_group),
    "circle": (lambda n: n >= 1, "circle needs at least one node", lambda n: n, circle_group),
}


def _sized_nodes(head: str, n: int) -> int:
    """The node count of the ``head:N`` model; an N the head rejects is a ConfigError."""
    accepts, needs, nodes, _ = _SIZED[head]
    if not accepts(n):
        raise ConfigError(f"{needs}, got {n}")
    return nodes(n)


def _parse_group_spec(spec: str) -> tuple[str, tuple]:
    """``(head, constructor arguments)`` of a group spec."""
    head, rest = split_spec(spec)
    if head in _SIZED:
        return head, (parse_value(rest, integer, f"{head} size"),)
    if head != "su2":
        raise ConfigError(f"unsupported group spec {spec!r}")
    params = parse_params(rest, "su2", j=real, quad=integer)
    if "j" not in params:
        raise ConfigError("su2 spec needs j=<spin>")
    return head, (params["j"], params.get("quad"))


def make_group(spec: str) -> GroupModel:
    """Build a group from a spec string.

    Accepted forms: ``zn:N``, ``dihedral:N``, ``sym:N``, ``circle:N``,
    ``su2:j=J[,quad=Q]``; ``spec.py`` holds the grammar.
    """
    head, args = _parse_group_spec(spec)
    return su2_group(*args) if head == "su2" else _SIZED[head][-1](*args)


def grid_shape(spec: str) -> tuple[str, int, float | None]:
    """``(kind, n_nodes, capacity)`` of the model ``make_group(spec)`` builds,
    read from the spec alone, so a caller can size a run before it allocates.

    The spec is parsed, and its size or spin checked, by the rules that
    ``make_group`` applies, so a spec it rejects raises here too.
    """
    head, args = _parse_group_spec(spec)
    if head == "su2":
        n_beta, n_torus = _su2_grid_sizes(*args)
        return "su2", n_torus * n_torus * n_beta, float(args[0])
    n_nodes = _sized_nodes(head, *args)
    if head == "circle":
        return "circle", n_nodes, _circle_capacity(n_nodes)
    return "finite", n_nodes, None


def haar_integrate(group: GroupModel, phi) -> complex:
    """Normalized Haar integral of ``phi``.

    ``phi`` is either a callable evaluated at every quadrature node element or
    an array of values already sampled on the grid.
    """
    if callable(phi):
        values = np.array(
            [phi(group.node_element(k)) for k in range(group.n_nodes)], dtype=np.complex128
        )
    else:
        values = np.asarray(phi, dtype=np.complex128)
        if values.shape != (group.n_nodes,):
            raise ValueError(
                f"expected {group.n_nodes} sampled values, got shape {values.shape}"
            )
    return complex(np.dot(group.weights, values))
