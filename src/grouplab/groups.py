"""Concrete compact groups with exact or quadrature-based Haar integration.

Three families are supported:

* finite groups (cyclic ``zn:N``, dihedral ``dihedral:N``, symmetric
  ``sym:N`` for N in {3, 4}) -- elements are indices into an explicit element
  list, multiplication is a precomputed table, Haar measure is uniform and
  integration is exact;
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

from .spec import ConfigError, parse_params, parse_value, split_spec

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


def _finite_model(name: str, elements: list, compose, identity_elem) -> GroupModel:
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    table = np.empty((n, n), dtype=np.int64)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            table[i, j] = index[compose(a, b)]
    return GroupModel(
        kind="finite",
        name=name,
        weights=np.full(n, 1.0 / n),
        identity=index[identity_elem],
        table=table,
    )


def cyclic_group(n: int) -> GroupModel:
    if n < 1:
        raise ConfigError(f"cyclic group needs n >= 1, got {n}")
    return _finite_model(f"zn:{n}", list(range(n)), lambda a, b: (a + b) % n, 0)


def dihedral_group(n: int) -> GroupModel:
    """Dihedral group of order 2n; elements are (flip, rotation) pairs."""
    if n < 3:
        raise ConfigError(f"dihedral group needs n >= 3, got {n}")
    elements = [(f, r) for f in (0, 1) for r in range(n)]

    def compose(x, y):
        # s^f1 r^k1 * s^f2 r^k2 = s^(f1+f2) r^((-1)^f2 k1 + k2)
        f1, k1 = x
        f2, k2 = y
        sign = -1 if f2 else 1
        return ((f1 + f2) % 2, (sign * k1 + k2) % n)

    return _finite_model(f"dihedral:{n}", elements, compose, (0, 0))


def symmetric_group(n: int) -> GroupModel:
    """Symmetric group on n letters, n in {3, 4}; elements are permutation tuples."""
    if n not in (3, 4):
        raise ConfigError(f"symmetric group supported for n in {{3, 4}}, got {n}")
    elements = sorted(permutations(range(n)))

    def compose(p, q):
        # (p*q)(x) = p(q(x))
        return tuple(p[q[x]] for x in range(n))

    return _finite_model(f"sym:{n}", elements, compose, tuple(range(n)))


# ---------------------------------------------------------------------------
# circle


def circle_group(n_nodes: int) -> GroupModel:
    if n_nodes < 1:
        raise ConfigError(f"circle needs at least one node, got {n_nodes}")
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
    two_j = int(round(2 * jmax)) if math.isfinite(2 * jmax) else -1
    if two_j < 0 or abs(2 * jmax - two_j) > 1e-12:
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


#: Spec heads that take one integer size N, and the model each one builds.
_SIZED = {"zn": cyclic_group, "dihedral": dihedral_group, "sym": symmetric_group, "circle": circle_group}


def _parse_group_spec(spec: str) -> tuple[str, tuple]:
    """``(head, constructor arguments)`` of a group spec."""
    head, rest = split_spec(spec)
    if head in _SIZED:
        return head, (parse_value(rest, int, f"{head} size"),)
    if head != "su2":
        raise ConfigError(f"unsupported group spec {spec!r}")
    params = parse_params(rest, "su2", j=float, quad=int)
    if "j" not in params:
        raise ConfigError("su2 spec needs j=<spin>")
    return head, (params["j"], params.get("quad"))


def make_group(spec: str) -> GroupModel:
    """Build a group from a spec string.

    Accepted forms: ``zn:N``, ``dihedral:N``, ``sym:N``, ``circle:N``,
    ``su2:j=J[,quad=Q]``; ``spec.py`` holds the grammar.
    """
    head, args = _parse_group_spec(spec)
    return su2_group(*args) if head == "su2" else _SIZED[head](*args)


def grid_shape(spec: str) -> tuple[str, int, float | None]:
    """``(kind, n_nodes, capacity)`` of the model ``make_group(spec)`` builds,
    read from the spec alone, so a caller can size a run before it allocates.

    The spec is parsed and an SU(2) spin checked as ``make_group`` does; for
    a size N that its constructor rejects the node count is meaningless
    (``make_group`` raises).
    """
    head, args = _parse_group_spec(spec)
    if head == "su2":
        n_beta, n_torus = _su2_grid_sizes(*args)
        return "su2", n_torus * n_torus * n_beta, float(args[0])
    (n,) = args
    if head == "circle":
        return "circle", n, _circle_capacity(n)
    order = {"zn": n, "dihedral": 2 * n, "sym": math.factorial(n) if n in (3, 4) else 0}
    return "finite", order[head], None


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
