"""Desk-scale lift of orthonormal families from K to a truncated K*A*N model.

The compact factor K is a circle model; the A and N factors are truncated
real intervals with uniform grids and a joint product measure.  A lift
profile f on the AN grid satisfies

  (i)  f = 0 at the node representing the AN identity (the grid node nearest
       the coordinate origin), enforced exactly by an additive shift;
  (ii) the integral of exp(2 Re f) against the AN measure equals 1, enforced
       by rescaling the product weights.

Lifted members chi(k, an) = exp(f(an)) * xi(k) then restrict to xi on K
bitwise and inherit the Gram matrix of xi.  Each member is a rank-one
product, so a ``LiftedFamily`` keeps its two factors, the family xi itself
(no copy) and the AN envelope exp(f), and never the members x (n_K * n_AN)
product matrix: memory is O(members * n_K + n_AN).

One number carries the AN factor into every check: the AN mass
``IwasawaModel.an_mass`` = sum_an w_an exp(2 Re f(an)), 1 up to rounding
once (ii) holds.  Condition (ii)'s residual is |mass - 1|, the lifted Gram
matrix is Gram(xi) * mass, and the reproduction residuals below scale by it.

The pointwise reproduction identity that would force exp(f) == 1 everywhere
is not enforced; ``reproduction_residual`` measures it for separable
functions instead.

The K factor spec and the profile spec (``uniform``, ``gauss:sigma=S``,
``table:PATH``) are read with the grammar of ``spec.py``, and every bad input
to the model (range, node count, K factor, profile, table) is a
``ConfigError``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import RepCatalog
from .groups import GroupModel, make_group, same_group
from .hilbert import ExpansionWeights, L2Function, OrthonormalFamily, TestSet
from .semicomplete import SemicompletenessReport, semicompleteness_defect
from .spec import ConfigError, parse_params, real, split_spec


@dataclass(eq=False)
class IwasawaModel:
    """Circle K factor plus truncated AN product grid and lift profile."""

    K: GroupModel
    a_nodes: np.ndarray
    n_nodes: np.ndarray
    an_weights: np.ndarray       # (nA * nN,) rescaled so condition (ii) holds
    profile: np.ndarray          # (nA * nN,) complex, exactly 0 at id_index
    id_index: int                # flat AN index of the identity node
    profile_name: str

    @property
    def n_an(self) -> int:
        return len(self.an_weights)

    @property
    def an_mass(self) -> float:
        """The AN mass sum_an w_an exp(2 Re f(an)) (1 for a normalized profile)."""
        return float(np.dot(self.an_weights, np.exp(2.0 * np.real(self.profile))))

    def condition_i_residual(self) -> float:
        return float(abs(self.profile[self.id_index]))

    def condition_ii_residual(self) -> float:
        return abs(self.an_mass - 1.0)


#: Bytes per AN grid node that a lift holds at most at once: the model's
#: float64 weights and complex128 profile and the lift's complex128 envelope
#: (40 B), plus 40 B of temporaries in the reproduction residuals.
#: ``make_iwasawa_model`` itself peaks at 72 B per node.
AN_NODE_BYTES = 80


def an_grid_bytes(a_size: int, n_size: int) -> int:
    """Bytes of the AN grid arrays of an ``a_size`` x ``n_size`` lift, from the
    sizes alone, so a grid can be refused before anything is allocated."""
    return a_size * n_size * AN_NODE_BYTES


def _grid(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    if not (lo < hi):
        raise ConfigError(f"degenerate range [{lo}, {hi}]")
    if n < 1:
        raise ConfigError(f"grid size must be positive, got {n}")
    if not (lo <= 0.0 <= hi):
        raise ConfigError(f"range [{lo}, {hi}] excludes the identity coordinate 0")
    h = (hi - lo) / n
    nodes = lo + (np.arange(n) + 0.5) * h
    return nodes, np.full(n, h)


def make_iwasawa_model(
    k_spec: str,
    a_range: tuple[float, float],
    n_range: tuple[float, float],
    a_size: int,
    n_size: int,
    profile: str = "uniform",
) -> IwasawaModel:
    """Build the truncated model; the profile is renormalized on construction.

    ``profile`` is ``uniform``, ``gauss:sigma=S``, or ``table:PATH`` (a text
    file with a_size rows of n_size real values).
    """
    K = make_group(k_spec)
    if K.kind != "circle":
        raise ConfigError(f"K factor must be a circle model, got {k_spec!r}")
    a_nodes, a_w = _grid(a_range[0], a_range[1], a_size)
    n_nodes, n_w = _grid(n_range[0], n_range[1], n_size)
    an_weights = np.outer(a_w, n_w).reshape(-1)

    aa, nn = np.meshgrid(a_nodes, n_nodes, indexing="ij")
    id_index = int(np.argmin(aa.reshape(-1) ** 2 + nn.reshape(-1) ** 2))

    name = profile.strip()
    head, rest = split_spec(name)
    if head == "uniform":
        parse_params(rest, "uniform profile")
        raw = np.zeros(a_size * n_size, dtype=np.complex128)
    elif head == "gauss":
        sigma = parse_params(rest, "gauss profile", sigma=real).get("sigma", 1.0)
        if sigma <= 0:
            raise ConfigError(f"gauss profile needs sigma > 0, got {sigma}")
        raw = (-(aa**2 + nn**2) / (4.0 * sigma * sigma)).reshape(-1).astype(np.complex128)
    elif head == "table":
        try:
            table = np.loadtxt(rest, dtype=float, ndmin=2)
        except OSError as exc:
            raise ConfigError(
                f"cannot read profile table {rest!r}: {exc.strerror or type(exc).__name__}"
            ) from exc
        except ValueError as exc:
            raise ConfigError(f"profile table {rest!r} is not a table of numbers: {exc}") from exc
        if table.shape != (a_size, n_size):
            raise ConfigError(
                f"profile table shape {table.shape} does not match grid ({a_size}, {n_size})"
            )
        raw = table.reshape(-1).astype(np.complex128)
    else:
        raise ConfigError(f"unknown profile {profile!r}")

    model = IwasawaModel(
        K=K,
        a_nodes=a_nodes,
        n_nodes=n_nodes,
        an_weights=an_weights,
        profile=raw - raw[id_index],       # condition (i), exact
        id_index=id_index,
        profile_name=name,
    )
    with np.errstate(over="ignore"):  # an overflowing mass is reported just below
        mass = model.an_mass
    if not math.isfinite(mass) or mass <= 0:
        raise ConfigError(f"profile {profile!r} is not normalizable on the range")
    model.an_weights /= mass               # condition (ii)
    return model


@dataclass(eq=False)
class LiftedFamily:
    """Functions chi(k, an) = exp(f(an)) xi(k) on the K x AN product grid,
    stored as their two factors.

    ``source`` is the K factor xi, with unscaled member matrix ``members``
    and row scale s = ``source.scale``, and ``envelope`` = exp(profile) the
    (nAN,) AN factor.  Product nodes are ordered K-major: member m at flat
    node k * n_an + an has the value s[m] * members[m, k] * envelope[an].
    """

    model: IwasawaModel
    source: OrthonormalFamily    # the K factor xi
    envelope: np.ndarray         # (nAN,), the AN factor exp(f)

    @property
    def members(self) -> np.ndarray:
        """The (n_members, nK) K factor: ``source.members`` itself, never a copy."""
        return self.source.members

    def gram_matrix(self) -> np.ndarray:
        """Gram(xi) times the AN mass."""
        return self.source.gram_matrix() * self.model.an_mass

    def restrict_to_k(self) -> OrthonormalFamily:
        """The family of restrictions chi(., identity AN node) on K."""
        values = self.members * self.envelope[self.model.id_index]
        return OrthonormalFamily(self.model.K, self.source.blocks, values, self.source.scale)


def lift_family(model: IwasawaModel, xi: OrthonormalFamily) -> LiftedFamily:
    """Lift an orthonormal family on K through the profile."""
    if not same_group(xi.group, model.K):
        raise ValueError(
            f"family lives on {xi.group.name}, model K factor is {model.K.name}"
        )
    return LiftedFamily(model=model, source=xi, envelope=np.exp(model.profile))


def check_K_semicomplete(
    lifted: LiftedFamily,
    cat_k: RepCatalog,
    weights: ExpansionWeights,
    testset: TestSet,
    epsilon: float | None = None,
) -> SemicompletenessReport:
    """Semicompleteness defect of the lifted family's restriction to K, over a
    test set on K."""
    return semicompleteness_defect(lifted.restrict_to_k(), weights, cat_k, testset, epsilon=epsilon)


def reproduction_residual(
    model: IwasawaModel, g0: L2Function | None = None, an_index: int | None = None
) -> float:
    """Residual of the pointwise reproduction identity for separable g.

    For g(k, an) = g0(k) exp(f(an)) and a reference node (a1, n1), computes
    max over k of | integral_AN g(k, an) exp(conj(f(an)) + f(a1 n1)) dadn -
    g0(k) |.  The residual vanishes for every reference node only when the
    profile is identically zero.
    """
    if g0 is None:
        g0 = L2Function(model.K, np.ones(model.K.n_nodes, dtype=np.complex128))
    idx = model.id_index if an_index is None else int(an_index)
    if not (0 <= idx < model.n_an):
        raise IndexError(f"AN node index {idx} out of range")
    factor = model.an_mass * complex(np.exp(model.profile[idx]))
    return float(np.max(np.abs(g0.values * factor - g0.values)))


def max_reproduction_residual(model: IwasawaModel, g0: L2Function | None = None) -> float:
    """Largest ``reproduction_residual`` over all reference AN nodes.

    The reference node enters only through the factor mass * exp(f(a1 n1)),
    and |g0(k) * factor - g0(k)| = |g0(k)| * |factor - 1|, so the maximum
    over the K x AN grid is a product of two maxima: O(nK + nAN) memory.
    """
    if g0 is None:
        g0 = L2Function(model.K, np.ones(model.K.n_nodes, dtype=np.complex128))
    factors = model.an_mass * np.exp(model.profile)              # (nAN,)
    return float(np.max(np.abs(g0.values)) * np.max(np.abs(factors - 1.0)))
