"""Omission families, tail bounds, and the semicompleteness defect.

An omission family keeps the Peter-Weyl members of every non-omitted label.
For a test function f, the tail bound sum_{omitted} d * sum_ij |<f, u_ij>|
(sqrt(d) * sum_ij |fhat_ij| in terms of the Fourier transform fhat) dominates
the L2 distance between the full expansion and the omitted-family expansion,
and the semicompleteness defect of a family with expansion weights
is measured as a supremum over an explicit finite test set (the report always
records which test set was used; nothing is asserted uniformly over L2(G)).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .catalog import RepCatalog, _sqrt_degree_family, peter_weyl_basis
from .fourier import fourier_transform, synthesize
from .hilbert import (
    ExpansionWeights,
    L2Function,
    OrthonormalFamily,
    TestSet,
    coefficients,
    tolerance,
)
from .spec import ConfigError


@dataclass(frozen=True)
class OmissionSpec:
    """A finite set of catalog label keys to drop from the Peter-Weyl family."""

    omitted: tuple[str, ...] = ()


def build_riemann_lebesgue_family(cat: RepCatalog, omit: OmissionSpec) -> OrthonormalFamily:
    """The family {sqrt(d) u_ij} over all catalog labels not in ``omit``."""
    known = {lab.key for lab in cat.labels}
    unknown = [k for k in omit.omitted if k not in known]
    if unknown:
        raise ConfigError(f"omitted labels not in catalog: {unknown}")
    retained = [b for b in cat.blocks if b.label not in omit.omitted]
    if not retained:
        raise ConfigError("omission would leave an empty family")
    return _sqrt_degree_family(cat, retained)


def _label_tails(fns: TestSet | L2Function, cat: RepCatalog) -> np.ndarray:
    """sqrt(d) * sum_ij |fhat_ij| = d * sum_ij |<f, u_ij>| per catalog label:
    (F, n_labels) for a test set, (n_labels,) for one function, from one
    coefficient call."""
    fhat = np.abs(coefficients(fns, peter_weyl_basis(cat)))
    offsets = [b.offset for b in cat.blocks]
    return np.add.reduceat(fhat, offsets, axis=-1) * np.sqrt([b.size for b in cat.blocks])


def omission_tail_bound(f: L2Function, cat: RepCatalog, omit: OmissionSpec) -> float:
    """sum over omitted labels of d * sum_ij |<f, u_ij>|.

    Upper-bounds the L2 distance between the full Peter-Weyl expansion of f
    and its expansion over the retained family.
    """
    tails = _label_tails(f, cat)
    return float(sum((t for lab, t in zip(cat.labels, tails) if lab.key in omit.omitted), 0.0))


def choose_omissions(
    cat: RepCatalog, testset: TestSet, epsilon: float
) -> OmissionSpec:
    """Largest magnitude-ordered suffix of the catalog omissible within epsilon.

    Greedily extends the omitted set from the largest-magnitude label downward
    while the cumulative tail bound stays below epsilon for every test
    function; at least one label is always retained.  Returns the empty spec
    when even the top label violates the budget.
    """
    if not epsilon > 0:   # NaN too: no tail bound is ever >= NaN
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    # the largest cumulative tail over the test set of the top 1, 2, ..., L-1
    # labels (the first label is always kept), summed label by label
    suffix = np.cumsum(_label_tails(testset, cat)[:, :0:-1], axis=1).max(axis=0)
    chosen = int(np.logical_and.accumulate(suffix < epsilon).sum())
    omitted = tuple(lab.key for lab in cat.labels[len(cat.labels) - chosen :]) if chosen else ()
    return OmissionSpec(omitted=omitted)


def semi_fourier_expand(
    f: L2Function, family: OrthonormalFamily, weights: ExpansionWeights
) -> L2Function:
    """Weighted expansion sum gamma_j beta_ij <f, chi_(i,j)> chi_(i,j).

    With unit weights this is the orthogonal projection onto the family span.
    Blocks larger than the weight dimension are an error; weights are never
    reused cyclically.  Weights large enough that the expansion overflows are
    a ConfigError.
    """
    if family.max_block_size > weights.n:
        raise ConfigError(
            f"weights of dimension {weights.n} cannot cover a block of size "
            f"{family.max_block_size}"
        )
    # member (i, j) of a size-d block is weighted by gamma[j] * beta[i, j]
    sizes, index = family.size_table_index
    table = np.concatenate(
        [(weights.gamma[:d] * weights.beta[:d, :d]).reshape(-1) for d in sizes] or [np.zeros(0)]
    )
    # ``expand``'s product, made here so that an overflow is refused as a ConfigError
    with np.errstate(over="ignore", invalid="ignore"):
        values = _kernels.combine(coefficients(f, family) * table[index] * family.scale, family.members)
    if not np.isfinite(values).all():
        raise ConfigError("expansion weights overflow: the weighted expansion is not finite")
    return L2Function(family.group, values)


@dataclass(eq=False)
class SemicompletenessReport:
    """Sup-defect of a weighted expansion against the Peter-Weyl expansion."""

    test_set: str
    per_function: list[tuple[str, float]]
    max_defect: float
    weights: ExpansionWeights
    epsilon: float | None = None

    @property
    def within_epsilon(self) -> bool | None:
        if self.epsilon is None:
            return None
        return self.max_defect < self.epsilon


def semicompleteness_defect(
    family: OrthonormalFamily,
    weights: ExpansionWeights,
    cat: RepCatalog,
    testset: TestSet,
    epsilon: float | None = None,
) -> SemicompletenessReport:
    """Per-function ||PW-expansion(f) - weighted-expansion(f)||_2 over a test set,
    under its ids and descriptor: one expansion, transform and synthesis per row."""
    per_function = []
    for k, fid in enumerate(testset.ids):
        f = testset.function(k)
        weighted = semi_fourier_expand(f, family, weights)
        per_function.append((fid, _defect(synthesize(fourier_transform(f, cat), cat), weighted, fid)))
    max_defect = max(d for _, d in per_function)
    return SemicompletenessReport(
        test_set=testset.descriptor,
        per_function=per_function,
        max_defect=max_defect,
        weights=weights,
        epsilon=epsilon,
    )


def _defect(full: L2Function, weighted: L2Function, fid: str) -> float:
    """||full - weighted||_2, or a ConfigError when it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow is refused below
        diff = full.values - weighted.values
        defect = L2Function(full.group, diff).norm() if np.isfinite(diff).all() else np.inf
    if not np.isfinite(defect):
        raise ConfigError(f"expansion weights overflow: the defect of {fid} is not finite")
    return defect


@dataclass(frozen=True)
class WeightsDiagnostic:
    """Diagonal products gamma_i beta_ii away from 1; ``ExpansionWeights``
    already rejects zero entries."""

    diagonal_violations: tuple[tuple[int, float], ...]

    @property
    def admissible(self) -> bool:
        return not self.diagonal_violations


def validate_weights(weights: ExpansionWeights) -> WeightsDiagnostic:
    """Report indices violating gamma_i * beta_ii = 1 (beyond the
    ``weights_diagonal`` tolerance)."""
    diag = weights.gamma * np.diag(weights.beta)
    residuals = np.abs(diag - 1.0)
    return WeightsDiagnostic(tuple(
        (int(i), float(residuals[i])) for i in np.flatnonzero(residuals > tolerance("weights_diagonal"))
    ))
