"""Omission families, tail bounds, and the semicompleteness defect.

An omission family keeps the Peter-Weyl members of every non-omitted label.
For a test function f, the tail bound sum_{omitted} d * sum_ij |<f, u_ij>|
dominates the L2 distance between the full expansion and the omitted-family
expansion, and the semicompleteness defect of a family with expansion weights
is measured as a supremum over an explicit finite test set (the report always
records which test set was used; nothing is asserted uniformly over L2(G)).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import RepCatalog, _sqrt_degree_family
from .fourier import fourier_transform, synthesize
from .groups import require_same_group
from .hilbert import (
    ExpansionWeights,
    L2Function,
    OrthonormalFamily,
    coefficients,
    expand,
)


@dataclass(frozen=True)
class OmissionSpec:
    """A finite set of catalog label keys to drop from the Peter-Weyl family."""

    omitted: tuple[str, ...] = ()

    def __contains__(self, key: str) -> bool:
        return key in self.omitted


def build_riemann_lebesgue_family(cat: RepCatalog, omit: OmissionSpec) -> OrthonormalFamily:
    """The family {sqrt(d) u_ij} over all catalog labels not in ``omit``."""
    known = {lab.key for lab in cat.labels}
    unknown = [k for k in omit.omitted if k not in known]
    if unknown:
        raise ValueError(f"omitted labels not in catalog: {unknown}")
    retained = [lab for lab in cat.labels if lab.key not in omit.omitted]
    if not retained:
        raise ValueError("omission would leave an empty family")
    return _sqrt_degree_family(cat, retained)


def omission_tail_bound(f: L2Function, cat: RepCatalog, omit: OmissionSpec) -> float:
    """sum over omitted labels of d * sum_ij |<f, u_ij>|.

    Upper-bounds the L2 distance between the full Peter-Weyl expansion of f
    and its expansion over the retained family.
    """
    require_same_group(f.group, cat.group)
    fhat = fourier_transform(f, cat)
    total = 0.0
    for lab in cat.labels:
        if lab.key in omit.omitted:
            total += lab.degree * float(np.sum(np.abs(fhat.matrices[lab.key])))
    return total


def choose_omissions(
    cat: RepCatalog, testset: list[L2Function], epsilon: float
) -> OmissionSpec:
    """Largest magnitude-ordered suffix of the catalog omissible within epsilon.

    Greedily extends the omitted set from the largest-magnitude label downward
    while the cumulative tail bound stays below epsilon for every test
    function; at least one label is always retained.  Returns the empty spec
    when even the top label violates the budget.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not testset:
        raise ValueError("test set must be nonempty")
    contributions = []
    for f in testset:
        fhat = fourier_transform(f, cat)
        contributions.append(
            [lab.degree * float(np.sum(np.abs(fhat.matrices[lab.key]))) for lab in cat.labels]
        )
    contributions = np.asarray(contributions)      # (n_fns, n_labels)
    n_labels = len(cat.labels)
    cumulative = np.zeros(len(testset))
    chosen = 0
    for k in range(n_labels - 1, 0, -1):           # keep at least the first label
        cumulative = cumulative + contributions[:, k]
        if np.max(cumulative) >= epsilon:
            break
        chosen += 1
    omitted = tuple(lab.key for lab in cat.labels[n_labels - chosen :]) if chosen else ()
    return OmissionSpec(omitted=omitted)


def semi_fourier_expand(
    f: L2Function, family: OrthonormalFamily, weights: ExpansionWeights
) -> L2Function:
    """Weighted expansion sum gamma_j beta_ij <f, chi_(i,j)> chi_(i,j).

    With unit weights this is the orthogonal projection onto the family span.
    Blocks larger than the weight dimension are an error; weights are never
    reused cyclically.
    """
    if family.max_block_size > weights.n:
        raise ValueError(
            f"weights of dimension {weights.n} cannot cover a block of size "
            f"{family.max_block_size}"
        )
    if np.any(weights.gamma == 0) or np.any(weights.beta == 0):
        raise ValueError("expansion weights must be nonzero")
    coeffs = coefficients(f, family)
    scale = np.empty(family.n_members, dtype=np.complex128)
    for b in family.blocks:
        for i in range(b.size):
            for j in range(b.size):
                scale[b.offset + i * b.size + j] = weights.gamma[j] * weights.beta[i, j]
    return expand(coeffs * scale, family)


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
    testset: list[L2Function],
    epsilon: float | None = None,
    test_set_name: str = "explicit",
    function_ids: list[str] | None = None,
) -> SemicompletenessReport:
    """Per-function ||PW-expansion(f) - weighted-expansion(f)||_2 over a test set."""
    if not testset:
        raise ValueError("test set must be nonempty")
    if function_ids is None:
        function_ids = [f"fn:{k}" for k in range(len(testset))]
    per_function = []
    for fid, f in zip(function_ids, testset):
        pw = synthesize(fourier_transform(f, cat), cat)
        weighted = semi_fourier_expand(f, family, weights)
        per_function.append((fid, (pw - weighted).norm()))
    max_defect = max(d for _, d in per_function)
    return SemicompletenessReport(
        test_set=test_set_name,
        per_function=per_function,
        max_defect=max_defect,
        weights=weights,
        epsilon=epsilon,
    )


@dataclass(frozen=True)
class WeightsDiagnostic:
    """Zero entries and diagonal products gamma_i beta_ii away from 1."""

    diagonal_violations: tuple[tuple[int, float], ...]
    zero_gamma: tuple[int, ...]
    zero_beta: tuple[tuple[int, int], ...]

    @property
    def admissible(self) -> bool:
        return not (self.diagonal_violations or self.zero_gamma or self.zero_beta)


def validate_weights(weights: ExpansionWeights, tol: float = 1e-12) -> WeightsDiagnostic:
    """Report indices violating gamma_i * beta_ii = 1 and any zero entries."""
    diag = weights.gamma * np.diag(weights.beta)
    residuals = np.abs(diag - 1.0)
    violations = tuple(
        (int(i), float(residuals[i])) for i in np.flatnonzero(residuals > tol)
    )
    zero_gamma = tuple(int(i) for i in np.flatnonzero(weights.gamma == 0))
    zero_beta = tuple(
        (int(i), int(j)) for i, j in zip(*np.nonzero(weights.beta == 0))
    )
    return WeightsDiagnostic(
        diagonal_violations=violations, zero_gamma=zero_gamma, zero_beta=zero_beta
    )
