"""Test-only helpers: sample-file writers, small constructors, the
per-function test-set builders kept as oracles for ``config.build_test_set``,
and the whole-array analysis kept as the oracle of the chunked commands.

The builder oracles make a test set one ``L2Function`` at a time, as the
library did before a test set became one ``(F, n_nodes)`` array; the array's
rows must equal their values bit for bit.  ``oracle_analysis`` reduces the
whole test set at once, as the analysis commands did before they walked it
a chunk of rows at a time; their files must equal its files byte for byte.
"""
from pathlib import Path

import numpy as np

from grouplab import config as cfgmod
from grouplab.catalog import build_catalog
from grouplab.config import write_csv
from grouplab.fourier import fourier_transform, synthesize
from grouplab.groups import make_group
from grouplab.hilbert import L2Function, TestSet, coefficients
from grouplab.parseval import MatrixSequence, zero_sequence
from grouplab.semicomplete import (
    OmissionSpec,
    SemicompletenessReport,
    build_riemann_lebesgue_family,
    semi_fourier_expand,
)
from grouplab.spec import split_spec


def _sample_columns(values):
    return np.arange(len(values)), values.real, values.imag


def l2_to_csv(f: L2Function, path) -> None:
    """One function as node,re,im rows."""
    write_csv(path, ["node", "re", "im"], [_sample_columns(f.values)])


def functions_to_csv(ids, fns, path) -> None:
    """Functions as fn,node,re,im rows, one block of rows per function."""
    write_csv(path, ["fn", "node", "re", "im"], _labelled_samples(ids, (f.values for f in fns)))


def _labelled_samples(ids, rows):
    for fid, values in zip(ids, rows):
        yield (np.full(len(values), fid, dtype=object), *_sample_columns(values))


def zero_function(group) -> L2Function:
    return L2Function(group, np.zeros(group.n_nodes, dtype=np.complex128))


def basis_sequence(family, label: str, i: int, j: int) -> MatrixSequence:
    seq = zero_sequence(family)
    seq.matrix(label)[i, j] = 1.0
    return seq


def stack(fns, ids=None, descriptor="explicit") -> TestSet:
    """A ``TestSet`` of the given functions, in order."""
    fns = list(fns)
    return TestSet(fns[0].group, np.array([f.values for f in fns]), ids, descriptor)


# ---------------------------------------------------------------------------
# the per-function builders, as oracles


def oracle_random_functions(group, seed: int, count: int) -> list[L2Function]:
    """Consecutive draws from one generator, each wrapped and then rescaled."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        v = rng.standard_normal(group.n_nodes) + 1j * rng.standard_normal(group.n_nodes)
        f = L2Function(group, v)
        n = f.norm()
        out.append(f * (1.0 / n) if n > 0 else f)
    return out


def oracle_samples(group, path, named: bool) -> dict[str, L2Function]:
    """Functions by id from a well-formed ``[fn,]node,re,im`` file."""
    by_id: dict[str, np.ndarray] = {}
    lines = Path(path).read_text().splitlines()
    for line in lines[1:]:
        parts = line.split(",")
        fid = parts[0] if named else ""
        values = by_id.setdefault(fid, np.zeros(group.n_nodes, dtype=np.complex128))
        values[int(parts[-3])] = float(parts[-2]) + 1j * float(parts[-1])
    return {fid: L2Function(group, values) for fid, values in by_id.items()}


def oracle_function(spec: str, group, family=None) -> L2Function:
    """The function of one list entry: 'random:seed=S', 'member:block=B,i=I,j=J'
    with B a block index, or 'samples:PATH'."""
    head, rest = split_spec(spec)
    params = dict(part.split("=") for part in rest.split(",")) if head != "samples" else {}
    if head == "random":
        return oracle_random_functions(group, int(params["seed"]), 1)[0]
    if head == "member":
        return family.member(int(params["block"]), int(params["i"]), int(params["j"]))
    return oracle_samples(group, rest, named=False)[""]


def oracle_members(family) -> list[L2Function]:
    return [family.member_flat(k) for k in range(family.n_members)]


# ---------------------------------------------------------------------------
# the whole-array analysis, as the oracle


def oracle_analysis(cfg) -> None:
    """Write the files of ``parseval``, ``isometry`` and ``semicomplete`` for a
    loaded config from its whole test set: one coefficient product over all
    F rows for the Bessel columns, one loop over all rows for the defects."""
    group = make_group(cfg.group_spec)
    cat = build_catalog(group, truncation=cfg.truncation)
    family = build_riemann_lebesgue_family(cat, OmissionSpec(omitted=cfg.omit))
    ts = cfgmod.build_test_set(cfg.test_set_spec, group, family, seed_override=cfg.seed_override)
    out = cfg.out_dir / cfg.name

    norm_sq = np.array([ts.function(k).norm_sq() for k in range(len(ts))])
    coeff_sum = np.sum(np.abs(coefficients(ts, family), order="C") ** 2, axis=1)
    defect = norm_sq - coeff_sum
    write_csv(f"{out}_parseval.csv", ["fn_id", "norm_sq", "coeff_sum_sq", "defect"],
              [(ts.ids, norm_sq, coeff_sum, defect)])
    write_csv(f"{out}_isometry.csv", ["fn_id", "norm_sq", "seq_norm_sq", "defect"],
              [(ts.ids, norm_sq, coeff_sum, np.abs(defect))])

    weights = cfg.weights(family.max_block_size)
    per_function = []
    for k, fid in enumerate(ts.ids):
        f = ts.function(k)
        full = synthesize(fourier_transform(f, cat), cat)
        per_function.append((fid, (full - semi_fourier_expand(f, family, weights)).norm()))
    report = SemicompletenessReport(
        ts.descriptor, per_function, max(d for _, d in per_function), weights, cfg.epsilon
    )
    cfgmod.write_json(f"{out}_semicomplete.json", cfgmod.report_json_obj(report))
    write_csv(f"{out}_semicomplete.csv", ["fn", "defect"], [tuple(zip(*per_function))])
