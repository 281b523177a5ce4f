"""Test-only helpers: sample-file writers, small constructors, the
per-function test-set builders kept as oracles for ``config.build_test_set``,
the whole-array analysis kept as the oracle of the chunked commands, and
Dixon's method kept as the oracle of the finite catalog's closed forms.

The builder oracles make a test set one ``L2Function`` at a time, as the
library did before a test set became one ``(F, n_nodes)`` array; the array's
rows must equal their values bit for bit.  ``oracle_analysis`` reduces the
whole test set at once, as the analysis commands did before they walked it
a chunk of rows at a time; their files must equal its files byte for byte.
``dixon_irreps`` decomposes the regular representation, as the catalog did
before it built each finite family's irreps in closed form; the label order,
degrees and characters of the two must agree.
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


# ---------------------------------------------------------------------------
# Dixon's method, as the oracle of the finite closed forms

DIXON_SEED = 0x5EED
#: Random commutant draws before the decomposition fails.
DIXON_TRIES = 12
#: Eigenvalue gap within one irrep, per unit spread.
DIXON_CLUSTER = 1e-6
#: Irreducibility and equality of characters.
DIXON_CHARACTER = 1e-6


def dixon_irreps(table) -> list[tuple[int, np.ndarray]]:
    """(degree, characters) of the distinct irreps of the finite group of
    multiplication ``table``, in catalog order, by Dixon's method (J. D. Dixon,
    "Computing irreducible representations of groups", Math. Comp. 24 (1970)).

    A random Hermitian matrix averaged over the left regular representation
    commutes with it; the orthonormal basis B of each of its eigenvalue
    clusters spans an irrep, whose grid is B^H L_g B.  A draw whose clusters
    are reducible, or whose classes miss sum d^2 = |G| or the multiplicities
    d, is drawn again.
    """
    n = table.shape[0]
    left = np.argsort(table, axis=1)   # row g inverts row g of the table: g^-1 x
    rng = np.random.default_rng(DIXON_SEED + 977 * n)

    def sort_key(entry):    # trivial first, then by degree and rounded characters
        d, chars, _ = entry
        rounded = tuple((round(c.real, 6), round(c.imag, 6)) for c in chars)
        return (0 if d == 1 and np.max(np.abs(chars - 1.0)) < DIXON_CHARACTER else 1, d, rounded)

    for _ in range(DIXON_TRIES):
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = x + x.conj().T
        commutant = sum(h[np.ix_(inv, inv)] for inv in left) / n   # mean_g L_g H L_g^T
        vals, vecs = np.linalg.eigh(commutant)
        order = np.argsort(vals)
        gap = DIXON_CLUSTER * max(float(vals[-1] - vals[0]), 1.0)
        classes = []    # [degree, characters, copies]
        for cluster in np.split(order, np.flatnonzero(np.diff(vals[order]) >= gap) + 1):
            basis, _ = np.linalg.qr(vecs[:, cluster])
            chars = np.einsum("gii->g", basis.conj().T @ basis[left])   # tr B^H L_g B
            if abs(np.mean(np.abs(chars) ** 2) - 1.0) > DIXON_CHARACTER:
                break    # a reducible cluster abandons the draw
            copy_of = next((c for c in classes if np.max(np.abs(c[1] - chars)) < DIXON_CHARACTER), None)
            if copy_of is None:
                classes.append([len(cluster), chars, 1])
            else:
                copy_of[2] += 1
        else:
            classes.sort(key=sort_key)
            degrees = [d for d, _, _ in classes]
            if sum(d * d for d in degrees) == n and degrees == [copies for _, _, copies in classes]:
                return [(d, chars) for d, chars, _ in classes]
    raise RuntimeError(f"failed to decompose the regular representation in {DIXON_TRIES} tries")
