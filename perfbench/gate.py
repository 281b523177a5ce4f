"""Correctness gate for the artifacts one benchmark round writes.

Usage:
  python3 perfbench/gate.py WORKLOAD SEED ROUND_DIR            check, exit 1 on any failure
  python3 perfbench/gate.py --record WORKLOAD SEED ROUND_DIR   rewrite the reference values

ROUND_DIR holds one sub-directory per invocation label (``setup``,
``parseval``, ...), each the ``--out`` directory of that invocation.

Three kinds of check run:

* invariants that hold for every seed: row counts, Bessel (defect >= -1e-9),
  defect = norm_sq - coeff_sum_sq, unit-norm test functions, unitary
  coefficient grids, parseval and isometry defects agreeing per function,
  admissible weights, and for the lift ``restriction_residual == 0`` and
  ``gram_residual <= 1e-9``;
* agreement with the reference values in ``reference/<workload>.json``,
  recorded from the seed-0 artifacts.  Numbers are compared, not bytes, with
  ``|actual - expected| <= ATOL + RTOL * |expected|``, so a sum taken in
  another order still passes.  An artifact is compared only when the config
  that produced it is byte-identical to the recorded one; for other seeds the
  seed-dependent artifacts get only the invariant checks, and the gate says so;
* byte identity of every artifact across the rounds of one run (done by
  ``run.py``, which hashes each round's outputs).
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

import workloads

RTOL = 1e-9
ATOL = 1e-12
#: Slack for identities that hold to rounding (norms, defect = a - b, grid unitarity).
ROUNDING = 1e-12
BESSEL_SLACK = 1e-9
GRAM_LIMIT = 1e-9

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def config_hashes(workload: str, seed: int) -> dict[str, str]:
    """sha256 of each invocation's config text, by invocation label."""
    docs, calls = workloads.configs(workload, seed)
    return {
        inv.label: hashlib.sha256(workloads.config_text(docs[inv.config]).encode()).hexdigest()
        for inv in calls
    }


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_table(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {"header": rows[0], "rows": [[_number(x) for x in row] for row in rows[1:]]}


def read_grid(path: Path) -> tuple[dict, np.ndarray]:
    """Summary of a coefficient dump and its grid as (n_nodes, d, d) complex."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    d = int(data[:, 1].max()) + 1 if len(data) else 0
    z = data[:, 3] + 1j * data[:, 4]
    summary = {
        "rows": len(data),
        "sum": [float(z.real.sum()), float(z.imag.sum())],
        "abs_sum": float(np.abs(z).sum()),
    }
    return summary, z.reshape(-1, d, d) if d else z


def extract(path: Path):
    """The numeric content of one artifact, as compared against the reference."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    if "_coeffs_" in path.name:
        return read_grid(path)[0]
    return read_table(path)


def compare(actual, expected, where: str = "") -> list[str]:
    """Mismatches between two extracted artifacts; numbers within RTOL/ATOL agree."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{where}: keys differ"]
        out = []
        for key in sorted(expected):
            out += compare(actual[key], expected[key], f"{where}.{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: length differs"]
        out = []
        for k, (a, e) in enumerate(zip(actual, expected)):
            out += compare(a, e, f"{where}[{k}]")
        return out
    numeric = (int, float)
    if isinstance(expected, numeric) and not isinstance(expected, bool):
        if not isinstance(actual, numeric) or isinstance(actual, bool):
            return [f"{where}: {actual!r} is not a number"]
        if not abs(actual - expected) <= ATOL + RTOL * abs(expected):
            return [f"{where}: {actual!r} differs from reference {expected!r}"]
        return []
    return [] if actual == expected else [f"{where}: {actual!r} != reference {expected!r}"]


# ---------------------------------------------------------------------------
# invariants that hold for any seed


def _finite(values, what: str) -> list[str]:
    bad = [v for v in values if not (isinstance(v, float) and math.isfinite(v))]
    return [f"{what}: non-finite or non-numeric values {bad[:3]}"] if bad else []


def _test_count(doc: dict) -> int:
    params = dict(p.split("=") for p in doc["test_set"].partition(":")[2].split(","))
    return int(params["count"])


def check_catalog(out: Path, doc: dict) -> list[str]:
    errors = []
    cat = json.loads((out / f"{doc['name']}_catalog.json").read_text())
    labels = cat["labels"]
    if not labels or len({lab["label"] for lab in labels}) != len(labels):
        errors.append("catalog: labels missing or repeated")
    if doc.get("dump_coefficients"):
        for lab in labels:
            path = out / f"{doc['name']}_coeffs_{lab['label'].replace(':', '-')}.csv"
            if not path.is_file():
                errors.append(f"{path.name}: missing")
                continue
            summary, grid = read_grid(path)
            d = lab["degree"]
            if grid.ndim != 3 or grid.shape[1:] != (d, d):
                errors.append(f"{path.name}: grid shape {grid.shape} for degree {d}")
                continue
            residual = np.abs(grid @ np.conj(np.transpose(grid, (0, 2, 1))) - np.eye(d)).max()
            if not residual <= ROUNDING:
                errors.append(f"{path.name}: grid not unitary (residual {residual:.3e})")
    return errors


def check_parseval(out: Path, doc: dict) -> list[str]:
    table = read_table(out / f"{doc['name']}_parseval.csv")
    errors = []
    if table["header"] != ["fn_id", "norm_sq", "coeff_sum_sq", "defect"]:
        errors.append(f"parseval: header {table['header']}")
    if len(table["rows"]) != _test_count(doc):
        errors.append(f"parseval: {len(table['rows'])} rows, expected {_test_count(doc)}")
    errors += _finite([x for row in table["rows"] for x in row[1:]], "parseval")
    if errors:
        return errors
    for fid, norm_sq, coeff, defect in table["rows"]:
        if abs(norm_sq - 1.0) > ROUNDING:
            errors.append(f"parseval {fid}: norm_sq {norm_sq!r} of a normalized function")
        if abs(norm_sq - coeff - defect) > ROUNDING:
            errors.append(f"parseval {fid}: defect {defect!r} != norm_sq - coeff_sum_sq")
        if defect < -BESSEL_SLACK:
            errors.append(f"parseval {fid}: Bessel violated, defect {defect!r}")
    return errors


def check_isometry(out: Path, doc: dict, parseval_out: Path | None) -> list[str]:
    table = read_table(out / f"{doc['name']}_isometry.csv")
    errors = []
    if len(table["rows"]) != _test_count(doc):
        errors.append(f"isometry: {len(table['rows'])} rows, expected {_test_count(doc)}")
    errors += _finite([x for row in table["rows"] for x in row[1:]], "isometry")
    if errors:
        return errors
    for fid, norm_sq, seq, defect in table["rows"]:
        if abs(abs(norm_sq - seq) - defect) > ROUNDING or norm_sq - seq < -BESSEL_SLACK:
            errors.append(f"isometry {fid}: defect {defect!r} inconsistent with the norms")
    if parseval_out is not None:
        pdefect = {row[0]: row[3] for row in read_table(parseval_out / f"{doc['name']}_parseval.csv")["rows"]}
        for fid, _, _, defect in table["rows"]:
            if fid not in pdefect or abs(pdefect[fid] - defect) > ROUNDING:
                errors.append(f"isometry {fid}: defect {defect!r} disagrees with parseval")
    return errors


def check_semicomplete(out: Path, doc: dict) -> list[str]:
    report = json.loads((out / f"{doc['name']}_semicomplete.json").read_text())
    table = read_table(out / f"{doc['name']}_semicomplete.csv")
    defects = [entry["defect"] for entry in report["per_function"]]
    errors = _finite(defects, "semicomplete")
    if len(defects) != _test_count(doc):
        errors.append(f"semicomplete: {len(defects)} functions, expected {_test_count(doc)}")
    if not errors and (min(defects) < 0 or report["max_defect"] != max(defects)):
        errors.append("semicomplete: max_defect is not the largest per-function defect")
    if [row[1] for row in table["rows"]] != defects:
        errors.append("semicomplete: CSV and JSON defects differ")
    if not report["weight_diagnostic"]["admissible"]:
        errors.append("semicomplete: diag-reciprocal weights reported inadmissible")
    return errors


def check_lift(out: Path, doc: dict) -> list[str]:
    lift = json.loads((out / f"{doc['name']}_lift.json").read_text())
    errors = []
    if lift["restriction_residual"] != 0:
        errors.append(f"lift: restriction_residual {lift['restriction_residual']!r} != 0")
    for key in ("gram_residual", "norm_residual"):
        if not lift[key] <= GRAM_LIMIT:
            errors.append(f"lift: {key} {lift[key]!r} > {GRAM_LIMIT}")
    if lift["condition_i_residual"] != 0 or not lift["condition_ii_residual"] <= ROUNDING:
        errors.append("lift: profile conditions (i)/(ii) not met")
    return errors


def check_invariants(workload: str, seed: int, round_dir: Path) -> dict[str, list[str]]:
    """Seed-independent failures by invocation label."""
    docs, calls = workloads.configs(workload, seed)
    labels = {inv.label for inv in calls}
    failures = {}
    for inv in calls:
        out = round_dir / inv.label
        doc = docs[inv.config]
        try:
            if inv.command == "catalog":
                errors = check_catalog(out, doc)
            elif inv.command == "parseval":
                errors = check_parseval(out, doc)
            elif inv.command == "isometry":
                errors = check_isometry(out, doc, round_dir / "parseval" if "parseval" in labels else None)
            elif inv.command == "semicomplete":
                errors = check_semicomplete(out, doc)
            else:
                errors = check_lift(out, doc)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            errors = [f"{inv.label}: unreadable output ({type(exc).__name__}: {exc})"]
        if errors:
            failures[inv.label] = errors
    return failures


# ---------------------------------------------------------------------------
# reference values


def artifacts(round_dir: Path, label: str) -> list[Path]:
    return sorted(p for p in (round_dir / label).iterdir() if p.is_file())


def record(workload: str, seed: int, round_dir: Path) -> Path:
    hashes = config_hashes(workload, seed)
    ref = {"seed": seed, "artifacts": {}}
    for label, digest in hashes.items():
        for path in artifacts(round_dir, label):
            ref["artifacts"][f"{label}/{path.name}"] = {"config_sha256": digest, "value": extract(path)}
    dest = REFERENCE_DIR / f"{workload}.json"
    dest.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return dest


def check_reference(workload: str, seed: int, round_dir: Path) -> tuple[dict[str, list[str]], list[str]]:
    """Failures by label, and the labels whose inputs differ from the recorded ones."""
    ref = json.loads((REFERENCE_DIR / f"{workload}.json").read_text())["artifacts"]
    hashes = config_hashes(workload, seed)
    failures: dict[str, list[str]] = {}
    skipped = set()
    for key, entry in sorted(ref.items()):
        label, _, name = key.partition("/")
        if hashes.get(label) != entry["config_sha256"]:
            skipped.add(label)
            continue
        path = round_dir / label / name
        if not path.is_file():
            failures.setdefault(label, []).append(f"{key}: missing")
            continue
        errors = compare(extract(path), entry["value"], key)
        if errors:
            failures.setdefault(label, []).extend(errors)
    return failures, sorted(skipped)


def check(workload: str, seed: int, round_dir: Path) -> tuple[dict[str, list[str]], list[str]]:
    """All failures by invocation label, and the labels that got only invariant checks."""
    failures = check_invariants(workload, seed, round_dir)
    ref_failures, skipped = check_reference(workload, seed, round_dir)
    for label, errors in ref_failures.items():
        failures.setdefault(label, []).extend(errors)
    return failures, skipped


def main(argv: list[str]) -> int:
    recording = argv[:1] == ["--record"]
    if recording:
        argv = argv[1:]
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    workload, seed, round_dir = argv[0], int(argv[1]), Path(argv[2])
    if recording:
        print(f"wrote {record(workload, seed, round_dir)}")
        return 0
    failures, skipped = check(workload, seed, round_dir)
    for label, errors in failures.items():
        for err in errors:
            print(f"FAIL {label}: {err}")
    if skipped:
        print(f"seed {seed}: only seed-independent checks ran for {', '.join(skipped)}")
    print("gate: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
