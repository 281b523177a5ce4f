"""Golden outputs: every number the CLI writes for a fixed set of small configs.

``tests/data/golden.json`` holds the parsed CSV and JSON artifacts of
``parseval``, ``isometry`` and ``semicomplete`` on four groups, written by the
code before the kernels, family builders and Bessel rows were merged into one
path each.  Numbers are compared at rtol 1e-9 / atol 1e-12 (the tolerances of
``perfbench/gate.py``), so a change in summation order shows up here as a
bounded difference and any larger drift fails.  Strings, booleans and nulls
must match exactly.

Regenerate the data only for an intended change in the numbers:
``PYTHONPATH=src python tests/test_golden.py``.
"""
import json
import math
import tempfile
from pathlib import Path

import pytest

from grouplab.cli import main

DATA = Path(__file__).with_name("data") / "golden.json"
RTOL = 1e-9
ATOL = 1e-12
COMMANDS = ("parseval", "isometry", "semicomplete")
CASES = {
    "sym3-omit": {"group": "sym:3", "omit": ["irrep:2"]},
    "zn12": {"group": "zn:12"},
    "circle16-omit": {"group": "circle:16", "omit": ["m:7"]},
    "su2-j1": {"group": "su2:j=1"},
}


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def run_case(case: str, out: Path) -> dict:
    """Every artifact of the three commands on one case, parsed into JSON values."""
    cfg = {
        "name": case,
        "test_set": "random:count=4,seed=11",
        "weights": "diag-reciprocal:seed=4",
        "epsilon": 0.5,
        **CASES[case],
    }
    path = out / f"{case}.json"
    path.write_text(json.dumps(cfg))
    artifacts = {}
    for command in COMMANDS:
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        for csv in sorted(out.glob(f"{case}_{command}.csv")):
            lines = csv.read_text().splitlines()
            artifacts[csv.name] = [[_cell(x) for x in line.split(",")] for line in lines]
        for js in sorted(out.glob(f"{case}_{command}.json")):
            artifacts[js.name] = json.loads(js.read_text())
    return artifacts


def assert_close(got, want, where: str = "") -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}/{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{k}]")
    elif isinstance(want, float) and not isinstance(got, bool):
        assert isinstance(got, (int, float)), where
        assert math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want and type(got) is type(want), f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_outputs_match_golden(case, tmp_path):
    want = json.loads(DATA.read_text())[case]
    assert_close(run_case(case, tmp_path), want, case)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        golden = {case: run_case(case, Path(tmp)) for case in sorted(CASES)}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
