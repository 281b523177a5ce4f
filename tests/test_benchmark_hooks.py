"""The benchmark tracer wraps grouplab names by lookup; each one must resolve,
and each counter it derives from a traced call's arguments and result must
still be recorded.

``perfbench/traced.py`` is read as source and executed in a fresh namespace,
or run as a script that writes only under the test's temporary directory, so
nothing is imported from or written under ``perfbench/``.
"""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "perfbench" / "traced.py"


def _traced_namespace() -> dict:
    namespace = {"__name__": "traced_hooks"}
    exec(compile(TRACED.read_text(), str(TRACED), "exec"), namespace)
    return namespace


HOOKS = _traced_namespace()


@pytest.mark.parametrize("module,attr,span", HOOKS["FUNCTIONS"])
def test_traced_function_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module,cls,attr,span", HOOKS["METHODS"])
def test_traced_method_resolves(module, cls, attr, span):
    assert callable(getattr(getattr(importlib.import_module(module), cls), attr))


LIFT = {
    "iwasawa": {
        "K": "circle:16",
        "A": {"range": [-1.0, 1.0], "nodes": 4},
        "N": {"range": [-1.0, 1.0], "nodes": 4},
        "profile": "gauss:sigma=0.7",
        "truncation": 3,
    }
}
#: 7 characters |m| <= 3 on 16 nodes, 16 B each: the store, the family and
#: the lift's K factor all hold these bytes.
LIFT_BYTES = 7 * 16 * 16
LIFT_COUNTERS = ("iwasawa.members_bytes", "catalog.grid_bytes", "hilbert.family_bytes")
#: 4 characters on 4 nodes; the dump writes some of its files in this process.
DUMP = {"group": "zn:4", "dump_coefficients": True}


@pytest.mark.parametrize(
    "command, fields, exact, positive",
    [
        ("lift", LIFT, dict.fromkeys(LIFT_COUNTERS, LIFT_BYTES), ()),
        ("catalog", DUMP, {"catalog.grid_bytes": 4 * 4 * 16}, ("config.write_csv.bytes",)),
    ],
)
def test_traced_run_records_its_counters(tmp_path, command, fields, exact, positive):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"name": "exp", "group": "circle:16", **fields}))
    record = tmp_path / "trace.json"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    result = subprocess.run(
        [sys.executable, str(TRACED), str(record), "run", *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    counters = json.loads(record.read_text())["counters"]
    assert {name: counters.get(name) for name in exact} == exact
    assert all(counters.get(name, 0) > 0 for name in positive), counters
