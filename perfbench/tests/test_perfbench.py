"""Tests of the benchmark's own code: tracer, gate and metric reporting.

Run with: python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402


def spec_names(kind: str) -> list[str]:
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]


# ---------------------------------------------------------------------------
# tracer


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_self_time_is_duration_minus_children():
    tracer = traced.Tracer("r1", clock=FakeClock())
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))

    assert outer(1) == 3
    spans = {name: [] for name in ("outer", "inner")}
    for name, start, end, parent, run_id in tracer.spans:
        assert run_id == "r1"
        spans[name].append((start, end, parent))
    (o_start, o_end, o_parent), = spans["outer"]
    assert o_parent == -1 and all(parent == 0 for _, _, parent in spans["inner"])
    children = sum(end - start for start, end, _ in spans["inner"])
    summary = tracer.summary()
    assert summary["outer"]["calls"] == 1 and summary["inner"]["calls"] == 2
    assert summary["outer"]["s"] == o_end - o_start
    assert summary["outer"]["self_s"] == (o_end - o_start) - children
    assert summary["inner"]["self_s"] == summary["inner"]["s"] == children


def test_span_closes_when_the_call_raises():
    tracer = traced.Tracer("r1", clock=FakeClock())

    def boom():
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        tracer.wrap("boom", boom)()
    (name, start, end, parent, _), = tracer.spans
    assert end > start and tracer._stack == []


def test_traced_cli_counts_repeat_and_self_times_add_up(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "name": "t", "group": "circle:16", "omit": ["m:7"],
        "test_set": "random:count=3,seed=1", "weights": "diag-reciprocal:seed=2",
    }))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    records = []
    for k in range(2):
        out = tmp_path / f"trace{k}.json"
        argv = [sys.executable, str(BENCH / "traced.py"), str(out), f"r{k}", "semicomplete",
                "--config", str(cfg), "--out", str(tmp_path / f"out{k}")]
        subprocess.run(argv, env=env, check=True, timeout=120)
        records.append(json.loads(out.read_text()))
    layers = records[0]["layers"]
    # circle:16 has 15 labels: 3 functions x 15 labels per transform, plus one call each
    # from the weighted expansion.
    assert layers["kernels.coefficients_against"]["calls"] == 3 * 15 + 3
    assert layers["kernels.combine"]["calls"] == 3 * 15 + 3
    assert layers["fourier.fourier_transform"]["calls"] == 3
    assert layers["cli.semicomplete"]["calls"] == 1
    for agg in layers.values():
        assert 0 <= agg["self_s"] <= agg["s"] + 1e-9
    assert records[0]["counters"] == records[1]["counters"]
    assert {k: v["calls"] for k, v in layers.items()} == {
        k: v["calls"] for k, v in records[1]["layers"].items()
    }
    assert (tmp_path / "out0" / "t_semicomplete.csv").read_bytes() == (
        tmp_path / "out1" / "t_semicomplete.csv"
    ).read_bytes()


def test_kernel_cost_is_computed_from_shapes():
    class Shape:
        def __init__(self, *shape):
            self.shape = shape

    assert traced.kernel_cost("kernels.coefficients_against", (Shape(3, 10),)) == (
        8 * 30 + 20, 16 * 30 + 24 * 10 + 16 * 3
    )
    assert traced.kernel_cost("kernels.combine", (None, Shape(3, 10))) == (8 * 30, 16 * 3 + 16 * 30 + 16 * 10)


# ---------------------------------------------------------------------------
# gate


def write_reference_round(workload: str, directory: Path) -> None:
    """Rebuild a round's JSON artifacts from the recorded reference values."""
    ref = json.loads((gate.REFERENCE_DIR / f"{workload}.json").read_text())["artifacts"]
    for key, entry in ref.items():
        path = directory / key
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(entry["value"], indent=2, sort_keys=True) + "\n")


def test_reference_round_passes_and_perturbed_one_fails(tmp_path):
    write_reference_round("lift-grid", tmp_path)
    failures, skipped = gate.check("lift-grid", 0, tmp_path)
    assert failures == {} and skipped == []
    assert subprocess.run([sys.executable, str(BENCH / "gate.py"), "lift-grid", "0", str(tmp_path)]).returncode == 0

    lift = tmp_path / "lift" / "lift_lift.json"
    obj = json.loads(lift.read_text())
    obj["reproduction"]["max_over_grid"] *= 1 + 1e-6
    lift.write_text(json.dumps(obj))
    failures, _ = gate.check("lift-grid", 0, tmp_path)
    assert list(failures) == ["lift"]
    assert subprocess.run([sys.executable, str(BENCH / "gate.py"), "lift-grid", "0", str(tmp_path)]).returncode == 1


@pytest.mark.parametrize("key, value", [("restriction_residual", 1e-17), ("gram_residual", 2e-9)])
def test_lift_acceptance_limits(tmp_path, key, value):
    write_reference_round("lift-grid", tmp_path)
    lift = tmp_path / "lift" / "lift_lift.json"
    obj = json.loads(lift.read_text())
    obj[key] = value
    lift.write_text(json.dumps(obj))
    failures = gate.check_invariants("lift-grid", 0, tmp_path)
    assert any(key in err for err in failures["lift"])


def test_numbers_compare_within_tolerance_not_bytes():
    assert gate.compare({"a": [1.0, "x"]}, {"a": [1.0 + 1e-15, "x"]}) == []
    assert gate.compare({"a": [1.0, "x"]}, {"a": [1.0 + 1e-6, "x"]}) != []
    assert gate.compare({"a": [1.0, "y"]}, {"a": [1.0, "x"]}) != []
    assert gate.compare({"a": 1.0}, {"b": 1.0}) != []


def parseval_round(tmp_path: Path, rows: list[str]) -> tuple[Path, dict]:
    docs, _ = workloads.configs("circle-testset", 0)
    out = tmp_path / "parseval"
    out.mkdir()
    header = "fn_id,norm_sq,coeff_sum_sq,defect"
    (out / "analysis_parseval.csv").write_text("\n".join([header, *rows]) + "\n")
    return out, docs["analysis"]


@pytest.mark.parametrize("bad_row", [
    "random:0,1,0.75,0.26",            # defect != norm_sq - coeff_sum_sq
    "random:0,1,1.5,-0.5",             # Bessel violated
    "random:0,nan,0.75,nan",           # non-finite
])
def test_parseval_invariants_catch_bad_rows(tmp_path, bad_row):
    good = [f"random:{k},1,0.75,0.25" for k in range(1, 128)]
    out, doc = parseval_round(tmp_path, good + [bad_row])
    assert gate.check_parseval(out, doc)


def test_parseval_invariants_accept_consistent_rows(tmp_path):
    out, doc = parseval_round(tmp_path, [f"random:{k},1,0.75,0.25" for k in range(128)])
    assert gate.check_parseval(out, doc) == []


# ---------------------------------------------------------------------------
# reporting


def fake_round(index: int, trace: bool, labels) -> run.Round:
    calls = []
    for k, (label, command) in enumerate(labels):
        record = None
        if trace:
            record = {
                "import_s": 0.1,
                "peak_alloc_mb": None,
                "layers": {"kernels.gram": {"calls": 2, "s": 0.5, "self_s": 0.5},
                           f"cli.{command}": {"calls": 1, "s": 1.0, "self_s": 0.5}},
                "counters": {"kernels.flops": 100, "kernels.bytes": 200},
            }
        calls.append(run.Call(label, command, 1.0 + 0.1 * index + k, 1.5, 80.0, 0, trace=record))
    return run.Round(index, trace, calls)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_are_in_benchmark_json(monkeypatch, capsys, tmp_path, trace):
    _, calls = workloads.configs("circle-testset", 0)
    labels = [(inv.label, inv.command) for inv in calls]

    def fake_run_round(index, traced_round, work, configs, calls, kill_at):
        (work / f"round-{index}").mkdir(parents=True)
        return fake_round(index, traced_round, labels)

    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "run_round", fake_run_round)
    monkeypatch.setattr(run.gate, "check", lambda *a: ({}, []))
    result, code = run.run_workload("circle-testset", 0, 0.0, bool(trace), run.benchmark_spec(), {})
    out = capsys.readouterr().out

    assert code == 0 and result["correct"] and result["failed"] == 0
    expected = spec_names("per_layer" if trace else "end_to_end")
    assert list(result["metrics"]) == expected
    known = set(spec_names("end_to_end")) | set(spec_names("per_layer"))
    printed = [line.split()[0] for line in out.splitlines() if line.startswith("  ") and "gate:" not in line]
    assert printed and set(printed) <= known
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_end_to_end_metrics_are_medians_over_rounds():
    rounds = [fake_round(i, False, [("setup", "catalog"), ("lift", "lift")]) for i in range(3)]
    values = run.end_to_end(rounds)
    assert values["setup_s"] == pytest.approx(1.1)
    assert values["total_s"] == pytest.approx(1.1 + 2.1)
    assert values["cpu_s"] == pytest.approx(3.0)
    assert values["peak_rss_mb"] == 80.0


def test_workload_seed_fixes_the_inputs():
    assert workloads.configs("su2-spectral", 4) == workloads.configs("su2-spectral", 4)
    assert workloads.configs("su2-spectral", 4)[0] != workloads.configs("su2-spectral", 5)[0]
    assert workloads.configs("lift-grid", 4) == workloads.configs("lift-grid", 5)


def test_benchmark_json_lists_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.end_to_end(
        [fake_round(1, False, [("setup", "catalog")])]
    ))
