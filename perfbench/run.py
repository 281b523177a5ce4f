"""Layered benchmark of the grouplab CLI.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py`` (``su2-spectral``,
``circle-testset``, ``lift-grid``) or ``all``, which runs each in turn.  Run
it from anywhere inside a checkout; it needs ``src/grouplab`` next to this
directory and exits 1 without a result when that is missing.

A round is the workload's sequence of CLI invocations, each a fresh child
process (``python -m grouplab.cli``) started and reaped one at a time by this
process, so its wall time runs from spawn to exit and its CPU time and peak
RSS come from ``os.wait4``.  Rounds repeat, a closed loop, until another one
would not fit in ``--seconds`` (at least two rounds always run), and each
end-to-end metric is the median over rounds:

  setup_s      wall time of a bare ``catalog`` (a round may start with several)
  total_s      summed wall time of the round's invocations
  cpu_s        summed user + system CPU time of the round's children
  peak_rss_mb  largest child peak RSS of the round

Outputs are gated: every invocation must exit 0, round one must pass
``gate.check`` (invariants, and reference values where the inputs match the
recorded ones), and every later round must write byte-identical artifacts.
A failed invocation counts in ``failed`` and in ``error_rate``; any failure
makes ``correct`` false and the exit code 1.

With ``--trace 1`` untraced rounds alternate with traced ones, in which each
invocation runs under ``traced.py`` instead.  The per-layer metrics come from
the traced rounds (times as medians over rounds; counts, which must repeat
exactly, from any round), the per-command wall times and ``error_rate`` from
the untraced ones, and ``trace.overhead_s`` is the difference of their
``total_s`` medians.

Metric names and units are read from ``BENCHMARK.json`` at the repository
root.  The last line of standard output is the JSON result; the lines before
it give the environment, the gate's verdict and each metric by name and unit.
The full record of the last run of each workload is left in
``perfbench/_work/<workload>/result.json``.  The benchmark sets neither
``GROUPLAB_KERNELS`` nor any BLAS thread count: children inherit the caller's
environment plus ``PYTHONPATH`` pointing at ``src``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
import workloads
from traced import FUNCTIONS, METHODS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

MIN_ROUNDS = 2
#: No round starts unless it is expected to end by then; every run ends well inside 180 s.
RUN_LIMIT_S = 150.0
#: A child still running at this point of the run is killed, and the run ends without a result.
KILL_AT_S = 170.0

KERNELS = tuple(span for module, _, span in FUNCTIONS if module == "grouplab._kernels")
SPANS = tuple(span for *_, span in FUNCTIONS) + tuple(span for *_, span in METHODS)
COMMANDS = ("catalog", "parseval", "semicomplete", "isometry", "lift")
#: Per-layer metrics that are counts, and how each is obtained.
COUNTS = {
    "catalog.su2_irrep_matrix.calls": "counted",
    "semicomplete.semi_fourier_expand.calls": "counted",
    "fourier.fourier_transform.calls": "counted",
    "fourier.synthesize.calls": "counted",
    "hilbert.coefficients.calls": "counted",
    "parseval.transform_H.calls": "counted",
    "iwasawa.gram_matrix.calls": "counted",
    "kernels.calls": "counted",
    **{f"{k}.calls": "counted" for k in KERNELS},
    "kernels.flops": "computed",
    "kernels.bytes": "computed",
    "catalog.grid_bytes": "computed",
    "hilbert.family_bytes": "computed",
    "iwasawa.members_bytes": "computed",
    "config.write_csv.bytes": "counted",
}


class RunTimeout(Exception):
    pass


@dataclass
class Call:
    """One finished invocation."""

    label: str
    command: str
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    exit_code: int
    trace: dict | None = None
    hashes: dict[str, str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


@dataclass
class Round:
    index: int
    traced: bool
    calls: list[Call]

    @property
    def total_s(self) -> float:
        return sum(c.wall_s for c in self.calls)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _on_alarm(signum, frame):
    raise RunTimeout()


def spawn(argv: list[str], log: Path, kill_at: float) -> tuple[int, float, float, float]:
    """Run a child to completion: (exit code, wall s, CPU s, peak RSS MB)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(kill_at - time.perf_counter(), 0.001))
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, child_env(), file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return (
        os.waitstatus_to_exitcode(status),
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
    )


def file_hashes(directory: Path) -> dict[str, str]:
    if not directory.is_dir():
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


def run_round(index: int, traced: bool, work: Path, configs, calls, kill_at: float) -> Round:
    round_dir = work / f"round-{index}"
    round_dir.mkdir(parents=True)
    done = []
    for inv in calls:
        out = round_dir / inv.label
        cli = [inv.command, "--config", str(configs[inv.config]), "--out", str(out)]
        trace_path = round_dir / f"{inv.label}.trace.json"
        if traced:
            argv = [sys.executable, str(BENCH / "traced.py"), str(trace_path), f"round-{index}/{inv.label}", *cli]
        else:
            argv = [sys.executable, "-m", "grouplab.cli", *cli]
        log = round_dir / f"{inv.label}.log"
        code, wall, cpu, rss = spawn(argv, log, kill_at)
        call = Call(inv.label, inv.command, wall, cpu, rss, code, hashes=file_hashes(out))
        if code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:] if log.is_file() else []
            call.errors.append(f"exit code {code}: {' '.join(tail)}")
        if traced:
            if trace_path.is_file():
                call.trace = json.loads(trace_path.read_text())
            else:
                call.errors.append("traced run wrote no trace")
        done.append(call)
    return Round(index, traced, done)


def gate_rounds(workload: str, seed: int, rounds: list[Round], work: Path) -> list[str]:
    """Mark failed calls; return the labels that got only seed-independent checks."""
    first = rounds[0]
    failures, skipped = gate.check(workload, seed, work / f"round-{first.index}")
    for call in first.calls:
        call.errors.extend(failures.get(call.label, []))
    for rnd in rounds[1:]:
        for call, ref in zip(rnd.calls, first.calls):
            if call.hashes != ref.hashes:
                call.errors.append(f"artifacts differ from round {first.index}")
    return skipped


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def is_setup(call) -> bool:
    return call.label.startswith("setup")


def end_to_end(rounds: list[Round]) -> dict[str, float]:
    return {
        "setup_s": median(c.wall_s for r in rounds for c in r.calls if is_setup(c)),
        "total_s": median(r.total_s for r in rounds),
        "cpu_s": median(sum(c.cpu_s for c in r.calls) for r in rounds),
        "peak_rss_mb": median(max(c.maxrss_mb for c in r.calls) for r in rounds),
    }


def command_walls(rounds: list[Round]) -> dict[str, float]:
    """Median wall time of each command other than the set-up, as ``<label>_s``."""
    out = {f"{cmd}_s": 0.0 for cmd in COMMANDS}
    for label in {c.label for r in rounds for c in r.calls if not is_setup(c)}:
        out[f"{label}_s"] = median(c.wall_s for r in rounds for c in r.calls if c.label == label)
    return out


def round_layers(rnd: Round) -> dict[str, float]:
    """Per-layer values of one traced round, summed over its invocations."""
    vals: dict[str, float] = {}
    for span in SPANS + tuple(f"cli.{cmd}" for cmd in COMMANDS):
        for key in ("s", "self_s", "calls"):
            vals[f"{span}.{key}"] = sum(
                c.trace["layers"].get(span, {}).get(key, 0) for c in rnd.calls if c.trace
            )
    for c in rnd.calls:
        for key, value in (c.trace or {}).get("counters", {}).items():
            vals[key] = vals.get(key, 0) + value
    for key in COUNTS:
        vals.setdefault(key, 0)
    vals["kernels.calls"] = sum(vals[f"{k}.calls"] for k in KERNELS)
    vals["kernels.s"] = sum(vals[f"{k}.s"] for k in KERNELS)
    vals["kernels.gflops"] = vals["kernels.flops"] / vals["kernels.s"] / 1e9 if vals["kernels.s"] else 0.0
    vals["iwasawa.peak_alloc_mb"] = max(
        ((c.trace or {}).get("peak_alloc_mb") or 0.0 for c in rnd.calls), default=0.0
    )
    return vals


def per_layer(traced: list[Round], untraced: list[Round]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values, and the counts that did not repeat across traced rounds."""
    layers = [round_layers(r) for r in traced]
    values = {key: median(lv[key] for lv in layers) for key in layers[0]}
    unsteady = [key for key in COUNTS if len({lv.get(key) for lv in layers}) > 1]
    for key in COUNTS:
        values[key] = layers[0][key]
    values["cli.import_s"] = median(
        c.trace["import_s"] for r in traced for c in r.calls if c.trace
    )
    values["trace.overhead_s"] = median(r.total_s for r in traced) - median(r.total_s for r in untraced)
    return values, unsteady


def per_invocation_counts(rnd: Round) -> dict[str, dict[str, int]]:
    """For each count metric, its value in each invocation of one traced round."""
    out: dict[str, dict[str, int]] = {}
    for c in rnd.calls:
        one = round_layers(Round(rnd.index, True, [c]))
        for key in COUNTS:
            if one[key]:
                out.setdefault(key, {})[c.label] = one[key]
    return out


def environment() -> dict:
    log = WORK / "envinfo.log"
    argv = [sys.executable, str(BENCH / "envinfo.py"), str(ROOT)]
    code, *_ = spawn(argv, log, time.perf_counter() + 60)
    text = log.read_text()
    if code != 0:
        raise SystemExit(f"environment probe failed (exit {code}):\n{text}")
    return json.loads(text.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict, env: dict) -> tuple[dict, int]:
    """Measure one workload; return the result object and the exit code."""
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    configs, calls = workloads.write_configs(workload, seed, work / "configs")

    start = time.perf_counter()
    deadline = start + seconds
    kill_at = start + KILL_AT_S
    rounds: list[Round] = []
    iterations = 0
    while True:
        for traced in ((False, True) if trace else (False,)):
            try:
                rnd = run_round(len(rounds) + 1, traced, work, configs, calls, kill_at)
            except RunTimeout:
                raise SystemExit(f"{workload}: an invocation was still running {KILL_AT_S:.0f} s "
                                 "into the run; killed it, no result")
            if rnd.index > 1:
                shutil.rmtree(work / f"round-{rnd.index}")
            rounds.append(rnd)
        iterations += 1
        now = time.perf_counter()
        per_iteration = (now - start) / iterations
        enough = iterations >= (1 if trace else MIN_ROUNDS)
        if (enough and now + per_iteration > deadline) or now + per_iteration > start + RUN_LIMIT_S:
            break

    skipped = gate_rounds(workload, seed, rounds, work)
    all_calls = [c for r in rounds for c in r.calls]
    attempted = len(all_calls)
    failed = sum(1 for c in all_calls if c.errors)
    correct = failed == 0

    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    values = end_to_end(untraced)
    values.update(command_walls(untraced))
    values["error_rate"] = failed / attempted
    unsteady: list[str] = []
    counts: dict = {}
    if trace:
        layer_values, unsteady = per_layer(traced, untraced)
        values.update(layer_values)
        counts = per_invocation_counts(traced[0])
        if unsteady:
            correct = False
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {workload} seed {seed}: {len(untraced)} untraced and {len(traced)} traced rounds, "
          f"{len(all_calls)} invocations")
    for c in all_calls:
        for err in c.errors:
            print(f"  FAIL {c.label}: {err}")
    if skipped:
        print(f"  gate: seed {seed} differs from the recorded inputs; only seed-independent "
              f"checks ran for {', '.join(skipped)}")
    print(f"  gate: {'PASS' if correct else 'FAIL'}")
    walls = [f"{c.label}_s" for c in calls if not is_setup(c)]
    shown = [m["name"] for m in spec["end_to_end"]] + walls + ["error_rate"]
    if trace:
        shown += [m["name"] for m in spec["per_layer"]]
    for name in dict.fromkeys(shown):
        kind = f"  ({COUNTS[name]}: {counts.get(name, {})})" if name in COUNTS else ""
        print(f"  {name:<44} {values[name]:>16.6g} {units[name]}{kind}")
    for key in unsteady:
        print(f"  FAIL count {key} differs between traced rounds")

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "result": result,
        "reference_skipped": skipped,
        "counts": {k: {"kind": COUNTS[k], "per_invocation": v} for k, v in counts.items()},
        "rounds": [
            {
                "index": r.index,
                "traced": r.traced,
                "calls": [{k: v for k, v in vars(c).items() if k != "trace"} for c in r.calls],
            }
            for r in rounds
        ],
    }
    (work / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return result, 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "grouplab" / "cli.py").is_file():
        print(f"grouplab sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 1
    spec = benchmark_spec()
    WORK.mkdir(parents=True, exist_ok=True)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    code = 0
    for name in names:
        result, status = run_workload(name, args.seed, args.seconds, bool(args.trace), spec, env)
        print(json.dumps(result, sort_keys=True), flush=True)
        code = max(code, status)
    return code


if __name__ == "__main__":
    sys.exit(main())
