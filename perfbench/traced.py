"""Run one ``grouplab`` CLI invocation in this process, with a span per layer call.

Usage: python3 perfbench/traced.py OUT.json RUN_ID COMMAND --config CFG --out DIR

The tracer wraps the public names each caller looks up (for example
``grouplab.cli.build_catalog``, ``grouplab.semicomplete.fourier_transform``,
``grouplab._kernels.coefficients_against`` and ``OrthonormalFamily.gram_defect``)
and then calls ``grouplab.cli.main`` with the remaining arguments.  Each call
opens a span (name, start, end, parent, run id); spans stay in memory until
the invocation ends, when they are reduced to per-name calls, total time and
self time (duration minus the time covered by child spans) and written to
OUT.json together with counts computed from array shapes.  ``lift``
invocations also run under tracemalloc to record the peak allocation.

The exit code is the CLI's own.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict

#: (module, attribute, span name) of every traced module-level function.
FUNCTIONS = (
    ("grouplab.groups", "make_group", "groups.make_group"),
    ("grouplab.catalog", "build_catalog", "catalog.build_catalog"),
    ("grouplab.catalog", "su2_irrep_matrix", "catalog.su2_irrep_matrix"),
    ("grouplab.catalog", "peter_weyl_basis", "catalog.peter_weyl_basis"),
    ("grouplab.semicomplete", "build_riemann_lebesgue_family", "semicomplete.build_riemann_lebesgue_family"),
    ("grouplab.semicomplete", "semicompleteness_defect", "semicomplete.semicompleteness_defect"),
    ("grouplab.semicomplete", "semi_fourier_expand", "semicomplete.semi_fourier_expand"),
    ("grouplab.fourier", "fourier_transform", "fourier.fourier_transform"),
    ("grouplab.fourier", "synthesize", "fourier.synthesize"),
    ("grouplab.hilbert", "coefficients", "hilbert.coefficients"),
    ("grouplab.parseval", "transform_H", "parseval.transform_H"),
    ("grouplab.iwasawa", "make_iwasawa_model", "iwasawa.make_iwasawa_model"),
    ("grouplab.iwasawa", "lift_family", "iwasawa.lift_family"),
    ("grouplab.iwasawa", "max_reproduction_residual", "iwasawa.max_reproduction_residual"),
    ("grouplab.config", "load_config", "config.load_config"),
    ("grouplab.config", "build_test_set", "config.build_test_set"),
    ("grouplab.config", "build_weights", "config.build_weights"),
    ("grouplab.config", "write_csv", "config.write_csv"),
    ("grouplab._kernels", "weighted_inner", "kernels.weighted_inner"),
    ("grouplab._kernels", "coefficients_against", "kernels.coefficients_against"),
    ("grouplab._kernels", "gram", "kernels.gram"),
    ("grouplab._kernels", "combine", "kernels.combine"),
)

#: (module, class, method, span name) of every traced method.
METHODS = (
    ("grouplab.hilbert", "OrthonormalFamily", "gram_defect", "hilbert.gram_defect"),
    ("grouplab.iwasawa", "LiftedFamily", "gram_matrix", "iwasawa.gram_matrix"),
    ("grouplab.iwasawa", "LiftedFamily", "restrict_to_k", "iwasawa.restrict_to_k"),
)

C128 = 16
F64 = 8


def kernel_cost(name: str, args) -> tuple[int, int]:
    """(flops, bytes) of one kernel call, computed from its operand shapes.

    A complex multiply-add counts 8 flops and a real-by-complex scaling 2.
    Bytes count each operand read once and the result written once; the
    temporaries numpy makes are not counted.
    """
    if name == "kernels.weighted_inner":
        k = len(args[0])
        return 10 * k, (2 * C128 + F64) * k + C128
    if name == "kernels.coefficients_against":
        m, k = args[0].shape
        return 8 * m * k + 2 * k, C128 * m * k + (F64 + C128) * k + C128 * m
    if name == "kernels.gram":
        m, k = args[0].shape
        return 8 * m * m * k + 2 * m * k, C128 * m * k + F64 * k + C128 * m * m
    if name == "kernels.combine":
        m, k = args[1].shape
        return 8 * m * k, C128 * m + C128 * m * k + C128 * k
    raise KeyError(name)


def _kernel_counter(name: str):
    def count(args, result):
        flops, nbytes = kernel_cost(name, args)
        return {"kernels.flops": flops, "kernels.bytes": nbytes}

    return count


def _family_bytes(args, result):
    return {"hilbert.family_bytes": result.members.nbytes}


#: Span name -> counts derived from one call's arguments and result.
COUNTERS = {
    "catalog.build_catalog": lambda args, result: {
        "catalog.grid_bytes": sum(g.nbytes for g in result.grids.values())
    },
    "catalog.peter_weyl_basis": _family_bytes,
    "semicomplete.build_riemann_lebesgue_family": _family_bytes,
    "iwasawa.lift_family": lambda args, result: {"iwasawa.members_bytes": result.members.nbytes},
    "config.write_csv": lambda args, result: {"config.write_csv.bytes": os.path.getsize(args[0])},
}
COUNTERS.update(
    (span, _kernel_counter(span)) for module, _, span in FUNCTIONS if module == "grouplab._kernels"
)


class Tracer:
    """In-memory spans for one run; ``wrap`` makes a function record one per call."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[list] = []     # [name, start, end, parent index or -1, run id]
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock, run_id = self.spans, self._stack, self.clock, self.run_id
        counters = self.counters
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                for key, value in count(args, result).items():
                    counters[key] += value
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed duration ``s`` and summed self time ``self_s``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - children
        return out


def install(tracer: Tracer) -> None:
    """Replace every traced callable on each grouplab module that refers to it."""
    modules = [m for key, m in sys.modules.items() if key == "grouplab" or key.startswith("grouplab.")]
    for module_name, attr, span in FUNCTIONS:
        original = getattr(sys.modules[module_name], attr)
        wrapped = tracer.wrap(span, original)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)
    for module_name, cls_name, attr, span in METHODS:
        cls = getattr(sys.modules[module_name], cls_name)
        setattr(cls, attr, tracer.wrap(span, getattr(cls, attr)))
    cli = sys.modules["grouplab.cli"]
    for command, fn in list(cli.COMMANDS.items()):
        cli.COMMANDS[command] = tracer.wrap(f"cli.{command}", fn)


def run(out_path: str, run_id: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    import grouplab.cli
    import_s = time.perf_counter() - t0

    tracer = Tracer(run_id)
    install(tracer)
    use_tracemalloc = bool(argv) and argv[0] == "lift"
    if use_tracemalloc:
        tracemalloc.start()
    code = tracer.wrap("cli.main", grouplab.cli.main)(argv)
    peak_alloc_mb = None
    if use_tracemalloc:
        peak_alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    record = {
        "run_id": run_id,
        "exit_code": code,
        "import_s": import_s,
        "peak_alloc_mb": peak_alloc_mb,
        "layers": tracer.summary(),
        "counters": dict(tracer.counters),
    }
    with open(out_path, "w") as fh:
        json.dump(record, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 4:
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(run(sys.argv[1], sys.argv[2], sys.argv[3:]))
