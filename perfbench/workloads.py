"""Workload definitions: seeded JSON configs and the CLI invocations of one round.

A workload is a fixed sequence of ``grouplab`` invocations.  It starts with
one or more bare ``catalog`` calls labelled ``setup...`` (the set-up every
command pays); the rest exercise the layers the workload was chosen for.
The workload seed only selects the seeds of the random test set and of the
expansion weights; the program sees nothing but the config files written
here.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

#: Why each workload exists, in the words of BENCHMARK.json.
WHY = {
    "su2-spectral": (
        "su2:j=4 catalog, coefficient dump, parseval and semicomplete: the per-node "
        "Wigner loop and the CSV writer dominate; few large blocks"
    ),
    "circle-testset": (
        "circle:1024, 1023 characters, 128 test functions: per-function x per-label "
        "loops of tiny kernel calls dominate; many degree-1 blocks"
    ),
    "lift-grid": (
        "circle:128 lifted onto a 64x64 AN grid: the only run of iwasawa and the only "
        "workload bounded by memory (277 MB member matrix)"
    ),
}

WORKLOADS = tuple(WHY)


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``label`` names it in the results, ``config`` is a key of the configs."""

    label: str
    command: str
    config: str


def derive_seed(seed: int, purpose: str) -> int:
    """A 32-bit seed for one input, fixed by the workload seed and the input's purpose."""
    digest = hashlib.sha256(f"{seed}/{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _analysis(seed: int, group: str, omit: list[str], count: int) -> dict:
    return {
        "name": "analysis",
        "group": group,
        "omit": omit,
        "test_set": f"random:count={count},seed={derive_seed(seed, 'test_set')}",
        "weights": f"diag-reciprocal:seed={derive_seed(seed, 'weights')}",
    }


def configs(workload: str, seed: int) -> tuple[dict[str, dict], list[Invocation]]:
    """The config documents and the ordered invocations of one round."""
    if workload == "su2-spectral":
        docs = {
            "setup": {"name": "setup", "group": "su2:j=4"},
            "dump": {"name": "dump", "group": "su2:j=4", "dump_coefficients": True},
            "analysis": _analysis(seed, "su2:j=4", ["j:4"], 32),
        }
        calls = [
            Invocation("setup", "catalog", "setup"),
            Invocation("setup-2", "catalog", "setup"),
            Invocation("catalog", "catalog", "dump"),
            Invocation("parseval", "parseval", "analysis"),
            Invocation("semicomplete", "semicomplete", "analysis"),
        ]
    elif workload == "circle-testset":
        docs = {
            "setup": {"name": "setup", "group": "circle:1024"},
            "analysis": _analysis(seed, "circle:1024", ["m:511", "m:-511"], 128),
        }
        # Set-up here is mostly interpreter start and import, which spreads widely
        # from call to call, so each round samples it three times (su2-spectral,
        # whose rounds are longer, twice).
        calls = [
            Invocation("setup", "catalog", "setup"),
            Invocation("setup-2", "catalog", "setup"),
            Invocation("setup-3", "catalog", "setup"),
            Invocation("parseval", "parseval", "analysis"),
            Invocation("isometry", "isometry", "analysis"),
            Invocation("semicomplete", "semicomplete", "analysis"),
        ]
    elif workload == "lift-grid":
        docs = {
            "setup": {"name": "setup", "group": "circle:128", "truncation": 16},
            "lift": {
                "name": "lift",
                "group": "circle:128",
                "truncation": 16,
                "iwasawa": {
                    "K": "circle:128",
                    "A": {"range": [-2, 2], "nodes": 64},
                    "N": {"range": [-2, 2], "nodes": 64},
                    "profile": "gauss:sigma=0.7",
                    "truncation": 16,
                },
            },
        }
        calls = [
            Invocation("setup", "catalog", "setup"),
            Invocation("lift", "lift", "lift"),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return docs, calls


def config_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_configs(workload: str, seed: int, directory: Path) -> tuple[dict[str, Path], list[Invocation]]:
    """Write the workload's configs under ``directory``; return their paths and the invocations."""
    docs, calls = configs(workload, seed)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, doc in docs.items():
        paths[key] = directory / f"{key}.json"
        paths[key].write_text(config_text(doc))
    return paths, calls
