"""Print, as one JSON object, the environment a benchmark result was measured in.

Usage: PYTHONPATH=src python3 perfbench/envinfo.py REPO_ROOT

Records the git commit (read from ``.git`` when the checkout has one), a hash
of the package sources, the Python and numpy versions, the BLAS library and
its thread count, the CPUs this process may run on, whether numba is
importable and the kernel backend grouplab selected.  Importing grouplab here
also compiles its bytecode, so the first timed invocation does not pay for it.
"""
from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

import grouplab

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def git_commit(root: Path) -> str | None:
    """HEAD of ``root/.git`` without running git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        return None
    return None


def source_hash(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "grouplab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def blas_info() -> dict:
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = blas.get("name")
        info["version"] = blas.get("version")
    except (TypeError, KeyError):
        pass
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment(root: Path) -> dict:
    return {
        "git_commit": git_commit(root),
        "source_sha256": source_hash(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": grouplab.backend_name(),
        "GROUPLAB_KERNELS": os.environ.get("GROUPLAB_KERNELS"),
    }


if __name__ == "__main__":
    import grouplab.cli  # noqa: F401  (compiles the CLI's bytecode too)

    print(json.dumps(environment(Path(sys.argv[1])), sort_keys=True))
