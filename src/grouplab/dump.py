"""The coefficient dump of ``catalog``: one CSV per label, written on every
usable CPU by forked workers, with files byte-identical to a one-process dump.

This module is imported only by a ``catalog`` run that dumps, so the other
commands neither compile nor hold it.
"""
from __future__ import annotations

import os
import sys
import traceback
from pathlib import Path

from . import config
from .catalog import RepCatalog


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity set); 1 where the platform
    cannot report them or cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def label_shares(labels, k: int) -> list[list]:
    """``labels`` split into ``k`` shares of about equal rows d^2: largest label
    first (catalog order among equals), each to the lightest share (the first
    of equals).  With ``k`` at most the number of labels no share is empty."""
    shares: list[list] = [[] for _ in range(k)]
    rows = [0] * k
    for lab in sorted(labels, key=lambda lab: -lab.degree):
        lightest = rows.index(min(rows))
        shares[lightest].append(lab)
        rows[lightest] += lab.degree**2
    return shares


def write_coefficient_dump(cat: RepCatalog, out_dir: Path, name: str) -> None:
    """Write ``<name>_coeffs_<label>.csv`` for every catalog label, split across
    the CPUs this process may use.

    The labels are cut into k = min(usable CPUs, labels) shares of about
    equal rows (``label_shares``).  k - 1 workers made with ``os.fork`` write
    shares 1 to k - 1 while this process writes share 0; with one CPU, or
    where the platform cannot fork, nothing is forked.  Every file is written
    by one process through ``config.write_csv``, so its bytes do not depend
    on k.  A worker only slices the read-only store and formats text, with no BLAS
    call and no thread.  It exits 0 when its share is written; on any
    exception it prints the traceback and exits 1.  Every worker is reaped,
    also when this process's own share fails; a failed worker then makes this
    raise ``RuntimeError`` naming its labels, an internal failure (CLI exit 1).

    On Python >= 3.12 ``os.fork`` issues a ``DeprecationWarning`` when the
    process has other threads, as it does once OpenBLAS has started its pool.
    The hazard it warns of, a lock held by another thread at the fork, does
    not reach the workers, which never enter BLAS.
    """
    shares = label_shares(cat.labels, min(_usable_cpus(), len(cat.labels)))
    workers: dict[int, list] = {}
    try:
        for share in shares[1:]:
            sys.stdout.flush()   # a failing worker flushes stderr: it must inherit no buffered text
            sys.stderr.flush()
            pid = os.fork()
            if pid == 0:
                _dump_worker(cat, out_dir, name, share)
            workers[pid] = share
        _write_coefficients(cat, out_dir, name, shares[0])
    finally:
        codes = {pid: os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in workers}
    failed = [lab.key for pid, share in workers.items() if codes[pid] != 0 for lab in share]
    if failed:
        raise RuntimeError(f"coefficient dump worker failed for labels {', '.join(failed)}")


def _dump_worker(cat: RepCatalog, out_dir: Path, name: str, share: list) -> None:
    """The body of a forked dump worker; it ends the process and never returns."""
    code = 1
    try:
        _write_coefficients(cat, out_dir, name, share)
        code = 0
    except BaseException:  # a forked worker must not unwind into its parent's stack
        traceback.print_exc()
    finally:
        sys.stderr.flush()
        os._exit(code)


def _write_coefficients(cat: RepCatalog, out_dir: Path, name: str, labels) -> None:
    for lab in labels:
        config.write_csv(
            Path(out_dir) / f"{name}_coeffs_{lab.key.replace(':', '-')}.csv",
            ["node", "i", "j", "re", "im"],
            config.coefficient_grid_text(cat, lab.key),
        )
