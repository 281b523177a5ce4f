"""The coefficient dump of ``catalog``: one CSV per label, written on every
usable CPU by forked workers, with files byte-identical to a one-process dump.

Each label's text comes from ``config.coefficient_grid_text``, which takes
the ``%.17g`` text of each distinct float64 bit pattern of the label from
``distinct_float_text``, converted once.  This module is imported only by a
``catalog`` run that dumps, so the other commands neither compile nor hold
it.
"""
from __future__ import annotations

import os
import sys
import traceback
from pathlib import Path

import numpy as np

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


def distinct_float_text(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(codes, table)`` for a C-contiguous float64 array: ``table`` holds the
    ``%.17g`` text of each distinct bit pattern, in bit order, as ``S24`` (the
    longest such text has 24 characters); ``codes`` is the int32 row of
    ``table`` for each value, flat.  The text is made ``config.CSV_CHUNK_ROWS``
    values at a time."""
    codes, distinct = _distinct_codes(values.view(np.uint64).reshape(-1))
    distinct = np.concatenate(distinct).view(np.float64)
    table = np.empty(len(distinct), dtype="S24")
    step = config.CSV_CHUNK_ROWS
    for start in range(0, len(distinct), step):
        part = distinct[start:start + step].tolist()
        table[start:start + len(part)] = (b"%.17g\n" * len(part) % tuple(part)).split(b"\n")[:-1]
    return codes, table


def _distinct_codes(keys: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The int32 rank of each key among the distinct keys, and the distinct
    keys in order as a list of pieces.  One argsort orders the keys; its
    index is walked ``config.CSV_CHUNK_ROWS`` entries at a time and is freed on
    return, before any text is made."""
    order = np.argsort(keys)
    codes = np.empty(len(keys), dtype=np.int32)
    distinct = []
    n_distinct = 0
    step = config.CSV_CHUNK_ROWS
    for start in range(0, len(keys), step):
        at = order[start:start + step]
        run = keys[at]
        new = np.empty(len(run), dtype=bool)
        new[0] = start == 0 or run[0] != keys[order[start - 1]]
        np.not_equal(run[1:], run[:-1], out=new[1:])
        ranks = np.cumsum(new, dtype=np.int32)
        ranks += n_distinct - 1
        codes[at] = ranks
        n_distinct = int(ranks[-1]) + 1
        distinct.append(run[new])
    return codes, distinct
