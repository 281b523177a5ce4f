"""The coefficient dump of ``catalog``: one CSV per label, written on every
usable CPU by forked workers (``workers.run_shares``), with files
byte-identical to a one-process dump.

Each label's text comes from ``config.coefficient_grid_text``, which takes
the ``%.17g`` text of each distinct float64 bit pattern of the label from
``distinct_float_text``, converted once.  This module is imported only by a
``catalog`` run that dumps, so the other commands neither compile nor hold
it.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from . import config
from .catalog import RepCatalog
from .workers import run_shares, usable_cpus


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
    equal rows (``label_shares``), which ``workers.run_shares`` writes: share
    0 in this process, each other share in a forked worker.  Every file is
    written by one process through ``config.write_csv``, so its bytes do not
    depend on k.  A dump worker only slices the read-only store and formats
    text, with no BLAS call and no thread.  A share that fails fails the
    dump: this process's own with its exception, a worker's internal failure
    as a ``RuntimeError`` naming the worker's labels (CLI exit 1); the other
    shares are still written whole.
    """
    shares = label_shares(cat.labels, min(usable_cpus(), len(cat.labels)))

    def write(labels) -> bytes:
        _write_coefficients(cat, out_dir, name, labels)
        return b""

    run_shares(shares, write, lambda labels: (
        f"coefficient dump worker failed for labels {', '.join(lab.key for lab in labels)}"
    ))


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
