"""The reader of samples files, the CSVs of ``[fn,]node,re,im`` rows that the
``samples:PATH`` test-set and function specs name.

A file is read once, ``config.CSV_CHUNK_ROWS`` records at a time, by the
stdlib ``csv`` reader, so an ``fn`` id that ``config.write_csv`` quoted reads
back as written; each chunk's node and value columns are checked whole by
the rules of ``spec``:
a node index is an ``integer``, each part of a sample a finite ``real``.
This module is imported only when a test set reads a samples file, so the
other runs neither compile nor hold it.
"""
from __future__ import annotations

import bisect
import csv
import itertools
import re
from pathlib import Path

import numpy as np

from . import config
from .groups import GroupModel
from .spec import ConfigError, integer, parse_value, real

# a column of texts joined by newlines, checked by one match: the rules of
# ``spec.integer`` and ``spec.real``, line by line
_INTEGER_LINES = re.compile(r"(?:-?[0-9]+\n)*")
_NOT_REAL_CHAR = re.compile(r"[^\x00-\x7f]|_")


def read_samples(group: GroupModel, path, named: bool, out: np.ndarray | None = None):
    """The ids and the (F, n_nodes) values of the functions in a samples file,
    the values written into ``out`` when it is given.

    Without the fn column the file holds one function, with id "".  Ids come
    in order of first appearance.  Every function must give each node
    exactly once.  A bad file is a ConfigError on its first bad line, and on
    that line on the first of: the node index, its range, its repeat, the
    real part, the imaginary part; a function with nodes missing is named
    once every line has passed.
    """
    path = config._samples_file(path)
    header = ["fn", "node", "re", "im"] if named else ["node", "re", "im"]
    n = group.n_nodes
    row_of = {} if named else {"": 0}
    fns, nodes, samples = [], [], []    # per chunk, of its lines before the first bad one
    with open(path, newline="") as fh:
        for chunk, broken in _read_csv_chunks(fh, path, header):
            cols = list(zip(*chunk)) or [()] * len(header)
            for fid in dict.fromkeys(cols[0]) if named else ():
                row_of.setdefault(fid, len(row_of))
            fn = (np.fromiter(map(row_of.__getitem__, cols[0]), np.intp, len(chunk)) if named
                  else np.zeros(len(chunk), np.intp))
            k = leading_integers(cols[-3])
            if k and not 0 <= min(k) <= max(k) < n:
                k = k[:next(r for r, x in enumerate(k) if not 0 <= x < n)]
            re_part, im_part = _finite_prefix(cols[-2]), _finite_prefix(cols[-1])
            passed = min(len(k), len(re_part), len(im_part))
            fns.append(fn[:len(k)])
            nodes.append(np.array(k, dtype=np.intp))
            samples.append(re_part[:passed] + 1j * im_part[:passed])
            if broken is not None or passed < len(chunk):
                break
    fn, k, values = (np.concatenate(parts) for parts in (fns, nodes, samples))
    ids = list(row_of)

    def where(fid: str) -> str:
        return f"function {fid!r} of {path}" if named else str(path)

    # the first bad line is line len(values); a repeat on it comes before its values
    repeat = _first_repeat(fn * n + k)
    if repeat < len(k) and repeat <= len(values):
        raise ConfigError(f"node index {k[repeat]} repeated in {where(ids[fn[repeat]])}")
    if passed < len(chunk):   # the rules that failed on the bad line raise, in order
        node = parse_value(chunk[passed][-3], integer, f"node index in {path}")
        if not 0 <= node < n:
            raise ConfigError(f"node index {node} out of range in {path}")
        what = f"sample value in {path}"
        parse_value(chunk[passed][-2], real, what)
        parse_value(chunk[passed][-1], real, what)
    if broken is not None:
        raise broken
    for fid, count in zip(ids, np.bincount(fn, minlength=len(ids))):
        if count != n:
            raise ConfigError(f"{where(fid)} misses {n - count} of {n} nodes")
    if out is None:
        out = np.empty((len(ids), n), dtype=np.complex128)
    out[fn, k] = values
    return ids, out


def leading_integers(texts) -> list[int]:
    """``spec.integer`` of each of ``texts``, up to the first that is not one."""
    joined = "\n".join(texts)
    if texts and joined.count("\n") >= len(texts):   # a quoted cell may hold a newline, no integer does
        texts = texts[:next(r for r, text in enumerate(texts) if "\n" in text)]
        joined = "\n".join(texts)
    good = _INTEGER_LINES.match(joined + "\n").group().count("\n")
    return list(map(int, texts[:good]))


def leading_reals(texts) -> list[float]:
    """``spec.real`` of each of ``texts``, up to the first that is not one."""
    joined = "\n".join(texts)
    if not joined.isascii() or "_" in joined:
        # the text holding the first bad character, by the texts' end offsets in joined
        ends = list(itertools.accumulate(len(text) + 1 for text in texts))
        texts = texts[:bisect.bisect_right(ends, _NOT_REAL_CHAR.search(joined).start())]
    try:
        return list(map(float, texts))
    except ValueError:   # a bad file only: read up to the text float() rejects
        values = []
        for text in texts:
            try:
                values.append(float(text))
            except ValueError:
                break
        return values


def _finite_prefix(texts) -> np.ndarray:
    """The floats of ``texts`` up to the first that is not a finite number by
    the ``real`` rule: NaN or infinity would slip past every defect check."""
    values = np.array(leading_reals(texts), dtype=np.float64)
    finite = np.isfinite(values)
    return values if finite.all() else values[:np.argmin(finite)]


def _first_repeat(keys: np.ndarray) -> int:
    """The index of the first key equal to an earlier one; ``len(keys)`` when none is."""
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    return int(repeats.min()) if len(repeats) else len(keys)


def _read_csv_chunks(fh, path: Path, header: list[str]):
    """``(rows, error)`` for a CSV file opened with ``newline=""``,
    ``config.CSV_CHUNK_ROWS`` records at a time, each row a list of its cells
    as ``csv.reader`` reads them; the last chunk is shorter, maybe empty.
    Blank lines are skipped, and so is a first row that is ``header``.  A row
    with another number of cells ends the file: its chunk holds the rows
    before it and the ConfigError on it, as does a chunk cut short by text
    that is not UTF-8 or that the reader refuses."""
    size = config.CSV_CHUNK_ROWS
    records = csv.reader(fh)
    first = True
    try:
        while True:
            chunk = list(itertools.islice(records, size))
            rows = [row for row in chunk if row and (len(row) > 1 or not row[0].isspace())]
            if first and rows:
                first = False
                if rows[0] == header:
                    del rows[0]
            if not set(map(len, rows)) <= {len(header)}:
                bad = next(r for r, row in enumerate(rows) if len(row) != len(header))
                yield rows[:bad], ConfigError(f"{path}: expected {len(header)} columns, got {len(rows[bad])}")
                return
            yield rows, None
            if len(chunk) < size:
                return
    except UnicodeDecodeError as exc:
        yield [], ConfigError(f"{path} is not a text file: {exc}")
    except csv.Error as exc:
        yield [], ConfigError(f"{path} is not a CSV file: {exc}")
