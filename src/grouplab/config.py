"""Experiment configuration parsing and deterministic CSV/JSON output.

Configs are a single JSON document.  All text outputs are deterministic for a
fixed config: CSV uses 17-significant-digit floats, '.' decimal separator,
',' field separator and '\\n' line endings; JSON is written with sorted keys;
files are written atomically (temp file + rename).

Weights, function and test-set specs follow the grammar of ``spec.py``, which
also defines ``ConfigError`` (re-exported here).  ``load_config`` parses every
spec, a test set's with the parsers that later build it, so a bad one is a
ConfigError before any catalog is built.  A test-set spec becomes a test set
that the analysis commands walk a chunk of rows at a time
(``stream_test_set``); ``build_test_set`` gives it whole.
"""
from __future__ import annotations

import itertools
import json
import os
import tempfile
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .catalog import RepCatalog, store_bytes
from .groups import GroupModel, grid_shape
from .hilbert import (
    ExpansionWeights,
    OrthonormalFamily,
    StreamedTestSet,
    TestSet,
    diag_reciprocal_weights,
    random_rows,
    unit_weights,
)
from .iwasawa import an_grid_bytes
from .semicomplete import SemicompletenessReport, validate_weights
from .spec import ConfigError, integer, is_finite, parse_params, parse_value, real, split_spec


class InvariantBreach(RuntimeError):
    """A numerical invariant of ``hilbert.CLI_INVARIANTS`` failed at runtime (CLI exit 3)."""


#: The top-level config keys the README's config reference documents; any
#: other key (a misspelling, or a ``seed``, which only ``--seed`` sets) is a
#: ConfigError rather than being dropped.
CONFIG_KEYS = frozenset({
    "name", "group", "truncation", "omit", "weights", "test_set",
    "epsilon", "tol", "out", "dump_coefficients", "iwasawa",
})
IWASAWA_KEYS = frozenset({"K", "A", "N", "profile", "truncation"})
AXIS_KEYS = frozenset({"range", "nodes"})


@dataclass
class IwasawaConfig:
    k_spec: str
    a_range: tuple[float, float]
    n_range: tuple[float, float]
    a_size: int
    n_size: int
    profile: str
    truncation: float | None


@dataclass
class ExperimentConfig:
    """A loaded config; ``load_config`` supplies every default."""

    name: str
    group_spec: str
    truncation: float | None
    omit: tuple[str, ...]
    weights: Callable[[int], ExpansionWeights]   # of the family's largest block size
    test_set_spec: object
    epsilon: float | None
    tol: float | None
    out_dir: Path
    dump_coefficients: bool
    iwasawa: IwasawaConfig | None
    seed_override: int | None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _require_known_keys(obj: dict, known: frozenset, where: str) -> None:
    unknown = sorted(set(obj) - known)
    _require(
        not unknown,
        f"unknown {where} key(s) {', '.join(map(repr, unknown))} "
        f"(accepted: {', '.join(sorted(known))})",
    )


def physical_memory_bytes() -> int | None:
    """The host's physical memory, or None where the platform cannot report it."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _require_fits(need: int, what: str) -> None:
    """``need`` bytes, sized from the config before anything is allocated,
    must fit in physical memory."""
    limit = physical_memory_bytes()
    if limit is not None and need > limit:
        size = f"{need:.3g} B" if need < 10**300 else "over 1e300 B"  # an int beyond float range
        raise ConfigError(f"{what} needs {size}, more than the {limit:.3g} B of physical memory")


def _require_store_fits(group_spec: str, truncation, keys: tuple[str, str]) -> None:
    """The catalog's coefficient store must fit in physical memory; sizing it checks the
    spec, then the truncation, by ``build_catalog``'s rules, naming the bad one's key."""
    key = keys[0]
    try:
        grid_shape(group_spec)
        key = keys[1]
        need = store_bytes(group_spec, truncation)
    except ConfigError as exc:
        raise ConfigError(f"'{key}': {exc}") from exc
    _require_fits(need, f"the coefficient store of '{keys[0]}' {group_spec!r}")


def _require_directory_path(path: str | None, what: str) -> None:
    """An output directory may not be, or lie under, an existing file: the
    nearest existing path among ``path`` and its parents must be a directory."""
    if path is not None:
        existing = next((p for p in (Path(path), *Path(path).parents) if p.exists()), None)
        _require(
            existing is None or existing.is_dir(),
            f"{what} {path!r} names or lies under the file {str(existing)!r}",
        )


def _require_positive(value, what: str) -> None:
    """A tolerance is absent or a finite positive number; bools, NaN and
    infinities never pass (an infinite epsilon would also be written to JSON
    as the invalid token ``Infinity``)."""
    _require(
        value is None or (is_finite(value) and value > 0),
        f"{what} must be a finite positive number, got {value!r}",
    )


def load_config(
    path: str | Path,
    out_override: str | None = None,
    seed_override: int | None = None,
    tol_override: str | float | None = None,
) -> ExperimentConfig:
    path = Path(path)
    _require(path.is_file(), f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "config must be a JSON object")
    _require_known_keys(raw, CONFIG_KEYS, "config")

    name = raw.get("name", path.stem)
    _require(  # it prefixes each output file name, so it may not name another directory
        isinstance(name, str) and name != "" and not set(name) & {"/", os.sep, os.altsep, "\0"},
        f"config 'name' must be a nonempty string with no path separator or NUL, got {name!r}",
    )
    group_spec = raw.get("group")
    _require(isinstance(group_spec, str), "config needs a 'group' spec string")

    omit = raw.get("omit", [])
    _require(
        isinstance(omit, list) and all(isinstance(k, str) for k in omit),
        "config 'omit' must be a list of label strings",
    )
    repeated = sorted(k for k, count in Counter(omit).items() if count > 1)
    _require(not repeated, f"config 'omit' repeats {', '.join(map(repr, repeated))}")
    if seed_override is not None:
        seed_override = parse_value(seed_override, _seed, "--seed")

    truncation = raw.get("truncation")
    _require_store_fits(group_spec, truncation, ("group", "truncation"))
    test_set = raw.get("test_set", "random:count=16,seed=0")
    if isinstance(test_set, list):   # parsed now, by the builders' parsers; drawn and read later
        TestSet.require_nonempty(len(test_set))
        for entry in test_set:
            _function_form(entry)
    else:
        _test_set_form(test_set, grid_shape(group_spec)[1], group_spec, seed_override)

    tol = raw.get("tol") if tol_override is None else parse_value(str(tol_override), real, "--tol")
    _require_positive(tol, "'tol'" if tol_override is None else "--tol")
    epsilon = raw.get("epsilon")
    _require_positive(epsilon, "'epsilon'")

    dump = raw.get("dump_coefficients", False)
    _require(isinstance(dump, bool), f"'dump_coefficients' must be true or false, got {dump!r}")

    out = raw.get("out", ".")
    _require(
        isinstance(out, str) and out != "" and "\0" not in out,
        f"config 'out' must be a nonempty string with no NUL, got {out!r}",
    )
    _require(out_override != "", "--out must not be empty")
    for where, directory in (("config 'out'", out), ("--out", out_override)):
        _require_directory_path(directory, where)
    return ExperimentConfig(
        name=name,
        group_spec=group_spec,
        truncation=truncation,
        omit=tuple(omit),
        weights=_weights_reader(raw.get("weights", "unit"), seed_override),
        test_set_spec=test_set,
        epsilon=epsilon,
        tol=tol,
        out_dir=Path(out if out_override is None else out_override),
        dump_coefficients=dump,
        iwasawa=_iwasawa_config(raw["iwasawa"]) if "iwasawa" in raw else None,
        seed_override=seed_override,
    )


def _iwasawa_config(blk) -> IwasawaConfig:
    """The 'iwasawa' block: strings ``K`` and ``profile``, a numeric ``truncation``,
    and per axis ``A``/``N`` an integer ``nodes`` >= 1 and a ``range`` of two
    finite numbers."""
    _require(isinstance(blk, dict), "'iwasawa' must be an object")
    _require_known_keys(blk, IWASAWA_KEYS, "'iwasawa'")
    axes = []
    for axis in ("A", "N"):
        sub = blk.get(axis, {})
        _require(isinstance(sub, dict), f"'iwasawa.{axis}' must be an object")
        _require_known_keys(sub, AXIS_KEYS, f"'iwasawa.{axis}'")
        rng = sub.get("range", [-2.0, 2.0])
        _require(
            isinstance(rng, list) and len(rng) == 2 and all(map(is_finite, rng)),
            f"'iwasawa.{axis}.range' must be two finite numbers, got {rng!r}",
        )
        nodes = sub.get("nodes", 32)
        _require(
            isinstance(nodes, int) and not isinstance(nodes, bool) and nodes >= 1,
            f"'iwasawa.{axis}.nodes' must be an integer >= 1, got {nodes!r}",
        )
        axes.append((tuple(rng), nodes))
    k_spec = blk.get("K", "circle:64")
    profile = blk.get("profile", "uniform")
    _require(
        isinstance(k_spec, str) and isinstance(profile, str),
        f"'iwasawa.K' and 'iwasawa.profile' must be strings, got {k_spec!r} and {profile!r}",
    )
    truncation = blk.get("truncation")
    _require_store_fits(k_spec, truncation, ("iwasawa.K", "iwasawa.truncation"))
    (a_range, a_size), (n_range, n_size) = axes
    _require_fits(an_grid_bytes(a_size, n_size), f"the {a_size} x {n_size} 'iwasawa' AN grid")
    return IwasawaConfig(k_spec, a_range, n_range, a_size, n_size, profile, truncation)


# ---------------------------------------------------------------------------
# weights / function / test-set specs


def build_weights(spec, n: int, seed_override: int | None = None) -> ExpansionWeights:
    """Parse a weights spec: 'unit' | 'diag-reciprocal:seed=S' (of dimension ``n``)
    | 'table:PATH' (of its own, which ``semi_fourier_expand`` checks)."""
    return _weights_reader(spec, seed_override)(n)


def _weights_reader(spec, seed_override: int | None) -> Callable[[int], ExpansionWeights]:
    """``build_weights`` as a function of n, with the spec and any table read now."""
    head, rest = split_spec(spec)
    if head == "unit":
        parse_params(rest, "unit weights")
        return unit_weights
    if head == "diag-reciprocal":
        seed = parse_params(rest, "weights", seed=_seed).get("seed", 0)
        if seed_override is not None:
            seed = seed_override
        return lambda n: diag_reciprocal_weights(n, seed)
    if head == "table":
        path = Path(rest)
        _require(path.is_file(), f"weights table not found: {path}")
        try:
            data = json.loads(path.read_text())
            table = ExpansionWeights(_complex_table(data["gamma"], 1), _complex_table(data["beta"], 2))
        except (KeyError, ValueError, TypeError, OverflowError, json.JSONDecodeError) as exc:
            raise ConfigError(f"malformed weights table {path}: {exc}") from exc
        return lambda n: table
    raise ConfigError(f"unknown weights spec {spec!r}")


def _seed(text) -> int:
    """A seed, in a spec or from ``--seed``: an unsigned 64-bit integer."""
    seed = integer(text)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is not an unsigned 64-bit integer")
    return seed


def _complex_table(obj, depth: int):
    """The complex values of lists nested ``depth`` deep whose entries are each
    a number or an ``[re, im]`` pair of numbers; a JSON boolean is not a number."""
    if depth:
        if not isinstance(obj, list):
            raise ValueError(f"expected a list, got {obj!r}")
        return [_complex_table(x, depth - 1) for x in obj]
    parts = obj if isinstance(obj, list) and len(obj) == 2 else [obj, 0]
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts):
        raise ValueError(f"cannot read complex value from {obj!r}")
    return complex(*parts)


def stream_test_set(
    spec,
    group: GroupModel,
    family: OrthonormalFamily | None = None,
    seed_override: int | None = None,
) -> TestSet | StreamedTestSet:
    """Parse a test-set spec into a test set walked a chunk of rows at a time.

    Forms: 'random:count=N,seed=S', 'members', 'samples:PATH' (CSV with
    fn,node,re,im rows), or a JSON list of single-function specs, each
    written into its own row: 'random:seed=S', 'member:block=B,i=I,j=J' (B is
    a block index or label), 'samples:PATH' (CSV with node,re,im rows).
    ``seed_override`` replaces only the seed of the 'random:count=N,seed=S'
    form; the 'random:seed=S' entries of a list keep theirs.

    Random rows, members and list entries make a ``StreamedTestSet``: one row
    writer per form fills each chunk when it is walked (a list's entries are
    parsed now, and a samples entry's file is read when its row is written).
    A 'samples:PATH' file is read once, whole, into a ``TestSet`` whose
    chunks are views of it.
    """
    if isinstance(spec, list):
        entries = [_function_writer(s, group, family) for s in spec]

        def write_entries(start: int, out: np.ndarray) -> None:
            for (_, write_row), row in zip(entries[start:start + len(out)], out):
                write_row(row)

        ids = [fid for fid, _ in entries]
        return StreamedTestSet(group, ids, f"list:{len(spec)}", lambda: write_entries)
    head, params = _test_set_form(spec, group.n_nodes, group.name, seed_override)
    if head == "random":
        count, seed = params
        ids = [f"random:{k}" for k in range(count)]
        return StreamedTestSet(
            group, ids, f"random:count={count},seed={seed}", lambda: random_rows(group, seed)
        )
    if head == "members":
        _require(family is not None, "'members' test set needs a family in context")

        def write_members(start: int, out: np.ndarray) -> None:
            rows = slice(start, start + len(out))
            np.multiply(family.members[rows], family.scale[rows, None], out=out)

        return StreamedTestSet(group, _member_ids(family), "members", lambda: write_members)
    from .samples import read_samples   # only a test set that reads a samples file compiles the reader

    ids, values = read_samples(group, params, named=True)
    return TestSet(group, values, ids, f"samples:{params}")


def build_test_set(
    spec,
    group: GroupModel,
    family: OrthonormalFamily | None = None,
    seed_override: int | None = None,
) -> TestSet:
    """The whole ``TestSet`` of a test-set spec: the rows of ``stream_test_set``
    in one (F, n_nodes) array, written in place by the same row writers."""
    test_set = stream_test_set(spec, group, family, seed_override)
    return test_set if isinstance(test_set, TestSet) else test_set.whole()


def _test_set_form(spec, n_nodes: int, group_name: str, seed_override: int | None):
    """``(head, params)`` of a test-set spec that is not a list, checked from the
    spec alone: 'random' gives ``(count, seed)`` (``_random_test_set``),
    'members' None and 'samples' its path, which must name a file.  Nothing is
    drawn and no file read, so ``load_config`` checks a spec with it before
    any catalog is built."""
    head, rest = split_spec(spec)
    if head == "random":
        return head, _random_test_set(rest, n_nodes, group_name, seed_override)
    if head == "members":
        parse_params(rest, "members test set")
        return head, None
    if head == "samples":
        _samples_file(rest)
        return head, rest
    raise ConfigError(f"unknown test set spec {spec!r}")


def _function_form(spec) -> tuple[str, object]:
    """``(head, params)`` of one list entry, checked from the spec alone:
    'random' gives its seed, 'member' its ``(block, i, j)`` and 'samples' its
    path, which must name a file."""
    head, rest = split_spec(spec)
    if head == "random":
        return head, parse_params(rest, "function", seed=_seed).get("seed", 0)
    if head == "member":
        params = parse_params(rest, "member function", block=str, i=integer, j=integer)
        _require(len(params) == 3, f"member spec {spec!r} needs block, i and j")
        return head, (params["block"], params["i"], params["j"])
    if head == "samples":
        _samples_file(rest)
        return head, rest
    raise ConfigError(f"unknown function spec {spec!r}")


def _function_writer(
    spec, group: GroupModel, family: OrthonormalFamily | None
) -> tuple[str, Callable[[np.ndarray], object]]:
    """The id of one list entry's function and a writer of its values into a row."""
    head, params = _function_form(spec)
    if head == "random":
        return f"random:{params}", lambda row: random_rows(group, params)(0, row[None])
    if head == "member":
        _require(family is not None, "member function spec needs a family in context")
        blk, i, j = params
        try:
            block_index = family.labels.index(blk) if blk in family.labels else integer(blk)
        except ValueError:
            block_index = None
        _require(block_index is not None and 0 <= block_index < len(family.blocks), f"unknown block {blk!r}")
        b = family.blocks[block_index]
        _require(0 <= i < b.size and 0 <= j < b.size, f"member index out of range in {spec!r}")
        k = family.flat_index(block_index, i, j)
        return f"member:{b.label}[{i}][{j}]", lambda row: np.multiply(family.scale[k], family.members[k], out=row)
    from .samples import read_samples

    return f"samples:{params}", lambda row: read_samples(group, params, named=False, out=row[None])


def _random_test_set(rest: str, n_nodes: int, group_name: str, seed_override: int | None):
    """``(count, seed)`` of a 'random:count=N,seed=S' test set, checked against ``n_nodes``."""
    params = parse_params(rest, "test set", count=integer, seed=_seed)
    count, seed = params.get("count", 16), params.get("seed", 0)
    _require(count >= 0, "test set count must be nonnegative")
    TestSet.require_nonempty(count)
    need = count * n_nodes * np.dtype(np.complex128).itemsize
    _require_fits(need, f"the 'test_set' of {count} random functions on {group_name}")
    return count, seed if seed_override is None else seed_override


# ---------------------------------------------------------------------------
# deterministic writers


#: Rows formatted by one ``%`` template; bounds the text held in memory at once.
CSV_CHUNK_ROWS = 8192

#: printf conversion by numpy dtype kind; every other kind goes through str().
_CONVERSIONS = {"i": "%d", "u": "%d", "f": "%.17g"}


def write_csv(path: str | Path, header: list[str], blocks) -> None:
    """Write a header line and then every block of rows, a chunk at a time.

    ``blocks`` is an iterable whose blocks are each written as soon as they
    arrive, so a streamed export is never held whole.  A ``str`` block is rows
    already formatted, written as it is.  Any other block is a tuple of
    columns, one per header field, all of one length, each converted with
    ``np.asarray``: integer columns print with ``%d``, float columns with
    ``%.17g`` (the digits of ``format(x, ".17g")``) and any other column with
    ``str()``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    chunks = itertools.chain([",".join(header) + "\n"], _csv_chunks(blocks, len(header)))
    _atomic_write(path, chunks)


def _csv_chunks(blocks, n_fields: int):
    for block in blocks:
        if isinstance(block, str):
            yield block
            continue
        cols = [np.asarray(c) for c in block]
        if len(cols) != n_fields or any(c.shape != cols[0].shape or c.ndim != 1 for c in cols):
            raise ValueError(f"a CSV block needs {n_fields} one-dimensional columns of one length")
        line = ",".join(_CONVERSIONS.get(c.dtype.kind, "%s") for c in cols) + "\n"
        for start in range(0, len(cols[0]), CSV_CHUNK_ROWS):
            part = [c[start:start + CSV_CHUNK_ROWS].tolist() for c in cols]
            yield (line * len(part[0])) % tuple(itertools.chain.from_iterable(zip(*part)))


def write_json(path: str | Path, obj) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # a NaN or infinity would be written as a bare NaN or Infinity, which is not JSON
    _atomic_write(path, [json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"])


def _atomic_write(path: Path, chunks) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# serialization of domain objects


def catalog_json_obj(cat: RepCatalog) -> dict:
    return {
        "group": cat.group.name,
        "labels": [
            {"label": lab.key, "degree": lab.degree, "magnitude": lab.magnitude}
            for lab in cat.labels
        ],
    }


def coefficient_grid_text(cat: RepCatalog, label_key: str):
    """CSV rows (node,i,j,re,im) of one label's cached coefficient grid, as text
    blocks for ``write_csv``.

    Rows run node-major, then i, then j; each block is a slab of whole nodes,
    about ``CSV_CHUNK_ROWS`` rows.  The d^2 rows of one node are one template
    with ``i,j`` as literal text, each node number is stamped into it once,
    and one ``%`` fills a slab's template with the text of its (re, im)
    floats.  That text comes from a table of the label's distinct float64 bit
    patterns, each converted with ``%.17g`` once (``dump.distinct_float_text``):
    the grids repeat values, and bit patterns keep ``0.0`` and ``-0.0`` apart.
    The bytes are those of ``%d`` and ``%.17g`` applied row by row.
    """
    from .dump import distinct_float_text   # only a run that dumps compiles the table code

    grid = cat.grids[label_key]
    n, d, _ = grid.shape
    # a grid is the transpose of its store rows: row i*d + j holds the (re, im) pairs node by node
    codes, table = distinct_float_text(np.ascontiguousarray(grid.transpose(1, 2, 0)).view(np.float64))
    codes = codes.reshape(d * d, n, 2)
    # (b"%d" % k).join(rows) is node k's text: k before each of the d^2 rows
    rows = [b""] + [b",%d,%d,%%s,%%s\n" % (i, j) for i in range(d) for j in range(d)]
    step = max(1, CSV_CHUNK_ROWS // (d * d))
    for start in range(0, n, step):
        slab = codes[:, start:start + step].transpose(1, 0, 2).reshape(-1)
        template = b"".join([(b"%d" % k).join(rows) for k in range(start, min(start + step, n))])
        yield (template % tuple(table[slab].tolist())).decode("ascii")


def _samples_file(path) -> Path:
    """The file a samples spec names; a missing one is a ConfigError."""
    path = Path(path)
    _require(path.is_file(), f"samples file not found: {path}")
    return path


def _member_ids(family: OrthonormalFamily) -> list[str]:
    """``member:<label>[i][j]`` for every family member, in flat order."""
    return [f"member:{label}[{i}][{j}]" for label, i, j in family.flat_positions()]


def weights_hash(weights: ExpansionWeights) -> str:
    import hashlib  # only here, so a CLI run that writes no report never loads OpenSSL

    h = hashlib.sha256()
    h.update(np.ascontiguousarray(weights.gamma).tobytes())
    h.update(np.ascontiguousarray(weights.beta).tobytes())
    return h.hexdigest()


def report_json_obj(report: SemicompletenessReport) -> dict:
    diag = validate_weights(report.weights)
    return {
        "epsilon": report.epsilon,
        "weights_hash": weights_hash(report.weights),
        "per_function": [
            {"fn": fid, "defect": defect} for fid, defect in report.per_function
        ],
        "max_defect": report.max_defect,
        "test_set": report.test_set,
        "within_epsilon": report.within_epsilon,
        "weight_diagnostic": {
            "diagonal_violations": [
                {"index": i, "residual": r} for i, r in diag.diagonal_violations
            ],
            # ExpansionWeights rejects zero entries; the keys keep the report's schema
            "zero_gamma": [],
            "zero_beta": [],
            "admissible": diag.admissible,
        },
    }
