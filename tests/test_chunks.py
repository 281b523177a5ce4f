"""The analysis commands walk a test set in chunks of rows.  Their files are
byte-identical to those of the whole-array reduction ``support.oracle_analysis``
on every test-set form, at sizes on both sides of a chunk boundary, and a
run holds one chunk of test functions, not all of them."""
import json
import tracemalloc

import numpy as np
import pytest

from grouplab import config as cfgmod
from grouplab.catalog import _CIRCLE_SLAB_ENTRIES, build_catalog
from grouplab.cli import main
from grouplab.groups import make_group
from grouplab.hilbert import TEST_CHUNK_ROWS, TestSet, chunk_slices
from support import functions_to_csv, l2_to_csv, oracle_analysis, oracle_random_functions, stack

GROUPS = ["zn:12", "dihedral:5", "sym:4", "circle:64", "su2:j=2"]
SIZES = [1, 31, 32, 33, 70]
COMMANDS = ("parseval", "isometry", "semicomplete")


def _spec(form: str, size: int, group, tmp_path):
    """A test-set spec of ``form`` with ``size`` functions on ``group``."""
    if form == "random":
        return f"random:count={size},seed=5"
    if form == "samples":
        path = tmp_path / f"samples{size}.csv"
        functions_to_csv([f"s{k}" for k in range(size)], oracle_random_functions(group, 9, size), path)
        return f"samples:{path}"
    one = tmp_path / "one.csv"
    l2_to_csv(oracle_random_functions(group, 3, 1)[0], one)
    n_blocks = len(build_catalog(group).blocks)
    return [
        (f"random:seed={k}", f"member:block={k % n_blocks},i=0,j=0", f"samples:{one}")[k % 3]
        for k in range(size)
    ]


def _same_files(tmp_path, config: dict) -> None:
    tmp_path.mkdir(exist_ok=True)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"weights": "diag-reciprocal:seed=4", "epsilon": 0.5, **config}))
    streamed, whole = tmp_path / "streamed", tmp_path / "whole"
    for command in COMMANDS:
        assert main([command, "--config", str(path), "--out", str(streamed)]) == 0
    oracle_analysis(cfgmod.load_config(path, out_override=str(whole)))
    files = sorted(p.name for p in streamed.iterdir())
    assert files == sorted(p.name for p in whole.iterdir()) and len(files) == 4
    for name in files:
        assert (streamed / name).read_bytes() == (whole / name).read_bytes(), name


@pytest.mark.parametrize("form", ["random", "samples", "list"])
@pytest.mark.parametrize("group", GROUPS)
def test_chunked_files_equal_the_whole_array_oracle(tmp_path, group, form):
    for size in SIZES:
        spec = _spec(form, size, make_group(group), tmp_path)
        _same_files(tmp_path / str(size), {"name": f"f{size}", "group": group, "test_set": spec})


@pytest.mark.parametrize("group, fields", [
    *((g, {}) for g in GROUPS),                           # 12, 10, 24, 63 and 55 members
    *(("circle:64", {"truncation": t}) for t in (0, 15, 16)),     # 1, 31 and 33
    ("circle:64", {"truncation": 16, "omit": ["m:16"]}),          # 32
    ("circle:128", {"truncation": 35, "omit": ["m:35"]}),         # 70
])
def test_chunked_members_files_equal_the_whole_array_oracle(tmp_path, group, fields):
    _same_files(tmp_path, {"name": "members", "group": group, "test_set": "members", **fields})


@pytest.mark.parametrize("count", [1, 2, 31, 32, 33, 34, 64, 65, 70, 97])
def test_chunks_start_at_multiples_of_32_rows_and_none_is_one_row_of_many(count):
    slices = chunk_slices(count)
    assert slices[0].start == 0 and slices[-1].stop == count
    assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))
    assert all(s.start % TEST_CHUNK_ROWS == 0 for s in slices)
    sizes = [s.stop - s.start for s in slices]
    assert all(size <= TEST_CHUNK_ROWS for size in sizes[:-1])
    assert sizes[-1] <= TEST_CHUNK_ROWS + 1 and (count == 1 or sizes[-1] > 1)


def test_random_chunks_are_the_rows_of_the_whole_draw():
    group = make_group("circle:16")
    streamed = cfgmod.stream_test_set("random:count=70,seed=2", group)
    whole = stack(oracle_random_functions(group, 2, 70)).values
    for _ in range(2):      # each walk starts its own generator
        rows = np.concatenate([chunk.values.copy() for chunk in streamed.chunks()])
        assert rows.tobytes() == whole.tobytes()
    assert streamed.whole().values.tobytes() == whole.tobytes()
    chunks = TestSet(group, whole).chunks()
    assert [len(c) for c in chunks] == [32, 32, 6]


@pytest.mark.parametrize("test_set", ["random:count=128,seed=1", "members"])
def test_parseval_holds_the_store_and_one_chunk_of_test_functions(tmp_path, test_set):
    # circle:1024 without its top pair, as in the circle-testset benchmark: the
    # 1021 members are a view of the 16.7 MB store.  Beside the store a run
    # may hold the Gram check's slab (an int64 index slab, the members' slab,
    # its table values and their distances: 3 MiB at 65,536 entries) and one
    # chunk of 32 test functions (the chunk and f * w, 0.5 MiB each) with
    # their coefficients (0.5 MiB, and 0.25 MiB each for the moduli and their
    # squares), plus 0.5 MiB of ids, columns and CSV text.  The whole test set
    # with its coefficients held 7 MiB more, and 'members' copied the store.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "name": "exp", "group": "circle:1024", "omit": ["m:511", "m:-511"], "test_set": test_set,
    }))
    n, members = 1024, 1021
    store = 1023 * n * 16
    gram_slab = _CIRCLE_SLAB_ENTRIES * (8 + 16 + 16 + 8)
    chunk = TEST_CHUNK_ROWS * (2 * n * 16 + members * (16 + 8 + 8))
    tracemalloc.start()
    try:
        assert main(["parseval", "--config", str(path), "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= store + gram_slab + chunk + 2**19, f"peak traced allocation {peak / 2**20:.2f} MiB"
