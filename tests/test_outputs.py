"""What the output writers promise beyond their bytes: file modes that follow
the umask, refused repeated JSON keys, CSV string fields that read back
as one field each, and UTF-8 text whatever the locale."""
import csv
import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from grouplab.cli import main
from grouplab.config import write_csv
from grouplab.groups import make_group
from grouplab.hilbert import random_function
from support import functions_to_csv, l2_to_csv

# sets the umask given as argv[1], then runs each CLI command named after the
# config and output arguments, all in one process started with that umask
UMASK_SCRIPT = """\
import os, sys
os.umask(int(sys.argv[1], 8))
from grouplab.cli import main
config, out = sys.argv[2:4]
for command in sys.argv[4:]:
    if main([command, "--config", config, "--out", out]) != 0:
        sys.exit(f"{command} failed")
"""


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"]
)
def test_output_files_take_their_mode_from_the_umask(tmp_path, umask, mode):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(
        {"name": "exp", "group": "dihedral:5", "dump_coefficients": True, "test_set": "random:count=2,seed=0"}
    ))
    out = tmp_path / "out"
    subprocess.run(
        [sys.executable, "-c", UMASK_SCRIPT, oct(umask), str(cfg), str(out), "catalog", "parseval"],
        check=True,
    )
    files = sorted(out.iterdir())
    names = {p.name for p in files}
    # the catalog JSON, one dump file per label (written by forked workers
    # where more than one CPU is usable) and the parseval CSV
    assert {"exp_catalog.json", "exp_parseval.csv", "exp_coeffs_irrep-0.csv"} <= names
    assert len(names) == 2 + len(json.loads((out / "exp_catalog.json").read_text())["labels"])
    assert {p.name: oct(stat.S_IMODE(p.stat().st_mode)) for p in files} == {n: oct(mode) for n in names}


def _run_exits_2_naming(tmp_path, capsys, command, config_text, key):
    cfg = tmp_path / "exp.json"
    cfg.write_text(config_text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"repeats the key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_a_repeated_config_key_is_a_config_error(tmp_path, capsys):
    # json.loads alone keeps the last value and runs circle:32
    _run_exits_2_naming(
        tmp_path, capsys, "catalog", '{"name": "exp", "group": "circle:16", "group": "circle:32"}', "group"
    )


def test_a_repeated_iwasawa_key_is_a_config_error(tmp_path, capsys):
    text = (
        '{"name": "exp", "group": "circle:16", "iwasawa": {"K": "circle:16", "A": {"nodes": 4}, '
        '"N": {"nodes": 4}, "K": "circle:32"}}'
    )
    _run_exits_2_naming(tmp_path, capsys, "lift", text, "K")


def test_a_repeated_weights_table_key_is_a_config_error(tmp_path, capsys):
    table = tmp_path / "weights.json"
    table.write_text('{"gamma": [1, 1], "beta": [[1, 1], [1, 1]], "gamma": [2, 0.5]}')
    text = json.dumps({"name": "exp", "group": "sym:3", "weights": f"table:{table}", "test_set": "random:count=2,seed=0"})
    _run_exits_2_naming(tmp_path, capsys, "semicomplete", text, "gamma")


def test_csv_string_fields_are_quoted_only_where_needed(tmp_path):
    path = tmp_path / "t.csv"
    ids = np.array(["plain", "a,b", 'say "x"', "two\nlines", "cr\r"])
    write_csv(path, ["fn", "value"], [(ids, np.arange(5.0))])
    assert path.read_bytes() == b'fn,value\nplain,0\n"a,b",1\n"say ""x""",2\n"two\nlines",3\n"cr\r",4\n'
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["fn", "value"], *([fid, str(k)] for k, fid in enumerate(ids))]


def test_analysis_csvs_read_back_with_the_exact_ids(tmp_path):
    group = make_group("sym:3")
    odd = tmp_path / 'a,b"c\nd'
    odd.mkdir()
    samples = odd / "f.csv"
    l2_to_csv(random_function(group, 3), samples)
    entries = [f"samples:{samples}", "random:seed=1"]
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"name": "exp", "group": "sym:3", "test_set": entries}))
    out = tmp_path / "out"
    for command, fields in (("parseval", 4), ("isometry", 4), ("semicomplete", 2)):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / f"exp_{command}.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert len(header) == fields and all(len(row) == fields for row in rows), command
        assert [row[0] for row in rows] == [f"samples:{samples}", "random:1"], command


def test_samples_ids_that_need_quoting_round_trip_through_parseval(tmp_path):
    # write_csv quotes an id that holds a comma or a quote; the samples reader
    # must read it back as one field, and parseval write it back the same way
    group = make_group("sym:3")
    ids = ["a,b", 'say "x"']
    samples = tmp_path / "f.csv"
    functions_to_csv(ids, [random_function(group, seed) for seed in (1, 2)], samples)
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"name": "exp", "group": "sym:3", "test_set": f"samples:{samples}"}))
    out = tmp_path / "out"
    assert main(["parseval", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "exp_parseval.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(header) == 4 and all(len(row) == 4 for row in rows)
    assert [row[0] for row in rows] == ids


def test_text_files_are_utf8_under_an_ascii_locale(tmp_path):
    # under the C locale with UTF-8 mode off, Python's default text encoding is ASCII
    group = make_group("sym:3")
    samples = tmp_path / "s.csv"
    functions_to_csv(["\u00e9", "b"], [random_function(group, 1), random_function(group, 2)], samples)
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"name": "exp", "group": "sym:3", "test_set": f"samples:{samples}"}))
    ascii_env = {k: v for k, v in os.environ.items() if k != "PYTHONUTF8"}
    ascii_env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0")
    for out, flags, env in [("ascii", ["-X", "utf8=0"], ascii_env), ("default", [], None)]:
        result = subprocess.run(
            [sys.executable, *flags, "-m", "grouplab.cli", "parseval", "--config", str(cfg), "--out", str(tmp_path / out)],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
    written = (tmp_path / "ascii" / "exp_parseval.csv").read_bytes()
    assert written == (tmp_path / "default" / "exp_parseval.csv").read_bytes()
    assert written.splitlines()[1].startswith("\u00e9,".encode())
