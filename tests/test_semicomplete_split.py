"""The test-set walk of ``semicomplete``, split across forked workers.

As in ``test_dump.py``, the worker count is varied by replacing
``os.sched_getaffinity`` and forks are counted by wrapping ``os.fork``.  A
test set walks in chunks of 32 rows, so 100 functions make 4 chunks, and
with 3 CPUs the shares are rows 0-31, 32-63 and 64-99.
"""
import json
import os
import subprocess
import sys

import pytest

from grouplab import semicomplete
from grouplab.cli import main
from grouplab.spec import ConfigError
from test_dump import assert_reaped, use_cpus

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="the split walk needs os.fork and os.sched_getaffinity",
)

LIST_SET = [f"random:seed={k}" for k in range(30)] + [
    f"member:block=m:{m},i=0,j=0" for m in range(-20, 21)
]

#: name -> (config fields, chunks of its test set)
CONFIGS = {
    "circle-100": (dict(group="circle:64", test_set="random:count=100,seed=11"), 4),
    "su2-70": (dict(group="su2:j=2", test_set="random:count=70,seed=11"), 3),
    "dihedral-70": (dict(group="dihedral:64", test_set="random:count=70,seed=11"), 3),
    "members": (dict(group="dihedral:64", test_set="members"), 4),
    "list": (dict(group="circle:64", test_set=LIST_SET), 3),
}


def write_config(tmp_path, **fields):
    path = tmp_path / "exp.json"
    cfg = {"name": "exp", "weights": "diag-reciprocal:seed=4", **fields}
    path.write_text(json.dumps(cfg))
    return path


def run(cfg, out, *flags):
    return main(["semicomplete", "--config", str(cfg), "--out", str(out), *flags])


def outputs(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("case", list(CONFIGS))
def test_semicomplete_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, case):
    fields, n_chunks = CONFIGS[case]
    cfg = write_config(tmp_path, **fields)
    written = []
    for k in (1, 2, 3):
        pids = use_cpus(monkeypatch, k)
        out = tmp_path / f"out{k}"
        assert run(cfg, out) == 0
        assert len(pids) == min(k, n_chunks) - 1
        assert_reaped(pids)
        written.append(outputs(out))
    assert sorted(written[0]) == ["exp_semicomplete.csv", "exp_semicomplete.json"]
    assert written[0] == written[1] == written[2]


@pytest.mark.parametrize("count", [1, 32, 33])
def test_a_one_chunk_test_set_forks_nothing(tmp_path, monkeypatch, count):
    # a last single row joins the chunk before it, so 33 rows are one chunk
    cfg = write_config(tmp_path, group="circle:16", test_set=f"random:count={count},seed=1")
    pids = use_cpus(monkeypatch, 3)
    assert run(cfg, tmp_path / "out") == 0
    assert pids == []


def samples_with_vast_rows(tmp_path, vast):
    """100 functions on zn:2, zero but for the rows in ``vast``, which are 1."""
    lines = ["fn,node,re,im"]
    for k in range(100):
        value = 1 if k in vast else 0
        lines += [f"f{k},0,{value},0", f"f{k},1,{value},0"]
    path = tmp_path / "vast.csv"
    path.write_text("\n".join(lines) + "\n")
    (tmp_path / "large.json").write_text('{"gamma": [1e200], "beta": [[1.0]]}')
    return write_config(
        tmp_path, group="zn:2", test_set=f"samples:{path}", weights=f"table:{tmp_path}/large.json"
    )


@pytest.mark.parametrize("vast, first", [
    ({70}, 70),             # in the last worker's share only
    ({90, 70}, 70),         # twice in one worker's share
    ({40, 70}, 40),         # in two workers' shares: the earlier row wins
    ({10, 70}, 10),         # in this process's share and a worker's
])
def test_an_overflow_in_a_worker_exits_2_with_the_sequential_message(
    tmp_path, monkeypatch, capsys, vast, first
):
    cfg = samples_with_vast_rows(tmp_path, vast)
    messages = []
    for k in (1, 3):
        pids = use_cpus(monkeypatch, k)
        assert run(cfg, tmp_path / "out") == 2
        assert len(pids) == k - 1
        assert_reaped(pids)
        messages.append(capsys.readouterr().err)
    assert messages[0] == messages[1]
    assert messages[0] == f"config error: expansion weights overflow: the defect of f{first} is not finite\n"
    assert not (tmp_path / "out").exists()


def test_an_internal_failure_in_a_worker_names_its_rows(tmp_path, monkeypatch, capfd):
    defect = semicomplete._defect

    def failing_defect(full, weighted, fid):
        if fid == "random:70":
            raise ValueError("broken row")
        return defect(full, weighted, fid)

    monkeypatch.setattr(semicomplete, "_defect", failing_defect)
    cfg = write_config(tmp_path, group="circle:16", test_set="random:count=100,seed=1")
    pids = use_cpus(monkeypatch, 3)
    with pytest.raises(RuntimeError) as info:
        run(cfg, tmp_path / "out")
    assert str(info.value) == "semicomplete worker failed for test set rows 64-99"
    assert len(pids) == 2
    assert_reaped(pids)
    err = capfd.readouterr().err
    assert "Traceback" in err and "ValueError: broken row" in err
    assert not (tmp_path / "out").exists()


def test_an_internal_failure_before_a_worker_config_error_wins(tmp_path, monkeypatch, capfd):
    # rows 32-63 fail inside, rows 64-99 with a ConfigError: the first in order decides
    defect = semicomplete._defect

    def failing_defect(full, weighted, fid):
        if fid == "random:40":
            raise ValueError("broken row")
        if fid == "random:70":
            raise ConfigError("late config error")
        return defect(full, weighted, fid)

    monkeypatch.setattr(semicomplete, "_defect", failing_defect)
    cfg = write_config(tmp_path, group="circle:16", test_set="random:count=100,seed=1")
    pids = use_cpus(monkeypatch, 3)
    with pytest.raises(RuntimeError, match="rows 32-63$"):
        run(cfg, tmp_path / "out")
    assert_reaped(pids)


def test_a_failing_own_share_reaps_a_worker_holding_more_than_a_pipe_buffer(tmp_path):
    # 20,000 functions on zn:3: the worker's share is 10,000 defects, 80,000
    # bytes, more than a 64 KiB pipe holds, and this process's share fails at
    # its first row; the run must read the pipe, reap the worker and exit 2
    cfg = write_config(tmp_path, group="zn:3", test_set="random:count=20000,seed=1")
    out = tmp_path / "out"
    script = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from grouplab import cli, semicomplete\n"
        "from grouplab.spec import ConfigError\n"
        "defect = semicomplete._defect\n"
        "def failing_defect(full, weighted, fid):\n"
        "    if fid == 'random:0':\n"
        "        raise ConfigError('row 0 fails')\n"
        "    return defect(full, weighted, fid)\n"
        "semicomplete._defect = failing_defect\n"
        f"code = cli.main(['semicomplete', '--config', {str(cfg)!r}, '--out', {str(out)!r}])\n"
        "try:\n"
        "    os.wait()\n"
        "except ChildProcessError:\n"
        "    sys.exit(code)\n"
        "sys.exit(99)   # a child was left unreaped\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr == "config error: row 0 fails\n"
    assert not out.exists()
