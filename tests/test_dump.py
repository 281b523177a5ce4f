"""The coefficient dump of ``catalog``, split across forked workers.

The worker count is varied by replacing ``os.sched_getaffinity``; forks are
counted by wrapping ``os.fork``, so every test knows which processes it made.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from grouplab import config as cfgmod
from grouplab.catalog import build_catalog
from grouplab.cli import main
from grouplab.dump import label_shares
from grouplab.groups import make_group

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="the split dump needs os.fork and os.sched_getaffinity",
)


def write_config(tmp_path, group):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"name": "exp", "group": group, "dump_coefficients": True}))
    return path


def use_cpus(monkeypatch, k):
    """Make the dump see ``k`` usable CPUs and return the pids it forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def dump_files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.glob("exp_coeffs_*.csv"))}


@pytest.mark.parametrize("group, n_labels", [("sym:4", 5), ("circle:16", 15), ("su2:j=1.5", 4)])
def test_dump_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, group, n_labels):
    cfg = write_config(tmp_path, group)
    dumps = []
    for k in (1, 2, 3):
        pids = use_cpus(monkeypatch, k)
        out = tmp_path / f"out{k}"
        assert main(["catalog", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(pids) == k - 1
        assert_reaped(pids)
        assert not list(out.glob("*.tmp"))
        dumps.append(dump_files(out))
    assert len(dumps[0]) == n_labels
    assert dumps[0] == dumps[1] == dumps[2]


@pytest.mark.parametrize("share", [0, 2], ids=["own-share", "worker-share"])
def test_a_failing_share_fails_the_catalog_and_every_worker_is_reaped(
    tmp_path, monkeypatch, capfd, share
):
    # su2:j=1.5 in 3 shares: [j:1.5], [j:1], [j:0.5, j:0]; share 0 is this process's own
    shares = label_shares(build_catalog(make_group("su2:j=1.5")).labels, 3)
    bad = [lab.key for lab in shares[share]]
    write_csv = cfgmod.write_csv

    def failing_write_csv(path, header, blocks):
        if Path(path).name == f"exp_coeffs_{bad[0].replace(':', '-')}.csv":
            def broken(blocks=iter(blocks)):
                yield next(blocks)   # the temp file holds a chunk when the write fails
                raise OSError("disk full")

            blocks = broken()
        return write_csv(path, header, blocks)

    monkeypatch.setattr(cfgmod, "write_csv", failing_write_csv)
    pids = use_cpus(monkeypatch, 3)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "su2:j=1.5")
    expected = OSError if share == 0 else RuntimeError
    with pytest.raises(expected) as info:
        main(["catalog", "--config", str(cfg), "--out", str(out)])
    assert len(pids) == 2
    assert_reaped(pids)
    assert not list(out.glob("*.tmp"))
    if share:
        assert str(info.value) == f"coefficient dump worker failed for labels {', '.join(bad)}"
        err = capfd.readouterr().err
        assert "Traceback" in err and "OSError: disk full" in err
    # every label outside the failed share was written whole by its worker
    written = dump_files(out)
    assert set(written) == {
        f"exp_coeffs_{lab.key.replace(':', '-')}.csv"
        for k, labels in enumerate(shares) if k != share for lab in labels
    }


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_one_cpu_forks_nothing(tmp_path):
    cfg = write_config(tmp_path, "su2:j=1")
    out = tmp_path / "out"
    script = (
        "import os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "def no_fork():\n"
        "    raise AssertionError('the dump forked on one CPU')\n"
        "os.fork = no_fork\n"
        "from grouplab import cli\n"
        f"sys.exit(cli.main(['catalog', '--config', {str(cfg)!r}, '--out', {str(out)!r}]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert len(dump_files(out)) == 3


@pytest.mark.parametrize("group", ["sym:4", "circle:16", "su2:j=4"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_label_shares_cover_every_label_once_with_balanced_rows(group, k):
    labels = build_catalog(make_group(group)).labels
    shares = label_shares(labels, k)
    assert len(shares) == k and all(shares)
    assert sorted(lab.key for share in shares for lab in share) == sorted(lab.key for lab in labels)
    rows = [sum(lab.degree**2 for lab in share) for share in shares]
    # largest-first assignment to the lightest share: the spread is at most one label's rows
    assert max(rows) - min(rows) <= max(lab.degree**2 for lab in labels)
    assert shares == label_shares(labels, k)
