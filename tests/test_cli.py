import dataclasses
import json
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from grouplab import _kernels, cli
from grouplab import config as cfgmod
from grouplab.cli import main
from grouplab.config import (
    ConfigError,
    build_test_set,
    build_weights,
    CSV_CHUNK_ROWS,
    write_csv,
)
from grouplab.groups import make_group
from grouplab.catalog import IrrepLabel, RepCatalog, build_catalog, peter_weyl_basis
from grouplab.hilbert import CLI_INVARIANTS, random_function
from grouplab.iwasawa import IwasawaModel, LiftedFamily
from support import functions_to_csv, l2_to_csv, oracle_samples, zero_function


def write_config(tmp_path, name="exp", **kwargs):
    cfg = {"name": name, "group": "sym:3"}
    cfg.update(kwargs)
    # a name that is no file name (a bad-input case) still gets its file in tmp_path
    stem = name if isinstance(name, str) and Path(name).name == name and "\0" not in name else "bad-name"
    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""
    return lines[0].split(","), [line.split(",") for line in lines[1:-1]]


def test_cmd_catalog_zn4(tmp_path):
    cfg = write_config(tmp_path, group="zn:4")
    assert main(["catalog", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    obj = json.loads((tmp_path / "exp_catalog.json").read_text())
    assert len(obj["labels"]) == 4
    assert all(lab["degree"] == 1 for lab in obj["labels"])


def test_cmd_catalog_sym3_degrees(tmp_path):
    cfg = write_config(tmp_path, group="sym:3")
    assert main(["catalog", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    obj = json.loads((tmp_path / "exp_catalog.json").read_text())
    assert sorted(lab["degree"] for lab in obj["labels"]) == [1, 1, 2]


def test_cmd_catalog_circle_truncation(tmp_path):
    cfg = write_config(tmp_path, group="circle:8", truncation=3)
    assert main(["catalog", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    obj = json.loads((tmp_path / "exp_catalog.json").read_text())
    assert len(obj["labels"]) == 7
    ms = sorted(int(lab["label"].split(":")[1]) for lab in obj["labels"])
    assert ms == list(range(-3, 4))


def test_cmd_catalog_coefficient_dump(tmp_path):
    cfg = write_config(tmp_path, group="zn:4", dump_coefficients=True)
    assert main(["catalog", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    files = sorted(tmp_path.glob("exp_coeffs_*.csv"))
    assert len(files) == 4
    header, rows = read_csv(files[0])
    assert header == ["node", "i", "j", "re", "im"]
    assert len(rows) == 4


def test_cmd_parseval_complete_family(tmp_path):
    cfg = write_config(tmp_path, test_set="random:count=10,seed=3")
    assert main(["parseval", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "exp_parseval.csv")
    assert header == ["fn_id", "norm_sq", "coeff_sum_sq", "defect"]
    assert len(rows) == 10
    assert all(abs(float(r[3])) < 1e-10 for r in rows)


def test_cmd_parseval_member_testset_defects(tmp_path):
    # omission family, member test set: all members have defect 0
    cfg = write_config(tmp_path, omit=["irrep:2"], test_set="members")
    assert main(["parseval", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "exp_parseval.csv")
    assert len(rows) == 2
    for r in rows:
        assert abs(float(r[1]) - 1.0) < 1e-10
        assert abs(float(r[3])) < 1e-10


def test_cmd_parseval_empty_testset(tmp_path, capsys):
    # one rule, the TestSet's, for every analysis command: an empty test set
    # is a config error, not a header-only CSV
    for test_set in ["random:count=0,seed=1", []]:
        cfg = write_config(tmp_path, test_set=test_set)
        for command in ["parseval", "isometry", "semicomplete"]:
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
            assert "config error: a test set must be nonempty" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()


def test_cmd_semicomplete_complete_family(tmp_path):
    cfg = write_config(tmp_path, weights="unit", test_set="random:count=5,seed=0")
    assert main(["semicomplete", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    obj = json.loads((tmp_path / "exp_semicomplete.json").read_text())
    assert obj["max_defect"] < 1e-10
    assert len(obj["per_function"]) == 5
    assert obj["weight_diagnostic"]["admissible"]


def test_cmd_semicomplete_adversarial_member(tmp_path):
    cfg = write_config(
        tmp_path,
        omit=["irrep:2"],
        test_set=["member:block=2,i=0,j=0"],
    )
    # the member spec refers to the full Peter-Weyl block; build the function
    # from the retained family instead: use an explicit samples file
    group = make_group("sym:3")
    cat = build_catalog(group)
    full = peter_weyl_basis(cat)
    f = full.member(2, 0, 0)
    sample = tmp_path / "f.csv"
    functions_to_csv(["adversarial"], [f], sample)
    cfg = write_config(
        tmp_path, omit=["irrep:2"], test_set=f"samples:{sample}", epsilon=0.5
    )
    assert main(["semicomplete", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    obj = json.loads((tmp_path / "exp_semicomplete.json").read_text())
    assert abs(obj["max_defect"] - 1.0) < 1e-9
    assert obj["within_epsilon"] is False


def test_cmd_semicomplete_weight_violations_reported(tmp_path):
    table = tmp_path / "weights.json"
    table.write_text(json.dumps({"gamma": [2.0, 1.0], "beta": [[1.0, 1.0], [1.0, 1.0]]}))
    cfg = write_config(
        tmp_path, weights=f"table:{table}", test_set="random:count=3,seed=5"
    )
    assert main(["semicomplete", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    obj = json.loads((tmp_path / "exp_semicomplete.json").read_text())
    assert not obj["weight_diagnostic"]["admissible"]
    assert obj["weight_diagnostic"]["diagonal_violations"] == [
        {"index": 0, "residual": 1.0}
    ]


def test_cmd_semicomplete_deterministic(tmp_path):
    cfg = write_config(
        tmp_path, weights="diag-reciprocal:seed=9", test_set="random:count=8,seed=4"
    )
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["semicomplete", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["semicomplete", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ["exp_semicomplete.json", "exp_semicomplete.csv"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cmd_isometry_span_testset(tmp_path):
    cfg = write_config(tmp_path, omit=["irrep:2"], test_set="members")
    assert main(["isometry", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "exp_isometry.csv")
    assert header == ["fn_id", "norm_sq", "seq_norm_sq", "defect"]
    assert all(float(r[3]) < 1e-9 for r in rows)


def test_cmd_isometry_orthogonal_vector(tmp_path):
    group = make_group("sym:3")
    cat = build_catalog(group)
    f = peter_weyl_basis(cat).member(2, 0, 0)
    sample = tmp_path / "f.csv"
    functions_to_csv(["orthogonal"], [f], sample)
    cfg = write_config(tmp_path, omit=["irrep:2"], test_set=f"samples:{sample}")
    assert main(["isometry", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "exp_isometry.csv")
    assert abs(float(rows[0][3]) - 1.0) < 1e-9


def test_cmd_lift_uniform_profile(tmp_path):
    cfg = write_config(
        tmp_path,
        group="circle:64",
        iwasawa={
            "K": "circle:64",
            "A": {"range": [-0.5, 0.5], "nodes": 8},
            "N": {"range": [-0.5, 0.5], "nodes": 8},
            "profile": "uniform",
            "truncation": 3,
        },
    )
    assert main(["lift", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    obj = json.loads((tmp_path / "exp_lift.json").read_text())
    assert obj["restriction_residual"] == 0.0
    assert obj["condition_i_residual"] == 0.0
    assert obj["condition_ii_residual"] < 1e-10
    assert obj["gram_residual"] < 1e-10
    assert obj["reproduction"]["max_over_grid"] < 1e-10


def test_cmd_lift_gauss_profile(tmp_path):
    cfg = write_config(
        tmp_path,
        group="circle:64",
        iwasawa={
            "K": "circle:64",
            "A": {"range": [-2, 2], "nodes": 32},
            "N": {"range": [-2, 2], "nodes": 32},
            "profile": "gauss:sigma=0.7",
            "truncation": 3,
        },
    )
    assert main(["lift", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    obj = json.loads((tmp_path / "exp_lift.json").read_text())
    assert obj["condition_ii_residual"] < 1e-10
    assert obj["gram_residual"] < 1e-9
    assert obj["n_members"] == 7


def test_cmd_lift_malformed_range_exit2(tmp_path):
    cfg = write_config(
        tmp_path,
        iwasawa={
            "K": "circle:16",
            "A": {"range": [1.0, 2.0], "nodes": 8},
            "N": {"range": [-1, 1], "nodes": 8},
            "profile": "uniform",
        },
    )
    assert main(["lift", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_cmd_lift_missing_profile_table_exit2(tmp_path, capsys):
    missing = tmp_path / "absent" / "p.txt"
    cfg = write_config(
        tmp_path,
        iwasawa={
            "K": "circle:16",
            "A": {"range": [-1, 1], "nodes": 4},
            "N": {"range": [-1, 1], "nodes": 4},
            "profile": f"table:{missing}",
        },
    )
    assert main(["lift", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert str(missing) in capsys.readouterr().err
    assert not (tmp_path / "exp_lift.json").exists()


def test_missing_config_exit2(tmp_path):
    assert main(["catalog", "--config", str(tmp_path / "nope.json")]) == 2


def test_bad_json_exit2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["catalog", "--config", str(path)]) == 2


def test_bad_group_spec_exit2(tmp_path):
    cfg = write_config(tmp_path, group="tetrahedral:5")
    assert main(["catalog", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_lift_without_iwasawa_block_exit2(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["lift", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_seed_override_changes_testset(tmp_path):
    cfg = write_config(tmp_path, test_set="random:count=4,seed=1")
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["parseval", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["parseval", "--config", str(cfg), "--out", str(out2), "--seed", "99"]) == 0
    assert (out1 / "exp_parseval.csv").read_bytes() != (out2 / "exp_parseval.csv").read_bytes()


def test_console_entry_point_runs(tmp_path):
    cfg = write_config(tmp_path, group="zn:4")
    result = subprocess.run(
        [sys.executable, "-m", "grouplab.cli", "catalog", "--config", str(cfg), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0


def test_l2_csv_roundtrip(tmp_path):
    group = make_group("zn:12")
    f = random_function(group, 8)
    path = tmp_path / "fn.csv"
    l2_to_csv(f, path)
    g = build_test_set([f"samples:{path}"], group)
    assert g.ids == (f"samples:{path}",)
    assert np.max(np.abs(f.values - g.values[0])) < 1e-15


def test_functions_csv_roundtrip(tmp_path):
    group = make_group("zn:12")
    fns = [random_function(group, s) for s in range(3)]
    ids = [f"fn{k}" for k in range(3)]
    path = tmp_path / "set.csv"
    functions_to_csv(ids, fns, path)
    got = build_test_set(f"samples:{path}", group)
    assert got.ids == tuple(ids)
    for f, g in zip(fns, got.values):
        assert np.max(np.abs(f.values - g)) < 1e-15


def test_build_function_specs(tmp_path):
    group = make_group("sym:3")
    fam = peter_weyl_basis(build_catalog(group))
    ts = build_test_set(["random:seed=3", "member:block=irrep:2,i=0,j=1"], group, fam)
    assert ts.ids == ("random:3", "member:irrep:2[0][1]")
    assert abs(ts.function(0).norm() - 1.0) < 1e-12
    assert (ts.function(1) - fam.member(2, 0, 1)).norm() < 1e-15


def test_build_weights_specs(tmp_path):
    w = build_weights("unit", 3)
    assert np.all(w.gamma == 1.0)
    w = build_weights("diag-reciprocal:seed=2", 4)
    assert np.max(np.abs(w.gamma * np.diag(w.beta) - 1.0)) < 1e-12
    with pytest.raises(ValueError):
        build_weights("nonsense", 2)


def test_build_test_set_list_of_specs():
    group = make_group("sym:3")
    fam = peter_weyl_basis(build_catalog(group))
    ts = build_test_set(["random:seed=1", "member:block=0,i=0,j=0"], group, fam)
    assert ts.values.shape == (2, group.n_nodes) and ts.values.flags.c_contiguous
    assert ts.descriptor == "list:2"


def test_exit_3_on_forced_gram_breach(tmp_path):
    # an absurdly small tolerance turns rounding into an invariant breach
    cfg = write_config(tmp_path, group="circle:16", truncation=3, test_set="random:count=1,seed=0")
    assert main(["parseval", "--config", str(cfg), "--out", str(tmp_path), "--tol", "1e-18"]) == 3


@pytest.mark.parametrize("corrupt", ["weight", "store-entry"])
def test_circle_gram_check_exits_3_on_one_corrupted_value(tmp_path, capsys, monkeypatch, corrupt):
    # a 1e-6 change moves every w^(j) of the Toeplitz term, or rho; on
    # circle:1024 the dense defect would see a store entry's change only as
    # about 1e-6 / 1024, within the 1e-8 tolerance
    make_group_, build_catalog_ = cli.make_group, cli.build_catalog

    def make_group(spec):
        group = make_group_(spec)
        weights = group.weights.copy()
        weights[300] += 1e-6
        return dataclasses.replace(group, weights=weights)

    def build_catalog(group, truncation=None):
        cat = build_catalog_(group, truncation)
        store = cat.store.copy()
        store[700, 300] += 1e-6
        return RepCatalog(cat.group, cat.labels, store)

    if corrupt == "weight":
        monkeypatch.setattr(cli, "make_group", make_group)
    else:
        monkeypatch.setattr(cli, "build_catalog", build_catalog)
    cfg = write_config(tmp_path, group="circle:1024", test_set="random:count=2,seed=0")
    out = tmp_path / "out"
    for command in ["parseval", "isometry", "semicomplete"]:
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        assert "numerical invariant failure: gram residual" in capsys.readouterr().err
    assert not out.exists()


def test_su2_spec_parse_with_quad():
    group = make_group("su2:j=1,quad=4")
    assert group.name == "su2:j=1,quad=4"
    assert group.kind == "su2"


def test_cmd_isometry_zero_function(tmp_path):
    group = make_group("sym:3")
    sample = tmp_path / "zero.csv"
    functions_to_csv(["zero"], [zero_function(group)], sample)
    cfg = write_config(tmp_path, omit=["irrep:2"], test_set=f"samples:{sample}")
    assert main(["isometry", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "exp_isometry.csv")
    assert float(rows[0][1]) == 0.0
    assert float(rows[0][3]) == 0.0


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_cmd_parseval_rejects_non_finite_samples(tmp_path, bad):
    group = make_group("zn:4")
    sample = tmp_path / "set.csv"
    functions_to_csv(["fn0"], [random_function(group, 0)], sample)
    lines = sample.read_text().split("\n")
    lines[2] = f"fn0,1,{bad},0"
    sample.write_text("\n".join(lines))
    cfg = write_config(tmp_path, group="zn:4", test_set=f"samples:{sample}")
    assert main(["parseval", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "exp_parseval.csv").exists()


def test_l2_from_csv_rejects_non_finite(tmp_path):
    group = make_group("zn:4")
    path = tmp_path / "fn.csv"
    path.write_text("node,re,im\n0,1,0\n1,0,nan\n2,0,0\n3,0,0\n")
    with pytest.raises(ConfigError, match="not finite"):
        build_test_set([f"samples:{path}"], group)


@pytest.mark.parametrize("form", ["list-entry", "test-set"])
def test_sample_node_index_is_an_ascii_integer(tmp_path, capsys, form):
    # Python's int would read node '1_0' as 10, and the file as complete
    path = tmp_path / "samples.csv"
    fn = "" if form == "list-entry" else "f,"
    rows = "".join(f"{fn}{'1_0' if k == 10 else k},{k},0\n" for k in range(12))
    path.write_text(("node,re,im\n" if form == "list-entry" else "fn,node,re,im\n") + rows)
    test_set = [f"samples:{path}"] if form == "list-entry" else f"samples:{path}"
    cfg = write_config(tmp_path, group="zn:12", test_set=test_set)
    out = tmp_path / "out"
    assert main(["parseval", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: bad node index in" in err and str(path) in err and "'1_0'" in err
    assert not out.exists()


@pytest.mark.parametrize("form", ["list-entry", "test-set"])
def test_repeated_sample_node_exits_2(tmp_path, capsys, form):
    # node 0 twice and node 3 never: the last value must not win, nor node 3 read 0
    rows = [(0, 1.0), (1, 2.0), (2, 3.0), (0, 4.0)]
    path = tmp_path / "samples.csv"
    if form == "list-entry":
        path.write_text("node,re,im\n" + "".join(f"{k},{v},0\n" for k, v in rows))
        test_set = [f"samples:{path}"]
    else:
        path.write_text("fn,node,re,im\n" + "".join(f"f,{k},{v},0\n" for k, v in rows))
        test_set = f"samples:{path}"
    cfg = write_config(tmp_path, group="zn:4", test_set=test_set)
    out = tmp_path / "out"
    assert main(["parseval", "--config", str(cfg), "--out", str(out)]) == 2
    assert "node index 0 repeated" in capsys.readouterr().err
    assert not out.exists()


#: Bad zn:4 samples files (fn, node, re, im per line) and the error on their first bad line.
FIRST_BAD_LINE = {
    # a repeat two lines after its first sight, across every chunk boundary of 2 lines
    "repeat-across-chunks": (["f,0,1,0", "f,1,1,0", "f,2,1,0", "f,0,1,0", "f,3,x,0"], "node index 0 repeated in function 'f'"),
    "repeat-before-its-bad-value": (["f,0,1,0", "f,0,x,0"], "node index 0 repeated"),
    "bad-node-before-a-repeat": (["f,0,1,0", "f,+1,1,0", "f,0,1,0"], "bad node index in .* '\\+1'"),
    "range-before-a-bad-value": (["f,0,1,0", "f,4,x,0"], "node index 4 out of range"),
    "negative-node": (["f,0,1,0", "f,1,1,0", "f,-1,1,0"], "node index -1 out of range"),
    "node-beyond-int64": (["f,0,1,0", f"f,{10**30},1,0"], f"node index {10**30} out of range"),
    "real-part-before-imaginary-part": (["f,0,1,0", "f,1,1_0,x"], "bad sample value in .* '1_0'"),
    "non-finite-imaginary-part": (["f,0,1,0", "f,1,1,0", "f,2,1,-inf"], "bad sample value in .* '-inf': not finite"),
    "bad-value-before-a-malformed-line": (["f,0,1,0", "f,1,1,0", "f,2,x,0", "f,3,1"], "'x': could not convert"),
    "malformed-line-before-a-bad-value": (["f,0,1,0", "f,1,1", "f,2,x,0"], "expected 4 columns, got 3"),
    # only the file's first line may be the header; with 2-line chunks this one opens a chunk
    "a-later-header-is-a-row": (["f,0,1,0", "fn,node,re,im", "f,1,1,0"], "bad node index in .* 'node'"),
    "missing-node-after-every-line-passed": (["g,0,1,0", "f,0,1,0", "f,1,1,0", "f,2,1,0", "f,3,1,0"], "function 'g' of .* misses 3 of 4 nodes"),
}


@pytest.mark.parametrize("chunk_rows", [2, CSV_CHUNK_ROWS])
@pytest.mark.parametrize("case", list(FIRST_BAD_LINE))
def test_samples_file_reports_its_first_bad_line(tmp_path, monkeypatch, case, chunk_rows):
    # the file is checked a chunk of lines at a time, in bulk; the error is that
    # of the first bad line, and on it of the first rule in the order node
    # index, range, repeat, real part, imaginary part
    monkeypatch.setattr(cfgmod, "CSV_CHUNK_ROWS", chunk_rows)
    lines, message = FIRST_BAD_LINE[case]
    path = tmp_path / "samples.csv"
    path.write_text("fn,node,re,im\n" + "".join(line + "\n" for line in lines))
    with pytest.raises(ConfigError, match=message):
        build_test_set(f"samples:{path}", make_group("zn:4"))


@pytest.mark.parametrize("chunk_rows", [1, 3, CSV_CHUNK_ROWS])
def test_samples_file_read_in_chunks_equals_the_per_line_oracle(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(cfgmod, "CSV_CHUNK_ROWS", chunk_rows)
    group = make_group("zn:5")
    rng = np.random.default_rng(8)
    lines = [f"{fid},{k},{rng.choice(['-0', '0', '1e-320', '-2.5'])},{rng.standard_normal()!r}"
             for fid in ("b", "a", "c") for k in rng.permutation(5)]
    order = rng.permutation(len(lines))
    path = tmp_path / "samples.csv"
    path.write_text("fn,node,re,im\n" + "".join(lines[r] + "\n" for r in order))
    test_set = build_test_set(f"samples:{path}", group)
    want = oracle_samples(group, path, named=True)
    assert list(test_set.ids) == list(want)
    assert test_set.values.tobytes() == np.array([f.values for f in want.values()]).tobytes()


@pytest.mark.parametrize("n_rows", [0, 1, 5])
def test_write_csv_exact_bytes(tmp_path, n_rows):
    k = np.arange(n_rows)
    path = tmp_path / "out.csv"
    write_csv(path, ["k", "x", "y"], [(k, 0.1 * k, (-k).astype(np.float64))])
    expected = "k,x,y\n" + "".join(
        f"{k},{format(0.1 * k, '.17g')},{format(float(-k), '.17g')}\n" for k in range(n_rows)
    )
    assert path.read_bytes() == expected.encode()
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_write_csv_failing_rows_leave_no_file(tmp_path):
    # blocks are streamed into the temp file; an error midway must not publish it
    def blocks():
        yield (np.array([0]), np.array([1.0]))
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError):
        write_csv(tmp_path / "out.csv", ["k", "x"], blocks())
    assert list(tmp_path.iterdir()) == []


def test_cmd_semicomplete_rejects_non_finite_weights(tmp_path):
    table = tmp_path / "weights.json"
    table.write_text('{"gamma": [NaN, 1, 1], "beta": [[1, 1, 1], [1, 1, 1], [1, 1, 1]]}')
    cfg = write_config(tmp_path, weights=f"table:{table}", test_set="random:count=2,seed=0")
    assert main(["semicomplete", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.glob("exp_semicomplete.*"))


@pytest.mark.parametrize(
    "group, truncation",
    [
        ("circle:16", "3"),
        ("su2:j=2", "1"),
        ("circle:16", 2.7),
        ("su2:j=2", 1.3),
        ("circle:16", True),
        ("circle:16", -1),
    ],
)
def test_cmd_catalog_rejects_bad_truncation(tmp_path, group, truncation):
    cfg = write_config(tmp_path, group=group, truncation=truncation)
    assert main(["catalog", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "exp_catalog.json").exists()


@pytest.mark.parametrize("truncation", ["3", False, 2.5])
def test_cmd_lift_rejects_bad_iwasawa_truncation(tmp_path, truncation):
    cfg = write_config(
        tmp_path,
        group="circle:16",
        iwasawa={
            "K": "circle:16",
            "A": {"range": [-0.5, 0.5], "nodes": 4},
            "N": {"range": [-0.5, 0.5], "nodes": 4},
            "truncation": truncation,
        },
    )
    assert main(["lift", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "exp_lift.json").exists()


@pytest.mark.parametrize(
    "override",
    [
        {"A": {"range": ["-2", 2], "nodes": 4}},
        {"profile": 5},
        {"A": {"range": [-0.5, 0.5], "nodes": 7.9}},
        {"A": {"range": [-0.5, 0.5], "nodes": True}},
        {"N": {"range": [-0.5, 0.5], "nodes": 0}},
        {"N": {"range": [-0.5, float("nan")], "nodes": 4}},
        {"N": {"range": [-0.5, True], "nodes": 4}},
        {"N": {"range": [-0.5, 0.0, 0.5], "nodes": 4}},
        {"N": [-0.5, 0.5]},
        {"K": 16},
    ],
)
def test_cmd_lift_rejects_mistyped_iwasawa_block(tmp_path, override):
    block = {
        "K": "circle:16",
        "A": {"range": [-0.5, 0.5], "nodes": 4},
        "N": {"range": [-0.5, 0.5], "nodes": 4},
        "truncation": 3,
    }
    block.update(override)
    cfg = write_config(tmp_path, group="circle:16", iwasawa=block)
    assert main(["lift", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "exp_lift.json").exists()


@pytest.mark.parametrize("dump", ["false", 0, None])
def test_cmd_catalog_rejects_non_boolean_dump_coefficients(tmp_path, dump):
    cfg = write_config(tmp_path, group="zn:4", dump_coefficients=dump)
    assert main(["catalog", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert list(tmp_path.glob("exp_*")) == []


def test_random_test_set_starts_with_random_function():
    group = make_group("circle:16")
    ts = build_test_set("random:count=3,seed=5", group)
    assert ts.ids == ("random:0", "random:1", "random:2")
    assert np.array_equal(ts.values[0], random_function(group, 5).values)


def _per_row_bytes(header, rows):
    # the per-value formatting the chunked writer replaced
    def fmt(x):
        if isinstance(x, (float, np.floating)):
            return format(float(x), ".17g")
        return str(x)

    return (",".join(header) + "\n" + "".join(",".join(map(fmt, r)) + "\n" for r in rows)).encode()


def test_write_csv_special_floats(tmp_path):
    values = [-0.0, 5e-324, 1e300, 0.1, float("nan"), float("inf"), -float("inf")]
    path = tmp_path / "out.csv"
    write_csv(path, ["x"], [(np.array(values),)])
    assert path.read_bytes() == ("x\n" + "".join(format(x, ".17g") + "\n" for x in values)).encode()
    assert path.read_text().split("\n")[1:3] == ["-0", "4.9406564584124654e-324"]


def test_write_csv_int_beyond_int64(tmp_path):
    ints = [0, 10**20, -(10**20), 2**63 - 1]
    path = tmp_path / "out.csv"
    write_csv(path, ["n"], [(ints,)])
    assert path.read_bytes() == ("n\n" + "".join(str(k) + "\n" for k in ints)).encode()


def test_write_csv_numpy_scalar_and_str_columns(tmp_path):
    ids = ["random:0", "member:j:1[0][2]", "a b"]
    ints = np.array([-5, 0, 2**62], dtype=np.int64)
    small = np.array([1, 2, 255], dtype=np.uint8)
    floats = np.array([0.1, -2.5, 1e-300], dtype=np.float64)
    singles = np.array([0.1, 3.0, -7.25], dtype=np.float32)
    path = tmp_path / "out.csv"
    header = ["id", "i", "u", "x", "s"]
    write_csv(path, header, [(ids, ints, small, floats, singles)])
    rows = list(zip(ids, ints, small, floats, singles))
    assert path.read_bytes() == _per_row_bytes(header, rows)
    assert path.read_text().split("\n")[1] == "random:0,-5,1,0.10000000000000001,0.10000000149011612"


def test_write_csv_writes_text_blocks_as_they_are(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["k", "x"], ["0,0.5\n", (np.array([1]), np.array([0.25])), "2,x\n"])
    assert path.read_bytes() == b"k,x\n0,0.5\n1,0.25\n2,x\n"


@pytest.mark.parametrize("blocks", [[], [([], np.array([], dtype=float))]])
def test_write_csv_header_only(tmp_path, blocks):
    path = tmp_path / "out.csv"
    write_csv(path, ["fn", "defect"], blocks)
    assert path.read_bytes() == b"fn,defect\n"


@pytest.mark.parametrize("n_rows", [CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1])
def test_write_csv_chunk_boundaries(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    k = np.arange(n_rows)
    x = rng.standard_normal(n_rows)
    ids = [f"f{m % 7}" for m in range(n_rows)]
    path = tmp_path / "out.csv"
    # two blocks, so the second chunk run starts mid-file
    write_csv(path, ["fn", "k", "x"], [(ids, k, x), (ids[:3], k[:3], x[:3])])
    rows = list(zip(ids, k, x)) + list(zip(ids[:3], k[:3], x[:3]))
    assert path.read_bytes() == _per_row_bytes(["fn", "k", "x"], rows)


def test_write_csv_failure_after_full_chunk_leaves_no_file(tmp_path):
    def blocks():
        yield (np.arange(CSV_CHUNK_ROWS + 1), np.zeros(CSV_CHUNK_ROWS + 1))
        raise RuntimeError("block source failed")

    with pytest.raises(RuntimeError):
        write_csv(tmp_path / "out.csv", ["k", "x"], blocks())
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "block", [(np.arange(3), np.zeros(2)), (np.arange(3),), (np.zeros((3, 1)), np.zeros((3, 1)))]
)
def test_write_csv_rejects_ragged_block(tmp_path, block):
    with pytest.raises(ValueError, match="one-dimensional columns"):
        write_csv(tmp_path / "out.csv", ["k", "x"], [(np.arange(2), np.ones(2)), block])
    assert list(tmp_path.iterdir()) == []


def _grid_rows(grid):
    n, d, _ = grid.shape
    return (
        (k, i, j, float(grid[k, i, j].real), float(grid[k, i, j].imag))
        for k in range(n)
        for i in range(d)
        for j in range(d)
    )


def test_cmd_catalog_dump_bytes_match_per_row_format(tmp_path, monkeypatch):
    # a small chunk makes every dump cross chunk boundaries; circle:64 adds
    # negative frequencies and multi-digit node numbers, dihedral:5 degrees 1 and 2
    monkeypatch.setattr(cfgmod, "CSV_CHUNK_ROWS", 20)
    # su2:j=2 adds half-integer spins, sym:4 degree 3 by Young's orthogonal form
    for group, n_labels in [("su2:j=1", 3), ("circle:64", 63), ("dihedral:5", 4), ("su2:j=2", 5), ("sym:4", 5)]:
        out = tmp_path / group.replace(":", "-")
        cfg = write_config(tmp_path, group=group, dump_coefficients=True)
        assert main(["catalog", "--config", str(cfg), "--out", str(out)]) == 0
        cat = build_catalog(make_group(group))
        assert len(cat.labels) == n_labels
        for lab in cat.labels:
            path = out / f"exp_coeffs_{lab.key.replace(':', '-')}.csv"
            want = _per_row_bytes(["node", "i", "j", "re", "im"], _grid_rows(cat.grids[lab.key]))
            assert path.read_bytes() == want


def test_coefficient_grid_text_streams_node_slabs(monkeypatch):
    # 20 rows per chunk hold two whole j=1 nodes (9 rows each); 75 nodes leave a remainder
    monkeypatch.setattr(cfgmod, "CSV_CHUNK_ROWS", 20)
    cat = build_catalog(make_group("su2:j=1"))
    chunks = list(cfgmod.coefficient_grid_text(cat, "j:1"))
    assert [chunk.count("\n") for chunk in chunks] == [18] * 37 + [9]
    assert [chunk.split(",", 3)[:3] for chunk in chunks] == [[str(2 * k), "0", "0"] for k in range(38)]
    header = ["node", "i", "j", "re", "im"]
    text = ",".join(header) + "\n" + "".join(chunks)
    assert text.encode() == _per_row_bytes(header, _grid_rows(cat.grids["j:1"]))


def _edge_catalog() -> RepCatalog:
    """A hand-built catalog on the 10 nodes of dihedral:5 whose grids hold the
    floats a shared table of formatted values could get wrong."""
    group = make_group("dihedral:5")
    labels = tuple(IrrepLabel("finite", k, d, float(k)) for k, d in enumerate([2, 1, 2]))
    store = np.zeros((9, group.n_nodes), dtype=np.complex128)
    floats = store.view(np.float64)    # (re, im) pairs, written as floats to keep each -0.0
    # signed zeros, the least subnormal and a 24-character value, each more than once
    edge = [0.0, -0.0, 5e-324, -5e-324, -2.2250738585072014e-308, 1e300, 0.1]
    floats[:4] = np.array(edge * 12)[:80].reshape(4, 20)
    floats[4] = -0.1    # one value at every node, in both parts
    floats[5:] = np.random.default_rng(3).standard_normal((4, 20))
    return RepCatalog(group, labels, store)


@pytest.mark.parametrize("chunk_rows", [1, 3, 20, CSV_CHUNK_ROWS])
def test_coefficient_dump_of_edge_values_matches_per_value_format(tmp_path, monkeypatch, chunk_rows):
    # a small chunk cuts the distinct-value scan inside runs of equal values
    monkeypatch.setattr(cfgmod, "CSV_CHUNK_ROWS", chunk_rows)
    cat = _edge_catalog()
    floats = cat.store.view(np.float64)
    assert len(np.unique(floats[4:5])) == 1 and len(np.unique(floats[5:])) == floats[5:].size
    header = ["node", "i", "j", "re", "im"]
    for lab in cat.labels:
        path = tmp_path / f"{lab.key}.csv"
        write_csv(path, header, cfgmod.coefficient_grid_text(cat, lab.key))
        assert path.read_bytes() == _per_row_bytes(header, _grid_rows(cat.grids[lab.key]))
    text = (tmp_path / "irrep:0.csv").read_text()
    assert {"0", "-0", "4.9406564584124654e-324", "-2.2250738585072014e-308"} <= set(text.replace("\n", ",").split(","))


def test_coefficient_grid_text_peaks_under_two_and_a_half_grids():
    # the distinct-value table, the int32 row codes and one slab's text, not a
    # Python object per value; the grid of j:4 is 3.37 MB
    cat = build_catalog(make_group("su2:j=4"))
    grid_bytes = cat.grids["j:4"].nbytes
    tracemalloc.start()
    try:
        for _ in cfgmod.coefficient_grid_text(cat, "j:4"):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * grid_bytes, (peak, grid_bytes)


@pytest.mark.parametrize(
    "field, value",
    [
        ("tol", True),
        ("tol", float("inf")),
        ("tol", float("nan")),
        ("tol", -1e-9),
        ("epsilon", True),
        ("epsilon", False),
        ("epsilon", float("inf")),
        ("epsilon", float("nan")),
        ("epsilon", "0.1"),
    ],
)
def test_cmd_semicomplete_rejects_bad_tolerance(tmp_path, field, value):
    # json.dumps writes inf and nan as the non-standard Infinity and NaN tokens
    cfg = write_config(tmp_path, test_set="random:count=2,seed=0", **{field: value})
    assert main(["semicomplete", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.glob("exp_semicomplete.*"))


@pytest.mark.parametrize("tol", ["inf", "nan", "-inf", "0"])
def test_tol_override_must_be_finite_positive(tmp_path, tol):
    cfg = write_config(tmp_path, test_set="random:count=2,seed=0")
    argv = ["semicomplete", "--config", str(cfg), "--out", str(tmp_path), f"--tol={tol}"]
    assert main(argv) == 2
    assert not list(tmp_path.glob("exp_semicomplete.*"))


@pytest.mark.parametrize("tol", ["1_0e-9", "\u0661e-9"])
def test_tol_override_is_a_decimal_by_the_spec_rule(tmp_path, capsys, tol):
    # argparse's float would read these as 1e-8 and 1e-9
    cfg = write_config(tmp_path, test_set="random:count=2,seed=0")
    out = tmp_path / "out"
    assert main(["parseval", "--config", str(cfg), "--out", str(out), "--tol", tol]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad --tol ") and repr(tol) in err
    assert not out.exists()
    assert main(["parseval", "--config", str(cfg), "--out", str(out), "--tol", "1e-9"]) == 0
    assert cfgmod.load_config(cfg, tol_override="1e-9").tol == 1e-9


def test_write_json_refuses_nan_and_infinity(tmp_path):
    # json.dumps would write the bare tokens NaN and Infinity, which are not JSON
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            cfgmod.write_json(tmp_path / "x.json", {"defect": value})
    assert list(tmp_path.iterdir()) == []


def test_cmd_semicomplete_accepts_integer_tolerances(tmp_path):
    cfg = write_config(tmp_path, test_set="random:count=2,seed=0", tol=1, epsilon=2)
    assert main(["semicomplete", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "exp_semicomplete.json").read_text())["epsilon"] == 2


def test_cmd_lift_builds_no_gram_matrix(tmp_path, monkeypatch):
    calls = []
    gram = _kernels.gram

    def counting_gram(*args):
        calls.append(args[0].shape)
        return gram(*args)

    monkeypatch.setattr(_kernels, "gram", counting_gram)
    cfg = write_config(
        tmp_path,
        group="circle:16",
        iwasawa={
            "K": "circle:16",
            "A": {"range": [-0.5, 0.5], "nodes": 4},
            "N": {"range": [-0.5, 0.5], "nodes": 4},
            "truncation": 3,
        },
    )
    assert main(["lift", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    # xi is checked by gram_defect_bound, and the lift's residuals come from
    # the AN mass and the diagonal of Gram(xi)
    assert calls == []
    assert json.loads((tmp_path / "exp_lift.json").read_text())["gram_residual"] < 1e-10


@pytest.mark.parametrize("k_spec, truncation, omit", [
    ("circle:16", None, []),
    ("circle:16", 5, ["m:1"]),
    ("circle:128", 16, []),
])
def test_lift_residuals_match_the_dense_gram_formula(tmp_path, k_spec, truncation, omit):
    # the oracle builds Gram(xi) and the lift's Gram(xi) * mass in full
    from grouplab.iwasawa import make_iwasawa_model
    from grouplab.semicomplete import OmissionSpec, build_riemann_lebesgue_family

    iwasawa = {"K": k_spec, "A": {"range": [-2, 2], "nodes": 8}, "N": {"range": [-2, 2], "nodes": 8},
               "profile": "gauss:sigma=0.7", "truncation": truncation}
    cfg = write_config(tmp_path, group=k_spec, omit=omit, iwasawa=iwasawa)
    assert main(["lift", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lift = json.loads((tmp_path / "exp_lift.json").read_text())
    model = make_iwasawa_model(k_spec, (-2, 2), (-2, 2), 8, 8, profile="gauss:sigma=0.7")
    xi = build_riemann_lebesgue_family(
        build_catalog(model.K, truncation=truncation), OmissionSpec(omitted=tuple(omit))
    )
    gram = xi.gram_matrix()
    lifted = gram * model.an_mass
    assert lift["n_members"] == xi.n_members
    assert abs(lift["gram_residual"] - np.max(np.abs(lifted - gram))) <= 1e-15
    assert abs(lift["norm_residual"] - np.max(np.abs(np.diag(lifted) - 1.0))) <= 1e-15


def test_cmd_lift_holds_no_gram_matrix(tmp_path):
    # circle:1024 at full truncation: xi is a view of the 16.7 MB store, and the
    # restriction residual's one real |xi| pass (8.4 MB) outweighs the slabs of
    # the Gram check and the Gram diagonal (a 24.5 MiB peak in all); the dense
    # Gram matrix and its temporaries took the peak to 88.8 MB, and the
    # restricted copy of xi and its difference from xi to 56.2 MiB
    cfg = write_config(tmp_path, group="circle:1024", iwasawa={
        "K": "circle:1024", "A": {"range": [-2, 2], "nodes": 8}, "N": {"range": [-2, 2], "nodes": 8},
    })
    tracemalloc.start()
    try:
        assert main(["lift", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads((tmp_path / "exp_lift.json").read_text())["n_members"] == 1023
    assert peak <= 28 * 2**20, f"peak traced allocation {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("k_spec", ["circle:16", "circle:1024"])
@pytest.mark.parametrize("identity_envelope", [1.0, 2.0])
def test_cli_restriction_residual_is_the_restrict_to_k_oracle(tmp_path, monkeypatch, k_spec, identity_envelope):
    # the CLI reads the residual off the factors, |envelope[id_index] - 1| * max |xi|;
    # restrict_to_k forms chi(., identity AN node) and its difference from xi entry
    # by entry (near 1 that form cancels: at 1.001 the two differ by 9e-14 relative)
    residuals, lifts = {}, []
    require, lift = cli._require, cli.lift_family

    def recording(name, residual, group, tol=None):
        residuals[name] = residual
        require(name, residual, group, tol)

    def lifted_with_identity_envelope(model, xi):
        lifted = lift(model, xi)
        lifted.envelope[model.id_index] = identity_envelope
        lifts.append(lifted)
        return lifted

    monkeypatch.setattr(cli, "_require", recording)
    monkeypatch.setattr(cli, "lift_family", lifted_with_identity_envelope)
    cfg = write_config(tmp_path, group=k_spec, iwasawa={
        "K": k_spec, "A": {"range": [-2, 2], "nodes": 4}, "N": {"range": [-2, 2], "nodes": 4},
        "profile": "gauss:sigma=0.7",
    })
    code = main(["lift", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == (0 if identity_envelope == 1.0 else 3)
    (lifted,) = lifts
    assert lifted.members is lifted.source.members
    oracle = float(np.max(np.abs(lifted.restrict_to_k().members - lifted.source.members)))
    if identity_envelope == 1.0:
        assert residuals["lift_restriction"] == oracle == 0.0
    else:
        assert oracle > 0 and abs(residuals["lift_restriction"] - oracle) <= 1e-15 * oracle


def test_family_gram_check_holds_the_coefficients_once(tmp_path):
    # circle:1024 without its top pair: the 1021 retained members are a view of
    # the 16.7 MB store, and the circle's Gram check adds a few slabs of 65,536
    # entries (a 19.4 MB peak in all; the streamed dense check added about
    # 10 MB); the 16.7 MB Gram matrix the check once built would pass 30 MB on
    # its own with the store
    from grouplab.cli import _analysis

    path = write_config(tmp_path, group="circle:1024", omit=["m:511", "m:-511"])
    cfg = cfgmod.load_config(path)
    tracemalloc.start()
    try:
        family = _analysis(cfg)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert family.n_members == 1021
    assert peak <= 30 * 2**20, f"peak traced allocation {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("group, omit", [("su2:j=4", ["j:4"]), ("circle:64", [])])
def test_bessel_coefficient_sums_equal_per_row_sums_bitwise(tmp_path, group, omit):
    # the parseval and isometry CSVs print these sums with 17 digits, so the one
    # reduction over the stacked coefficients must add in each row's own order
    from grouplab.cli import _bessel_columns
    from grouplab.hilbert import coefficients
    from grouplab.semicomplete import OmissionSpec, build_riemann_lebesgue_family

    path = write_config(tmp_path, group=group, omit=omit, test_set="random:count=8,seed=3")
    cfg = cfgmod.load_config(path)
    coeff_sum = _bessel_columns(cfg)[2]
    grp = make_group(group)
    fam = build_riemann_lebesgue_family(build_catalog(grp), OmissionSpec(omitted=tuple(omit)))
    coeffs = coefficients(build_test_set(cfg.test_set_spec, grp, fam), fam)
    want = np.array([np.sum(np.abs(c) ** 2) for c in coeffs])
    assert coeff_sum.tobytes() == want.tobytes()


BAD_INPUTS = {
    "circle-no-nodes": ("catalog", dict(group="circle:0")),
    "sym-5": ("catalog", dict(group="sym:5")),
    "zn-0": ("catalog", dict(group="zn:0")),
    "dihedral-2": ("catalog", dict(group="dihedral:2")),
    "su2-fractional-spin": ("catalog", dict(group="su2:j=1.3")),
    "su2-negative-spin": ("catalog", dict(group="su2:j=-1")),
    "su2-small-quadrature": ("catalog", dict(group="su2:j=2,quad=3")),
    "fractional-truncation": ("catalog", dict(group="circle:16", truncation=2.7)),
    **{
        f"{value}-truncation-{group}": ("catalog", dict(group=group, truncation=float(value)))
        for value in ("nan", "inf", "-inf")
        for group in ("circle:16", "su2:j=2", "zn:4")
    },
    "nan-iwasawa-truncation": ("lift", dict(iwasawa={"K": "circle:16", "truncation": float("nan")})),
    "su2-spin-off-half-integer-by-1e-13": ("catalog", dict(group="su2:j=1.5000000000001")),
    "test-set-seed-beyond-64-bits": ("parseval", dict(test_set="random:count=2,seed=18446744073709551616")),
    "unknown-omitted-label": ("parseval", dict(omit=["irrep:9"])),
    "every-label-omitted": ("parseval", dict(omit=["irrep:0", "irrep:1", "irrep:2"])),
    "repeated-omitted-label": ("parseval", dict(group="zn:6", omit=["irrep:1", "irrep:2", "irrep:1"])),
    "infinite-table-weight": ("semicomplete", dict(weights="table:{tmp}/inf.json")),
    "zero-table-weight": ("semicomplete", dict(weights="table:{tmp}/zero.json")),
    "boolean-table-weight": ("semicomplete", dict(weights="table:{tmp}/bool.json")),
    "table-weight-beyond-float-range": ("semicomplete", dict(weights="table:{tmp}/huge.json")),
    "scalar-table-gamma": ("semicomplete", dict(weights="table:{tmp}/scalar.json")),
    "non-square-table-beta": ("semicomplete", dict(weights="table:{tmp}/ragged.json")),
    # sym:3 has a 2 x 2 block, which a 1 x 1 table cannot weight
    "table-smaller-than-a-block": ("semicomplete", dict(weights="table:{tmp}/small.json")),
    # finite weights whose weighted expansion overflows, and whose defect overflows
    "weights-overflow-the-expansion": ("semicomplete", dict(
        group="zn:2", test_set="random:count=4,seed=1", weights="table:{tmp}/overflow.json")),
    "weights-overflow-the-defect": ("semicomplete", dict(
        group="zn:2", test_set="random:count=4,seed=1", weights="table:{tmp}/large.json")),
    # sample values whose squares overflow: the squared norm is not finite
    **{
        f"sample-norm-overflows-in-{command}": (command, dict(group="zn:2", test_set="samples:{tmp}/vast.csv"))
        for command in ("parseval", "isometry", "semicomplete")
    },
    "negative-test-set-seed": ("parseval", dict(test_set="random:count=2,seed=-1")),
    "negative-function-seed": ("isometry", dict(test_set=["random:seed=-1"])),
    "negative-weights-seed": ("semicomplete", dict(weights="diag-reciprocal:seed=-3")),
    "non-numeric-sample": ("parseval", dict(test_set="samples:{tmp}/words.csv")),
    # Python's float reads '1_0' as 10 and the Arabic-Indic digit one as 1
    "underscore-in-sample-value": ("parseval", dict(test_set="samples:{tmp}/underscore.csv")),
    "non-ascii-digit-in-sample-value": ("parseval", dict(test_set="samples:{tmp}/arabic.csv")),
    "non-integer-sample-node": ("parseval", dict(test_set="samples:{tmp}/node.csv")),
    "binary-samples-file": ("parseval", dict(test_set="samples:{tmp}/binary.csv")),
    "boolean-config-seed": ("parseval", dict(seed=True)),
    "unknown-iwasawa-key": ("lift", dict(iwasawa={"K": "circle:16", "trunction": 3})),
    "unknown-iwasawa-axis-key": ("lift", dict(iwasawa={"A": {"node": 4}})),
    "su2-spin-beyond-float-range": ("catalog", dict(group="su2:j=1e308")),
    "su2-store-beyond-float-range": ("catalog", dict(group="su2:j=1e100")),
    "lift-store-beyond-memory": ("lift", dict(iwasawa={"K": "circle:100000000000"})),
    # a config 'out' is checked even where --out overrides it, as here
    "integer-out": ("catalog", dict(out=3)),
    "null-out": ("catalog", dict(out=None)),
    "list-out": ("catalog", dict(out=[])),
    "boolean-out": ("catalog", dict(out=True)),
    "empty-out": ("catalog", dict(out="")),
    "nul-in-out": ("catalog", dict(out="res\0ults")),
    # an output directory may not be an existing file or lie under one; a
    # "--out" field is the flag's value in place of {tmp}/out
    "out-is-a-file": ("catalog", dict(out="{tmp}/inf.json")),
    "out-under-a-file": ("catalog", dict(out="{tmp}/inf.json/sub")),
    "out-flag-is-a-file": ("catalog", {"--out": "{tmp}/inf.json"}),
    "out-flag-under-a-file": ("lift", {"--out": "{tmp}/inf.json/sub/deeper", "iwasawa": {"K": "circle:16"}}),
    # the name prefixes each output file, so a path in it would write elsewhere
    "name-up-a-directory": ("catalog", dict(name="../escaped")),
    "name-with-a-separator": ("catalog", dict(name="sub/exp")),
    "nul-in-name": ("catalog", dict(name="e\0xp")),
}


#: What the message of a bad input names, where a test pins it.
BLAMED = {
    "zero-table-weight": "expansion weights must be nonzero, got 0 at beta[0][1]",
    "boolean-table-weight": "cannot read complex value from True",
    "nan-iwasawa-truncation": "'iwasawa.truncation': truncation for circle:16 must be a finite number",
    "name-up-a-directory": "config 'name' must be a nonempty string with no path separator",
    "out-is-a-file": "config 'out' '{tmp}/inf.json' names or lies under the file '{tmp}/inf.json'",
    "out-under-a-file": "config 'out' '{tmp}/inf.json/sub' names or lies under the file '{tmp}/inf.json'",
    "out-flag-is-a-file": "--out '{tmp}/inf.json' names or lies under the file '{tmp}/inf.json'",
    "out-flag-under-a-file": "--out '{tmp}/inf.json/sub/deeper' names or lies under the file '{tmp}/inf.json'",
    "repeated-omitted-label": "config 'omit' repeats 'irrep:1'",
    "underscore-in-sample-value": "bad sample value in {tmp}/underscore.csv '1_0'",
    "non-ascii-digit-in-sample-value": "bad sample value in {tmp}/arabic.csv '\u0661'",
    "weights-overflow-the-expansion": "expansion weights overflow: the weighted expansion is not finite",
    "weights-overflow-the-defect": "expansion weights overflow: the defect of random:0 is not finite",
    **{
        f"sample-norm-overflows-in-{command}": "the squared norm of test function 'f' overflows"
        for command in ("parseval", "isometry", "semicomplete")
    },
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_inputs_exit_2_as_config_errors(tmp_path, capsys, case):
    (tmp_path / "inf.json").write_text(
        '{"gamma": [1, Infinity], "beta": [[1, 1], [1, 1]]}'
    )
    (tmp_path / "zero.json").write_text('{"gamma": [1, 1], "beta": [[1, 0], [1, 1]]}')
    (tmp_path / "bool.json").write_text('{"gamma": [1, true], "beta": [[1, 1], [1, 1]]}')
    (tmp_path / "huge.json").write_text('{"gamma": [1, 1%s], "beta": [[1, 1], [1, 1]]}' % ("0" * 400))
    (tmp_path / "scalar.json").write_text('{"gamma": 1, "beta": [[1]]}')
    (tmp_path / "ragged.json").write_text('{"gamma": [1, 1], "beta": [[1, 1]]}')
    (tmp_path / "small.json").write_text('{"gamma": [1], "beta": [[1]]}')
    (tmp_path / "overflow.json").write_text('{"gamma": [1.7e308], "beta": [[1.0]]}')
    (tmp_path / "large.json").write_text('{"gamma": [1e200], "beta": [[1.0]]}')
    samples = "fn,node,re,im\n" + "".join(f"f,{k},1,0\n" for k in range(6))
    (tmp_path / "words.csv").write_text(samples.replace("f,3,1,0", "f,3,one,0"))
    (tmp_path / "node.csv").write_text(samples.replace("f,3,1,0", "f,3.5,1,0"))
    (tmp_path / "binary.csv").write_bytes(samples.encode() + b"f,\xff,1,0\n")
    (tmp_path / "underscore.csv").write_text(samples.replace("f,3,1,0", "f,3,1_0,0"))
    (tmp_path / "arabic.csv").write_text(samples.replace("f,3,1,0", "f,3,1,\u0661"), encoding="utf-8")
    (tmp_path / "vast.csv").write_text("fn,node,re,im\nf,0,1e308,0\nf,1,-1e308,0\n")
    command, fields = BAD_INPUTS[case]
    fields = {
        k: v.replace("{tmp}", str(tmp_path)) if isinstance(v, str) else v
        for k, v in fields.items()
    }
    out = fields.pop("--out", str(tmp_path / "out"))
    cfg = write_config(tmp_path, **fields)
    files = _file_bytes(tmp_path)
    assert main([command, "--config", str(cfg), "--out", out]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and BLAMED.get(case, "").replace("{tmp}", str(tmp_path)) in err
    assert not (tmp_path / "out").exists()
    assert _file_bytes(tmp_path) == files


def _file_bytes(root):
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


#: Test-set specs that are refused when the config loads, from the spec alone:
#: no catalog is built, no function drawn and no samples file read.
TEST_SETS_REFUSED_AT_LOAD = {
    "misspelled-list-entry-key": (["random:sed=1"], "unknown function parameter 'sed'"),
    "unknown-list-entry-head": (["random:seed=1", "gauss:seed=2"], "unknown function spec 'gauss:seed=2'"),
    "member-entry-without-j": (["member:block=j:1,i=0"], "member spec 'member:block=j:1,i=0' needs block, i and j"),
    "missing-list-samples-file": (["samples:{tmp}/missing.csv"], "samples file not found: {tmp}/missing.csv"),
    "unknown-test-set-head": ("randn:count=4", "unknown test set spec 'randn:count=4'"),
    "members-with-a-parameter": ("members:count=2", "unknown members test set parameter 'count'"),
    "missing-samples-file": ("samples:{tmp}/missing.csv", "samples file not found: {tmp}/missing.csv"),
    "samples-under-a-directory": ("samples:{tmp}", "samples file not found: {tmp}"),
    "non-string-test-set": (3, "a spec must be a string, got 3"),
}


@pytest.mark.parametrize("case", list(TEST_SETS_REFUSED_AT_LOAD))
def test_bad_test_set_spec_exits_2_before_the_catalog(tmp_path, capsys, case):
    # su2:j=6 stores 106 MB of coefficients: building it first took about 1 s and
    # 170 MB of RSS before these specs were read
    spec, blamed = TEST_SETS_REFUSED_AT_LOAD[case]
    spec = json.loads(json.dumps(spec).replace("{tmp}", str(tmp_path)))
    cfg = write_config(tmp_path, group="su2:j=6", test_set=spec)
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(["parseval", "--config", str(cfg), "--out", str(out)])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"config error: {blamed}".replace("{tmp}", str(tmp_path)) in capsys.readouterr().err
    assert peak < 2**20 and elapsed < 1.0, (peak, elapsed)
    assert not out.exists()


def test_loading_a_test_set_spec_draws_nothing(tmp_path):
    # the specs are parsed when the config loads, but numpy.random, whose first
    # import raises a run's RSS by about 6 MB, loads only when a row is drawn
    cfg = write_config(tmp_path, group="su2:j=6", test_set=["random:seed=1", "member:block=j:1,i=0,j=0"])
    script = (
        "import sys\n"
        "from grouplab import config\n"
        f"config.load_config({str(cfg)!r})\n"
        "print('numpy.random' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"


@pytest.mark.parametrize("seed, code", [(2**64 - 1, 0), (2**64, 2)])
def test_spec_seed_and_seed_flag_share_the_unsigned_64_bit_rule(tmp_path, capsys, seed, code):
    in_spec = write_config(tmp_path, name="spec", group="zn:4", test_set=f"random:count=2,seed={seed}")
    flagged = write_config(tmp_path, name="flag", group="zn:4", test_set="random:count=2,seed=0")
    for cfg, flags in ((in_spec, []), (flagged, ["--seed", str(seed)])):
        out = tmp_path / f"out-{cfg.stem}"
        assert main(["parseval", "--config", str(cfg), "--out", str(out), *flags]) == code
        assert out.exists() == (code == 0)
        err = capsys.readouterr().err
        assert ("config error" in err) == (code == 2)
        # the seed rule's reason reaches the message, for --seed as for a spec seed
        assert (f"seed {seed} is not an unsigned 64-bit integer" in err) == (code == 2)


@pytest.mark.parametrize("flag", ["1_0", "+1", " 1", "\u0663"])
def test_seed_flag_takes_ascii_digits_only(tmp_path, capsys, flag):
    # int() reads each of these; the seed rule reads ASCII digits alone
    cfg = write_config(tmp_path, group="zn:4", test_set="random:count=2,seed=0")
    out = tmp_path / "out"
    assert main(["parseval", "--config", str(cfg), "--out", str(out), "--seed", flag]) == 2
    assert f"bad --seed {flag!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "group, blamed",
    [
        ("circle:0", "circle needs at least one node, got 0"),
        ("su2:j=1.5000000000001", "su2 jmax must be a nonnegative half-integer"),
    ],
    ids=["circle:0", "su2:j=1.5000000000001"],
)
def test_a_bad_group_size_is_named_before_the_truncation(tmp_path, capsys, group, blamed):
    # the preflight checks the truncation against the capacity, so it must
    # reject the size or spin first, by the constructor's own rule
    cfg = write_config(tmp_path, group=group)
    assert main(["catalog", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert blamed in err and "truncation" not in err


def test_empty_out_flag_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # Path("") is the working directory, which an empty --out must not stand for
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, group="zn:4")
    assert main(["catalog", "--config", str(cfg), "--out", ""]) == 2
    assert "--out must not be empty" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["exp.json"]


@pytest.mark.parametrize("named", [False, True], ids=["node-re-im", "fn-node-re-im"])
def test_only_the_column_names_make_a_first_line_a_header(tmp_path, capsys, named):
    # a headerless file keeps its first row, so a bad value there is named
    # instead of the row being skipped as a header and its node reported missing
    fn = "f," if named else ""
    path = tmp_path / "samples.csv"
    path.write_text("".join(f"{fn}{k},{k + 1},0\n" for k in range(4)))
    group = make_group("zn:4")
    read = build_test_set(f"samples:{path}" if named else [f"samples:{path}"], group)
    assert np.array_equal(read.values, [[1, 2, 3, 4]])
    path.write_text(path.read_text().replace(f"{fn}0,1,0", f"{fn}0,1,one"))
    test_set = f"samples:{path}" if named else [f"samples:{path}"]
    cfg = write_config(tmp_path, group="zn:4", test_set=test_set)
    assert main(["parseval", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "'one'" in err and "misses" not in err


def test_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"group": "\xff"}')
    assert main(["catalog", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_internal_value_error_is_not_a_config_error(tmp_path):
    # a ValueError from inside a command is a failure of the program: the
    # process exits 1 with the traceback instead of blaming the config
    cfg = write_config(tmp_path, test_set="random:count=2,seed=0")
    script = (
        "import sys\n"
        "from grouplab import _kernels, cli\n"
        "def broken(*args, **kwargs):\n"
        "    raise ValueError('kernel shapes disagree')\n"
        "_kernels.coefficients_against = broken\n"
        f"sys.exit(cli.main(['parseval', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 1
    assert "Traceback" in result.stderr and "kernel shapes disagree" in result.stderr
    assert "config error" not in result.stderr
    assert not (tmp_path / "out").exists()


def test_gram_check_fails_on_a_nan_defect():
    # NaN compares false with everything, so "defect > limit" would pass it
    from grouplab.cli import _require
    from grouplab.config import InvariantBreach

    fam = peter_weyl_basis(build_catalog(make_group("zn:4")))
    members = fam.members.copy()
    members[2, 1] = np.nan
    broken = type(fam)(group=fam.group, blocks=fam.blocks, members=members, scale=fam.scale)
    _require("gram", fam.gram_defect(), fam.group)
    with pytest.raises(InvariantBreach, match="gram residual nan"):
        _require("gram", broken.gram_defect(), broken.group)


def _break_gram(monkeypatch):
    # lift checks xi as the analysis commands check their family;
    # test_exit_3_on_forced_gram_breach covers those commands
    return "lift", ["--tol", "1e-18"]


def _break_bessel(monkeypatch):
    coefficients = cli.coefficients
    monkeypatch.setattr(cli, "coefficients", lambda fns, family: 2 * coefficients(fns, family))
    return "parseval", []


def _break_lift_restriction(monkeypatch):
    monkeypatch.setattr(
        cli,
        "lift_family",
        lambda model, xi: LiftedFamily(model, xi, 2 * np.exp(model.profile)),
    )
    return "lift", []


def _break_lift_condition_i(monkeypatch):
    monkeypatch.setattr(IwasawaModel, "condition_i_residual", lambda self: 1e-300)
    return "lift", []


def _break_lift_gram(monkeypatch):
    monkeypatch.setattr(IwasawaModel, "an_mass", property(lambda self: 1.5))
    return "lift", []


def _break_lift_norm(monkeypatch):
    # a Gram diagonal and an AN mass each off by less than the lift's
    # tolerance 1e-9, whose product is off by more: a scale off by
    # sqrt(1 + 0.75e-9) moves the members by rho = 3.75e-10, so the Gram bound
    # reads about 7.5e-10, gram_residual about 5e-10 and norm_residual 1.25e-9
    build = cli.build_riemann_lebesgue_family

    def rescaled(cat, omit):
        xi = build(cat, omit)
        return dataclasses.replace(xi, scale=xi.scale * np.sqrt(1.0 + 0.75e-9))

    monkeypatch.setattr(cli, "build_riemann_lebesgue_family", rescaled)
    monkeypatch.setattr(IwasawaModel, "an_mass", property(lambda self: 1.0 + 0.5e-9))
    return "lift", []


#: A way to break each invariant the CLI checks: it patches what it must and
#: returns the command and extra flags of a run that breaches that row alone.
INVARIANT_BREAKS = {
    "gram": _break_gram,
    "bessel": _break_bessel,
    "lift_restriction": _break_lift_restriction,
    "lift_condition_i": _break_lift_condition_i,
    "lift_gram": _break_lift_gram,
    "lift_norm": _break_lift_norm,
}
LIFT_FIELDS = dict(
    group="circle:16",
    iwasawa={
        "K": "circle:16",
        "A": {"range": [-0.5, 0.5], "nodes": 4},
        "N": {"range": [-0.5, 0.5], "nodes": 4},
        "truncation": 3,
    },
)


@pytest.mark.parametrize("row", CLI_INVARIANTS)
def test_every_cli_invariant_can_fail_with_exit_3(tmp_path, capsys, monkeypatch, row):
    command, flags = INVARIANT_BREAKS[row](monkeypatch)
    cfg = write_config(tmp_path, **(LIFT_FIELDS if command == "lift" else {}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numerical invariant failure: {row} residual "), err
    assert not out.exists()


def test_lift_gram_residual_between_1e_9_and_1e_8_exits_3(tmp_path, capsys, monkeypatch):
    # the lift's rows share the benchmark gate's limit of 1e-9, ten times
    # tighter than the circle's family Gram tolerance: an AN mass off by 5e-9
    # passes the family check and breaches lift_gram
    monkeypatch.setattr(IwasawaModel, "an_mass", property(lambda self: 1.0 + 5e-9))
    cfg = write_config(tmp_path, **LIFT_FIELDS)
    out = tmp_path / "out"
    assert main(["lift", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical invariant failure: lift_gram residual 5.000e-09 exceeds tolerance 1.000e-09"), err
    assert not out.exists()


@pytest.mark.parametrize("key", ["dump_coeficients", "seed"])
def test_unknown_config_key_is_named_and_writes_nothing(tmp_path, capsys, key):
    # a misspelled key used to be dropped (no dump, exit 0), and a config seed
    # passed validation and was then ignored; --seed is the one way to set it
    cfg = write_config(tmp_path, group="zn:4", **{key: True})
    out = tmp_path / "out"
    assert main(["catalog", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"unknown config key(s) {key!r}" in err and "dump_coefficients" in err
    assert not out.exists()


@pytest.mark.parametrize("group", ["circle:100000000000", "su2:j=1000"])
def test_store_beyond_physical_memory_exits_2_without_allocating(tmp_path, capsys, group):
    cfg = write_config(tmp_path, group=group, dump_coefficients=True)
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(["catalog", "--config", str(cfg), "--out", str(out)])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "B of physical memory" in capsys.readouterr().err
    assert peak < 2**20 and elapsed < 1.0, (peak, elapsed)
    assert not out.exists()


def test_store_limit_is_the_physical_memory(tmp_path, monkeypatch):
    # the limit is measured on the host: a store one byte over it is refused
    monkeypatch.setattr(cfgmod, "physical_memory_bytes", lambda: 16 * 16 * 16 - 1)
    with pytest.raises(ConfigError, match="physical memory"):
        cfgmod.load_config(write_config(tmp_path, group="zn:16"))
    monkeypatch.setattr(cfgmod, "physical_memory_bytes", lambda: 16 * 16 * 16)
    assert cfgmod.load_config(write_config(tmp_path, group="zn:16")).group_spec == "zn:16"


def test_random_test_set_limit_is_the_physical_memory(monkeypatch):
    # the samples of 'random:count=N' are sized before they are drawn
    group = make_group("zn:16")
    need = 4 * 16 * 16
    monkeypatch.setattr(cfgmod, "physical_memory_bytes", lambda: need - 1)
    with pytest.raises(ConfigError, match="'test_set' of 4 random functions on zn:16 needs"):
        build_test_set("random:count=4,seed=0", group)
    monkeypatch.setattr(cfgmod, "physical_memory_bytes", lambda: need)
    assert len(build_test_set("random:count=4,seed=0", group)) == 4


def test_random_test_set_beyond_physical_memory_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # sym:3's 576 B store fits and its 100 test functions (9600 B) do not, so
    # load_config refuses the test set before any catalog is built; the limit
    # is patched because an unchecked test set grows until memory runs out
    monkeypatch.setattr(cfgmod, "physical_memory_bytes", lambda: 100 * 6 * 16 - 1)
    cfg = write_config(tmp_path, test_set="random:count=100,seed=0")
    out = tmp_path / "out"
    assert main(["parseval", "--config", str(cfg), "--out", str(out)]) == 2
    assert "the 'test_set' of 100 random functions on sym:3 needs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, fields, blamed",
    [
        ("semicomplete", dict(weights="nonsense"), "unknown weights spec 'nonsense'"),
        ("semicomplete", dict(weights="table:{tmp}/missing.json"), "weights table not found"),
        ("parseval", dict(test_set="random:count=100000000"), "'test_set' of 100000000 random functions"),
        # keys are checked whatever the command: parseval reads no weights
        ("parseval", dict(weights="nonsense"), "unknown weights spec 'nonsense'"),
        ("isometry", dict(test_set="random:count=0"), "a test set must be nonempty"),
    ],
    ids=["weights-head", "weights-table", "test-set-size", "unused-weights", "empty-test-set"],
)
def test_weights_and_test_set_errors_exit_2_before_any_catalog(tmp_path, capsys, monkeypatch, command, fields, blamed):
    def no_catalog(*args, **kwargs):
        raise AssertionError("a catalog was built")

    monkeypatch.setattr(cli, "build_catalog", no_catalog)
    # circle:1024's 16.8 MB store fits, 1e8 of its test functions (1.6e12 B) do not
    monkeypatch.setattr(cfgmod, "physical_memory_bytes", lambda: 10**9)
    fields = {k: v.replace("{tmp}", str(tmp_path)) for k, v in fields.items()}
    cfg = write_config(tmp_path, group="circle:1024", **fields)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert blamed in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def lift_config(tmp_path, a_nodes, n_nodes):
    iwasawa = {"K": "circle:8", "A": {"nodes": a_nodes}, "N": {"nodes": n_nodes}}
    return write_config(tmp_path, group="circle:8", iwasawa=iwasawa)


def test_an_grid_beyond_physical_memory_exits_2_without_allocating(tmp_path, capsys):
    # np.outer used to fail with "Unable to allocate 7.28 TiB" and exit 1
    cfg = lift_config(tmp_path, 1000000, 1000000)
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(["lift", "--config", str(cfg), "--out", str(out)])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "1000000 x 1000000 'iwasawa' AN grid" in capsys.readouterr().err
    assert peak < 2**20 and elapsed < 1.0, (peak, elapsed)
    assert not out.exists()


def test_an_grid_one_node_over_physical_memory_is_refused(tmp_path):
    from grouplab.iwasawa import AN_NODE_BYTES

    nodes = cfgmod.physical_memory_bytes() // AN_NODE_BYTES
    with pytest.raises(ConfigError, match="AN grid needs .* physical memory"):
        cfgmod.load_config(lift_config(tmp_path, nodes + 1, 1))


def test_an_grid_limit_is_the_physical_memory(tmp_path, monkeypatch):
    from grouplab.iwasawa import an_grid_bytes

    need = an_grid_bytes(16, 8)
    assert need > 16 * 8 * 16  # above circle:8's coefficient store, so the grid decides
    monkeypatch.setattr(cfgmod, "physical_memory_bytes", lambda: need - 1)
    with pytest.raises(ConfigError, match="16 x 8 'iwasawa' AN grid"):
        cfgmod.load_config(lift_config(tmp_path, 16, 8))
    monkeypatch.setattr(cfgmod, "physical_memory_bytes", lambda: need)
    assert cfgmod.load_config(lift_config(tmp_path, 16, 8)).iwasawa.a_size == 16


def test_readme_example_config_loads_and_lists_every_key(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("### Config reference"):]
    example = section[section.index("```json\n") + 8:section.index("```", section.index("```json") + 7)]
    raw = json.loads(example)
    assert set(raw) == cfgmod.CONFIG_KEYS
    assert set(raw["iwasawa"]) == cfgmod.IWASAWA_KEYS
    assert set(raw["iwasawa"]["A"]) == set(raw["iwasawa"]["N"]) == cfgmod.AXIS_KEYS
    path = tmp_path / "demo.json"
    path.write_text(example)
    cfg = cfgmod.load_config(path)
    assert (cfg.name, cfg.group_spec, cfg.omit) == ("demo", "sym:3", ("irrep:2",))
    assert cfg.iwasawa.profile == "gauss:sigma=0.7"


HOSTILE_VALUES = [True, None, 10**400, "NaN", "", "\u00fc\u0663", [], {}]


def test_hostile_config_values_load_or_raise_config_error(tmp_path):
    # every config key and every 'iwasawa' subkey, set to each hostile value:
    # load_config either accepts the document or raises ConfigError, never
    # anything else
    base = {"name": "exp", "group": "zn:4"}
    docs = [{**base, key: value} for key in sorted(cfgmod.CONFIG_KEYS) for value in HOSTILE_VALUES]
    docs += [
        {**base, "iwasawa": {key: value}} for key in sorted(cfgmod.IWASAWA_KEYS) for value in HOSTILE_VALUES
    ]
    path = tmp_path / "exp.json"
    refused = 0
    for doc in docs:
        path.write_text(json.dumps(doc))
        try:
            cfgmod.load_config(path)
        except ConfigError:
            refused += 1
    assert len(docs) == 8 * (len(cfgmod.CONFIG_KEYS) + len(cfgmod.IWASAWA_KEYS))
    assert 0 < refused < len(docs)
