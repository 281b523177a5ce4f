"""The spec grammar: one parser for every ``head:key=value`` string.

Every spec kind (group, lift profile, weights, test function, test set) must
reject a misspelled key, a value of the wrong type and a parameter on a head
that takes none, in the library and from the CLI, and every documented form
must keep its meaning.
"""
import json

import numpy as np
import pytest

from grouplab import samples as samplesmod
from grouplab import spec as specmod
from grouplab.catalog import build_catalog, peter_weyl_basis
from grouplab.cli import main
from grouplab.config import ConfigError, build_test_set, build_weights
from grouplab.groups import (
    circle_group,
    cyclic_group,
    dihedral_group,
    make_group,
    su2_group,
    symmetric_group,
)
from grouplab.hilbert import diag_reciprocal_weights, random_function
from grouplab.iwasawa import make_iwasawa_model
from grouplab.spec import parse_params, split_spec
from support import functions_to_csv, l2_to_csv, oracle_random_functions, stack


def test_config_error_is_one_class():
    assert ConfigError is specmod.ConfigError
    assert issubclass(ConfigError, ValueError)


def test_split_spec():
    assert split_spec("  SU2:J=1, quad=4  ") == ("su2", "J=1, quad=4")
    assert split_spec("members") == ("members", "")
    assert split_spec("member:block=irrep:2,i=0") == ("member", "block=irrep:2,i=0")
    with pytest.raises(ConfigError):
        split_spec(3)


def test_parse_params_types_keys_and_skips_empty_parts():
    got = parse_params(" ,COUNT=3,, Seed = 7 ,", "test set", count=int, seed=int)
    assert got == {"count": 3, "seed": 7}
    assert parse_params("block=irrep:2,i=1", "f", block=str, i=int) == {"block": "irrep:2", "i": 1}
    assert parse_params("Block=M:-3", "f", block=str) == {"block": "M:-3"}
    assert parse_params("", "unit weights") == {}
    assert parse_params("j=1.5", "su2", j=float) == {"j": 1.5}


@pytest.mark.parametrize(
    "rest, match",
    [
        ("sed=9", "unknown"),
        ("seed", "malformed"),
        ("seed=x", "bad"),
        ("seed=1.5", "bad"),
        ("sigma=inf", "not finite"),
        ("sigma=nan", "not finite"),
    ],
)
def test_parse_params_rejects(rest, match):
    with pytest.raises(ConfigError, match=match):
        parse_params(rest, "demo", seed=int, sigma=float)


def test_parse_params_without_types_takes_nothing():
    with pytest.raises(ConfigError, match="unknown"):
        parse_params("seed=1", "unit weights")


# ---------------------------------------------------------------------------
# each spec kind: misspelled key, bad value, stray parameter


BAD_SPECS = [
    ("group", "su2:jj=1"),
    ("group", "su2:j=one"),
    ("group", "circle:eight"),
    ("profile", "gauss:sigmaa=0.7"),
    ("profile", "gauss:sigma=wide"),
    ("profile", "uniform:sigma=1"),
    ("weights", "diag-reciprocal:sede=4"),
    ("weights", "diag-reciprocal:seed=x"),
    ("weights", "unit:seed=1"),
    ("function", "random:sed=9"),
    ("function", "random:seed=x"),
    ("function", "member:block=0,i=0,j=0,k=1"),
    ("test_set", "random:count=2,sed=9"),
    ("test_set", "random:count=two"),
    ("test_set", "members:count=2"),
    # spec numbers are ASCII: int() and float() would also read these
    ("group", "zn:\u0663"),
    ("group", "zn:1_2"),
    ("group", "zn:+12"),
    ("group", "su2:j=1_0"),
    ("group", "su2:j=\u0661"),
    ("group", "su2:j=1,quad=1_0"),
    ("profile", "gauss:sigma=0_5"),
    ("weights", "diag-reciprocal:seed=+4"),
    ("function", "random:seed=1_0"),
    ("function", "member:block=0,i=\u0660,j=0"),
    ("function", "member:block=\u00b2,i=0,j=0"),
    ("test_set", "random:count=\u0663"),
]

#: The value each ASCII-number case's message names.
NAMED = {
    "zn:\u0663": "'\u0663'",
    "zn:1_2": "'1_2'",
    "zn:+12": "'+12'",
    "su2:j=1_0": "'1_0'",
    "su2:j=\u0661": "'\u0661'",
    "su2:j=1,quad=1_0": "'1_0'",
    "gauss:sigma=0_5": "'0_5'",
    "diag-reciprocal:seed=+4": "'+4'",
    "random:seed=1_0": "'1_0'",
    "member:block=0,i=\u0660,j=0": "'\u0660'",
    "member:block=\u00b2,i=0,j=0": "'\u00b2'",
    "random:count=\u0663": "'\u0663'",
}


def _build(kind, text):
    group = symmetric_group(3)
    family = peter_weyl_basis(build_catalog(group))
    if kind == "group":
        return make_group(text)
    if kind == "profile":
        return make_iwasawa_model("circle:16", (-1, 1), (-1, 1), 4, 4, profile=text)
    if kind == "weights":
        return build_weights(text, 2)
    if kind == "function":
        return build_test_set([text], group, family)
    return build_test_set(text, group, family)


@pytest.mark.parametrize("kind, text", BAD_SPECS)
def test_bad_spec_raises_config_error(kind, text):
    with pytest.raises(ConfigError) as info:
        _build(kind, text)
    assert NAMED.get(text, "") in str(info.value)


def _cli_case(kind, text):
    """(command, config fields) that route ``text`` to its spec kind."""
    if kind == "group":
        return "catalog", {"group": text}
    if kind == "profile":
        block = {
            "K": "circle:16",
            "A": {"range": [-0.5, 0.5], "nodes": 4},
            "N": {"range": [-0.5, 0.5], "nodes": 4},
            "profile": text,
        }
        return "lift", {"group": "circle:16", "iwasawa": block}
    if kind == "weights":
        return "semicomplete", {"weights": text, "test_set": "random:count=2,seed=0"}
    if kind == "function":
        return "parseval", {"test_set": [text]}
    return "semicomplete", {"test_set": text}


@pytest.mark.parametrize("kind, text", BAD_SPECS)
def test_bad_spec_exits_2_and_writes_nothing(tmp_path, capsys, kind, text):
    command, fields = _cli_case(kind, text)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "exp", "group": "sym:3", **fields}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert NAMED.get(text, "") in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# every documented form keeps its meaning


@pytest.mark.parametrize(
    "text, want",
    [
        ("zn:12", lambda: cyclic_group(12)),
        ("dihedral:5", lambda: dihedral_group(5)),
        ("sym:4", lambda: symmetric_group(4)),
        ("circle:64", lambda: circle_group(64)),
        ("Circle: 8", lambda: circle_group(8)),
        ("su2:j=1", lambda: su2_group(1)),
        ("su2:j=1.5", lambda: su2_group(1.5)),
        ("su2:j=1,quad=4", lambda: su2_group(1, 4)),
        ("SU2:J=1,QUAD=4", lambda: su2_group(1, 4)),
        ("su2:quad=4, j=1,", lambda: su2_group(1, 4)),
    ],
)
def test_group_forms_keep_their_meaning(text, want):
    got, ref = make_group(text), want()
    assert (got.kind, got.name) == (ref.kind, ref.name)
    assert np.array_equal(got.weights, ref.weights)
    again = make_group(got.name)        # the canonical name parses to itself
    assert again.name == got.name and np.array_equal(again.weights, got.weights)


def test_weights_forms_keep_their_meaning(tmp_path):
    assert np.all(build_weights("unit", 3).gamma == 1.0)
    ref = diag_reciprocal_weights(4, 5)
    for text in ["diag-reciprocal:seed=5", "DIAG-RECIPROCAL:SEED=5", "diag-reciprocal:seed=5,"]:
        w = build_weights(text, 4)
        assert np.array_equal(w.gamma, ref.gamma) and np.array_equal(w.beta, ref.beta)
    seed0 = diag_reciprocal_weights(4, 0).gamma
    assert np.array_equal(build_weights("diag-reciprocal", 4).gamma, seed0)
    assert np.array_equal(build_weights("diag-reciprocal:seed=5", 4, seed_override=0).gamma, seed0)
    # a table entry is a number or an [re, im] pair, in any mix; a table of
    # only pairs is not read as one more array dimension
    tables = {
        "mixed": {"gamma": [1, [2, 1]], "beta": [[1, [1, 0]], [1.0, [0.4, -0.2]]]},
        "pairs": {"gamma": [[1, 0], [2, 1]], "beta": [[[1, 0], [1, 0]], [[1, 0], [0.4, -0.2]]]},
    }
    for form, table in tables.items():
        path = tmp_path / f"{form}.json"
        path.write_text(json.dumps(table))
        w = build_weights(f"table:{path}", 2)
        assert np.array_equal(w.gamma, [1, 2 + 1j]), form
        assert np.array_equal(w.beta, [[1, 1], [1, 0.4 - 0.2j]]), form


def test_function_forms_keep_their_meaning(tmp_path):
    group = symmetric_group(3)
    family = peter_weyl_basis(build_catalog(group))
    for text in ["random:seed=3", "RANDOM:SEED=3"]:
        ts = build_test_set([text], group)
        assert ts.ids == ("random:3",)
        assert np.array_equal(ts.values[0], random_function(group, 3).values)
    assert build_test_set(["random"], group).ids == ("random:0",)
    for text in [
        "member:block=irrep:2,i=0,j=1",
        "member:BLOCK=irrep:2,I=0,J=1",
        "member:block=2,i=0,j=1",
        "member:j=1, i=0, block=irrep:2",
    ]:
        ts = build_test_set([text], group, family)
        assert ts.ids == ("member:irrep:2[0][1]",)
        assert np.array_equal(ts.values[0], family.member(2, 0, 1).values)
    path = tmp_path / "f.csv"
    l2_to_csv(random_function(group, 4), path)
    ts = build_test_set([f"samples:{path}"], group)
    assert ts.ids == (f"samples:{path}",)
    assert np.array_equal(ts.values[0], random_function(group, 4).values)


def test_test_set_forms_keep_their_meaning(tmp_path):
    group = circle_group(16)
    family = peter_weyl_basis(build_catalog(group, truncation=2))
    ref = stack(oracle_random_functions(group, 7, 3)).values
    for text in ["random:count=3,seed=7", "RANDOM:Count=3,SEED=7", "random:,count=3,,seed=7,"]:
        ts = build_test_set(text, group, family)
        assert ts.ids == ("random:0", "random:1", "random:2")
        assert ts.descriptor == "random:count=3,seed=7"
        assert np.array_equal(ts.values, ref)
        assert build_test_set(ts.descriptor, group, family).descriptor == ts.descriptor   # it re-parses
    assert build_test_set("random", group).descriptor == "random:count=16,seed=0"
    ts = build_test_set("members", group, family)
    assert ts.descriptor == "members" and ts.ids[:2] == ("member:m:0[0][0]", "member:m:-1[0][0]")
    ts = build_test_set(["member:block=m:-1,i=0,j=0", "random:seed=2"], group, family)
    assert ts.ids == ("member:m:-1[0][0]", "random:2")
    path = tmp_path / "set.csv"
    functions_to_csv(["a", "b"], [ts.function(k) for k in range(2)], path)
    ts = build_test_set(f"samples:{path}", group)
    assert (ts.ids, ts.descriptor) == (("a", "b"), f"samples:{path}")


def test_profile_forms_keep_their_meaning(tmp_path):
    def model(profile):
        return make_iwasawa_model("circle:16", (-1, 1), (-1, 1), 4, 4, profile=profile)

    assert np.all(model("uniform").profile == 0)
    ref = model("gauss:sigma=0.7")
    for text in ["GAUSS:SIGMA=0.7", "gauss:sigma=0.7,", "gauss: Sigma = 0.7"]:
        got = model(text)
        assert np.array_equal(got.profile, ref.profile)
        assert np.array_equal(got.an_weights, ref.an_weights)
        assert got.profile_name == text.strip()
    assert np.array_equal(model("gauss").profile, model("gauss:sigma=1").profile)
    path = tmp_path / "p.txt"
    np.savetxt(path, np.zeros((4, 4)))
    assert np.all(model(f"table:{path}").profile == 0)


@pytest.mark.parametrize("bad", ["1_0", "+3", " 3", "3.5", "", "٣", "-"])
def test_leading_integers_stop_where_the_integer_rule_does(bad):
    good = ["0", "-3", "0007", str(10**30)]
    assert samplesmod.leading_integers(good + [bad] + good) == [specmod.integer(t) for t in good]
    assert samplesmod.leading_integers(good) == [0, -3, 7, 10**30]


@pytest.mark.parametrize("bad", ["1_0", "١", "one", "", "0x10", "1e5_0"])
def test_leading_reals_stop_where_the_real_rule_does(bad):
    good = ["-0", "1e-320", " 2.5 ", "nan", "-inf", "1e999"]
    got = samplesmod.leading_reals(good + [bad] + good)
    assert np.array(got).tobytes() == np.array([specmod.real(t) for t in good]).tobytes()
