"""The lazy package, the CLI's BLAS thread policy, and what ``import grouplab.cli``
loads.  Everything that depends on a fresh interpreter runs in a subprocess."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grouplab

SRC = Path(grouplab.__file__).resolve().parents[1]
TRACED = SRC.parent / "perfbench" / "traced.py"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS")


def fresh(script: str, **preset: str):
    """Run ``script`` in a new interpreter whose environment has no BLAS or
    OpenMP thread count except ``preset``; return what it prints, as JSON."""
    env = {k: v for k, v in os.environ.items() if k not in (*BLAS_VARS, "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(preset)
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


ENV_AFTER = (
    "import json, os, sys\n"
    "import {module}\n"
    "print(json.dumps({{k: os.environ.get(k) for k in {names!r}}}))\n"
)


def test_import_grouplab_loads_neither_numpy_nor_a_submodule():
    loaded = fresh(
        "import json, sys\n"
        "import grouplab\n"
        "print(json.dumps(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('grouplab.'))))\n"
    )
    assert loaded == []


@pytest.mark.parametrize("test_set", ["random:count=4,seed=1", "random"])
def test_load_config_draws_nothing(tmp_path, test_set):
    # the weights and a random test set are read at load time, but numpy.random
    # must load only once the Gram check has freed its slabs
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"group": "su2:j=2", "weights": "diag-reciprocal:seed=3", "test_set": test_set}))
    loaded = fresh(
        "import json, sys\n"
        "from grouplab.config import load_config\n"
        f"load_config({str(cfg)!r}, seed_override=5)\n"
        "print(json.dumps('numpy.random' in sys.modules))\n"
    )
    assert loaded is False


@pytest.mark.parametrize("name", grouplab.__all__)
def test_every_public_name_is_its_submodules_own_object(name):
    obj = getattr(grouplab, name)
    home = sys.modules[f"grouplab.{grouplab._EXPORTS[name]}"]
    assert obj is getattr(home, name)


def test_dir_lists_every_public_name():
    assert set(grouplab.__all__) <= set(dir(grouplab))
    assert grouplab.__version__ == "0.1.0" and "__version__" in dir(grouplab)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        grouplab.no_such_name
    assert not hasattr(grouplab, "su2_irrep_matrix")  # public in catalog, not here


def test_from_import_of_a_submodule_still_works():
    from grouplab import config

    assert config.load_config is sys.modules["grouplab.config"].load_config


def test_cli_sets_one_blas_thread():
    env = fresh(ENV_AFTER.format(module="grouplab.cli", names=BLAS_VARS))
    assert env == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None}


def test_cli_sets_one_blas_thread_despite_omp_num_threads():
    # OMP_NUM_THREADS is often set for other software, so it does not count
    env = fresh(ENV_AFTER.format(module="grouplab.cli", names=BLAS_VARS), OMP_NUM_THREADS="2")
    assert env == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None}


def test_preset_openblas_thread_count_wins():
    env = fresh(ENV_AFTER.format(module="grouplab.cli", names=BLAS_VARS), OPENBLAS_NUM_THREADS="2")
    assert env == {"OPENBLAS_NUM_THREADS": "2", "GOTO_NUM_THREADS": None}


def test_preset_goto_thread_count_wins():
    env = fresh(ENV_AFTER.format(module="grouplab.cli", names=BLAS_VARS), GOTO_NUM_THREADS="2")
    assert env == {"OPENBLAS_NUM_THREADS": None, "GOTO_NUM_THREADS": "2"}


def test_library_import_leaves_the_environment_alone():
    env = fresh(ENV_AFTER.format(module="grouplab", names=BLAS_VARS))
    assert env == {"OPENBLAS_NUM_THREADS": None, "GOTO_NUM_THREADS": None}


def test_cli_sets_the_thread_count_before_numpy_loads():
    # OpenBLAS reads the variable once, when numpy loads it
    seen = fresh(
        "import json, os, sys\n"
        "class Probe:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not hasattr(self, 'env'):\n"
        "            self.env = os.environ.get('OPENBLAS_NUM_THREADS')\n"
        "probe = Probe()\n"
        "sys.meta_path.insert(0, probe)\n"
        "import grouplab.cli\n"
        "print(json.dumps(probe.env))\n"
    )
    assert seen == "1"


def test_parseval_bytes_do_not_depend_on_the_core_count(tmp_path):
    # su2:j=4 without j:4, 32 functions: the stacked coefficient product of
    # this parseval rounds differently under one and two OpenBLAS threads, so
    # with no thread count in the environment the CLI must pick one itself
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "name": "exp", "group": "su2:j=4", "omit": ["j:4"],
        "weights": "diag-reciprocal:seed=4", "test_set": "random:count=32,seed=11",
    }))
    written = []
    for preset in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        out = tmp_path / f"out{len(written)}"
        code = fresh(
            "import json\n"
            "from grouplab.cli import main\n"
            f"print(json.dumps(main(['parseval', '--config', {str(cfg)!r}, '--out', {str(out)!r}])))\n",
            **preset,
        )
        assert code == 0
        written.append((out / "exp_parseval.csv").read_bytes())
    assert written[0].count(b"\n") == 33
    assert written[0] == written[1]


def test_cli_import_loads_every_module_the_tracer_wraps():
    # perfbench/traced.py looks each module up in sys.modules right after
    # ``import grouplab.cli``; with a lazy package nothing else loads them
    namespace = {"__name__": "traced_hooks"}
    exec(compile(TRACED.read_text(), str(TRACED), "exec"), namespace)
    wanted = sorted({m for m, *_ in namespace["FUNCTIONS"]} | {m for m, *_ in namespace["METHODS"]})
    loaded = fresh(
        "import json, sys\n"
        "import grouplab.cli\n"
        f"print(json.dumps([m for m in {wanted!r} if m in sys.modules]))\n"
    )
    assert loaded == wanted


def test_cli_import_loads_no_hashlib():
    # only the semicomplete report hashes (its weights), so the other commands
    # do not load OpenSSL's _hashlib
    loaded = fresh(
        "import json, sys\n"
        "import grouplab.cli\n"
        "print(json.dumps(sorted(m for m in ('hashlib', '_hashlib') if m in sys.modules)))\n"
    )
    assert loaded == []
