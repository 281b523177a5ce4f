"""The benchmark tracer wraps grouplab names by lookup; each one must resolve.

``perfbench/traced.py`` is read as source and executed in a fresh namespace,
so nothing is imported from or written under ``perfbench/``.
"""
import importlib
from pathlib import Path

import pytest

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def _traced_namespace() -> dict:
    namespace = {"__name__": "traced_hooks"}
    exec(compile(TRACED.read_text(), str(TRACED), "exec"), namespace)
    return namespace


HOOKS = _traced_namespace()


@pytest.mark.parametrize("module,attr,span", HOOKS["FUNCTIONS"])
def test_traced_function_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module,cls,attr,span", HOOKS["METHODS"])
def test_traced_method_resolves(module, cls, attr, span):
    assert callable(getattr(getattr(importlib.import_module(module), cls), attr))
