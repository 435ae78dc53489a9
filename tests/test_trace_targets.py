"""Every function the benchmark traces or hooks by name must exist.

``bench/run.py`` looks its targets up by dotted name at run time, so a
renamed or deleted function breaks ``--trace 1`` without failing any test of
the package.  The file is read with ``ast``: importing it would pin the BLAS
threads of this process.
"""

import ast
import importlib
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def _assigned(name: str):
    for node in ast.parse(RUN.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"{name} is not assigned at module level in {RUN}")


def _trace_names():
    targets = _assigned("TRACE_TARGETS")
    assert isinstance(targets, ast.Dict)
    return [ast.literal_eval(key) for key in targets.keys]


def _hook_names():
    return list(ast.literal_eval(_assigned("PROBE_HOOKS")))


@pytest.mark.parametrize("dotted", _trace_names() + _hook_names())
def test_bench_target_resolves(dotted):
    module, attr = dotted.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(f"mibeam.{module}"), attr, None)), dotted
