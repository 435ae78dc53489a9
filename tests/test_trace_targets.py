"""Every function the benchmark traces or hooks by name must exist, and a
K-user solve must reach the traced surrogate and subproblem builders
through their module bindings.

``bench/run.py`` looks its targets up by dotted name at run time, so a
renamed or deleted function breaks ``--trace 1`` without failing any test of
the package.  The file is read with ``ast``: importing it would pin the BLAS
threads of this process.
"""

import ast
import importlib
from pathlib import Path

import pytest

from mibeam import mm, model
from mibeam.config import parse_config

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"


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


def test_k_user_solve_calls_the_surrogate_and_subproblem_through_module_bindings(monkeypatch):
    # the tracer wraps mm.build_surrogate and mm.multiuser_subproblem where
    # the module binds them; a solve that reached them another way (a bound
    # alias, a reference kept from import) would read 0 in their per-layer
    # spans without failing any other test
    calls = {"build_surrogate": 0, "multiuser_subproblem": 0}
    for name in calls:
        def counting(*args, _name=name, _orig=getattr(mm, name)):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(mm, name, counting)
    inst = model.build_instance(parse_config(ROOT / "configs" / "multi_user.yaml").scenario)
    mm.solve_multi_user(inst, max_iters=2)
    # one surrogate per map and one for the certificate at the stop
    assert calls == {"build_surrogate": 3, "multiuser_subproblem": 2}
