"""Every third-party module the package and its tests import is declared in
pyproject.toml: ``src/`` imports in ``dependencies``, ``tests/`` imports in
``dependencies`` or the ``test`` extra.  A module a test loads with
``pytest.importorskip`` counts as imported, so an install from the extra
runs every test instead of skipping some without saying so."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
# import names whose distribution is named otherwise
DISTRIBUTION = {"yaml": "pyyaml"}


def _normalized(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def _requirement_names(requirements) -> set:
    return {_normalized(re.match(r"[A-Za-z0-9_.-]+", req).group()) for req in requirements}


def top_level_imports(path: Path) -> set:
    """Top-level names of the absolute imports in one file, and of the
    modules it loads by ``pytest.importorskip("name")``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "importorskip" and node.args
              and isinstance(node.args[0], ast.Constant)):
            names.add(node.args[0].value)
    return {name.split(".")[0] for name in names}


def third_party(directory: Path) -> dict:
    """Distribution name -> files of ``directory`` that import it, leaving
    out the standard library, the package itself and the test modules."""
    local = {"mibeam", *(p.stem for p in (ROOT / "tests").glob("*.py"))}
    found = {}
    for path in sorted(directory.rglob("*.py")):
        for name in top_level_imports(path) - local - set(sys.stdlib_module_names):
            found.setdefault(_normalized(DISTRIBUTION.get(name, name)), []).append(path.name)
    return found


def test_every_third_party_import_is_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = _requirement_names(project["dependencies"])
    testing = runtime | _requirement_names(project["optional-dependencies"]["test"])
    undeclared = {**{name: files for name, files in third_party(ROOT / "src").items()
                     if name not in runtime},
                  **{name: files for name, files in third_party(ROOT / "tests").items()
                     if name not in testing}}
    assert not undeclared, f"imported but not declared in pyproject.toml: {undeclared}"


def test_the_walk_sees_the_imports_it_checks():
    # the walk is not vacuous: numpy and pyyaml from src, pytest and
    # hypothesis from tests
    assert {"numpy", "pyyaml"} <= set(third_party(ROOT / "src"))
    assert {"pytest", "hypothesis"} <= set(third_party(ROOT / "tests"))


def test_the_package_builds_no_dense_reference_forms():
    # the covariances stay factored and the receive-stacked filter acts on
    # factors block by block; the dense forms the tests compare against
    # live in tests/reference.py
    found = [f"{path.name}:{number}"
             for path in sorted((ROOT / "src" / "mibeam").glob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), start=1)
             if "np.kron" in line or "commutation" in line]
    assert not found, f"dense reference constructions in src/: {found}"
