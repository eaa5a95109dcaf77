"""Every module the tests import is the standard library's, the package's, numpy, a test module,
or named in the ``test`` extra of ``pyproject.toml``, so ``pip install -e .[test]`` is enough to run them."""

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parent.parent
TEST_FILES = sorted((ROOT / "tests").glob("*.py"))


def imported_top_level(source: str) -> set[str]:
    """First component of every absolute import in the source, nested imports included."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def declared_test_extra() -> set[str]:
    """Module names of the requirements in the ``test`` extra (lower case, ``-`` read as ``_``)."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = project.get("optional-dependencies", {}).get("test", [])
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in requirements}


def test_the_guard_sees_every_import():
    source = "import os.path, numpy as np\nfrom a.b import c\nfrom . import d\ndef f():\n    import scipy\n"
    assert imported_top_level(source) == {"os", "numpy", "a", "scipy"}


def test_every_test_import_is_declared():
    allowed = set(sys.stdlib_module_names) | {"finiteshape", "numpy"} | {p.stem for p in TEST_FILES}
    allowed |= declared_test_extra()
    undeclared = {f"{p.name}: {name}" for p in TEST_FILES for name in imported_top_level(p.read_text()) - allowed}
    assert undeclared == set()
