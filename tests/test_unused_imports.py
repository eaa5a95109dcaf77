"""Every top-level import of the package modules and the tests is read somewhere in its file,
and every top-level definition of the package modules is read somewhere in the package or the tests."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "finiteshape").glob("*.py") if p.name != "__init__.py")
FILES = MODULES + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no expression in it reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_the_guard_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a.b import c as d, e\nprint(sys.argv, e)\n") == [
        "os (line 1)", "d (line 3)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


def unread_definitions(modules: dict[str, str], readers: list[str]) -> list[str]:
    """Top-level functions, classes and assigned names of ``modules`` that no source in ``readers`` reads.

    A read is a loaded name or an attribute of that name; the re-exports of
    ``__init__.py`` are not among the readers, so they count for nothing.
    """
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            unread += [f"{module}.{name} (line {node.lineno})" for name in names if name not in read]
    return unread


def test_the_guard_sees_an_unread_definition():
    module = "LIMIT = 3\nSPARE: int = 4\ndef used():\n    return LIMIT\ndef dead():\n    pass\nclass Gone:\n    pass\n"
    assert unread_definitions({"m": module}, [module, "import m\nm.used()\n"]) == [
        "m.SPARE (line 2)", "m.dead (line 5)", "m.Gone (line 7)"]


def test_every_top_level_definition_is_read():
    modules = {p.stem: p.read_text() for p in MODULES}
    assert unread_definitions(modules, [p.read_text() for p in FILES]) == []
