"""The library is what the commands run: every function in ``src/finiteshape`` is called by some command.

Each command of the CLI runs in-process on tiny inputs under
``sys.setprofile``: ``generate`` for every space kind, ``run`` on a
generated space, on one of more than ``LEAF_SIZE`` points (so the ground
statistics compare k-d leaves), on a coordinate CSV, on a distance-matrix
CSV and from a ``--config`` file, ``verify`` with and without
``--sequence``, both exports, and a distance table that breaks the triangle
inequality.  The test then
names every function or method compiled from the package's source that no
run called.  Methods a dataclass generates have no source there and are not
counted.  The only names let off are those the benchmark tracer pins: the
``(module, attribute)`` keys of the ``_wrappers`` table in
``bench/tracing.py``, read without importing it, and ``MultiMap.images``,
which its union-item counter reads.  Code that only a test reads belongs in
``tests/reference_loops.py``.
"""

import ast
import inspect
import sys
import types
from pathlib import Path

import numpy as np

import finiteshape
from finiteshape.cli import main
from finiteshape.metric import SpaceSpec, generate

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(finiteshape.__file__).resolve().parent

CIRCLE = ["--space", "circle", "--n", "32", "--depth", "3"]


def tracer_pins() -> set[tuple[str, str]]:
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    wrappers = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "_wrappers")
    table = wrappers.body[-1].value  # the (module, attribute) -> replacement dict it returns
    return {ast.literal_eval(key) for key in table.keys} | {("hyperspace", "MultiMap.images")}


def package_functions() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) of every function and method in the package -> ``module.qualname``.

    Class bodies, lambdas and comprehensions are not functions here.
    """
    out = {}

    def walk(code, prefix):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                continue
            name = prefix + const.co_name
            if const.co_flags & inspect.CO_NEWLOCALS:  # a function; a class body has no local namespace of its own
                out[const.co_filename, const.co_firstlineno, const.co_name] = name
                walk(const, name + ".<locals>.")
            else:
                walk(const, name + ".")

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem + ".")
    return out


def commands(tmp: Path) -> list[tuple[list[str], int]]:
    """(argv, expected exit code) of each invocation, in order; later ones read what earlier ones wrote."""
    table = generate(SpaceSpec("circle", n=24)).block(slice(None), slice(None))
    np.savetxt(tmp / "dist.csv", table, delimiter=",", fmt="%.17g")
    broken = table.copy()
    broken[0, 12] = broken[12, 0] = 3.0  # longer than the way round through any point between them
    np.savetxt(tmp / "broken.csv", broken, delimiter=",", fmt="%.17g")
    (tmp / "run.cfg").write_text("space = interval\nn = 20\ndepth = 3\n")
    out = ["--outdir", str(tmp / "out")]
    return [
        *[(["generate", "--space", space, "--n", "40", "--out", str(tmp / f"{space}.csv")], 0)
          for space in ("two_points", "circle", "interval", "cantor", "warsaw", "warsaw_circle")],
        (["run", *CIRCLE, "--outdir", str(tmp / "tower")], 0),
        (["run", "--space", "circle", "--n", "100", "--depth", "2", *out], 0),  # more than one k-d leaf
        (["run", "--input", str(tmp / "circle.csv"), "--depth", "3", *out], 0),
        (["run", "--input", str(tmp / "dist.csv"), "--format", "distmatrix_csv", "--depth", "3", *out], 0),
        (["run", "--config", str(tmp / "run.cfg"), *out], 0),
        (["run", "--input", str(tmp / "broken.csv"), "--format", "distmatrix_csv", *out], 2),
        (["verify", *CIRCLE], 0),
        (["verify", *CIRCLE, "--sequence", str(tmp / "tower" / "sequence.txt")], 0),
        (["export-poset", *CIRCLE, "--level", "2", "--out", str(tmp / "poset")], 0),
        (["export-complex", *CIRCLE, "--level", "2", "--out", str(tmp / "order")], 0),
        (["export-complex", *CIRCLE, "--level", "2", "--complex", "rips", "--out", str(tmp / "rips")], 0),
    ]


def test_every_library_function_is_run_by_a_command(tmp_path, capsys):
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno, code.co_name))

    runs = commands(tmp_path)
    codes = []
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        for argv, _ in runs:
            codes.append(main(argv))
    finally:
        sys.setprofile(previous)
    assert codes == [want for _, want in runs], capsys.readouterr().err

    pins = {f"{module}.{name}" for module, name in tracer_pins()}
    unreached = sorted(name for key, name in package_functions().items() if key not in called and name not in pins)
    assert not unreached, (
        "no command calls these; move a test-only helper into tests/reference_loops.py: " + ", ".join(unreached))
