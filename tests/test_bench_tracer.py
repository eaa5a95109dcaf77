"""The benchmark's traced child process runs on the current library.

``bench/tracing.py`` rebinds library names from outside the package: it
fails when a traced name is gone, its ``ChainHomology`` subclass takes
exactly ``(n_vertices, edges, triangles)``, and its union-item counter reads
``MultiMap.images``, which the library itself never reads and forms only on
demand from the map's padded table.  A refactor that breaks any of these
shows only in a traced benchmark run, so each case here runs
``bench/child.py`` with the tracer installed, as the benchmark does, and
reads the record it writes.
A built tower reads its nearest-point tables off the farthest-point pass,
so only ``verify --sequence`` (a stored tower) still reaches the traced
``nearest_sets``; that case keeps its counter honest.  The last test reads
the tracer's source, without importing it, to find the test oracles it
still pins in the library and the ``ChainHomology`` signature its subclass
assumes.  Nothing under ``bench/`` is written.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from finiteshape.gf2 import ChainHomology

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("command, counters", [
    ("run", ("gf2.chain_homology_builds", "homotopy.union_items", "hyperspace.poset_elements")),
    ("verify", ("homotopy.union_items", "hyperspace.poset_elements")),
    ("verify --sequence", ("hyperspace.nearest_sets_calls", "homotopy.union_items")),
])
def test_traced_child_completes(tmp_path, command, counters):
    result = tmp_path / "r.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    space = ["--space", "circle", "--n", "64", "--depth", "3"]
    argv = [*command.split(), *space, "--outdir", str(tmp_path / "out")]
    if "--sequence" in argv:
        stored = tmp_path / "stored"
        subprocess.run(
            [sys.executable, "-m", "finiteshape.cli", "run", *space, "--outdir", str(stored)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        argv.insert(argv.index("--sequence") + 1, str(stored / "sequence.txt"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), str(result), "pipeline", "1", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(result.read_text())
    assert record["error"] is None
    assert record["rc"] == 0
    counts = record["trace"]["counts"]
    assert all(counts[name] > 0 for name in counters), counts


# Test oracles that stay in src/ only because the tracer pins them: when a
# benchmark change drops a pin, the oracle belongs in tests/reference_loops.py.
PINNED_ORACLES = {("construction", "build_net"), ("hyperspace", "is_continuous")}


def test_oracles_left_in_src_are_still_pinned_by_the_tracer():
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    wrappers = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "_wrappers")
    table = wrappers.body[-1].value  # the (module, attribute) -> replacement dict it returns
    pinned = {ast.literal_eval(key) for key in table.keys}
    for module, name in sorted(PINNED_ORACLES - pinned):
        pytest.fail(f"the tracer no longer pins {module}.{name}: move it into tests/reference_loops.py")
    reads_images = any(isinstance(node, ast.Attribute) and node.attr == "images" for node in ast.walk(wrappers))
    assert reads_images, "the tracer no longer reads MultiMap.images: move it into tests/reference_loops.py"


def test_traced_chain_homology_takes_the_library_signature():
    # a constructor the traced subclass does not mirror fails only in a traced run, with a TypeError
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    traced = next(node for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and node.name == "TracedChainHomology")
    init = next(node for node in traced.body if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    params = inspect.signature(ChainHomology).parameters.values()
    assert [a.arg for a in init.args.args[1:]] == [p.name for p in params]  # after self
    assert len(init.args.defaults) == sum(p.default is not p.empty for p in params)
