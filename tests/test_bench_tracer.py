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
``nearest_sets``; that case keeps its counter honest.  Nothing under
``bench/`` is written.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
