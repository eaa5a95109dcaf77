"""Golden digests of CLI invocations that the benchmark never reaches.

Each case runs ``finiteshape.cli.main`` in a fresh working directory and
hashes, with sha256: the argv, the exit code, stdout and stderr, and the name
and bytes of every file the invocation wrote.  The trailing ``(N.NNs)`` of the
final line and the ``elapsed_seconds`` value are scrubbed first, since they are
wall times.  A change that alters an output on purpose updates the digest here
and names it in CHANGES.md.
"""

import hashlib
import math
import re

import pytest

from finiteshape.cli import main

CIRCLE = ["--space", "circle", "--n", "64", "--depth", "3"]
CONFIG = "space = interval\nn = 40\ndepth = 3\nwindow = 3\n"

# name -> (setup invocations, digested invocation, digest)
CASES = {
    "run-circle-64-d3": (
        [], ["run", *CIRCLE, "--outdir", "out"],
        "7dbc7fd73af560731814e5c7ad52f10b60ae400b89d75bdbb613eb049109152e",
    ),
    "verify-sequence": (
        [["run", *CIRCLE, "--outdir", "out"]], ["verify", *CIRCLE, "--sequence", "out/sequence.txt"],
        "77d9c5ab926e8f67295428edf719ce40274f3ac011c2aed498a55a2cd7bfd135",
    ),
    "export-poset": (
        [], ["export-poset", *CIRCLE, "--level", "2", "--out", "poset"],
        "fa39d10d395f60cf80c5b86acc4ffeffa8018f3b30a20a945cebc87acfd42a71",
    ),
    "export-complex-order": (
        [], ["export-complex", *CIRCLE, "--level", "2", "--complex", "order", "--out", "cx"],
        "d40ed8ffe51b359712acf583f9b4c769952c7b539a594ee8ab3a66041bd0cc0a",
    ),
    "export-complex-rips": (
        [], ["export-complex", *CIRCLE, "--level", "2", "--complex", "rips", "--out", "cx"],
        "19cde695a24877fa81d238099c15df7408fbbd2d52c5ba794ec0916a06223253",
    ),
    "run-distmatrix-100": (
        [], ["run", "--input", "dist.csv", "--format", "distmatrix_csv", "--depth", "3", "--outdir", "out"],
        "da4eb7b1b74642149dfbcc37aab3b712b6d74b40cfade53d255521170afb8187",
    ),
    "run-distmatrix-600": (
        [], ["run", "--input", "dist600.csv", "--format", "distmatrix_csv", "--depth", "3", "--outdir", "out"],
        "0caa8feb875dd1bf6477e3bb5dbdd6d7b9c43cc7f3051b40d807874a9e0d4ca2",
    ),
    "run-config": (
        [], ["run", "--config", "run.cfg", "--n", "30", "--outdir", "out"],
        "6736a4dd8befe962e037dd1c3b4bb7a2022b3e8038447cc5328766961bffd6c8",
    ),
    "generate-cantor": (
        [], ["generate", "--space", "cantor", "--out", "cantor.csv"],
        "3816a2325377a9887035eef89aed3afa995fe2242aec95a7ceb39e79177f3c47",
    ),
    "verify-circle-64-d3": (
        [], ["verify", *CIRCLE],
        "9c71129ea958fec13e60ebc5930893002b71ef26efd651fb51157b7cdd9e2d32",
    ),
    "run-circle-64-d1": (
        [], ["run", "--space", "circle", "--n", "64", "--depth", "1", "--outdir", "out"],
        "0d29dd378024f5869dff12c7e4eb6d767baae150ae381bbcb5013a433ab34e2b",
    ),
    "run-bad-safety": (
        [], ["run", *CIRCLE, "--safety", "1.2", "--outdir", "out"],
        "01826ad9e0334848cb31018fff9d0c1c4027804247656eed7b95d6a1021af948",
    ),
}


def _write_inputs(directory, argv) -> None:
    # chord lengths of n equally spaced points on the unit circle, point i at
    # angle index step * i mod n; the 600-point table takes the sampled triangle check
    for name, n, step in (("dist.csv", 100, 1), ("dist600.csv", 600, 7)):
        if name in argv:
            at = [step * i % n for i in range(n)]
            rows = (",".join(repr(2.0 * abs(math.sin(math.pi * (a - b) / n))) for b in at) for a in at)
            (directory / name).write_text("\n".join(rows) + "\n")
    (directory / "run.cfg").write_text(CONFIG)


def _snapshot(directory) -> dict:
    return {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def _scrub(data: bytes) -> bytes:
    data = re.sub(rb"\(\d+\.\d+s\)$", b"(N.NNs)", data, flags=re.M)
    return re.sub(rb"elapsed_seconds = [0-9.]+", b"elapsed_seconds = X", data)


@pytest.mark.parametrize("name", CASES)
def test_cli_output_digest(name, tmp_path, monkeypatch, capsys):
    setup, argv, expected = CASES[name]
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path, argv)
    for step in setup:
        assert main(list(step)) == 0
    before = _snapshot(tmp_path)
    capsys.readouterr()
    code = main(list(argv))
    out, err = capsys.readouterr()

    h = hashlib.sha256()
    for part in (*argv, str(code), out, err):
        h.update(_scrub(part.encode()) + b"\0")
    for path, data in _snapshot(tmp_path).items():
        if before.get(path) != data:
            h.update(path.encode() + b"\0" + _scrub(data) + b"\0")
    assert h.hexdigest() == expected, f"{name}: exit {code}\n{out}{err}"
