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
CONFIG = "space = interval\nn = 40\ndepth = 3\nskip-diagram = yes\nwindow = 3\n"

# name -> (setup invocations, digested invocation, digest)
CASES = {
    "run-circle-64-d3": (
        [], ["run", *CIRCLE, "--outdir", "out"],
        "73b93754d68ef567adcba451d10849821bfa76499223bda56aa3fd0baebdae77",
    ),
    "run-circle-64-d3-maxdim2": (
        [], ["run", *CIRCLE, "--maxdim", "2", "--outdir", "out"],
        "2aee40fcc4a81f4cc72abbc8d6a591561cb419477a1d4aa2a704aec5263d8c9b",
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
        "21c7abe205df14b071c996aef8ef231245664a03b265388051414eaf29dc1b67",
    ),
    "run-config": (
        [], ["run", "--config", "run.cfg", "--n", "30", "--outdir", "out"],
        "330a2c3f7325b67bb481d702bf87900076c8677f2fcdc7d92fd4d2b1e836fc2c",
    ),
    "generate-cantor": (
        [], ["generate", "--space", "cantor", "--out", "cantor.csv"],
        "3816a2325377a9887035eef89aed3afa995fe2242aec95a7ceb39e79177f3c47",
    ),
    "run-bad-safety": (
        [], ["run", *CIRCLE, "--safety", "1.2", "--outdir", "out"],
        "01826ad9e0334848cb31018fff9d0c1c4027804247656eed7b95d6a1021af948",
    ),
}


def _write_inputs(directory) -> None:
    n = 100
    rows = []
    for i in range(n):
        rows.append(",".join(repr(2.0 * abs(math.sin(math.pi * (i - j) / n))) for j in range(n)))
    (directory / "dist.csv").write_text("\n".join(rows) + "\n")
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
    _write_inputs(tmp_path)
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
