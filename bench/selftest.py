"""Fast self-test of the benchmark harness at tiny sizes.

Usage, from the repository root:  python3 bench/selftest.py

Runs a 64-point circle at depth 3 through the real harness, untraced and
traced, and checks that every end-to-end and per-layer metric is emitted with
its unit, that work counts repeat and that set-up-only processes add setup_s
samples.  Traced and untraced runs must share the recorded output digest, and
a planted wrong reference digest must fail every process.  A forced failure
(an invalid option, exit code 2) must show up as error_rate 1.  The output
checker is fed hand-made results (FAIL verdict, wrong ranks, escaping
exception), the harness must refuse to run in a directory without
``src/finiteshape``, and ``BENCHMARK.json`` must name exactly the workloads
and metrics defined here.
Exits 0 when every check holds.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import run
from tracing import PER_LAYER

TINY = run.Workload(
    "tiny-circle-64-d3",
    ("run", "--space", "circle", "--n", "64", "--depth", "3", "--outdir", "{outdir}"),
    "self-test: smallest run through every layer",
)
FORCED_FAILURE = run.Workload(
    "tiny-forced-failure",
    ("verify", "--space", "circle", "--n", "64", "--depth", "3", "--safety", "1.5"),
    "self-test: invalid option, exit code 2",
)

failures: list[str] = []


def check(ok: bool, message: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {message}")
    if not ok:
        failures.append(message)


def check_units(metrics: dict, expected: list[tuple[str, str]], label: str) -> None:
    check(list(metrics) == [name for name, _ in expected], f"{label}: exactly the defined metrics, in order")
    for name, unit in expected:
        got = metrics.get(name, {})
        check(got.get("unit") == unit and isinstance(got.get("value"), (int, float)),
              f"{label}: {name} has a value in {unit}")


def run_main(args: list[str]) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(args)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def main() -> int:
    root = os.getcwd()
    run.WORKLOADS[TINY.name] = TINY
    run.WORKLOADS[FORCED_FAILURE.name] = FORCED_FAILURE
    e2e = [(name, unit) for name, unit, _ in run.END_TO_END]
    layer = [(name, unit) for name, unit, _, _, _ in PER_LAYER]

    code, plain = run_main(["--workload", TINY.name, "--seed", "1", "--seconds", "1", "--trace", "0"])
    check(code == 0 and plain["correct"] and plain["failed"] == 0, "tiny run is correct with no failures")
    check(set(plain) == {"correct", "attempted", "failed", "metrics"}, "result line has exactly the four keys")
    check_units(plain["metrics"], e2e, "untraced")
    check(all(plain["metrics"][name]["value"] > 0 for name, _ in e2e), "end-to-end metrics are nonzero")
    with open(os.path.join(root, ".bench_build", "results", f"{TINY.name}-seed1-trace0.json")) as fh:
        record = json.load(fh)
    check(len(record["samples"]["setup_s"]) > len(record["samples"]["pipeline_s"]),
          "set-up-only processes add setup_s samples")

    traced = run.measure(TINY, 1, 1.0, True, root)
    check(traced["correct"], "traced tiny run is correct")
    check_units(traced["metrics"], layer, "traced")
    check(traced["metrics"]["gf2.chain_homology_builds"]["value"] > 0, "traced run reached gf2")
    check(len(traced["spans"]) >= 2 and all(len(span) == 4 for spans in traced["spans"] for span in spans),
          "spans of every traced process are kept as (name, start, end, parent)")

    digests_path = os.path.join(root, ".bench_build", "results", "digests.json")
    with open(digests_path) as fh:
        known = json.load(fh)
    check(known.get(TINY.name) == traced["digests"][0] and len(traced["digests"]) == 1,
          "traced and untraced runs share the recorded digest")
    with open(digests_path, "w") as fh:
        json.dump(dict(known, **{TINY.name: "0" * 64}), fh)
    try:
        mismatch = run.measure(TINY, 1, 1.0, False, root)
    finally:
        with open(digests_path, "w") as fh:
            json.dump(known, fh)
    check(not mismatch["correct"] and mismatch["error_rate"] == 1.0
          and all("differs from" in f for f in mismatch["failures"]),
          "a digest unlike the one recorded earlier fails every process")

    failed = run.measure(FORCED_FAILURE, 1, 1.0, False, root)
    check(not failed["correct"] and failed["attempted"] > 0 and failed["error_rate"] == 1.0,
          "forced nonzero exit counts in error_rate")
    check(all(f.startswith("exit code 2") for f in failed["failures"]), "forced failure is reported as exit code 2")

    good = {"finiteshape_file": os.path.join(root, "src", "finiteshape", "cli.py"), "rc": 0, "error": None,
            "stderr": "", "stdout": "PASS a: x\nPASS monotone-bondings: y\n"}
    verify_like = run.Workload("v", ("verify",), "", must_pass=("monotone-bondings",))
    run_like = run.Workload("r", ("run",), "", ranks="(1, 1)")
    src = os.path.join(root, "src")
    check(run.check_output(verify_like, good, root, src)[0] is None, "checker accepts passing verdicts")
    check(run.check_output(verify_like, dict(good, stdout="PASS a: x\nFAIL monotone-bondings: y\n"), root, src)[0]
          is not None, "checker rejects a FAIL verdict")
    check(run.check_output(verify_like, dict(good, error="Traceback\nAssertionError: x"), root, src)[0] is not None,
          "checker rejects an escaping exception")
    check(run.check_output(run_like, dict(good, stdout="PASS a: x\n  stabilized ranks (window 2): (1, 0)\n"),
                           root, src)[0] is not None, "checker rejects wrong stabilized ranks")

    empty = os.path.join(root, ".bench_build", "selftest-empty")
    os.makedirs(empty, exist_ok=True)
    try:
        proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), "--workload", TINY.name],
                              cwd=empty, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(empty, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(), "refuses to run without src/finiteshape")

    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    defined = {name: wl.why for name, wl in run.WORKLOADS.items() if name not in (TINY.name, FORCED_FAILURE.name)}
    check({w["name"]: w["why"] for w in spec["workloads"]} == defined, "BENCHMARK.json workloads match run.py")
    check([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END,
          "BENCHMARK.json end_to_end matches run.py")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
          == [(name, unit, better) for name, unit, better, _, _ in PER_LAYER],
          "BENCHMARK.json per_layer matches tracing.py")

    print(f"{len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
