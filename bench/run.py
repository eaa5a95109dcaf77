"""finiteshape benchmark: fixed CLI workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each measured invocation is a fresh Python process (``child.py``) with
``src`` on PYTHONPATH and BLAS/OpenMP threads capped at the usable core
count.  It imports finiteshape, builds the CLI parser, and calls
``finiteshape.cli.main(argv)`` once; one workload runs at a time, one process
at a time.  Processes are started until ``--seconds`` of measuring would be
exceeded, with a minimum count per run, and medians are reported.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (import plus
parser, median over every process of the run; set-up-only processes are
interleaved with the pipeline processes and take ``SETUP_SHARE`` of the
measuring time, so it has a few dozen samples), ``pipeline_s``
(one ``main`` call) and ``peak_rss_mb`` (peak RSS of the process after the
call).  ``error_rate`` (failed / attempted) is printed and carried by the
``attempted`` and ``failed`` fields of the result.  ``--trace 1`` alternates
untraced and traced processes and reports the per-layer metrics of
``tracing.PER_LAYER``; its work counts must repeat exactly between traced
processes.

Every process's output is checked: exit code 0, no escaping exception, every
verdict line PASS, the workload's own expectations, and one digest of the
verdict lines and ``homology.csv`` shared by every process of the run.  The
first digest of a workload and input is kept in
``.bench_build/results/digests.json``; a later run, traced or not, that
produces another one fails every process.

The seed only generates the ``run-distmatrix-1000-d4`` input; the other
workloads use deterministic built-in generators and record the seed unused.
Working files go under ``.bench_build/`` and are removed at the end, except
``.bench_build/results/``, which keeps each run's record, spans included.

This harness replaces the ``BENCH_<workload>.json`` files and the
``finiteshape bench`` subcommand planned in the roadmap.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

from tracing import PER_LAYER, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))

# (name, unit, better); error_rate is reported through attempted/failed
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("pipeline_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

MIN_PIPELINES = 3         # untraced pipeline processes per run, at least
SETUP_SHARE = 0.2         # share of the measuring time spent in set-up-only processes
MIN_TRACED = 2            # traced processes per traced run, at least
RUN_LIMIT_S = 150.0       # stop starting processes after this, whatever the minimum
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]          # CLI argv; "{outdir}" and "{input}" are filled per process
    why: str
    ranks: str | None = None       # expected stabilized ranks line value, e.g. "(1, 1)"
    must_pass: tuple[str, ...] = ()
    distmatrix_points: int = 0     # > 0: write a seeded random circle distance matrix as input

    @property
    def writes_homology(self) -> bool:
        return self.args[0] == "run"


WORKLOADS = {w.name: w for w in [
    Workload(
        "run-warsaw-2000-d4",
        ("run", "--space", "warsaw", "--n", "2000", "--depth", "4", "--outdir", "{outdir}"),
        "paper showcase; ~75% of time in invariants/gf2 on sparse fine levels; computing maps once and a scale-complex route should show here",
        ranks="(1, 1)",
    ),
    Workload(
        "run-circle-256-d5",
        ("run", "--space", "circle", "--n", "256", "--depth", "5", "--outdir", "{outdir}"),
        "dense coarse level (41,791 poset elements) dominates; hyperlevel enumeration and reduction show, metric does not",
        ranks="(1, 1)",
    ),
    Workload(
        "verify-circle-4000-d6",
        ("verify", "--space", "circle", "--n", "4000", "--depth", "6"),
        "no homology; dense 4000^2 table plus bounds/identity/squares checks over 6 levels; map reuse and distance blocks move it, homology changes do not",
        must_pass=("monotone-bondings",),
    ),
    Workload(
        "run-distmatrix-1000-d4",
        ("run", "--input", "{input}", "--format", "distmatrix_csv", "--depth", "4", "--outdir", "{outdir}"),
        "seeded 1000-point circle distance-matrix CSV: load/validate path and density-0 exact recursion no other workload reaches",
        distmatrix_points=1000,
    ),
]}

_VERDICT = re.compile(r"^(PASS|FAIL) ")
_STABILIZED = re.compile(r"stabilized ranks \(window \d+\): (\(.*\))\s*$", re.M)


def write_circle_distmatrix(path: str, n: int, seed: int) -> None:
    """Distance-matrix CSV of n seeded random points on the unit circle.

    Angles are equally spaced, each moved by up to a tenth of the spacing,
    and the points come in a seeded random order.  Points and order change
    with the seed while net sizes and poset sizes, hence the work, stay
    nearly the same; uniform angles would vary the work from seed to seed.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    theta = 2.0 * np.pi * (np.arange(n) + rng.uniform(-0.1, 0.1, n)) / n
    theta = theta[rng.permutation(n)]
    xy = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    dist = np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2))
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    np.savetxt(path, dist, delimiter=",", fmt="%.17g")


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    # cache bytecode as an installed package would, so setup_s excludes compiling
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cores = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = cores
    return env


@dataclass
class Child:
    traced: bool
    result: dict | None
    failure: str | None = None
    digest: str | None = None

    @property
    def counts(self) -> dict:
        return self.result["trace"]["counts"]


def run_child(root: str, env: dict, workdir: str, mode: str, traced: bool, args: list[str],
              timeout: float) -> tuple[dict | None, float, str | None]:
    """Start one child process and wait for it; returns (result, wall seconds, failure)."""
    fd, result_path = tempfile.mkstemp(suffix=".json", dir=workdir)
    os.close(fd)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), result_path, mode, "1" if traced else "0", *args]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - t0, f"timed out after {timeout:.0f} s"
    wall = time.perf_counter() - t0
    try:
        with open(result_path) as fh:
            result = json.load(fh) if proc.returncode == 0 else None
    except (OSError, ValueError):
        result = None
    finally:
        os.unlink(result_path)
    if result is None:
        tail = (proc.stderr or "").strip().splitlines()[-1:] or ["no output"]
        return None, wall, f"child process exited {proc.returncode}: {tail[0]}"
    return result, wall, None


def check_output(wl: Workload, result: dict, outdir: str, src: str) -> tuple[str | None, str | None]:
    """Return (failure reason or None, digest of verdicts and homology.csv)."""
    if not os.path.abspath(result["finiteshape_file"]).startswith(src + os.sep):
        return f"imported finiteshape from {result['finiteshape_file']}, not from {src}", None
    if result.get("error"):
        return "exception escaped: " + result["error"].strip().splitlines()[-1], None
    if result.get("rc") != 0:
        return f"exit code {result.get('rc')}: {result.get('stderr', '').strip()[-200:]}", None
    stdout = result["stdout"]
    verdicts = [line for line in stdout.splitlines() if _VERDICT.match(line)]
    if not verdicts:
        return "no verdict lines", None
    bad = [line for line in verdicts if not line.startswith("PASS ")]
    if bad:
        return f"verdict {bad[0]}", None
    for name in wl.must_pass:
        if not any(line.startswith(f"PASS {name}:") for line in verdicts):
            return f"no PASS {name} verdict", None
    homology = b""
    if wl.writes_homology:
        stabilized = _STABILIZED.findall(stdout)
        if not stabilized:
            return "no stabilized ranks line", None
        if wl.ranks is not None and stabilized[-1] != wl.ranks:
            return f"stabilized ranks {stabilized[-1]}, expected {wl.ranks}", None
        try:
            with open(os.path.join(outdir, "homology.csv"), "rb") as fh:
                homology = fh.read()
        except OSError as exc:
            return f"homology.csv unreadable: {exc}", None
    digest = hashlib.sha256("\n".join(verdicts).encode() + b"\n--\n" + homology).hexdigest()
    return None, digest


def check_reference_digest(results_dir: str, key: str, digest: str) -> str | None:
    """Compare ``digest`` with the first one recorded under ``key``; record it if there is none.

    The reference lives in ``results_dir/digests.json`` and outlives the run,
    so every later run of the same workload and input, traced or not, must
    reproduce it.  Returns a failure reason or None.
    """
    path = os.path.join(results_dir, "digests.json")
    try:
        with open(path) as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    if key in known:
        if known[key] == digest:
            return None
        return f"output digest {digest[:16]} differs from {known[key][:16]}, recorded by an earlier run of {key}"
    known[key] = digest
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return None


def _quartiles(values: list[float]) -> tuple[float, ...]:
    """(q1, median, q3) as statistics.quantiles gives them."""
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def _mark_outliers(children: list[Child], key, reason: str) -> None:
    """Fail passing children whose key differs from the most common value."""
    values = [json.dumps(key(c), sort_keys=True) for c in children if c.failure is None]
    if not values:
        return
    common = collections.Counter(values).most_common(1)[0][0]
    for c in children:
        if c.failure is None and json.dumps(key(c), sort_keys=True) != common:
            c.failure = reason


def measure(wl: Workload, seed: int, seconds: float, trace: bool, root: str) -> dict:
    """Run one workload for about ``seconds`` and return its summary record."""
    src = os.path.join(root, "src")
    base = os.path.join(root, ".bench_build")
    results_dir = os.path.join(base, "results")
    os.makedirs(results_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=base)
    env = child_env(root)
    t_run = time.perf_counter()

    def remaining() -> float:
        return RUN_LIMIT_S + 20.0 - (time.perf_counter() - t_run)

    try:
        input_path = os.path.join(workdir, "input.csv")
        if wl.distmatrix_points:
            write_circle_distmatrix(input_path, wl.distmatrix_points, seed)

        # an untimed set-up process first warms the bytecode and file caches
        _, _, warm_failure = run_child(root, env, workdir, "setup", False, [], remaining())
        setup_failures = [warm_failure] if warm_failure else []
        setup_samples: list[float] = []
        setup_wall = 0.0

        children: list[Child] = []
        t_start = time.perf_counter()
        longest = 0.0
        while True:
            n_plain = sum(not c.traced for c in children)
            n_traced = len(children) - n_plain
            enough = n_plain >= (MIN_TRACED if trace else MIN_PIPELINES) and (not trace or n_traced >= MIN_TRACED)
            elapsed = time.perf_counter() - t_start
            if (enough and elapsed + longest > seconds) or elapsed > RUN_LIMIT_S:
                break
            if not trace and setup_wall < SETUP_SHARE * elapsed:
                # set-up-only processes between the pipeline processes, so
                # setup_s has many samples spread over the whole run
                res, wall, failure = run_child(root, env, workdir, "setup", False, [], max(remaining(), 1.0))
                setup_wall += wall
                if res is None:
                    setup_failures.append(failure)
                else:
                    setup_samples.append(res["setup_s"])
                continue
            traced = trace and n_traced < n_plain
            outdir = os.path.join(workdir, f"out{len(children)}")
            os.makedirs(outdir)
            args = [a.format(outdir=outdir, input=input_path) for a in wl.args]
            res, wall, failure = run_child(root, env, workdir, "pipeline", traced, args, max(remaining(), 1.0))
            longest = max(longest, wall)
            child = Child(traced=traced, result=res, failure=failure)
            if res is not None:
                setup_samples.append(res["setup_s"])
                child.failure, child.digest = check_output(wl, res, outdir, src)
            children.append(child)
            shutil.rmtree(outdir, ignore_errors=True)

        _mark_outliers(children, lambda c: c.digest, "output digest differs from the other runs")
        traced_children = [c for c in children if c.traced]
        _mark_outliers(traced_children, lambda c: c.counts, "work counts differ from the other traced runs")
        digests = {c.digest for c in children if c.failure is None}
        if digests:
            # the built-in generators ignore the seed, so their output must not depend on it
            key = f"{wl.name}/seed{seed}" if wl.distmatrix_points else wl.name
            mismatch = check_reference_digest(results_dir, key, digests.pop())
            for c in children:
                if mismatch and c.failure is None:
                    c.failure = mismatch
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ok = [c for c in children if c.failure is None]
    pool = ok or [c for c in children if c.result is not None]

    def samples(key, traced):
        return [c.result[key] for c in pool if c.traced == traced]

    plain_pipeline = samples("pipeline_s", False)
    record = {
        "workload": wl.name,
        "why": wl.why,
        "seed": seed,
        "seed_use": ("generates the input distance matrix" if wl.distmatrix_points
                     else "none: the built-in generator is deterministic"),
        "argv": list(wl.args),
        "trace": trace,
        "seconds": seconds,
        "attempted": len(children),
        "failed": len(children) - len(ok),
        "failures": [c.failure for c in children if c.failure] + setup_failures,
        "digests": sorted({c.digest for c in ok}),
        "samples": {
            "setup_s": setup_samples,
            "pipeline_s": plain_pipeline,
            "peak_rss_mb": samples("peak_rss_mb", False),
            "traced_pipeline_s": samples("pipeline_s", True),
        },
    }
    if trace:
        traced_ok = [c for c in pool if c.traced]
        per_child = [layer_metrics(c.result["trace"]) for c in traced_ok]
        layer = {}
        for name, unit, _, _, _ in PER_LAYER:
            if name == "trace.overhead_s":
                value = (statistics.median(record["samples"]["traced_pipeline_s"]) - statistics.median(plain_pipeline)
                         if traced_ok and plain_pipeline else 0.0)
            else:
                value = statistics.median(m[name] for m in per_child) if per_child else 0.0
            layer[name] = {"value": value, "unit": unit}
        record["metrics"] = layer
        record["work_counts"] = traced_ok[0].counts if traced_ok else {}
        record["spans"] = [c.result["trace"]["spans"] for c in traced_ok]
        record["layer_targets"] = {name: target for name, _, _, _, target in PER_LAYER}
    else:
        values = {"setup_s": setup_samples, "pipeline_s": plain_pipeline,
                  "peak_rss_mb": record["samples"]["peak_rss_mb"]}
        record["metrics"] = {name: {"value": statistics.median(values[name]) if values[name] else 0.0, "unit": unit}
                             for name, unit, _ in END_TO_END}
    record["error_rate"] = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    record["correct"] = bool(children) and record["failed"] == 0 and not setup_failures and bool(plain_pipeline)

    name = f"{wl.name}-seed{seed}-trace{int(trace)}.json"
    with open(os.path.join(results_dir, name), "w") as fh:
        json.dump(record, fh)
    return record


def print_summary(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']} ({record['seed_use']})")
    samples = record["samples"]
    if record["trace"]:
        for name, metric in record["metrics"].items():
            print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
        print(f"  work counts: {json.dumps(record['work_counts'], sort_keys=True)}")
    else:
        for name, unit, _ in END_TO_END:
            values = samples[name]
            if values:
                q1, med, q3 = _quartiles(values)
                print(f"  {name:12s} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
            else:
                print(f"  {name:12s} no samples")
    print(f"  error_rate   {record['error_rate']:.6g}  ({record['failed']} of {record['attempted']} runs failed)")
    for failure in record["failures"]:
        print(f"  failure: {failure}")
    print(f"  output digest {', '.join(d[:16] for d in record['digests']) or 'none'}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "finiteshape", "cli.py")):
        print(f"error: {root} holds no src/finiteshape; run from the repository root", file=sys.stderr)
        return 2
    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        print(f"error: unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2

    records = []
    for name in names:
        record = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), root)
        print_summary(record)
        records.append(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
