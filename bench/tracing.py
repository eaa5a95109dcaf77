"""Per-layer tracing of finiteshape, installed from outside the package.

``install(tracer)`` rebinds public functions of the seven modules (metric,
construction, hyperspace, homotopy, invariants, gf2, cli) in every loaded
``finiteshape`` module that holds them, so calls across module boundaries
open spans and bump work counters.  Nothing under ``src/`` is edited, and an
untraced process never imports this file.

Spans are kept in memory as ``[name, start, end, parent]`` rows and returned
by ``Tracer.report()`` at the end of the run.  A layer's self time is the
duration of its spans minus the time covered by their direct child spans;
the code is single-threaded, so children never overlap.

``PER_LAYER`` is the metric table: name, unit, which way is better, and the
end-to-end metric and workload the layer metric should move.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (name, unit, better, what it measures, end-to-end metric and workload it should move)
PER_LAYER = [
    ("metric.generate_s", "s", "lower", "self time in metric.generate",
     "pipeline_s/peak_rss_mb on verify-circle-4000-d6; ~0 on run-circle-256-d5"),
    ("metric.table_mb", "MB", "lower", "computed n*n*8 bytes of the dense distance table, in 1e6 bytes",
     "peak_rss_mb on verify-circle-4000-d6"),
    ("metric.load_s", "s", "lower", "self time in metric.load_ground (parse plus validate)",
     "pipeline_s on run-distmatrix-1000-d4"),
    ("metric.points", "count", "higher", "ground sample size; fixed by the workload",
     "none: a change means the input changed"),
    ("construction.tower_s", "s", "lower", "self time in build_adjusted_sequence",
     "pipeline_s on verify-circle-4000-d6"),
    ("construction.build_net_calls", "count", "lower", "greedy net builds",
     "pipeline_s on verify-circle-4000-d6"),
    ("construction.levels_requested", "count", "higher", "depth asked of build_adjusted_sequence",
     "none: fixed by the workload"),
    ("construction.levels_built", "count", "higher", "levels the tower actually built",
     "work on run-circle-256-d5 (depth defect)"),
    ("construction.net_points", "count", "lower", "sum of net sizes over built levels",
     "pipeline_s on verify-circle-4000-d6"),
    ("hyperspace.bounds_s", "s", "lower", "self time in verify_adjusted_distance_bounds",
     "pipeline_s on verify-circle-4000-d6 and run-warsaw-2000-d4"),
    ("hyperspace.nearest_sets_calls", "count", "lower", "nearest_sets evaluations from any module",
     "pipeline_s on verify-circle-4000-d6 and run-warsaw-2000-d4"),
    ("hyperspace.enumerate_s", "s", "lower", "self time in build_hyperlevel and enumerate_small_subsets",
     "pipeline_s on run-circle-256-d5"),
    ("hyperspace.poset_elements", "count", "lower", "elements of every hyperlevel built",
     "pipeline_s on run-circle-256-d5"),
    ("hyperspace.bonding_s", "s", "lower", "self time in bonding_map and composite_bonding",
     "pipeline_s on run-circle-256-d5"),
    ("hyperspace.monotone_s", "s", "lower", "self time in is_continuous",
     "pipeline_s on run-circle-256-d5"),
    ("homotopy.identity_s", "s", "lower", "self time in check_identity_convergence",
     "pipeline_s on verify-circle-4000-d6 and run-warsaw-2000-d4"),
    ("homotopy.squares_s", "s", "lower", "self time in check_diagram_commutes",
     "pipeline_s on verify-circle-4000-d6 and run-warsaw-2000-d4"),
    ("homotopy.union_items", "count", "lower", "domain items certified by check_homotopic_in_U",
     "pipeline_s on verify-circle-4000-d6 and run-warsaw-2000-d4"),
    ("invariants.shape_s", "s", "lower", "self time in shape_report",
     "pipeline_s/peak_rss_mb on run-warsaw-2000-d4 and run-circle-256-d5"),
    ("invariants.order_complex_s", "s", "lower", "self time in order_complex",
     "pipeline_s/peak_rss_mb on run-warsaw-2000-d4 and run-circle-256-d5"),
    ("invariants.order_simplices", "count", "lower", "simplices of every order complex built",
     "pipeline_s/peak_rss_mb on run-warsaw-2000-d4 and run-circle-256-d5"),
    ("invariants.scale_route_s", "s", "lower", "self time in rips_complex and betti on scale complexes",
     "pipeline_s on run-warsaw-2000-d4 and run-circle-256-d5"),
    ("invariants.induced_s", "s", "lower", "self time in induced_homology_map",
     "pipeline_s on run-warsaw-2000-d4 and run-circle-256-d5"),
    ("gf2.chain_homology_s", "s", "lower", "self time in ChainHomology construction",
     "pipeline_s/peak_rss_mb on run-warsaw-2000-d4 and run-circle-256-d5"),
    ("gf2.chain_homology_builds", "count", "lower", "ChainHomology objects built",
     "pipeline_s on run-warsaw-2000-d4 and run-circle-256-d5"),
    ("gf2.columns_added", "count", "lower", "boundary columns reduced (one per triangle)",
     "pipeline_s on run-warsaw-2000-d4 and run-circle-256-d5"),
    ("gf2.pivot_ratio", "ratio", "higher", "rank-raising columns / columns added (0 when none added)",
     "pipeline_s on run-warsaw-2000-d4 and run-circle-256-d5"),
    ("cli.export_s", "s", "lower", "self time in the write_* calls made by cmd_run",
     "pipeline_s on the run-* workloads"),
    ("cli.self_s", "s", "lower", "time in cli.main outside every other span",
     "pipeline_s on every workload"),
    ("trace.overhead_s", "s", "lower", "traced pipeline_s median minus untraced pipeline_s median",
     "none: cost of this tracer"),
]

# Counts that must repeat exactly between two traced runs of one workload and seed.
WORK_COUNTS = [
    "metric.points", "metric.table_mb", "construction.build_net_calls",
    "construction.levels_requested", "construction.levels_built", "construction.net_points",
    "construction.net_sizes", "hyperspace.nearest_sets_calls", "hyperspace.poset_elements",
    "homotopy.union_items", "invariants.order_simplices", "invariants.scale_simplices",
    "gf2.chain_homology_builds", "gf2.columns_added", "gf2.pivots",
]

ROOT_SPAN = "cli.self"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.counts: dict = {name: 0 for name in WORK_COUNTS}
        self.counts["construction.net_sizes"] = []
        self.counts["metric.table_mb"] = 0.0
        self._scale_complexes: set[int] = set()

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), kids in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (end - start) - kids
        return out

    def report(self) -> dict:
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans still open")
        return {"spans": self.spans, "self_s": self.self_times(), "counts": self.counts}


def _spanned(tracer: Tracer, name: str, after=None):
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(result, fn, args, kwargs)
            return result
        return wrapper
    return wrap


def _counted(before):
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before(args, kwargs)
            return fn(*args, **kwargs)
        return wrapper
    return wrap


def _argument(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _wrappers(tracer: Tracer) -> dict[tuple[str, str], object]:
    """(module, attribute) -> replacement, built around the original objects."""
    c = tracer.counts

    def add(key, amount=1):
        c[key] += amount

    def ground_made(ground, fn, args, kwargs):
        c["metric.points"] = ground.n
        c["metric.table_mb"] = ground.n * ground.n * 8 / 1e6

    def tower_built(seq, fn, args, kwargs):
        c["construction.levels_requested"] = int(_argument(fn, args, kwargs, "depth"))
        c["construction.levels_built"] = len(seq.levels)
        c["construction.net_sizes"] = [len(lv.net) for lv in seq.levels]
        c["construction.net_points"] = sum(c["construction.net_sizes"])

    def order_built(cx, fn, args, kwargs):
        add("invariants.order_simplices", sum(len(s) for s in cx.simplices))

    def scale_built(cx, fn, args, kwargs):
        add("invariants.scale_simplices", sum(len(s) for s in cx.simplices))
        tracer._scale_complexes.add(id(cx))

    def betti_wrap(fn):
        # betti on a scale complex belongs to the scale route; on an order
        # complex it is part of the caller's order-route work.  The id is
        # dropped once used, so a later object reusing it is not misfiled.
        spanned = _spanned(tracer, "invariants.scale_route")(fn)

        @functools.wraps(fn)
        def wrapper(cx, *args, **kwargs):
            if id(cx) in tracer._scale_complexes:
                tracer._scale_complexes.discard(id(cx))
                return spanned(cx, *args, **kwargs)
            return fn(cx, *args, **kwargs)
        return wrapper

    def chain_homology_wrap(cls):
        class TracedChainHomology(cls):
            def __init__(self, n_vertices, edges, triangles):
                idx = tracer.open("gf2.chain_homology")
                try:
                    super().__init__(n_vertices, edges, triangles)
                finally:
                    tracer.close(idx)
                add("gf2.chain_homology_builds")
                add("gf2.columns_added", len(triangles))
                add("gf2.pivots", self.rank_d2)

        TracedChainHomology.__name__ = cls.__name__
        TracedChainHomology.__qualname__ = cls.__qualname__
        return TracedChainHomology

    export = _spanned(tracer, "cli.export")
    return {
        ("metric", "generate"): _spanned(tracer, "metric.generate", ground_made),
        ("metric", "load_ground"): _spanned(tracer, "metric.load", ground_made),
        ("construction", "build_adjusted_sequence"): _spanned(tracer, "construction.tower", tower_built),
        ("construction", "build_net"): _counted(lambda a, k: add("construction.build_net_calls")),
        ("hyperspace", "verify_adjusted_distance_bounds"): _spanned(tracer, "hyperspace.bounds"),
        ("hyperspace", "nearest_sets"): _counted(lambda a, k: add("hyperspace.nearest_sets_calls")),
        ("hyperspace", "build_hyperlevel"): _spanned(
            tracer, "hyperspace.enumerate",
            lambda hl, fn, a, k: add("hyperspace.poset_elements", hl.n_elements)),
        ("hyperspace", "enumerate_small_subsets"): _spanned(tracer, "hyperspace.enumerate"),
        ("hyperspace", "bonding_map"): _spanned(tracer, "hyperspace.bonding"),
        ("hyperspace", "composite_bonding"): _spanned(tracer, "hyperspace.bonding"),
        ("hyperspace", "is_continuous"): _spanned(tracer, "hyperspace.monotone"),
        ("homotopy", "check_identity_convergence"): _spanned(tracer, "homotopy.identity"),
        ("homotopy", "check_diagram_commutes"): _spanned(tracer, "homotopy.squares"),
        ("homotopy", "check_homotopic_in_U"): _counted(
            lambda a, k: add("homotopy.union_items", len((a[0] if a else k["f"]).images))),
        ("invariants", "shape_report"): _spanned(tracer, "invariants.shape"),
        ("invariants", "order_complex"): _spanned(tracer, "invariants.order_complex", order_built),
        ("invariants", "rips_complex"): _spanned(tracer, "invariants.scale_route", scale_built),
        ("invariants", "betti"): betti_wrap,
        ("invariants", "induced_homology_map"): _spanned(tracer, "invariants.induced"),
        ("gf2", "ChainHomology"): chain_homology_wrap,
        ("construction", "write_sequence_text"): export,
        ("construction", "write_sequence_csv"): export,
        ("metric", "write_coords_csv"): export,
        ("invariants", "write_homology_csv"): export,
    }


def install(tracer: Tracer) -> None:
    """Rebind every traced name in the loaded finiteshape modules.

    Each original object is replaced wherever a ``finiteshape`` module holds
    it, under any alias.  A traced name that no longer exists is an error, so
    a renamed function cannot silently drop out of the per-layer numbers.
    """
    import finiteshape  # noqa: F401  (loads every submodule)

    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "finiteshape" or name.startswith("finiteshape."))]
    for (mod_name, attr), make in _wrappers(tracer).items():
        module = sys.modules.get(f"finiteshape.{mod_name}")
        if module is None or not hasattr(module, attr):
            raise RuntimeError(f"cannot trace finiteshape.{mod_name}.{attr}: not found")
        original = getattr(module, attr)
        replacement = make(original)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, replacement)


def layer_metrics(report: dict) -> dict[str, float]:
    """Per-layer metric values of one traced run, trace.overhead_s excluded."""
    self_s = report["self_s"]
    counts = report["counts"]
    out: dict[str, float] = {}
    for name, unit, _, _, _ in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        if name == "gf2.pivot_ratio":
            added = counts["gf2.columns_added"]
            out[name] = counts["gf2.pivots"] / added if added else 0.0
        elif unit == "s":
            out[name] = self_s.get(name[:-2], 0.0)
        else:
            out[name] = counts[name]
    return out
