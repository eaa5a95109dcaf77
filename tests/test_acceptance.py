"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
and the recorded slacks/timings.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from finiteshape.construction import build_adjusted_sequence, build_net, check_sequence_inequalities
from finiteshape.homotopy import (
    ball_map_prefix,
    check_diagram_commutes,
    check_homotopic_in_U,
    check_identity_convergence,
    finite_type_convert,
)
from finiteshape.hyperspace import (
    Tower,
    bonding_map,
    build_hyperlevel,
    composite_bonding,
    is_continuous,
    verify_adjusted_distance_bounds,
)
from finiteshape.invariants import (
    LevelHomology,
    betti,
    bonding_vertex_map,
    induced_homology_map,
    order_complex,
    rips_complex,
    selection_vertex_map,
    shape_report,
)
from finiteshape.metric import MetricGround, SpaceSpec, generate
from reference_loops import chain_map_matrices, gf2_matrix_product

SPACES = {
    "circle256": SpaceSpec("circle", n=256),
    "interval200": SpaceSpec("interval", n=200),
    "two_points": SpaceSpec("two_points"),
    "cantor4": SpaceSpec("cantor", cantor_depth=4),
    "warsaw2000": SpaceSpec("warsaw_circle", n=2000),
}

DEPTH = 4
SAFETY = 0.9


@contextmanager
def verdict(label):
    info = {}
    try:
        yield info
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL {info.get('detail', '')}")
        raise
    print(f"ACCEPTANCE {label}: PASS {info.get('detail', '')}")


@pytest.fixture(scope="module")
def pipelines():
    out = {}
    for name, spec in SPACES.items():
        t0 = time.perf_counter()
        ground = generate(spec)
        seq = build_adjusted_sequence(ground, ground.diameter() / 2.0, DEPTH, SAFETY)
        build_time = time.perf_counter() - t0
        out[name] = {"ground": ground, "seq": seq, "tower": Tower(seq), "build_time": build_time}
    return out


@pytest.fixture(scope="module")
def hyper(pipelines):
    for ctx in pipelines.values():
        ctx["hls"] = [build_hyperlevel(ctx["ground"], lv) for lv in ctx["seq"].levels]
    return pipelines


@pytest.fixture(scope="module")
def reports(pipelines):
    total = 0.0
    for ctx in pipelines.values():
        t0 = time.perf_counter()
        ctx["report"] = shape_report(ctx["tower"])
        total += time.perf_counter() - t0
    pipelines["_report_seconds"] = total
    return pipelines


def test_criterion_1_construction_inequalities(pipelines):
    with verdict("1 construction-inequalities") as info:
        worst = math.inf
        for name, ctx in pipelines.items():
            seq = ctx["seq"]
            assert seq.depth >= 4, f"{name}: built only {seq.depth} levels"
            for rec in check_sequence_inequalities(seq):
                assert rec["ok"], f"{name}: {rec['name']} violated"
                assert rec["slack"] > 0, f"{name}: zero slack at {rec['name']}"
                worst = min(worst, rec["slack"])
            assert ctx["build_time"] < 10.0, f"{name}: built in {ctx['build_time']:.2f}s"
        info["detail"] = f"(min slack {worst:.3g}, max build {max(c['build_time'] for c in pipelines.values()):.2f}s)"


def test_criterion_2_distance_bounds(pipelines):
    with verdict("2 distance-bounds") as info:
        t0 = time.perf_counter()
        slacks = {}
        for name, ctx in pipelines.items():
            rep = verify_adjusted_distance_bounds(ctx["tower"])
            for clause in rep.clauses:
                assert not clause.violations, f"{name}: {clause.name} violated: {clause.violations[:3]}"
                assert clause.min_slack > 0
            slacks[name] = min(c.min_slack for c in rep.clauses)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"distance bound suite took {elapsed:.1f}s"
        info["detail"] = f"({elapsed:.1f}s, min slacks {[round(v, 4) for v in slacks.values()]})"


def test_criterion_3_continuity(hyper):
    with verdict("3 continuity") as info:
        checked = 0
        for name, ctx in hyper.items():
            if name.startswith("_"):
                continue
            tower, hls = ctx["tower"], ctx["hls"]
            for k in range(len(hls) - 1):
                p = bonding_map(tower, hls[k + 1])
                ok, ce = is_continuous(p, hls[k + 1])
                assert ok, f"{name}: bonding {k + 2}->{k + 1} not monotone at {ce}"
                checked += 1
            for start in range(len(hls) - 2):
                for stop in range(start + 2, len(hls)):
                    comp = composite_bonding(tower, hls[stop], start + 1)
                    ok, ce = is_continuous(comp, hls[stop])
                    assert ok, f"{name}: composite {stop + 1}->{start + 1} not monotone at {ce}"
                    checked += 1
        info["detail"] = f"({checked} bonding/composite maps, all comparable pairs)"


def test_criterion_4_identity_convergence(pipelines):
    with verdict("4 identity-convergence") as info:
        for name, ctx in pipelines.items():
            rep = check_identity_convergence(ctx["tower"])
            assert not rep.own_level_violations, f"{name}: {rep.own_level_violations}"
            for n, bc in zip(rep.levels, rep.per_bound[: len(rep.levels)]):
                assert bc.n0_consecutive is not None and bc.n0_consecutive <= n, (
                    f"{name}: bound 2*eps_{n} needs n0={bc.n0_consecutive}"
                )
                assert bc.n0_inclusion is not None and bc.n0_inclusion <= n, (
                    f"{name}: inclusion bound 2*eps_{n} needs n0={bc.n0_inclusion}"
                )
        info["detail"] = "(n0 <= n for both conditions, all spaces and bounds)"


def test_criterion_5_diagram_commutes(pipelines):
    with verdict("5 diagram-commutes") as info:
        min_slack = math.inf
        for name, ctx in pipelines.items():
            seq = ctx["seq"]
            for n in range(1, seq.depth):
                w = check_diagram_commutes(ctx["tower"], n)
                assert w.verdict, f"{name}: level {n} square fails ({w.max_union_diameter} vs {w.bound})"
                assert w.max_union_diameter < w.bound
                min_slack = min(min_slack, w.slack)
        info["detail"] = f"(all levels, min slack {min_slack:.3g})"


def test_criterion_6_finite_type():
    with verdict("6 finite-type") as info:
        g = generate(SpaceSpec("circle", n=64))
        indices = range(1, 6)
        diameters = [2.0 ** (-n) for n in indices]
        am = ball_map_prefix(g, [d / 2.0 for d in diameters])
        betas = list(diameters)
        nets = [build_net(g, b) for b in betas]
        converted, rep = finite_type_convert(am, betas, nets)
        for k, net in enumerate(nets):
            for img in converted.maps[k].images:
                assert set(img) <= set(net), f"index {k}: image escapes the net"
            assert rep.slacks[k] > 0, f"index {k}: diameter bound not strict"
        eps = 0.5
        qualifying = 0
        for k in range(len(betas)):
            if rep.bounds[k] < eps:
                w = check_homotopic_in_U(am.maps[k], converted.maps[k], eps, g)
                assert w.verdict, f"index {k}: homotopy fails at eps={eps}"
                qualifying += 1
        assert qualifying >= 2
        info["detail"] = f"({len(betas)} indices, {qualifying} homotopy-qualifying, min slack {min(rep.slacks):.3g})"


def cantor_component_profile(two_eps, depth=4):
    # number of separating gap generations at this scale
    return sum(1 for j in range(1, depth + 1) if 3.0 ** (-j) > two_eps)


def test_criterion_7_shape_ranks(reports):
    with verdict("7 shape-ranks") as info:
        expected = {
            "circle256": (1, 1),
            "warsaw2000": (1, 1),
            "interval200": (1, 0),
            "two_points": (2, 0),
        }
        for name, want in expected.items():
            got = reports[name]["report"].stabilized
            assert got == want, f"{name}: stabilized {got} != {want}"

        rep = reports["cantor4"]["report"]
        seq = reports["cantor4"]["seq"]
        for row, lv in zip(rep.levels, seq.levels):
            k = cantor_component_profile(2.0 * lv.epsilon)
            assert row.betti == (2 ** k, 0), f"cantor level {lv.index}: {row.betti} != (2^{k}, 0)"
        for pr in rep.pairs:
            coarse = seq.level(pr.coarse_index)
            k = cantor_component_profile(2.0 * coarse.epsilon)
            assert pr.ranks == (2 ** k, 0), f"cantor pair {pr.fine_index}->{pr.coarse_index}: {pr.ranks}"

        elapsed = reports["_report_seconds"]
        assert elapsed < 120.0, f"shape reports took {elapsed:.1f}s"
        info["detail"] = f"({elapsed:.1f}s total, stabilized: " + ", ".join(
            f"{k}={reports[k]['report'].stabilized}" for k in expected
        ) + ")"


def test_criterion_8_barycentric_cross_check(hyper):
    with verdict("8 barycentric-cross-check") as info:
        levels_checked = 0
        for name, ctx in hyper.items():
            if name.startswith("_"):
                continue
            ground, seq, hls = ctx["ground"], ctx["seq"], ctx["hls"]
            for lv, hl in zip(seq.levels, hls):
                b_order = betti(order_complex(hl))
                b_scale = betti(rips_complex(ground, lv))
                assert b_order == b_scale, f"{name} level {lv.index}: {b_order} != {b_scale}"
                levels_checked += 1
        info["detail"] = f"({levels_checked} levels, exact equality in degrees 0 and 1)"


def test_criterion_9_chain_functoriality():
    with verdict("9 chain-functoriality") as info:
        theta = 2.0 * np.pi * np.arange(8) / 8
        g = MetricGround.from_coords(np.stack([np.cos(theta), np.sin(theta)], axis=1))
        seq = build_adjusted_sequence(g, epsilon1=1.2, depth=3, safety=SAFETY)
        assert seq.depth == 3
        assert all(len(lv.net) <= 12 for lv in seq.levels)
        hls = [build_hyperlevel(g, lv) for lv in seq.levels]
        tower = Tower(seq)
        p21 = bonding_map(tower, hls[1])
        p32 = bonding_map(tower, hls[2])
        v21 = selection_vertex_map(p21, hls[1], hls[0])
        v32 = selection_vertex_map(p32, hls[2], hls[1])
        v31 = [v21[v] for v in v32]
        m21 = chain_map_matrices(v21, hls[1], hls[0])
        m32 = chain_map_matrices(v32, hls[2], hls[1])
        m31 = chain_map_matrices(v31, hls[2], hls[0])
        dims_checked = 0
        for k in range(len(m31)):
            assert m31[k] == gf2_matrix_product(m21[k], m32[k]), f"dimension {k} mismatch"
            dims_checked += 1

        # induced ranks compose consistently on the same tower
        d = [LevelHomology(hl) for hl in hls]
        p31 = composite_bonding(tower, hls[2], 1)
        r21 = induced_homology_map(bonding_vertex_map(p21, hls[1], hls[0]), d[1], d[0], 1)
        r32 = induced_homology_map(bonding_vertex_map(p32, hls[2], hls[1]), d[2], d[1], 1)
        r31 = induced_homology_map(bonding_vertex_map(p31, hls[2], hls[0]), d[2], d[0], 1)
        assert r31 <= min(r21, r32)
        info["detail"] = f"(nets {[len(lv.net) for lv in seq.levels]}, {dims_checked} chain dimensions exact)"
