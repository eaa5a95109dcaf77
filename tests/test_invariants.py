import itertools
import math

import numpy as np
import pytest

from finiteshape import cli, gf2, hyperspace, invariants
from finiteshape.construction import AdjustedSequence, Level, build_adjusted_sequence
from finiteshape.hyperspace import (
    Tower,
    bonding_map,
    build_hyperlevel,
    composite_bonding,
    enumerate_small_subsets,
    grow_cliques,
    is_continuous,
)
from finiteshape.invariants import (
    HomologyCheckError,
    LevelHomology,
    SimplicialComplex,
    betti,
    bonding_vertex_map,
    export_complex_csv,
    export_complex_off,
    induced_homology_map,
    order_complex,
    rips_complex,
    scale_complex,
    shape_report,
    strong_collapse,
    write_homology_csv,
)
from finiteshape.metric import MetricGround, SpaceSpec, generate
from reference_loops import (
    EveryColumnHomology,
    dense,
    chain_map_matrices,
    check_face_closed,
    euler_characteristic,
    gf2_matrix_product,
    selection_vertex_map,
)


# --- independent dense GF(2) oracle -----------------------------------------

def gf2_rank_dense(M):
    M = (np.array(M, dtype=np.uint8) % 2).copy()
    rank = 0
    rows, cols = M.shape
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if M[i, c]:
                piv = i
                break
        if piv is None:
            continue
        M[[r, piv]] = M[[piv, r]]
        for i in range(rows):
            if i != r and M[i, c]:
                M[i] ^= M[r]
        r += 1
        rank += 1
    return rank


def betti_oracle(cx: SimplicialComplex):
    """b_k = #S_k - rank d_k - rank d_{k+1} for k = 0, 1, via dense elimination."""
    def boundary(k):
        if k == 0 or cx.count(k) == 0:
            return np.zeros((max(cx.count(k - 1), 1), max(cx.count(k), 1)), dtype=np.uint8), 0
        rows = {s: i for i, s in enumerate(cx.simplices[k - 1])}
        M = np.zeros((cx.count(k - 1), cx.count(k)), dtype=np.uint8)
        for j, s in enumerate(cx.simplices[k]):
            for i in range(len(s)):
                M[rows[s[:i] + s[i + 1:]], j] ^= 1
        return M, gf2_rank_dense(M)

    out = []
    ranks = {0: 0}
    for k in range(3):
        _, ranks[k] = boundary(k) if k > 0 else (None, 0)
    for k in range(2):
        out.append(cx.count(k) - ranks.get(k, 0) - ranks.get(k + 1, 0))
    return tuple(out)


def triangle():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    return MetricGround.from_coords(pts)


def circle4():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    return MetricGround.from_coords(pts)


# --- order complexes ----------------------------------------------------------

def test_order_complex_three_incomparable_singletons():
    g = triangle()
    lv = Level(1, 0.4, (0, 1, 2), 0.0)
    hl = build_hyperlevel(g, lv, cap=3)
    cx = order_complex(hl)
    assert cx.n_vertices == 3
    assert cx.count(1) == 0
    assert betti(cx) == (3, 0)


def test_order_complex_singleton_poset():
    g = MetricGround.from_coords(np.array([[0.0, 0.0]]))
    lv = Level(1, 1.0, (0,), 0.0)
    hl = build_hyperlevel(g, lv)
    cx = order_complex(hl)
    assert cx.n_vertices == 1
    assert betti(cx) == (1, 0)


def test_order_complex_is_barycentric_subdivision_of_triangle():
    g = triangle()
    lv = Level(1, 0.6, (0, 1, 2), 0.0)
    hl = build_hyperlevel(g, lv, cap=3)
    cx = order_complex(hl)
    assert cx.n_vertices == 7
    assert cx.count(1) == 12
    assert cx.count(2) == 6
    check_face_closed(cx)
    assert betti(cx) == (1, 0)
    assert betti(cx) == betti_oracle(cx)


# --- scale (Rips) complexes ---------------------------------------------------

def test_rips_circle4_cycle():
    g = circle4()
    lv = Level(1, 0.85, (0, 1, 2, 3), 0.0)  # sqrt2 < 1.7 < 2
    cx = rips_complex(g, lv)
    assert cx.count(1) == 4
    assert cx.count(2) == 0
    assert betti(cx) == (1, 1)
    assert betti_oracle(cx) == (1, 1)


def test_rips_full_simplex_is_cone():
    g = circle4()
    lv = Level(1, 1.2, (0, 1, 2, 3), 0.0)  # 2.4 > diameter 2
    cx = rips_complex(g, lv)
    assert cx.count(2) == 4
    assert betti(cx) == (1, 0)


def test_rips_two_far_points():
    g = generate(SpaceSpec("two_points", separation=1.0))
    lv = Level(1, 0.25, (0, 1), 0.0)
    cx = rips_complex(g, lv)
    assert cx.count(1) == 0
    assert betti(cx) == (2, 0)


def test_scale_complex_read_off_hyperlevel_matches_brute_force():
    rng = np.random.default_rng(5)
    g = MetricGround.from_coords(rng.uniform(size=(40, 2)))
    net = tuple(sorted(int(i) for i in rng.choice(40, size=25, replace=False)))
    lv = Level(1, 0.15, net, 0.1)
    local = dense(g)[np.ix_(net, net)]
    expected = tuple(
        tuple(sub for sub in itertools.combinations(range(len(net)), r)
              if local[np.ix_(sub, sub)].max() < 2.0 * lv.epsilon)
        for r in (1, 2, 3)
    )
    assert rips_complex(g, lv).simplices == expected
    for cap in (3, 4):
        assert scale_complex(build_hyperlevel(g, lv, cap=cap)).simplices == expected
    with pytest.raises(ValueError):
        scale_complex(build_hyperlevel(g, lv, cap=2))


# --- betti core -----------------------------------------------------------------

def test_betti_single_vertex():
    cx = SimplicialComplex(1, (((0,),),))
    assert betti(cx) == (1, 0)


def test_betti_c4_hand_chain_computation():
    # 4-cycle: one component, one loop
    cx = SimplicialComplex(4, (((0,), (1,), (2,), (3,)), ((0, 1), (0, 3), (1, 2), (2, 3))))
    assert betti(cx) == (1, 1)
    assert betti_oracle(cx) == (1, 1)


def test_betti_random_flag_complexes_match_oracle():
    rng = np.random.default_rng(11)
    for trial in range(8):
        pts = rng.uniform(size=(10, 2))
        g = MetricGround.from_coords(pts)
        lv = Level(1, 0.2 + 0.05 * trial, tuple(range(10)), 0.1)
        cx = rips_complex(g, lv)
        assert betti(cx) == betti_oracle(cx)


def test_euler_characteristic_consistency_when_cap_not_binding():
    # complexes whose top simplices fit under the cap: chi = alternating betti sum
    g = triangle()
    lv = Level(1, 0.6, (0, 1, 2), 0.0)
    hl = build_hyperlevel(g, lv, cap=3)
    cx = order_complex(hl)
    b = betti(cx)
    assert euler_characteristic(cx) == b[0] - b[1]  # a disk: no degree-2 homology

    cx4 = SimplicialComplex(4, (((0,), (1,), (2,), (3,)), ((0, 1), (0, 3), (1, 2), (2, 3))))
    b4 = betti(cx4)
    assert euler_characteristic(cx4) == b4[0] - b4[1]


# --- strong collapse -------------------------------------------------------------

def hexagon_level(with_centre):
    """Level at 2 eps = 1.2 on six unit-circle points (a 6-cycle), optionally with the centre (a cone on it)."""
    theta = 2.0 * np.pi * np.arange(6) / 6
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if with_centre:
        pts = np.vstack([pts, [[0.0, 0.0]]])
    g = MetricGround.from_coords(pts)
    lv = Level(1, 0.6, tuple(range(len(pts))), 0.0)
    return build_hyperlevel(g, lv, cap=4)


def test_cone_collapses_to_one_vertex():
    hl = hexagon_level(with_centre=True)
    data = LevelHomology(hl)
    assert data.collapse.core == (6,)  # the centre
    assert data.collapse.retraction == (6,) * 7
    assert data.betti == (1, 0) == betti(scale_complex(hl))
    assert grow_cliques(data.collapse.ahead, 3)[2] == []  # no triangle left to reduce


def test_cycle_has_nothing_to_collapse():
    hl = hexagon_level(with_centre=False)
    data = LevelHomology(hl)
    assert data.collapse.core == tuple(range(6)) and data.collapse.removals == ()
    assert data.collapse.retraction == tuple(range(6))
    assert data.betti == (1, 1) == betti(scale_complex(hl))


def test_collapse_removes_the_lowest_dominated_vertex_first():
    # path 0 - 1 - 2: 0 goes to 1, then 1 goes to 2; the composite sends 0 to
    # 2, which is not adjacent to 0, so only each elementary retraction is
    # contiguous to the identity, not their composite
    col = strong_collapse(3, [(0, 1), (1, 2)])
    assert col.removals == ((0, 1), (1, 2))
    assert col.core == (2,) and col.retraction == (2, 2, 2)
    # twins: each dominates the other, and the lower index goes
    assert strong_collapse(2, [(0, 1)]).removals == ((0, 1),)
    assert strong_collapse(4, []).core == (0, 1, 2, 3)


def test_pushed_edge_outside_the_coarse_core_is_a_check_failure():
    hl = hexagon_level(with_centre=False)
    data = LevelHomology(hl)
    doubling = [2 * v % 6 for v in range(6)]  # sends the edge 0-1 to the non-edge 0-2
    with pytest.raises(HomologyCheckError, match="not an edge of the coarse core"):
        induced_homology_map(doubling, data, data, 1)


# --- induced maps ----------------------------------------------------------------

def test_induced_identity_bonding_has_full_rank():
    g = circle4()
    lv1 = Level(1, 0.85, (0, 1, 2, 3), 0.0)
    lv2 = Level(2, 0.8, (0, 1, 2, 3), 0.0)
    hl1 = build_hyperlevel(g, lv1, cap=3)
    hl2 = build_hyperlevel(g, lv2, cap=3)
    p = bonding_map(Tower(AdjustedSequence(g, (lv1, lv2), 2)), hl2)
    d1, d2 = LevelHomology(hl1), LevelHomology(hl2)
    assert d1.betti == d2.betti == (1, 1)
    vertex_map = bonding_vertex_map(p, hl2, hl1)
    assert vertex_map == [0, 1, 2, 3]
    assert induced_homology_map(vertex_map, d2, d1, 0) == 1
    assert induced_homology_map(vertex_map, d2, d1, 1) == 1


def test_induced_circle_rank_one_between_fine_levels():
    g = generate(SpaceSpec("circle", n=64))
    seq = build_adjusted_sequence(g, epsilon1=1.0, depth=3)
    rep = shape_report(Tower(seq))
    # circle-shape oracle: the loop class has rank one along every pair of
    # genuinely circular levels
    betti = {row.index: row.betti for row in rep.levels}
    for pr in rep.pairs:
        if betti[pr.fine_index] == (1, 1) and betti[pr.coarse_index] == (1, 1):
            assert pr.ranks[1] == 1
        assert pr.ranks[0] == 1


def test_induced_two_points_rank_two():
    g = generate(SpaceSpec("two_points"))
    seq = build_adjusted_sequence(g, epsilon1=0.5, depth=3)
    hls = [build_hyperlevel(g, lv) for lv in seq.levels]
    p = bonding_map(Tower(seq), hls[1])
    # component-tracking oracle: two fine components land in two coarse ones
    vertex_map = bonding_vertex_map(p, hls[1], hls[0])
    assert induced_homology_map(vertex_map, LevelHomology(hls[1]), LevelHomology(hls[0]), 0) == 2


class _UnionFind:
    def __init__(self, n):
        self.p = list(range(n))

    def find(self, x):
        while self.p[x] != x:
            self.p[x] = self.p[self.p[x]]
            x = self.p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.p[ra] = rb


def test_induced_rank_zero_matches_component_tracking_oracle():
    # independent oracle: union-find components of the nets at scale 2 eps,
    # each fine component mapped through a nearest coarse point
    g = generate(SpaceSpec("cantor", cantor_depth=4))
    seq = build_adjusted_sequence(g, epsilon1=0.5, depth=4)
    hls = [build_hyperlevel(g, lv) for lv in seq.levels]
    datas = [LevelHomology(hl) for hl in hls]
    tower = Tower(seq)
    dist = dense(g)
    for k in range(len(hls) - 1):
        fine_lv, coarse_lv = seq.levels[k + 1], seq.levels[k]

        def comps(lv):
            net = list(lv.net)
            uf = _UnionFind(len(net))
            for i in range(len(net)):
                for j in range(i + 1, len(net)):
                    if dist[net[i], net[j]] < 2 * lv.epsilon:
                        uf.union(i, j)
            return net, uf

        fnet, fuf = comps(fine_lv)
        cnet, cuf = comps(coarse_lv)
        hit = {}
        for i, a in enumerate(fnet):
            nearest = min(range(len(cnet)), key=lambda c: (dist[a, cnet[c]], c))
            hit[fuf.find(i)] = cuf.find(nearest)
        oracle_rank = len(set(hit.values()))

        p = bonding_map(tower, hls[k + 1])
        got = induced_homology_map(bonding_vertex_map(p, hls[k + 1], hls[k]), datas[k + 1], datas[k], 0)
        assert got == oracle_rank


def fibonacci_sphere(n):
    i = np.arange(n)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    y = 1 - 2 * i / (n - 1)
    r = np.sqrt(np.maximum(0, 1 - y * y))
    return np.stack([r * np.cos(phi), y, r * np.sin(phi)], axis=1)


def test_sphere_sample_both_routes():
    # a sphere's loops all bound: both complex routes must see (1, 0) exactly
    g = MetricGround.from_coords(fibonacci_sphere(64))
    lv = Level(1, 0.4, tuple(range(64)), 0.36)
    cx_scale = rips_complex(g, lv)
    assert betti(cx_scale) == (1, 0)
    hl = build_hyperlevel(g, lv, cap=3)
    cx_order = order_complex(hl)
    assert betti(cx_order) == (1, 0)


def test_level_homology_reduces_once_and_matches_fresh_betti(monkeypatch):
    g = generate(SpaceSpec("circle", n=64))
    seq = build_adjusted_sequence(g, epsilon1=1.0, depth=3)
    builds = []

    class CountingChainHomology(invariants.ChainHomology):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    for lv in seq.levels:
        hl = build_hyperlevel(g, lv, cap=3)
        fresh = betti(order_complex(hl))
        builds.clear()
        with monkeypatch.context() as m:
            m.setattr(invariants, "ChainHomology", CountingChainHomology)
            data = LevelHomology(hl)
        assert data.betti == fresh
        assert [args[0] for args in builds] == [len(lv.net)]  # one reduction, of the scale complex
        ref = EveryColumnHomology(*builds[0])
        assert data.hom.rank_d2 == ref.rank_d2


def test_level_homology_reduces_only_cone_free_triangles(monkeypatch):
    g = generate(SpaceSpec("circle", n=256))
    seq = build_adjusted_sequence(g, epsilon1=g.diameter() / 2, depth=5)
    added = []
    add = gf2.ColumnReducer.add

    def counting_add(self, col):
        added.append(col)
        return add(self, col)

    counts, bettis = {}, []
    for lv in seq.levels:
        hl = build_hyperlevel(g, lv, cap=2)
        added.clear()
        with monkeypatch.context() as m:
            m.setattr(gf2.ColumnReducer, "add", counting_add)
            data = LevelHomology(hl)
        counts[lv.index] = (len(added), len(grow_cliques(data.collapse.ahead, 3)[2]), len(data.collapse.core), len(lv.net))
        bettis.append(data.betti)
    assert bettis == [(1, 0), (1, 1), (1, 1), (1, 1)]
    # full cores on levels 2 and 3: most triangle columns are cones from a lower vertex and are not reduced
    assert counts[2] == (540, 2304, 64, 64)
    assert counts[3] == (650, 1920, 128, 128)


def test_shape_report_computes_each_object_once(monkeypatch, capsys):
    g = generate(SpaceSpec("circle", n=128))
    seq = build_adjusted_sequence(g, epsilon1=1.0, depth=4)
    checked, enumerated = [], []

    def counting_is_continuous(p, domain):
        checked.append(domain.level.index)
        return is_continuous(p, domain)

    def counting_enumerate(ground, net, two_eps, cap):
        enumerated.append((len(net), cap))
        return enumerate_small_subsets(ground, net, two_eps, cap)

    with monkeypatch.context() as m:
        m.setattr(hyperspace, "is_continuous", counting_is_continuous)
        m.setattr(hyperspace, "enumerate_small_subsets", counting_enumerate)
        rep = shape_report(Tower(seq))
        # each level is enumerated once, as vertices and edges only
        assert enumerated == [(len(lv.net), 2) for lv in seq.levels]
        enumerated.clear()
        assert cli.main(["verify", "--space", "circle", "--n", "128", "--depth", "4"]) == 0
        assert enumerated == [(len(lv.net), 2) for lv in seq.levels]
    assert "PASS monotone-bondings" in capsys.readouterr().out
    assert checked == []  # a bonding map is monotone by construction; neither command re-checks it

    hls = [build_hyperlevel(g, lv) for lv in seq.levels]
    datas = [LevelHomology(hl) for hl in hls]
    tower = Tower(seq)
    for k, pr in enumerate(rep.pairs):
        vertex_map = bonding_vertex_map(bonding_map(tower, hls[k + 1]), hls[k + 1], hls[k])
        expected = tuple(induced_homology_map(vertex_map, datas[k + 1], datas[k], deg) for deg in (0, 1))
        assert pr.ranks == expected
    assert {pr.ranks for pr in rep.pairs} == {(1, 0), (1, 1)}


def test_triangles_are_grown_on_cores_only(monkeypatch):
    g = generate(SpaceSpec("warsaw_circle", n=300))
    seq = build_adjusted_sequence(g, epsilon1=g.diameter() / 2, depth=3)
    cores = [set(LevelHomology(build_hyperlevel(g, lv, cap=2)).collapse.core) for lv in seq.levels]
    assert any(1 < len(core) < len(lv.net) for core, lv in zip(cores, seq.levels))  # a partial core
    grown = []

    def counting_grow(ahead, cap):
        bits = [{j for j in range(mask.bit_length()) if mask >> j & 1} for mask in ahead]
        grown.append((cap, {v for u, nbrs in enumerate(bits) for v in (u, *nbrs) if nbrs}))
        return grow_cliques(ahead, cap)

    monkeypatch.setattr(invariants, "grow_cliques", counting_grow)
    shape_report(Tower(seq))
    assert [cap for cap, _ in grown] == [3] * len(cores)  # once per level
    for (_, touched), core in zip(grown, cores):
        assert touched <= core


# --- shape report -----------------------------------------------------------------

def test_shape_report_singleton():
    g = MetricGround.from_coords(np.array([[0.0, 0.0]]))
    seq = build_adjusted_sequence(g, epsilon1=1.0, depth=3)
    rep = shape_report(Tower(seq))
    for row in rep.levels:
        assert row.betti == (1, 0)
    for pr in rep.pairs:
        assert pr.ranks == (1, 0)
    assert rep.stabilized == (1, 0)


@pytest.mark.parametrize("window", [0, 1])
def test_shape_report_window_below_two_is_refused(window):
    # window 1 reported itself but took its ranks from window 2; window 0 raised IndexError
    g = MetricGround.from_coords(np.array([[0.0, 0.0]]))
    seq = build_adjusted_sequence(g, epsilon1=1.0, depth=3)
    with pytest.raises(ValueError, match=f"stabilization window must be >= 2, got {window}"):
        shape_report(Tower(seq), window=window)


def test_shape_report_circle_stabilized():
    g = generate(SpaceSpec("circle", n=256))
    seq = build_adjusted_sequence(g, epsilon1=1.0, depth=5)
    rep = shape_report(Tower(seq))
    assert rep.stabilized == (1, 1)


def test_shape_report_rejects_single_level():
    g = MetricGround.from_coords(np.array([[0.0, 0.0]]))
    seq = build_adjusted_sequence(g, epsilon1=1.0, depth=1)
    with pytest.raises(ValueError):
        shape_report(Tower(seq))


# --- chain-level functoriality ------------------------------------------------------

def octagon():
    theta = 2.0 * np.pi * np.arange(8) / 8
    return MetricGround.from_coords(np.stack([np.cos(theta), np.sin(theta)], axis=1))


def test_chain_matrices_composite_equals_product():
    g = octagon()
    seq = build_adjusted_sequence(g, epsilon1=1.2, depth=3)
    assert all(len(lv.net) <= 12 for lv in seq.levels)
    hls = [build_hyperlevel(g, lv, cap=3) for lv in seq.levels]
    tower = Tower(seq)
    p21 = bonding_map(tower, hls[1])
    p32 = bonding_map(tower, hls[2])
    v21 = selection_vertex_map(p21, hls[1], hls[0])
    v32 = selection_vertex_map(p32, hls[2], hls[1])
    v31 = [v21[v] for v in v32]  # the tower's composite functor map
    m21 = chain_map_matrices(v21, hls[1], hls[0])
    m32 = chain_map_matrices(v32, hls[2], hls[1])
    m31 = chain_map_matrices(v31, hls[2], hls[0])
    for k in range(len(m31)):
        assert m31[k] == gf2_matrix_product(m21[k], m32[k])


def test_composite_induced_rank_bounded_by_steps():
    g = generate(SpaceSpec("circle", n=64))
    seq = build_adjusted_sequence(g, epsilon1=1.0, depth=3)
    hls = [build_hyperlevel(g, lv) for lv in seq.levels]
    tower = Tower(seq)
    p21 = bonding_map(tower, hls[1])
    p32 = bonding_map(tower, hls[2])
    p31 = composite_bonding(tower, hls[2], 1)
    d = [LevelHomology(hl) for hl in hls]
    r21 = induced_homology_map(bonding_vertex_map(p21, hls[1], hls[0]), d[1], d[0], 1)
    r32 = induced_homology_map(bonding_vertex_map(p32, hls[2], hls[1]), d[2], d[1], 1)
    r31 = induced_homology_map(bonding_vertex_map(p31, hls[2], hls[0]), d[2], d[0], 1)
    assert r31 <= min(r21, r32)


def test_composite_induced_rank_equality_on_circle_tail():
    # on the genuinely circular levels of circle(256) the inequality is tight
    g = generate(SpaceSpec("circle", n=256))
    seq = build_adjusted_sequence(g, epsilon1=1.0, depth=4)
    levels = seq.levels[1:]  # levels 2, 3, 4 carry the loop
    hls = [build_hyperlevel(g, lv) for lv in levels]
    tower = Tower(seq)
    d = [LevelHomology(hl) for hl in hls]
    p_step1 = bonding_map(tower, hls[1])
    p_step2 = bonding_map(tower, hls[2])
    p_comp = composite_bonding(tower, hls[2], levels[0].index)
    r1 = induced_homology_map(bonding_vertex_map(p_step1, hls[1], hls[0]), d[1], d[0], 1)
    r2 = induced_homology_map(bonding_vertex_map(p_step2, hls[2], hls[1]), d[2], d[1], 1)
    rc = induced_homology_map(bonding_vertex_map(p_comp, hls[2], hls[0]), d[2], d[0], 1)
    assert r1 == r2 == rc == 1


# --- exports -------------------------------------------------------------------------

def test_exports(tmp_path):
    g = triangle()
    lv = Level(1, 0.6, (0, 1, 2), 0.0)
    hl = build_hyperlevel(g, lv, cap=3)
    cx = order_complex(hl)
    export_complex_off(cx, str(tmp_path / "c.off"))
    export_complex_csv(cx, str(tmp_path / "c.csv"))
    off_lines = (tmp_path / "c.off").read_text().splitlines()
    assert off_lines[1].split() == ["7", "7", "12", "6"]
    csv_lines = (tmp_path / "c.csv").read_text().splitlines()
    assert csv_lines[0] == "dim,vertices"
    assert len(csv_lines) == 1 + 7 + 12 + 6

    g2 = generate(SpaceSpec("circle", n=64))
    seq = build_adjusted_sequence(g2, epsilon1=1.0, depth=3)
    rep = shape_report(Tower(seq))
    write_homology_csv(rep, str(tmp_path / "h.csv"))
    lines = (tmp_path / "h.csv").read_text().splitlines()
    assert lines[0] == "n,b0,b1,rank0_to_prev,rank1_to_prev"
    assert len(lines) == 1 + len(rep.levels)
