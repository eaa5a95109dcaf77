import math

import numpy as np
import pytest

from finiteshape.construction import build_adjusted_sequence, build_net
from finiteshape.homotopy import check_diagram_commutes, check_homotopic_in_U, check_identity_convergence
from finiteshape.hyperspace import MultiMap, Tower, build_hyperlevel, is_continuous, nearest_sets
from finiteshape.metric import MetricGround, SpaceSpec, generate
from finiteshape.construction import Level
from reference_loops import (
    ApproximativeMap,
    ball_map_prefix,
    dense,
    finite_type_convert,
    gamma,
    map_diameter,
    padded,
    reference_nearest_sets,
    set_diameter,
)


def circle4():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    return MetricGround.from_coords(pts)


def test_witness_equal_maps():
    g = circle4()
    q = MultiMap(nearest_sets(g, (0, 2), gamma(g, (0, 2))))
    d = map_diameter(g, q.table)
    w_pass = check_homotopic_in_U(q, q, d + 1e-9, g)
    w_fail = check_homotopic_in_U(q, q, d, g)
    assert w_pass.verdict
    assert not w_fail.verdict  # strict inequality
    assert w_fail.max_union_diameter == d


def test_witness_nearest_pair_beats_two_epsilon():
    # the union of consecutive nearest-point images stays below 2 epsilon_n
    g = generate(SpaceSpec("circle", n=64))
    seq = build_adjusted_sequence(g, epsilon1=1.0, depth=3)
    for n in range(1, seq.depth):
        f = MultiMap(nearest_sets(g, seq.level(n).net, seq.level(n).gamma))
        h = MultiMap(nearest_sets(g, seq.level(n + 1).net, seq.level(n + 1).gamma))
        w = check_homotopic_in_U(f, h, 2.0 * seq.level(n).epsilon, g)
        assert w.verdict and w.slack > 0


def test_witness_constructed_failure():
    g = generate(SpaceSpec("interval", n=3))  # points 0, 0.5, 1
    f = MultiMap(padded(((0,), (0,), (0,))))
    h = MultiMap(padded(((2,), (2,), (2,))))
    w = check_homotopic_in_U(f, h, 0.5, g)
    assert not w.verdict
    assert w.max_union_diameter == 1.0


def test_witness_domain_mismatch():
    g = circle4()
    f = MultiMap(padded(((0,),) * 4))
    h = MultiMap(padded(((0,),) * 3))
    with pytest.raises(ValueError):
        check_homotopic_in_U(f, h, 1.0, g)


def test_union_of_monotone_maps_is_monotone():
    g = MetricGround.from_coords(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]))
    lv = Level(1, 0.6, (0, 1, 2), 0.0)
    hl = build_hyperlevel(g, lv, cap=3)
    f_images = tuple((0,) for _ in hl.elements)             # constant
    g_images = tuple(el for el in hl.elements)              # identity
    f = MultiMap(padded(f_images))
    gmap = MultiMap(padded(g_images))
    assert is_continuous(f, hl)[0]
    assert is_continuous(gmap, hl)[0]
    union = MultiMap(padded([sorted(set(a) | set(b)) for a, b in zip(f_images, g_images)]))
    assert is_continuous(union, hl)[0]


def test_identity_convergence_singleton():
    g = MetricGround.from_coords(np.array([[0.0, 0.0]]))
    seq = build_adjusted_sequence(g, epsilon1=1.0, depth=4)
    rep = check_identity_convergence(Tower(seq))
    assert rep.ok
    for bc in rep.per_bound:
        assert bc.n0_inclusion == 1
        assert bc.n0_consecutive == 1


def test_identity_convergence_circle():
    g = generate(SpaceSpec("circle", n=256))
    seq = build_adjusted_sequence(g, epsilon1=1.0, depth=4)
    assert seq.depth == 4
    rep = check_identity_convergence(Tower(seq))
    assert rep.ok
    # bound 2 eps_n is achieved no later than level n, both conditions
    for n, bc in zip(rep.levels, rep.per_bound[: len(rep.levels)]):
        assert bc.n0_consecutive is not None and bc.n0_consecutive <= n
        assert bc.n0_inclusion is not None and bc.n0_inclusion <= n


def test_identity_convergence_detects_own_level_violation():
    # corrupt a stored tower: shrink epsilon_1 below its realized coverage so
    # the union diameter cannot beat 2 * epsilon_1 at its own level
    from finiteshape.construction import AdjustedSequence, Level

    g = generate(SpaceSpec("circle", n=32))
    seq = build_adjusted_sequence(g, epsilon1=1.0, depth=2)
    lv1 = seq.level(1)
    assert lv1.gamma > 0
    bad1 = Level(1, lv1.gamma / 4, lv1.net, lv1.gamma)
    bad = AdjustedSequence(
        ground=g, levels=(bad1, seq.level(2)),
        requested_depth=2,
    )
    rep = check_identity_convergence(Tower(bad))
    assert rep.own_level_violations
    assert not rep.ok


def test_identity_convergence_unreachable_bound_reported():
    # a stored tower whose scales grow: every union beats its own level's
    # bound, but q_2 is too coarse to stay inside 2 * epsilon_1
    from finiteshape.construction import AdjustedSequence

    g = MetricGround.from_coords(np.array([[-1.0], [-0.1], [0.0]]))
    levels = (Level(1, 0.48, (0, 1), 0.1), Level(2, 0.6, (0,), 1.0))
    rep = check_identity_convergence(Tower(AdjustedSequence(g, levels, requested_depth=2)))
    assert rep.pair_diameters == (0.9,)
    assert rep.inclusion_diameters == (0.1, 1.0)
    first = rep.per_bound[0]
    assert first.bound == 0.96
    assert first.n0_consecutive == 1
    assert first.n0_inclusion is None  # unreachable in the stored prefix
    assert not rep.own_level_violations  # insufficient depth, not a violation
    assert not rep.ok


def test_diagram_commutes_singleton():
    g = MetricGround.from_coords(np.array([[0.0, 0.0]]))
    seq = build_adjusted_sequence(g, epsilon1=1.0, depth=3)
    w = check_diagram_commutes(Tower(seq), 1)
    assert w.verdict and w.max_union_diameter == 0.0


def test_diagram_commutes_circle4_hand_value():
    g = circle4()
    seq = build_adjusted_sequence(g, epsilon1=1.5, depth=2)
    w = check_diagram_commutes(Tower(seq), 1)
    assert w.verdict
    # worst union: q_1(p1) = {p0, p2} against the bonded image of q_2(p1) = {p1}
    # which is again {p0, p2}: union diameter = antipodal distance 2 < 3
    assert w.max_union_diameter == pytest.approx(2.0)
    assert w.bound == pytest.approx(3.0)


def test_diagram_commutes_all_levels_warsaw_small():
    g = generate(SpaceSpec("warsaw_circle", n=500))
    seq = build_adjusted_sequence(g, epsilon1=g.diameter() / 2, depth=4)
    tower = Tower(seq)
    for n in range(1, seq.depth):
        w = check_diagram_commutes(tower, n)
        assert w.verdict, (n, w)


def test_approximative_map_validation():
    g = circle4()
    images_big = tuple((0, 2) for _ in range(4))
    images_small = tuple((0,) for _ in range(4))
    with pytest.raises(ValueError):
        ApproximativeMap.from_images(g, g, [images_small, images_big])  # increasing
    am = ApproximativeMap.from_images(g, g, [images_big, images_small])
    assert am.diameters == (2.0, 0.0)


def test_empty_image_is_rejected():
    g = circle4()
    with pytest.raises(ValueError, match="multivalued map image 2 is empty"):
        ApproximativeMap.from_images(g, g, [[(0,), (1,), (), (3,)]])


def test_finite_type_fixpoint():
    # a map already landing in the net, with beta below the minimal gap,
    # converts to itself
    g = generate(SpaceSpec("circle", n=8))
    net = tuple(range(8))
    min_gap = min(dense(g)[i, j] for i in range(8) for j in range(8) if i != j)
    am = ApproximativeMap.from_images(g, g, [[(x,) for x in range(8)]])
    out, rep = finite_type_convert(am, [min_gap * 0.9], [net])
    assert out.maps[0].images == am.maps[0].images
    assert rep.ok


def test_finite_type_constant_whole_target():
    g = generate(SpaceSpec("circle", n=64))
    whole = tuple(range(64))
    am = ApproximativeMap.from_images(g, g, [[whole for _ in range(64)]])
    assert am.diameters[0] == g.diameter()
    beta = 0.3
    net = build_net(g, beta)
    out, rep = finite_type_convert(am, [beta], [net])
    assert rep.ok
    assert out.diameters[0] < 2 * beta + am.diameters[0]
    for img in out.maps[0].images:
        assert set(img) <= set(net)


def test_finite_type_homotopy_bound_circle64():
    g = generate(SpaceSpec("circle", n=64))
    radii = [2.0 ** (-n) / 2 for n in range(1, 5)]
    am = ball_map_prefix(g, radii)
    betas = [2.0 ** (-n) for n in range(1, 5)]
    nets = [build_net(g, b) for b in betas]
    out, rep = finite_type_convert(am, betas, nets)
    assert rep.ok
    for mm, got, net in zip(am.maps, out.maps, nets):  # per-point union of nearest sets
        q = reference_nearest_sets(dense(g)[:, list(net)], net, 1e-9)
        expected = tuple(tuple(sorted(set().union(*(q[y] for y in img)))) for img in mm.images)
        assert got.images == expected
        assert map_diameter(g, got.table) == max(set_diameter(dense(g), img) for img in expected)
    eps = 0.5
    for k in range(len(betas)):
        if 2 * betas[k] + am.diameters[k] < eps:
            w = check_homotopic_in_U(am.maps[k], out.maps[k], eps, g)
            assert w.verdict


def test_finite_type_rejects_sparse_net():
    g = generate(SpaceSpec("circle", n=16))
    am = ball_map_prefix(g, [0.5])
    with pytest.raises(ValueError):
        finite_type_convert(am, [0.05], [(0, 8)])  # two points cannot be 0.05-dense
