import itertools
import math

import numpy as np
import pytest

from finiteshape.construction import Level, build_adjusted_sequence
from finiteshape.hyperspace import (
    BondingDiameterError,
    MultiMap,
    bonding_map,
    build_hyperlevel,
    composite_bonding,
    export_poset_csv,
    export_poset_dot,
    is_continuous,
    nearest_point_map,
    nearest_sets,
    set_diameter,
    singleton_bonding_chain,
    verify_adjusted_distance_bounds,
)
from finiteshape.metric import MetricGround, SpaceSpec, generate


def circle4():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    return MetricGround.from_coords(pts)


def triangle():
    # equilateral, side 1
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    return MetricGround.from_coords(pts)


def brute_elements(dist, net, two_eps, cap):
    out = []
    for r in range(1, cap + 1):
        for sub in itertools.combinations(net, r):
            if set_diameter(dist, sub) < two_eps:
                out.append(sub)
    return sorted(out, key=lambda e: (len(e), e))


def test_hyperlevel_single_point():
    g = MetricGround.from_coords(np.array([[0.0, 0.0]]))
    lv = Level(1, 1.0, (0,), 0.0, 1.0)
    hl = build_hyperlevel(g, lv)
    assert hl.elements == ((0,),)


@pytest.mark.parametrize("eps,count", [(0.6, 7), (0.4, 3)])
def test_hyperlevel_triangle_counts(eps, count):
    g = triangle()
    lv = Level(1, eps, (0, 1, 2), 0.0, eps)
    hl = build_hyperlevel(g, lv, cap=3)
    assert hl.n_elements == count
    # exhaustive subset enumeration oracle
    assert list(hl.elements) == brute_elements(g.dist, (0, 1, 2), 2 * eps, 3)


def test_hyperlevel_down_closed_and_diameters():
    g = generate(SpaceSpec("circle", n=16))
    lv = Level(1, 0.5, tuple(range(16)), 0.3, 0.5)
    hl = build_hyperlevel(g, lv, cap=3)
    for el, d in zip(hl.elements, hl.diameters):
        assert d == set_diameter(g.dist, el) < 1.0
        for r in range(1, len(el)):
            for sub in itertools.combinations(el, r):
                assert hl.has_element(sub)


def test_nearest_point_map_net_point_maps_to_itself():
    g = circle4()
    q = nearest_point_map(g, (0, 2))
    assert q.images[0] == (0,)
    assert q.images[2] == (2,)


def test_nearest_point_map_exact_tie():
    g = generate(SpaceSpec("interval", n=3))  # 0, 0.5, 1
    q = nearest_point_map(g, (0, 2))
    assert q.images[1] == (0, 2)


def test_nearest_point_map_circle4_antipodal():
    g = circle4()
    q = nearest_point_map(g, (0, 2))
    assert q.images[1] == (0, 2)
    assert q.images[3] == (0, 2)
    assert q.diameter == pytest.approx(2.0)


def test_bonding_singleton_fixed_point():
    g = circle4()
    seq = build_adjusted_sequence(g, epsilon1=1.5, depth=2)
    hl2 = build_hyperlevel(g, seq.level(2))
    p = bonding_map(g, hl2, seq.level(1))
    i0 = hl2.element_id((0,))
    assert p.images[i0] == (0,)


def test_bonding_circle4_hand_values():
    g = circle4()
    seq = build_adjusted_sequence(g, epsilon1=1.5, depth=2)
    assert seq.level(1).net == (0, 2)
    assert seq.level(2).net == (0, 1, 2, 3)
    hl2 = build_hyperlevel(g, seq.level(2))
    p = bonding_map(g, hl2, seq.level(1))
    i1 = hl2.element_id((1,))
    assert p.images[i1] == (0, 2)
    # both image points sit at sqrt(2) from the source point p1
    assert g.dist[0, 1] == pytest.approx(math.sqrt(2.0))
    assert g.dist[2, 1] == pytest.approx(math.sqrt(2.0))
    # the image is the antipodal pair, diameter 2 < 2 * epsilon_1 = 3
    d = set_diameter(g.dist, p.images[i1])
    assert d == pytest.approx(2.0)
    assert d < 2 * seq.level(1).epsilon == 3.0


def test_bonding_monotone_on_triangle():
    g = triangle()
    fine = Level(2, 0.6, (0, 1, 2), 0.0, 0.6)
    coarse = Level(1, 1.4, (0, 1), 1.0, 1.4)
    hl = build_hyperlevel(g, fine, cap=3)
    p = bonding_map(g, hl, coarse)
    ok, ce = is_continuous(p, hl)
    assert ok and ce is None
    # exhaustive monotonicity recheck
    for i, j in hl.proper_subset_pairs():
        assert set(p.images[i]) <= set(p.images[j])


def test_bonding_diameter_error_aborts():
    # two clusters; coarse "net" has gamma violating the scale so images blow up
    pts = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 0.0]])
    g = MetricGround.from_coords(pts)
    fine = Level(2, 6.0, (0, 1, 2), 5.0, 6.0)
    coarse = Level(1, 0.5, (0, 1), 0.4, 0.5)
    hl = build_hyperlevel(g, fine, cap=2)
    with pytest.raises(BondingDiameterError):
        bonding_map(g, hl, coarse)


def test_composite_two_levels_equals_bonding():
    g = generate(SpaceSpec("circle", n=64))
    seq = build_adjusted_sequence(g, epsilon1=1.0, depth=3)
    hls = [build_hyperlevel(g, lv) for lv in seq.levels]
    single = bonding_map(g, hls[1], seq.level(1))
    comp = composite_bonding(g, hls[:2])
    assert comp.images == single.images
    assert comp.diameter == single.diameter


def test_composite_singleton_ground_identity():
    g = MetricGround.from_coords(np.array([[0.0, 0.0]]))
    seq = build_adjusted_sequence(g, epsilon1=1.0, depth=3)
    hls = [build_hyperlevel(g, lv) for lv in seq.levels]
    comp = composite_bonding(g, hls)
    assert comp.images == ((0,),)


def test_composite_diameters_below_coarse_epsilon_on_circle():
    # composite images of singletons stay within epsilon_n of their source,
    # so their diameters stay below epsilon_n on a depth-3 circle tower
    g = generate(SpaceSpec("circle", n=64))
    seq = build_adjusted_sequence(g, epsilon1=1.0, depth=3)
    hls = [build_hyperlevel(g, lv) for lv in seq.levels]
    comp = composite_bonding(g, hls)
    for el, img in zip(hls[-1].elements, comp.images):
        if len(el) == 1:
            assert set_diameter(g.dist, img) < seq.level(1).epsilon


def per_element_union_map(dist, elements, point_images):
    """Reference: union image of every element, each measured on its own."""
    images = tuple(tuple(sorted(set().union(*(point_images[a] for a in el)))) for el in elements)
    worst = 0.0
    for img in images:
        d = set_diameter(dist, img)
        if d > worst:
            worst = d
    return images, worst


def test_bonding_maps_match_per_element_diameter_reference():
    g = generate(SpaceSpec("warsaw_circle", n=1000))
    seq = build_adjusted_sequence(g, g.diameter() / 2.0, depth=3)
    hls = [build_hyperlevel(g, lv) for lv in seq.levels]
    shared = 0
    for k in range(len(hls) - 1):
        fine_net, coarse_net = list(seq.levels[k + 1].net), list(seq.levels[k].net)
        q = dict(zip(fine_net, nearest_sets(g.dist[np.ix_(fine_net, coarse_net)], coarse_net, 1e-9)))
        p = bonding_map(g, hls[k + 1], seq.levels[k])
        assert (p.images, p.diameter) == per_element_union_map(g.dist, hls[k + 1].elements, q)
        shared += len(p.images) - len(set(p.images))
    assert shared > 0  # some elements share an image, so the measured-once path runs
    for k in range(len(hls) - 2):
        comp = composite_bonding(g, hls[k:])
        chain = singleton_bonding_chain(g, seq.levels[k:])
        assert (comp.images, comp.diameter) == per_element_union_map(g.dist, hls[-1].elements, chain)


def test_is_continuous_constant_map():
    g = triangle()
    lv = Level(1, 0.6, (0, 1, 2), 0.0, 0.6)
    hl = build_hyperlevel(g, lv, cap=3)
    const = MultiMap("elements", tuple((0,) for _ in hl.elements), 0.0)
    ok, _ = is_continuous(const, hl)
    assert ok


def test_is_continuous_reports_violation():
    g = triangle()
    lv = Level(1, 0.6, (0, 1, 2), 0.0, 0.6)
    hl = build_hyperlevel(g, lv, cap=3)
    # send the pair {0,1} somewhere that does not contain the image of {0}
    images = []
    for el in hl.elements:
        images.append((2,) if el == (0, 1) else (0,))
    mm = MultiMap("elements", tuple(images), 1.0)
    ok, ce = is_continuous(mm, hl)
    assert not ok
    i, j = ce
    assert hl.elements[i] == (0,) or hl.elements[i] == (1,)
    assert hl.elements[j] == (0, 1)


def test_distance_bounds_singleton_ground():
    g = MetricGround.from_coords(np.array([[0.0, 0.0]]))
    seq = build_adjusted_sequence(g, epsilon1=1.0, depth=3)
    rep = verify_adjusted_distance_bounds(seq)
    assert rep.ok
    for cl in rep.clauses:
        assert cl.worst_distance == 0.0


def test_distance_bounds_circle4():
    g = circle4()
    seq = build_adjusted_sequence(g, epsilon1=1.5, depth=3)
    rep = verify_adjusted_distance_bounds(seq)
    assert rep.ok
    for cl in rep.clauses:
        assert cl.min_slack > 0
        assert cl.instances > 0


def test_distance_bounds_circle64_exhaustive():
    g = generate(SpaceSpec("circle", n=64))
    seq = build_adjusted_sequence(g, epsilon1=1.0, depth=4)
    rep = verify_adjusted_distance_bounds(seq)
    assert rep.ok


def test_element_budget_overflow_reports_cardinality():
    g = generate(SpaceSpec("circle", n=32))
    lv = Level(1, 1.0, tuple(range(32)), 0.5, 1.0)
    from finiteshape.hyperspace import ElementCapError

    with pytest.raises(ElementCapError) as err:
        build_hyperlevel(g, lv, cap=3, max_elements=40)
    assert "cardinality" in str(err.value)
    assert "40" in str(err.value)


def test_leq_and_covering_agree():
    g = triangle()
    lv = Level(1, 0.6, (0, 1, 2), 0.0, 0.6)
    hl = build_hyperlevel(g, lv, cap=3)
    for i, j in hl.covering_pairs():
        assert hl.leq(i, j) and not hl.leq(j, i)
        assert len(hl.elements[j]) == len(hl.elements[i]) + 1


def test_poset_exports(tmp_path):
    g = triangle()
    lv = Level(1, 0.6, (0, 1, 2), 0.0, 0.6)
    hl = build_hyperlevel(g, lv, cap=3)
    dot = tmp_path / "p.dot"
    csvp = tmp_path / "p.csv"
    export_poset_dot(hl, str(dot))
    export_poset_csv(hl, str(csvp))
    text = dot.read_text()
    assert text.startswith("digraph")
    # covering edges: 3 singletons -> 3 pairs (2 each) + 3 pairs -> triple
    assert text.count("->") == 9
    lines = csvp.read_text().splitlines()
    assert lines[0] == "element_id,cardinality,diameter,members"
    assert len(lines) == 1 + hl.n_elements
