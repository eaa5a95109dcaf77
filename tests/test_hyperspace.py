import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from finiteshape import hyperspace
from finiteshape.construction import AdjustedSequence, Level, build_adjusted_sequence
from finiteshape.hyperspace import (
    BondingDiameterError,
    MultiMap,
    Tower,
    bonding_map,
    build_hyperlevel,
    composite_bonding,
    export_poset_csv,
    export_poset_dot,
    is_continuous,
    nearest_sets,
    verify_adjusted_distance_bounds,
)
from finiteshape.metric import MetricGround, SpaceSpec, generate
from reference_loops import (
    dense,
    element_id,
    gamma,
    images_of,
    map_diameter,
    monotone_on_all_pairs,
    padded,
    proper_subset_pairs,
    reference_nearest_sets,
    set_diameter,
    singleton_bonding_chain,
)


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
    lv = Level(1, 1.0, (0,), 0.0)
    hl = build_hyperlevel(g, lv)
    assert hl.elements == ((0,),)


@pytest.mark.parametrize("eps,count", [(0.6, 7), (0.4, 3)])
def test_hyperlevel_triangle_counts(eps, count):
    g = triangle()
    lv = Level(1, eps, (0, 1, 2), 0.0)
    hl = build_hyperlevel(g, lv, cap=3)
    assert hl.n_elements == count
    # exhaustive subset enumeration oracle
    assert list(hl.elements) == brute_elements(dense(g), (0, 1, 2), 2 * eps, 3)


def test_hyperlevel_down_closed_and_diameters(tmp_path):
    g = generate(SpaceSpec("circle", n=16))
    lv = Level(1, 0.5, tuple(range(16)), 0.3)
    hl = build_hyperlevel(g, lv, cap=3)
    export_poset_csv(g, hl, str(tmp_path / "p.csv"))
    diameters = [float(row.split(",")[2]) for row in (tmp_path / "p.csv").read_text().splitlines()[1:]]
    assert len(diameters) == hl.n_elements
    for el, d in zip(hl.elements, diameters):
        assert d == set_diameter(dense(g), el) < 1.0
        for r in range(1, len(el)):
            for sub in itertools.combinations(el, r):
                assert sub in hl.elements


def test_nearest_point_map_net_point_maps_to_itself():
    g = circle4()
    q = MultiMap(nearest_sets(g, (0, 2), gamma(g, (0, 2))))
    assert q.images[0] == (0,)
    assert q.images[2] == (2,)


def test_nearest_point_map_exact_tie():
    g = generate(SpaceSpec("interval", n=3))  # 0, 0.5, 1
    q = MultiMap(nearest_sets(g, (0, 2), gamma(g, (0, 2))))
    assert q.images[1] == (0, 2)


def test_nearest_point_map_circle4_antipodal():
    g = circle4()
    q = MultiMap(nearest_sets(g, (0, 2), gamma(g, (0, 2))))
    assert q.images[1] == (0, 2)
    assert q.images[3] == (0, 2)
    assert map_diameter(g, q.table) == pytest.approx(2.0)


def test_bonding_singleton_fixed_point():
    g = circle4()
    seq = build_adjusted_sequence(g, epsilon1=1.5, depth=2)
    hl2 = build_hyperlevel(g, seq.level(2))
    p = bonding_map(Tower(seq), hl2)
    i0 = element_id(hl2, (0,))
    assert p.images[i0] == (0,)


def test_bonding_circle4_hand_values():
    g = circle4()
    seq = build_adjusted_sequence(g, epsilon1=1.5, depth=2)
    assert seq.level(1).net == (0, 2)
    assert seq.level(2).net == (0, 1, 2, 3)
    hl2 = build_hyperlevel(g, seq.level(2))
    p = bonding_map(Tower(seq), hl2)
    i1 = element_id(hl2, (1,))
    assert p.images[i1] == (0, 2)
    # both image points sit at sqrt(2) from the source point p1
    assert dense(g)[0, 1] == pytest.approx(math.sqrt(2.0))
    assert dense(g)[2, 1] == pytest.approx(math.sqrt(2.0))
    # the image is the antipodal pair, diameter 2 < 2 * epsilon_1 = 3
    d = set_diameter(dense(g), p.images[i1])
    assert d == pytest.approx(2.0)
    assert d < 2 * seq.level(1).epsilon == 3.0


def test_bonding_monotone_on_triangle():
    g = triangle()
    fine = Level(2, 0.6, (0, 1, 2), 0.0)
    coarse = Level(1, 1.4, (0, 1), 1.0)
    hl = build_hyperlevel(g, fine, cap=3)
    p = bonding_map(Tower(AdjustedSequence(g, (coarse, fine), 2)), hl)
    ok, ce = is_continuous(p, hl)
    assert ok and ce is None
    # exhaustive monotonicity recheck
    for i, j in proper_subset_pairs(hl):
        assert set(p.images[i]) <= set(p.images[j])


def test_bonding_diameter_error_aborts():
    # two clusters; coarse "net" has gamma violating the scale so images blow up.
    # Ground point 0 lies in no net, so net positions and ground indices differ:
    # the message names the element by ground indices, (3,), not position (2,).
    # Both nets cover point 0 within 30, the gamma each level states.
    pts = np.array([[40.0, 0.0], [0.0, 0.0], [10.0, 0.0], [5.0, 0.0]])
    g = MetricGround.from_coords(pts)
    fine = Level(2, 6.0, (1, 2, 3), 30.0)
    coarse = Level(1, 0.5, (1, 2), 30.0)
    hl = build_hyperlevel(g, fine, cap=2)
    tower = Tower(AdjustedSequence(g, (coarse, fine), 2))
    with pytest.raises(BondingDiameterError, match=r"^bonding image of \(3,\) has diameter 10\.0 "):
        bonding_map(tower, hl)


def test_bonding_rejects_hyperlevel_of_another_level():
    g = circle4()
    seq = build_adjusted_sequence(g, epsilon1=1.5, depth=2)
    lv2 = seq.level(2)
    other = Level(2, lv2.epsilon, (0, 1, 2), lv2.gamma)
    with pytest.raises(ValueError, match="not built on this tower's level"):
        bonding_map(Tower(seq), build_hyperlevel(g, other))


def test_composite_two_levels_equals_bonding():
    g = generate(SpaceSpec("circle", n=64))
    seq = build_adjusted_sequence(g, epsilon1=1.0, depth=3)
    hls = [build_hyperlevel(g, lv) for lv in seq.levels]
    tower = Tower(seq)
    single = bonding_map(tower, hls[1])
    comp = composite_bonding(tower, hls[1], 1)
    assert comp.images == single.images
    assert map_diameter(g, comp.table) == map_diameter(g, single.table)


def test_composite_singleton_ground_identity():
    g = MetricGround.from_coords(np.array([[0.0, 0.0]]))
    seq = build_adjusted_sequence(g, epsilon1=1.0, depth=3)
    hls = [build_hyperlevel(g, lv) for lv in seq.levels]
    comp = composite_bonding(Tower(seq), hls[-1], 1)
    assert comp.images == ((0,),)


def test_composite_diameters_below_coarse_epsilon_on_circle():
    # composite images of singletons stay within epsilon_n of their source,
    # so their diameters stay below epsilon_n on a depth-3 circle tower
    g = generate(SpaceSpec("circle", n=64))
    seq = build_adjusted_sequence(g, epsilon1=1.0, depth=3)
    hls = [build_hyperlevel(g, lv) for lv in seq.levels]
    comp = composite_bonding(Tower(seq), hls[-1], 1)
    for el, img in zip(hls[-1].elements, comp.images):
        if len(el) == 1:
            assert set_diameter(dense(g), img) < seq.level(1).epsilon


@pytest.mark.parametrize("spec", [SpaceSpec("warsaw_circle", n=1000), SpaceSpec("circle", n=64)],
                         ids=["warsaw1000", "circle64"])
def test_tower_steps_and_composites_match_from_scratch_chain(spec):
    g = generate(spec)
    seq = build_adjusted_sequence(g, g.diameter() / 2.0, depth=3)
    assert seq.depth == 3
    tower = Tower(seq)
    for lv in seq.levels:
        expected = tuple(reference_nearest_sets(dense(g)[:, list(lv.net)], lv.net, 1e-9))
        assert images_of(tower.q[lv.index]) == MultiMap(nearest_sets(g, lv.net, lv.gamma)).images == expected
    for n in range(1, seq.depth):
        fine_net = seq.level(n + 1).net
        step = tower.composite(n, n + 1)
        assert dict(zip(fine_net, images_of(step))) == singleton_bonding_chain(g, seq.levels[n - 1:n + 1])
        for m in range(n + 1, seq.depth + 1):
            comp = dict(zip(seq.level(m).net, images_of(tower.composite(n, m))))
            assert comp == singleton_bonding_chain(g, seq.levels[n - 1:m])


@pytest.mark.parametrize("tie_tol", [1e-9, 0.05])
def test_tower_reads_tables_off_the_pass_only_at_its_tie_tolerance(tie_tol, monkeypatch):
    # with hyperspace.TIE_TOL at tie_tol, a tower over a built sequence, the
    # same levels as a stored sequence, or them over a copy of the ground or
    # its distance table makes one nearest_sets call per level; the tables
    # agree byte for byte with the reference loop at tie_tol
    monkeypatch.setattr(hyperspace, "TIE_TOL", tie_tol)
    g = generate(SpaceSpec("warsaw_circle", n=500))
    seq = build_adjusted_sequence(g, g.diameter() / 2.0, depth=3)
    original, calls = hyperspace.nearest_sets, []
    monkeypatch.setattr(hyperspace, "nearest_sets", lambda *args: calls.append(args[1]) or original(*args))
    for other in (seq, AdjustedSequence(g, seq.levels, seq.requested_depth),
                  dataclasses.replace(seq, ground=MetricGround.from_coords(g.coords, density=g.density)),
                  dataclasses.replace(seq, ground=MetricGround.from_matrix(dense(g), density=g.density))):
        calls.clear()
        tower = Tower(other)
        assert calls == [lv.net for lv in seq.levels]
        for lv in seq.levels:
            expected = padded(reference_nearest_sets(dense(g)[:, list(lv.net)], lv.net, tie_tol))
            assert tower.q[lv.index].tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", ["coords", "table"])
def test_tower_refuses_a_level_that_understates_its_coverage(kind):
    # the tables read only the pairs within the stated gamma; a point
    # farther than it from the net raises rather than return a table that
    # could miss its ties, and an overstated gamma gives the same tables
    g = generate(SpaceSpec("warsaw_circle", n=300))
    if kind == "table":
        g = MetricGround.from_matrix(dense(g))
    seq = build_adjusted_sequence(g, g.diameter() / 2.0, depth=3)
    tower = Tower(seq)
    for k, lv in enumerate(seq.levels):
        # (stated gamma, the distance the error names: gamma itself when only the farthest points lie beyond)
        for stated, named in ((float(np.nextafter(lv.gamma, 0.0)), re.escape(repr(lv.gamma))), (lv.gamma / 2, r"\S+"),
                              (2.0 * lv.gamma, None), (np.inf, None)):
            levels = list(seq.levels)
            levels[k] = dataclasses.replace(lv, gamma=stated)
            other = dataclasses.replace(seq, levels=tuple(levels))
            if named:
                message = rf"^ground point \d+ lies {named} from the net, beyond its stated coverage {re.escape(repr(stated))}$"
                with pytest.raises(ValueError, match=message):
                    Tower(other)
            else:
                assert Tower(other).q[lv.index].tobytes() == tower.q[lv.index].tobytes()


def ground_members(hl):
    """Each element of ``hl`` as the sorted ground indices of its net positions."""
    net = hl.level.net
    return [tuple(net[v] for v in el) for el in hl.elements]


def per_element_union_map(dist, elements, point_images):
    """Reference: union image of every element (ground indices), each measured on its own."""
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
    tower = Tower(seq)
    shared = 0
    for k in range(len(hls) - 1):
        fine_net, coarse_net = list(seq.levels[k + 1].net), list(seq.levels[k].net)
        q = dict(zip(fine_net, reference_nearest_sets(dense(g)[np.ix_(fine_net, coarse_net)], coarse_net, 1e-9)))
        p = bonding_map(tower, hls[k + 1])
        assert (p.images, map_diameter(g, p.table)) == per_element_union_map(dense(g), ground_members(hls[k + 1]), q)
        shared += len(p.images) - len(set(p.images))
    assert shared > 0  # some elements share an image, so the measured-once path runs
    for k in range(len(hls) - 2):
        comp = composite_bonding(tower, hls[-1], k + 1)
        chain = singleton_bonding_chain(g, seq.levels[k:])
        assert (comp.images, map_diameter(g, comp.table)) == per_element_union_map(dense(g), ground_members(hls[-1]), chain)


def test_is_continuous_constant_map():
    g = triangle()
    lv = Level(1, 0.6, (0, 1, 2), 0.0)
    hl = build_hyperlevel(g, lv, cap=3)
    const = MultiMap(padded([(0,)] * hl.n_elements))
    ok, _ = is_continuous(const, hl)
    assert ok


def test_is_continuous_reports_violation():
    g = triangle()
    lv = Level(1, 0.6, (0, 1, 2), 0.0)
    hl = build_hyperlevel(g, lv, cap=3)
    # send the pair {0,1} somewhere that does not contain the image of {0}
    images = []
    for el in hl.elements:
        images.append((2,) if el == (0, 1) else (0,))
    mm = MultiMap(padded(images))
    ok, ce = is_continuous(mm, hl)
    assert not ok
    i, j = ce
    assert hl.elements[i] == (0,) or hl.elements[i] == (1,)
    assert hl.elements[j] == (0, 1)


@pytest.mark.parametrize("spec", [SpaceSpec("warsaw_circle", n=1000), SpaceSpec("circle", n=64)],
                         ids=["warsaw1000", "circle64"])
def test_covering_pair_verdict_matches_all_pairs_reference(spec):
    g = generate(spec)
    seq = build_adjusted_sequence(g, g.diameter() / 2.0, depth=3)
    hls = [build_hyperlevel(g, lv) for lv in seq.levels]
    tower = Tower(seq)
    maps = [(bonding_map(tower, hl), hl) for hl in hls[1:]]
    maps += [(composite_bonding(tower, hls[-1], n), hls[-1]) for n in range(1, seq.depth - 1)]
    rng = np.random.default_rng(0)
    failed = passed_mixed = failed_mixed = 0
    for mm, hl in maps:
        trials = [(mm.table, False)]
        for _ in range(6):
            # one image moved to a random ground point, or shrunk to that of a covered subset
            images = list(mm.images)
            j = int(rng.integers(len(images)))
            el = hl.elements[j]
            if len(el) > 1 and rng.integers(2):
                k = int(rng.integers(len(el)))
                images[j] = images[element_id(hl, el[:k] + el[k + 1:])]
            else:
                images[j] = (int(rng.integers(g.n)),)
            trials.append((padded(images), False))
        for t in range(6):
            # rows of mixed widths: 1-2 extra points, in no particular order,
            # join the image of a vertex and of every element above it, which
            # keeps a monotone map monotone; odd trials also cut one image to
            # a single point.  Short rows then carry padding repeats next to
            # wide ones.
            images = list(mm.images)
            v = int(rng.integers(len(hl.level.net)))
            extra = tuple(rng.choice(g.n, size=int(rng.integers(1, 3)), replace=False).tolist())
            for j, el in enumerate(hl.elements):
                if v in el:
                    images[j] = tuple(dict.fromkeys(extra + images[j]))
            if t % 2:
                j = int(rng.integers(len(images)))
                images[j] = images[j][-1:]
            table = padded(images)
            assert table.shape[1] >= 2 and min(map(len, images)) == 1
            trials.append((table, True))
        for table, mixed in trials:
            images = images_of(table)
            ok, ce = is_continuous(MultiMap(table), hl)
            assert ok == monotone_on_all_pairs(images, hl)
            first = next(((i, j) for i, j in hl.covering_pairs() if not set(images[i]) <= set(images[j])), None)
            assert ce == first
            if mixed:
                passed_mixed += ok
                failed_mixed += not ok
            if not ok:
                failed += 1
                i, j = ce
                small, big = hl.elements[i], hl.elements[j]
                assert len(big) == len(small) + 1 and set(small) < set(big)
    assert failed > 0 and failed_mixed > 0 and passed_mixed > 0


def test_distance_bounds_singleton_ground():
    g = MetricGround.from_coords(np.array([[0.0, 0.0]]))
    seq = build_adjusted_sequence(g, epsilon1=1.0, depth=3)
    rep = verify_adjusted_distance_bounds(Tower(seq))
    assert rep.ok
    for cl in rep.clauses:
        assert cl.worst_distance == 0.0


def test_distance_bounds_circle4():
    g = circle4()
    seq = build_adjusted_sequence(g, epsilon1=1.5, depth=3)
    rep = verify_adjusted_distance_bounds(Tower(seq))
    assert rep.ok
    for cl in rep.clauses:
        assert cl.min_slack > 0
        assert cl.instances > 0


def test_distance_bounds_circle64_exhaustive():
    g = generate(SpaceSpec("circle", n=64))
    seq = build_adjusted_sequence(g, epsilon1=1.0, depth=4)
    rep = verify_adjusted_distance_bounds(Tower(seq))
    assert rep.ok


def test_element_budget_overflow_reports_cardinality(monkeypatch):
    monkeypatch.setattr(hyperspace, "MAX_ELEMENTS", 40)
    g = generate(SpaceSpec("circle", n=32))
    lv = Level(1, 1.0, tuple(range(32)), 0.5)
    from finiteshape.hyperspace import ElementCapError

    with pytest.raises(ElementCapError) as err:
        build_hyperlevel(g, lv, cap=3)
    assert "cardinality" in str(err.value)
    assert "40" in str(err.value)


def test_leq_and_covering_agree():
    g = triangle()
    lv = Level(1, 0.6, (0, 1, 2), 0.0)
    hl = build_hyperlevel(g, lv, cap=3)
    for i, j in hl.covering_pairs():
        assert set(hl.elements[i]) < set(hl.elements[j])
        assert len(hl.elements[j]) == len(hl.elements[i]) + 1


def test_poset_exports(tmp_path):
    g = triangle()
    lv = Level(1, 0.6, (0, 1, 2), 0.0)
    hl = build_hyperlevel(g, lv, cap=3)
    dot = tmp_path / "p.dot"
    csvp = tmp_path / "p.csv"
    export_poset_dot(hl, str(dot))
    export_poset_csv(g, hl, str(csvp))
    text = dot.read_text()
    assert text.startswith("digraph")
    # covering edges: 3 singletons -> 3 pairs (2 each) + 3 pairs -> triple
    assert text.count("->") == 9
    lines = csvp.read_text().splitlines()
    assert lines[0] == "element_id,cardinality,diameter,members"
    assert len(lines) == 1 + hl.n_elements


def test_poset_exports_write_members_as_ground_indices(tmp_path):
    # elements hold net positions; on a net that is not 0..m-1 the exports
    # must still name every member by its ground index
    g = generate(SpaceSpec("warsaw_circle", n=300))
    seq = build_adjusted_sequence(g, g.diameter() / 2.0, depth=3)
    hl = build_hyperlevel(g, seq.level(3))
    assert hl.level.net != tuple(range(len(hl.level.net)))
    members = ground_members(hl)
    export_poset_csv(g, hl, str(tmp_path / "p.csv"))
    export_poset_dot(hl, str(tmp_path / "p.dot"))

    rows = (tmp_path / "p.csv").read_text().splitlines()[1:]
    assert len(rows) == hl.n_elements
    for i, (row, el) in enumerate(zip(rows, members)):
        eid, card, diam, text = row.split(",")
        assert (int(eid), int(card)) == (i, len(el))
        assert tuple(map(int, text.split())) == el
        assert float(diam) == set_diameter(dense(g), el)

    labels = re.findall(r'^  e(\d+) \[label="\{([\d,]+)\}"\];$', (tmp_path / "p.dot").read_text(), re.M)
    assert [(int(i), tuple(map(int, text.split(",")))) for i, text in labels] == list(enumerate(members))
