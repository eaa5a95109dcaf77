"""Property tests: the array-backed tower against per-point reference loops,
greedy nets cut from one permutation against the per-threshold loop, the
nearest-point tables of those nets, read within their coverage, against a
whole read and a per-point loop, collapsed scale-complex homology against full
reductions of the scale and order complexes and of the whole strong-collapse
cores, the checks and homology
decided on levels of vertices and edges against the same on full posets, and
the monotonicity and selections that a bonding map's diameter check implies.

Clouds are small: random points in the plane or on the line, and lattice
points, whose many equal distances force exact nearest-point ties.  Large tie
tolerances, patched into ``hyperspace.TIE_TOL``, widen the tie rows and can
break the distance bounds, so the violation lists are exercised too.  The greedy nets and their tables also
see duplicate points, a single point and distance-matrix grounds.
"""

import dataclasses
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from finiteshape import cli, hyperspace
from finiteshape.construction import (
    AdjustedSequence,
    GreedyPermutation,
    Level,
    build_adjusted_sequence,
    build_net,
    check_sequence_inequalities,
    cut_net,
    gamma,
    load_sequence_text,
    write_sequence_text,
)
from finiteshape.homotopy import check_diagram_commutes, check_identity_convergence
from finiteshape.hyperspace import (
    BondingDiameterError,
    MultiMap,
    Tower,
    bonding_map,
    build_hyperlevel,
    composite_bonding,
    is_continuous,
    nearest_sets,
    verify_adjusted_distance_bounds,
)
from finiteshape.invariants import (
    LevelHomology,
    bonding_vertex_map,
    order_complex,
    shape_report,
)
from finiteshape.metric import MetricGround, SpaceSpec, generate
import reference_loops as ref

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None)

random_points = st.lists(
    st.tuples(st.floats(-1.0, 1.0, allow_subnormal=False), st.floats(-1.0, 1.0, allow_subnormal=False)),
    min_size=2, max_size=20, unique=True,
)
lattice_points = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3)), min_size=5, max_size=20, unique=True)
line_points = st.lists(st.integers(0, 12).map(lambda k: (float(k), 0.0)), min_size=4, max_size=13, unique=True)
duplicate_points = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1)), min_size=2, max_size=12)
single_point = st.just([(0.0, 0.0)])



TIE_TOLERANCES = st.sampled_from([0.0, 1e-9, 0.05, 0.5])


def at_tie_tolerance(tie_tol):
    """Context in which the tie rule reads ``tie_tol`` for ``hyperspace.TIE_TOL``.

    A ``Tower`` computes its nearest-point tables when it is built, so it is
    built under the patch.
    """
    return mock.patch.object(hyperspace, "TIE_TOL", tie_tol)


def ring(jitter) -> MetricGround:
    """Points on the unit circle at angles 2 pi (k + jitter[k]) / n; density is their covering radius on the circle."""
    n = len(jitter)
    theta = 2.0 * np.pi * (np.arange(n) + np.asarray(jitter, dtype=float)) / n
    gaps = np.diff(theta, append=theta[0] + 2.0 * np.pi)
    coords = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return MetricGround.from_coords(coords, density=2.0 * np.sin(gaps.max() / 4.0))


@st.composite
def ring_grounds(draw, max_n=128):
    """A ``ring`` of 64 to ``max_n`` points, each jittered by at most 0.05 of a gap."""
    n = draw(st.integers(64, max_n))
    return ring(draw(st.lists(st.floats(-0.05, 0.05), min_size=n, max_size=n)))


@st.composite
def towers(draw):
    """(tower, tie tolerance) for a drawn cloud or ring, depth 2 to 4.

    The clouds have at most 20 points, so past level 1 their levels are
    mostly whole samples without edges; rings give levels past the first
    with edges and bonding images of several points.
    """
    clouds = st.one_of(random_points, lattice_points, line_points).map(
        lambda p: MetricGround.from_coords(np.array(p, dtype=float)))
    ground = draw(st.one_of(clouds, ring_grounds(96)))
    if ground.diameter() == 0.0:  # distinct floats can still be 0 apart after rounding
        ground = MetricGround.from_coords(np.array([[0.0, 0.0], [1.0, 0.0]]))
    tie_tol, depth = draw(TIE_TOLERANCES), draw(st.integers(2, 4))
    with at_tie_tolerance(tie_tol):
        return Tower(build_adjusted_sequence(ground, ground.diameter() / 2.0, depth)), tie_tol


@st.composite
def homology_towers(draw, tie_tolerances=st.just(1e-9)):
    """(tower, tie tolerance) for a drawn cloud, depth 3 or 4, at a drawn tie tolerance (default 1e-9).

    Rings carry a loop over several levels, so degree-1 ranks are exercised
    as well as components.
    """
    points = st.one_of(random_points, lattice_points, line_points)
    ground = draw(st.one_of(points.map(lambda p: MetricGround.from_coords(np.array(p, dtype=float))),
                            ring_grounds(128)))
    assume(ground.diameter() > 0.0)
    tie_tol, depth = draw(tie_tolerances), draw(st.integers(3, 4))
    with at_tie_tolerance(tie_tol):
        seq = build_adjusted_sequence(ground, ground.diameter() / 2.0, depth)
        assume(seq.depth >= 2)  # a shape report needs two levels
        return Tower(seq), tie_tol


def full_lattice_tower(tie_tol, depth):
    """The 5 x 4 integer grid: three-way ties at level 1; at tie tolerance 0.5 every clause is violated."""
    points = np.array([(i, j) for i in range(5) for j in range(4)], dtype=float)
    ground = MetricGround.from_coords(points)
    with at_tie_tolerance(tie_tol):
        return Tower(build_adjusted_sequence(ground, ground.diameter() / 2.0, depth)), tie_tol


def non_nested_circle_sequence():
    """A hand-written three-level tower on the 64-point circle whose nets no farthest-point pass cuts.

    The nets are 13 points five steps apart, the even points and the odd
    points, so no finer net contains a coarser one; each ``gamma`` is the
    net's exact coverage and the scales 0.95, 0.35, 0.11 keep the tower
    inequalities.
    """
    ground = generate(SpaceSpec("circle", n=64))
    nets = [tuple(range(0, 64, 5)), tuple(range(0, 64, 2)), tuple(range(1, 64, 2))]
    scales = (0.95, 0.35, 0.11)
    levels = tuple(Level(n, eps, net, gamma(ground, net)) for n, eps, net in zip((1, 2, 3), scales, nets))
    return AdjustedSequence(ground, levels, requested_depth=3)


def with_lattice_examples(test):
    """The lattice towers and the non-nested circle tower, as fixed examples of ``towers()``."""
    test = example((Tower(non_nested_circle_sequence()), 1e-9))(test)
    return example(full_lattice_tower(1e-9, 3))(example(full_lattice_tower(0.5, 4))(test))


def test_non_nested_circle_tower_holds_and_verifies(tmp_path):
    seq = non_nested_circle_sequence()
    nets = [set(lv.net) for lv in seq.levels]
    assert not any(coarse <= fine for k, coarse in enumerate(nets) for fine in nets[k + 1:])
    assert all(rec["ok"] for rec in check_sequence_inequalities(seq))
    path = tmp_path / "sequence.txt"
    write_sequence_text(seq, str(path))
    assert load_sequence_text(seq.ground, str(path)).levels == seq.levels
    assert cli.main(["verify", "--space", "circle", "--n", "64", "--sequence", str(path)]) == 0


def test_ring_towers_have_edges_and_wide_bonding_images():
    # the least ring towers() draws: past level 1 it has edges, and bonding images of more than one point
    ground = ring(np.zeros(64))
    for depth in (2, 3, 4):
        tower = Tower(build_adjusted_sequence(ground, ground.diameter() / 2.0, depth))
        hls = [build_hyperlevel(ground, lv, cap=2) for lv in tower.seq.levels]
        assert any(hl.n_elements > len(hl.level.net) for hl in hls[1:])
        assert max(len(set(row)) for hl in hls[1:] for row in bonding_map(tower, hl).table.tolist()) >= 2


@PROPERTY_SETTINGS
@given(towers())
@with_lattice_examples
def test_padded_tables_match_reference(drawn):
    tower, tie_tol = drawn
    seq = tower.seq
    q = ref.nearest_tables(seq, tie_tol)
    for lv in seq.levels:
        np.testing.assert_array_equal(tower.q[lv.index], ref.padded(q[lv.index]))
        for cap in (2, 3):
            hl = build_hyperlevel(seq.ground, lv, cap=cap)
            assert hl.table.dtype == np.intp
            np.testing.assert_array_equal(hl.table, ref.padded(hl.elements))
    for n in range(1, seq.depth):
        for m in range(n + 1, seq.depth + 1):
            chain = ref.singleton_bonding_chain(seq.ground, seq.levels[n - 1:m], tie_tol)
            expected = ref.padded([chain[a] for a in seq.level(m).net])
            np.testing.assert_array_equal(tower.composite(n, m), expected)


@PROPERTY_SETTINGS
@given(towers())
@with_lattice_examples
def test_clause_reports_match_reference(drawn):
    tower, tie_tol = drawn
    rep = verify_adjusted_distance_bounds(tower)
    for got, want in zip(rep.clauses, ref.distance_bounds(tower.seq, tie_tol)):
        assert got.instances == want["instances"]
        assert (got.min_slack, got.worst_distance, got.worst_bound) == (
            want["min_slack"], want["worst_distance"], want["worst_bound"])
        assert got.worst_witness == want["worst_witness"]
        assert got.violations == want["violations"]


@PROPERTY_SETTINGS
@given(towers())
@with_lattice_examples
def test_identity_diameters_match_reference(drawn):
    tower, tie_tol = drawn
    rep = check_identity_convergence(tower)
    pairs, inclusions = ref.identity_diameters(tower.seq, tie_tol)
    assert list(rep.pair_diameters) == pairs
    assert list(rep.inclusion_diameters) == inclusions


@PROPERTY_SETTINGS
@given(towers())
@with_lattice_examples
def test_square_witnesses_match_reference(drawn):
    tower, tie_tol = drawn
    for n in range(1, tower.seq.depth):
        w = check_diagram_commutes(tower, n)
        assert (w.max_union_diameter, w.worst_item) == ref.square_witness(tower.seq, n, tie_tol)


@PROPERTY_SETTINGS
@given(st.one_of(random_points, lattice_points, line_points, duplicate_points, single_point), st.floats(1e-3, 4.0))
def test_greedy_nets_are_prefixes_of_one_permutation(points, drawn_threshold):
    ground = MetricGround.from_coords(np.array(points, dtype=float))
    perm = GreedyPermutation(ground).extend(0.0)
    order, radii = perm.order, perm.radii
    assert order[0] == 0 and len(set(order.tolist())) == len(order) == len(radii)
    assert radii[-1] == 0.0 and (np.diff(radii) <= 0).all()
    recorded = np.unique(radii[radii > 0])
    # every recorded radius, the midpoints between them, and thresholds beyond both ends
    thresholds = [*recorded, *(recorded[:-1] + recorded[1:]) / 2, ground.diameter() + 1.0, drawn_threshold]
    if recorded.size:
        thresholds.append(recorded[0] / 2)
    for t in thresholds:
        net, covered = cut_net(perm, float(t))
        assert net == ref.reference_build_net(ref.dense(ground), t) == build_net(ground, t)
        assert covered == gamma(ground, net)
        assert covered < t


@st.composite
def metric_grounds(draw):
    """A drawn cloud, as coordinates or as a validated distance table (Euclidean, or L1 on integer clouds)."""
    integer_clouds = st.one_of(lattice_points, line_points, duplicate_points)
    points = np.array(draw(st.one_of(random_points, integer_clouds, single_point)), dtype=float)
    kind = draw(st.sampled_from(["coords", "euclidean table", "l1 table"]))
    if kind == "coords":
        return MetricGround.from_coords(points)
    if kind == "l1 table" and (points == np.round(points)).all():
        return MetricGround.from_matrix(np.abs(points[:, None, :] - points[None, :, :]).sum(axis=2))
    return MetricGround.from_matrix(ref.dense(MetricGround.from_coords(points)))


@PROPERTY_SETTINGS
@given(metric_grounds(), TIE_TOLERANCES, st.lists(st.floats(1e-3, 4.0), min_size=1, max_size=4))
def test_pass_nearest_tables_match_nearest_sets(ground, tie_tol, drawn_thresholds):
    # the thresholds come in drawn order, then a finer cut is followed by a
    # coarser one, so a net is cut after the pass has run past it; each
    # table read within the net's coverage equals the whole read (infinite
    # coverage) and the per-point loop
    thresholds = [*drawn_thresholds, min(drawn_thresholds) / 4, 2 * max(drawn_thresholds)]
    with at_tie_tolerance(tie_tol):
        perm = GreedyPermutation(ground)
        for t in thresholds:
            net, covered = cut_net(perm, t)
            got = nearest_sets(ground, net, covered)
            want = nearest_sets(ground, net, np.inf)
            loops = ref.padded(ref.reference_nearest_sets(ref.dense(ground)[:, list(net)], net, tie_tol))
            assert got.dtype == want.dtype == loops.dtype and got.shape == want.shape == loops.shape
            assert got.tobytes() == want.tobytes() == loops.tobytes()


@PROPERTY_SETTINGS
@given(towers())
@with_lattice_examples
def test_hyperlevels_list_singletons_first_in_net_order(drawn):
    # element id i < |net| is the singleton of net position i: the scale
    # vertex map is a prefix of the selection map over all elements; the
    # elements are listed by size, each size in lex order, so each size is
    # one slice
    tower, _ = drawn
    for lv in tower.seq.levels:
        hl = build_hyperlevel(tower.ground, lv)
        m = len(lv.net)
        assert hl.elements[:m] == tuple((v,) for v in range(m))
        assert all(len(el) > 1 for el in hl.elements[m:])
        assert list(hl.elements) == sorted(hl.elements, key=lambda el: (len(el), el))


@PROPERTY_SETTINGS
@given(homology_towers())
@example(full_lattice_tower(1e-9, 3))
@example(full_lattice_tower(1e-9, 4))
def test_scale_route_homology_matches_order_route(drawn):
    tower, _ = drawn
    rep = shape_report(tower)
    hls = [build_hyperlevel(tower.ground, lv, cap=3) for lv in tower.seq.levels]
    homs = [ref.chain_homology(order_complex(hl)) for hl in hls]  # each order complex reduced once
    for row, hom in zip(rep.levels, homs):
        assert row.betti == (hom.b0, hom.b1)
    # the full selection map sends every poset element (order-complex vertex) to its coarse element
    for pr, fine, coarse, fine_hom, coarse_hom in zip(rep.pairs, hls[1:], hls, homs[1:], homs):
        vertex_map = ref.selection_vertex_map(bonding_map(tower, fine), fine, coarse)
        assert pr.ranks == ref.pushed_ranks(vertex_map, fine_hom, coarse_hom)


def full_scale_betti(hl):
    """(b_0, b_1) of a level's whole scale complex, reduced with no collapse."""
    hom = ref.full_scale_homology(hl)
    return hom.b0, hom.b1


def level_complex(hl):
    """Vertices (net positions) and the set of every simplex of a level's scale complex."""
    return len(hl.level.net), set(hl.elements)


def closed_neighbourhoods(n, simplices):
    """Closed neighbourhood of each vertex in the 1-skeleton."""
    nbr = {v: {v} for v in range(n)}
    for s in simplices:
        if len(s) == 2:
            nbr[s[0]].add(s[1])
            nbr[s[1]].add(s[0])
    return nbr


@PROPERTY_SETTINGS
@given(homology_towers())
@example(full_lattice_tower(1e-9, 3))
@example(full_lattice_tower(1e-9, 4))
@example((Tower(build_adjusted_sequence(generate(SpaceSpec("circle", n=128)), 1.0, 4)), 1e-9))  # edges collapse
def test_collapsed_homology_matches_full_reduction(drawn):
    # the edge-collapsed cores against the whole scale complexes and the whole strong-collapse cores
    tower, _ = drawn
    rep = shape_report(tower)
    hls = [build_hyperlevel(tower.ground, lv, cap=3) for lv in tower.seq.levels]
    full_cores = [ref.FullCoreHomology(hl) for hl in hls]
    for row, hl, full_core in zip(rep.levels, hls, full_cores):
        assert row.betti == full_scale_betti(hl) == full_core.betti
    for pr, fine, coarse, fine_core, coarse_core in zip(rep.pairs, hls[1:], hls, full_cores[1:], full_cores):
        p = bonding_map(tower, fine)
        assert pr.ranks == ref.full_scale_ranks(p, fine, coarse)
        assert pr.ranks == ref.full_core_ranks(bonding_vertex_map(p, fine, coarse), fine_core, coarse_core)

    for row, hl in zip(rep.levels, hls):
        n, simplices = level_complex(hl)
        data = LevelHomology(hl)
        core, r = set(data.collapse.core), data.collapse.retraction
        assert row.core_size == len(core) >= 1

        # flag: a triangle is present exactly when its three edges are
        nbr = closed_neighbourhoods(n, simplices)
        edges = [s for s in simplices if len(s) == 2]
        triangles = {(a, b, c) for a, b in edges for c in nbr[a] & nbr[b] if c > b}
        assert triangles == {s for s in simplices if len(s) == 3}

        # r is the identity on the core and a simplicial map onto it
        assert all(r[v] == v for v in core) and all(r[v] in core for v in range(n))
        for s in simplices:
            image = tuple(sorted({r[v] for v in s}))
            assert set(image) <= core and image in simplices

        # each elementary retraction u -> w is contiguous to the identity:
        # sigma and sigma + w are simplices for every edge sigma through u
        alive = set(range(n))
        for u, w in data.collapse.removals:
            assert w != u and w in alive and nbr[u] & alive <= nbr[w]
            for x in nbr[u] & alive - {u, w}:
                assert tuple(sorted({u, x, w})) in simplices
            alive.discard(u)
        assert alive == core

        # no core vertex is dominated
        assert not any(nbr[v] & core <= nbr[w] for v in core for w in nbr[v] & core - {v})


def outcome(fn, *args):
    """``fn(*args)``, or the text of the ``BondingDiameterError`` it raises."""
    try:
        return fn(*args)
    except BondingDiameterError as exc:
        return str(exc)


def assert_routes_agree(tower):
    """The edge route (levels at cap 2) against the full posets at cap 3.

    Every bonding composite has the same diameter and the same selection on
    net points, or raises the same first error; the shape report has the
    Betti numbers, core sizes and ranks of the uncollapsed reduction of the
    full posets, or raises the error of their first failing bonding map.
    """
    levels = tower.seq.levels
    edges = [build_hyperlevel(tower.ground, lv, cap=2) for lv in levels]
    full = [build_hyperlevel(tower.ground, lv, cap=3) for lv in levels]
    for m in range(2, len(levels) + 1):
        for n in range(1, m):
            got, want = (outcome(composite_bonding, tower, hls[m - 1], n) for hls in (edges, full))
            if not isinstance(want, MultiMap):
                assert got == want
                continue
            assert isinstance(got, MultiMap)
            assert ref.map_diameter(tower.ground, got.table) == ref.map_diameter(tower.ground, want.table)
            k = len(levels[m - 1].net)
            assert (ref.selection_vertex_map(got, edges[m - 1], edges[n - 1])[:k]
                    == ref.selection_vertex_map(want, full[m - 1], full[n - 1])[:k])

    first_error = next((e for e in (outcome(bonding_map, tower, hl) for hl in full[1:]) if isinstance(e, str)), None)
    try:
        rep = shape_report(tower)
    except BondingDiameterError as exc:
        assert str(exc) == first_error
        return
    assert first_error is None
    for row, hl in zip(rep.levels, full):
        assert row.betti == full_scale_betti(hl)
        assert row.core_size == len(LevelHomology(hl).collapse.core)
        assert row.n_edges == sum(len(el) == 2 for el in hl.elements)
    for pr, fine, coarse in zip(rep.pairs, full[1:], full):
        assert pr.ranks == ref.full_scale_ranks(bonding_map(tower, fine), fine, coarse)


@PROPERTY_SETTINGS
@given(homology_towers(tie_tolerances=st.sampled_from([1e-9, 0.5])))
@example(full_lattice_tower(1e-9, 3))
@example(full_lattice_tower(0.5, 4))
def test_edge_route_matches_full_poset_route(drawn):
    tower, tie_tol = drawn
    assert_routes_agree(tower)

    # plant a bonding-diameter failure at each pair n + 1 -> n: shrink
    # epsilon_n until the largest image of the bonding map reaches 2 epsilon_n
    seq = tower.seq
    for n in range(1, seq.depth):
        fine = seq.level(n + 1)
        p = outcome(bonding_map, tower, build_hyperlevel(tower.ground, fine, cap=2))
        if not isinstance(p, MultiMap):
            continue
        shrunk = list(seq.levels)
        shrunk[n - 1] = dataclasses.replace(shrunk[n - 1], epsilon=ref.map_diameter(tower.ground, p.table) / 2)
        with at_tie_tolerance(tie_tol):
            planted = Tower(dataclasses.replace(seq, levels=tuple(shrunk)))
        errors = [outcome(bonding_map, planted, build_hyperlevel(tower.ground, fine, cap=cap))
                  for cap in (2, 3)]
        assert isinstance(errors[0], str) and errors[0] == errors[1]
        assert_routes_agree(planted)


@PROPERTY_SETTINGS
@given(homology_towers())
@example(full_lattice_tower(1e-9, 3))
def test_bonding_maps_that_pass_are_monotone_and_select_coarse_elements(drawn):
    # what run and verify do not re-check: every step bonding map and every
    # composite that passes its diameter check is monotone, and its minimal
    # selection lands on coarse elements, with the vertex map a -> min p({a})
    # as its singleton part
    tower, _ = drawn
    levels = tower.seq.levels
    for cap in (2, 3):
        hls = [build_hyperlevel(tower.ground, lv, cap=cap) for lv in levels]
        for m in range(2, len(levels) + 1):
            fine = hls[m - 1]
            k = len(fine.level.net)
            for n in range(1, m):
                if n == m - 1:
                    p = outcome(bonding_map, tower, fine)
                else:
                    p = outcome(composite_bonding, tower, fine, n)
                if not isinstance(p, MultiMap):
                    continue
                coarse = hls[n - 1]
                assert is_continuous(p, fine) == (True, None)
                vertex_map = bonding_vertex_map(p, fine, coarse)
                assert vertex_map == [coarse.level.net.index(min(p.images[v])) for v in range(k)]
                assert ref.selection_vertex_map(p, fine, coarse)[:k] == vertex_map
