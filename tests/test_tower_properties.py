"""Property tests: the array-backed tower against per-point reference loops,
greedy nets cut from one permutation against the per-threshold loop, and
collapsed scale-complex homology against full reductions of the scale and
order complexes.

Clouds are small: random points in the plane or on the line, and lattice
points, whose many equal distances force exact nearest-point ties.  Large tie
tolerances widen the tie rows and can break the distance bounds, so the
violation lists are exercised too.  The greedy nets also see duplicate points
and a single point.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from finiteshape.construction import build_adjusted_sequence, build_net, cut_net, gamma, greedy_permutation
from finiteshape.homotopy import check_diagram_commutes, check_identity_convergence
from finiteshape.hyperspace import Tower, bonding_map, build_hyperlevel, verify_adjusted_distance_bounds
from finiteshape.invariants import LevelHomology, betti, order_complex, shape_report
from finiteshape.metric import MetricGround
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



@st.composite
def towers(draw):
    """(tower, tie tolerance) for a drawn cloud, depth 2 to 4."""
    points = draw(st.one_of(random_points, lattice_points, line_points))
    ground = MetricGround.from_coords(np.array(points, dtype=float))
    if ground.diameter() == 0.0:  # distinct floats can still be 0 apart after rounding
        ground = MetricGround.from_coords(np.array([[0.0, 0.0], [1.0, 0.0]]))
    tie_tol = draw(st.sampled_from([0.0, 1e-9, 0.05, 0.5]))
    seq = build_adjusted_sequence(ground, ground.diameter() / 2.0, depth=draw(st.integers(2, 4)))
    return Tower(seq, tie_tol), tie_tol


@st.composite
def ring_grounds(draw, max_n=128):
    """64 to ``max_n`` jittered points on the unit circle; density is their covering radius on the circle."""
    n = draw(st.integers(64, max_n))
    jitter = np.array(draw(st.lists(st.floats(-0.05, 0.05), min_size=n, max_size=n)))
    theta = 2.0 * np.pi * (np.arange(n) + jitter) / n
    gaps = np.diff(theta, append=theta[0] + 2.0 * np.pi)
    coords = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return MetricGround.from_coords(coords, density=2.0 * np.sin(gaps.max() / 4.0))


# Largest ring drawn at maxdim 2 for the order-complex oracle.  From 80 points
# on, a level-1 net of 32 points gives order complexes of 2.4 million
# simplices, whose reduction took 21-29 s; up to 79 points the level-1 net
# has at most 16, and the whole test body took at most 2.1 s per draw.
ORDER_ROUTE_MAX_RING_AT_MAXDIM_2 = 72


@st.composite
def homology_towers(draw, max_ring_at_maxdim_2=128):
    """(tower at the default tie tolerance, maxdim) for a drawn cloud, depth 3 or 4.

    Rings carry a loop over several levels, so degree-1 ranks are exercised
    as well as components.
    """
    maxdim = draw(st.sampled_from([1, 2]))
    points = st.one_of(random_points, lattice_points, line_points)
    rings = ring_grounds(128 if maxdim == 1 else max_ring_at_maxdim_2)
    ground = draw(st.one_of(points.map(lambda p: MetricGround.from_coords(np.array(p, dtype=float))), rings))
    assume(ground.diameter() > 0.0)
    seq = build_adjusted_sequence(ground, ground.diameter() / 2.0, depth=draw(st.integers(3, 4)))
    assume(seq.depth >= 2)  # a shape report needs two levels
    return Tower(seq), maxdim


def full_lattice_tower(tie_tol, depth):
    """The 5 x 4 integer grid: three-way ties at level 1; at tie tolerance 0.5 every clause is violated."""
    points = np.array([(i, j) for i in range(5) for j in range(4)], dtype=float)
    ground = MetricGround.from_coords(points)
    return Tower(build_adjusted_sequence(ground, ground.diameter() / 2.0, depth), tie_tol), tie_tol


def with_lattice_examples(test):
    return example(full_lattice_tower(1e-9, 3))(example(full_lattice_tower(0.5, 4))(test))


@PROPERTY_SETTINGS
@given(towers())
@with_lattice_examples
def test_padded_tables_match_reference(drawn):
    tower, tie_tol = drawn
    seq = tower.seq
    q = ref.nearest_tables(seq, tie_tol)
    for lv in seq.levels:
        np.testing.assert_array_equal(tower.q[lv.index], ref.padded(q[lv.index]))
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
    perm = greedy_permutation(ground).extend(0.0)
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
        assert net == ref.reference_build_net(ground.dist, t) == build_net(ground, t)
        assert covered == gamma(ground, net)
        assert covered < t


@PROPERTY_SETTINGS
@given(towers())
@with_lattice_examples
def test_hyperlevels_list_singletons_first_in_net_order(drawn):
    # element id i < |net| is the singleton of net point i: the scale vertex
    # map is a prefix of the selection map over all elements
    tower, _ = drawn
    for lv in tower.seq.levels:
        hl = build_hyperlevel(tower.ground, lv)
        m = len(lv.net)
        assert hl.elements[:m] == tuple((a,) for a in lv.net)
        assert all(len(el) > 1 for el in hl.elements[m:])


@PROPERTY_SETTINGS
@given(homology_towers(max_ring_at_maxdim_2=ORDER_ROUTE_MAX_RING_AT_MAXDIM_2))
@example((full_lattice_tower(1e-9, 3)[0], 1))
@example((full_lattice_tower(1e-9, 4)[0], 2))
def test_scale_route_homology_matches_order_route(drawn):
    tower, maxdim = drawn
    rep = shape_report(tower, maxdim=maxdim)
    hls = [build_hyperlevel(tower.ground, lv, cap=maxdim + 2) for lv in tower.seq.levels]
    for row, hl in zip(rep.levels, hls):
        assert row.betti == betti(order_complex(hl, maxdim), maxdim)
    for pr, fine, coarse in zip(rep.pairs, hls[1:], hls):
        assert pr.ranks == ref.order_route_ranks(bonding_map(tower, fine), fine, coarse)


def level_complex(hl):
    """Vertices (net positions) and the set of every simplex of a level's scale complex."""
    position = {a: i for i, a in enumerate(hl.level.net)}
    return len(position), {tuple(position[a] for a in el) for el in hl.elements}


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
@example((full_lattice_tower(1e-9, 3)[0], 1))
@example((full_lattice_tower(1e-9, 4)[0], 2))
def test_collapsed_homology_matches_full_reduction(drawn):
    tower, maxdim = drawn
    rep = shape_report(tower, maxdim=maxdim)
    hls = [build_hyperlevel(tower.ground, lv, cap=maxdim + 2) for lv in tower.seq.levels]
    for row, hl in zip(rep.levels, hls):
        assert row.betti == ref.full_scale_homology(hl, maxdim).betti(maxdim)
    for pr, fine, coarse in zip(rep.pairs, hls[1:], hls):
        assert pr.ranks == ref.full_scale_ranks(bonding_map(tower, fine), fine, coarse, maxdim)

    for row, hl in zip(rep.levels, hls):
        n, simplices = level_complex(hl)
        data = LevelHomology(hl, maxdim)
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
