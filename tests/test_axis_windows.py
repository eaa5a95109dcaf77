"""Windowed reads along the sort axis give the bits of the full reads.

``MetricGround.within``, ``MetricGround.net_pairs`` and
``MetricGround.close_pairs`` read only the points whose sort keys lie within
reach of a distance bound.  The farthest-point pass, the nearest-set tables
and the hyperlevel enumeration built on them must give exactly what full
distance rows and full net blocks give: the same order, radii, coverage,
nearest-set tables and elements, on grounds chosen to strain the rounding
argument of ``metric.axis_reach`` (duplicates, shared sort keys, large
offsets, tiny and huge scales, 1-D and 3-D clouds) and on every generated
kind.
"""

import numpy as np
import pytest

from finiteshape import hyperspace, metric
from finiteshape.construction import GreedyPermutation, build_adjusted_sequence, cut_net
from finiteshape.hyperspace import TIE_TOL, ElementCapError, Tower, enumerate_small_subsets, nearest_sets
from finiteshape.metric import VALID_KINDS, MetricGround, SpaceSpec, generate
from reference_loops import dense, padded, reference_build_net, reference_enumerate_small_subsets, reference_nearest_sets


def _grounds():
    rng = np.random.default_rng(5)
    circle = generate(SpaceSpec("circle", n=300)).coords
    warsaw = generate(SpaceSpec("warsaw_circle", n=400)).coords
    grounds = {kind: generate(SpaceSpec(kind, n=200)) for kind in VALID_KINDS}
    grounds.update({
        "duplicates": MetricGround.from_coords(rng.integers(0, 4, size=(80, 2)).astype(float)),
        "one-point-repeated": MetricGround.from_coords(np.full((20, 2), 0.3)),
        "two-sort-keys": MetricGround.from_coords(np.column_stack([np.repeat([0.0, 5.0], 60), rng.random(120)])),
        "shifted-1e12": MetricGround.from_coords(circle + 1e12),
        "scaled-1e-150": MetricGround.from_coords(circle * 1e-150),
        "scaled-1e-158": MetricGround.from_coords(circle * 1e-158),  # squared differences below the normal range
        "scaled-1e150": MetricGround.from_coords(warsaw * 1e150),
        "1-d": MetricGround.from_coords(rng.random(150)),
        "3-d": MetricGround.from_coords(rng.normal(size=(250, 3))),
        "distmatrix": MetricGround.from_matrix(dense(MetricGround.from_coords(rng.random((120, 3))))),
    })
    return grounds


GROUNDS = _grounds()


@pytest.mark.parametrize("name", list(GROUNDS))
def test_window_holds_every_point_within_reach_with_block_bits(name):
    g = GROUNDS[name]
    dist = dense(g)
    rng = np.random.default_rng(1)
    for i in rng.choice(g.n, 8).tolist():
        row = dist[i]
        bounds = [0.0, float(row.max()), np.inf, *rng.choice(row, 6).tolist()]
        bounds += [float(np.nextafter(r, -np.inf)) for r in bounds[3:] if r > 0]
        for r in bounds:
            selection, d = g.within(i, r)
            points = np.arange(g.n)[selection]
            assert len(np.unique(points)) == len(points)
            assert d.tobytes() == row[points].tobytes()
            assert np.isin(np.flatnonzero(row <= r), points).all()


@pytest.mark.parametrize("name", list(GROUNDS))
def test_net_pairs_are_the_pairs_within_reach_with_block_bits(name):
    g = GROUNDS[name]
    dist = dense(g)
    rng = np.random.default_rng(2)
    for size in sorted({1, min(7, g.n), max(1, g.n // 3)}):
        net = rng.choice(g.n, size, replace=False)  # unsorted, so positions differ from sort order
        block = dist[:, net]
        bounds = [0.0, np.inf, *rng.choice(block.ravel(), 4).tolist()]
        bounds += [float(np.nextafter(r, -np.inf)) for r in bounds[2:] if r > 0]
        for r in bounds:
            chunks = list(g.net_pairs(net, r))
            x, j, d = (np.concatenate(parts) for parts in zip(*chunks))
            assert sorted(zip(x.tolist(), j.tolist())) == sorted(zip(*(k.tolist() for k in np.nonzero(block <= r))))
            assert d.tobytes() == block[x, j].tobytes()
            # each point's pairs are consecutive, in one chunk
            firsts = np.concatenate([c[0][np.flatnonzero(np.diff(c[0], prepend=-1))] for c in chunks])
            assert len(np.unique(firsts)) == len(firsts)


def _dense_pass_agrees(perm, dist):
    """The pass's order, radii and coverage are those of full rows of ``dist``, with lowest-index argmax."""
    order, radii = perm.order, perm.radii
    cover = dist[0].copy()
    for k in range(len(order)):
        if k:
            np.minimum(cover, dist[order[k]], out=cover)
        far = int(np.argmax(cover))
        assert radii[k] == cover[far]
        if k + 1 < len(order):
            assert order[k + 1] == far
    assert perm._cover.tobytes() == cover.tobytes()


@pytest.mark.parametrize("name", list(GROUNDS))
def test_windowed_pass_matches_the_dense_pass(name):
    g = GROUNDS[name]
    dist = dense(g)
    radii = GreedyPermutation(g).extend(0.0).radii
    positive = np.unique(radii[radii > 0])[::-1]
    thresholds = [*positive[::max(1, len(positive) // 6)], *(positive[:-1] + positive[1:])[::7] / 2]
    perm = GreedyPermutation(g)
    for t in sorted(thresholds, reverse=True):
        net, covered = cut_net(perm, float(t))
        assert net == reference_build_net(dist, t)
        _dense_pass_agrees(perm, dist)
        table = nearest_sets(g, net, covered)
        loops = padded(reference_nearest_sets(dist[:, list(net)], net, TIE_TOL))
        assert table.tobytes() == loops.tobytes()
    perm.extend(0.0)
    _dense_pass_agrees(perm, dist)


@pytest.mark.parametrize("name", list(GROUNDS))
def test_banded_enumeration_matches_the_full_block(name):
    g = GROUNDS[name]
    dist = dense(g)
    order = GreedyPermutation(g).extend(0.0).order
    for size in sorted({min(k, len(order)) for k in (1, 2, 10, max(1, len(order) // 3), len(order))}):
        net = sorted(order[:size].tolist())
        gaps = np.unique(dist[np.ix_(net, net)])
        for two_eps in {0.0, *gaps[:4].tolist(), *np.quantile(gaps, [0.02, 0.1]).tolist()}:
            cap = 3 if two_eps <= np.quantile(gaps, 0.02) else 2
            got = enumerate_small_subsets(g, net, two_eps, cap)
            assert got == reference_enumerate_small_subsets(g, net, two_eps, cap)


def test_banded_enumeration_raises_the_same_element_cap_error(monkeypatch):
    monkeypatch.setattr(hyperspace, "MAX_ELEMENTS", 40)
    g = generate(SpaceSpec("circle", n=32))
    messages = []
    for enumerate_ in (enumerate_small_subsets, reference_enumerate_small_subsets):
        with pytest.raises(ElementCapError) as err:
            enumerate_(g, range(32), 2.0, 3)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == "element budget 40 exceeded at cardinality 3"


def test_pass_reads_few_distances_on_the_4000_point_circle(monkeypatch):
    # a pass that fell back to whole rows would read n distances per insertion
    reads = []
    within = MetricGround.within

    def counting(self, i, r):
        points, d = within(self, i, r)
        reads.append(len(points))
        return points, d

    monkeypatch.setattr(MetricGround, "within", counting)
    g = generate(SpaceSpec("circle", n=4000))
    seq = build_adjusted_sequence(g, g.diameter() / 2.0, 6)
    assert seq.depth == 6
    assert len(reads) == len(seq.levels[-1].net)  # the pass stops at the first point it leaves out
    assert sum(reads) < 0.05 * g.n * len(reads)


def test_enumeration_reads_few_net_pairs_on_the_4000_point_circle(monkeypatch):
    # an enumeration that fell back to every net pair would read m (m - 1) / 2 of them
    reads = []
    for name in ("block", "pairs"):
        def counting(self, i, j, read=getattr(MetricGround, name)):
            out = read(self, i, j)
            reads.append(out.size)
            return out
        monkeypatch.setattr(MetricGround, name, counting)
    g = generate(SpaceSpec("circle", n=4000))
    level = build_adjusted_sequence(g, g.diameter() / 2.0, 6).levels[-1]
    m = len(level.net)
    reads.clear()
    assert len(enumerate_small_subsets(g, level.net, 2.0 * level.epsilon, 2)) == 2 * m
    assert sum(reads) < 0.05 * m * (m - 1) / 2


def test_tables_read_few_ground_net_pairs_on_the_4000_point_circle(monkeypatch):
    # tables that fell back to whole blocks would read n x |net| distances a level
    reads = []
    squared_sums = metric._squared_sums

    def counting(coords, i, j):
        out = squared_sums(coords, i, j)
        reads.append(out.size)
        return out

    g = generate(SpaceSpec("circle", n=4000))
    seq = build_adjusted_sequence(g, g.diameter() / 2.0, 6)
    monkeypatch.setattr(metric, "_squared_sums", counting)
    Tower(seq)
    assert sum(reads) < 0.05 * g.n * sum(len(lv.net) for lv in seq.levels)


@pytest.mark.parametrize("tie_tol", [0.05, 0.5])
@pytest.mark.parametrize("name", ["warsaw_circle", "3-d", "duplicates"])
def test_window_tie_bound_is_the_tie_rule(monkeypatch, name, tie_tol):
    # the tables read within coverage * (1 + TIE_TOL): a patched tolerance widens the band with the rule
    monkeypatch.setattr(hyperspace, "TIE_TOL", tie_tol)
    g = GROUNDS[name]
    dist = dense(g)
    perm = GreedyPermutation(g).extend(0.0)
    _dense_pass_agrees(perm, dist)
    for t in np.unique(perm.radii[perm.radii > 0]):
        net, covered = cut_net(perm, float(t))
        loops = padded(reference_nearest_sets(dist[:, list(net)], net, tie_tol))
        assert nearest_sets(g, net, covered).tobytes() == loops.tobytes()
