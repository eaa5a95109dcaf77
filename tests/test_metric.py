import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finiteshape import metric
from finiteshape.metric import (
    BLOCK_ELEMENTS,
    GroundValidationError,
    MetricGround,
    SpaceSpec,
    generate,
    load_ground,
    row_blocks,
    write_coords_csv,
)
from reference_loops import dense, reference_row_extremes, reference_warsaw_graph_table, write_distmatrix_csv


class UnionFind:
    """Independent connectivity oracle."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def components(self):
        return len({self.find(i) for i in range(len(self.parent))})


def components_at_scale(dist, scale):
    n = dist.shape[0]
    uf = UnionFind(n)
    ii, jj = np.nonzero(dist <= scale)
    for a, b in zip(ii, jj):
        uf.union(int(a), int(b))
    return uf.components()


def test_two_points_forced_by_definition():
    g = generate(SpaceSpec("two_points", separation=1.0))
    assert g.n == 2
    assert dense(g)[0, 1] == 1.0
    assert g.density == 0.0


def test_circle_four_points_chord_lengths():
    # brute-force chord oracle: d(i,j) = 2 r sin(pi |i-j| / n)
    g = generate(SpaceSpec("circle", n=4, radius=1.0))
    for i in range(4):
        for j in range(4):
            k = min(abs(i - j), 4 - abs(i - j))
            expected = 2.0 * math.sin(math.pi * k / 4)
            assert dense(g)[i, j] == pytest.approx(expected, abs=1e-12)
    assert dense(g)[0, 1] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert dense(g)[0, 2] == pytest.approx(2.0, abs=1e-12)


def test_warsaw_count_and_connectivity():
    g = generate(SpaceSpec("warsaw_circle", n=2000))
    assert g.n == 2000
    assert g.density > 0
    # union-find oracle: connected at scale 2 * density
    assert components_at_scale(dense(g), 2.0 * g.density) == 1


def test_warsaw_generates_every_small_sample_count():
    # at n = 9 the segment and the arc rounded up to all eight spacings, and the graph had none
    for n in range(8, 200):
        g = generate(SpaceSpec("warsaw_circle", n=n))
        assert g.n == len(np.unique(g.coords, axis=0)) == n
        assert components_at_scale(dense(g), 2.0 * g.density) == 1


def test_warsaw_covers_expected_extent():
    g = generate(SpaceSpec("warsaw_circle", n=2000))
    xs, ys = g.coords[:, 0], g.coords[:, 1]
    assert xs.min() == 0.0
    assert xs.max() == pytest.approx(2.0 / math.pi, abs=1e-9)
    assert ys.min() == pytest.approx(-1.5, abs=1e-9)
    assert ys.max() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "spec",
    [
        SpaceSpec("circle", n=64),
        SpaceSpec("interval", n=101),
        SpaceSpec("cantor", cantor_depth=4),
        SpaceSpec("warsaw_circle", n=500),
    ],
)
def test_density_claim_is_honest(spec):
    # every sample point is within 2*density of the rest of the sample
    g = generate(spec)
    assert g.max_nearest_neighbor() <= 2.0 * g.density + 1e-12


def _dense_extremes(table):
    """(diameter, largest nearest-neighbor distance) of a whole table, diagonal masked."""
    n = table.shape[0]
    return float(table.max()), 0.0 if n == 1 else float((table + np.diag(np.full(n, np.inf))).min(axis=1).max())


def _record_extreme_reads(monkeypatch):
    """(rows, cols) of every distance block the extremes read: table blocks, or leaf-pair tiles of squared sums."""
    reads = []
    block, squared_sums = MetricGround.block, metric._squared_sums
    monkeypatch.setattr(MetricGround, "block", lambda self, rows, cols: reads.append((rows, cols)) or block(self, rows, cols))
    monkeypatch.setattr(metric, "_squared_sums", lambda coords, i, j: reads.append((i[0], j[1])) or squared_sums(coords, i, j))
    return reads


def _assert_half_table_pass(reads, n):
    # one pass over the usual row blocks, each reading the columns from its
    # first row on, so every unordered pair lies in exactly one block
    assert reads == [(rows, slice(rows.start, None)) for rows in row_blocks(n, n)]
    blocks_holding = np.zeros((n, n), dtype=int)
    for rows, cols in reads:
        seen = np.zeros((n, n), dtype=bool)
        seen[rows, cols] = True
        blocks_holding += seen | seen.T
    assert (blocks_holding[np.triu_indices(n, 1)] == 1).all()


def _assert_leaf_tile_walk(reads, coords):
    # every read is a tile of two k-d leaves, earlier leaf first; every self
    # tile is read, and no tile twice, so no unordered pair lies in two reads
    perm, leaves = metric._kd_leaves(np.asarray(coords, dtype=float))
    assert sorted(perm.tolist()) == list(range(len(perm)))
    assert [(leaf.start, leaf.stop) for leaf in leaves] == [
        (a, min(a + metric.LEAF_SIZE, len(perm))) for a in range(0, len(perm), metric.LEAF_SIZE)]
    index = {leaf.start: k for k, leaf in enumerate(leaves)}
    tiles = [(index[rows.start], index[cols.start]) for rows, cols in reads]
    assert all(leaves[a] == rows and leaves[b] == cols and a <= b for (a, b), (rows, cols) in zip(tiles, reads))
    assert len(set(tiles)) == len(tiles)
    assert {(a, a) for a in range(len(leaves))} <= set(tiles)
    return tiles, len(leaves)


@pytest.mark.parametrize(
    "coords",
    [
        [[0.0, 0.0]],
        [[0.0, 0.0], [3.0, 4.0]],
        np.random.default_rng(1).random((600, 2)),
        [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.5, 0.0]],
        [[1.0, 1.0]] * 5,
    ],
    ids=["n1", "n2", "n600", "duplicates", "all-equal"],
)
def test_max_nearest_neighbor_matches_dense_formula(coords, monkeypatch):
    g = MetricGround.from_coords(np.array(coords, dtype=float))
    table = dense(g)
    expected = 0.0 if g.n == 1 else float((table + np.diag(np.full(g.n, np.inf))).min(axis=1).max())
    tiles_read = _record_extreme_reads(monkeypatch)
    assert g.diameter() == float(table.max())
    assert g.max_nearest_neighbor() == expected
    n_leaves = _assert_leaf_tile_walk(tiles_read, coords)[1]
    if g.n == 600:  # several leaves, the last one short
        assert n_leaves > 1 and g.n % metric.LEAF_SIZE


@pytest.mark.parametrize("dim", [1, 2, 3, "table"])
def test_row_extremes_read_half_the_pairs_with_the_dense_values(dim, monkeypatch):
    # squared sums compared, roots taken of the two extremes only: the bits
    # of the dense table's max and masked row minima, on every dimension and
    # on a stored table.  A stored table is read in one pass over half its
    # row blocks; coordinates in leaf-pair tiles, no tile twice, so no
    # unordered pair is read twice either
    coords = np.random.default_rng(7).normal(size=(700, 2 if dim == "table" else dim))
    g = MetricGround.from_coords(coords)
    if dim == "table":
        g = MetricGround.from_matrix(dense(g))
    expected = _dense_extremes(dense(g))
    assert expected[1] > 0.0 and len(row_blocks(g.n, g.n)) > 1
    reads = _record_extreme_reads(monkeypatch)
    assert (g.diameter(), g.max_nearest_neighbor()) == expected
    if dim == "table":
        _assert_half_table_pass(reads, g.n)
    else:
        _assert_leaf_tile_walk(reads, coords)


def _extreme_bytes(g):
    return np.array([g.diameter(), g.max_nearest_neighbor()]).tobytes()


@st.composite
def extreme_clouds(draw):
    """Point clouds whose extremes are easy to get wrong: circles, lattices with exact ties,
    duplicated points, collinear points, a single point, and drawn floats, in d = 1, 2, 3 and 8."""
    kind = draw(st.sampled_from(["circle", "lattice", "duplicates", "collinear", "single", "drawn"]))
    d = draw(st.sampled_from([1, 2, 3, 8]))
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "circle":
        theta = 2.0 * np.pi * np.arange(n) / n
        pts = np.zeros((n, d))
        pts[:, 0] = np.cos(theta)
        if d > 1:
            pts[:, 1] = np.sin(theta)
        return pts
    if kind == "lattice":
        return rng.integers(0, draw(st.integers(1, 12)), size=(n, d)).astype(float)
    if kind == "duplicates":
        distinct = draw(st.integers(1, 40))
        return rng.random((distinct, d))[rng.integers(0, distinct, size=n)]
    if kind == "collinear":
        return rng.random(n)[:, None] * rng.normal(size=d) + rng.normal(size=d)
    if kind == "single":
        return rng.normal(size=(1, d))
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    return np.array(draw(st.lists(st.lists(values, min_size=d, max_size=d), min_size=1, max_size=80)))


@settings(max_examples=120, deadline=None)
@given(extreme_clouds())
def test_extremes_are_the_half_table_pass_bits(coords):
    g = MetricGround.from_coords(coords)
    expected = np.array(reference_row_extremes(g)).tobytes()
    with pytest.MonkeyPatch.context() as mp:  # hypothesis reruns the body, so no function-scoped fixture
        reads = _record_extreme_reads(mp)
        got = _extreme_bytes(g)
    assert got == expected
    _assert_leaf_tile_walk(reads, coords)
    if g.n == 1:
        assert (g.diameter(), g.max_nearest_neighbor()) == (0.0, 0.0)


def test_extremes_read_under_a_quarter_of_the_tiles_on_a_circle(monkeypatch):
    g = generate(SpaceSpec("circle", n=4000))
    reads = _record_extreme_reads(monkeypatch)
    assert _extreme_bytes(g) == np.array(reference_row_extremes(g)).tobytes()
    tiles, n_leaves = _assert_leaf_tile_walk(reads, g.coords)
    assert len(tiles) < n_leaves * (n_leaves + 1) / 2 / 4


def test_extremes_of_a_large_warsaw_ground_stay_within_a_tile_and_vectors():
    g = generate(SpaceSpec("warsaw_circle", n=20000))
    tracemalloc.start()
    try:
        g.diameter()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


@pytest.mark.parametrize("grid", [2, 3, metric.WARSAW_CHUNK - 1, metric.WARSAW_CHUNK, metric.WARSAW_CHUNK + 1, 100_000])
def test_warsaw_table_in_chunks_is_the_one_shot_table(grid):
    for x_min in (0.01, 0.0134467):
        expected = reference_warsaw_graph_table(x_min, grid)
        got = metric._warsaw_graph_table(x_min, grid)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]


@pytest.mark.parametrize("n", [8, 64, 2000])
def test_warsaw_coordinates_are_those_of_the_one_shot_table(n, monkeypatch):
    chunked = generate(SpaceSpec("warsaw_circle", n=n))
    monkeypatch.setattr(metric, "_warsaw_graph_table", reference_warsaw_graph_table)
    one_shot = generate(SpaceSpec("warsaw_circle", n=n))
    assert chunked.coords.tobytes() == one_shot.coords.tobytes()
    assert chunked.density == one_shot.density


@pytest.mark.parametrize("n", [8, 9, 64, 300, 2000, 20000, 50000])
def test_warsaw_cutoff_solves_its_equation_in_a_few_tables(n, monkeypatch):
    cutoffs, table = [], metric._warsaw_graph_table
    monkeypatch.setattr(metric, "_warsaw_graph_table", lambda x_min, grid: cutoffs.append(x_min) or table(x_min, grid))
    generate(SpaceSpec("warsaw_circle", n=n))
    assert len(cutoffs) <= 16
    x_min = cutoffs[-1]
    _, s = reference_warsaw_graph_table(x_min, 20000)
    total = 2.0 + (0.5 + 2.0 / math.pi + 2.5) + float(s[-1])
    assert abs(total / (2 * (n - 1)) - x_min) <= 1e-14


def test_warsaw_cutoff_solve_stops_at_its_cap(monkeypatch):
    monkeypatch.setattr(metric, "WARSAW_STEPS", 2)
    with pytest.raises(ValueError, match=r"warsaw_circle n=2000: cutoff not found in 2 steps \(last step [-0-9.e]+\)"):
        generate(SpaceSpec("warsaw_circle", n=2000))


def _hausdorff_to(sample, points):
    """Largest distance from a row of ``points`` to its nearest row of ``sample``, in row blocks."""
    far = 0.0
    for rows in row_blocks(len(points), len(sample) * sample.shape[1]):
        diff = points[rows, None, :] - sample[None, :, :]
        far = max(far, float(np.sqrt((diff * diff).sum(axis=2)).min(axis=1).max()))
    return far


@pytest.mark.parametrize(
    "spec, denser",
    [
        (SpaceSpec("two_points"), SpaceSpec("two_points")),
        (SpaceSpec("circle", n=64), SpaceSpec("circle", n=1024)),
        (SpaceSpec("interval", n=101), SpaceSpec("interval", n=1601)),
        (SpaceSpec("cantor", cantor_depth=4), SpaceSpec("cantor", cantor_depth=8)),
        (SpaceSpec("warsaw_circle", n=300), SpaceSpec("warsaw_circle", n=4800)),
        (SpaceSpec("warsaw_circle", n=2000), SpaceSpec("warsaw_circle", n=32000)),
    ],
    ids=["two_points", "circle64", "interval101", "cantor4", "warsaw300", "warsaw2000"],
)
def test_a_sixteen_times_denser_sample_lies_within_the_stated_density(spec, denser):
    # the denser sample stands in for the space: every one of its points is
    # within the sample's stated covering radius, up to a few ulps of the
    # coordinates, which their rounded differences carry
    g = generate(spec)
    slack = 4 * math.ulp(float(np.abs(g.coords).max()))
    assert _hausdorff_to(g.coords, generate(denser).coords) <= g.density + slack


def test_warsaw_generation_holds_no_more_than_its_table():
    tracemalloc.start()
    try:
        generate(SpaceSpec("warsaw_circle", n=50000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


def test_generate_deterministic():
    a = generate(SpaceSpec("warsaw_circle", n=300))
    b = generate(SpaceSpec("warsaw_circle", n=300))
    assert np.array_equal(dense(a), dense(b))
    assert np.array_equal(a.coords, b.coords)


def test_generate_errors():
    with pytest.raises(ValueError):
        generate(SpaceSpec("pretzel"))
    with pytest.raises(ValueError):
        generate(SpaceSpec("circle", n=0))
    with pytest.raises(ValueError):
        generate(SpaceSpec("custom"))


def test_cantor_points():
    g = generate(SpaceSpec("cantor", cantor_depth=2))
    xs = sorted(g.coords[:, 0])
    assert xs == pytest.approx([0, 1 / 9, 2 / 9, 1 / 3, 2 / 3, 7 / 9, 8 / 9, 1.0])
    assert g.density == pytest.approx(1 / 18)


def test_load_coords_single_point(tmp_path):
    p = tmp_path / "one.csv"
    p.write_text("id,x,y\n0,0.5,0.25\n")
    g = load_ground(str(p), "coords_csv")
    assert g.n == 1
    assert dense(g).shape == (1, 1)
    assert dense(g)[0, 0] == 0.0


def test_load_coords_pythagoras(tmp_path):
    p = tmp_path / "tri.csv"
    p.write_text("id,x,y\n0,0,0\n1,1,0\n2,0,1\n")
    g = load_ground(str(p), "coords_csv")
    assert dense(g)[0, 1] == pytest.approx(1.0)
    assert dense(g)[0, 2] == pytest.approx(1.0)
    assert dense(g)[1, 2] == pytest.approx(math.sqrt(2.0))


def test_load_distmatrix_triangle_violation(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0,1,5\n1,0,1\n5,1,0\n")
    with pytest.raises(GroundValidationError) as err:
        load_ground(str(p), "distmatrix_csv")
    assert "(0,1,2)" in str(err.value)


def test_load_distmatrix_asymmetric(tmp_path):
    p = tmp_path / "asym.csv"
    p.write_text("0,1\n2,0\n")
    with pytest.raises(GroundValidationError) as err:
        load_ground(str(p), "distmatrix_csv")
    assert "asymmetric" in str(err.value)


def test_load_distmatrix_negative(tmp_path):
    p = tmp_path / "neg.csv"
    p.write_text("0,-1\n-1,0\n")
    with pytest.raises(GroundValidationError):
        load_ground(str(p), "distmatrix_csv")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_coords_rejects_non_finite(tmp_path, value):
    p = tmp_path / "nan.csv"
    p.write_text(f"id,x,y\n0,0,0\n1,1,0\n2,{value},1\n")
    with pytest.raises(GroundValidationError) as err:
        load_ground(str(p), "coords_csv")
    assert "non-finite coordinate in row 2" in str(err.value)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_load_distmatrix_rejects_non_finite(tmp_path, value):
    p = tmp_path / "nan.csv"
    p.write_text(f"0,1,2\n1,0,{value}\n2,{value},0\n")
    with pytest.raises(GroundValidationError) as err:
        load_ground(str(p), "distmatrix_csv")
    assert f"non-finite distance in row 1: d(1,2)={value}" in str(err.value)


def test_coords_roundtrip(tmp_path):
    g = generate(SpaceSpec("circle", n=16))
    p = tmp_path / "c.csv"
    write_coords_csv(g, str(p))
    back = load_ground(str(p), "coords_csv")
    assert np.array_equal(back.coords, g.coords)
    assert np.array_equal(dense(back), dense(g))


def test_distmatrix_roundtrip(tmp_path):
    g = generate(SpaceSpec("interval", n=10))
    p = tmp_path / "d.csv"
    write_distmatrix_csv(g, str(p))
    back = load_ground(str(p), "distmatrix_csv")
    assert np.array_equal(dense(back), dense(g))


def test_metric_axioms_on_random_point_clouds():
    rng = np.random.default_rng(42)
    for _ in range(5):
        pts = rng.normal(size=(20, 3))
        g = MetricGround.from_coords(pts)
        assert np.array_equal(dense(g), dense(g).T)
        assert (np.diag(dense(g)) == 0).all()
        # exhaustive triangle check via the loader path
        MetricGround.from_matrix(dense(g))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_from_coords_row_blocks_match_broadcast_formula(dim):
    n = 1000
    assert n % (BLOCK_ELEMENTS // (n * dim)) and n % (BLOCK_ELEMENTS // n)  # the last blocks are partial
    coords = np.random.default_rng(dim).normal(size=(n, dim)) * 10.0 ** np.arange(dim)
    diff = coords[:, None, :] - coords[None, :, :]
    broadcast = np.sqrt((diff * diff).sum(axis=2))
    broadcast = 0.5 * (broadcast + broadcast.T)
    np.fill_diagonal(broadcast, 0.0)
    assert dense(MetricGround.from_coords(coords)).tobytes() == broadcast.tobytes()


def _broadcast_table(coords):
    """The dense (n, n, d) formula, symmetrized, that coordinate grounds once stored."""
    diff = coords[:, None, :] - coords[None, :, :]
    table = np.sqrt((diff * diff).sum(axis=2))
    table = 0.5 * (table + table.T)
    np.fill_diagonal(table, 0.0)
    return table


def _coordinate_order_table(coords):
    """Squares of the coordinate differences added one coordinate at a time, then the root."""
    table = np.zeros((len(coords), len(coords)))
    for k in range(coords.shape[1]):
        t = coords[:, None, k] - coords[None, :, k]
        table += t * t
    return np.sqrt(table)


def _oracle_reads(g, rng):
    """Every row block of the whole table, a gathered block, and broadcast pairs, with their index arrays."""
    whole = np.concatenate([g.block(rows, slice(None)) for rows in row_blocks(g.n, g.n)])
    rows, cols = rng.choice(g.n, size=37), rng.permutation(g.n)[:53]
    i, j = rng.integers(0, g.n, size=(11, 3, 1)), rng.integers(0, g.n, size=(11, 1, 4))
    return whole, (rows, cols, g.block(rows, cols)), (i, j, g.pairs(i, j))


@pytest.mark.parametrize("dim", range(1, 10))
def test_coordinate_oracle_matches_stored_table_formula(dim):
    # up to d = 7 the oracle's bits are the old broadcast table's; from d = 8
    # numpy's reduction switches to eight accumulators, and the oracle keeps
    # coordinate order
    n = 700
    assert n % (BLOCK_ELEMENTS // n)  # the last row block is partial
    rng = np.random.default_rng(dim)
    coords = rng.normal(size=(n, dim)) * 10.0 ** np.arange(dim)
    g = MetricGround.from_coords(coords)
    reference = _broadcast_table(coords) if dim <= 7 else _coordinate_order_table(coords)
    whole, (rows, cols, block), (i, j, pairs) = _oracle_reads(g, rng)
    assert whole.tobytes() == reference.tobytes()
    assert block.tobytes() == reference[np.ix_(rows, cols)].tobytes()
    assert pairs.shape == (11, 3, 4) and pairs.tobytes() == reference[i, j].tobytes()
    assert dense(g).tobytes() == reference.tobytes()


def test_distance_matrix_oracle_slices_its_table():
    table = _broadcast_table(np.random.default_rng(3).normal(size=(60, 2)))
    g = MetricGround.from_matrix(table)
    whole, (rows, cols, block), (i, j, pairs) = _oracle_reads(g, np.random.default_rng(4))
    assert np.array_equal(whole, table) and np.shares_memory(dense(g), g.table)
    assert np.array_equal(block, table[np.ix_(rows, cols)])
    assert np.array_equal(pairs, table[i, j])


def test_from_coords_rejects_zero_dimensional_points():
    with pytest.raises(GroundValidationError):
        MetricGround.from_coords(np.empty((3, 0)))


def _reference_check_triangle(dist, exhaustive_limit=512, samples=256):
    """The check with fresh temporaries per midpoint, as the validator first did it."""
    n = dist.shape[0]
    tol = 1e-12 * max(1.0, float(dist.max()))
    ks = range(n) if n <= exhaustive_limit else np.unique(np.linspace(0, n - 1, samples).astype(int))
    for k in ks:
        via = dist[:, int(k)][:, None] + dist[int(k), :][None, :]
        viol = dist > via + tol
        if viol.any():
            i, j = map(int, np.argwhere(viol)[0])
            raise GroundValidationError(
                f"triangle inequality violated for ({i},{int(k)},{j}): "
                f"d({i},{j})={dist[i, j]!r} > d({i},{int(k)})+d({int(k)},{j})={via[i, j]!r}"
            )


@pytest.mark.parametrize("n", [40, 600], ids=["exhaustive", "sampled"])
def test_triangle_check_reports_the_reference_witness(n):
    table = _broadcast_table(generate(SpaceSpec("circle", n=n)).coords)
    metric._check_triangle(table)
    _reference_check_triangle(table)
    bad = table.copy()
    for i, j in ((n - 3, 5), (7, n // 2)):
        bad[i, j] = bad[j, i] = bad[i, j] + 0.5
    with pytest.raises(GroundValidationError) as want:
        _reference_check_triangle(bad)
    with pytest.raises(GroundValidationError) as got:
        metric._check_triangle(bad)
    assert str(got.value) == str(want.value)


def _same_verdict(table):
    """The message both the tiled check and the reference raise on ``table``, or None when both pass."""
    try:
        _reference_check_triangle(table)
    except GroundValidationError as want:
        with pytest.raises(GroundValidationError) as got:
            metric._check_triangle(table)
        assert str(got.value) == str(want)
        return str(want)
    metric._check_triangle(table)
    return None


def _scrambled_circle_table(n, seed=0):
    """Chords of n jittered, evenly spaced points on the unit circle, in a seeded random order."""
    rng = np.random.default_rng(seed)
    theta = 2.0 * np.pi * (np.arange(n) + rng.uniform(-0.1, 0.1, n)) / n
    return _broadcast_table(np.stack([np.cos(theta), np.sin(theta)], axis=1)[rng.permutation(n)])


def _with(table, i, j, value):
    out = table.copy()
    out[i, j] = out[j, i] = value
    return out


@pytest.mark.parametrize("n", [1, 2, 40, 600, 1000])
def test_tiled_triangle_check_passes_and_fails_as_the_reference(n):
    table = _scrambled_circle_table(n)
    assert _same_verdict(table) is None
    if n < 40:
        return
    cells = metric._triangle_cells(table)
    assert len(cells) == -(-n // metric.TRIANGLE_CELL_SIZE)
    assert np.array_equal(np.sort(np.concatenate(cells)), np.arange(n))
    big = max(cells, key=len)
    for i, j in ((big[0], big[1]), (cells[0][0], cells[-1][0])):  # inside one cell, across two
        assert _same_verdict(_with(table, i, j, table[i, j] + 0.5)) is not None


def test_a_violation_seen_at_one_sampled_midpoint_fails_as_the_reference():
    # points at the integers 0..n-1 of a line, in a seeded order: d(i, j) = 2.5
    # for the two neighbors of a sampled midpoint k breaks the triangle at k only
    n = 600
    ks = metric.triangle_midpoints(n)
    x = np.random.default_rng(1).permutation(n).astype(float)
    table = np.abs(x[:, None] - x[None, :])
    k = int(ks[len(ks) // 2])
    i, j = (int(np.flatnonzero(x == x[k] + step)[0]) for step in (-1, 1))
    bad = _with(table, i, j, 2.5)
    assert [int(m) for m in ks if bad[i, j] > bad[i, m] + bad[m, j] + 1e-12 * table.max()] == [k]
    metric._check_triangle(table)
    assert f",{k}," in _same_verdict(bad)


@pytest.mark.parametrize("n", [40, 600], ids=["exhaustive", "sampled"])
def test_a_violation_one_ulp_above_the_rounded_bound_fails_as_the_reference(n):
    table = _scrambled_circle_table(n, seed=3)
    tol = 1e-12 * max(1.0, float(table.max()))
    ks = metric.triangle_midpoints(n)
    cells = metric._triangle_cells(table)
    i = int(cells[0][0])
    other = np.concatenate(cells[1:])
    for j in (int(cells[0][1]), int(other[np.argmin(table[i, other])])):  # inside one cell, across two
        mids = ks[(ks != i) & (ks != j)]
        at = np.min(table[i, mids] + table[mids, j]) + tol  # fl(fl(d(i,k) + d(k,j)) + tol) at the tightest k
        assert at < table.max()  # tol stays that of the table
        assert _same_verdict(_with(table, i, j, at)) is None
        assert _same_verdict(_with(table, i, j, np.nextafter(at, np.inf))) is not None


@pytest.mark.parametrize("n", [40, 600], ids=["exhaustive", "sampled"])
def test_tables_with_repeated_points_pass_and_fail_as_the_reference(n):
    rng = np.random.default_rng(n)
    at = rng.integers(0, n // 8, n)  # about eight copies of each of n // 8 points
    table = _broadcast_table(rng.random((n // 8, 2))[at])
    ks = metric.triangle_midpoints(n)
    k = next(int(k) for k in ks if np.count_nonzero(at == at[k]) >= 3)
    copies = np.flatnonzero(at == at[k])
    i, j = (int(c) for c in copies[copies != k][:2])  # two more copies of the point at midpoint k
    assert table[i, j] == 0.0
    cells = metric._triangle_cells(table)
    assert all(len(cell) for cell in cells) and sum(map(len, cells)) == n
    assert _same_verdict(table) is None
    assert _same_verdict(_with(table, i, j, 0.1)) is not None


def test_a_table_of_one_repeated_point_is_one_cell_and_checks_as_the_reference():
    table = np.zeros((40, 40))
    assert len(metric._triangle_cells(table)) == 1
    assert _same_verdict(table) is None
    assert _same_verdict(_with(table, 0, 39, 1.0)) is not None


@pytest.mark.parametrize("n, untiled_peak", [(1000, 4.1e6), (2000, 8.2e6)])
def test_tiled_triangle_check_holds_no_more_than_the_untiled_check(n, untiled_peak):
    # the untiled check peaked at two copies of the n x 256 midpoint columns
    table = dense(generate(SpaceSpec("circle", n=n)))
    tracemalloc.start()
    try:
        metric._check_triangle(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= untiled_peak


@pytest.mark.parametrize("exhaustive_limit", [metric.TRIANGLE_EXHAUSTIVE_LIMIT, 0])
def test_triangle_midpoints_match_the_unique_form(exhaustive_limit, monkeypatch):
    # with no exhaustive range, small tables sample fewer distinct midpoints
    # than TRIANGLE_SAMPLES, so the repeats to drop are exercised too
    monkeypatch.setattr(metric, "TRIANGLE_EXHAUSTIVE_LIMIT", exhaustive_limit)
    for n in [*range(1, 601), 1000, 4097, 123_457]:
        if n <= exhaustive_limit:
            want = np.arange(n)
        else:
            want = np.unique(np.linspace(0, n - 1, metric.TRIANGLE_SAMPLES).astype(int))
        got = metric.triangle_midpoints(n)
        assert got.dtype == want.dtype and np.array_equal(got, want), n


def test_sampled_triangle_check_imports_no_masked_arrays():
    # np.unique imports numpy.ma on first use; the validator must not pay that import
    src = str(Path(metric.__file__).resolve().parents[1])
    code = (
        "import sys; import numpy as np; from finiteshape.metric import MetricGround\n"
        "g = MetricGround.from_coords(np.random.default_rng(0).random((600, 2)))\n"
        "MetricGround.from_matrix(g.block(slice(None), slice(None)))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"
