"""Finite ground samples of compact metric spaces.

A :class:`MetricGround` is a finite point set read through a distance oracle:
``block(rows, cols)`` for dense sub-blocks and ``pairs(i, j)`` for
elementwise distances, and three reads of nearby distances only:
``within(i, r)``, the distances from one point to a set holding every point
within ``r`` of it, ``net_pairs(net, r)``, the pairs of a ground point and
a net point within ``r`` of each other, and ``close_pairs(points, r)``, the
pairs of a subset closer than ``r``.  On coordinates they read only the
points whose coordinates along the axis of widest spread lie within ``r``,
widened by a rounding slack (``axis_reach``).  A ground is either
coordinates or a table: a distance-matrix ground keeps its validated table
and slices it; a coordinate ground keeps no table and computes each distance
from its coordinates when it is read.  A ground stands in for a compact metric space: ``density`` is the
claimed covering radius, i.e. every point of the idealized space lies within
``density`` of some ground point.  Exactly represented finite spaces carry
``density = 0``.

The ground statistics, the diameter and the largest nearest-neighbor
distance, are exact.  A coordinate ground reads them off tiles of k-d leaf
pairs, skipping every tile whose box bounds show it cannot change either
value; a distance-matrix ground reads half its table once.

Generators are provided for the standard test spaces (two points, circle,
interval, Cantor dust, and the sin(1/x) "Warsaw" curve closed by a
rectangular arc).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

VALID_KINDS = ("two_points", "circle", "interval", "cantor", "warsaw_circle")


BLOCK_ELEMENTS = 1 << 18  # entries in one row block's temporaries (2 MB of float64)


def row_blocks(n_rows: int, row_elements: int) -> list[slice]:
    """Consecutive row slices holding about ``BLOCK_ELEMENTS`` entries each.

    ``row_elements`` is the number of entries one row contributes to the
    block's largest temporary; a row wider than the budget gets a block of
    its own.  Working in such blocks keeps every temporary small and its size
    independent of the input.
    """
    step = max(1, BLOCK_ELEMENTS // max(1, row_elements))
    return [slice(r0, min(r0 + step, n_rows)) for r0 in range(0, n_rows, step)]


class GroundValidationError(ValueError):
    """Raised when input coordinates or a distance table are unusable as a metric sample."""


@dataclass(frozen=True)
class MetricGround:
    """Finite metric sample: a distance oracle over coordinates or a table, and a covering claim.

    Distances are read through ``block(rows, cols)``, a dense sub-block, and
    ``pairs(i, j)``, elementwise distances of broadcast index arrays.  A
    distance-matrix ground (``from_matrix``) holds its validated ``table``, a
    symmetric nonnegative array with zero diagonal satisfying the triangle
    inequality, and slices it.  A coordinate ground (``from_coords``) holds no
    table: every distance is computed from ``coords`` when it is read, so its
    memory grows with ``n * d``, not ``n * n``.  ``density`` is the claimed
    covering radius of the sample inside the idealized space (0 means the
    sample *is* the space).  Immutable after construction; safe to share
    between workers.
    """

    coords: np.ndarray | None = None
    density: float = 0.0
    table: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if (self.table is None) == (self.coords is None):
            raise ValueError("a ground needs either a distance table or coordinates")
        for arr in (self.table, self.coords):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def n(self) -> int:
        return (self.coords if self.table is None else self.table).shape[0]

    def block(self, rows, cols) -> np.ndarray:
        """Distances from the points ``rows`` to the points ``cols`` (index arrays or slices).

        For a distance-matrix ground the result may be a read-only view of the
        stored table.
        """
        if self.table is not None:
            return self.table[rows][:, cols]
        return self._euclidean((rows, None), (None, cols))

    def pairs(self, i, j) -> np.ndarray:
        """Elementwise distances ``d(i, j)`` of the broadcast index arrays ``i`` and ``j``."""
        if self.table is not None:
            return self.table[i, j]
        return self._euclidean(i, j)

    def _euclidean(self, i, j) -> np.ndarray:
        out = _squared_sums(self.coords, i, j)
        return np.sqrt(out, out=out)

    @cached_property
    def _sorted_axis(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """(axis, order, rank, sorted points) of a coordinate ground, formed on first read.

        ``axis`` is the coordinate of widest spread (the first such), and
        ``order`` lists the points by it, stably; ``rank`` inverts ``order``.
        The sorted points are ``coords[order]`` with each coordinate
        contiguous, so a window of the order is a slice of every coordinate.
        """
        axis = int(np.argmax(np.ptp(self.coords, axis=0)))
        order = np.argsort(self.coords[:, axis], kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(self.n)
        return axis, order, rank, np.asfortranarray(self.coords[order])

    def within(self, i: int, r: float) -> tuple[np.ndarray | slice, np.ndarray]:
        """(selection, its distances from point ``i``), selecting every point at distance at most ``r`` from ``i``.

        A distance-matrix ground selects its whole row, by ``slice(None)``.
        A coordinate ground selects the index array of the contiguous window
        of its points sorted along the axis of widest spread
        (``_sorted_axis``) whose coordinates on that axis lie within reach
        ``r`` of the coordinate of ``i`` (``axis_reach``).  The distances
        have the bits of ``block``: each squared term is that of the swapped
        difference, which rounds to the negated value.
        """
        if self.table is not None:
            return slice(None), self.table[i]
        axis, order, rank, points = self._sorted_axis
        keys = points[:, axis]
        lo, hi = axis_reach(keys[rank[i]], r)
        window = slice(keys.searchsorted(lo, side="left"), keys.searchsorted(hi, side="right"))
        out = _squared_sums(points, window, rank[i])
        return order[window], np.sqrt(out, out=out)

    def net_pairs(self, net: np.ndarray, r: float):
        """Chunks (x, j, d) of the pairs of a ground point x and a position j of the index array ``net`` with d = d(x, net[j]) <= r.

        A point's pairs are consecutive, in one chunk.  A distance-matrix
        ground reads ``block(rows, net)`` in row blocks.  A coordinate ground
        sorts ``net`` along its axis of widest spread and reads the bands
        (``_bands``) of net points whose coordinates on it lie within reach
        ``r`` of each point's (``axis_reach``).  Either way the distances
        have the bits of ``block``.
        """
        if self.table is not None:
            for rows in row_blocks(self.n, len(net)):
                block = self.block(rows, net)
                x, j = np.divmod(np.flatnonzero(block <= r), len(net))
                yield x + rows.start, j, block[x, j]
            return
        axis, order, _, points = self._sorted_axis
        by_key = np.argsort(self.coords[net, axis], kind="stable")
        both = np.asfortranarray(np.concatenate([points, self.coords[net[by_key]]]))  # ground, then net, by key
        keys = both[self.n:, axis]
        lo, hi = axis_reach(points[:, axis], r)
        starts = keys.searchsorted(lo, side="left")
        for a, b in _bands(starts, keys.searchsorted(hi, side="right") - starts):
            out = _squared_sums(both, a, b + self.n)
            d = np.sqrt(out, out=out)
            close = d <= r
            yield order[a[close]], by_key[b[close]], d[close]

    def close_pairs(self, points, r: float) -> tuple[np.ndarray, np.ndarray]:
        """Position pairs (u, v), u < v, of the index array ``points`` whose distance is below ``r``.

        A distance-matrix ground reads its ``points x points`` block in row
        blocks, each from its first row on.  A coordinate ground sorts
        ``points`` along its axis of widest spread and reads only the pairs
        whose coordinates on it lie within reach ``r`` of each other
        (``axis_reach``), in chunks (``_bands``), so no ``m x m`` array is
        formed.  Either way the distances have the bits of ``block``.
        """
        first, second = [], []
        if self.table is not None:
            for rows in row_blocks(len(points), len(points)):
                close = self.block(points[rows], points[rows.start:]) < r
                u, v = np.divmod(np.flatnonzero(close), close.shape[1])
                upper = v > u  # columns from the block's first row on
                first.append(u[upper] + rows.start)
                second.append(v[upper] + rows.start)
            return np.concatenate(first), np.concatenate(second)
        keys = self.coords[points, self._sorted_axis[0]]
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        later = np.arange(1, len(keys) + 1)  # a slot pairs with each later slot within its reach
        for a, b in _bands(later, keys.searchsorted(axis_reach(keys, r)[1], side="right") - later):
            u, v = order[a], order[b]
            close = self.pairs(points[u], points[v]) < r
            u, v = u[close], v[close]
            first.append(np.minimum(u, v))
            second.append(np.maximum(u, v))
        return np.concatenate(first), np.concatenate(second)

    @cached_property
    def _row_extremes(self) -> tuple[float, float]:
        """(diameter, largest nearest-neighbor distance), exact.

        A coordinate ground walks pairs of k-d leaves (``_leaf_pair_extremes``)
        and reads a leaf-pair tile only while its box bounds could still change
        either value.  It compares squared sums and takes the root of the two
        extremes only: a correctly rounded square root is monotone, so it
        commutes with max and min, and the result has the bits of the
        distances themselves.  A distance-matrix ground makes one pass over
        half its table: each row block reads only the columns from its first
        row onwards, so every unordered pair lies in exactly one block, and its
        row and column minima both feed the nearest-neighbor distances.
        """
        if self.table is None:
            farthest, widest = _leaf_pair_extremes(self.coords)
            return math.sqrt(farthest), math.sqrt(widest)
        n = self.n
        farthest = 0.0
        nearest = np.full(n, np.inf)
        for rows in row_blocks(n, n):
            cols = slice(rows.start, None)
            block = self.block(rows, cols).copy()
            farthest = max(farthest, float(block.max()))
            np.fill_diagonal(block, np.inf)  # a point is not its own neighbor
            np.minimum(nearest[rows], block.min(axis=1), out=nearest[rows])
            np.minimum(nearest[cols], block.min(axis=0), out=nearest[cols])
        return farthest, float(nearest.max()) if n > 1 else 0.0

    def diameter(self) -> float:
        return self._row_extremes[0]

    def max_nearest_neighbor(self) -> float:
        """Largest distance from a point to the rest of the sample."""
        return self._row_extremes[1]

    @staticmethod
    def from_coords(coords, density: float = 0.0) -> "MetricGround":
        # Euclidean distances satisfy the triangle inequality by construction;
        # the exhaustive/sampled check runs on from_matrix inputs only.
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        if coords.ndim != 2 or coords.shape[0] < 1 or coords.shape[1] < 1:
            raise GroundValidationError("coordinate array must be (n, d) with n >= 1 and d >= 1")
        bad = np.flatnonzero(~np.isfinite(coords).all(axis=1))
        if bad.size:
            i = int(bad[0])
            raise GroundValidationError(f"non-finite coordinate in row {i}: {coords[i].tolist()}")
        with np.errstate(over="ignore"):  # float rounding is monotone, so this bounds every squared distance
            extent = float(np.sum(np.ptp(coords, axis=0) ** 2))
        if not math.isfinite(extent):
            raise GroundValidationError(f"coordinates overflow: the squared extent {extent!r} is not finite")
        return MetricGround(coords=coords, density=float(density))

    @staticmethod
    def from_matrix(dist, density: float = 0.0) -> "MetricGround":
        dist = np.asarray(dist, dtype=float)
        _validate_distance_table(dist)
        return MetricGround(density=float(density), table=dist)


def axis_reach(key, r: float):
    """Bounds (lo, hi) on the sort key of every point at computed distance at most ``r`` from a point with ``key``.

    Let a be the sort axis, t = fl(p_a - x_a), and d the computed distance
    fl(sqrt(S)) between p and x, where S sums the rounded squares in order.
    The squares are nonnegative and rounded addition is monotone, so
    S >= fl(t * t), and so d >= fl(sqrt(fl(t * t))) since the rounded root is
    monotone too.  If fl(t * t) is normal, that root is at least
    |t| (1 - 2u) with u = 2^-53; if not, |t| < 2^-511.  A subtraction rounds
    by at most a factor 1 - u (it is exact when its result is subnormal).
    So d <= r gives |p_a - x_a| <= r (1 + 2^-51) + 2^-510, and the rounded
    half-width w = r (1 + 2^-48) + 2^-508 is at least that.  Every key is a
    float, so rounding, being monotone, keeps x_a >= key - w as
    x_a >= fl(key - w), and likewise above: the bounds need no further
    margin, at any offset or scale, and an overflow only widens them.
    """
    w = r * (1.0 + 2.0 ** -48) + 2.0 ** -508
    return key - w, key + w


def _bands(starts: np.ndarray, counts: np.ndarray):
    """Slot pairs (a, b) in which each slot a meets b = starts[a], ..., starts[a] + counts[a] - 1.

    Yields index arrays a and b chunk by chunk; a chunk holds the whole
    bands of consecutive slots, at most ``BLOCK_ELEMENTS`` pairs (a larger
    band alone), a slot's pairs consecutive.
    """
    ends = np.cumsum(counts)
    shift = starts + counts - ends  # b minus the pair's place k in the concatenated bands
    start = done = 0
    while start < len(counts):
        stop = max(start + 1, int(ends.searchsorted(done + BLOCK_ELEMENTS, side="right")))
        a = np.repeat(np.arange(start, stop), counts[start:stop])
        yield a, np.arange(done, ends[stop - 1]) + shift[a]
        start, done = stop, int(ends[stop - 1])


def _squared_sums(coords: np.ndarray, i, j) -> np.ndarray:
    # Squares summed in coordinate order: for d <= 7 the same bits as
    # (diff * diff).sum(axis=-1), whose reduction adds fewer than eight terms
    # in order.  (i, j) and (j, i) square the same magnitudes, so every sum is
    # exactly symmetric and (i, i) gives 0.
    out = None
    for axis in coords.T:
        t = axis[i] - axis[j]
        t *= t
        if out is None:
            out = t
        else:
            out += t
    return out


LEAF_SIZE = 64  # most points in one k-d leaf of the ground-statistics walk


def _kd_leaves(coords: np.ndarray) -> tuple[np.ndarray, list[slice]]:
    """A k-d order of the points (Bentley 1975) and its leaves, as slices of that order.

    Each index range longer than ``LEAF_SIZE`` is sorted along its widest
    coordinate (stable, so ties keep index order) and split near its median,
    at a multiple of ``LEAF_SIZE``: every leaf but the last is full.
    """
    n = coords.shape[0]
    perm = np.arange(n)
    leaves = []
    stack = [(0, n)]
    while stack:
        a, b = stack.pop()
        if b - a <= LEAF_SIZE:
            leaves.append(slice(a, b))
            continue
        idx = perm[a:b]
        pts = coords[idx]
        axis = int(np.argmax(np.ptp(pts, axis=0)))
        perm[a:b] = idx[np.argsort(pts[:, axis], kind="stable")]
        mid = a + (b - a + LEAF_SIZE - 1) // LEAF_SIZE // 2 * LEAF_SIZE
        stack += [(mid, b), (a, mid)]  # left first: leaves come out in order
    return perm, leaves


def _box_bounds(lo: np.ndarray, hi: np.ndarray, a: int, others) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on every squared sum between leaf ``a`` and each leaf of ``others``.

    ``lo`` and ``hi`` are (d, leaves) box corners.  Per axis the gap between
    two boxes bounds ``|fl(x - y)|`` from below and their span bounds it from
    above, since rounding is monotone and symmetric; squaring and summing in
    coordinate order, as ``_squared_sums`` does, is monotone too.  So the
    bounds hold for the computed sums with no margin.
    """
    low = high = None
    for lo_k, hi_k in zip(lo, hi):
        gap = np.maximum(lo_k[others] - hi_k[a], lo_k[a] - hi_k[others])
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        span = np.maximum(hi_k[a] - lo_k[others], hi_k[others] - lo_k[a])
        span *= span
        if low is None:
            low, high = gap, span
        else:
            low += gap
            high += span
    return low, high


def _leaf_pair_extremes(coords: np.ndarray) -> tuple[float, float]:
    """(largest squared distance, largest squared nearest-neighbor distance) of a coordinate sample.

    The points are put in k-d order (``_kd_leaves``) and read in leaf-pair
    tiles of ``_squared_sums``.  Every self tile is read first (diagonal
    masked), then, for each leaf, the tile with the partner whose upper
    bound is largest, to seed the farthest value.  Then each leaf takes the later
    leaves by ascending lower bound and skips a tile whose upper bound is at
    most the running farthest value and whose lower bound is at least the
    largest nearest-so-far of both its leaves: no value in it can change
    either statistic.  No tile is read twice, and the results are exact.
    The transients are one tile plus O(n) vectors; on low-dimensional
    samples most tiles are skipped.
    """
    perm, leaves = _kd_leaves(coords)
    pts = coords[perm]
    starts = [leaf.start for leaf in leaves]
    lo = np.minimum.reduceat(pts, starts, axis=0).T.copy()
    hi = np.maximum.reduceat(pts, starts, axis=0).T.copy()
    nearest = np.full(len(pts), np.inf)
    leaf_nearest = np.full(len(leaves), np.inf)  # largest nearest-so-far in each leaf
    farthest = 0.0
    done = set()

    def read(a: int, b: int) -> None:
        nonlocal farthest
        done.add((a, b))
        rows, cols = leaves[a], leaves[b]
        tile = _squared_sums(pts, (rows, None), (None, cols))
        farthest = max(farthest, float(tile.max()))
        if a == b:
            np.fill_diagonal(tile, np.inf)  # a point is not its own neighbor
        else:
            np.minimum(nearest[cols], tile.min(axis=0), out=nearest[cols])
            leaf_nearest[b] = nearest[cols].max()
        np.minimum(nearest[rows], tile.min(axis=1), out=nearest[rows])
        leaf_nearest[a] = nearest[rows].max()

    for a in range(len(leaves)):
        read(a, a)
    for a in range(len(leaves)):
        high = _box_bounds(lo, hi, a, slice(None))[1]
        high[a] = -np.inf
        pair = tuple(sorted((a, int(np.argmax(high)))))
        if pair not in done:
            read(*pair)
    for a in range(len(leaves) - 1):
        low, high = _box_bounds(lo, hi, a, slice(a + 1, None))
        wanted = np.flatnonzero((high > farthest) | (low < np.maximum(leaf_nearest[a + 1:], leaf_nearest[a])))
        for c in wanted[np.argsort(low[wanted], kind="stable")].tolist():
            b = a + 1 + c
            if (a, b) in done or (high[c] <= farthest and low[c] >= max(leaf_nearest[a], leaf_nearest[b])):
                continue
            read(a, b)
    return farthest, float(nearest.max()) if len(pts) > 1 else 0.0


def _validate_distance_table(dist: np.ndarray) -> None:
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise GroundValidationError(f"distance table must be square, got shape {dist.shape}")
    n = dist.shape[0]
    bad = np.argwhere(~np.isfinite(dist))
    if bad.size:
        i, j = map(int, bad[0])
        raise GroundValidationError(f"non-finite distance in row {i}: d({i},{j})={float(dist[i, j])!r}")
    if not np.array_equal(dist, dist.T):
        i, j = map(int, np.argwhere(dist != dist.T)[0])
        raise GroundValidationError(f"asymmetric matrix: d({i},{j})={dist[i, j]!r} != d({j},{i})={dist[j, i]!r}")
    if (dist < 0).any():
        i, j = map(int, np.argwhere(dist < 0)[0])
        raise GroundValidationError(f"negative entry: d({i},{j})={dist[i, j]!r}")
    bad = np.flatnonzero(np.diag(dist) != 0.0)
    if bad.size:
        raise GroundValidationError(f"nonzero diagonal at index {int(bad[0])}")
    _check_triangle(dist)


# Tables up to this many points have the triangle inequality checked at every
# midpoint; larger ones at this many evenly spaced midpoints.
TRIANGLE_EXHAUSTIVE_LIMIT = 512
TRIANGLE_SAMPLES = 256


def triangle_midpoints(n: int) -> np.ndarray:
    """Midpoints k at which the validator checks d(i, j) <= d(i, k) + d(k, j) on an n-point table."""
    if n <= TRIANGLE_EXHAUSTIVE_LIMIT:
        return np.arange(n)
    ks = np.linspace(0, n - 1, TRIANGLE_SAMPLES).astype(int)  # nondecreasing
    return ks[np.concatenate(([True], ks[1:] != ks[:-1]))]


TRIANGLE_CELL_SIZE = 32  # points per cell, on average, of the triangle check's tiles


def _triangle_cells(dist: np.ndarray) -> list[np.ndarray]:
    """Voronoi cells of the first ``ceil(n / TRIANGLE_CELL_SIZE)`` points of a farthest-point order.

    The order starts at point 0 and next takes the point farthest from those
    taken (the first on ties), read off the table; each point joins the cell
    of its first nearest center.  The order stops early once every point is
    at distance 0 from a center, so each cell holds at least its center.
    """
    n = dist.shape[0]
    nearest = dist[0].copy()
    label = np.zeros(n, dtype=np.intp)
    for c in range(1, -(-n // TRIANGLE_CELL_SIZE)):
        p = int(np.argmax(nearest))
        if nearest[p] == 0.0:
            break
        closer = dist[p] < nearest
        nearest[closer] = dist[p, closer]
        label[closer] = c
    return np.split(np.argsort(label, kind="stable"), np.cumsum(np.bincount(label))[:-1])


def _check_triangle(dist: np.ndarray) -> None:
    # The table is split into cells (``_triangle_cells``) and checked in
    # tiles I x J, I <= J: the table is symmetric (checked first), so a
    # violation at (i, j) is one at (j, i).  A tile is skipped at midpoint k
    # when max d(I x J) <= fl(fl(min_I d(., k) + min_J d(k, .)) + tol): since
    # rounded addition is monotone, every pair in it then satisfies
    # d(i, j) <= fl(fl(d(i, k) + d(k, j)) + tol), and nothing assumes the
    # triangle inequality.  A live tile takes the min-plus product over its
    # live midpoints (``_tile_holds``), the arithmetic of the full check, so
    # pass or fail is exactly that of every midpoint at every pair; the first
    # witness is then found by the per-midpoint scan, which runs only when a
    # violation exists.  On the 1000-point circle tables of the distmatrix
    # bench (seeds 1, 2, 7) about a fifth of the (tile, midpoint) work is
    # live and the check takes 0.07-0.10 s instead of 0.22-0.27 s; on 1000
    # uniform points of the cube in R^8, where three quarters stay live, it
    # costs 0.95-1.10 times the untiled check's 0.23-0.25 s (medians of six
    # interleaved sessions, 2-core Xeon VM).
    n = dist.shape[0]
    tol = 1e-12 * max(1.0, float(dist.max()))
    ks = triangle_midpoints(n)
    cells = _triangle_cells(dist)
    order = np.concatenate(cells)
    starts = np.cumsum([0] + [len(cell) for cell in cells[:-1]])
    top = np.empty((len(cells), len(cells)))  # top[I, J] = max d(I x J)
    for I, cell in enumerate(cells):
        colmax = np.zeros(n)
        for rows in row_blocks(len(cell), n):
            np.maximum(colmax, dist[cell[rows]].max(axis=0), out=colmax)
        top[I] = np.maximum.reduceat(colmax[order], starts)  # no cell is empty
    mids = [dist[np.ix_(ks, cell)] for cell in cells]  # the midpoint rows of each cell
    low = np.array([mid.min(axis=1) for mid in mids])  # low[I, c] = min_I d(ks[c], .)
    for I in range(len(cells)):
        bound = low[I] + low[I:]
        bound += tol
        live = top[I, I:, None] > bound  # live[J - I, c]: tile I x J is live at ks[c]
        for J in (I + np.flatnonzero(live.any(axis=1))).tolist():
            if not _tile_holds(dist, cells, mids, I, J, np.flatnonzero(live[J - I]), tol):
                _report_triangle_violation(dist, ks, tol)


def _tile_holds(dist: np.ndarray, cells: list[np.ndarray], mids: list[np.ndarray],
                I: int, J: int, live: np.ndarray, tol: float) -> bool:
    """Whether every pair (i, j) of the tile I x J passes the triangle check at the ``live`` midpoints.

    The test is d(i, j) <= fl(min_k fl(d(i, k) + d(k, j)) + tol); adding tol
    rounds monotonically, so that bound is exactly
    min_k fl(fl(d(i, k) + d(k, j)) + tol).  On a diagonal tile only
    the columns from each row block's first row on are read.  Row blocks and
    midpoint chunks keep each temporary to a quarter of ``BLOCK_ELEMENTS``,
    small enough to stay in cache.
    """
    if len(cells[I]) > len(cells[J]):
        I, J = J, I  # the same pairs, by symmetry; the larger cell runs along the contiguous axis
    a, b = mids[I][live], mids[J][live]
    for rows in row_blocks(a.shape[1], 4 * b.shape[1]):
        c0 = rows.start if I == J else 0
        best = np.full((rows.stop - rows.start, b.shape[1] - c0), np.inf)
        for ls in row_blocks(len(live), 4 * best.size):
            np.minimum(best, (a[ls, rows, None] + b[ls, None, c0:]).min(axis=0), out=best)
        best += tol
        if (dist[cells[I][rows, None], cells[J][c0:]] > best).any():
            return False
    return True


def _report_triangle_violation(dist: np.ndarray, ks: np.ndarray, tol: float) -> None:
    """Raise for the first midpoint k, then the first (i, j) in row order, that violates."""
    via = np.empty_like(dist)
    viol = np.empty(dist.shape, dtype=bool)
    for k in map(int, ks):
        np.add(dist[:, k, None], dist[None, k, :], out=via)
        via += tol
        np.greater(dist, via, out=viol)
        if viol.any():
            i, j = map(int, np.argwhere(viol)[0])
            raise GroundValidationError(
                f"triangle inequality violated for ({i},{k},{j}): "
                f"d({i},{j})={dist[i, j]!r} > d({i},{k})+d({k},{j})={dist[i, k] + dist[k, j]!r}"
            )


@dataclass(frozen=True)
class SpaceSpec:
    """Recipe for a generated test space.

    ``n`` is the sample count.  ``radius``, ``separation``, ``length`` and
    ``cantor_depth`` apply to their respective kinds.  Every built-in
    generator is deterministic.
    """

    kind: str
    n: int = 2
    radius: float = 1.0
    separation: float = 1.0
    length: float = 1.0
    cantor_depth: int = 4

    def validate(self) -> None:
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {VALID_KINDS}")
        if self.n < 1:
            raise ValueError(f"sample count must be >= 1, got {self.n}")
        for name in ("radius", "separation", "length"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.cantor_depth < 1:
            raise ValueError("cantor_depth must be >= 1")


def generate(spec: SpaceSpec) -> MetricGround:
    """Build the ground sample named by ``spec``.

    The claimed density is the honest covering radius of the sample inside the
    idealized space (0 for spaces the sample represents exactly).
    """
    spec.validate()
    if spec.kind == "two_points":
        coords = np.array([[0.0, 0.0], [spec.separation, 0.0]])
        return MetricGround.from_coords(coords, density=0.0)
    if spec.kind == "circle":
        theta = 2.0 * np.pi * np.arange(spec.n) / spec.n
        coords = spec.radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        density = spec.radius * 2.0 * math.sin(math.pi / (2 * spec.n)) if spec.n > 1 else 2 * spec.radius
        return MetricGround.from_coords(coords, density=density)
    if spec.kind == "interval":
        if spec.n == 1:
            return MetricGround.from_coords(np.array([[spec.length / 2]]), density=spec.length / 2)
        xs = np.linspace(0.0, spec.length, spec.n)
        h = spec.length / (spec.n - 1)
        return MetricGround.from_coords(xs[:, None], density=h / 2)
    if spec.kind == "cantor":
        return _cantor_ground(spec.cantor_depth)
    return _warsaw_ground(spec.n)


def _cantor_ground(depth: int) -> MetricGround:
    # Endpoints of all depth-level middle-thirds intervals, metric from R.
    segs = [(0.0, 1.0)]
    for _ in range(depth):
        nxt = []
        for a, b in segs:
            t = (b - a) / 3.0
            nxt.append((a, a + t))
            nxt.append((b - t, b))
        segs = nxt
    pts = sorted({x for s in segs for x in s})
    density = 3.0 ** (-depth) / 2.0
    return MetricGround.from_coords(np.array(pts)[:, None], density=density)


_WARSAW_W = 2.0 / math.pi


WARSAW_CHUNK = 1 << 15  # grid points per chunk of the arc-length table


def _warsaw_graph_table(x_min: float, grid: int):
    """Arc-length table of the graph y = sin(1/x), traversed from x = 2/pi down to x = x_min.

    In u = 1/x coordinates ds = sqrt(cos(u)^2 + u^-4) du, integrated by the
    trapezoid rule on ``grid`` points.  The integrand, trapezoids and running
    sums are formed over chunks of ``WARSAW_CHUNK`` points that overlap by one,
    each chunk's first trapezoid carrying the previous running sum: the same
    operations in the same order as over the whole grid, so the same bits,
    with transients of one chunk.
    """
    u = np.linspace(math.pi / 2.0, 1.0 / x_min, grid)
    s = np.empty(grid)
    s[0] = 0.0
    for a in range(0, grid - 1, WARSAW_CHUNK - 1):
        b = min(a + WARSAW_CHUNK, grid)
        uc = u[a:b]
        f = np.cos(uc)
        f *= f
        f += uc ** -4.0
        np.sqrt(f, out=f)
        t = f[1:] + f[:-1]
        t *= 0.5
        t *= np.diff(uc)
        t[0] += s[a]
        np.cumsum(t, out=s[a + 1:b])
    return u, s


WARSAW_STEPS = 60  # cap on the Newton steps that solve for the cutoff


def _warsaw_ground(n: int) -> MetricGround:
    """Sample the Warsaw circle uniformly in arc length.

    Pieces: the limit segment {0} x [-1, 1], the closing rectangular arc
    (0,-1) -> (0,-1.5) -> (w,-1.5) -> (w,1) with w = 2/pi, and the graph of
    sin(1/x) from x = w down to a cutoff x_min.  The cutoff is chosen at half
    the arc-length spacing so the unsampled tail stays within the claimed
    density of the segment samples.  The segment and the arc take the nearest
    whole numbers of spacings, both rounded down where that leaves the graph none.

    So x_min solves x = F(x), F(x) = L(x) / (2 (n - 1)), with L(x) the total
    length when the graph stops at x, its graph part read off a 20,000-point
    table.  Plain iteration x <- F(x) cannot converge: F'(x) =
    -f(1/x) / (2 (n - 1) x^2), with f the arc-length integrand, is about -1.4
    at the root for n = 2000, so the fixed point repels and the iterates
    settle into a 2-cycle, and about -0.7 for n = 300 or 20,000, too slow for
    the step test.  Newton's method on g(x) = F(x) - x needs only
    g'(x) = F'(x) - 1, one integrand value at the table's last point.  It
    starts from the root of the same equation with f replaced by its mean
    2/pi, and for n up to 10^5 it usually takes 4 to 7 steps, never more
    than 12.  g is strictly decreasing, so each table narrows a bracket of
    the root, and a step that leaves the bracket (one crossing 0 among them)
    is replaced by the bracket's midpoint.  The solve stops at a step below
    1e-14; it raises ``ValueError`` at a non-finite length or after
    ``WARSAW_STEPS`` steps.
    """
    if n < 8:
        raise ValueError("warsaw_circle needs at least 8 samples")
    w = _WARSAW_W
    seg_len = 2.0
    arc_len = 0.5 + w + 2.5

    m = 2.0 * (n - 1)
    fixed = seg_len + arc_len
    x_min = (fixed + math.sqrt(fixed * fixed + 8.0 * m / math.pi)) / (2.0 * m)
    lo, hi = 0.0, math.inf
    step = math.nan
    for _ in range(WARSAW_STEPS):
        u, s = _warsaw_graph_table(x_min, 20000)
        g = (fixed + float(s[-1])) / m - x_min
        if not math.isfinite(g):
            raise ValueError(f"warsaw_circle n={n}: non-finite arc length at cutoff {x_min!r} (last step {step!r})")
        if g > 0.0:
            lo = x_min
        else:
            hi = x_min
        u_end = float(u[-1])
        step = g / (math.sqrt(math.cos(u_end) ** 2 + u_end ** -4.0) * u_end * u_end / m + 1.0)
        x_min += step
        if abs(step) < 1e-14:
            break
        if not lo < x_min < hi:
            x_min = 0.5 * (lo + hi)
    else:
        raise ValueError(f"warsaw_circle n={n}: cutoff not found in {WARSAW_STEPS} steps (last step {step!r})")
    delta = 2.0 * x_min

    u_tab, s_tab = _warsaw_graph_table(x_min, max(100_000, 50 * n))
    graph_len = float(s_tab[-1])

    k_seg = max(1, round(seg_len / delta))
    k_arc = max(1, round(arc_len / delta))
    if k_seg + k_arc > n - 2:  # seg_len + arc_len < (n - 1) delta, so rounded down they leave the graph a spacing
        k_seg, k_arc = math.floor(seg_len / delta), math.floor(arc_len / delta)
    k_graph = n - 1 - k_seg - k_arc

    arc, graph = slice(k_seg, k_seg + k_arc), slice(k_seg + k_arc, n)
    x, y = np.empty((2, n))
    # limit segment, top to bottom, start inclusive / end exclusive
    x[:k_seg] = 0.0
    y[:k_seg] = 1.0 - np.arange(k_seg) * seg_len / k_seg
    # closing arc: down, across, up
    s = np.arange(k_arc) * arc_len / k_arc
    down, up = s <= 0.5, s > 0.5 + w
    x[arc] = np.where(down, 0.0, np.where(up, w, s - 0.5))
    y[arc] = np.where(down, -1.0 - s, np.where(up, -1.5 + (s - 0.5 - w), -1.5))
    # sin(1/x) graph from (w, 1) toward the cutoff, then the cutoff's own point
    u = np.append(np.interp(np.arange(k_graph) * (graph_len / k_graph), s_tab, u_tab), u_tab[-1])
    np.divide(1.0, u, out=x[graph])
    np.sin(u, out=y[graph])
    coords = np.stack([x, y], axis=1)

    spacing = max(seg_len / k_seg, arc_len / k_arc, graph_len / k_graph)
    tail = math.sqrt(x_min ** 2 + (seg_len / k_seg / 2.0) ** 2)
    density = max(spacing / 2.0, tail)
    return MetricGround.from_coords(coords, density=density)


def load_ground(path: str, fmt: str = "coords_csv", density: float = 0.0) -> MetricGround:
    """Read a ground sample from disk.

    ``coords_csv``: header ``id,x,y[,z...]``, one row per point, Euclidean
    metric.  ``distmatrix_csv``: square numeric matrix, row-major, no header,
    validated against the metric axioms.  Loaded grounds default to
    ``density = 0`` (treated as exactly represented finite spaces).
    """
    if fmt == "coords_csv":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or len(rows) < 2:
            raise GroundValidationError(f"{path}: no data rows")
        header = [c.strip().lower() for c in rows[0]]
        if not header or header[0] != "id":
            raise GroundValidationError(f"{path}: expected header starting with 'id'")
        try:
            coords = np.array([[float(v) for v in row[1:]] for row in rows[1:] if row])
        except ValueError as exc:
            raise GroundValidationError(f"{path}: parse failure: {exc}") from exc
        if coords.ndim != 2 or coords.shape[1] < 1:
            raise GroundValidationError(f"{path}: malformed coordinate rows")
        return MetricGround.from_coords(coords, density=density)
    if fmt == "distmatrix_csv":
        try:
            with warnings.catch_warnings():  # an empty file is reported below, as for coords_csv
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                dist = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise GroundValidationError(f"{path}: parse failure: {exc}") from exc
        if dist.size == 0:
            raise GroundValidationError(f"{path}: no data rows")
        return MetricGround.from_matrix(dist, density=density)
    raise ValueError(f"unknown format {fmt!r}; expected coords_csv or distmatrix_csv")


def write_coords_csv(ground: MetricGround, path: str) -> None:
    if ground.coords is None:
        raise ValueError("ground has no coordinates to export")
    dim = ground.coords.shape[1]
    names = ["x", "y", "z"] + [f"x{k}" for k in range(3, dim)]
    with open(path, "w", newline="") as fh:  # the csv module's default dialect: "\r\n" line ends
        fh.write(",".join(["id"] + names[:dim]) + "\r\n")
        fh.writelines(f"{i},{','.join(map(repr, row))}\r\n" for i, row in enumerate(ground.coords.tolist()))
