"""Finite hyperspace posets and multivalued maps between tower levels.

For a level with net ``A`` and scale ``epsilon``, the hyperspace consists of
the non-empty subsets of ``A`` with diameter strictly below ``2 * epsilon``,
ordered by inclusion.  With the upper semifinite topology on subsets this is a
finite topological space whose open sets are the down-sets of the inclusion
order, so a map between two such posets is continuous exactly when it is
monotone.

Subsets are enumerated up to a cardinality cap; every non-empty subset of a
stored element is stored.  They are the simplices of a flag complex, so the
vertices and edges (cap 2) decide the one check a bonding map needs: an
image's diameter is the largest over the images of the element's vertices
and edges.  Images are unions of singleton images, so a bonding map is
monotone (continuous) by construction.  Checks and homology build levels at
cap 2; larger caps serve the exports, and ``export_poset_csv`` alone
computes an element's own diameter.  An element is a sorted tuple of net
positions, so the hyperspace level and the scale complex number the net's
points alike; ground indices are formed only where a distance is read or
written out.

Multivalued maps are tabulated images in ground indices: the nearest-point
map sends a ground point to its set of nearest net points (ties within a
relative tolerance), and the bonding map of consecutive levels sends a
subset of the finer net to the union of nearest coarser points over its
members.  A ``MultiMap`` is its padded table, one row per domain item; a
``Tower`` computes the tables once for a built tower, and a check reads them
from it and computes the image diameters it compares with a bound.  Image
tuples are formed on demand, for tests and the benchmark tracer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .construction import AdjustedSequence, Level, padded_rows, ties
from .metric import MetricGround, row_blocks


MAX_ELEMENTS = 2_000_000  # element budget of one enumeration (``grow_cliques``)


class ElementCapError(RuntimeError):
    """Hyperspace enumeration exceeded its element budget, ``MAX_ELEMENTS``."""


class BondingDiameterError(RuntimeError):
    """A bonding image has diameter at or above the coarse scale bound."""


def enumerate_small_subsets(ground: MetricGround, net, two_eps: float, cap: int) -> list[tuple[int, ...]]:
    """All subsets of the net positions {0..m-1} with diameter < two_eps and size <= cap.

    ``net`` lists the ground indices of the ``m`` net points; net x net
    distances are read from ``ground`` in row blocks, so no ``m x m`` block
    is formed.  Returns the elements: sorted tuples of positions, listed by
    size and within a size in lex order, so element ``i < m`` is the
    singleton ``(i,)``.  The subsets are the cliques of the graph of pairs
    closer than two_eps (``grow_cliques``).
    """
    net = np.asarray(net, dtype=np.intp)
    m = len(net)
    ahead = []  # ahead[i]: bitmask of the positions j > i closer than two_eps to i
    for rows in row_blocks(m, m):
        close = ground.block(net[rows], net[rows.start:]) < two_eps  # columns from the block's first row on
        for i, packed in zip(range(rows.start, rows.stop), np.packbits(close, axis=1, bitorder="little")):
            ahead.append(int.from_bytes(packed.tobytes(), "little") >> (i - rows.start + 1) << (i + 1))
    return list(itertools.chain.from_iterable(grow_cliques(ahead, cap)))


def grow_cliques(ahead: list[int], cap: int) -> list[list[tuple[int, ...]]]:
    """Cliques of size <= cap of the graph on {0..m-1} whose edges are i < j with bit j set in ``ahead[i]``.

    Returns one list of cliques per size, each in lex order.  Depth-first
    growth over the per-vertex ahead-neighbour bitmasks visits only cliques;
    more than ``MAX_ELEMENTS`` in all raise ``ElementCapError``.
    """
    m = len(ahead)
    elements: list[list[tuple[int, ...]]] = [[(i,) for i in range(m)]] + [[] for _ in range(cap - 1)]
    budget = MAX_ELEMENTS - m
    if budget < 0:
        raise ElementCapError(f"element budget {MAX_ELEMENTS} exceeded already at cardinality 1 ({m} singletons)")

    def grow(clique, mask, size):
        nonlocal budget
        while mask:  # each set bit j in ascending order; ahead[j] holds only bits above j
            j = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            budget -= 1
            if budget < 0:
                raise ElementCapError(f"element budget {MAX_ELEMENTS} exceeded at cardinality {size + 1}")
            new = clique + (j,)
            elements[size].append(new)
            if size + 1 < cap:
                grow(new, mask & ahead[j], size + 1)

    if cap >= 2:
        for i in range(m):
            grow((i,), ahead[i], 1)

    return elements


@dataclass(frozen=True)
class HyperLevel:
    """Poset of small-diameter net subsets at one tower level.

    Elements are sorted tuples of net positions (``level.net[v]`` is the
    ground index of position ``v``), listed by size and within a size in lex
    order, so element ``i < len(level.net)`` is the singleton ``(i,)``.  The
    order relation is set inclusion, given by its covering pairs.  ``table``
    holds the elements once as a padded array, for every map out of the level.
    ``_index``, for the exports and the order complex, is formed on first read.
    """

    level: Level
    elements: tuple[tuple[int, ...], ...]
    cap: int

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {el: i for i, el in enumerate(self.elements)}

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @cached_property
    def table(self) -> np.ndarray:
        """The elements as a padded table of net positions (``padded_rows``), formed on first read."""
        sizes = np.fromiter(map(len, self.elements), dtype=np.intp, count=len(self.elements))
        members = np.fromiter(itertools.chain.from_iterable(self.elements), dtype=np.intp, count=int(sizes.sum()))
        return padded_rows(len(sizes), np.repeat(np.arange(len(sizes)), sizes), members)

    def covering_pairs(self):
        """Pairs (i, j) where j covers i: |j| = |i| + 1 and i subset of j (exports, ``is_continuous``)."""
        for j, el in enumerate(self.elements):
            if len(el) < 2:
                continue
            for sub in itertools.combinations(el, len(el) - 1):
                yield self._index[sub], j


def build_hyperlevel(ground: MetricGround, level: Level, cap: int = 3) -> HyperLevel:
    """Enumerate the subsets of the level net with diameter < 2 * epsilon, as net positions."""
    elements = enumerate_small_subsets(ground, level.net, 2.0 * level.epsilon, cap)
    return HyperLevel(level=level, elements=tuple(elements), cap=cap)


@dataclass(frozen=True, eq=False)
class MultiMap:
    """Tabulated multivalued map into a net: it is its padded table.

    Row i of ``table`` (see ``construction.padded_rows``) is the image, in
    ground indices, of domain item i (a ground point or a hyperspace
    element), and every check reads it.  It stays a type only for the
    benchmark tracer, which reads ``images``: the tuples, formed on first
    read.
    """

    table: np.ndarray = field(repr=False)

    @cached_property
    def images(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, map(dict.fromkeys, self.table.tolist())))


def _union_rows(table: np.ndarray) -> np.ndarray:
    """Each row's distinct entries in ascending order, padded with the row minimum."""
    t = np.sort(table, axis=1)
    keep = np.ones(t.shape, dtype=bool)
    keep[:, 1:] = t[:, 1:] != t[:, :-1]
    r, c = np.nonzero(keep)
    return padded_rows(len(t), r, t[r, c])


def _cross_max(ground: MetricGround, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Per-row maximum of ``d(rows[r, i], cols[r, j])`` over all i, j, in row blocks."""
    out = np.empty(len(rows))
    for s in row_blocks(len(rows), rows.shape[1] * cols.shape[1]):
        out[s] = ground.pairs(rows[s, :, None], cols[s, None, :]).max(axis=(1, 2))
    return out


def row_diameters(ground: MetricGround, table: np.ndarray) -> np.ndarray:
    """Diameter of each row's point set (0 for a single point)."""
    return _cross_max(ground, table, table)


def nearest_sets(ground: MetricGround, net, tie_tol: float) -> np.ndarray:
    """Nearest-set table in ``net`` of every ground point.

    ``net`` lists ground indices; row x of the result holds the net points
    nearest to ground point x, in net order, padded as in ``padded_rows``.
    A net point ties when its distance is within ``tie_tol`` (relative) of
    the row minimum (``construction.ties``); exact symmetric ties are always
    captured.  The (ground x net) distances are read in row blocks.  A tower
    built by ``build_adjusted_sequence`` gets the same tables from its
    farthest-point pass; this is the route for any other net.
    """
    net = np.asarray(net, dtype=np.intp)
    rows, members = [], []
    for s in row_blocks(ground.n, len(net)):
        block = ground.block(s, net)
        r, c = np.nonzero(ties(block, block.min(axis=1)[:, None], tie_tol))
        rows.append(r + s.start)
        members.append(net[c])
    return padded_rows(ground.n, np.concatenate(rows), np.concatenate(members))


class Tower:
    """The nearest-point and bonding maps of a built tower, each computed once.

    Every table is a padded integer array of ground indices (see
    ``construction.padded_rows``).  ``q[n]`` holds the nearest-set image in
    ``A_n`` of every ground point, one row per ground point.  A sequence from
    ``build_adjusted_sequence`` at this tie tolerance supplies these tables
    from its farthest-point pass, which already read every ground-to-net
    distance; any other sequence, a loaded one among them, gets one
    ``nearest_sets`` evaluation per level.  ``composite(n, n + 1)``, a step,
    sends each point of ``A_{n+1}`` to its image in ``A_n``: the rows of
    ``q[n]`` at those points (the same distance row and tie threshold a
    per-pair block would use), cut to the widest of them.  ``composite(n, m)``
    sends each point of ``A_m`` into ``A_n`` through the steps; it is
    memoized and extended one step from ``composite(n, m - 1)``.  Composite
    rows follow the order of the net ``A_m``.  Bonding maps act on subsets
    by unions of singleton images, so these tables determine every bonding
    map.  Once the tables are assembled the tower keeps the sequence without
    its farthest-point pass, so the pass's records are freed with the
    caller's sequence.
    """

    def __init__(self, seq: AdjustedSequence, tie_tol: float = 1e-9):
        self.ground = seq.ground
        self.tie_tol = tie_tol
        greedy = seq.greedy
        if greedy is not None and greedy.ground is seq.ground and greedy.tie_tol == tie_tol:
            self.q = {lv.index: greedy.nearest_sets(lv.net) for lv in seq.levels}
        else:
            self.q = {lv.index: nearest_sets(seq.ground, lv.net, tie_tol) for lv in seq.levels}
        self.seq = replace(seq, greedy=None)
        self._composites: dict[tuple[int, int], np.ndarray] = {}

    def composite(self, n: int, m: int) -> np.ndarray:
        if not 1 <= n < m <= self.seq.depth:
            raise ValueError(f"need levels {n} < {m} in a depth-{self.seq.depth} tower")
        comp = self._composites.get((n, m))
        if comp is None:
            if m == n + 1:
                comp = _union_rows(self.q[n][np.asarray(self.seq.level(m).net, dtype=np.intp)])
            else:
                comp = self.union_image(n, m - 1, self.positions(m - 1, self.composite(m - 1, m)))
            self._composites[(n, m)] = comp
        return comp

    def positions(self, m: int, points: np.ndarray) -> np.ndarray:
        """Positions in the sorted net ``A_m`` of ground indices that all lie in it."""
        return np.searchsorted(np.asarray(self.seq.level(m).net, dtype=np.intp), points)

    def union_image(self, n: int, m: int, sets: np.ndarray) -> np.ndarray:
        """Image in ``A_n`` of each row of ``sets`` (padded rows of positions in ``A_m``).

        A row's image is the union of ``composite(n, m)`` over its points,
        sorted and padded as in ``_union_rows``.
        """
        return _union_rows(self.composite(n, m)[sets].reshape(len(sets), -1))


def bonding_map(tower: Tower, fine: HyperLevel) -> MultiMap:
    """Map each element of ``fine`` to the union of nearest points one level up.

    Every image must have diameter strictly below ``2 * epsilon`` of the
    coarser level; a violation means the tower inequalities were broken
    upstream, so the map aborts rather than clamping.
    """
    return _union_images(tower, fine, fine.level.index - 1, "bonding image")


def composite_bonding(tower: Tower, fine: HyperLevel, n: int) -> MultiMap:
    """Composite of the bonding maps from the level of ``fine`` down to level ``n``.

    For ``n`` one level up this equals ``bonding_map``.  Images are checked
    against the level-``n`` scale bound.
    """
    return _union_images(tower, fine, n, "composite image")


def _union_images(tower: Tower, fine: HyperLevel, n: int, what: str) -> MultiMap:
    """Element-domain map sending each fine element to the union of its points' images in ``A_n``.

    The first element whose image reaches ``2 * epsilon_n`` raises
    ``BondingDiameterError``.
    """
    m = fine.level.index
    tower.composite(n, m)  # rejects a level pair outside the tower first
    if fine.level != tower.seq.level(m):
        raise ValueError(f"hyperspace level {m} was not built on this tower's level")
    bound = 2.0 * tower.seq.level(n).epsilon
    table = tower.union_image(n, m, fine.table)
    diameters = row_diameters(tower.ground, table)
    bad = np.flatnonzero(diameters >= bound)
    if bad.size:
        i = int(bad[0])
        members = tuple(fine.level.net[v] for v in fine.elements[i])
        raise BondingDiameterError(
            f"{what} of {members} has diameter {float(diameters[i])!r} >= 2*epsilon = {bound!r} "
            f"(levels {m} -> {n})"
        )
    return MultiMap(table)


def is_continuous(mm: MultiMap, domain: HyperLevel):
    """Monotonicity over the covering pairs; returns (ok, counterexample).

    On finite posets with the upper semifinite topology this is exactly
    continuity.  A hyperlevel is down-closed within its cap, so every proper
    inclusion is a chain of covers and monotone on covers means monotone on
    all pairs.  The counterexample, when present, is a covering pair (i, j)
    of element ids with image(i) not a subset of image(j).  Bonding maps are
    monotone by construction; this is the tests' oracle, not a pipeline check.
    """
    if len(mm.table) != domain.n_elements:
        raise ValueError("continuity check needs one image per element of the domain")
    image_sets = [set(row) for row in mm.table.tolist()]
    for i, j in domain.covering_pairs():
        if not image_sets[i] <= image_sets[j]:
            return False, (i, j)
    return True, None


@dataclass
class ClauseReport:
    name: str
    instances: int
    worst_distance: float
    worst_bound: float
    min_slack: float
    worst_witness: tuple
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class DistanceBoundsReport:
    clauses: list[ClauseReport]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.clauses)


def verify_adjusted_distance_bounds(tower: Tower) -> DistanceBoundsReport:
    """Exhaustive distance guarantees of the tower, for all level pairs n < m.

    Clause 1 (nearest pairs): points of the two nearest-point images of any x
    lie within epsilon_n of each other.  Clause 2 (bonded pairs): any point in
    the composite bonding image of a finest-net singleton lies within
    epsilon_n of that singleton.  Clause 3 (bonded to source): any point in
    the composite bonding image of the nearest-point image of x lies within
    epsilon_n of x itself.  Each clause reports its minimal slack, with the
    first witness to reach it in (n, m, x) order; any violated instance is
    collected with witnesses.  A one-level tower has no pairs, so every
    clause passes with zero instances.
    """
    ground = tower.ground

    def clause(name):
        return ClauseReport(
            name=name, instances=0,
            worst_distance=-1.0, worst_bound=float("nan"),
            min_slack=float("inf"), worst_witness=(), violations=[],
        )

    c1 = clause("nearest_pair")
    c2 = clause("bonded_pair")
    c3 = clause("bonded_to_source")

    def record(cl, d, bound, points, n, m):
        """Fold the distances of one level pair, instance by instance, into ``cl``."""
        cl.instances += len(d)
        slack = bound - d
        i = int(np.argmin(slack))
        if slack[i] < cl.min_slack:
            cl.min_slack = float(slack[i])
            cl.worst_distance = float(d[i])
            cl.worst_bound = bound
            cl.worst_witness = (int(points[i]), n, m)
        for i in np.flatnonzero(d >= bound):
            cl.violations.append({"distance": float(d[i]), "bound": bound, "witness": (int(points[i]), n, m)})

    xs = np.arange(ground.n)
    depth = tower.seq.depth
    for n in range(1, depth):
        eps_n = tower.seq.level(n).epsilon
        for m in range(n + 1, depth + 1):
            net_m = np.asarray(tower.seq.level(m).net, dtype=np.intp)
            record(c1, _cross_max(ground, tower.q[n], tower.q[m]), eps_n, xs, n, m)
            record(c2, _cross_max(ground, tower.composite(n, m), net_m[:, None]), eps_n, net_m, n, m)
            image = tower.union_image(n, m, tower.positions(m, tower.q[m]))
            record(c3, _cross_max(ground, image, xs[:, None]), eps_n, xs, n, m)

    return DistanceBoundsReport(clauses=[c1, c2, c3])


def export_poset_dot(hl: HyperLevel, path: str) -> None:
    """DOT digraph with an edge C -> D exactly when D covers C; labels list ground indices."""
    net = hl.level.net

    def label(el):
        return "{" + ",".join(str(net[v]) for v in el) + "}"

    with open(path, "w") as fh:
        fh.write("digraph hyperlevel {\n")
        fh.write(f'  graph [label="level {hl.level.index}, epsilon {hl.level.epsilon!r}"];\n')
        for i, el in enumerate(hl.elements):
            fh.write(f'  e{i} [label="{label(el)}"];\n')
        for i, j in hl.covering_pairs():
            fh.write(f"  e{i} -> e{j};\n")
        fh.write("}\n")


def export_poset_csv(ground: MetricGround, hl: HyperLevel, path: str) -> None:
    """One row per element; members are ground indices, and diameters are computed here from ``ground``."""
    net = hl.level.net
    diameters = row_diameters(ground, np.asarray(net, dtype=np.intp)[hl.table]).tolist()
    with open(path, "w") as fh:
        fh.write("element_id,cardinality,diameter,members\n")
        for i, el in enumerate(hl.elements):
            members = " ".join(str(net[v]) for v in el)
            fh.write(f"{i},{len(el)},{diameters[i]!r},{members}\n")
