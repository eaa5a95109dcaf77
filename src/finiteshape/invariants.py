"""Homology invariants of the hyperspace tower over the two-element field.

Homology is computed on the scale complex of every level: its k-simplices
are the (k+1)-point net subsets of diameter below twice the level scale.
Its barycentric subdivision, the order complex of the hyperspace poset, is
kept for exports and as the tests' reference route.

The scale complex is a flag (Vietoris-Rips) complex: a set of net points is
a simplex exactly when each pair of them is an edge.  So a level is read as
its graph, the bitmasks its hyperlevel stores, which both collapses take
(``_neighbourhoods``), and strong-collapsed on it.  A vertex u is
dominated by a neighbour w when the closed neighbourhood of u lies inside
that of w; then every simplex through u spans a simplex with w, so u ↦ w is
a simplicial retraction contiguous to the identity, and removing u keeps the
homotopy type (Barmak & Minian, *Strong homotopy types, nerves and
collapses*, 2012; Boissonnat & Pritam, *Edge collapse and persistence of
flag complexes*, 2020).  Removing dominated vertices until none is left
gives the core, and composing the elementary retractions gives a simplicial
retraction r onto it whose inclusion is a homotopy inverse.  The core's
full subcomplex plus the edges u-w of the removals, a forest hanging off
the core, has the same homology, and every vertex lies in the component of
r(u).  A cone reduces to a point.

The core's edges are collapsed next.  An edge uv is dominated by a vertex
w outside it when N[u] ∩ N[v] ⊆ N[w], closed neighbourhoods; then the link
of uv in the flag complex is a cone with apex w, so removing uv and every
simplex through it keeps the homotopy type (Boissonnat & Pritam 2020;
Glisse & Pritam, *Swap, shift and trim to edge collapse a filtration*,
2022).  Removing dominated edges until none is left gives the graph whose
triangles are grown; its flag complex plus the forest is the chain complex
that is reduced.  On a circle's levels that graph is one cycle with trees
hanging off it, and no triangle.  On chains a removed uv retracts to
uw + wv, which were edges when uv was removed, because the triangle uvw
was then in the complex; replaying the removals in order carries a cycle
of the core's flag complex to a homologous cycle of what is left.

The vertex map a -> min p({a}) of a bonding map p sends a fine simplex C
into p(C), whose diameter p has checked, so it is simplicial on scale
complexes (collapsed simplices are sent to zero).  The induced maps on
homology are computed exactly: degree 0 through component tracking, degree
1 by pushing explicit cycle representatives through the vertex map, the
coarse vertex retraction and the coarse edge retraction, and counting
independence modulo the boundaries of what is left of the coarse core.
Fine representatives are cycles of a subcomplex of the fine scale complex,
so pushing them is valid.  The stabilized induced ranks in degrees 0 and 1
over a trailing window of levels are the reported shape invariants of the
finite tower; no degree above 1 is computed.
"""

from __future__ import annotations

import bisect
import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

from .construction import Level
from .gf2 import ChainHomology
from .hyperspace import (
    HyperLevel,
    MultiMap,
    Tower,
    bonding_map,
    build_hyperlevel,
    graph_edges,
    grow_cliques,
)
from .metric import MetricGround


class HomologyCheckError(AssertionError):
    """A consistency check of the shape stage failed on the built tower."""


@dataclass(frozen=True)
class SimplicialComplex:
    """Abstract complex: per-dimension tuples of sorted vertex tuples."""

    n_vertices: int
    simplices: tuple[tuple[tuple[int, ...], ...], ...]

    def count(self, dim: int) -> int:
        if dim >= len(self.simplices):
            return 0
        return len(self.simplices[dim])


def scale_complex(hl: HyperLevel) -> SimplicialComplex:
    """Scale complex of a level, read off its hyperspace level.

    The k-simplices are the elements of k + 1 net points, up to the
    triangles (exactly what homology through degree 1 consumes); vertices
    are net positions, as in the elements themselves.  Elements are listed
    by size, so each size is one slice; the cap must be at least 3.
    """
    if hl.cap < 3:
        raise ValueError(f"cardinality cap {hl.cap} too small for simplices of 3 points")
    bounds = [bisect.bisect_left(hl.elements, size, key=len) for size in range(1, 5)]
    simplices = tuple(hl.elements[lo:hi] for lo, hi in zip(bounds, bounds[1:]))
    return SimplicialComplex(n_vertices=len(hl.level.net), simplices=simplices)


def rips_complex(ground: MetricGround, level: Level) -> SimplicialComplex:
    """Scale complex of a level: simplices are small-diameter net subsets.

    Simplices run up to the triangles, exactly what homology through degree
    1 consumes.  Vertices are net positions.
    """
    return scale_complex(build_hyperlevel(ground, level, cap=3))


def order_complex(hl: HyperLevel) -> SimplicialComplex:
    """Chains of the inclusion order, up to dimension 2.

    Vertices are element ids; a k-simplex is a strict chain of k+1 elements.
    Equals the barycentric subdivision of the scale complex within the
    cardinality cap.
    """
    index = hl._index
    by_dim: list[list[tuple[int, ...]]] = [[(i,) for i in range(hl.n_elements)], [], []]

    # descending towers below each top element; element ids grow with
    # cardinality, so the reversed tower is an increasing id tuple
    def extend(tower: list[int], bottom: tuple[int, ...]):
        if len(tower) >= 2:
            by_dim[len(tower) - 1].append(tuple(reversed(tower)))
        if len(tower) == 3 or len(bottom) < 2:
            return
        for r in range(1, len(bottom)):
            for sub in itertools.combinations(bottom, r):
                tower.append(index[sub])
                extend(tower, sub)
                tower.pop()

    for j, el in enumerate(hl.elements):
        if len(el) >= 2:
            extend([j], el)

    return SimplicialComplex(
        n_vertices=hl.n_elements,
        simplices=tuple(tuple(sorted(simplices)) for simplices in by_dim),
    )


def betti(cx: SimplicialComplex) -> tuple[int, int]:
    """Betti numbers (b_0, b_1) over the two-element field, exact."""
    edges, triangles = (*cx.simplices[1:3], (), ())[:2]
    hom = ChainHomology(cx.n_vertices, edges, triangles)
    return hom.b0, hom.b1


@dataclass(frozen=True)
class StrongCollapse:
    """Strong collapse of a flag complex, given by its 1-skeleton.

    ``removals`` lists (u, w) in removal order: when u was removed, its
    closed neighbourhood among the vertices still present lay inside that of
    its neighbour w.  ``core`` is what is left, sorted; no core vertex is
    dominated.  ``retraction`` sends every vertex to the core vertex its
    chain of dominators ends at, and is the identity on the core.
    ``ahead[v]`` is the bitmask of the core neighbours above v of a core
    vertex v (0 off the core): the core's edges, as ``grow_cliques`` reads
    them.
    """

    core: tuple[int, ...]
    removals: tuple[tuple[int, int], ...]
    retraction: tuple[int, ...]
    ahead: tuple[int, ...]


def _neighbourhoods(ahead) -> tuple[list[int], list[int], list[int]]:
    """Closed neighbourhoods N[v] of the graph of ``ahead``, as bitmasks, and its edges u < v.

    The edges come as two lists, in lex order (``graph_edges``).
    """
    closed = [1 << v | mask for v, mask in enumerate(ahead)]
    i, j = (a.tolist() for a in graph_edges(ahead))
    for u, v in zip(i, j):
        closed[v] |= 1 << u
    return closed, i, j


def strong_collapse(ahead) -> StrongCollapse:
    """Remove dominated vertices of the flag complex of a graph until none is left.

    The graph's edges are i < j with bit j set in ``ahead[i]``; closed
    neighbourhoods are Python-int bitmasks (``_neighbourhoods``).  Vertices
    are examined from a worklist that starts with every vertex in index
    order; a removal re-queues only the removed vertex's neighbours, the
    only vertices whose domination it can create.  A removal clears its bit
    from the neighbourhoods of the vertices still present, so what is left
    of them at the end is the core's adjacency.  The dominator of a vertex
    is its lowest-index neighbour that dominates it, so the result is
    determined by the edges alone.
    """
    n_vertices = len(ahead)
    closed, i, j = _neighbourhoods(ahead)
    adjacent: list[list[int]] = [[] for _ in ahead]
    for u, v in zip(i, j):  # in lex order, so every list comes out ascending
        adjacent[u].append(v)
        adjacent[v].append(u)
    alive = [True] * n_vertices
    queued = [True] * n_vertices
    worklist = deque(range(n_vertices))
    removals = []
    while worklist:
        u = worklist.popleft()
        queued[u] = False
        mask = closed[u]
        for w in adjacent[u]:
            if alive[w] and closed[w] & mask == mask:
                break
        else:
            continue
        alive[u] = False
        removals.append((u, w))
        for x in adjacent[u]:
            if alive[x]:
                closed[x] &= ~(1 << u)
                if not queued[x]:
                    queued[x] = True
                    worklist.append(x)
    retraction = list(range(n_vertices))
    for u, w in reversed(removals):
        retraction[u] = retraction[w]
    core = tuple(v for v in range(n_vertices) if alive[v])
    ahead = tuple(closed[v] >> (v + 1) << (v + 1) if alive[v] else 0 for v in range(n_vertices))
    return StrongCollapse(core=core, removals=tuple(removals), retraction=tuple(retraction), ahead=ahead)


def edge_collapse(ahead) -> tuple[list[int], list[int]]:
    """Remove dominated edges of the flag complex of a graph until none is left.

    The graph's edges are i < j with bit j set in ``ahead[i]``, as
    ``grow_cliques`` reads them.  An edge uv is dominated by a vertex
    w not in {u, v} when N[u] ∩ N[v] ⊆ N[w], closed neighbourhoods in the
    graph still present, kept as Python-int bitmasks; then uvw is a
    triangle.  Edges are examined from a worklist that starts with every
    edge in lex order.  Removing uv shrinks the common neighbourhood of an
    edge only at u or at v, and only of the edges ux and vx to a common
    neighbour x of u and v, so only those are re-queued, unless they are
    still on the worklist (``queued``).  The witness is
    the lowest-index dominator, so the result is determined by the edges
    alone.  Returns the ``ahead`` bitmasks of the edges left and the
    removals as a flat list u0, v0, w0, u1, v1, w1, ... in removal order,
    with u < v.
    """
    closed, i, j = _neighbourhoods(ahead)
    worklist = deque(zip(i, j))
    queued = [mask ^ 1 << v for v, mask in enumerate(closed)]  # queued[u]: bitmask of the x with ux on the worklist
    removals: list[int] = []
    while worklist:
        u, v = worklist.popleft()
        bu, bv = 1 << u, 1 << v
        queued[u] ^= bv
        queued[v] ^= bu
        common = closed[u] & closed[v]
        others = common ^ bu ^ bv
        rest = others
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            if closed[w] & common == common:
                break
            rest ^= low
        else:
            continue
        closed[u] ^= bv
        closed[v] ^= bu
        removals += (u, v, w)
        at_u, at_v = others & ~queued[u], others & ~queued[v]
        queued[u] |= at_u
        queued[v] |= at_v
        rest = at_u | at_v
        while rest:
            low = rest & -rest
            rest ^= low
            x = low.bit_length() - 1
            if at_u & low:
                queued[x] |= bu
                worklist.append((u, x) if u < x else (x, u))
            if at_v & low:
                queued[x] |= bv
                worklist.append((v, x) if v < x else (x, v))
    return [mask >> (v + 1) << (v + 1) for v, mask in enumerate(closed)], removals


class LevelHomology:
    """Scale-complex homology of one hyperspace level, reduced on its strong-collapse core.

    Vertices of the complex are net positions, which number the points of
    every hyperlevel element and are also the element ids of the level's
    singletons (``build_hyperlevel`` lists them first).  The level's graph
    (``hl.ahead``) is strong-collapsed, and the core's
    dominated edges are removed (``edge_collapse``); ``edge_removals`` keeps
    those removals, flat, for the induced maps.  The edges and triangles of
    what is left are grown from its adjacency (``grow_cliques``, lex order,
    within its element budget).  ``hom`` reduces that flag complex plus the
    edges u-w of the vertex removals, which hang a forest off the core: its
    Betti numbers (b_0, b_1) are the level's, ``hom.comp_of[u]`` is the
    component of ``collapse.retraction[u]``, and its degree-1
    representatives are cycles on the edges left of the core.
    """

    def __init__(self, hl: HyperLevel):
        self.collapse = strong_collapse(hl.ahead)
        ahead, self.edge_removals = edge_collapse(self.collapse.ahead)
        _, reduced_edges, triangles = grow_cliques(ahead, 3)
        reduced_edges += [(u, w) if u < w else (w, u) for u, w in self.collapse.removals]
        self.hom = ChainHomology(len(hl.ahead), reduced_edges, triangles)
        self.betti = (self.hom.b0, self.hom.b1)


def bonding_vertex_map(p: MultiMap, fine: HyperLevel, coarse: HyperLevel) -> list[int]:
    """Vertex map a -> min p({a}) of a map out of ``fine``: entry v is a coarse net position.

    Singletons come first among the fine elements, so their images are the
    first rows of ``p``; ``Level.net`` is sorted, so the coarse position of
    each row's minimum (a ground index) is found by binary search.
    """
    m = len(fine.level.net)
    return np.searchsorted(coarse.level.net, p.table[:m].min(axis=1)).tolist()


def induced_homology_map(vertex_map: list[int], fine_data: LevelHomology, coarse_data: LevelHomology,
                         degree: int) -> int:
    """Rank of the map induced on degree-k scale-complex homology by a simplicial vertex map.

    ``vertex_map`` sends each fine net position to a coarse one (as
    ``bonding_vertex_map`` does).  Each fine representative cycle is pushed
    through it and then the coarse vertex retraction, which gives a chain
    of the coarse core's flag complex.  The coarse edge removals are then
    replayed on the chains of every representative at once, in removal
    order: a removed uv becomes uw + wv.  Each removal adds only edges
    removed later, or never, so one pass leaves chains on the edges left,
    homologous to the pushed ones, and they are reduced against the
    boundaries of the complex left.  A pushed edge that is neither a coarse
    core edge left nor a removed one, or a pushed chain that is not a
    cycle, raises ``HomologyCheckError``.
    """
    if degree not in (0, 1):
        raise ValueError("induced ranks are computed in degrees 0 and 1")

    if degree == 0:
        # one coarse component per fine component; rank = distinct images
        comps = {}
        for v, pv in enumerate(vertex_map):
            comps.setdefault(fine_data.hom.comp_of[v], coarse_data.hom.comp_of[pv])
        return len(set(comps.values()))

    coarse_edge_id = coarse_data.hom.edge_id
    coarse_edges = coarse_data.hom.edges
    fine_edges = fine_data.hom.edges
    to_core = [coarse_data.collapse.retraction[pv] for pv in vertex_map]
    reps = fine_data.hom.h1_representatives()
    chains: dict[tuple[int, int], int] = {}  # coarse core edge -> bitmask of the representatives through it
    for r, rep in enumerate(reps):
        for eid in rep:
            u, v = fine_edges[eid]
            pu, pv = to_core[u], to_core[v]
            if pu != pv:
                key = (pu, pv) if pu < pv else (pv, pu)
                chains[key] = chains.get(key, 0) ^ 1 << r
    # the edge retraction, on every representative at once: in removal order
    # a removed uv becomes uw + wv, edges that were present then, so no
    # removed edge is left afterwards
    removals = iter(coarse_data.edge_removals)
    for a, b, w in zip(removals, removals, removals):
        through = chains.pop((a, b), 0)
        if through:
            for half in ((a, w) if a < w else (w, a), (w, b) if w < b else (b, w)):
                chains[half] = chains.get(half, 0) ^ through
    supports: list[list[int]] = [[] for _ in reps]
    for key, through in chains.items():  # in the order the keys were first pushed
        if key not in coarse_edge_id:
            raise HomologyCheckError(f"pushed edge {key} is not an edge of the coarse core; chain map broken")
        while through:
            low = through & -through
            through ^= low
            supports[low.bit_length() - 1].append(coarse_edge_id[key])
    for support in supports:
        boundary: set[int] = set()
        for eid in support:
            boundary ^= set(coarse_edges[eid])
        if boundary:
            raise HomologyCheckError("pushed representative is not a cycle; chain map broken")
    return coarse_data.hom.image_rank(supports)


@dataclass
class LevelRow:
    index: int
    epsilon: float
    net_size: int
    n_edges: int
    betti: tuple[int, int]
    core_size: int


@dataclass
class PairRow:
    fine_index: int
    coarse_index: int
    ranks: tuple[int, int]


@dataclass
class HomologyReport:
    """Betti numbers per level, induced ranks per pair, stabilized ranks.

    The stabilized ranks take the minimum over the consecutive pairs whose
    levels all sit inside the trailing window (window = 2 keeps exactly the
    final pair).  They are the tower's observable shape invariants; the true
    inverse-limit quantities are only witnessed, never exceeded, by a finite
    prefix.
    """

    levels: list[LevelRow]
    pairs: list[PairRow]
    stabilized: tuple[int, int]
    window: int


def shape_report(tower: Tower, window: int = 2) -> HomologyReport:
    """Full homology pipeline over a built tower (depth >= 2).

    Builds each level's graph (cap 2), reduces its collapsed
    scale complex once (``LevelHomology``), computes induced ranks along
    every consecutive bonding map, and stabilizes them over the trailing
    window (at least 2 levels, else ``ValueError``).  Each bonding map is
    checked where it can fail, its diameter (``BondingDiameterError``), and
    its vertex map is read once.  Every induced rank is checked against the
    Betti numbers it maps between, and every pushed representative to be a
    cycle (``HomologyCheckError``).
    """
    seq = tower.seq
    if seq.depth < 2:
        raise ValueError("shape report needs at least two levels")
    if window < 2:
        raise ValueError(f"stabilization window must be >= 2, got {window}")
    ground = seq.ground

    hls = [build_hyperlevel(ground, lv, cap=2) for lv in seq.levels]
    datas = [LevelHomology(hl) for hl in hls]

    rows = [
        LevelRow(index=lv.index, epsilon=lv.epsilon, net_size=len(lv.net), n_edges=hl.n_elements - len(lv.net),
                 betti=data.betti, core_size=len(data.collapse.core))
        for lv, hl, data in zip(seq.levels, hls, datas)
    ]

    pairs = []
    for k in range(len(hls) - 1):
        fine, coarse = hls[k + 1], hls[k]
        vertex_map = bonding_vertex_map(bonding_map(tower, fine), fine, coarse)
        ranks = tuple(induced_homology_map(vertex_map, datas[k + 1], datas[k], deg) for deg in (0, 1))
        for deg, r in enumerate(ranks):
            if r > min(datas[k + 1].betti[deg], datas[k].betti[deg]):
                raise HomologyCheckError(
                    f"induced rank {r} exceeds Betti bound at pair {k + 2}->{k + 1}, degree {deg}"
                )
        pairs.append(PairRow(fine_index=seq.levels[k + 1].index, coarse_index=seq.levels[k].index, ranks=ranks))

    first_level_in_window = seq.levels[max(0, seq.depth - window)].index
    tail = [pr for pr in pairs if pr.coarse_index >= first_level_in_window]
    stabilized = tuple(min(pr.ranks[d] for pr in tail) for d in (0, 1))

    return HomologyReport(levels=rows, pairs=pairs, stabilized=stabilized, window=window)


def export_complex_off(cx: SimplicialComplex, path: str) -> None:
    """Facet-list export: counts line, then one line per simplex of each dim."""
    with open(path, "w") as fh:
        fh.write("# finiteshape complex: vertex count, then simplex counts per dimension\n")
        counts = " ".join(str(len(s)) for s in cx.simplices)
        fh.write(f"{cx.n_vertices} {counts}\n")
        for k, simplices in enumerate(cx.simplices):
            for s in simplices:
                fh.write(f"{k} " + " ".join(str(v) for v in s) + "\n")


def export_complex_csv(cx: SimplicialComplex, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("dim,vertices\n")
        for k, simplices in enumerate(cx.simplices):
            for s in simplices:
                fh.write(f"{k}," + " ".join(str(v) for v in s) + "\n")


def write_homology_csv(report: HomologyReport, path: str) -> None:
    by_fine = {pr.fine_index: pr for pr in report.pairs}
    with open(path, "w") as fh:
        fh.write("n,b0,b1,rank0_to_prev,rank1_to_prev\n")
        for row in report.levels:
            b0, b1 = row.betti
            pr = by_fine.get(row.index)
            r0, r1 = pr.ranks if pr else ("", "")
            fh.write(f"{row.index},{b0},{b1},{r0},{r1}\n")
