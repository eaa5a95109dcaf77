"""Homology invariants of the hyperspace tower over the two-element field.

Homology is computed on the scale complex of every level: its k-simplices
are the (k+1)-point net subsets of diameter below twice the level scale,
read off the level's hyperspace poset.  The order complex of that poset
(strict inclusion chains) is the barycentric subdivision of the scale
complex within the cardinality cap, so the two have the same Betti numbers;
it is kept for exports, and the tests use it as the reference route.

Bonding maps are monotone, and their minimal selection sends singletons to
singletons, so its restriction to net points is a vertex map that is
simplicial on scale complexes (collapsed simplices are sent to zero).  The
induced maps on homology are computed exactly: degree 0 through component
tracking, degree 1 by pushing explicit cycle representatives and counting
independence modulo boundaries.  The stabilized induced ranks over a
trailing window of levels are the reported shape invariants of the finite
tower.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .construction import Level
from .gf2 import ChainHomology
from .hyperspace import (
    HyperLevel,
    MultiMap,
    Tower,
    bonding_map,
    build_hyperlevel,
    is_continuous,
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

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * len(s) for k, s in enumerate(self.simplices))

    def check_face_closed(self) -> None:
        for k in range(1, len(self.simplices)):
            lower = set(self.simplices[k - 1])
            for s in self.simplices[k]:
                for i in range(len(s)):
                    if s[:i] + s[i + 1:] not in lower:
                        raise AssertionError(f"face {s[:i] + s[i + 1:]} of {s} missing")


def scale_complex(hl: HyperLevel, maxdim: int = 1) -> SimplicialComplex:
    """Scale complex of a level, read off its hyperspace level.

    The k-simplices are the elements of k + 1 net points, up to dimension
    ``maxdim + 1`` (exactly what homology through degree ``maxdim``
    consumes), with vertices renumbered to local net positions.  The
    hyperlevel must be enumerated with a cap of at least ``maxdim + 2``.
    """
    top = maxdim + 2
    if hl.cap < top:
        raise ValueError(f"cardinality cap {hl.cap} too small for maxdim {maxdim}")
    position = {a: i for i, a in enumerate(hl.level.net)}
    by_dim: list[list[tuple[int, ...]]] = [[] for _ in range(top)]
    for el in hl.elements:
        if len(el) <= top:
            by_dim[len(el) - 1].append(tuple(position[a] for a in el))
    return SimplicialComplex(n_vertices=len(position), simplices=tuple(tuple(s) for s in by_dim))


def rips_complex(ground: MetricGround, level: Level, maxdim: int = 1, max_simplices: int = 2_000_000) -> SimplicialComplex:
    """Scale complex of a level: simplices are small-diameter net subsets.

    Simplices run up to dimension ``maxdim + 1``, exactly what homology
    through degree ``maxdim`` consumes.  Vertices are local net positions.
    """
    return scale_complex(build_hyperlevel(ground, level, cap=maxdim + 2, max_elements=max_simplices), maxdim)


def order_complex(hl: HyperLevel, maxdim: int = 1) -> SimplicialComplex:
    """Chains of the inclusion order, up to dimension maxdim + 1.

    Vertices are element ids; a k-simplex is a strict chain of k+1 elements.
    Equals the barycentric subdivision of the scale complex within the
    cardinality cap.
    """
    index = hl._index
    top_dim = maxdim + 1
    max_len = top_dim + 1
    by_dim: list[list[tuple[int, ...]]] = [[] for _ in range(top_dim + 1)]
    by_dim[0] = [(i,) for i in range(hl.n_elements)]

    # descending towers below each top element; element ids grow with
    # cardinality, so the reversed tower is an increasing id tuple
    def extend(tower: list[int], bottom: tuple[int, ...]):
        if len(tower) >= 2:
            by_dim[len(tower) - 1].append(tuple(reversed(tower)))
        if len(tower) == max_len or len(bottom) < 2:
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
        simplices=tuple(tuple(sorted(by_dim[k])) for k in range(top_dim + 1)),
    )


def chain_homology(cx: SimplicialComplex, maxdim: int = 1) -> ChainHomology:
    """Homology data of a complex through degree ``maxdim`` (its simplices up to dimension maxdim + 1)."""
    return ChainHomology(cx.n_vertices, *cx.simplices[1:maxdim + 2])


def betti(cx: SimplicialComplex, maxdim: int = 1, hom: ChainHomology | None = None) -> tuple[int, ...]:
    """Betti numbers b_0..b_maxdim over the two-element field, exact, for maxdim <= 2.

    ``hom`` is the already-built ``ChainHomology`` of ``cx`` through degree
    ``maxdim``, when the caller has one; otherwise it is built here.
    """
    if not 0 <= maxdim <= 2:
        raise ValueError(f"Betti numbers are computed through degree 2, not {maxdim}")
    if hom is None:
        hom = chain_homology(cx, maxdim)
    return (hom.b0, hom.b1, hom.b2)[:maxdim + 1]


class LevelHomology:
    """Cached scale-complex homology of one hyperspace level.

    Vertices of the complex are net positions, which are also the element
    ids of the level's singletons (``build_hyperlevel`` lists them first).
    """

    def __init__(self, hl: HyperLevel, maxdim: int = 1):
        self.hyperlevel = hl
        self.maxdim = maxdim
        cx = scale_complex(hl, maxdim)
        self.hom = chain_homology(cx, maxdim)
        self.betti = betti(cx, maxdim, self.hom)

    def h1_reps(self):
        return self.hom.h1_representatives()


def selection_vertex_map(p: MultiMap, fine: HyperLevel, coarse: HyperLevel) -> list[int]:
    """Element map of the fine poset into the coarse poset induced by a bonding map.

    The full image p(C) can exceed the cardinality cap when nearest-point
    ties stack up across the members of C, so the functor uses the minimal
    selection sel(C) = {min p({a}) : a in C}.  It is monotone, contained in
    p(C) pointwise (which makes it homotopic to the full map in the upper
    semifinite sense, so induced homology maps agree), and it always lands
    inside the stored elements: a selection that is not a coarse element
    raises ``KeyError``.  Checked on every fine element, this says the vertex
    map a -> min p({a}) is simplicial on scale complexes; that vertex map is
    the first ``len(fine.level.net)`` entries, because singletons come first
    and their ids are net positions.
    """
    singleton_min = {}
    for el, img in zip(fine.elements, p.images):
        if len(el) == 1:
            singleton_min[el[0]] = min(img)
    out = []
    for el in fine.elements:
        sel = tuple(sorted({singleton_min[a] for a in el}))
        out.append(coarse.element_id(sel))
    return out


def induced_homology_map(
    p: MultiMap,
    fine: HyperLevel,
    coarse: HyperLevel,
    degree: int,
    fine_data: LevelHomology | None = None,
    coarse_data: LevelHomology | None = None,
    vertex_map: list[int] | None = None,
) -> int:
    """Rank of the map induced on degree-k homology by a bonding map.

    Homology is that of the scale complexes (``LevelHomology``).  The vertex
    map sends a fine net point to the coarse net point min p({a}): the
    singleton part of the minimal selection (see ``selection_vertex_map``),
    whose check on every fine element makes it simplicial, with collapsed
    simplices sent to zero.  A caller that has already checked ``p`` monotone
    and built its selection map passes it as ``vertex_map``, and both steps
    are skipped (``shape_report`` does them once per bonding pair, not once
    per degree).
    """
    if degree not in (0, 1):
        raise ValueError("induced ranks are computed in degrees 0 and 1")
    if vertex_map is None:
        ok, ce = is_continuous(p, fine)
        if not ok:
            raise ValueError(f"bonding map is not monotone at element pair {ce}; refusing induced map")
        vertex_map = selection_vertex_map(p, fine, coarse)
    fine_data = fine_data or LevelHomology(fine)
    coarse_data = coarse_data or LevelHomology(coarse)
    vertex_map = vertex_map[:len(fine.level.net)]

    if degree == 0:
        # one coarse component per fine component; rank = distinct images
        comps = {}
        for v, pv in enumerate(vertex_map):
            comps.setdefault(fine_data.hom.comp_of[v], coarse_data.hom.comp_of[pv])
        return len(set(comps.values()))

    counter = coarse_data.hom.image_rank_counter()
    coarse_edge_id = coarse_data.hom.edge_id
    coarse_edges = coarse_data.hom.edges
    fine_edges = fine_data.hom.edges
    for rep in fine_data.h1_reps():
        pushed: set[int] = set()
        for eid in rep:
            u, v = fine_edges[eid]
            pu, pv = vertex_map[u], vertex_map[v]
            if pu == pv:
                continue
            key = (pu, pv) if pu < pv else (pv, pu)
            pushed ^= {coarse_edge_id[key]}
        boundary: set[int] = set()
        for eid in pushed:
            boundary ^= set(coarse_edges[eid])
        if boundary:
            raise HomologyCheckError("pushed representative is not a cycle; chain map broken")
        counter.add_cycle(pushed)
    return counter.rank


@dataclass
class LevelRow:
    index: int
    epsilon: float
    net_size: int
    n_elements: int
    betti: tuple[int, ...]


@dataclass
class PairRow:
    fine_index: int
    coarse_index: int
    ranks: tuple[int, ...]


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
    stabilized: tuple[int, ...]
    window: int
    maxdim: int
    cap: int

    def level_row(self, index: int) -> LevelRow:
        for row in self.levels:
            if row.index == index:
                return row
        raise KeyError(index)


def shape_report(
    tower: Tower,
    maxdim: int = 1,
    window: int = 2,
    cap: int | None = None,
    max_elements: int = 2_000_000,
) -> HomologyReport:
    """Full homology pipeline over a built tower (depth >= 2).

    Builds hyperspace levels, reads each level's scale complex off its
    hyperspace level and reduces it once, computes induced ranks along every
    consecutive bonding map, and stabilizes them over the trailing window.
    Each bonding map is checked monotone once, and its selection map is
    checked on every fine element; every induced rank is checked against the
    Betti numbers it maps between, and every pushed representative is checked
    to be a cycle.  A failed check raises ``HomologyCheckError``.
    """
    seq = tower.seq
    if seq.depth < 2:
        raise ValueError("shape report needs at least two levels")
    if cap is None:
        cap = maxdim + 2
    ground = seq.ground

    hls = [build_hyperlevel(ground, lv, cap=cap, max_elements=max_elements) for lv in seq.levels]
    datas = [LevelHomology(hl, maxdim) for hl in hls]

    rows = [
        LevelRow(index=lv.index, epsilon=lv.epsilon, net_size=len(lv.net), n_elements=hl.n_elements, betti=data.betti)
        for lv, hl, data in zip(seq.levels, hls, datas)
    ]

    pairs = []
    for k in range(len(hls) - 1):
        fine, coarse = hls[k + 1], hls[k]
        p = bonding_map(tower, fine)
        ok, ce = is_continuous(p, fine)
        if not ok:
            raise HomologyCheckError(
                f"bonding map {fine.level.index}->{coarse.level.index} is not monotone at element pair {ce}"
            )
        vertex_map = selection_vertex_map(p, fine, coarse)
        ranks = tuple(
            induced_homology_map(p, fine, coarse, deg, datas[k + 1], datas[k], vertex_map)
            for deg in range(min(maxdim, 1) + 1)
        )
        for deg, r in enumerate(ranks):
            if r > min(datas[k + 1].betti[deg], datas[k].betti[deg]):
                raise HomologyCheckError(
                    f"induced rank {r} exceeds Betti bound at pair {k + 2}->{k + 1}, degree {deg}"
                )
        pairs.append(PairRow(fine_index=seq.levels[k + 1].index, coarse_index=seq.levels[k].index, ranks=ranks))

    first_level_in_window = seq.levels[max(0, seq.depth - window)].index
    tail = [pr for pr in pairs if pr.coarse_index >= first_level_in_window]
    if not tail:
        tail = pairs[-1:]
    n_deg = len(tail[0].ranks)
    stabilized = tuple(min(pr.ranks[d] for pr in tail) for d in range(n_deg))

    return HomologyReport(levels=rows, pairs=pairs, stabilized=stabilized, window=window, maxdim=maxdim, cap=cap)


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
            b0 = row.betti[0]
            b1 = row.betti[1] if len(row.betti) > 1 else 0
            pr = by_fine.get(row.index)
            r0 = pr.ranks[0] if pr else ""
            r1 = pr.ranks[1] if pr and len(pr.ranks) > 1 else ("" if pr is None else 0)
            fh.write(f"{row.index},{b0},{b1},{r0},{r1}\n")
