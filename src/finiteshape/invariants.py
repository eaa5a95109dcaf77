"""Homology invariants of the hyperspace tower over the two-element field.

Two complexes are attached to every level: the scale complex, whose
k-simplices are the (k+1)-point net subsets of diameter below twice the level
scale, and the order complex of the hyperspace poset, whose k-simplices are
strict inclusion chains of k+1 elements.  The order complex is the barycentric
subdivision of the scale complex (restricted to the cardinality cap), so their
Betti numbers must agree; the pipeline reads both complexes off one
enumeration of the level's small subsets, reduces each separately, and
cross-checks the results.

Bonding maps are monotone, hence simplicial on order complexes (chains map to
chains, with collapsed chains sent to zero).  Their induced maps on homology
are computed exactly: degree 0 through component tracking, degree 1 by pushing
explicit cycle representatives and counting independence modulo boundaries.
The stabilized induced ranks over a trailing window of levels are the
reported shape invariants of the finite tower.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .construction import Level
from .gf2 import ChainHomology, boundary_columns, rank_of
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


def chain_homology(cx: SimplicialComplex) -> ChainHomology:
    """Degree-0 and degree-1 homology data of a complex (its edges and triangles)."""
    edges = cx.simplices[1] if len(cx.simplices) > 1 else ()
    triangles = cx.simplices[2] if len(cx.simplices) > 2 else ()
    return ChainHomology(cx.n_vertices, edges, triangles)


def betti(cx: SimplicialComplex, maxdim: int = 1, hom: ChainHomology | None = None) -> tuple[int, ...]:
    """Betti numbers b_0..b_maxdim over the two-element field, exact.

    ``hom`` is the already-built ``ChainHomology`` of ``cx``, when the caller
    has one; otherwise it is built here.
    """
    if hom is None:
        hom = chain_homology(cx)
    out = [hom.b0]
    if maxdim >= 1:
        out.append(hom.b1)
    ranks_up = {2: hom.rank_d2}
    for k in range(2, maxdim + 1):
        sk = cx.simplices[k] if len(cx.simplices) > k else ()
        sk1 = cx.simplices[k + 1] if len(cx.simplices) > k + 1 else ()
        idx_k = {s: i for i, s in enumerate(sk)}
        rank_up = rank_of(boundary_columns(sk1, idx_k)) if sk1 else 0
        ranks_up[k + 1] = rank_up
        b_k = len(sk) - ranks_up[k] - rank_up
        out.append(b_k)
    return tuple(out)


class LevelHomology:
    """Cached order-complex homology of one hyperspace level."""

    def __init__(self, hl: HyperLevel, maxdim: int = 1):
        self.hyperlevel = hl
        self.maxdim = maxdim
        self.complex = order_complex(hl, maxdim)
        self.hom = chain_homology(self.complex)
        self.betti = betti(self.complex, maxdim, self.hom)

    def h1_reps(self):
        return self.hom.h1_representatives()


def selection_vertex_map(p: MultiMap, fine: HyperLevel, coarse: HyperLevel) -> list[int]:
    """Monotone vertex map on order-complex vertices induced by a bonding map.

    The full image p(C) can exceed the cardinality cap when nearest-point
    ties stack up across the members of C, so the functor uses the minimal
    selection sel(C) = {min p({a}) : a in C}.  It is monotone, contained in
    p(C) pointwise (which makes it homotopic to the full map in the upper
    semifinite sense, so induced homology maps agree), and it always lands
    inside the stored elements.
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

    The vertex map sends an element of the fine poset to its image element of
    the coarse poset (minimal selection, see ``selection_vertex_map``);
    monotonicity (checked, continuity precondition) makes it simplicial on
    order complexes, with collapsing chains sent to zero.  A caller that has
    already checked ``p`` monotone and built its selection map passes it as
    ``vertex_map``, and both steps are skipped (``shape_report`` does them
    once per bonding pair, not once per degree).
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

    if degree == 0:
        # one coarse component per fine component; rank = distinct images
        comps = {}
        for v in range(fine.n_elements):
            comps.setdefault(fine_data.hom.comp_of[v], coarse_data.hom.comp_of[vertex_map[v]])
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
    betti_order: tuple[int, ...]
    betti_rips: tuple[int, ...]
    simplex_counts: tuple[int, ...]


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

    Builds hyperspace levels, verifies the barycentric cross-check
    (order-complex Betti numbers equal scale-complex Betti numbers, exact),
    computes induced ranks along every consecutive bonding map, and stabilizes
    them over the trailing window.  Each level is enumerated once and both of
    its complexes are read off that hyperspace level; each order complex is
    reduced once, and each bonding map is checked monotone once.  A failed
    check raises ``HomologyCheckError``.
    """
    seq = tower.seq
    if seq.depth < 2:
        raise ValueError("shape report needs at least two levels")
    if cap is None:
        cap = maxdim + 2
    ground = seq.ground

    hls = [build_hyperlevel(ground, lv, cap=cap, max_elements=max_elements) for lv in seq.levels]
    datas = [LevelHomology(hl, maxdim) for hl in hls]

    rows = []
    for lv, hl, data in zip(seq.levels, hls, datas):
        b_rips = betti(scale_complex(hl, maxdim), maxdim)
        if b_rips != data.betti:
            raise HomologyCheckError(
                f"barycentric invariance failed at level {lv.index}: "
                f"order {data.betti} vs scale {b_rips}"
            )
        rows.append(
            LevelRow(
                index=lv.index,
                epsilon=lv.epsilon,
                net_size=len(lv.net),
                n_elements=hl.n_elements,
                betti_order=data.betti,
                betti_rips=b_rips,
                simplex_counts=tuple(data.complex.count(k) for k in range(maxdim + 2)),
            )
        )

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


def chain_map_matrices(
    vertex_map: list[int],
    fine: HyperLevel,
    coarse: HyperLevel,
    maxdim: int = 1,
) -> list[dict[int, frozenset[int]]]:
    """Chain-level matrices of a simplicial vertex map, per dimension.

    Matrix k maps fine k-chains to coarse k-chains: column j holds the rows of
    the image of fine simplex j (empty when the chain collapses).  Exact GF(2)
    data, used to check functoriality at the chain level.  Vertex maps come
    from ``selection_vertex_map``; composites compose vertex maps.
    """
    fine_cx = order_complex(fine, maxdim)
    coarse_cx = order_complex(coarse, maxdim)
    matrices = []
    for k in range(maxdim + 2):
        rows_index = {s: i for i, s in enumerate(coarse_cx.simplices[k])} if k < len(coarse_cx.simplices) else {}
        cols = {}
        if k < len(fine_cx.simplices):
            for j, s in enumerate(fine_cx.simplices[k]):
                image = tuple(sorted({vertex_map[v] for v in s}))
                if len(image) == len(s):
                    cols[j] = frozenset({rows_index[image]})
                else:
                    cols[j] = frozenset()
        matrices.append(cols)
    return matrices


def gf2_matrix_product(
    outer: dict[int, frozenset[int]],
    inner: dict[int, frozenset[int]],
) -> dict[int, frozenset[int]]:
    """Product over GF(2) of sparse column maps: (outer . inner)(j)."""
    out = {}
    for j, mid in inner.items():
        acc: set[int] = set()
        for m in mid:
            acc ^= set(outer.get(m, frozenset()))
        out[j] = frozenset(acc)
    return out


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
            b0 = row.betti_order[0]
            b1 = row.betti_order[1] if len(row.betti_order) > 1 else 0
            pr = by_fine.get(row.index)
            r0 = pr.ranks[0] if pr else ""
            r1 = pr.ranks[1] if pr and len(pr.ranks) > 1 else ("" if pr is None else 0)
            fh.write(f"{row.index},{b0},{b1},{r0},{r1}\n")
