"""Reference routes for the ground statistics, the tower tables, the distance checks and the homology.

``reference_row_extremes`` reads the diameter and the largest
nearest-neighbour distance off one pass over half the pairs, in row blocks;
``reference_warsaw_graph_table`` forms the Warsaw arc-length table over the
whole grid at once.  The library computes the same floats from leaf-pair
tiles and in chunks.  ``reference_enumerate_small_subsets`` compares every
net pair with the hyperlevel's scale, where the library reads only the pairs
close along the ground's sort axis.

Each tower function here computes, one ground point or one net point at a
time, what the library computes as array reductions over a ``Tower``, as a
prefix of one greedy order, or over covering pairs only.  The tests require
equal results: the same tuples, the same maxima and the same first witness
in scan order (max is exact, so no tolerance applies).

The homology functions reduce whole complexes, with no strong collapse:
the full scale complex of each level, as the library reduced it before it
collapsed dominated vertices, and the order complex, its barycentric
subdivision.  They give chain-level matrices of the selection map, and
induced ranks pushed through the selection map on every vertex.
``FullCoreHomology`` reduces a level's whole strong-collapse core, every
core triangle grown, as the library reduced it before it collapsed
dominated edges; ``full_core_ranks`` pushes cycles through the vertex map
and the core retraction alone.  Its core comes from
``reference_strong_collapse``, which reads the level's edges as tuples, as
the library did before it collapsed straight from the graph's bitmasks.
``EveryColumnHomology``, ``every_column_pivots`` and ``rank_of`` reduce
every boundary column of a complex, with no stop at full rank.

The oracles that the pipeline never reads live here too: the whole distance
table of a ground, a net's coverage radius off the whole ground x net
block (the library reads a stored tower's coverage off the pairs within its
stored radius), the largest image diameter of a map, the element index
of a hyperlevel, the selection map of a bonding map, the Euler
characteristic and face closure of a complex, and the distance-matrix CSV
writer.  So do the approximative maps, finite prefixes of multivalued map
sequences, with their conversion into maps of finite type (Sanjurjo,
*Trans. AMS* 1992): criterion 6 checks its ``2 beta + D`` diameter bound.
"""

import itertools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from finiteshape.gf2 import ChainHomology, ColumnReducer
from finiteshape.hyperspace import MultiMap, _union_rows, grow_cliques, nearest_sets, row_diameters
from finiteshape.invariants import StrongCollapse, bonding_vertex_map, order_complex, scale_complex
from finiteshape.metric import _squared_sums, row_blocks


def dense(ground):
    """The whole ``n x n`` distance table: the stored one, or computed afresh from coordinates."""
    return ground.block(slice(None), slice(None))


def gamma(ground, net) -> float:
    """Coverage radius of a net: the largest distance from a ground point to it, off the whole ground x net block."""
    net = np.asarray(tuple(net), dtype=np.intp)
    if not net.size:
        raise ValueError("net must be non-empty")
    return max(float(ground.block(rows, net).min(axis=1).max()) for rows in row_blocks(ground.n, len(net)))


def map_diameter(ground, table):
    """Largest image diameter of a map given by its padded table (0 for singleton images)."""
    return float(row_diameters(ground, table).max(initial=0.0))


def reference_row_extremes(ground):
    """(diameter, largest nearest-neighbor distance) from one pass over half the table.

    Each row block reads only the columns from its first row onwards, so
    every unordered pair lies in exactly one block; its row and column minima
    both feed the nearest-neighbor distances.  A coordinate ground compares
    squared sums and takes the root of the two extremes only.
    """
    n = ground.n
    farthest = 0.0
    nearest = np.full(n, np.inf)
    for rows in row_blocks(n, n):
        cols = slice(rows.start, None)
        if ground.table is None:
            block = _squared_sums(ground.coords, (rows, None), (None, cols))
        else:
            block = ground.block(rows, cols).copy()
        farthest = max(farthest, float(block.max()))
        np.fill_diagonal(block, np.inf)  # a point is not its own neighbor
        np.minimum(nearest[rows], block.min(axis=1), out=nearest[rows])
        np.minimum(nearest[cols], block.min(axis=0), out=nearest[cols])
    widest = float(nearest.max()) if n > 1 else 0.0
    if ground.table is None:
        return math.sqrt(farthest), math.sqrt(widest)
    return farthest, widest


def reference_warsaw_graph_table(x_min, grid):
    """The Warsaw arc-length table ``(u, s)`` formed over the whole grid in one shot."""
    u = np.linspace(math.pi / 2.0, 1.0 / x_min, grid)
    integrand = np.sqrt(np.cos(u) ** 2 + u ** (-4.0))
    du = np.diff(u)
    s = np.concatenate([[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * du)])
    return u, s


def reference_build_net(dist, epsilon):
    """Greedy farthest-point net at ``epsilon``, run from its seed for this one threshold.

    Seeded at index 0; argmax ties resolve to the lowest index; stops at the
    first farthest point closer than ``epsilon``.
    """
    net = [0]
    cover = dist[0].copy()
    while True:
        far = int(np.argmax(cover))
        if cover[far] < epsilon:
            break
        net.append(far)
        np.minimum(cover, dist[far], out=cover)
    return tuple(sorted(net))


def reference_enumerate_small_subsets(ground, net, two_eps, cap):
    """The hyperlevel elements of ``hyperspace.enumerate_small_subsets``, every net pair compared.

    The net x net distances are read in row blocks, each from its first row
    on, so every pair is read once whatever its distance along the sort axis.
    """
    net = np.asarray(net, dtype=np.intp)
    m = len(net)
    ahead = []  # ahead[i]: bitmask of the positions j > i closer than two_eps to i
    for rows in row_blocks(m, m):
        close = ground.block(net[rows], net[rows.start:]) < two_eps  # columns from the block's first row on
        for i, packed in zip(range(rows.start, rows.stop), np.packbits(close, axis=1, bitorder="little")):
            ahead.append(int.from_bytes(packed.tobytes(), "little") >> (i - rows.start + 1) << (i + 1))
    return list(itertools.chain.from_iterable(grow_cliques(ahead, cap)))


def write_distmatrix_csv(ground, path):
    """The ground's distance table as a headerless CSV, one row per point, read in row blocks."""
    with open(path, "w") as fh:
        for rows in row_blocks(ground.n, ground.n):
            for row in ground.block(rows, slice(None)):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def element_id(hl, element):
    """Id of an element of a hyperlevel, given as net positions in any order; ``KeyError`` if absent."""
    el = tuple(sorted(element))
    got = hl._index.get(el)
    if got is None:
        raise KeyError(f"{el} is not an element of this hyperspace level")
    return got


def selection_vertex_map(p, fine, coarse):
    """Element map of the fine poset into the coarse poset induced by a bonding map.

    The full image p(C) can exceed the cardinality cap when nearest-point
    ties stack up across the members of C, so the functor uses the minimal
    selection sel(C) = {min p({a}) : a in C}, whose singleton part is
    ``bonding_vertex_map``.  It is monotone and contained in p(C) pointwise
    (so homotopic to the full map in the upper semifinite sense), and once
    ``bonding_map`` has returned it lands inside the stored elements, since
    |sel(C)| <= |C| and diam sel(C) <= diam p(C); one outside raises
    ``KeyError``.
    """
    vertex_map = bonding_vertex_map(p, fine, coarse)
    return [element_id(coarse, {vertex_map[v] for v in el}) for el in fine.elements]


def proper_subset_pairs(hl):
    """All comparable pairs (i, j) of a hyperlevel with element i a proper subset of j."""
    for j, el in enumerate(hl.elements):
        for r in range(1, len(el)):
            for sub in itertools.combinations(el, r):
                yield element_id(hl, sub), j


def monotone_on_all_pairs(images, hl):
    """Whether element images grow along every comparable pair of ``hl``."""
    return all(set(images[i]) <= set(images[j]) for i, j in proper_subset_pairs(hl))


def reference_nearest_sets(dist_block, net, tie_tol):
    """Row-wise tie sets of a (points x net) distance block, one row at a time."""
    mins = dist_block.min(axis=1)
    thresh = mins * (1.0 + tie_tol)
    out = []
    for r in range(dist_block.shape[0]):
        sel = np.flatnonzero(dist_block[r] <= thresh[r])
        out.append(tuple(int(net[s]) for s in sel))
    return out


def images_of(table):
    """The tuples a padded table stands for: each row without its repeated padding."""
    return tuple(tuple(dict.fromkeys(row)) for row in table.tolist())


def padded(images):
    """Tuples as a padded array: a short row repeats its first entry."""
    width = max(len(img) for img in images)
    return np.array([img + img[:1] * (width - len(img)) for img in images])


def set_diameter(dist, members):
    members = sorted(set(members))
    if len(members) < 2:
        return 0.0
    return float(dist[np.ix_(members, members)].max())


def nearest_tables(seq, tie_tol):
    """``q[n]`` for every level, as a list of tuples over the ground."""
    dist = dense(seq.ground)
    return {lv.index: reference_nearest_sets(dist[:, list(lv.net)], lv.net, tie_tol) for lv in seq.levels}


def singleton_bonding_chain(ground, levels, tie_tol=1e-9):
    """Images of the finest net's points in the coarsest net, rebuilt from scratch.

    ``levels`` runs coarse to fine; each step recomputes the nearest-set block
    of the finer net against the coarser one and pushes the images through it.
    """
    comp = {a: (a,) for a in levels[-1].net}
    for k in range(len(levels) - 1, 0, -1):
        fine_net, coarse_net = list(levels[k].net), list(levels[k - 1].net)
        q = dict(zip(fine_net, reference_nearest_sets(dense(ground)[np.ix_(fine_net, coarse_net)], coarse_net, tie_tol)))
        comp = {a: tuple(sorted(set().union(*(q[y] for y in img)))) for a, img in comp.items()}
    return comp


def distance_bounds(seq, tie_tol=1e-9):
    """The three clauses of the distance bounds, scanned over (n, m, x).

    Returns one dict per clause with the instance count, the minimal slack,
    the distance, bound and witness that first reached it, and the violations.
    """
    dist = dense(seq.ground)
    q = nearest_tables(seq, tie_tol)
    clauses = [dict(instances=0, min_slack=float("inf"), worst_distance=-1.0, worst_bound=float("nan"),
                    worst_witness=(), violations=[]) for _ in range(3)]

    def record(cl, d, bound, witness):
        cl["instances"] += 1
        slack = bound - d
        if slack < cl["min_slack"]:
            cl.update(min_slack=slack, worst_distance=d, worst_bound=bound, worst_witness=witness)
        if d >= bound:
            cl["violations"].append({"distance": d, "bound": bound, "witness": witness})

    c1, c2, c3 = clauses
    for n in range(1, seq.depth):
        eps_n = seq.level(n).epsilon
        for m in range(n + 1, seq.depth + 1):
            comp = singleton_bonding_chain(seq.ground, seq.levels[n - 1:m], tie_tol)
            for x in range(seq.ground.n):
                record(c1, float(dist[np.ix_(q[n][x], q[m][x])].max()), eps_n, (x, n, m))
            for a in seq.level(m).net:
                record(c2, float(dist[list(comp[a]), a].max()), eps_n, (a, n, m))
            for x in range(seq.ground.n):
                target = sorted(set().union(*(comp[a] for a in q[m][x])))
                record(c3, float(dist[target, x].max()), eps_n, (x, n, m))
    return clauses


def union_diameter(dist, f_images, g_images):
    """(worst union diameter, first item reaching it) over a common domain."""
    worst, worst_item = -1.0, 0
    for i, (fi, gi) in enumerate(zip(f_images, g_images)):
        d = set_diameter(dist, set(fi) | set(gi))
        if d > worst:
            worst, worst_item = d, i
    return worst, worst_item


def identity_diameters(seq, tie_tol=1e-9):
    """Worst union diameters of q_m ∪ q_{m+1} and of q_n ∪ {x}, per level."""
    dist = dense(seq.ground)
    q = nearest_tables(seq, tie_tol)
    levels = [lv.index for lv in seq.levels]
    pairs = [union_diameter(dist, q[m], q[m + 1])[0] for m in levels[:-1]]
    points = [(x,) for x in range(seq.ground.n)]
    inclusions = [union_diameter(dist, q[n], points)[0] for n in levels]
    return pairs, inclusions


def square_witness(seq, n, tie_tol=1e-9):
    """(worst union diameter, worst item) of q_n against the step after q_{n+1}."""
    q = nearest_tables(seq, tie_tol)
    step = singleton_bonding_chain(seq.ground, seq.levels[n - 1:n + 1], tie_tol)
    pushed = [tuple(sorted(set().union(*(step[a] for a in img)))) for img in q[n + 1]]
    return union_diameter(dense(seq.ground), q[n], pushed)


def chain_homology(cx):
    """``ChainHomology`` of a complex given through its triangles."""
    return ChainHomology(cx.n_vertices, *cx.simplices[1:3])


def euler_characteristic(cx):
    return sum((-1) ** k * len(s) for k, s in enumerate(cx.simplices))


def check_face_closed(cx):
    """Raise ``AssertionError`` naming the first face of a simplex that the complex lacks."""
    for k in range(1, len(cx.simplices)):
        lower = set(cx.simplices[k - 1])
        for s in cx.simplices[k]:
            for i in range(len(s)):
                if s[:i] + s[i + 1:] not in lower:
                    raise AssertionError(f"face {s[:i] + s[i + 1:]} of {s} missing")


def chain_map_matrices(vertex_map, fine, coarse):
    """Chain-level matrices of a simplicial vertex map on order complexes, per dimension.

    Matrix k maps fine k-chains to coarse k-chains: column j holds the rows of
    the image of fine simplex j (empty when the chain collapses).  Vertex maps
    come from ``selection_vertex_map``; composites compose vertex maps.
    """
    fine_cx = order_complex(fine)
    coarse_cx = order_complex(coarse)
    matrices = []
    for k in range(3):
        rows_index = {s: i for i, s in enumerate(coarse_cx.simplices[k])} if k < len(coarse_cx.simplices) else {}
        cols = {}
        if k < len(fine_cx.simplices):
            for j, s in enumerate(fine_cx.simplices[k]):
                image = tuple(sorted({vertex_map[v] for v in s}))
                cols[j] = frozenset({rows_index[image]}) if len(image) == len(s) else frozenset()
        matrices.append(cols)
    return matrices


def gf2_matrix_product(outer, inner):
    """Product over GF(2) of sparse column maps: (outer . inner)(j)."""
    out = {}
    for j, mid in inner.items():
        acc = set()
        for m in mid:
            acc ^= set(outer.get(m, frozenset()))
        out[j] = frozenset(acc)
    return out


def pushed_ranks(vertex_map, fine_hom, coarse_hom):
    """Induced ranks in degrees 0 and 1 of a simplicial vertex map between two reduced complexes.

    Degree 0 tracks the components of every fine vertex; degree 1 pushes
    each fine representative cycle and counts independence modulo the coarse
    boundaries.
    """
    comps = {}
    for v in range(fine_hom.n):
        comps.setdefault(fine_hom.comp_of[v], coarse_hom.comp_of[vertex_map[v]])
    cycles = []
    for rep in fine_hom.h1_representatives():
        pushed = set()
        for eid in rep:
            pu, pv = sorted(vertex_map[v] for v in fine_hom.edges[eid])
            if pu != pv:
                pushed ^= {coarse_hom.edge_id[(pu, pv)]}
        boundary = set()
        for eid in pushed:
            boundary ^= set(coarse_hom.edges[eid])
        assert not boundary, "pushed representative is not a cycle"
        cycles.append(pushed)
    return len(set(comps.values())), coarse_hom.image_rank(cycles)


def full_scale_homology(hl):
    """``ChainHomology`` of a level's whole scale complex."""
    return chain_homology(scale_complex(hl))


def full_scale_ranks(p, fine, coarse):
    """Induced ranks in degrees 0 and 1 of a bonding map, on whole scale complexes.

    The vertex map is the singleton part of the selection map; no vertex is
    collapsed away on either side.
    """
    vertex_map = selection_vertex_map(p, fine, coarse)[:len(fine.level.net)]
    return pushed_ranks(vertex_map, full_scale_homology(fine), full_scale_homology(coarse))


def reference_strong_collapse(n_vertices, edges):
    """``invariants.strong_collapse`` from an edge list: the same worklist and dominator rule.

    Closed neighbourhoods and sorted adjacency lists are built edge by edge
    from the tuples, where the library reads them off the graph's bitmasks.
    """
    closed = [1 << v for v in range(n_vertices)]
    adjacent = [[] for _ in range(n_vertices)]
    for u, v in edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
        adjacent[u].append(v)
        adjacent[v].append(u)
    for nbrs in adjacent:
        nbrs.sort()
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


class FullCoreHomology:
    """A level's scale-complex homology reduced on its whole strong-collapse core.

    The chain complex is the core's full subcomplex, every edge and
    triangle grown from the collapse's core adjacency, plus the edges u-w of
    the vertex removals; no edge is collapsed.
    """

    def __init__(self, hl):
        m = len(hl.level.net)
        self.collapse = reference_strong_collapse(m, [el for el in hl.elements[m:] if len(el) == 2])
        _, core_edges, triangles = grow_cliques(self.collapse.ahead, 3)
        forest = [(u, w) if u < w else (w, u) for u, w in self.collapse.removals]
        self.hom = ChainHomology(m, core_edges + forest, triangles)
        self.betti = (self.hom.b0, self.hom.b1)


def full_core_ranks(vertex_map, fine, coarse):
    """Induced ranks in degrees 0 and 1 between two ``FullCoreHomology`` levels.

    Fine cycles are pushed through the vertex map and the coarse core
    retraction, and reduced against the boundaries of the whole coarse core.
    """
    to_core = [coarse.collapse.retraction[v] for v in vertex_map]
    return pushed_ranks(to_core, fine.hom, coarse.hom)


def rank_of(columns) -> int:
    """GF(2) rank of the columns, each an iterable of row indices."""
    red = ColumnReducer()
    for col in columns:
        red.add(col)
    return red.rank


class EveryColumnHomology:
    """Ranks and Betti numbers in degrees 0 and 1 with every boundary column reduced.

    Boundaries are columns of edge ids (of triangles), with no spanning
    forest and no column left out; a cycle's image rank is the rank it adds
    to the triangle boundaries.
    """

    def __init__(self, n_vertices, edges, triangles):
        edge_id = {tuple(e): i for i, e in enumerate(edges)}
        self.boundaries = [{edge_id[f] for f in itertools.combinations(t, 2)} for t in triangles]
        rank_d1 = rank_of({u, v} for u, v in edges)
        self.rank_d2 = rank_of(self.boundaries)
        self.b0 = n_vertices - rank_d1
        self.b1 = len(edges) - rank_d1 - self.rank_d2

    def image_rank(self, cycles) -> int:
        return rank_of(self.boundaries + [set(c) for c in cycles]) - self.rank_d2


def every_column_pivots(hom, triangles):
    """Pivots of every triangle column of ``hom``, in the given order, in its fundamental coordinates."""
    red = ColumnReducer()
    for tri in triangles:
        red.add(hom.project({hom.edge_id[f] for f in itertools.combinations(tri, 2)}))
    return red.pivots


@dataclass(frozen=True)
class ApproximativeMap:
    """Finite prefix of a multivalued map sequence with shrinking images.

    ``maps[k]`` sends each source ground point to a subset of the target
    ground; ``diameters[k]``, derived here from its table, is its largest
    image diameter, non-increasing over the stored prefix.
    """

    source: object
    target: object
    maps: tuple
    diameters: tuple = field(init=False)

    def __post_init__(self):
        for k, mm in enumerate(self.maps):
            if len(mm.table) != self.source.n:
                raise ValueError(f"map {k} does not cover the source ground")
        object.__setattr__(self, "diameters", tuple(map_diameter(self.target, mm.table) for mm in self.maps))
        for a, b in zip(self.diameters, self.diameters[1:]):
            if b > a:
                raise ValueError(f"diameters must be non-increasing, got {a!r} then {b!r}")

    @staticmethod
    def from_images(source, target, image_seq):
        """One map per sequence of images; an empty image raises ``ValueError``."""
        maps = []
        for images in image_seq:
            rows = [sorted(img) for img in images]
            if [] in rows:
                raise ValueError(f"multivalued map image {rows.index([])} is empty")
            maps.append(MultiMap(padded(rows)))
        return ApproximativeMap(source, target, tuple(maps))


def ball_map_prefix(ground, radii):
    """Self-map prefix sending x to the closed metric ball of a given radius."""
    images_per_index = [[] for _ in radii]
    for rows in row_blocks(ground.n, ground.n):
        block = ground.block(rows, slice(None))
        for images, r in zip(images_per_index, radii):
            images.extend(tuple(np.flatnonzero(row <= r).tolist()) for row in block)
    return ApproximativeMap.from_images(ground, ground, images_per_index)


@dataclass
class FiniteTypeReport:
    bounds: tuple  # 2*beta_n + D_n per index
    slacks: tuple

    @property
    def ok(self):
        return all(s > 0 for s in self.slacks)


def finite_type_convert(am, betas, nets):
    """Push every image through the nearest-point map of a target net.

    ``nets[k]`` must cover the target ground within ``betas[k]`` (checked up
    front), and the betas must decrease.  The converted map has images inside
    the finite nets and diameter strictly below ``2 * beta_k + D_k``, which is
    asserted per index and reported with its slack.
    """
    betas = tuple(float(b) for b in betas)
    nets = [tuple(net) for net in nets]
    if not (len(betas) == len(nets) == len(am.maps)):
        raise ValueError("need one beta and one net per stored index")
    if any(b <= 0 for b in betas):
        raise ValueError("betas must be positive")
    for a, b in zip(betas, betas[1:]):
        if not b < a:
            raise ValueError(f"betas must strictly decrease, got {a!r} then {b!r}")
    for k, (beta, net) in enumerate(zip(betas, nets)):
        cov = gamma(am.target, net)
        if not cov < beta:
            raise ValueError(
                f"net {k} is not a beta-approximation: coverage {cov!r} >= beta {beta!r}"
            )

    maps = []
    for mm, net in zip(am.maps, nets):
        pushed = nearest_sets(am.target, net, gamma(am.target, net))[mm.table]
        maps.append(MultiMap(_union_rows(pushed.reshape(len(pushed), -1))))
    converted = ApproximativeMap(am.source, am.target, tuple(maps))
    bounds = tuple(2.0 * b + d for b, d in zip(betas, am.diameters))
    slacks = tuple(bound - d for bound, d in zip(bounds, converted.diameters))
    report = FiniteTypeReport(bounds=bounds, slacks=slacks)
    if not report.ok:
        k = min(range(len(slacks)), key=lambda i: slacks[i])
        raise AssertionError(
            f"converted map diameter {converted.diameters[k]!r} not < 2*beta+D = {bounds[k]!r} at index {k}"
        )
    return converted, report
