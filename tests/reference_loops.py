"""Reference routes for the tower tables, the distance checks and the homology.

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
"""

import itertools

import numpy as np

from finiteshape.invariants import chain_homology, order_complex, scale_complex, selection_vertex_map


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


def proper_subset_pairs(hl):
    """All comparable pairs (i, j) of a hyperlevel with element i a proper subset of j."""
    for j, el in enumerate(hl.elements):
        for r in range(1, len(el)):
            for sub in itertools.combinations(el, r):
                yield hl.element_id(sub), j


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
    dist = seq.ground.dist
    return {lv.index: reference_nearest_sets(dist[:, list(lv.net)], lv.net, tie_tol) for lv in seq.levels}


def singleton_bonding_chain(ground, levels, tie_tol=1e-9):
    """Images of the finest net's points in the coarsest net, rebuilt from scratch.

    ``levels`` runs coarse to fine; each step recomputes the nearest-set block
    of the finer net against the coarser one and pushes the images through it.
    """
    comp = {a: (a,) for a in levels[-1].net}
    for k in range(len(levels) - 1, 0, -1):
        fine_net, coarse_net = list(levels[k].net), list(levels[k - 1].net)
        q = dict(zip(fine_net, reference_nearest_sets(ground.dist[np.ix_(fine_net, coarse_net)], coarse_net, tie_tol)))
        comp = {a: tuple(sorted(set().union(*(q[y] for y in img)))) for a, img in comp.items()}
    return comp


def distance_bounds(seq, tie_tol=1e-9):
    """The three clauses of the distance bounds, scanned over (n, m, x).

    Returns one dict per clause with the instance count, the minimal slack,
    the distance, bound and witness that first reached it, and the violations.
    """
    dist = seq.ground.dist
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
    dist = seq.ground.dist
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
    return union_diameter(seq.ground.dist, q[n], pushed)


def chain_map_matrices(vertex_map, fine, coarse, maxdim=1):
    """Chain-level matrices of a simplicial vertex map on order complexes, per dimension.

    Matrix k maps fine k-chains to coarse k-chains: column j holds the rows of
    the image of fine simplex j (empty when the chain collapses).  Vertex maps
    come from ``selection_vertex_map``; composites compose vertex maps.
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
    counter = coarse_hom.image_rank_counter()
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
        counter.add_cycle(pushed)
    return len(set(comps.values())), counter.rank


def order_route_ranks(p, fine, coarse):
    """Induced ranks in degrees 0 and 1 of a bonding map, on order complexes.

    Each level's order complex is reduced on its own, and the full selection
    map sends every poset element (every order-complex vertex) to its coarse
    element.
    """
    vertex_map = selection_vertex_map(p, fine, coarse)
    return pushed_ranks(vertex_map, chain_homology(order_complex(fine)), chain_homology(order_complex(coarse)))


def full_scale_homology(hl, maxdim=1):
    """``ChainHomology`` of a level's whole scale complex through degree ``maxdim``."""
    return chain_homology(scale_complex(hl, maxdim), maxdim)


def full_scale_ranks(p, fine, coarse, maxdim=1):
    """Induced ranks in degrees 0 and 1 of a bonding map, on whole scale complexes.

    The vertex map is the singleton part of the selection map; no vertex is
    collapsed away on either side.
    """
    vertex_map = selection_vertex_map(p, fine, coarse)[:len(fine.level.net)]
    return pushed_ranks(vertex_map, full_scale_homology(fine, maxdim), full_scale_homology(coarse, maxdim))
