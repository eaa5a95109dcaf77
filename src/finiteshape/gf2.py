"""Sparse GF(2) elimination and chain-complex helpers.

Columns are represented as Python-int bitmasks of row indices; XOR is ``^``
and the pivot of a column is its highest set bit.  Reduction keeps one
column per pivot row, so the number of stored columns is bounded by the rank.

The triangle boundary matrix skips, before any reduction, the columns a
cone makes dependent (``_cone_free``).  For a triangle s and a vertex x not
in it, ``∂∂(x∗s) = 0`` gives ``∂s = Σ_τ ∂(x∗τ)`` over the edges τ of s.
When some x below the first vertex of s has every x∗τ in the complex, ∂s
is a sum of boundaries of triangles whose first vertex is x, lower than
s's; by induction on the first vertex the columns that are kept span every
boundary, so ranks are unchanged.  In lex order the cone faces x∗τ come
before s, so a skipped column is one the full reduction would have reduced
to zero, and on lex-ordered input the pivots are those of the full
reduction as well.  Ripser skips columns the same way through apparent
pairs and clearing (Bauer, JACT 2021; Chen & Kerber, *Persistent homology
computation with a twist*, 2011).
"""

from __future__ import annotations


class ColumnReducer:
    """Incremental left-to-right column reduction over GF(2)."""

    def __init__(self):
        self.pivots: dict[int, int] = {}  # pivot row -> reduced column, as a bitmask
        self.rank = 0

    def add(self, col) -> bool:
        """Insert a column, given as an iterable of row indices; returns True when it increased the rank."""
        mask = 0
        for row in col:
            mask |= 1 << int(row)
        pivots = self.pivots
        while mask:
            p = mask.bit_length() - 1
            piv = pivots.get(p)
            if piv is None:
                pivots[p] = mask
                self.rank += 1
                return True
            mask ^= piv
        return False


class DisjointSets:
    """Union-find with path halving; tracks the number of classes."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.count = n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        self.count -= 1
        return True


class ChainHomology:
    """Homology data of a simplicial complex in degrees 0 and 1.

    Edges are vertex pairs and triangles vertex triples, each sorted (faces
    must be simplices of the complex).  Degree-1 work happens in
    fundamental-cycle coordinates: a spanning forest is fixed, every cycle
    is determined by its non-tree edge support, and triangle boundaries
    project to at most three coordinates.  Homology representatives in
    degree 1 are fundamental cycles of the non-tree edges whose coordinate
    never became a pivot.

    A triangle (a, b, c) is not reduced when some vertex x < a has (x, a, b),
    (x, a, c) and (x, b, c) among the triangles: its boundary is the sum of
    theirs (see the module docstring).  x is the lowest common lower
    neighbour of the vertices, found by one AND of bitmasks; its cone faces
    are then looked up, so the rule is exact on any complex, and on a flag
    complex they are always there.  On lex-ordered input
    ``boundary_reducer.pivots`` equals the pivots of reducing every column;
    in any order it has the same keys.
    """

    def __init__(self, n_vertices: int, edges, triangles):
        self.n = n_vertices
        self.edges = [tuple(e) for e in edges]
        self.edge_id = {e: i for i, e in enumerate(self.edges)}

        dsu = DisjointSets(n_vertices)
        self.tree_adj: list[list[tuple[int, int]]] = [[] for _ in range(n_vertices)]
        self.nontree: dict[int, int] = {}  # edge id -> fundamental coordinate
        for i, (u, v) in enumerate(self.edges):
            if dsu.union(u, v):
                self.tree_adj[u].append((v, i))
                self.tree_adj[v].append((u, i))
            else:
                self.nontree[i] = len(self.nontree)
        self.components = dsu.count
        self.comp_of = [dsu.find(v) for v in range(n_vertices)]
        self.cycle_dim = len(self.edges) - (n_vertices - self.components)

        self._parent: list[tuple[int, int] | None] = [None] * n_vertices
        self._depth = [0] * n_vertices
        seen = [False] * n_vertices
        for root in range(n_vertices):
            if seen[root]:
                continue
            seen[root] = True
            stack = [root]
            while stack:
                v = stack.pop()
                for w, eid in self.tree_adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        self._parent[w] = (v, eid)
                        self._depth[w] = self._depth[v] + 1
                        stack.append(w)

        self._nontree_by_coord = {c: e for e, c in self.nontree.items()}
        lower = [0] * n_vertices  # lower[v]: the neighbours of v below it, as a bitmask
        for u, v in self.edges:
            lower[v] |= 1 << u
        self.boundary_reducer = ColumnReducer()
        for tri in _cone_free(triangles, lower):
            self.boundary_reducer.add(self.project(_triangle_edges(tri, self.edge_id)))
        self.rank_d2 = self.boundary_reducer.rank

    @property
    def b0(self) -> int:
        return self.components

    @property
    def b1(self) -> int:
        return self.cycle_dim - self.rank_d2

    def project(self, edge_ids) -> set[int]:
        """Fundamental coordinates of a cycle given by its edge-id support."""
        return {self.nontree[e] for e in edge_ids if e in self.nontree}

    def fundamental_cycle(self, edge_id: int) -> set[int]:
        """Edge-id support of the cycle closed by a non-tree edge."""
        u, v = self.edges[edge_id]
        out = {edge_id}
        du, dv = self._depth[u], self._depth[v]
        while du > dv:
            u, e = self._parent[u]
            out ^= {e}
            du -= 1
        while dv > du:
            v, e = self._parent[v]
            out ^= {e}
            dv -= 1
        while u != v:
            u, eu = self._parent[u]
            v, ev = self._parent[v]
            out ^= {eu, ev}
        return out

    def h1_representatives(self) -> list[set[int]]:
        """One cycle (edge-id support) per degree-1 homology class."""
        reps = []
        for coord in range(self.cycle_dim):
            if coord not in self.boundary_reducer.pivots:
                reps.append(self.fundamental_cycle(self._nontree_by_coord[coord]))
        return reps

    def image_rank(self, cycles) -> int:
        """Rank the cycles (edge-id supports) add to the boundaries, over GF(2).

        The cycles are reduced against the boundary pivots and each other in
        one elimination: a reduction through an accepted cycle can re-expose
        a boundary pivot row, so a layered two-phase reduction would
        overcount.
        """
        red = ColumnReducer()
        red.pivots = dict(self.boundary_reducer.pivots)
        for cycle in cycles:
            red.add(self.project(cycle))
        return red.rank


def _cone_free(triangles, lower):
    """The triangles, as tuples in input order, less those whose boundary a lower cone spans.

    A triangle (a, b, c) is left out when x, the lowest common neighbour of
    its vertices below a (``lower[v]``: bitmask of the neighbours of v below
    v), has (x, a, b), (x, a, c) and (x, b, c) among ``triangles``.
    """
    triangles = [tuple(t) for t in triangles]
    present = set(triangles)
    for a, b, c in triangles:
        common = lower[a] & lower[b] & lower[c]
        if common:
            x = (common & -common).bit_length() - 1
            if (x, a, b) in present and (x, a, c) in present and (x, b, c) in present:
                continue
        yield a, b, c


def _triangle_edges(tri, edge_id):
    a, b, c = tri
    return (edge_id[(a, b)], edge_id[(a, c)], edge_id[(b, c)])
