"""Sparse GF(2) elimination and chain-complex helpers.

Columns are represented as Python sets of row indices; XOR is symmetric
difference and the pivot of a column is its maximum row.  Reduction keeps one
column per pivot row, so the number of stored columns is bounded by the rank.
"""

from __future__ import annotations


class ColumnReducer:
    """Incremental left-to-right column reduction over GF(2)."""

    def __init__(self):
        self.pivots: dict[int, frozenset[int]] = {}
        self.rank = 0

    def add(self, col) -> bool:
        """Insert a column; returns True when it increased the rank."""
        col = set(col)
        while col:
            p = max(col)
            piv = self.pivots.get(p)
            if piv is None:
                self.pivots[p] = frozenset(col)
                self.rank += 1
                return True
            col ^= piv
        return False


def rank_of(columns) -> int:
    red = ColumnReducer()
    for col in columns:
        red.add(col)
    return red.rank


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
    """Homology data of a simplicial complex through degree 2.

    Edges are vertex pairs, triangles vertex triples, tetrahedra vertex
    quadruples, each sorted (faces must be simplices of the complex).
    Degree-1 work happens in fundamental-cycle coordinates: a spanning forest
    is fixed, every cycle is determined by its non-tree edge support, and
    triangle boundaries project to at most three coordinates.  Homology
    representatives in degree 1 are fundamental cycles of the non-tree edges
    whose coordinate never became a pivot.  Tetrahedra, when given, are
    reduced as columns of triangle ids for the degree-2 Betti number.
    """

    def __init__(self, n_vertices: int, edges=(), triangles=(), tetrahedra=()):
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
        self.boundary_reducer = ColumnReducer()
        for tri in triangles:
            self.boundary_reducer.add(self.project(_triangle_edges(tri, self.edge_id)))
        self.rank_d2 = self.boundary_reducer.rank
        self.n_triangles = len(triangles)
        self.rank_d3 = 0
        if tetrahedra:
            triangle_id = {tuple(t): i for i, t in enumerate(triangles)}
            self.rank_d3 = rank_of({triangle_id[tet[:i] + tet[i + 1:]] for i in range(4)} for tet in tetrahedra)

    @property
    def b0(self) -> int:
        return self.components

    @property
    def b1(self) -> int:
        return self.cycle_dim - self.rank_d2

    @property
    def b2(self) -> int:
        return self.n_triangles - self.rank_d2 - self.rank_d3

    def betti(self, maxdim: int) -> tuple[int, ...]:
        """Betti numbers b_0..b_maxdim (maxdim <= 2; b_2 needs the tetrahedra)."""
        return (self.b0, self.b1, self.b2)[:maxdim + 1]

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

    def image_rank_counter(self) -> "ImageRankCounter":
        return ImageRankCounter(self)


class ImageRankCounter:
    """Counts independent pushed cycles modulo boundaries of the target.

    Boundary pivots and accepted-cycle pivots are searched together: a
    reduction through an accepted cycle can re-expose a boundary pivot row,
    so a layered two-phase reduction would overcount.
    """

    def __init__(self, hom: ChainHomology):
        self._hom = hom
        self._base = hom.boundary_reducer.pivots
        self._extra: dict[int, frozenset[int]] = {}
        self.rank = 0

    def add_cycle(self, edge_ids) -> bool:
        col = set(self._hom.project(edge_ids))
        while col:
            p = max(col)
            piv = self._base.get(p) or self._extra.get(p)
            if piv is None:
                self._extra[p] = frozenset(col)
                self.rank += 1
                return True
            col ^= piv
        return False


def _triangle_edges(tri, edge_id):
    a, b, c = tri
    return (edge_id[(a, b)], edge_id[(a, c)], edge_id[(b, c)])
