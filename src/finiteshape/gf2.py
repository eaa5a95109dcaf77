"""Sparse GF(2) elimination and chain-complex helpers.

Columns are represented as Python-int bitmasks of row indices; XOR is ``^``
and the pivot of a column is its highest set bit.  Reduction keeps one
column per pivot row, so the number of stored columns is bounded by the
rank, and a stored column is never rewritten.

Triangle boundaries are reduced in fundamental-cycle coordinates, one row
per non-tree edge, so their rank is at most the cycle dimension.  Once the
rank reaches it, every pivot row is taken and every later column reduces
to zero: the reduction stops there, and its pivots, rank and
representatives are those of reducing every column.
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


class ChainHomology:
    """Homology data of a simplicial complex in degrees 0 and 1.

    Edges are vertex pairs and triangles vertex triples, each sorted (faces
    must be simplices of the complex).  One pass with a stack over every
    vertex's edges fixes a spanning forest: ``comp_of[v]`` is the root of
    v's tree, and the non-tree edges, in edge order, are the
    fundamental-cycle coordinates.  A cycle is determined by its non-tree
    support, so a triangle boundary projects to at most three coordinates.
    Triangles are reduced in the order given until the rank reaches
    ``cycle_dim`` (see the module docstring).  Degree-1 representatives are
    the fundamental cycles of the coordinates that never became a pivot.
    """

    def __init__(self, n_vertices: int, edges, triangles):
        self.n = n_vertices
        self.edges = [tuple(e) for e in edges]
        self.edge_id = {e: i for i, e in enumerate(self.edges)}

        adj: list[list[tuple[int, int]]] = [[] for _ in range(n_vertices)]
        for i, (u, v) in enumerate(self.edges):
            adj[u].append((v, i))
            adj[v].append((u, i))
        self._parent: list[tuple[int, int] | None] = [None] * n_vertices
        self._depth = [0] * n_vertices
        self.comp_of = [-1] * n_vertices
        in_tree = [False] * len(self.edges)
        self.components = 0
        for root in range(n_vertices):
            if self.comp_of[root] >= 0:
                continue
            self.components += 1
            self.comp_of[root] = root
            stack = [root]
            while stack:
                v = stack.pop()
                for w, i in adj[v]:
                    if self.comp_of[w] < 0:
                        self.comp_of[w] = root
                        self._parent[w] = (v, i)
                        self._depth[w] = self._depth[v] + 1
                        in_tree[i] = True
                        stack.append(w)
        self._nontree_by_coord = [i for i, t in enumerate(in_tree) if not t]
        self.nontree = {e: c for c, e in enumerate(self._nontree_by_coord)}  # edge id -> fundamental coordinate
        self.cycle_dim = len(self._nontree_by_coord)

        self.boundary_reducer = ColumnReducer()
        edge_id = self.edge_id
        for a, b, c in triangles:
            if self.boundary_reducer.rank == self.cycle_dim:
                break
            self.boundary_reducer.add(self.project((edge_id[a, b], edge_id[a, c], edge_id[b, c])))
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

