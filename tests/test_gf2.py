import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finiteshape.gf2 import ChainHomology, ColumnReducer
from reference_loops import EveryColumnHomology, every_column_pivots, rank_of


def test_column_reducer_rank():
    red = ColumnReducer()
    assert red.add({0, 1})
    assert red.add({1, 2})
    assert not red.add({0, 2})  # sum of the first two
    assert red.rank == 2


def test_rank_of_matches_dense():
    rng = np.random.default_rng(3)
    for _ in range(20):
        M = rng.integers(0, 2, size=(8, 12), dtype=np.uint8)
        cols = [set(np.flatnonzero(M[:, j])) for j in range(12)]
        # dense elimination oracle on the transpose
        A = M.T.copy()
        rank = 0
        r = 0
        for c in range(A.shape[1]):
            piv = next((i for i in range(r, A.shape[0]) if A[i, c]), None)
            if piv is None:
                continue
            A[[r, piv]] = A[[piv, r]]
            for i in range(A.shape[0]):
                if i != r and A[i, c]:
                    A[i] ^= A[r]
            r += 1
            rank += 1
        assert rank_of(cols) == rank


def test_chain_homology_cycle_counts():
    # square with one filled triangle via a diagonal
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
    hom = ChainHomology(4, edges, [(0, 1, 2)])
    assert hom.b0 == 1
    assert hom.cycle_dim == 2
    assert hom.b1 == 1
    reps = hom.h1_representatives()
    assert len(reps) == 1


def test_image_rank_counter_interleaved_pivots():
    # tree path 0-1-2-3-4 plus three chords; the triangle (1,2,3) makes the
    # middle chord a boundary.  Pushing {chord2 + chord1} then {chord2} must
    # count rank 1: the second cycle is the first one modulo the boundary.
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3), (2, 4)]
    hom = ChainHomology(5, edges, [(1, 2, 3)])
    assert hom.b1 == 2
    eid = {e: i for i, e in enumerate(edges)}
    c_a = {eid[(2, 4)], eid[(3, 4)], eid[(1, 3)], eid[(1, 2)]}
    c_b = {eid[(2, 4)], eid[(2, 3)], eid[(3, 4)]}
    assert hom.image_rank([c_a, c_b]) == 1
    assert hom.image_rank([c_a]) == 1


def test_fundamental_cycle_closes():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    hom = ChainHomology(4, edges, [])
    nontree = [e for e, _ in hom.nontree.items()]
    assert len(nontree) == 1
    cyc = hom.fundamental_cycle(nontree[0])
    assert cyc == {0, 1, 2, 3}


class SetColumnReducer:
    """Column reduction on Python sets of rows, pivot the largest row: the reference for the bitmask reducer."""

    def __init__(self):
        self.pivots = {}
        self.rank = 0

    def add(self, col):
        col = set(col)
        while col:
            p = max(col)
            if p not in self.pivots:
                self.pivots[p] = frozenset(col)
                self.rank += 1
                return True
            col ^= self.pivots[p]
        return False


def test_bitmask_reducer_matches_set_reduction():
    rng = np.random.default_rng(5)
    for trial in range(30):
        n_rows = int(rng.integers(1, 200))
        red, ref = ColumnReducer(), SetColumnReducer()
        for _ in range(int(rng.integers(1, 120))):
            col = rng.integers(0, n_rows, size=int(rng.integers(0, 6))).tolist()  # repeats count once
            feed = iter(col) if trial % 2 else col  # any iterable of rows
            assert red.add(feed) == ref.add(col)
        assert red.rank == ref.rank
        assert red.pivots.keys() == ref.pivots.keys()
        for p, mask in red.pivots.items():
            assert mask.bit_length() - 1 == p
            assert {r for r in range(mask.bit_length()) if mask >> r & 1} == ref.pivots[p]


# --- cone rule against reducing every column -------------------------------------


def check_against_every_column(n, edges, triangles, seed=0, picks=((0, 1), (1,), (2, 3))):
    """``ChainHomology`` on lex-ordered and on shuffled columns against ``EveryColumnHomology``.

    ``seed`` shuffles the triangles of the second build; each pick is a set
    of fundamental-cycle indices whose sum is a cycle passed to
    ``image_rank`` (indices past the last cycle are ignored).
    """
    triangles = sorted(triangles)
    ref = EveryColumnHomology(n, edges, triangles)
    hom = ChainHomology(n, edges, triangles)
    assert (hom.rank_d2, hom.b0, hom.b1) == (ref.rank_d2, ref.b0, ref.b1)
    pivots = every_column_pivots(hom, triangles)
    assert hom.boundary_reducer.pivots == pivots

    reps = hom.h1_representatives()
    coords = [c for c in range(hom.cycle_dim) if c not in pivots]
    assert reps == [hom.fundamental_cycle(hom._nontree_by_coord[c]) for c in coords]
    assert len(reps) == ref.image_rank(reps) == ref.b1

    fundamental = [hom.fundamental_cycle(e) for e in sorted(hom.nontree)]
    cycles = []
    for pick in picks:
        cycle = set()
        for k in pick:
            if k < len(fundamental):
                cycle ^= fundamental[k]
        cycles.append(cycle)
    assert hom.image_rank(cycles) == ref.image_rank(cycles)

    rng = np.random.default_rng(seed)
    shuffled = ChainHomology(n, edges, [triangles[i] for i in rng.permutation(len(triangles))])
    assert (shuffled.rank_d2, shuffled.b1) == (ref.rank_d2, ref.b1)
    assert shuffled.boundary_reducer.pivots.keys() == pivots.keys()
    assert shuffled.h1_representatives() == reps


def cliques(n, edges, size):
    edge_set = set(edges)
    return [c for c in itertools.combinations(range(n), size)
            if all(f in edge_set for f in itertools.combinations(c, 2))]


def simplex_faces(n, size):
    return list(itertools.combinations(range(n), size))


OCTAHEDRON_EDGES = [e for e in simplex_faces(6, 2) if e not in {(0, 1), (2, 3), (4, 5)}]


@pytest.mark.parametrize("n, edges, triangles, ranks", [
    # hollow tetrahedron: each triangle is a cone from the fourth vertex, which lies below only (1, 2, 3)
    (4, simplex_faces(4, 2), simplex_faces(4, 3), (3, 1, 0)),
    # K4 with one triangle: vertex 0 lies below (1, 2, 3) and is adjacent to it, but its cone faces are missing
    (4, simplex_faces(4, 2), [(1, 2, 3)], (1, 1, 2)),
    (6, OCTAHEDRON_EDGES, cliques(6, OCTAHEDRON_EDGES, 3), (7, 1, 0)),
    # 2-skeleton of the 4-simplex: every triangle off vertex 0 is a cone from it and is skipped
    (5, simplex_faces(5, 2), simplex_faces(5, 3), (6, 1, 0)),
], ids=["hollow-tetrahedron", "k4-one-triangle", "octahedron", "4-simplex-2-skeleton"])
def test_cone_rule_on_named_complexes(n, edges, triangles, ranks):
    check_against_every_column(n, edges, triangles)
    hom = ChainHomology(n, edges, triangles)
    assert (hom.rank_d2, hom.b0, hom.b1) == ranks


@st.composite
def complexes(draw):
    """A graph on up to 9 vertices with its flag triangles, or a random subset of them."""
    n = draw(st.integers(1, 9))
    flag = draw(st.booleans())

    def subset(items):
        keep = draw(st.lists(st.booleans(), min_size=len(items), max_size=len(items)))
        return [s for s, k in zip(items, keep) if k]

    edges = subset(simplex_faces(n, 2))
    triangles = cliques(n, edges, 3)
    if not flag:
        triangles = subset(triangles)
    return n, draw(st.permutations(edges)), triangles  # the spanning forest follows the edge order


@settings(max_examples=200, deadline=None)
@given(complexes(), st.integers(0, 2**32 - 1), st.lists(st.sets(st.integers(0, 12), max_size=4), min_size=1, max_size=4))
def test_cone_rule_matches_every_column_reduction(cx, seed, picks):
    check_against_every_column(*cx, seed, picks)
