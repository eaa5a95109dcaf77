import numpy as np

from finiteshape.gf2 import ChainHomology, ColumnReducer, rank_of


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
