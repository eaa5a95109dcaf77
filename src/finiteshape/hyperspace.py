"""Finite hyperspace posets and multivalued maps between tower levels.

For a level with net ``A`` and scale ``epsilon``, the hyperspace consists of
the non-empty subsets of ``A`` with diameter strictly below ``2 * epsilon``,
ordered by inclusion.  With the upper semifinite topology on subsets this is a
finite topological space whose open sets are the down-sets of the inclusion
order, so a map between two such posets is continuous exactly when it is
monotone.

Subsets are enumerated up to a cardinality cap (homology through degree ``d``
only consumes subsets of size ``d + 2``).  Down-closure is exact within the
cap: every non-empty subset of a stored element is stored.

Multivalued maps are tabulated images: the nearest-point map sends a ground
point to its set of nearest net points (ties within a relative tolerance),
and the bonding map of consecutive levels sends a subset of the finer net to
the union of nearest coarser points over its members.  A ``Tower`` computes
these tables once for a built tower, and every check reads them from it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .construction import AdjustedSequence, Level
from .metric import MetricGround


class ElementCapError(RuntimeError):
    """Hyperspace enumeration exceeded its element budget."""


class BondingDiameterError(RuntimeError):
    """A bonding image has diameter at or above the coarse scale bound."""


def enumerate_small_subsets(dist_local: np.ndarray, two_eps: float, cap: int, max_elements: int):
    """All subsets of {0..m-1} with diameter < two_eps and size <= cap.

    Returns (elements, diameters) with elements sorted by (size, lex).  Uses
    per-vertex ahead-neighbor bitmasks so only qualifying cliques are visited.
    """
    m = dist_local.shape[0]
    ahead = []
    for i in range(m):
        idx = np.flatnonzero(dist_local[i, i + 1:] < two_eps) + i + 1
        mask = 0
        for j in idx:
            mask |= 1 << int(j)
        ahead.append(mask)

    elements: list[tuple[int, ...]] = [(i,) for i in range(m)]
    diameters: list[float] = [0.0] * m
    budget = max_elements - m
    if budget < 0:
        raise ElementCapError(f"element budget {max_elements} exceeded already at cardinality 1 ({m} singletons)")

    def bits(mask):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def grow(clique, mask, diam, size):
        nonlocal budget
        for j in bits(mask):
            d = diam
            for v in clique:
                dv = dist_local[v, j]
                if dv > d:
                    d = dv
            if d >= two_eps:
                continue
            budget -= 1
            if budget < 0:
                raise ElementCapError(
                    f"element budget {max_elements} exceeded at cardinality {size + 1}"
                )
            new = clique + (j,)
            elements.append(new)
            diameters.append(float(d))
            if size + 1 < cap:
                grow(new, mask & ahead[j], d, size + 1)

    if cap >= 2:
        for i in range(m):
            grow((i,), ahead[i], 0.0, 1)

    order = sorted(range(len(elements)), key=lambda k: (len(elements[k]), elements[k]))
    return [elements[k] for k in order], [diameters[k] for k in order]


@dataclass(frozen=True)
class HyperLevel:
    """Poset of small-diameter net subsets at one tower level.

    Elements are sorted tuples of ground indices; the order relation is set
    inclusion, queryable directly (``leq``) or through covering pairs.
    """

    level: Level
    elements: tuple[tuple[int, ...], ...]
    diameters: tuple[float, ...]
    cap: int
    _index: dict = field(repr=False, hash=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self._index.update({el: i for i, el in enumerate(self.elements)})

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def element_id(self, element) -> int:
        el = tuple(sorted(element))
        got = self._index.get(el)
        if got is None:
            raise KeyError(f"{el} is not an element of this hyperspace level")
        return got

    def has_element(self, element) -> bool:
        return tuple(sorted(element)) in self._index

    def leq(self, i: int, j: int) -> bool:
        return set(self.elements[i]) <= set(self.elements[j])

    def proper_subset_pairs(self):
        """All comparable pairs (i, j) with element i a proper subset of j."""
        for j, el in enumerate(self.elements):
            if len(el) < 2:
                continue
            for r in range(1, len(el)):
                for sub in itertools.combinations(el, r):
                    yield self._index[sub], j

    def covering_pairs(self):
        """Pairs (i, j) where j covers i: |j| = |i| + 1 and i subset of j."""
        for j, el in enumerate(self.elements):
            if len(el) < 2:
                continue
            for sub in itertools.combinations(el, len(el) - 1):
                yield self._index[sub], j


def build_hyperlevel(
    ground: MetricGround,
    level: Level,
    cap: int = 3,
    max_elements: int = 2_000_000,
) -> HyperLevel:
    """Enumerate the subsets of the level net with diameter < 2 * epsilon."""
    net = list(level.net)
    dist_local = ground.dist[np.ix_(net, net)]
    local_elements, diameters = enumerate_small_subsets(dist_local, 2.0 * level.epsilon, cap, max_elements)
    elements = tuple(tuple(net[v] for v in el) for el in local_elements)
    return HyperLevel(level=level, elements=elements, diameters=tuple(diameters), cap=cap)


@dataclass(frozen=True)
class MultiMap:
    """Tabulated multivalued map into a net, with its recorded diameter.

    ``domain_kind`` is ``"ground"`` (one image per ground point) or
    ``"elements"`` (one image per hyperspace element).  Images are non-empty
    sorted tuples of ground indices; ``diameter`` is the largest image
    diameter.
    """

    domain_kind: str
    images: tuple[tuple[int, ...], ...]
    diameter: float

    def __post_init__(self):
        if self.domain_kind not in ("ground", "elements"):
            raise ValueError(f"unknown domain kind {self.domain_kind!r}")
        if any(len(img) == 0 for img in self.images):
            raise ValueError("multivalued map images must be non-empty")


def set_diameter(dist: np.ndarray, members) -> float:
    members = list(members)
    if len(members) < 2:
        return 0.0
    sub = dist[np.ix_(members, members)]
    return float(sub.max())


def map_diameter(dist: np.ndarray, images) -> float:
    return max((set_diameter(dist, img) for img in images), default=0.0)


def nearest_sets(dist_block: np.ndarray, net, tie_tol: float) -> list[tuple[int, ...]]:
    """Row-wise argmin sets of a (points x net) distance block.

    A net point ties when its distance is within ``tie_tol`` (relative) of the
    row minimum; exact symmetric ties are always captured.
    """
    net = np.asarray(net)
    mins = dist_block.min(axis=1)
    thresh = mins * (1.0 + tie_tol)
    out = []
    for r in range(dist_block.shape[0]):
        sel = np.flatnonzero(dist_block[r] <= thresh[r])
        out.append(tuple(int(net[s]) for s in sel))
    return out


def nearest_point_map(ground: MetricGround, net, tie_tol: float = 1e-9) -> MultiMap:
    """Nearest-point multivalued map from all ground points into the net."""
    net = tuple(net)
    if not net:
        raise ValueError("net must be non-empty")
    images = nearest_sets(ground.dist[:, net], net, tie_tol)
    return MultiMap(domain_kind="ground", images=tuple(images), diameter=map_diameter(ground.dist, images))


class Tower:
    """The nearest-point and bonding maps of a built tower, each computed once.

    ``q[n]`` holds the nearest-set image in ``A_n`` of every ground point; it
    is the tower's only ``nearest_sets`` evaluation, one per level.
    ``step(n)`` sends each point of ``A_{n+1}`` to its image in ``A_n``, read
    off ``q[n]`` at that point (the same distance row and tie threshold a
    per-pair block would use).  ``composite(n, m)`` sends each point of
    ``A_m`` into ``A_n`` through the steps; it is memoized and extended one
    step from ``composite(n, m - 1)``.  Bonding maps act on subsets by unions
    of singleton images, so these tables determine every bonding map.
    """

    def __init__(self, seq: AdjustedSequence, tie_tol: float = 1e-9):
        self.seq = seq
        self.ground = seq.ground
        self.tie_tol = tie_tol
        dist = seq.ground.dist
        self.q = {lv.index: tuple(nearest_sets(dist[:, list(lv.net)], lv.net, tie_tol)) for lv in seq.levels}
        self._composites: dict[tuple[int, int], dict[int, tuple[int, ...]]] = {}
        self._nearest_maps: dict[int, MultiMap] = {}

    def nearest_map(self, n: int) -> MultiMap:
        """``q[n]`` as a ground-domain map, with its diameter."""
        mm = self._nearest_maps.get(n)
        if mm is None:
            mm = MultiMap("ground", self.q[n], map_diameter(self.ground.dist, self.q[n]))
            self._nearest_maps[n] = mm
        return mm

    def step(self, n: int) -> dict[int, tuple[int, ...]]:
        return self.composite(n, n + 1)

    def composite(self, n: int, m: int) -> dict[int, tuple[int, ...]]:
        if not 1 <= n < m <= self.seq.depth:
            raise ValueError(f"need levels {n} < {m} in a depth-{self.seq.depth} tower")
        comp = self._composites.get((n, m))
        if comp is None:
            fine_net = self.seq.level(m).net
            if m == n + 1:
                q = self.q[n]
                comp = {a: q[a] for a in fine_net}
            else:
                prev, step = self.composite(n, m - 1), self.step(m - 1)
                comp = {a: tuple(sorted(set().union(*(prev[y] for y in step[a])))) for a in fine_net}
            self._composites[(n, m)] = comp
        return comp


def bonding_map(tower: Tower, fine: HyperLevel) -> MultiMap:
    """Map each element of ``fine`` to the union of nearest points one level up.

    Every image must have diameter strictly below ``2 * epsilon`` of the
    coarser level; a violation means the tower inequalities were broken
    upstream, so the map aborts rather than clamping.
    """
    return _union_images(tower, fine, fine.level.index - 1, "bonding image")


def composite_bonding(tower: Tower, fine: HyperLevel, n: int) -> MultiMap:
    """Composite of the bonding maps from the level of ``fine`` down to level ``n``.

    For ``n`` one level up this equals ``bonding_map``.  Images are checked
    against the level-``n`` scale bound.
    """
    return _union_images(tower, fine, n, "composite image")


def _union_images(tower: Tower, fine: HyperLevel, n: int, what: str) -> MultiMap:
    """Element-domain map sending each fine element to the union of its points' images in ``A_n``.

    Many elements share an image, so each distinct image is measured once.
    The first element whose image reaches ``2 * epsilon_n`` raises
    ``BondingDiameterError``.
    """
    point_images = tower.composite(n, fine.level.index)
    if fine.level != tower.seq.level(fine.level.index):
        raise ValueError(f"hyperspace level {fine.level.index} was not built on this tower's level")
    coarse = tower.seq.level(n)
    bound = 2.0 * coarse.epsilon
    dist = tower.ground.dist
    measured: set[tuple[int, ...]] = set()
    images = []
    worst = 0.0
    for el in fine.elements:
        img = tuple(sorted(set().union(*(point_images[a] for a in el))))
        images.append(img)
        if img in measured:
            continue
        measured.add(img)
        d = set_diameter(dist, img)
        if d >= bound:
            raise BondingDiameterError(
                f"{what} of {el} has diameter {d!r} >= 2*epsilon = {bound!r} "
                f"(levels {fine.level.index} -> {coarse.index})"
            )
        if d > worst:
            worst = d
    return MultiMap(domain_kind="elements", images=tuple(images), diameter=worst)


def is_continuous(mm: MultiMap, domain: HyperLevel):
    """Monotonicity over all comparable pairs; returns (ok, counterexample).

    On finite posets with the upper semifinite topology this is exactly
    continuity.  The counterexample, when present, is a pair of element ids
    (i, j) with element i a subset of j but image(i) not a subset of image(j).
    """
    if mm.domain_kind != "elements":
        raise ValueError("continuity check needs an element-domain map")
    image_sets = [set(img) for img in mm.images]
    for i, j in domain.proper_subset_pairs():
        if not image_sets[i] <= image_sets[j]:
            return False, (i, j)
    return True, None


@dataclass
class ClauseReport:
    name: str
    bound_name: str
    instances: int
    worst_distance: float
    worst_bound: float
    min_slack: float
    worst_witness: tuple
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class DistanceBoundsReport:
    clauses: list[ClauseReport]
    tie_tol: float
    density: float

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.clauses)


def verify_adjusted_distance_bounds(tower: Tower) -> DistanceBoundsReport:
    """Exhaustive distance guarantees of the tower, for all level pairs n < m.

    Clause 1 (nearest pairs): points of the two nearest-point images of any x
    lie within epsilon_n of each other.  Clause 2 (bonded pairs): any point in
    the composite bonding image of a finest-net singleton lies within
    epsilon_n of that singleton.  Clause 3 (bonded to source): any point in
    the composite bonding image of the nearest-point image of x lies within
    epsilon_n of x itself.  Each clause reports its minimal slack; any
    violated instance is collected with witnesses.  A one-level tower has no
    pairs, so every clause passes with zero instances.
    """
    ground = tower.ground
    dist = ground.dist

    def clause(name):
        return ClauseReport(
            name=name, bound_name="epsilon_n", instances=0,
            worst_distance=-1.0, worst_bound=float("nan"),
            min_slack=float("inf"), worst_witness=(), violations=[],
        )

    c1 = clause("nearest_pair")
    c2 = clause("bonded_pair")
    c3 = clause("bonded_to_source")

    def record(cl, d, bound, witness):
        cl.instances += 1
        slack = bound - d
        if slack < cl.min_slack:
            cl.min_slack = slack
            cl.worst_distance = d
            cl.worst_bound = bound
            cl.worst_witness = witness
        if d >= bound:
            cl.violations.append({"distance": d, "bound": bound, "witness": witness})

    n_ground = ground.n
    depth = tower.seq.depth
    for n in range(1, depth):
        eps_n = tower.seq.level(n).epsilon
        q_n = tower.q[n]
        for m in range(n + 1, depth + 1):
            q_m = tower.q[m]
            comp = tower.composite(n, m)

            for x in range(n_ground):
                d = float(dist[np.ix_(q_n[x], q_m[x])].max())
                record(c1, d, eps_n, (x, n, m))

            for a_m in tower.seq.level(m).net:
                d = float(dist[list(comp[a_m]), a_m].max())
                record(c2, d, eps_n, (a_m, n, m))

            for x in range(n_ground):
                target = sorted(set().union(*(comp[a] for a in q_m[x])))
                d = float(dist[target, x].max())
                record(c3, d, eps_n, (x, n, m))

    return DistanceBoundsReport(clauses=[c1, c2, c3], tie_tol=tower.tie_tol, density=ground.density)


def export_poset_dot(hl: HyperLevel, path: str) -> None:
    """DOT digraph with an edge C -> D exactly when D covers C."""
    def label(el):
        return "{" + ",".join(str(v) for v in el) + "}"

    with open(path, "w") as fh:
        fh.write("digraph hyperlevel {\n")
        fh.write(f'  graph [label="level {hl.level.index}, epsilon {hl.level.epsilon!r}"];\n')
        for i, el in enumerate(hl.elements):
            fh.write(f'  e{i} [label="{label(el)}"];\n')
        for i, j in hl.covering_pairs():
            fh.write(f"  e{i} -> e{j};\n")
        fh.write("}\n")


def export_poset_csv(hl: HyperLevel, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("element_id,cardinality,diameter,members\n")
        for i, el in enumerate(hl.elements):
            members = " ".join(str(v) for v in el)
            fh.write(f"{i},{len(el)},{hl.diameters[i]!r},{members}\n")
