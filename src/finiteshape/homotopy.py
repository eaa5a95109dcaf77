"""Witness-based homotopy checks in upper semifinite hyperspaces.

Every homotopy this machinery certifies has the same three-step shape: stay
at f, pass through the union f ∪ g at the midpoint, end at g.  The union of
two continuous maps into a hyperspace is continuous, and two maps contained
in a common third are homotopic through it, so the whole claim reduces to one
number: the largest diameter of f(x) ∪ g(x) over the domain.  The homotopy
exists inside the scale-bound neighborhood exactly when that number, which
the check computes from the two maps' tables (a ``MultiMap`` records no
diameter), is strictly below the bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .construction import gamma
from .hyperspace import MultiMap, Tower, _union_rows, map_diameter, nearest_sets, padded_table, row_diameters
from .metric import MetricGround, row_blocks


@dataclass(frozen=True)
class HomotopyWitness:
    """Union-map homotopy certificate for a pair of multivalued maps."""

    name: str
    bound: float
    max_union_diameter: float
    worst_item: int
    verdict: bool

    @property
    def slack(self) -> float:
        return self.bound - self.max_union_diameter


def check_homotopic_in_U(
    f: MultiMap,
    g: MultiMap,
    bound: float,
    ground: MetricGround,
    name: str = "union_homotopy",
) -> HomotopyWitness:
    """Certify f ~ g inside the bound via the three-step union homotopy.

    Passes iff max over the common domain of diam(f(x) ∪ g(x)) < bound,
    strictly.  The worst domain item (the first to reach the maximum) is
    recorded either way.  The union diameters are one reduction over the
    side-by-side tables of f and g.
    """
    if len(f.table) != len(g.table):
        raise ValueError("maps must share a domain")
    diameters = row_diameters(ground, np.hstack([f.table, g.table]))
    worst_item = int(np.argmax(diameters)) if len(diameters) else 0
    worst = float(diameters[worst_item]) if len(diameters) else -1.0
    return HomotopyWitness(name=name, bound=float(bound), max_union_diameter=worst,
                           worst_item=worst_item, verdict=worst < bound)


@dataclass(frozen=True)
class ApproximativeMap:
    """Finite prefix of a multivalued map sequence with shrinking images.

    ``maps[k]`` sends each source ground point to a subset of the target
    ground; ``diameters[k]``, derived here from its table, is its largest
    image diameter, non-increasing over the stored prefix.  A library and
    test object: no command of the CLI reaches it.
    """

    source: MetricGround
    target: MetricGround
    maps: tuple[MultiMap, ...]
    diameters: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        for k, mm in enumerate(self.maps):
            if len(mm.table) != self.source.n:
                raise ValueError(f"map {k} does not cover the source ground")
        object.__setattr__(self, "diameters", tuple(map_diameter(self.target, mm.table) for mm in self.maps))
        for a, b in zip(self.diameters, self.diameters[1:]):
            if b > a:
                raise ValueError(f"diameters must be non-increasing, got {a!r} then {b!r}")

    @staticmethod
    def from_images(source: MetricGround, target: MetricGround, image_seq) -> "ApproximativeMap":
        maps = tuple(MultiMap(padded_table([sorted(img) for img in images])) for images in image_seq)
        return ApproximativeMap(source, target, maps)


def ball_map_prefix(ground: MetricGround, radii) -> ApproximativeMap:
    """Self-map prefix sending x to the closed metric ball of a given radius."""
    images_per_index = [[] for _ in radii]
    for rows in row_blocks(ground.n, ground.n):
        block = ground.block(rows, slice(None))
        for images, r in zip(images_per_index, radii):
            images.extend(tuple(np.flatnonzero(row <= r).tolist()) for row in block)
    return ApproximativeMap.from_images(ground, ground, images_per_index)


@dataclass
class FiniteTypeReport:
    bounds: tuple[float, ...]  # 2*beta_n + D_n per index
    slacks: tuple[float, ...]

    @property
    def ok(self) -> bool:
        return all(s > 0 for s in self.slacks)


def finite_type_convert(
    am: ApproximativeMap,
    betas,
    nets,
    tie_tol: float = 1e-9,
) -> tuple[ApproximativeMap, FiniteTypeReport]:
    """Push every image through the nearest-point map of a target net.

    ``nets[k]`` must cover the target ground within ``betas[k]`` (checked up
    front), and the betas must decrease.  The converted map has images inside
    the finite nets and diameter strictly below ``2 * beta_k + D_k``, which is
    asserted per index and reported with its slack.  A library and test
    route: no command of the CLI reaches it.
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
        pushed = nearest_sets(am.target, net, tie_tol)[mm.table]
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


@dataclass
class BoundConvergence:
    bound: float
    n0_consecutive: int         # least level from which all stored pairs pass; the last passes vacuously
    n0_inclusion: int | None    # least level from which the point-inclusion passes


@dataclass
class IdentityConvergenceReport:
    """Convergence of the nearest-point maps toward the singleton inclusion.

    ``pair_diameters[m]`` is the worst diameter of q_m(x) ∪ q_{m+1}(x) over
    the ground; ``inclusion_diameters[n]`` the worst of q_n(x) ∪ {x}.  Both
    must beat 2 * epsilon at their own level (violations signal a broken
    tower, not insufficient depth).  Per bound 2 epsilon_n the report gives
    the least usable start levels; the inclusion's is None when the stored
    prefix is too short.
    """

    levels: tuple[int, ...]
    pair_diameters: tuple[float, ...]
    inclusion_diameters: tuple[float, ...]
    per_bound: list[BoundConvergence]
    own_level_violations: list

    @property
    def ok(self) -> bool:
        return not self.own_level_violations and all(b.n0_inclusion is not None for b in self.per_bound)


def _least_start(levels, diameters, bound: float) -> int | None:
    """Least level from which every later diameter is below ``bound``, or None.

    ``diameters[i]`` belongs to ``levels[i]``; a level past the last one passes vacuously.
    """
    start = len(diameters)
    while start > 0 and diameters[start - 1] < bound:
        start -= 1
    return levels[start].index if start < len(levels) else None


def check_identity_convergence(tower: Tower) -> IdentityConvergenceReport:
    """Verify the nearest-point tower represents the identity on the sample.

    Tested on the neighborhood basis given by the level scales: the bound
    schedule is {2 epsilon_n}.  For each bound b the report carries the
    least n0 such that every stored consecutive pair from n0 on is
    homotopic inside b (union diameter < b), and the least n0 from which
    q_n ~ (x -> {x}) inside b.  Both diameters are union-homotopy witnesses
    at the pair's own bound 2 epsilon_n.
    """
    ground = tower.ground
    levels = list(tower.seq.levels)
    qs = [MultiMap(tower.q[lv.index]) for lv in levels]
    inclusion = MultiMap(np.arange(ground.n)[:, None])
    pair_ws = [check_homotopic_in_U(f, g, 2.0 * lv.epsilon, ground) for f, g, lv in zip(qs, qs[1:], levels)]
    incl_ws = [check_homotopic_in_U(f, inclusion, 2.0 * lv.epsilon, ground) for f, lv in zip(qs, levels)]
    pair_diams = [w.max_union_diameter for w in pair_ws]
    incl_diams = [w.max_union_diameter for w in incl_ws]

    violations = []
    for k, lv in enumerate(levels):
        for kind, ws in (("consecutive", pair_ws), ("inclusion", incl_ws)):
            if k < len(ws) and not ws[k].verdict:
                violations.append({"kind": kind, "level": lv.index, "diameter": ws[k].max_union_diameter, "bound": ws[k].bound})

    per_bound = [BoundConvergence(b, _least_start(levels, pair_diams, b), _least_start(levels, incl_diams, b))
                 for b in (2.0 * lv.epsilon for lv in levels)]

    return IdentityConvergenceReport(
        levels=tuple(lv.index for lv in levels),
        pair_diameters=tuple(pair_diams),
        inclusion_diameters=tuple(incl_diams),
        per_bound=per_bound,
        own_level_violations=violations,
    )


def check_diagram_commutes(tower: Tower, n: int) -> HomotopyWitness:
    """Square at level n: nearest map vs bonding after the finer nearest map.

    Builds the witness for f = q_n and g = p(n, n+1) . q_{n+1} with bound
    2 * epsilon_n; a pass certifies the square commutes up to homotopy inside
    the level-n hyperspace.
    """
    if not (1 <= n < tower.seq.depth):
        raise ValueError(f"need levels {n} and {n + 1} in a depth-{tower.seq.depth} tower")
    f = MultiMap(tower.q[n])
    g = MultiMap(tower.union_image(n, n + 1, tower.positions(n + 1, tower.q[n + 1])))
    return check_homotopic_in_U(f, g, 2.0 * tower.seq.level(n).epsilon, tower.ground, name=f"diagram_level_{n}")
