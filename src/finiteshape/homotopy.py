"""Witness-based homotopy checks in upper semifinite hyperspaces.

Every homotopy this machinery certifies has the same three-step shape: stay
at f, pass through the union f ∪ g at the midpoint, end at g.  The union of
two continuous maps into a hyperspace is continuous, and two maps contained
in a common third are homotopic through it, so the whole claim reduces to one
number: the largest diameter of f(x) ∪ g(x) over the domain.  The homotopy
exists inside the scale-bound neighborhood exactly when that number is
strictly below the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construction import gamma as net_gamma
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
    if f.domain_kind != g.domain_kind or len(f.table) != len(g.table):
        raise ValueError("maps must share a domain")
    diameters = row_diameters(ground, np.hstack([f.table, g.table]))
    worst_item = int(np.argmax(diameters)) if len(diameters) else 0
    worst = float(diameters[worst_item]) if len(diameters) else -1.0
    return HomotopyWitness(
        name=name, bound=float(bound), max_union_diameter=float(worst),
        worst_item=worst_item, verdict=worst < bound,
    )


@dataclass(frozen=True)
class ApproximativeMap:
    """Finite prefix of a multivalued map sequence with shrinking images.

    ``maps[k]`` sends each source ground point to a subset of the target
    ground; ``diameters[k]`` is its largest image diameter, non-increasing
    over the stored prefix.
    """

    source: MetricGround
    target: MetricGround
    maps: tuple[MultiMap, ...]
    diameters: tuple[float, ...]

    def __post_init__(self):
        if len(self.maps) != len(self.diameters):
            raise ValueError("one diameter per map required")
        for k, (mm, d) in enumerate(zip(self.maps, self.diameters)):
            if len(mm.table) != self.source.n:
                raise ValueError(f"map {k} does not cover the source ground")
            if d != mm.diameter:
                raise ValueError(f"map {k}: recorded diameter {d!r} != map diameter {mm.diameter!r}")
        for a, b in zip(self.diameters, self.diameters[1:]):
            if b > a:
                raise ValueError(f"diameters must be non-increasing, got {a!r} then {b!r}")

    @staticmethod
    def from_images(source: MetricGround, target: MetricGround, image_seq) -> "ApproximativeMap":
        tables = [padded_table([sorted(img) for img in images]) for images in image_seq]
        maps = tuple(MultiMap("ground", t, map_diameter(target, t)) for t in tables)
        return ApproximativeMap(source, target, maps, tuple(m.diameter for m in maps))


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
        cov = net_gamma(am.target, net)
        if not cov < beta:
            raise ValueError(
                f"net {k} is not a beta-approximation: coverage {cov!r} >= beta {beta!r}"
            )

    target = am.target
    maps = []
    for mm, net in zip(am.maps, nets):
        pushed = nearest_sets(target, net, tie_tol)[mm.table]
        table = _union_rows(pushed.reshape(len(pushed), -1))
        maps.append(MultiMap("ground", table, map_diameter(target, table)))

    converted = ApproximativeMap(am.source, am.target, tuple(maps), tuple(m.diameter for m in maps))
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
    n0_consecutive: int | None  # least level from which all stored pairs pass
    n0_inclusion: int | None    # least level from which the point-inclusion passes
    vacuous_consecutive: bool   # no stored pair remains at or after n0


@dataclass
class IdentityConvergenceReport:
    """Convergence of the nearest-point maps toward the singleton inclusion.

    ``pair_diameters[m]`` is the worst diameter of q_m(x) ∪ q_{m+1}(x) over
    the ground; ``inclusion_diameters[n]`` the worst of q_n(x) ∪ {x}.  Both
    must beat 2 * epsilon at their own level (violations signal a broken
    tower, not insufficient depth).  Per requested bound the report gives the
    least usable start level, or None when the stored prefix is too short.
    """

    levels: tuple[int, ...]
    pair_diameters: tuple[float, ...]
    inclusion_diameters: tuple[float, ...]
    per_bound: list[BoundConvergence]
    own_level_violations: list

    @property
    def ok(self) -> bool:
        if self.own_level_violations:
            return False
        return all(b.n0_consecutive is not None and b.n0_inclusion is not None for b in self.per_bound)


def check_identity_convergence(tower: Tower, extra_bounds=()) -> IdentityConvergenceReport:
    """Verify the nearest-point tower represents the identity on the sample.

    Tested on the neighborhood basis given by the level scales: the bound
    schedule is {2 epsilon_n} plus any extras.  For each bound b the report
    carries the least n0 such that every stored consecutive pair from n0 on is
    homotopic inside b (union diameter < b), and the least n0 from which
    q_n ~ (x -> {x}) inside b.  Both diameters are union-homotopy witnesses
    at the pair's own bound 2 epsilon_n.
    """
    ground = tower.ground
    levels = list(tower.seq.levels)
    qs = [tower.nearest_map(lv.index) for lv in levels]
    inclusion = MultiMap("ground", np.arange(ground.n)[:, None], 0.0)
    pair_ws = [check_homotopic_in_U(f, g, 2.0 * lv.epsilon, ground) for f, g, lv in zip(qs, qs[1:], levels)]
    incl_ws = [check_homotopic_in_U(f, inclusion, 2.0 * lv.epsilon, ground) for f, lv in zip(qs, levels)]
    pair_diams = [w.max_union_diameter for w in pair_ws]
    incl_diams = [w.max_union_diameter for w in incl_ws]

    violations = []
    for k, lv in enumerate(levels):
        if k < len(pair_ws) and not pair_ws[k].verdict:
            violations.append({"kind": "consecutive", "level": lv.index, "diameter": pair_diams[k], "bound": 2.0 * lv.epsilon})
        if not incl_ws[k].verdict:
            violations.append({"kind": "inclusion", "level": lv.index, "diameter": incl_diams[k], "bound": 2.0 * lv.epsilon})

    # suffix maxima over levels; an empty pair suffix passes vacuously (the
    # stored prefix has nothing left to check from that level on)
    sfx_pairs = [-math.inf] * len(levels)
    for i in range(len(pair_diams) - 1, -1, -1):
        sfx_pairs[i] = max(pair_diams[i], sfx_pairs[i + 1])
    sfx_incl = list(incl_diams)
    for i in range(len(sfx_incl) - 2, -1, -1):
        sfx_incl[i] = max(sfx_incl[i], sfx_incl[i + 1])

    bounds = [2.0 * lv.epsilon for lv in levels] + [float(b) for b in extra_bounds]
    per_bound = []
    for b in bounds:
        n0_pair = None
        vac = False
        for idx, v in enumerate(sfx_pairs):
            if v < b:
                n0_pair = levels[idx].index
                vac = idx >= len(pair_diams)
                break
        n0_incl = None
        for idx, v in enumerate(sfx_incl):
            if v < b:
                n0_incl = levels[idx].index
                break
        per_bound.append(BoundConvergence(bound=b, n0_consecutive=n0_pair, n0_inclusion=n0_incl, vacuous_consecutive=vac))

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
    ground = tower.ground
    g_table = tower.union_image(n, n + 1, tower.positions(n + 1, tower.q[n + 1]))
    g = MultiMap("ground", g_table, map_diameter(ground, g_table))
    return check_homotopic_in_U(tower.nearest_map(n), g, 2.0 * tower.seq.level(n).epsilon, ground, name=f"diagram_level_{n}")
