"""Witness-based homotopy checks in upper semifinite hyperspaces.

Every homotopy this machinery certifies has the same three-step shape: stay
at f, pass through the union f ∪ g at the midpoint, end at g.  The union of
two continuous maps into a hyperspace is continuous, and two maps contained
in a common third are homotopic through it, so the whole claim reduces to one
number: the largest diameter of f(x) ∪ g(x) over the domain.  The homotopy
exists inside the scale-bound neighborhood exactly when that number, which
the check computes from the two maps' tables (a ``MultiMap`` records no
diameter), is strictly below the bound.

The module holds the checks that ``run`` and ``verify`` print: the
convergence of the nearest-point maps to the identity and the level squares.
The conversion of an approximative map into one of finite type, with its
``2 beta + D`` diameter bound (Sanjurjo, Trans. AMS 1992), is a test oracle
in ``tests/reference_loops.py``; no command reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hyperspace import MultiMap, Tower, row_diameters
from .metric import MetricGround


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
    g = MultiMap(tower.pushed[n])
    return check_homotopic_in_U(f, g, 2.0 * tower.seq.level(n).epsilon, tower.ground, name=f"diagram_level_{n}")
