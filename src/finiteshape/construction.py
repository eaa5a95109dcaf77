"""Adjusted approximation sequences over a finite ground sample.

An adjusted sequence is a tower of finite nets ``A_n`` with scales
``epsilon_n`` satisfying, at every level,

    gamma_n = max_x d(x, A_n) < epsilon_n
    epsilon_{n+1} < (epsilon_n - gamma_n) / 2

The second inequality is realized with a safety factor:
``epsilon_{n+1} = safety * (epsilon_n - gamma_n) / 2`` with ``safety < 1``,
which keeps both comparisons strict under floating point.

Nets come from greedy farthest-point sampling.  Exactly represented grounds
(``density == 0``) build each net at the plain threshold ``epsilon_n``, the
textbook recursion.  Grounds that stand in for a continuum (``density > 0``)
would stall after one or two levels that way, because the greedy stopping
coverage sits barely below its threshold and the recursion collapses.  For
those, a geometric scale ladder is planned from ``epsilon_1`` down to just
above the sampling floor ``2 * density`` across the requested depth, and each
net is built densely enough that the realized next scale stays on or ahead of
the ladder even in the worst case ``gamma_n = threshold_n``.  Thresholds are
clamped into ``[min(2 * density, hi), hi]`` with
``hi = 0.98 * epsilon_n - maxNN / 2``: beneath twice the claimed density the
sample cannot honestly support a finer net, and above ``hi`` ground
quantization could leave consecutive net points farther apart than the level
scale ``2 * epsilon_n`` even though every ground point is covered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import MetricGround


@dataclass(frozen=True)
class Level:
    """One tower level: scale, net (ground indices, sorted), realized coverage."""

    index: int
    epsilon: float
    net: tuple[int, ...]
    gamma: float
    net_threshold: float

    def __post_init__(self):
        # gamma < epsilon is enforced by check_sequence_inequalities so that
        # stored towers with hand-edited violations can still be loaded and
        # reported as failing.
        if not self.net:
            raise ValueError("level net must be non-empty")


@dataclass(frozen=True)
class AdjustedSequence:
    ground: MetricGround
    levels: tuple[Level, ...]
    safety: float
    requested_depth: int
    net_fraction: float | None = None
    stopped_early: bool = False
    stop_reason: str | None = None

    @property
    def depth(self) -> int:
        return len(self.levels)

    def level(self, n: int) -> Level:
        """1-based level access."""
        return self.levels[n - 1]


def build_net(ground: MetricGround, epsilon: float) -> tuple[int, ...]:
    """Greedy farthest-point net: every ground point ends up within epsilon.

    Seeded at index 0; argmax ties resolve to the lowest index.  The result is
    inclusion-minimal only up to this greedy procedure.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    dist = ground.dist
    net = [0]
    cover = dist[0].copy()
    while True:
        far = int(np.argmax(cover))
        if cover[far] < epsilon:
            break
        net.append(far)
        np.minimum(cover, dist[far], out=cover)
    return tuple(sorted(net))


def gamma(ground: MetricGround, net) -> float:
    """Realized coverage radius: max over ground of distance to the net."""
    net = tuple(net)
    if not net:
        raise ValueError("net must be non-empty")
    return float(ground.dist[:, net].min(axis=1).max())


_LADDER_MARGIN = 1.15  # planned last-level scale sits 15% above the stopping floor


def plan_ladder(epsilon1: float, depth: int, density: float, safety: float) -> list[float] | None:
    """Geometric target scales epsilon1 * rho^k, aimed 15% above the floor.

    Returns None when no ladder is needed (exact ground) or none can help
    (floor unreachable even with gamma = 0, or a single level).
    """
    if density == 0.0 or depth < 2:
        return None
    floor = 2.0 * density
    rho = (floor * _LADDER_MARGIN / epsilon1) ** (1.0 / (depth - 1))
    if rho >= 0.999 * safety / 2.0:
        return None
    return [epsilon1 * rho ** k for k in range(depth + 1)]


def _clamp_threshold(t: float, epsilon: float, density: float, max_nn: float) -> float:
    if density <= 0:
        return min(t, epsilon)
    # Gap safety: greedy coverage below t only bounds net gaps by
    # 2 t + max_nn on a quantized ground, so cap t to keep every gap
    # strictly below the level scale 2 epsilon.
    hi = 0.98 * epsilon - 0.5 * max_nn
    lo = min(2.0 * density, hi)
    return min(max(t, lo), hi)


def net_threshold(
    epsilon: float,
    density: float,
    max_nn: float,
    level_index: int,
    ladder: list[float] | None,
    safety: float,
    fraction: float | None = None,
) -> float:
    """Greedy threshold for the net at realized scale ``epsilon``.

    With a ladder, the threshold is the largest coverage for which the next
    scale ``safety * (epsilon - gamma) / 2`` cannot fall behind the planned
    target; without one, it is ``epsilon`` itself (or ``fraction * epsilon``
    when an explicit fraction is supplied).  Sampled grounds clamp the result
    into [min(2 density, hi), hi] with hi = 0.98 epsilon - max_nn / 2: the
    lower bound stops nets denser than the sample resolution, the upper one
    keeps consecutive net points within the level scale despite ground
    quantization.
    """
    if fraction is not None:
        return _clamp_threshold(fraction * epsilon, epsilon, density, max_nn)
    if ladder is None:
        return _clamp_threshold(0.5 * epsilon if density > 0 else epsilon, epsilon, density, max_nn)
    target_next = ladder[level_index]  # ladder[k] = target for level k+1
    t = epsilon - (2.0 / safety) * target_next
    return _clamp_threshold(t, epsilon, density, max_nn)


def build_adjusted_sequence(
    ground: MetricGround,
    epsilon1: float,
    depth: int,
    safety: float = 0.9,
    net_fraction: float | None = None,
) -> AdjustedSequence:
    """Build levels 1..depth, stopping early at the sampling resolution.

    Preconditions: ``epsilon1 > 2 * ground.density`` (finite sampling noise
    must not be able to fake the inequalities), ``depth >= 1``,
    ``0 < safety < 1``.  Construction stops with an explicit status as soon as
    the next scale would fall to ``2 * ground.density`` or below.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if not (0.0 < safety < 1.0):
        raise ValueError(f"safety must lie strictly between 0 and 1, got {safety!r}")
    if not epsilon1 > 2.0 * ground.density:
        raise ValueError(
            f"epsilon1 {epsilon1!r} must exceed twice the ground density ({2.0 * ground.density!r})"
        )
    if net_fraction is not None and not (0.0 < net_fraction <= 1.0):
        raise ValueError(f"net_fraction must lie in (0, 1], got {net_fraction!r}")
    ladder = plan_ladder(epsilon1, depth, ground.density, safety) if net_fraction is None else None
    max_nn = ground.max_nearest_neighbor() if ground.density > 0 else 0.0

    levels: list[Level] = []
    stopped = False
    reason = None
    eps = float(epsilon1)
    for n in range(1, depth + 1):
        t = net_threshold(eps, ground.density, max_nn, n, ladder, safety, net_fraction)
        net = build_net(ground, t)
        g = gamma(ground, net)
        levels.append(Level(index=n, epsilon=eps, net=net, gamma=g, net_threshold=t))
        if n == depth:
            break
        nxt = safety * (eps - g) / 2.0
        if ground.density > 0 and nxt <= 2.0 * ground.density:
            stopped = True
            reason = (
                f"epsilon_{n + 1} = {nxt!r} <= 2 * density = {2.0 * ground.density!r}; "
                f"built {n} of {depth} requested levels"
            )
            break
        eps = nxt

    seq = AdjustedSequence(
        ground=ground,
        levels=tuple(levels),
        safety=safety,
        requested_depth=depth,
        net_fraction=net_fraction,
        stopped_early=stopped,
        stop_reason=reason,
    )
    for rec in check_sequence_inequalities(seq):
        if not rec["ok"]:
            raise AssertionError(f"built sequence violates {rec['name']}: {rec}")
    return seq


def check_sequence_inequalities(seq: AdjustedSequence) -> list[dict]:
    """Exact strict comparisons for the tower inequalities, with slacks."""
    out = []
    for lv in seq.levels:
        out.append(
            {
                "name": f"gamma_{lv.index} < epsilon_{lv.index}",
                "ok": lv.gamma < lv.epsilon,
                "slack": lv.epsilon - lv.gamma,
                "level": lv.index,
            }
        )
    for prev, nxt in zip(seq.levels, seq.levels[1:]):
        bound = (prev.epsilon - prev.gamma) / 2.0
        out.append(
            {
                "name": f"epsilon_{nxt.index} < (epsilon_{prev.index} - gamma_{prev.index})/2",
                "ok": nxt.epsilon < bound,
                "slack": bound - nxt.epsilon,
                "level": nxt.index,
            }
        )
    return out


def write_sequence_text(seq: AdjustedSequence, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("# finiteshape adjusted sequence\n")
        fh.write(f"# density = {seq.ground.density!r}\n")
        fh.write(f"# safety = {seq.safety!r}\n")
        fh.write(f"# net_fraction = {seq.net_fraction!r}\n")
        fh.write(f"# requested_depth = {seq.requested_depth}\n")
        fh.write(f"# stopped_early = {seq.stopped_early}\n")
        if seq.stop_reason:
            fh.write(f"# stop_reason = {seq.stop_reason}\n")
        for lv in seq.levels:
            net = ",".join(str(i) for i in lv.net)
            fh.write(
                f"level n={lv.index} epsilon={lv.epsilon!r} gamma={lv.gamma!r} "
                f"threshold={lv.net_threshold!r} net={net}\n"
            )


def write_sequence_csv(seq: AdjustedSequence, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("n,epsilon,gamma,net_size\n")
        for lv in seq.levels:
            fh.write(f"{lv.index},{lv.epsilon!r},{lv.gamma!r},{len(lv.net)}\n")


class SequenceFormatError(ValueError):
    """A stored sequence file is malformed or does not fit its ground sample."""


def load_sequence_text(ground: MetricGround, path: str) -> AdjustedSequence:
    """Re-load an exported sequence (for verification of stored towers).

    Raises ``SequenceFormatError``, naming the line, for an unparsable line,
    level numbers that do not run 1, 2, 3, ..., a net that is not a sorted,
    duplicate-free list of ground indices in ``[0, ground.n)``, or a stored
    ``gamma`` that is not the net's coverage radius on ``ground``: the tower
    inequalities are checked against the stored value, so it must be the
    real one.
    """
    safety = 0.9
    net_fraction = None
    requested = 0
    stopped = False
    reason = None
    levels = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                if line.startswith("#"):
                    body = line[1:].strip()
                    if body.startswith("safety ="):
                        safety = float(body.split("=", 1)[1])
                    elif body.startswith("net_fraction ="):
                        raw = body.split("=", 1)[1].strip()
                        net_fraction = None if raw == "None" else float(raw)
                    elif body.startswith("requested_depth ="):
                        requested = int(body.split("=", 1)[1])
                    elif body.startswith("stopped_early ="):
                        stopped = body.split("=", 1)[1].strip() == "True"
                    elif body.startswith("stop_reason ="):
                        reason = body.split("=", 1)[1].strip()
                    continue
                if not line.startswith("level "):
                    raise ValueError("unrecognized sequence line")
                fields = dict(part.split("=", 1) for part in line[len("level "):].split())
                lv = Level(
                    index=int(fields["n"]),
                    epsilon=float(fields["epsilon"]),
                    net=tuple(int(i) for i in fields["net"].split(",")),
                    gamma=float(fields["gamma"]),
                    net_threshold=float(fields.get("threshold", fields["epsilon"])),
                )
            except (ValueError, KeyError) as exc:
                raise SequenceFormatError(f"{where}: cannot parse {line!r}: {exc!r}") from exc
            if lv.index != len(levels) + 1:
                raise SequenceFormatError(
                    f"{where}: level n={lv.index} where n={len(levels) + 1} was expected; "
                    f"levels must be numbered 1, 2, 3, ... in order"
                )
            outside = [i for i in lv.net if not 0 <= i < ground.n]
            if outside:
                raise SequenceFormatError(
                    f"{where}: level {lv.index} net index {outside[0]} lies outside [0, {ground.n})"
                )
            if any(a >= b for a, b in zip(lv.net, lv.net[1:])):
                raise SequenceFormatError(f"{where}: level {lv.index} net is not sorted and duplicate-free")
            covered = gamma(ground, lv.net)
            if covered != lv.gamma:
                raise SequenceFormatError(
                    f"{where}: level {lv.index} stores gamma={lv.gamma!r}, "
                    f"but its net covers the ground within gamma={covered!r}"
                )
            levels.append(lv)
    if not levels:
        raise SequenceFormatError(f"{path}: no level lines")
    return AdjustedSequence(
        ground=ground,
        levels=tuple(levels),
        safety=safety,
        requested_depth=requested or len(levels),
        net_fraction=net_fraction,
        stopped_early=stopped,
        stop_reason=reason,
    )
