"""Adjusted approximation sequences over a finite ground sample.

An adjusted sequence is a tower of finite nets ``A_n`` with scales
``epsilon_n`` satisfying, at every level,

    gamma_n = max_x d(x, A_n) < epsilon_n
    epsilon_{n+1} < (epsilon_n - gamma_n) / 2

The second inequality is realized with a safety factor:
``epsilon_{n+1} = safety * (epsilon_n - gamma_n) / 2`` with ``safety < 1``,
which keeps both comparisons strict under floating point.

Nets are prefixes of one greedy farthest-point order of the ground, each cut
where the insertion radius drops below its threshold, and ``gamma_n`` is the
next insertion radius (Gonzalez 1985).  The order is extended lazily and
stops once its radius falls below the finest threshold asked for.  Each
inserted point reads its distances only to the points within its insertion
radius, the only ones whose coverage it can change: on a coordinate ground
that is one contiguous window of the points sorted along the axis of widest
spread (``MetricGround.within``, with the rounding argument in
``metric.axis_reach``); a distance-matrix ground gives its whole row.
Exactly represented grounds (``density == 0``) build each net at the plain
threshold ``epsilon_n``, the textbook recursion.  Grounds that stand in for a continuum (``density > 0``)
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

from .metric import MetricGround, row_blocks


@dataclass(frozen=True)
class Level:
    """One tower level: scale, net (ground indices, sorted), realized coverage."""

    index: int
    epsilon: float
    net: tuple[int, ...]
    gamma: float

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
    requested_depth: int
    stop_reason: str | None = None  # why fewer than requested_depth levels were built

    @property
    def stopped_early(self) -> bool:
        return self.stop_reason is not None

    @property
    def depth(self) -> int:
        return len(self.levels)

    def level(self, n: int) -> Level:
        """1-based level access."""
        return self.levels[n - 1]


def padded_rows(n_rows: int, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Table whose row r lists the ``values`` paired with r, in the given order.

    ``rows`` is nondecreasing and names every row at least once.  A short
    row repeats its first entry.  Repeated entries change no union, minimum
    or maximum over a row, so every image check is a reduction over gathers
    of whole rows.  Every padded table of the package is built here.
    """
    counts = np.bincount(rows, minlength=n_rows)
    starts = np.cumsum(counts) - counts
    out = np.repeat(values[starts][:, None], int(counts.max(initial=1)), axis=1)
    out[rows, np.arange(len(rows)) - starts[rows]] = values
    return out


class GreedyPermutation:
    """Farthest-point order of a ground, computed only as far as it is read.

    Seeded at index 0; argmax ties resolve to the lowest index.  ``order[k]``
    is the k-th point inserted and ``radii[k]`` the coverage radius of
    ``order[:k + 1]``, which is the insertion radius of the next point; the
    radii never increase, and the whole pass ends at 0.  ``extend(t)``
    inserts points until the last radius falls below ``t`` (``extend(0)``
    runs the whole pass).  Each insertion reads the distances within its
    insertion radius (``_insert``), and the computed prefix does not depend
    on where the pass stops.
    """

    def __init__(self, ground: MetricGround):
        self.ground = ground
        self._cover = np.full(ground.n, np.inf)
        self._order: list[int] = []
        self._radii: list[float] = []
        self._insert(0, np.inf)

    def _insert(self, i: int, radius: float) -> None:
        """Insert point ``i``, whose coverage so far is the pass's radius ``radius``.

        Only points within ``radius`` of ``i`` are read
        (``MetricGround.within``): a point farther away keeps its coverage,
        which is at most ``radius``.  The argmax still runs over every point.
        """
        self._order.append(i)
        points, row = self.ground.within(i, radius)
        self._cover[points] = np.minimum(self._cover[points], row)
        self._next = int(self._cover.argmax())
        self._radii.append(float(self._cover[self._next]))

    def extend(self, threshold: float) -> "GreedyPermutation":
        while self._radii[-1] >= threshold and self._radii[-1] > 0.0:
            self._insert(self._next, self._radii[-1])
        return self

    @property
    def order(self) -> np.ndarray:
        return np.array(self._order)

    @property
    def radii(self) -> np.ndarray:
        return np.array(self._radii)


def cut_net(perm: GreedyPermutation, threshold: float) -> tuple[tuple[int, ...], float]:
    """Greedy net at ``threshold`` (the points inserted at radius >= it, sorted) and its coverage.

    The pass is extended only until its radius falls below ``threshold``.
    """
    if threshold <= 0:
        raise ValueError(f"net threshold must be positive, got {threshold!r}")
    radii = perm.extend(threshold).radii
    size = 1 + int(np.count_nonzero(radii >= threshold))
    return tuple(sorted(perm.order[:size].tolist())), float(radii[size - 1])


def build_net(ground: MetricGround, epsilon: float) -> tuple[int, ...]:
    """Greedy farthest-point net covering the ground within epsilon; a prefix of ``GreedyPermutation``."""
    return cut_net(GreedyPermutation(ground), epsilon)[0]


def gamma(ground: MetricGround, net) -> float:
    """Realized coverage radius of a given net: max over ground of distance to the net."""
    net = np.asarray(tuple(net), dtype=np.intp)
    if not net.size:
        raise ValueError("net must be non-empty")
    return max(float(ground.block(rows, net).min(axis=1).max()) for rows in row_blocks(ground.n, len(net)))


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
) -> float:
    """Greedy threshold for the net at realized scale ``epsilon``.

    With a ladder, the threshold is the largest coverage for which the next
    scale ``safety * (epsilon - gamma) / 2`` cannot fall behind the planned
    target; without one, it is ``epsilon`` itself on an exact ground and
    ``epsilon / 2`` on a sampled one.  Sampled grounds clamp the result
    into [min(2 density, hi), hi] with hi = 0.98 epsilon - max_nn / 2: the
    lower bound stops nets denser than the sample resolution, the upper one
    keeps consecutive net points within the level scale despite ground
    quantization.
    """
    if ladder is None:
        return _clamp_threshold(0.5 * epsilon if density > 0 else epsilon, epsilon, density, max_nn)
    target_next = ladder[level_index]  # ladder[k] = target for level k+1
    t = epsilon - (2.0 / safety) * target_next
    return _clamp_threshold(t, epsilon, density, max_nn)


def build_adjusted_sequence(ground: MetricGround, epsilon1: float, depth: int, safety: float = 0.9) -> AdjustedSequence:
    """Build levels 1..depth, stopping early at the sampling resolution.

    Preconditions: ``epsilon1 > 2 * ground.density`` (finite sampling noise
    must not be able to fake the inequalities), ``depth >= 1``,
    ``0 < safety < 1``.  Construction stops with an explicit status as soon as
    the next scale would fall to ``2 * ground.density`` or below.  The nets
    are cut from one farthest-point pass.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if not (0.0 < safety < 1.0):
        raise ValueError(f"safety must lie strictly between 0 and 1, got {safety!r}")
    if not epsilon1 > 2.0 * ground.density:
        raise ValueError(
            f"epsilon1 {epsilon1!r} must exceed twice the ground density ({2.0 * ground.density!r})"
        )
    ladder = plan_ladder(epsilon1, depth, ground.density, safety)
    max_nn = ground.max_nearest_neighbor() if ground.density > 0 else 0.0
    perm = GreedyPermutation(ground)

    levels: list[Level] = []
    reason = None
    eps = float(epsilon1)
    for n in range(1, depth + 1):
        t = net_threshold(eps, ground.density, max_nn, n, ladder, safety)
        if t <= 0:  # the gap clamp 0.98 epsilon - max_nn / 2 left nothing, or epsilon itself underflowed
            cause = (f"the largest nearest-neighbour distance {max_nn!r} at density {ground.density!r} is at least "
                     f"1.96 * epsilon_{n}, so no net keeps its gaps below the level scale" if ground.density > 0
                     else f"at density 0 the threshold is epsilon_{n} itself, which has underflowed to zero")
            raise ValueError(f"level {n} has no positive net threshold: epsilon_{n} = {eps!r}, and {cause}")
        net, g = cut_net(perm, t)
        levels.append(Level(index=n, epsilon=eps, net=net, gamma=g))
        if n == depth:
            break
        nxt = safety * (eps - g) / 2.0
        if ground.density > 0 and nxt <= 2.0 * ground.density:
            reason = (
                f"epsilon_{n + 1} = {nxt!r} <= 2 * density = {2.0 * ground.density!r}; "
                f"built {n} of {depth} requested levels"
            )
            break
        eps = nxt

    seq = AdjustedSequence(
        ground=ground,
        levels=tuple(levels),
        requested_depth=depth,
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
        fh.write(f"# requested_depth = {seq.requested_depth}\n")
        fh.write(f"# stopped_early = {seq.stopped_early}\n")
        if seq.stop_reason:
            fh.write(f"# stop_reason = {seq.stop_reason}\n")
        for lv in seq.levels:
            net = ",".join(str(i) for i in lv.net)
            fh.write(f"level n={lv.index} epsilon={lv.epsilon!r} gamma={lv.gamma!r} net={net}\n")


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
    level numbers that do not run 1, 2, 3, ..., an ``epsilon`` that is not
    finite and positive, a net that is not a sorted, duplicate-free list of
    ground indices in ``[0, ground.n)``, a stored ``gamma`` that is not the
    net's coverage radius on ``ground`` (the checks judge the stored values),
    a ``requested_depth`` below the number of levels, or above it without a
    ``stop_reason`` (a truncated file), a ``stop_reason`` without a
    ``requested_depth`` above the number of levels, or a ``stop_reason`` on
    a ground of density 0, where ``build_adjusted_sequence`` never stops
    early, or a stored ``density`` that is not the ground's (the tower was
    built for another sample claim).  A file without a ``density`` line
    still loads.  The ``stopped_early`` line is not read; ``stop_reason``
    alone marks a stop.  The ``safety`` line and ``threshold`` fields of
    older files are ignored: no check reads them.
    """
    requested = requested_at = None
    reason = reason_at = None
    density = density_at = None
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
                    if body.startswith("requested_depth ="):
                        requested, requested_at = int(body.split("=", 1)[1]), where
                    elif body.startswith("stop_reason ="):
                        reason, reason_at = body.split("=", 1)[1].strip(), where
                    elif body.startswith("density ="):
                        density, density_at = float(body.split("=", 1)[1]), where
                    continue
                if not line.startswith("level "):
                    raise ValueError("unrecognized sequence line")
                fields = dict(part.split("=", 1) for part in line[len("level "):].split())
                lv = Level(
                    index=int(fields["n"]),
                    epsilon=float(fields["epsilon"]),
                    net=tuple(int(i) for i in fields["net"].split(",")),
                    gamma=float(fields["gamma"]),
                )
            except (ValueError, KeyError) as exc:
                raise SequenceFormatError(f"{where}: cannot parse {line!r}: {exc!r}") from exc
            if lv.index != len(levels) + 1:
                raise SequenceFormatError(
                    f"{where}: level n={lv.index} where n={len(levels) + 1} was expected; "
                    f"levels must be numbered 1, 2, 3, ... in order"
                )
            if not 0.0 < lv.epsilon < np.inf:
                raise SequenceFormatError(f"{where}: level {lv.index} epsilon={lv.epsilon!r} is not finite and positive")
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
    if density is not None and density != ground.density:
        raise SequenceFormatError(f"{density_at}: stored density = {density!r} is not the ground's density "
                                  f"{ground.density!r}")
    if not levels:
        raise SequenceFormatError(f"{path}: no level lines")
    if requested is not None and requested < len(levels):
        raise SequenceFormatError(f"{requested_at}: requested_depth = {requested} is below the {len(levels)} stored levels")
    if requested is not None and requested > len(levels) and reason is None:
        raise SequenceFormatError(f"{requested_at}: requested_depth = {requested} is above the {len(levels)} stored levels, "
                                  f"and no stop_reason says why")
    if reason is not None and requested in (None, len(levels)):
        missing = "no requested_depth line" if requested is None else f"all {requested} requested levels are stored"
        raise SequenceFormatError(f"{reason_at}: stop_reason describes no stop: {missing}")
    if reason is not None and ground.density == 0.0:
        raise SequenceFormatError(f"{reason_at}: stop_reason on a ground of density 0, where construction never "
                                  f"stops early; give the sample's density with --density")
    return AdjustedSequence(
        ground=ground,
        levels=tuple(levels),
        requested_depth=len(levels) if requested is None else requested,
        stop_reason=reason,
    )
