import itertools
import math

import numpy as np
import pytest

from finiteshape import construction
from finiteshape.construction import (
    build_adjusted_sequence,
    build_net,
    check_sequence_inequalities,
    cut_net,
    gamma,
    greedy_permutation,
    load_sequence_text,
    write_sequence_csv,
    write_sequence_text,
)
from finiteshape.metric import MetricGround, SpaceSpec, generate


def circle4():
    # exact finite 4-point circle: (1,0),(0,1),(-1,0),(0,-1), density 0
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    return MetricGround.from_coords(pts)


def is_approximation(dist, subset, eps):
    return bool(dist[:, list(subset)].min(axis=1).max() < eps)


def test_build_net_single_point():
    g = MetricGround.from_coords(np.array([[0.0, 0.0]]))
    assert build_net(g, 0.5) == (0,)


def test_build_net_circle4_eps_one():
    g = circle4()
    assert build_net(g, 1.0) == (0, 1, 2, 3)
    # brute force: no 3-subset is a 1.0-approximation
    for sub in itertools.combinations(range(4), 3):
        assert not is_approximation(g.dist, sub, 1.0)


def test_build_net_circle4_eps_one_and_a_half():
    g = circle4()
    net = build_net(g, 1.5)
    assert net == (0, 2)
    # exhaustive subset oracle: some 2-subset suffices, greedy found one
    ok2 = [s for s in itertools.combinations(range(4), 2) if is_approximation(g.dist, s, 1.5)]
    assert net in ok2


def test_build_net_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        build_net(circle4(), 0.0)


def test_gamma_full_net_is_zero():
    g = circle4()
    assert gamma(g, (0, 1, 2, 3)) == 0.0


def test_gamma_antipodal_circle4():
    g = circle4()
    assert gamma(g, (0, 2)) == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_gamma_interval_endpoints():
    g = generate(SpaceSpec("interval", n=101))
    assert gamma(g, (0, 100)) == pytest.approx(0.5, abs=1e-15)


def test_gamma_empty_net():
    with pytest.raises(ValueError):
        gamma(circle4(), ())


def test_sequence_single_point_halving():
    g = MetricGround.from_coords(np.array([[0.0, 0.0]]))
    seq = build_adjusted_sequence(g, epsilon1=1.0, depth=5, safety=0.9)
    assert seq.depth == 5
    for lv in seq.levels:
        assert lv.gamma == 0.0
        assert lv.net == (0,)
    for a, b in zip(seq.levels, seq.levels[1:]):
        assert b.epsilon == pytest.approx(0.45 * a.epsilon, rel=1e-15)


def test_sequence_circle4_hand_recursion():
    # density-0 ground uses the plain greedy threshold, so the recursion is
    # exactly: A_1 = {0, 2}, gamma_1 = sqrt(2), eps_2 = 0.9 (1.5 - sqrt 2) / 2,
    # then A_2 = all four points with gamma_2 = 0.
    g = circle4()
    seq = build_adjusted_sequence(g, epsilon1=1.5, depth=4, safety=0.9)
    l1, l2 = seq.level(1), seq.level(2)
    assert l1.net == (0, 2)
    assert l1.gamma == g.dist[0, 1]  # = sqrt(2) as computed, exact
    assert l2.epsilon == 0.9 * (1.5 - l1.gamma) / 2.0
    assert l2.epsilon == pytest.approx(0.0386, abs=5e-4)
    assert l2.net == (0, 1, 2, 3)
    assert l2.gamma == 0.0
    assert seq.depth == 4 and not seq.stopped_early


def test_sequence_warsaw_properties():
    g = generate(SpaceSpec("warsaw_circle", n=2000))
    seq = build_adjusted_sequence(g, epsilon1=0.5, depth=4, safety=0.9)
    assert seq.depth >= 2
    eps = [lv.epsilon for lv in seq.levels]
    assert all(a > b for a, b in zip(eps, eps[1:]))
    for lv in seq.levels:
        assert lv.gamma < lv.epsilon
        # net is an epsilon-approximation of the ground
        assert is_approximation(g.dist, lv.net, lv.epsilon)
    for rec in check_sequence_inequalities(seq):
        assert rec["ok"] and rec["slack"] > 0


def test_sequence_stops_early_with_status():
    g = generate(SpaceSpec("cantor", cantor_depth=4))
    seq = build_adjusted_sequence(g, epsilon1=0.5, depth=10, safety=0.9)
    assert seq.stopped_early
    assert seq.depth < 10
    assert "density" in seq.stop_reason


def test_sequence_precondition_errors():
    g = generate(SpaceSpec("circle", n=16))
    with pytest.raises(ValueError):
        build_adjusted_sequence(g, epsilon1=g.density, depth=3)
    with pytest.raises(ValueError):
        build_adjusted_sequence(g, epsilon1=1.0, depth=0)
    with pytest.raises(ValueError):
        build_adjusted_sequence(g, epsilon1=1.0, depth=3, safety=1.2)


@pytest.mark.parametrize(
    "spec,eps1",
    [
        (SpaceSpec("circle", n=64), 1.0),
        (SpaceSpec("interval", n=101), 0.5),
        (SpaceSpec("cantor", cantor_depth=3), 0.5),
    ],
)
def test_sequence_invariants_across_spaces(spec, eps1):
    g = generate(spec)
    seq = build_adjusted_sequence(g, epsilon1=eps1, depth=4)
    for prev, nxt in zip(seq.levels, seq.levels[1:]):
        assert nxt.epsilon < (prev.epsilon - prev.gamma) / 2.0
    for lv in seq.levels:
        assert gamma(g, lv.net) == lv.gamma


def test_build_adjusted_sequence_reads_every_level_off_one_greedy_pass(monkeypatch):
    calls = dict.fromkeys(("greedy_permutation", "build_net", "gamma"), 0)

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(construction, name, counting(name, getattr(construction, name)))
    g = generate(SpaceSpec("circle", n=256))
    seq = construction.build_adjusted_sequence(g, epsilon1=g.diameter() / 2.0, depth=4)
    assert seq.depth == 4
    assert calls == {"greedy_permutation": 1, "build_net": 0, "gamma": 0}


def _lazy_cut_grounds():
    rng = np.random.default_rng(11)
    table = MetricGround.from_coords(rng.random((120, 3))).dist
    return {
        "circle300": generate(SpaceSpec("circle", n=300)),
        "warsaw400": generate(SpaceSpec("warsaw_circle", n=400)),
        "random250-3d": MetricGround.from_coords(rng.normal(size=(250, 3))),
        "duplicates": MetricGround.from_coords(rng.integers(0, 4, size=(80, 2)).astype(float)),
        "distmatrix120": MetricGround.from_matrix(table),
    }


@pytest.mark.parametrize("name", list(_lazy_cut_grounds()))
def test_lazy_greedy_cut_matches_full_pass(name):
    g = _lazy_cut_grounds()[name]
    full = greedy_permutation(g).extend(0.0)
    assert len(full.order) == len(set(full.order.tolist())) and full.radii[-1] == 0.0
    positive = full.radii[full.radii > 0]
    rng = np.random.default_rng(0)
    # 20 thresholds between the radii and 20 equal to one
    thresholds = [*np.geomspace(1.1 * g.diameter(), 0.5 * positive.min(), 20), *rng.choice(positive, 20)]
    shared = greedy_permutation(g)
    for t in rng.permutation(thresholds):
        lazy = greedy_permutation(g)
        net, covered = cut_net(lazy, float(t))
        assert (net, covered) == cut_net(full, float(t)) == cut_net(shared, float(t))
        assert covered == gamma(g, net)
        assert len(lazy.order) == len(net)  # the pass stopped at the threshold
        assert np.array_equal(lazy.order, full.order[:len(net)])
        assert np.array_equal(lazy.radii, full.radii[:len(net)])


def test_sequence_roundtrip(tmp_path):
    g = circle4()
    seq = build_adjusted_sequence(g, epsilon1=1.5, depth=3)
    p = tmp_path / "seq.txt"
    write_sequence_text(seq, str(p))
    back = load_sequence_text(g, str(p))
    assert back.depth == seq.depth
    for a, b in zip(seq.levels, back.levels):
        assert a.net == b.net
        assert a.epsilon == b.epsilon
        assert a.gamma == b.gamma
    write_sequence_csv(seq, str(tmp_path / "seq.csv"))
    header = (tmp_path / "seq.csv").read_text().splitlines()[0]
    assert header == "n,epsilon,gamma,net_size"
