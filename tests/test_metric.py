import math

import numpy as np
import pytest

from finiteshape.metric import (
    GroundValidationError,
    MetricGround,
    SpaceSpec,
    generate,
    load_ground,
    write_coords_csv,
    write_distmatrix_csv,
)


class UnionFind:
    """Independent connectivity oracle."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def components(self):
        return len({self.find(i) for i in range(len(self.parent))})


def components_at_scale(dist, scale):
    n = dist.shape[0]
    uf = UnionFind(n)
    ii, jj = np.nonzero(dist <= scale)
    for a, b in zip(ii, jj):
        uf.union(int(a), int(b))
    return uf.components()


def test_two_points_forced_by_definition():
    g = generate(SpaceSpec("two_points", separation=1.0))
    assert g.n == 2
    assert g.dist[0, 1] == 1.0
    assert g.density == 0.0


def test_circle_four_points_chord_lengths():
    # brute-force chord oracle: d(i,j) = 2 r sin(pi |i-j| / n)
    g = generate(SpaceSpec("circle", n=4, radius=1.0))
    for i in range(4):
        for j in range(4):
            k = min(abs(i - j), 4 - abs(i - j))
            expected = 2.0 * math.sin(math.pi * k / 4)
            assert g.dist[i, j] == pytest.approx(expected, abs=1e-12)
    assert g.dist[0, 1] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert g.dist[0, 2] == pytest.approx(2.0, abs=1e-12)


def test_warsaw_count_and_connectivity():
    g = generate(SpaceSpec("warsaw_circle", n=2000))
    assert g.n == 2000
    assert g.density > 0
    # union-find oracle: connected at scale 2 * density
    assert components_at_scale(g.dist, 2.0 * g.density) == 1


def test_warsaw_covers_expected_extent():
    g = generate(SpaceSpec("warsaw_circle", n=2000))
    xs, ys = g.coords[:, 0], g.coords[:, 1]
    assert xs.min() == 0.0
    assert xs.max() == pytest.approx(2.0 / math.pi, abs=1e-9)
    assert ys.min() == pytest.approx(-1.5, abs=1e-9)
    assert ys.max() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "spec",
    [
        SpaceSpec("circle", n=64),
        SpaceSpec("interval", n=101),
        SpaceSpec("cantor", cantor_depth=4),
        SpaceSpec("warsaw_circle", n=500),
    ],
)
def test_density_claim_is_honest(spec):
    # every sample point is within 2*density of the rest of the sample
    g = generate(spec)
    assert g.max_nearest_neighbor() <= 2.0 * g.density + 1e-12


def test_generate_deterministic():
    a = generate(SpaceSpec("warsaw_circle", n=300, seed=7))
    b = generate(SpaceSpec("warsaw_circle", n=300, seed=7))
    assert np.array_equal(a.dist, b.dist)
    assert np.array_equal(a.coords, b.coords)


def test_generate_errors():
    with pytest.raises(ValueError):
        generate(SpaceSpec("pretzel"))
    with pytest.raises(ValueError):
        generate(SpaceSpec("circle", n=0))
    with pytest.raises(ValueError):
        generate(SpaceSpec("custom"))


def test_cantor_points():
    g = generate(SpaceSpec("cantor", cantor_depth=2))
    xs = sorted(g.coords[:, 0])
    assert xs == pytest.approx([0, 1 / 9, 2 / 9, 1 / 3, 2 / 3, 7 / 9, 8 / 9, 1.0])
    assert g.density == pytest.approx(1 / 18)


def test_load_coords_single_point(tmp_path):
    p = tmp_path / "one.csv"
    p.write_text("id,x,y\n0,0.5,0.25\n")
    g = load_ground(str(p), "coords_csv")
    assert g.n == 1
    assert g.dist.shape == (1, 1)
    assert g.dist[0, 0] == 0.0


def test_load_coords_pythagoras(tmp_path):
    p = tmp_path / "tri.csv"
    p.write_text("id,x,y\n0,0,0\n1,1,0\n2,0,1\n")
    g = load_ground(str(p), "coords_csv")
    assert g.dist[0, 1] == pytest.approx(1.0)
    assert g.dist[0, 2] == pytest.approx(1.0)
    assert g.dist[1, 2] == pytest.approx(math.sqrt(2.0))


def test_load_distmatrix_triangle_violation(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0,1,5\n1,0,1\n5,1,0\n")
    with pytest.raises(GroundValidationError) as err:
        load_ground(str(p), "distmatrix_csv")
    assert "(0,1,2)" in str(err.value)


def test_load_distmatrix_asymmetric(tmp_path):
    p = tmp_path / "asym.csv"
    p.write_text("0,1\n2,0\n")
    with pytest.raises(GroundValidationError) as err:
        load_ground(str(p), "distmatrix_csv")
    assert "asymmetric" in str(err.value)


def test_load_distmatrix_negative(tmp_path):
    p = tmp_path / "neg.csv"
    p.write_text("0,-1\n-1,0\n")
    with pytest.raises(GroundValidationError):
        load_ground(str(p), "distmatrix_csv")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_coords_rejects_non_finite(tmp_path, value):
    p = tmp_path / "nan.csv"
    p.write_text(f"id,x,y\n0,0,0\n1,1,0\n2,{value},1\n")
    with pytest.raises(GroundValidationError) as err:
        load_ground(str(p), "coords_csv")
    assert "non-finite coordinate in row 2" in str(err.value)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_load_distmatrix_rejects_non_finite(tmp_path, value):
    p = tmp_path / "nan.csv"
    p.write_text(f"0,1,2\n1,0,{value}\n2,{value},0\n")
    with pytest.raises(GroundValidationError) as err:
        load_ground(str(p), "distmatrix_csv")
    assert f"non-finite distance in row 1: d(1,2)={value}" in str(err.value)


def test_coords_roundtrip(tmp_path):
    g = generate(SpaceSpec("circle", n=16))
    p = tmp_path / "c.csv"
    write_coords_csv(g, str(p))
    back = load_ground(str(p), "coords_csv")
    assert np.array_equal(back.coords, g.coords)
    assert np.array_equal(back.dist, g.dist)


def test_distmatrix_roundtrip(tmp_path):
    g = generate(SpaceSpec("interval", n=10))
    p = tmp_path / "d.csv"
    write_distmatrix_csv(g, str(p))
    back = load_ground(str(p), "distmatrix_csv")
    assert np.array_equal(back.dist, g.dist)


def test_metric_axioms_on_random_point_clouds():
    rng = np.random.default_rng(42)
    for _ in range(5):
        pts = rng.normal(size=(20, 3))
        g = MetricGround.from_coords(pts)
        assert np.array_equal(g.dist, g.dist.T)
        assert (np.diag(g.dist) == 0).all()
        # exhaustive triangle check via the loader path
        MetricGround.from_matrix(g.dist)
