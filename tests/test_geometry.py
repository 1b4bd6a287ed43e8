"""Torus metric, ball-volume constants, and point-set construction."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from oracles import axis_reduction_distances, gamma_ball_volume, torus_coordinate_delta
from rgg_spectra import geometry
from rgg_spectra.geometry import (
    INFINITY,
    MetricSpec,
    PointSet,
    average_degree,
    ball_volume_theta,
    grid_points,
    sample_uniform,
    torus_distance,
    torus_distance_matrix,
)


def test_coordinate_delta_wraps():
    assert torus_coordinate_delta(0.1, 0.9) == pytest.approx(0.2, abs=1e-15)
    assert torus_coordinate_delta(0.9, 0.1) == pytest.approx(0.2, abs=1e-15)
    assert torus_coordinate_delta(0.25, 0.75) == pytest.approx(0.5, abs=1e-15)
    assert torus_coordinate_delta(0.3, 0.3) == 0.0


def test_distance_matches_hand_values():
    a = np.array([0.1, 0.2])
    b = np.array([0.8, 0.6])
    # wrapped deltas: (0.3, 0.4)
    assert torus_distance(a, b, MetricSpec(d=2, p=1)) == pytest.approx(0.7, abs=1e-15)
    assert torus_distance(a, b, MetricSpec(d=2, p=2)) == pytest.approx(0.5, abs=1e-15)
    assert torus_distance(a, b, MetricSpec(d=2, p=INFINITY)) == pytest.approx(0.4, abs=1e-15)
    assert torus_distance(a, b, MetricSpec(d=2, p=3)) == pytest.approx(
        (0.3**3 + 0.4**3) ** (1.0 / 3.0), abs=1e-15
    )


def test_distance_matrix_shape_and_symmetry():
    rng = np.random.default_rng(5)
    pts = PointSet(coords=rng.random((7, 2)), kind="sample")
    m = MetricSpec(d=2, p=2)
    D = torus_distance_matrix(pts, pts, m)
    assert D.shape == (7, 7)
    assert np.allclose(D, D.T)
    assert np.all(np.diag(D) == 0.0)
    # no pair on the unit torus is farther than (d * 0.5^p)^(1/p)
    assert D.max() <= math.sqrt(2 * 0.25) + 1e-12


@pytest.mark.parametrize("p", [1, 2, 3.5, INFINITY], ids=["p1", "p2", "p3.5", "pinf"])
@pytest.mark.parametrize("d", range(1, 11))
def test_per_axis_kernel_matches_the_axis_reduction(d, p):
    rng = np.random.default_rng(10 * d + 3)
    a = PointSet(coords=rng.random((37, d)), kind="sample")
    b = PointSet(coords=np.concatenate([rng.random((29, d)), a.coords[:5]]), kind="sample")
    m = MetricSpec(d=d, p=p)
    D = torus_distance_matrix(a, b, m)
    expected = axis_reduction_distances(a.coords, b.coords, p)
    if d <= 7:
        assert np.array_equal(D, expected)
    else:
        # numpy sums a reduced axis of length >= 8 pairwise, not in axis
        # order, so the last bits may differ there.
        assert np.all(np.abs(D - expected) <= 4 * np.spacing(expected))
    assert torus_distance(a.coords[3], b.coords[7], m) == D[3, 7]


@pytest.mark.parametrize("p", [1, 2, 3.5, INFINITY], ids=["p1", "p2", "p3.5", "pinf"])
def test_distance_matrix_row_blocks_match_the_axis_reduction(p):
    # Three and a fraction row blocks of the kernel, against 300 columns.
    rows = geometry._BLOCK_BYTES // (8 * 300 * 2)
    a, b = sample_uniform(3 * rows + 50, 2, 31), sample_uniform(300, 2, 32)
    D = torus_distance_matrix(a, b, MetricSpec(d=2, p=p))
    assert np.array_equal(D, axis_reduction_distances(a.coords, b.coords, p))


def test_metric_spec_validation():
    with pytest.raises(ValueError):
        MetricSpec(d=0, p=2)
    with pytest.raises(ValueError):
        MetricSpec(d=1, p=0.5)
    MetricSpec(d=1, p=1)
    MetricSpec(d=3, p=INFINITY)
    # The distance functions refuse points of another dimension than the metric's.
    with pytest.raises(ValueError, match="coordinate vectors of length 2"):
        torus_distance([0.1, 0.2, 0.3], [0.1, 0.2], MetricSpec(d=2, p=2))
    with pytest.raises(ValueError, match="disagree on dimension"):
        torus_distance_matrix(sample_uniform(3, 2, 0), sample_uniform(3, 1, 0), MetricSpec(d=2, p=2))
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        ball_volume_theta(0)


def test_ball_volume_matches_gamma_formula():
    for d in range(1, 13):
        assert ball_volume_theta(d) == pytest.approx(gamma_ball_volume(d), rel=1e-13)
    assert ball_volume_theta(1) == 2.0
    assert ball_volume_theta(2) == pytest.approx(math.pi, rel=1e-15)
    assert ball_volume_theta(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)


def test_average_degree_matches_the_ball_volume_formula():
    for n, d, r in ((100, 1, 0.1), (576, 2, 0.25), (512, 3, 0.2), (1000, 5, 0.3)):
        assert average_degree(n, d, r) == pytest.approx(gamma_ball_volume(d) * n * r**d, rel=1e-13)


def test_sample_uniform_deterministic_and_in_range():
    a = sample_uniform(50, 3, 123)
    b = sample_uniform(50, 3, 123)
    c = sample_uniform(50, 3, 124)
    assert np.array_equal(a.coords, b.coords)
    assert not np.array_equal(a.coords, c.coords)
    assert a.coords.shape == (50, 3)
    assert np.all(a.coords >= 0.0) and np.all(a.coords < 1.0)
    assert a.kind == "sample"


def test_grid_points_row_major_layout():
    g = grid_points(3, 2)
    assert g.kind == "grid"
    assert g.coords.shape == (9, 2)
    expected = np.array(
        [[i / 3.0, j / 3.0] for i in range(3) for j in range(3)]
    )
    assert np.array_equal(g.coords, expected)


def test_grid_points_size_guard():
    with pytest.raises(ValueError):
        grid_points(2, 40)  # 2^40 points


def test_distance_matrix_refuses_past_the_byte_budget(monkeypatch):
    big = sample_uniform(8192, 3, 0)  # 8192 x 8192 x 3 doubles = 1.5 GiB of deltas
    assert big.n * big.n * 3 * 8 > geometry.MAX_PAIRWISE_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_PAIRWISE_BYTES"):
            torus_distance_matrix(big, big, MetricSpec(d=3, p=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # refused before allocating
    # The budget is inclusive.
    small = sample_uniform(4, 2, 1)
    monkeypatch.setattr(geometry, "MAX_PAIRWISE_BYTES", 4 * 4 * 2 * 8)
    assert torus_distance_matrix(small, small, MetricSpec(d=2, p=2)).shape == (4, 4)
    monkeypatch.setattr(geometry, "MAX_PAIRWISE_BYTES", 4 * 4 * 2 * 8 - 1)
    with pytest.raises(ValueError, match="MAX_PAIRWISE_BYTES"):
        torus_distance_matrix(small, small, MetricSpec(d=2, p=2))


def test_point_set_validation():
    with pytest.raises(ValueError):
        PointSet(coords=np.array([[0.0], [1.0]]), kind="sample")  # 1.0 excluded
    with pytest.raises(ValueError):
        PointSet(coords=np.array([[0.0, -0.1]]), kind="sample")
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            PointSet(coords=np.array([[0.1], [bad], [0.3]]), kind="sample")
    for flat in (np.array([0.1, 0.3]), np.zeros((2, 1, 1))):
        with pytest.raises(ValueError, match="2-D"):
            PointSet(coords=flat, kind="sample")
    pts = PointSet(coords=np.array([[0.0], [0.5]]), kind="sample")
    assert (pts.n, pts.d) == (2, 1) and sample_uniform(5, 3, 1).d == 3
    with pytest.raises(ValueError):
        pts.coords[0, 0] = 0.7  # frozen buffer
    with pytest.raises(ValueError, match="kind must be"):
        PointSet(coords=np.array([[0.5]]), kind="lattice")
    with pytest.raises(ValueError, match="need n >= 1"):
        sample_uniform(0, 1, 0)
    with pytest.raises(ValueError, match="need N >= 1"):
        grid_points(0, 1)
