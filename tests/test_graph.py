"""Adjacency construction (blocked all-pairs against the reference) and degree stats."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from oracles import brute_cross_edge_count
from rgg_spectra.geometry import INFINITY, MAX_PAIRWISE_BYTES, MetricSpec, PointSet, ball_volume_theta, grid_points, sample_uniform
from rgg_spectra.graph import (
    _BLOCK_BYTES,
    AdjacencyMatrix,
    build_adjacency,
    build_adjacency_reference,
    cross_neighbor_count,
    degree_summary,
    edge_list_text,
)


def test_edge_rule_is_closed_at_radius():
    pts = PointSet(d=1, coords=np.array([[0.0], [0.3]]), kind="sample")
    m = MetricSpec(d=1, p=INFINITY)
    assert build_adjacency_reference(pts, 0.3, m).entries[0, 1] == 1  # distance == r
    assert build_adjacency_reference(pts, 0.2999999, m).entries[0, 1] == 0


def test_adjacency_basic_invariants():
    pts = sample_uniform(40, 2, 9)
    A = build_adjacency_reference(pts, 0.25, MetricSpec(d=2, p=2))
    assert A.entries.dtype == np.uint8
    assert np.array_equal(A.entries, A.entries.T)
    assert np.all(np.diag(A.entries) == 0)
    assert A.degrees().dtype == np.int64
    assert np.array_equal(A.degrees(), A.entries.sum(axis=1))


def test_reference_refuses_past_the_byte_budget():
    pts = sample_uniform(8192, 3, 0)  # 8192 x 8192 x 3 doubles = 1.5 GiB of deltas
    assert pts.n * pts.n * 3 * 8 > MAX_PAIRWISE_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_PAIRWISE_BYTES"):
            build_adjacency_reference(pts, 0.1, MetricSpec(d=3, p=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # refused before allocating


def test_build_adjacency_refuses_past_the_byte_budget():
    pts = sample_uniform(32769, 1, 0)  # 32769 x 32769 uint8 entries, just past 1 GiB
    assert pts.n * pts.n > MAX_PAIRWISE_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_PAIRWISE_BYTES"):
            build_adjacency(pts, 0.1, MetricSpec(d=1, p=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # refused before allocating


def _tie_radii(N: int) -> tuple[float, ...]:
    """r = k/N for k up to N/2, each with both floating-point neighbours."""
    return tuple(x for k in range(1, N // 2 + 1) for x in (np.nextafter(k / N, 0.0), k / N, np.nextafter(k / N, 1.0)))


def _duplicated_sample() -> PointSet:
    pts = sample_uniform(80, 2, 8)
    return PointSet(d=2, coords=np.concatenate([pts.coords, pts.coords[:30], pts.coords[:5]]), kind="sample")


def _ragged_sample(d: int) -> PointSet:
    """A sample spanning three and a half of build_adjacency's row blocks."""
    n = math.isqrt(int(3.5 * _BLOCK_BYTES / (8 * d)))
    rows = _BLOCK_BYTES // (8 * n * d)
    assert n // rows >= 3 and n % rows
    return sample_uniform(n, d, 13)


@pytest.mark.parametrize(
    "points,p,radii",
    [
        pytest.param(sample_uniform(600, 1, 601), INFINITY, (0.05,), id="600-1-inf-0.05"),
        pytest.param(sample_uniform(700, 2, 702), 2, (0.2,), id="700-2-2-0.2"),
        pytest.param(sample_uniform(520, 2, 522), 1, (0.3,), id="520-2-1-0.3"),
        pytest.param(sample_uniform(600, 3, 603), INFINITY, (0.25,), id="600-3-inf-0.25"),
        pytest.param(sample_uniform(550, 2, 552), 3, (0.15,), id="550-2-3-0.15"),
        pytest.param(sample_uniform(60, 2, 4), INFINITY, (0.2,), id="60-2-inf-0.2"),
        *(
            pytest.param(grid_points(N, d), p, _tie_radii(N), id=f"ties-N{N}-d{d}-p{p}")
            for d, sides in ((1, (64, 60)), (2, (16, 12)), (3, (8, 6)))
            for N in sides
            for p in (1, 2, 3.5, INFINITY)
        ),
        pytest.param(_duplicated_sample(), 2, (0.1,), id="duplicates"),
        pytest.param(sample_uniform(50, 2, 5), INFINITY, (0.5, 0.75), id="r-past-half-pinf"),
        pytest.param(sample_uniform(50, 3, 6), 2, (0.5, 0.8, 0.9), id="r-past-half-p2"),
        pytest.param(sample_uniform(1, 2, 7), 2, (0.1, 0.5), id="n1"),
        pytest.param(_ragged_sample(2), 2, (0.1,), id="ragged-blocks"),
    ],
)
def test_build_adjacency_bit_identical_to_reference(points, p, radii):
    m = MetricSpec(d=points.d, p=p)
    for r in radii:
        fast = build_adjacency(points, r, m)
        assert np.array_equal(fast.entries, build_adjacency_reference(points, r, m).entries), r


def test_grid_adjacency_is_regular():
    g = grid_points(8, 2)
    A = build_adjacency(g, 0.2, MetricSpec(d=2, p=INFINITY))
    k = int(8 * 0.2)
    degrees = A.degrees()
    assert np.all(degrees == (2 * k + 1) ** 2 - 1)


def test_degree_summary_values():
    pts = sample_uniform(100, 1, 2)
    r = 0.1
    A = build_adjacency(pts, r, MetricSpec(d=1, p=INFINITY))
    summary = degree_summary(A, 100, 1, r)
    degrees = A.degrees()
    assert summary.average_degree_empirical == pytest.approx(degrees.mean())
    assert summary.edge_count == int(degrees.sum()) // 2
    assert np.array_equal(summary.degrees, degrees)
    assert summary.average_degree_theoretical == pytest.approx(ball_volume_theta(1) * 100 * r, rel=1e-15)


def test_cross_neighbor_count_matches_brute_force():
    rng = np.random.default_rng(11)
    sample = sample_uniform(30, 2, 3)
    grid = grid_points(6, 2)  # 36 points — use 30-subset? sizes must match
    grid30 = PointSet(d=2, coords=grid.coords[:30], kind="sample")
    m = MetricSpec(d=2, p=2)
    A = build_adjacency(sample, 0.3, m)
    B = build_adjacency(grid30, 0.3, m)
    matching = rng.permutation(30)
    expected_edges = brute_cross_edge_count(A.entries, B.entries, matching)
    per_node = cross_neighbor_count(A, B, matching)
    assert per_node.shape == (30,)
    assert per_node.sum() == 2 * expected_edges  # each common edge seen from both ends
    i = 4
    brute_i = sum(
        int(A.entries[i, j]) * int(B.entries[matching[i], matching[j]]) for j in range(30)
    )
    assert per_node[i] == brute_i


def test_edge_list_text_upper_triangle():
    entries = np.zeros((4, 4), dtype=np.uint8)
    for i, j in ((0, 1), (0, 3), (2, 3)):
        entries[i, j] = entries[j, i] = 1
    A = AdjacencyMatrix(entries=entries)
    assert edge_list_text(A) == "0 1\n0 3\n2 3\n"


def test_adjacency_validation_rejects_bad_matrices():
    bad = np.zeros((3, 3), dtype=np.uint8)
    bad[0, 1] = 1  # not symmetric
    with pytest.raises(ValueError):
        AdjacencyMatrix(entries=bad)
    diag = np.zeros((3, 3), dtype=np.uint8)
    diag[1, 1] = 1
    with pytest.raises(ValueError):
        AdjacencyMatrix(entries=diag)
