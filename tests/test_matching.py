"""Bottleneck matching solver and its asymptotic rate envelopes."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import bisection_bottleneck, brute_bottleneck
from rgg_spectra import geometry, matching
from rgg_spectra.geometry import INFINITY, MetricSpec, PointSet, grid_points, sample_uniform, torus_distance_matrix
from rgg_spectra.harness import trial_seed
from rgg_spectra.matching import bottleneck_matching, bottleneck_rate_envelope


def test_matches_brute_force_on_small_instances():
    rng = np.random.default_rng(43)
    metrics = [MetricSpec(d=1, p=1), MetricSpec(d=2, p=2), MetricSpec(d=2, p=INFINITY), MetricSpec(d=3, p=2)]
    for trial in range(30):
        m = metrics[trial % len(metrics)]
        n = int(rng.integers(2, 7))
        a = PointSet(coords=rng.random((n, m.d)), kind="sample")
        b = PointSet(coords=rng.random((n, m.d)), kind="sample")
        result = bottleneck_matching(a, b, m)
        assert result.m_n == pytest.approx(brute_bottleneck(a, b, m), abs=1e-15)


def _line(*xs: float) -> PointSet:
    return PointSet(coords=np.array(xs, dtype=float)[:, None], kind="sample")


_D1_CASES = {
    "random": (_line(0.05, 0.31, 0.33, 0.62, 0.97), _line(0.12, 0.48, 0.5, 0.81, 0.99)),
    "duplicates": (_line(0.2, 0.2, 0.2, 0.7, 0.7), _line(0.1, 0.3, 0.3, 0.9, 0.95)),
    "at-zero": (_line(0.0, 0.0, 0.5, 0.98), _line(0.0, 0.01, 0.4, 0.6)),
    "single": (_line(0.0), _line(0.75)),
}


@pytest.mark.parametrize("p", [1, 2, 3.5, INFINITY], ids=["p1", "p2", "p3.5", "pinf"])
@pytest.mark.parametrize("case", sorted(_D1_CASES))
def test_circle_cases_off_the_grid_match_brute_force(case, p):
    a, b = _D1_CASES[case]
    m = MetricSpec(d=1, p=p)
    result = bottleneck_matching(a, b, m)
    assert result.m_n == brute_bottleneck(a, b, m)
    D = torus_distance_matrix(a, b, m)
    assert sorted(result.assignment) == list(range(a.n))
    assert D[np.arange(a.n), result.assignment].max() == result.m_n


@pytest.mark.parametrize(
    "d,N,p",
    [(1, N, p) for N in (128, 160) for p in (1, 2, INFINITY)]
    + [(2, N, p) for N in (8, 12) for p in (1, 2, INFINITY)]
    + [(3, 4, p) for p in (2, INFINITY)],
)
def test_agrees_exactly_with_plain_bisection(d, N, p):
    m = MetricSpec(d=d, p=p)
    grid = grid_points(N, d)
    for seed in range(3):
        sample = sample_uniform(grid.n, d, 100 * N + seed)
        result = bottleneck_matching(sample, grid, m)
        assert result.m_n == bisection_bottleneck(sample, grid, m).m_n
        assert sorted(result.assignment) == list(range(grid.n))
        D = torus_distance_matrix(sample, grid, m)
        assert D[np.arange(grid.n), result.assignment].max() == result.m_n


def _count_calls(monkeypatch, module, name: str) -> dict:
    calls = {"n": 0}
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_circle_match_costs_one_distance_matrix_and_one_probe(monkeypatch):
    # The Hall arc certifies the cyclic shift, so the probe is no longer made.
    probes = _count_calls(monkeypatch, matching, "maximum_bipartite_matching")
    distances = _count_calls(monkeypatch, matching, "torus_distance_matrix")
    grid = grid_points(128, 1)
    for seed in range(5):
        probes["n"] = distances["n"] = 0
        bottleneck_matching(sample_uniform(128, 1, seed), grid, MetricSpec(d=1, p=INFINITY))
        assert (probes["n"], distances["n"]) == (0, 1)


def test_circle_match_refuses_past_the_byte_budget_before_any_work(monkeypatch):
    """The d = 1 route holds the sorted distance matrix E and the n x 2n copy
    that _best_shift reads, three n x n float64 arrays.  A limit that E alone
    fits is refused before the distances are computed; the budget is inclusive."""
    n = 64
    sample, grid, m = sample_uniform(n, 1, 3), grid_points(n, 1), MetricSpec(d=1, p=INFINITY)
    distances = _count_calls(monkeypatch, matching, "torus_distance_matrix")
    monkeypatch.setattr(geometry, "MAX_PAIRWISE_BYTES", 3 * n * n * 8 - 1)
    assert n * n * 8 <= geometry.MAX_PAIRWISE_BYTES
    with pytest.raises(ValueError, match="MAX_PAIRWISE_BYTES"):
        bottleneck_matching(sample, grid, m)
    assert distances["n"] == 0
    monkeypatch.setattr(geometry, "MAX_PAIRWISE_BYTES", 3 * n * n * 8)
    assert bottleneck_matching(sample, grid, m).m_n == bisection_bottleneck(sample, grid, m).m_n


def _circle_points(rng, kind: str, n: int) -> np.ndarray:
    if kind == "uniform":
        return rng.random(n)
    if kind == "clustered":  # up to three clusters of width 0.05
        centres = rng.random(int(rng.integers(1, 4)))
        return (centres[rng.integers(0, len(centres), n)] + 0.05 * rng.random(n)) % 1.0
    if kind == "duplicated":  # about three copies of each point
        base = rng.random(max(1, n // 3))
        return base[rng.integers(0, len(base), n)]
    # off-grid: the lattice moved by half a step or less
    return (np.arange(n) / n + rng.random() * 0.5 / n) % 1.0


_CIRCLE_KINDS = ("uniform", "clustered", "duplicated", "off-grid")


def test_circle_route_agrees_with_the_oracles(monkeypatch):
    probes = _count_calls(monkeypatch, matching, "maximum_bipartite_matching")
    rng = np.random.default_rng(2024)
    for case in range(240):
        n = int(rng.integers(1, 8)) if case % 3 == 0 else int(rng.integers(1, 161))
        m = MetricSpec(d=1, p=(1, 2, 3.5, INFINITY)[case % 4])
        a = _line(*_circle_points(rng, _CIRCLE_KINDS[case % 4], n))
        b = PointSet(coords=_circle_points(rng, _CIRCLE_KINDS[(case // 4) % 4], n)[:, None], kind="grid")
        probes["n"] = 0
        result = bottleneck_matching(a, b, m)
        # Small circles are certified by one probe, larger ones by an arc alone.
        assert probes["n"] == int(n <= matching._PROBED_CIRCLE_MAX_N), case
        expected = brute_bottleneck(a, b, m) if n < 8 else bisection_bottleneck(a, b, m).m_n
        assert result.m_n == expected, case
        D = torus_distance_matrix(a, b, m)
        assert sorted(result.assignment) == list(range(n))
        assert D[np.arange(n), result.assignment].max() == result.m_n
        # The arc certifies the small circles too.
        xa, xb = np.sort(a.coords[:, 0]), np.sort(b.coords[:, 0])
        E = torus_distance_matrix(_line(*xa), _line(*xb), m)
        assert matching._hall_arc(xa, xb, E, result.m_n) is not None, case


@pytest.mark.parametrize("p", [1, 2, 3.5, INFINITY], ids=["p1", "p2", "p3.5", "pinf"])
def test_hall_arc_is_a_true_hall_violator(p):
    m = MetricSpec(d=1, p=p)
    lattice = grid_points(96, 1)
    # A grid clustered in [0.975, 1.025) mod 1: m_n is near 1/2, so the
    # samples in the cluster reach every grid point below it.  Their arcs
    # hold column 0 and give no first column, so they must be left out of
    # the run; every sample has a neighbour, so no run of one is found first.
    clustered = PointSet(coords=(0.975 + 0.05 * np.random.default_rng(20).random((96, 1))) % 1.0, kind="grid")
    cases = [(sample_uniform(96, 1, 300 + seed), lattice) for seed in range(5)] + [(sample_uniform(96, 1, 1020), clustered)]
    for sample, grid in cases:
        m_n = bottleneck_matching(sample, grid, m).m_n
        order = np.argsort(sample.coords[:, 0], kind="stable")
        a, b = sample.coords[order, 0], np.sort(grid.coords[:, 0])
        E = torus_distance_matrix(_line(*a), _line(*b), m)
        first, length = matching._hall_arc(a, b, E, m_n)
        # Recount on the unsorted distances: the run's samples reach fewer
        # grid points below m_n than they number.
        run = order[(first + np.arange(length)) % 96]
        D = torus_distance_matrix(sample, grid, m)
        assert np.count_nonzero((D[run] < m_n).any(axis=0)) < length
    size = np.count_nonzero(E < m_n, axis=1)
    assert size.min() > 0 and np.any(size == 96)


def test_hall_arc_refuses_a_run_the_count_does_not_confirm():
    # Each lattice point reaches only itself below half a step, so no run is
    # a Hall violator.  Sample 0's coordinate is given one turn down, which
    # misplaces its lifted neighbourhood by n and makes the pass propose the
    # whole circle as a run; the exact count must turn it down.
    grid = grid_points(8, 1)
    E = torus_distance_matrix(grid, grid, MetricSpec(d=1, p=2))
    a = grid.coords[:, 0].copy()
    a[0] -= 1.0
    assert matching._hall_arc(a, grid.coords[:, 0], E, 0.5 / 8) is None
    assert matching._hall_arc(grid.coords[:, 0], grid.coords[:, 0], E, 0.5 / 8) is None


def _fallback_case() -> tuple[PointSet, PointSet]:
    return _line(0.088, 0.350, 0.293), PointSet(coords=np.array([[0.770], [0.119], [0.819]]), kind="grid")


def test_circle_fallback_makes_exactly_one_probe(monkeypatch):
    sample, grid = _fallback_case()
    m = MetricSpec(d=1, p=INFINITY)
    probes = _count_calls(monkeypatch, matching, "maximum_bipartite_matching")
    # Three points are certified by the probe just below the shift's value.
    result = bottleneck_matching(sample, grid, m)
    assert probes["n"] == 1
    assert result.m_n == brute_bottleneck(sample, grid, m) > 0.25
    # A larger circle probes only when no arc certifies the shift.
    sample, grid = sample_uniform(64, 1, 5), grid_points(64, 1)
    probes["n"] = 0
    m_n = bottleneck_matching(sample, grid, m).m_n
    assert probes["n"] == 0
    monkeypatch.setattr(matching, "_hall_arc", lambda *args: None)
    assert bottleneck_matching(sample, grid, m).m_n == m_n == bisection_bottleneck(sample, grid, m).m_n
    assert probes["n"] == 1


@pytest.mark.parametrize("p", [2, INFINITY], ids=["p2", "pinf"])
def test_circle_route_recovers_from_a_suboptimal_shift(monkeypatch, p):
    def worst_shift(E):
        n = E.shape[0]
        return int(np.argmax([E[np.arange(n), (np.arange(n) + s) % n].max() for s in range(n)]))

    # The one probe below the worst shift's value is feasible, so the general
    # search runs on the d = 1 distances; no other test reaches it from d = 1.
    monkeypatch.setattr(matching, "_best_shift", worst_shift)
    probes = _count_calls(monkeypatch, matching, "maximum_bipartite_matching")
    m = MetricSpec(d=1, p=p)
    grid = grid_points(64, 1)
    for seed in range(3):
        sample = sample_uniform(64, 1, 900 + seed)
        probes["n"] = 0
        result = bottleneck_matching(sample, grid, m)
        assert probes["n"] > 1
        assert result.m_n == bisection_bottleneck(sample, grid, m).m_n
        assert sorted(result.assignment) == list(range(64))
        D = torus_distance_matrix(sample, grid, m)
        assert D[np.arange(64), result.assignment].max() == result.m_n


def test_plane_match_probes_no_more_than_plain_bisection(monkeypatch):
    probes = _count_calls(monkeypatch, matching, "maximum_bipartite_matching")
    oracle_probes = _count_calls(monkeypatch, oracles, "maximum_bipartite_matching")
    grid = grid_points(12, 2)
    for p in (2, INFINITY):
        for seed in range(3):
            sample = sample_uniform(grid.n, 2, seed)
            probes["n"] = oracle_probes["n"] = 0
            bottleneck_matching(sample, grid, MetricSpec(d=2, p=p))
            bisection_bottleneck(sample, grid, MetricSpec(d=2, p=p))
            assert 0 < probes["n"] <= oracle_probes["n"]


def _count_edges(monkeypatch, module) -> dict:
    """Count the edges carried by the probes made through module."""
    seen = {"edges": 0}
    original = module.maximum_bipartite_matching

    def counted(graph, **kwargs):
        seen["edges"] += graph.nnz
        return original(graph, **kwargs)

    monkeypatch.setattr(module, "maximum_bipartite_matching", counted)
    return seen


def _unbalanced_clusters() -> tuple[PointSet, PointSet]:
    """Two grid points and one sample near x = 0.2, one grid point and two
    samples near x = 0.5: every point has a partner within about 0.011, but
    one sample must cross to the other cluster, about 0.28 away."""
    grid = PointSet(coords=np.array([[0.2, 0.5], [0.21, 0.5], [0.5, 0.5]]), kind="grid")
    sample = PointSet(coords=np.array([[0.205, 0.51], [0.49, 0.5], [0.51, 0.5]]), kind="sample")
    return sample, grid


def test_search_widens_when_twice_the_lower_bound_is_infeasible(monkeypatch):
    probes = _capture_probes(monkeypatch)
    sample, grid = _unbalanced_clusters()
    m = MetricSpec(d=2, p=2)
    D = torus_distance_matrix(sample, grid, m)
    lower = max(D.min(axis=1).max(), D.min(axis=0).max())
    result = bottleneck_matching(sample, grid, m)
    assert result.m_n == brute_bottleneck(sample, grid, m)
    assert result.m_n > 2 * lower
    # The first probe holds every pair within 2 * lower and fails; a later
    # probe must reach past that cap, and widening never repeats a threshold.
    shuffled = D[:, matching._column_order(sample.n)]
    thresholds = [shuffled[graph.nonzero()].max() for graph, _ in probes]
    assert np.any(probes[0][1] < 0)
    assert max(thresholds) > 2 * lower
    assert len(set(thresholds)) == len(thresholds)
    assert D[np.arange(sample.n), result.assignment].max() == result.m_n


def test_zero_lower_bound_without_a_zero_matching():
    # Every point coincides with a point of the other set, so lower = 0, but
    # two samples share one grid point: the search must widen past a zero cap.
    sample = PointSet(coords=np.array([[0.1, 0.1], [0.1, 0.1], [0.6, 0.3]]), kind="sample")
    grid = PointSet(coords=np.array([[0.1, 0.1], [0.6, 0.3], [0.6, 0.3]]), kind="grid")
    m = MetricSpec(d=2, p=2)
    result = bottleneck_matching(sample, grid, m)
    assert result.m_n == brute_bottleneck(sample, grid, m) > 0


@pytest.mark.parametrize("p", [1, 2, INFINITY], ids=["p1", "p2", "pinf"])
def test_plane_probe_edges_stay_below_the_dense_search(monkeypatch, p):
    seen = _count_edges(monkeypatch, matching)
    oracle_seen = _count_edges(monkeypatch, oracles)
    grid = grid_points(12, 2)
    m = MetricSpec(d=2, p=p)
    for seed in range(3):
        sample = sample_uniform(grid.n, 2, 50 + seed)
        bottleneck_matching(sample, grid, m)
        bisection_bottleneck(sample, grid, m)
    assert 0 < seen["edges"] < oracle_seen["edges"]


def _capture_probes(monkeypatch) -> list:
    """Record each probe made through matching: its graph and the matching it returns."""
    probes = []
    original = matching.maximum_bipartite_matching

    def captured(graph, **kwargs):
        matched = original(graph, **kwargs)
        probes.append((graph, matched))
        return matched

    monkeypatch.setattr(matching, "maximum_bipartite_matching", captured)
    return probes


def _layout_cases():
    grid = grid_points(12, 2)
    for p in (2, INFINITY):
        for seed in range(3):
            yield torus_distance_matrix(sample_uniform(grid.n, 2, 60 + seed), grid, MetricSpec(d=2, p=p))
    sample, grid = _unbalanced_clusters()  # widens the cap twice or more
    yield torus_distance_matrix(sample, grid, MetricSpec(d=2, p=2))


def test_probes_list_the_warm_pair_first(monkeypatch):
    # Every probe holds each row's threshold-graph columns, and a row whose
    # warm pair is within the threshold lists that pair first, where scipy's
    # greedy start takes it.  The warm matching is the previous probe's while
    # no probe was feasible, then the last perfect one.
    probes = _capture_probes(monkeypatch)
    moved = 0
    for D in _layout_cases():
        n = D.shape[0]
        probes.clear()
        matching._search(D)
        warm = None
        for graph, matched in probes:
            cold = D <= D[graph.nonzero()].max()
            for i in range(n):
                row = graph.indices[graph.indptr[i] : graph.indptr[i + 1]]
                assert sorted(row) == list(np.flatnonzero(cold[i]))
                if warm is not None and warm[i] >= 0 and cold[i, warm[i]]:
                    assert row[0] == warm[i]
                    moved += row[0] != np.flatnonzero(cold[i])[0]
            if warm is None or np.any(warm < 0) or np.all(matched >= 0):
                warm = matched
    assert moved > 0  # the cold row-major layout would not pass


@pytest.mark.parametrize("d,N,p", [(1, 8, INFINITY), (1, 64, 2), (2, 12, 2)], ids=["d1-probe", "d1-arc", "d2"])
def test_repeated_matches_return_the_same_assignment(d, N, p):
    grid, m = grid_points(N, d), MetricSpec(d=d, p=p)
    for seed in range(3):
        sample = sample_uniform(grid.n, d, 11 + seed)
        first, second = bottleneck_matching(sample, grid, m), bottleneck_matching(sample, grid, m)
        assert first.m_n == second.m_n
        assert np.array_equal(first.assignment, second.assignment)


@pytest.mark.parametrize("p", [1, 2, 3.5, INFINITY], ids=["p1", "p2", "p3.5", "pinf"])
@pytest.mark.parametrize("d,N", [(1, 64), (2, 9), (3, 4)])
def test_assignment_attains_the_returned_value(d, N, p):
    m = MetricSpec(d=d, p=p)
    grid = grid_points(N, d)
    for seed in range(3):
        sample = sample_uniform(grid.n, d, 7 * N + seed)
        result = bottleneck_matching(sample, grid, m)
        assert sorted(result.assignment) == list(range(grid.n))
        D = torus_distance_matrix(sample, grid, m)
        assert D[np.arange(grid.n), result.assignment].max() == result.m_n


# Runs one match in a child process and checks its assignment there, so a
# stalled probe fails the test after the timeout instead of hanging the suite.
_CHILD_MATCH = """
import sys, time
import numpy as np
from rgg_spectra.geometry import MetricSpec, grid_points, sample_uniform, torus_distance_matrix
from rgg_spectra.matching import bottleneck_matching
N, d, p, seed = int(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3]), int(sys.argv[4])
sample, grid, m = sample_uniform(N**d, d, seed), grid_points(N, d), MetricSpec(d=d, p=p)
start = time.perf_counter()
result = bottleneck_matching(sample, grid, m)
assert time.perf_counter() - start < 10.0, time.perf_counter() - start
D = torus_distance_matrix(sample, grid, m)
assert sorted(result.assignment) == list(range(grid.n))
assert D[np.arange(grid.n), result.assignment].max() == result.m_n
"""


def _in_child(script: str, *args) -> None:
    """Run script in a fresh interpreter that imports rgg_spectra from this
    checkout and the test oracles; it must exit 0."""
    here = Path(__file__).resolve().parent
    paths = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    command = [sys.executable, "-c", script, *map(str, args)]
    proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "N,d,seed",
    [(256, 1, trial_seed(5, 7)), (256, 1, trial_seed(5, 22)), (32, 2, trial_seed(0, 23))],
    ids=["d1-a", "d1-b", "d2"],
)
def test_probes_do_not_stall_on_grid_order(N, d, seed):
    # With the grid's columns in row-major order, scipy's Hopcroft-Karp took
    # 30 to over 60 s on one probe of each instance; shuffled, under 0.5 s.
    _in_child(_CHILD_MATCH, N, d, INFINITY, seed)


@pytest.mark.parametrize("p", [2, INFINITY], ids=["p2", "pinf"])
@pytest.mark.parametrize("seed", [0, 1])
def test_circle_match_at_n_1024_does_not_stall(seed, p):
    # A Hopcroft-Karp probe just below m_n ran past 60 s on these instances,
    # even on shuffled columns; the d = 1 route makes none.
    _in_child(_CHILD_MATCH, 1024, 1, p, seed)


# Importing the package and its CLI loads neither scipy nor a thread pool.
# Figure 1 and d = 1 trials make no probe, so they must not load scipy's
# sparse stack; the first d = 2 match loads it for its probes.
_CHILD_COLD_START = """
import sys
import rgg_spectra, rgg_spectra.cli
assert not {"scipy", "concurrent.futures"} & set(sys.modules), "imported with the package"
from rgg_spectra.geometry import INFINITY, MetricSpec, grid_points, sample_uniform
from rgg_spectra.harness import ExperimentConfig, figure1_experiment, run_trials
from rgg_spectra.matching import bottleneck_matching
figure1_experiment(n=256)
run_trials(ExperimentConfig(N=128, d=1, p=INFINITY, r=0.1, trials=4))
assert "scipy.sparse" not in sys.modules, "scipy.sparse loaded before the first probe"
sample, grid, m = sample_uniform(36, 2, 3), grid_points(6, 2), MetricSpec(d=2, p=2)
m_n = bottleneck_matching(sample, grid, m).m_n
assert "scipy.sparse" in sys.modules
from oracles import bisection_bottleneck
assert m_n == bisection_bottleneck(sample, grid, m).m_n
"""


def test_scipy_sparse_loads_only_at_the_first_probe():
    _in_child(_CHILD_COLD_START)


def test_witness_assignment_achieves_the_value():
    m = MetricSpec(d=2, p=INFINITY)
    sample = sample_uniform(49, 2, 7)
    grid = grid_points(7, 2)
    result = bottleneck_matching(sample, grid, m)
    assert sorted(result.assignment) == list(range(49))
    D = torus_distance_matrix(sample, grid, m)
    achieved = max(D[i, result.assignment[i]] for i in range(49))
    assert achieved == result.m_n


def test_identity_instance_has_zero_bottleneck():
    grid = grid_points(5, 2)
    moved = PointSet(coords=grid.coords.copy(), kind="sample")
    result = bottleneck_matching(moved, grid, MetricSpec(d=2, p=2))
    assert result.m_n == 0.0


def test_rate_envelope_values():
    # d=1 rate sqrt(log(1/eps)/n)
    assert bottleneck_rate_envelope(100, 1, eps=0.1) == pytest.approx(
        math.sqrt(math.log(10.0) / 100.0), rel=1e-12
    )
    assert bottleneck_rate_envelope(100, 1, eps=0.1) == pytest.approx(0.1517, abs=5e-5)
    # d=2 rate (log^{3/2} n / n)^{1/2}
    assert bottleneck_rate_envelope(1000, 2) == pytest.approx(
        math.sqrt(math.log(1000.0) ** 1.5 / 1000.0), rel=1e-12
    )
    # d>=3 rate (log n / n)^{1/d}
    assert bottleneck_rate_envelope(1000, 3) == pytest.approx(
        (math.log(1000.0) / 1000.0) ** (1.0 / 3.0), rel=1e-12
    )


def test_rate_envelope_decreases_in_n():
    for d in (1, 2, 3):
        values = [bottleneck_rate_envelope(n, d, eps=0.1) for n in (100, 1000, 10000)]
        assert values[0] > values[1] > values[2]


def test_rate_envelope_validation():
    with pytest.raises(ValueError):
        bottleneck_rate_envelope(1, 2)
    with pytest.raises(ValueError):
        bottleneck_rate_envelope(100, 1, eps=0.0)
    with pytest.raises(ValueError):
        bottleneck_rate_envelope(100, 1, eps=1.0)


def test_size_mismatch_rejected():
    a = sample_uniform(5, 1, 1)
    b = sample_uniform(6, 1, 2)
    with pytest.raises(ValueError):
        bottleneck_matching(a, b, MetricSpec(d=1, p=1))
