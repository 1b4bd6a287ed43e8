"""Seeded trial runner, probability estimates, and the CDF-pair experiment."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import splitmix64_reference
from rgg_spectra import harness
from rgg_spectra.harness import (
    ExperimentConfig,
    TrialResult,
    estimate_probability,
    figure1_experiment,
    probability_from_results,
    run_trial,
    run_trials,
    trial_seed,
)
from rgg_spectra.dgg import dgg_reach
from rgg_spectra.geometry import INFINITY, MetricSpec, PointSet, grid_points, sample_uniform
from rgg_spectra.graph import build_adjacency
from rgg_spectra.spectra import Esd, sym_eigenvalues


def test_trial_seed_is_the_splitmix_stream():
    # first output of the standard stream from state 0 is a published vector
    assert trial_seed(0, 0) == 0xE220A8397B1DCDAF
    stream = splitmix64_reference(0, 5)
    assert [trial_seed(0, i) for i in range(5)] == stream
    other = splitmix64_reference(987654321, 3)
    assert [trial_seed(987654321, i) for i in range(3)] == other
    assert trial_seed(0, 0) != trial_seed(1, 0)


def test_config_derived_quantities():
    cfg = ExperimentConfig(N=8, d=2, p=2, r=0.2)
    assert cfg.n == 64
    assert cfg.r == 0.2
    for r in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="need r > 0"):
            ExperimentConfig(N=8, d=1, p=2, r=r)
    with pytest.raises(ValueError):
        ExperimentConfig(N=8, d=1, p=2, r=0.2, trials=0)
    ExperimentConfig(N=64, d=2, p=2, r=0.2)  # 4096, the eigensolver ceiling itself
    with pytest.raises(ValueError, match="ceiling"):
        ExperimentConfig(N=65, d=2, p=2, r=0.2)
    with pytest.raises(ValueError, match="ceiling"):
        ExperimentConfig(N=17, d=3, p=INFINITY, r=0.2)
    # N = -2, d = 2 has n = 4, under the ceiling: N, d and p are checked on their own.
    for N, d, p, message in ((4, 0, 2, "dimension must be >= 1"), (0, 1, 2, "need N >= 1"), (-2, 2, 2, "need N >= 1"), (8, 1, 0.5, "exponent must be >= 1")):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(N=N, d=d, p=p, r=0.2)


def test_run_trial_invariants_and_determinism():
    cfg = ExperimentConfig(N=8, d=1, p=INFINITY, r=0.2, seed=11)
    first = run_trial(cfg, 0)
    second = run_trial(cfg, 0)
    assert first == second
    assert first.levy_cubed <= first.trace_bound + 1e-9
    assert first.m_n >= 0
    assert first.xi_n >= 0
    different = run_trial(cfg, 1)
    assert different != first and 0 <= different.xi_n <= cfg.n * (cfg.n - 1) // 2


def test_run_trial_checks_the_lattice_before_sampling(monkeypatch):
    def refuse(*args):
        raise AssertionError("sampled before the lattice was checked")

    def fail(*args):
        raise ValueError("lattice refused")

    monkeypatch.setattr(harness, "sample_uniform", refuse)
    monkeypatch.setattr(harness, "_dgg_esd", fail)
    cfg = ExperimentConfig(N=8, d=1, p=INFINITY, r=0.2, seed=1)
    with pytest.raises(ValueError, match="lattice refused"):
        run_trial(cfg, 0)


def _linf_ring_reference(N: int, k: int) -> np.ndarray:
    """Ascending eigenvalues 2 sum_{h=1..k} cos(2 pi ((m h) mod N) / N) of the
    d = 1 l_inf lattice of reach k, each summed exactly with math.fsum."""
    h = np.arange(1, k + 1)
    return np.sort([2.0 * math.fsum(np.cos(2.0 * np.pi * ((m * h) % N) / N)) for m in range(N)])


def test_lattice_graph_refuses_a_dense_adjacency_before_building_anything(monkeypatch):
    def refuse(*args):
        raise AssertionError("the grid or the band was built before the byte budget was checked")

    monkeypatch.setattr(harness, "grid_points", refuse)
    monkeypatch.setattr(harness, "dgg_band", refuse)
    with pytest.raises(ValueError, match="MAX_PAIRWISE_BYTES"):
        harness.lattice_graph(2048, 2, INFINITY, 0.01)


@pytest.mark.parametrize("N", [256, 2000])
def test_lattice_spectrum_is_accurate_at_figure1_radii(N):
    # Here the DFT is within 1.6e-14 (N = 256) and 1.1e-13 (N = 2000) of the
    # exact sums; the l_inf closed-form product is off by 3.6e-12 and 6.3e-11.
    r = math.log(N) / math.sqrt(N)
    reference = _linf_ring_reference(N, dgg_reach(N, 1, r))
    assert np.max(np.abs(harness._dgg_esd(N, 1, INFINITY, r).eigenvalues - reference)) <= 1e-12


@pytest.fixture
def grid_as_sample(monkeypatch):
    """Trials take the grid as their sample and the cached lattice graph as
    its graph, so the Levy distance (up to rounding), the trace bound and the
    matching cost vanish at every radius, ties included."""

    def sample(n, d, seed):
        return PointSet(coords=grid_points(round(n ** (1.0 / d)), d).coords, kind="sample")

    def adjacency(points, r, m):
        return harness.lattice_graph(round(points.n ** (1.0 / m.d)), m.d, m.p, r)[1]

    monkeypatch.setattr(harness, "sample_uniform", sample)
    monkeypatch.setattr(harness, "build_adjacency", adjacency)


@pytest.mark.parametrize("N, r", [(8, 0.5), (9, 0.6)])
def test_linf_trials_run_where_the_lattice_is_complete(grid_as_sample, N, r):
    # r >= ceil(N/2)/N gives 2k+1 > N, past the closed form's range; the
    # lattice is then the complete graph and its DFT spectrum is exact.
    cfg = ExperimentConfig(N=N, d=1, p=INFINITY, r=r)
    result = run_trial(cfg, 0)
    assert result.trace_bound == 0.0 and result.m_n == 0.0
    assert result.levy_cubed <= 1e-27


def test_run_trial_grid_sample_hook(grid_as_sample):
    cfg = ExperimentConfig(N=8, d=1, p=INFINITY, r=0.2, seed=3)
    result = run_trial(cfg, 0)
    # DFT lattice eigenvalues differ from the dense solver's only in the
    # last float bits, so the distance is at most that discrepancy
    assert result.levy_cubed <= 1e-27
    assert result.trace_bound == 0.0
    assert result.m_n == 0.0


def test_run_trial_nonlinf_metric_uses_explicit_lattice_spectrum(grid_as_sample):
    cfg = ExperimentConfig(N=4, d=2, p=2, r=0.3, seed=5)
    result = run_trial(cfg, 0)
    # DFT lattice eigenvalues differ from the dense solver's only in the
    # last float bits, so the distance is at most that discrepancy
    assert result.levy_cubed <= 1e-27


def test_grid_sample_at_tie_radii_keeps_the_trace_bound(grid_as_sample):
    # At r = k/N the lattice spectrum must be that of the A_D it is compared
    # against: with the grid as sample, A_X is A_D, so the trace bound is 0
    # and the Levy distance is rounding only.
    for N in range(3, 40):
        for k in range(1, (N - 1) // 2 + 1):
            cfg = ExperimentConfig(N=N, d=1, p=INFINITY, r=k / N)
            result = run_trial(cfg, 0)
            assert result.trace_bound == 0.0 and result.m_n == 0.0, (N, k)
            assert result.levy_cubed <= result.trace_bound + 1e-27, (N, k)


@pytest.mark.parametrize(
    "cfg",
    [
        ExperimentConfig(N=16, d=1, p=INFINITY, r=0.3, trials=6, seed=2),
        ExperimentConfig(N=6, d=2, p=2, r=0.3, trials=6, seed=2),
        ExperimentConfig(N=8, d=2, p=INFINITY, r=0.3, trials=6, seed=3),
        ExperimentConfig(N=4, d=3, p=1, r=0.4, trials=6, seed=4),
    ],
    ids=["d1-linf", "d2-l2", "d2-linf", "d3-l1"],
)
def test_run_trials_repeat_bit_for_bit_and_read_no_thread_variable(monkeypatch, cfg):
    monkeypatch.delenv("RGG_SPECTRA_THREADS", raising=False)
    first = run_trials(cfg)
    # Trials read no environment variable: any thread count there, a
    # malformed one included, leaves them unchanged.  Each rerun rebuilds the
    # cached lattice too.
    for raw in ("3", "abc"):
        harness.lattice_graph.cache_clear()
        harness._dgg_esd.cache_clear()
        monkeypatch.setenv("RGG_SPECTRA_THREADS", raw)
        assert run_trials(cfg) == first, raw


@pytest.mark.parametrize("rejected", [1, 3])
def test_run_trials_check_stops_at_the_first_rejected_trial(monkeypatch, rejected):
    cfg = ExperimentConfig(N=8, d=1, p=INFINITY, r=0.3, trials=6, seed=0)
    seen = []
    ran = []
    run_trial = harness.run_trial
    monkeypatch.setattr(harness, "run_trial", lambda cfg, i: ran.append(i) or run_trial(cfg, i))

    def check(result):
        seen.append(result)
        if len(seen) == rejected + 1:
            raise ValueError("rejected")

    with pytest.raises(ValueError, match="rejected"):
        run_trials(cfg, check=check)
    assert ran == list(range(rejected + 1))
    assert seen == run_trials(replace(cfg, trials=rejected + 1))


def test_probability_estimates():
    cfg = ExperimentConfig(N=16, d=1, p=INFINITY, r=0.3, seed=1, t=-1.0, trials=40)
    p_hat, stderr = estimate_probability(cfg, 40)
    assert p_hat == 1.0  # levy_cubed >= 0 > -1 always
    assert stderr == 0.0
    huge = ExperimentConfig(N=16, d=1, p=INFINITY, r=0.3, seed=1, t=1e9, trials=40)
    p_hat, stderr = estimate_probability(huge, 40)
    assert p_hat == 0.0


def test_probability_nonincreasing_in_t():
    cfg = ExperimentConfig(N=16, d=1, p=INFINITY, r=0.3, trials=30, seed=4)
    results = run_trials(cfg)
    previous = 1.1
    for t in (0.0, 0.01, 0.05, 0.1, 0.5, 2.0):
        p_hat, _ = probability_from_results(results, t)
        assert p_hat <= previous
        previous = p_hat


def test_probability_counts_over_the_results_it_is_given():
    results = [TrialResult(levy_cubed=value, trace_bound=1.0, m_n=0.0, xi_n=0) for value in (0.1, 0.5, 0.9)]
    assert probability_from_results(results, 0.4) == (2 / 3, math.sqrt(2 / 3 * (1 - 2 / 3) / 3))
    assert probability_from_results(results[1:], 0.4) == (1.0, 0.0)
    assert probability_from_results(results[:1], 0.4) == (0.0, 0.0)


def test_an_empty_trial_count_is_refused_before_any_trial(monkeypatch):
    def refuse(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "run_trial", refuse)
    cfg = ExperimentConfig(N=8, d=1, p=INFINITY, r=0.3, trials=5)
    with pytest.raises(ValueError, match="need trials >= 1"):
        estimate_probability(cfg, 0)
    with pytest.raises(ValueError, match="no trial results"):
        probability_from_results([], cfg.t)


def test_figure1_structure():
    result = figure1_experiment(n=256, d=1, seed=2)
    assert result.n == 256
    assert result.r == pytest.approx(math.log(256) / 16.0, rel=1e-15)
    assert result.esd_rgg.n == result.esd_dgg.n == 256
    assert result.levy >= 0
    assert result.k == int(256 * result.r)
    assert result.a_n_implied == pytest.approx(2 * 256 * result.r, rel=1e-15)


@pytest.mark.parametrize("n, d", [(256, 1), (576, 2), (729, 3)])
def test_figure1_compares_its_seeded_graph_with_the_cached_lattice(n, d):
    # Figure 1 samples with its own seed, not a trial seed, under l_infinity.
    result = figure1_experiment(n=n, d=d, seed=4)
    adjacency = build_adjacency(sample_uniform(n, d, 4), result.r, MetricSpec(d, INFINITY))
    assert np.array_equal(result.esd_rgg.eigenvalues, Esd(sym_eigenvalues(adjacency)).eigenvalues)
    lattice = harness._dgg_esd(round(n ** (1.0 / d)), d, INFINITY, result.r)
    assert np.array_equal(result.esd_dgg.eigenvalues, lattice.eigenvalues)


@pytest.mark.parametrize("n, d", [(256, 1), (576, 2)])
def test_figure1_with_the_grid_as_sample_is_its_lattice(grid_as_sample, n, d):
    # The random graph is then the lattice graph: no twins, and the Levy
    # distance is the DFT's rounding against the dense solver.
    result = figure1_experiment(n=n, d=d, seed=1)
    assert result.levy <= 1e-9 and result.twin_frac == 0


def test_recorded_results_do_not_move():
    """Recorded results, so that a refactor cannot move them silently.  m_n,
    xi_n and the twin share never pass through LAPACK, so they must match
    exactly; a Levy distance reads eigenvalues, so it gets 1e-9."""
    recorded = {
        ExperimentConfig(N=64, d=1, p=INFINITY, r=0.1, trials=3, seed=11): [
            (0.00823519475842954, 0.07165408480688862, 395),
            (0.008235194758429595, 0.04960949940150161, 388),
            (0.008235194758429485, 0.0871389806792442, 460),
        ],
        ExperimentConfig(N=12, d=2, p=2, r=0.3, trials=3, seed=11): [
            (0.002297065222050759, 0.09818189174798385, 2814),
            (0.001953125, 0.11594445423531034, 2889),
            (0.0031014901620370393, 0.12262909876337852, 2922),
        ],
    }
    for cfg, rows in recorded.items():
        results = run_trials(cfg)
        assert [(res.m_n, res.xi_n) for res in results] == [(m_n, xi_n) for _, m_n, xi_n in rows]
        assert [res.levy_cubed for res in results] == pytest.approx([levy_cubed for levy_cubed, _, _ in rows], abs=1e-9)
    result = figure1_experiment(n=256, seed=1)
    assert result.levy == pytest.approx(0.15234375, abs=1e-9)
    assert result.twin_frac == 0.30078125


def test_figure1_twin_share_is_a_third():
    """In d = 1 two sorted neighbours with gap g are twins iff the two arcs of
    length g at distance r from them hold no point, which has probability
    integral of n e^{-ng} e^{-2ng} dg = 1/3 at any n and r.  Those twins'
    exact -1 eigenvalues are the atom that keeps criterion 1 red."""
    for seed in (1, 2, 3):
        result = figure1_experiment(n=2000, d=1, seed=seed)
        print(f"seed {seed}: twin_frac {result.twin_frac:.4f}, atom_minus1_frac {result.atom_minus1_frac:.4f}")
        assert abs(result.twin_frac - 1.0 / 3.0) <= 0.05
        assert result.atom_minus1_frac >= result.twin_frac


def test_figure1_searches_the_twin_classes_once(monkeypatch):
    calls = {"n": 0}
    packbits = np.packbits

    def counted(*args, **kwargs):
        calls["n"] += 1
        return packbits(*args, **kwargs)

    monkeypatch.setattr(np, "packbits", counted)
    result = figure1_experiment(n=256, d=1, seed=2)
    assert calls["n"] == 1 and 0 < result.twin_frac < 1


def test_figure1_requires_perfect_power():
    with pytest.raises(ValueError):
        figure1_experiment(n=200, d=2, seed=1)
    # n < 2 has r = log(n)/sqrt(n) <= 0 or undefined, and d < 1 no root.
    for n, d in ((0, 1), (-4, 1), (1, 1), (2000, 0), (4, -1)):
        with pytest.raises(ValueError, match=f"needs n >= 2 and d >= 1, got n = {n}, d = {d}"):
            figure1_experiment(n=n, d=d, seed=1)


def test_figure1_convergence_trend():
    """Mean distance at n=256 versus n=2000 over 10 seeds.

    The distributions share an exact unit-mass atom at -1 (identical closed
    neighborhoods collapse pairs) that the lattice spectrum lacks, so the
    distance plateaus near 0.15 instead of shrinking; the trend claim is
    asserted faithfully and its outcome documented rather than tuned away.
    """
    small = [figure1_experiment(n=256, d=1, seed=s).levy for s in range(1, 11)]
    large = [figure1_experiment(n=2000, d=1, seed=s).levy for s in range(1, 11)]
    mean_small = float(np.mean(small))
    mean_large = float(np.mean(large))
    print(f"figure-1 trend report: mean levy n=256 {mean_small:.4f}, n=2000 {mean_large:.4f}")
    assert mean_small > mean_large
