"""Acceptance gate: one test per stated criterion, one printed verdict line each.

Criterion 1 is asserted exactly as stated even though the measured distance
plateaus near 0.15: the sample spectrum carries an exact atom at -1 (pairs
of points with identical closed neighborhoods) holding about a third of the
mass, which the lattice spectrum lacks, so no sample size can pass the 0.05
tolerance. The assertion is kept faithful rather than weakened; see the
matching note in test_figure1_convergence_trend and the README.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest

from oracles import binomial_tail_oracle, brute_bottleneck, lemma4_matrix_terms, random_symmetric_01
from rgg_spectra.bounds import lemma1_degree_bound, lemma6_variance_bound, theorem1_rhs
from rgg_spectra.cli import main as cli_main
from rgg_spectra.dgg import dgg_degree, dgg_eigenvalues_closed_form, dgg_eigenvalues_dft, dgg_reach
from rgg_spectra.geometry import INFINITY, MetricSpec, PointSet, ball_volume_theta, grid_points, sample_uniform
from rgg_spectra.graph import AdjacencyMatrix, build_adjacency
from rgg_spectra.harness import ExperimentConfig, figure1_experiment, probability_from_results, run_trials
from rgg_spectra.levy import levy_distance, levy_distance_oracle, trace_bound
from rgg_spectra.matching import bottleneck_matching
from rgg_spectra.spectra import Esd, sym_eigenvalues


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_01_figure_reproduction():
    distances = [figure1_experiment(n=2000, d=1, seed=seed).levy for seed in (1, 2, 3)]
    ok = all(dist <= 0.05 for dist in distances)
    _verdict(1, ok, f"n=2000 connectivity-regime Levy distances {['%.4f' % v for v in distances]}, tolerance 0.05")
    assert ok, (
        f"Levy distances {distances} exceed 0.05: the sample spectrum has an exact atom at -1 "
        "(duplicate closed neighborhoods, about 1/3 of the mass at every n) that the lattice "
        "spectrum lacks, so the distance plateaus near 0.15 independent of n"
    )


def test_criterion_02_analytic_spectrum_exactness():
    worst = 0.0
    checked = 0
    for d, sides in ((1, (3, 4, 8, 16, 64)), (2, (3, 4, 8)), (3, (4,))):
        for N in sides:
            for k in range((N - 1) // 2 + 1):
                r = (k + 0.5) / N
                assert dgg_reach(N, d, r) == k
                closed = dgg_eigenvalues_closed_form(N, d, r)
                dft = dgg_eigenvalues_dft(N, d, INFINITY, r)
                explicit = sym_eigenvalues(build_adjacency(grid_points(N, d), r, MetricSpec(d=d, p=INFINITY)))
                worst = max(
                    worst,
                    float(np.max(np.abs(closed - dft))),
                    float(np.max(np.abs(closed - explicit))),
                )
                checked += 1
    ok = worst <= 1e-8
    _verdict(2, ok, f"{checked} (d, N, k) configs, worst pairwise spectrum deviation {worst:.3e}")
    assert ok


def test_criterion_03_trace_bound_property_suite():
    rng = np.random.default_rng(101)
    worst_margin = -math.inf
    for _ in range(200):
        n = int(rng.integers(2, 51))
        a = AdjacencyMatrix(entries=random_symmetric_01(n, float(rng.uniform(0.05, 0.95)), rng))
        b = AdjacencyMatrix(entries=random_symmetric_01(n, float(rng.uniform(0.05, 0.95)), rng))
        levy = levy_distance(Esd(sym_eigenvalues(a)), Esd(sym_eigenvalues(b)))
        margin = levy**3 - trace_bound(a, b)
        worst_margin = max(worst_margin, margin)
    ok = worst_margin <= 1e-9
    _verdict(3, ok, f"200 random matrix pairs, max(L^3 - trace bound) = {worst_margin:.3e}")
    assert ok


def test_criterion_04_levy_oracle_equivalence():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        f = Esd(rng.uniform(-2.5, 2.5, size=int(rng.integers(1, 21))))
        g = Esd(rng.uniform(-2.5, 2.5, size=int(rng.integers(1, 21))))
        exact = levy_distance(f, g)
        grid = levy_distance_oracle(f, g, 1e-3)
        worst = max(worst, abs(exact - grid))
    ok = worst <= 2e-3
    _verdict(4, ok, f"50 random ESD pairs, max |exact - grid oracle| = {worst:.3e}")
    assert ok


def test_criterion_05_bottleneck_optimality_and_rate():
    rng = np.random.default_rng(107)
    mismatches = 0
    for trial in range(100):
        d = int(rng.integers(1, 4))
        p = (1, 2, INFINITY)[trial % 3]
        n = int(rng.integers(2, 8))
        m = MetricSpec(d=d, p=p)
        a = PointSet(coords=rng.random((n, d)), kind="sample")
        b = PointSet(coords=rng.random((n, d)), kind="sample")
        if bottleneck_matching(a, b, m).m_n != brute_bottleneck(a, b, m):
            mismatches += 1
    sizes = (4, 8, 16, 32)
    m = MetricSpec(d=2, p=INFINITY)
    means = []
    for N in sizes:
        grid = grid_points(N, 2)
        values = [
            bottleneck_matching(sample_uniform(N * N, 2, 1000 * N + s), grid, m).m_n for s in range(20)
        ]
        means.append(float(np.mean(values)))
    slope = float(np.polyfit(np.log([N * N for N in sizes]), np.log(means), 1)[0])
    ok = mismatches == 0 and -0.65 <= slope <= -0.35
    _verdict(5, ok, f"100 brute-force instances, {mismatches} mismatches; d=2 log-log slope {slope:.3f}")
    assert ok


def test_criterion_06_degree_bound_sweep():
    violations = 0
    checked = 0
    for d in (1, 2, 3):
        theta = ball_volume_theta(d)
        for p in (1, 2, INFINITY):
            for N in range(3, 33):
                for k in range((N - 1) // 2 + 1):
                    degree = (2 * k + 1) ** d - 1
                    # infimum of a_n over the radius class floor(N r) = k
                    if k >= 1 and degree > lemma1_degree_bound(d, p, theta * k**d):
                        violations += 1
                    # interior representative exercises the package's own reach and degree
                    a_n = theta * N**d * ((k + 0.5) / N) ** d
                    if dgg_degree(N, d, (k + 0.5) / N) > lemma1_degree_bound(d, p, a_n):
                        violations += 1
                    checked += 1
    ok = violations == 0
    _verdict(6, ok, f"{checked} (d, p, N, k) classes at class-infimum and interior radii, {violations} violations")
    assert ok


def test_criterion_07_decomposition_identity():
    rng = np.random.default_rng(109)
    worst_gap = 0.0
    worst_chain = -math.inf
    for trial in range(50):
        d = 1 if trial % 2 == 0 else 2
        N = int(rng.integers(3, 10 if d == 1 else 7))
        n = N**d
        p = (1, 2, INFINITY)[trial % 3]
        sample = sample_uniform(n, d, int(rng.integers(0, 2**31)))
        grid = grid_points(N, d)
        matching = rng.permutation(n)
        r = float(rng.uniform(0.05, 0.45))
        m = MetricSpec(d=d, p=p)
        A_X, A_D = build_adjacency(sample, r, m), build_adjacency(grid, r, m)
        t0 = trace_bound(A_X.entries, A_D.entries[np.ix_(matching, matching)])
        _, t1 = lemma4_matrix_terms(A_X, A_D, matching, r, m)
        esd_x, esd_d = (Esd(sym_eigenvalues(A)) for A in (A_X, A_D))
        worst_gap = max(worst_gap, abs(t0 - t1))
        worst_chain = max(worst_chain, levy_distance(esd_x, esd_d) ** 3 - t0)
    ok = worst_gap <= 1e-9 and worst_chain <= 1e-9
    _verdict(7, ok, f"50 instances, max |T0 - T1| = {worst_gap:.3e}, max(L^3 - T0) = {worst_chain:.3e}")
    assert ok


@pytest.mark.slow
def test_criterion_08_tail_bound_domination():
    configs = ((1, 16, 0.499), (1, 32, 0.4), (2, 16, 0.3), (2, 32, 0.2))
    trials = 500
    lines = []
    failures = []
    for d, N, r in configs:
        cfg = ExperimentConfig(N=N, d=d, p=INFINITY, r=r, a=2.0, trials=trials, seed=0)
        results = run_trials(cfg)
        m_n_max = max(result.m_n for result in results)
        n = cfg.n
        a_n = ball_volume_theta(d) * n * r**d
        if r <= 2.0 * m_n_max:
            lines.append(f"(d={d},N={N}) out of regime (r <= 2 max M_n), reported not failed")
            continue
        chosen = None
        for t in np.logspace(0.0, 6.0, 61):
            report = theorem1_rhs(float(t), n, d, INFINITY, r, a_n, m_n_max, 2.0)
            if not report.vacuous and report.total < 1.0:
                chosen = (float(t), report)
                break
        if chosen is None:
            lines.append(f"(d={d},N={N}) bound vacuous at every t, reported not failed")
            continue
        t, report = chosen
        p_hat, stderr = probability_from_results(results, t)
        dominated = p_hat <= report.total + 3.0 * stderr
        if not dominated:
            failures.append((d, N, t, p_hat, report.total, stderr))
        lines.append(
            f"(d={d},N={N}) t={t:.3g}: p_hat={p_hat:.4f} vs total={report.total:.3e}+3se {'ok' if dominated else 'VIOLATED'}"
        )
    ok = not failures
    _verdict(8, ok, "; ".join(lines))
    assert ok, failures


def test_criterion_09_binomial_concentration():
    triples = list(
        itertools.islice(
            itertools.product((50, 100, 200, 400), (0.05, 0.1, 0.3, 0.5), (0.4, 0.8, 1.2)), 0, None
        )
    )[::2][:20]
    trials = 20_000
    failures = []
    for index, (n, prob, eps) in enumerate(triples):
        mean = n * prob
        estimate = binomial_tail_oracle(n, prob, eps * mean, trials, seed=200 + index)
        bound = 2.0 * math.exp(-(eps**2) * mean / 3.0)
        stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
        if estimate > bound + 3.0 * stderr:
            failures.append((n, prob, eps, estimate, bound))
    ok = not failures
    _verdict(9, ok, f"{len(triples)} (n, prob, eps) triples against the two-sided Chernoff RHS, {len(failures)} violations")
    assert ok, failures


def _run_cli(argv) -> int:
    return cli_main([str(a) for a in argv])


def test_criterion_10_manifest_replay_determinism(tmp_path):
    runs = {
        "gen-sample": ["generate", "--n", 40, "--d", 2, "--p", 2, "--r", 0.3, "--seed", 7],
        "gen-grid": ["generate", "--N", 5, "--d", 2, "--p", "inf", "--r", 0.21],
        "spectrum-dgg": ["spectrum", "--dgg", "8,2", "--r", 0.25, "--plot"],
        "compare-fig": ["compare", "--fig1", "--n", 256, "--d", 1, "--seed", 3, "--plot"],
        "bounds": ["bounds", "--N", 16, "--d", 1, "--r", 0.499, "--t", 1000, "--trials", 4, "--seed", 0],
    }
    mismatched = []
    compared = 0
    for name, argv in runs.items():
        first = tmp_path / name
        second = tmp_path / f"{name}-replayed"
        assert _run_cli(argv + ["--out", first]) == 0
        assert _run_cli(["replay", "--manifest", first / "manifest.json", "--out", second]) == 0
        for produced in sorted(first.iterdir()):
            if produced.name == "manifest.json":  # carries a wall-clock timestamp
                continue
            compared += 1
            if produced.read_bytes() != (second / produced.name).read_bytes():
                mismatched.append(f"{name}/{produced.name}")
    # derived commands replay too: spectrum from generated points
    points = tmp_path / "gen-sample" / "points.csv"
    first = tmp_path / "spectrum-points"
    second = tmp_path / "spectrum-points-replayed"
    assert _run_cli(["spectrum", "--input", points, "--p", 2, "--r", 0.3, "--out", first]) == 0
    assert _run_cli(["replay", "--manifest", first / "manifest.json", "--out", second]) == 0
    compared += 1
    if (first / "eigenvalues.csv").read_bytes() != (second / "eigenvalues.csv").read_bytes():
        mismatched.append("spectrum-points/eigenvalues.csv")
    ok = not mismatched
    _verdict(10, ok, f"{compared} output files byte-compared across replays, mismatches: {mismatched or 'none'}")
    assert ok


def test_criterion_11_edge_count_variance_report():
    configs = (
        (1, 500, 0.01),
        (1, 500, 0.05),
        (1, 200, 0.10),
        (2, 289, 0.05),
        (2, 289, 0.10),
        (3, 216, 0.15),
    )
    seeds = 300
    rows = []
    for d, n, r in configs:
        m = MetricSpec(d=d, p=2)
        counts = [
            int(build_adjacency(sample_uniform(n, d, 10_000 * d + s), r, m).entries.sum()) // 2
            for s in range(seeds)
        ]
        mc_var = float(np.var(np.array(counts, dtype=float), ddof=1))
        a_n = ball_volume_theta(d) * n * r**d
        bound = lemma6_variance_bound(d, a_n)
        rows.append(f"d={d} n={n} r={r}: mc_var={mc_var:.1f} bound={bound:.1f} ratio={mc_var / bound:.1f}")
        assert math.isfinite(mc_var) and bound > 0
    _verdict(11, True, "report-only edge-count variance table — " + "; ".join(rows))
