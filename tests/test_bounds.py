"""Degree/variance bounds, the decomposition identity, and the tail bound."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from oracles import binomial_tail_oracle, brute_cross_edge_count, lemma4_matrix_terms
from rgg_spectra.bounds import (
    lemma1_degree_bound,
    lemma4_decomposition,
    lemma6_variance_bound,
    theorem1_rhs,
)
from rgg_spectra.dgg import dgg_degree
from rgg_spectra.geometry import INFINITY, MetricSpec, ball_volume_theta, grid_points, sample_uniform
from rgg_spectra.graph import build_adjacency
from rgg_spectra.harness import lattice_graph
from rgg_spectra.levy import levy_distance, trace_bound
from rgg_spectra.spectra import Esd, sym_eigenvalues


def _levy_cubed(A_X, A_D) -> float:
    """Cubed Levy distance between the two adjacency spectra."""
    esd_x, esd_d = (Esd(sym_eigenvalues(A)) for A in (A_X, A_D))
    return levy_distance(esd_x, esd_d) ** 3


def test_degree_bound_examples():
    assert lemma1_degree_bound(1, 2, 4.0) == pytest.approx(9.0, rel=1e-15)
    assert lemma1_degree_bound(1, INFINITY, 4.0) == pytest.approx(9.0, rel=1e-15)
    a_n = math.pi * 4.0
    expected = 2.0 * 4.0 * a_n * (1.0 + 1.0 / (2.0 * math.sqrt(a_n))) ** 2
    assert lemma1_degree_bound(2, 1, a_n) == pytest.approx(expected, rel=1e-15)
    # the bound actually dominates the lattice degree it bounds
    assert dgg_degree(10, 1, 0.2) <= lemma1_degree_bound(1, 2, ball_volume_theta(1) * 10 * 0.2)
    with pytest.raises(ValueError):
        lemma1_degree_bound(1, 2, 0.0)


def test_variance_bound_examples():
    assert lemma6_variance_bound(1, 4.0) == pytest.approx(18.0, rel=1e-15)
    assert lemma6_variance_bound(2, 1.0) == pytest.approx(3.0 * math.pi, rel=1e-15)


def test_edge_count_variance_report():
    """Monte Carlo Var(xi_n) versus the printed bound; REPORT ONLY.

    The printed bound carries no explicit n factor while xi_n sums Theta(n^2)
    pair indicators, so the measured variance exceeds it by roughly n/2 at
    desk scale; the comparison is tabulated, never asserted.
    """
    d, n, r, seeds = 1, 500, 0.01, 2000
    m = MetricSpec(d=d, p=2)
    counts = []
    for seed in range(seeds):
        A = build_adjacency(sample_uniform(n, d, seed), r, m)
        counts.append(int(A.entries.sum()) // 2)
    mc_var = float(np.var(np.array(counts, dtype=float), ddof=1))
    a_n = ball_volume_theta(d) * n * r**d
    bound = lemma6_variance_bound(d, a_n)
    print(
        f"edge-count variance report: d={d} n={n} r={r} seeds={seeds} "
        f"mc_var={mc_var:.1f} printed_bound={bound:.1f} ratio={mc_var / bound:.1f}"
    )
    assert math.isfinite(mc_var) and mc_var > 0


def test_tail_bound_example_values():
    report = theorem1_rhs(t=1.0, n=100, d=1, p=INFINITY, r=0.2, a_n=16.0, M_n=0.0, a=2.0)
    assert report.c == pytest.approx(1.03125, abs=1e-15)
    assert report.epsilon == pytest.approx(0.25, abs=1e-12)
    assert report.term1 >= 0 and report.term2 >= 0 and report.term3 >= 0
    assert report.total == pytest.approx(report.term1 + report.term2 + report.term3, rel=1e-15)
    assert not report.vacuous
    # Past exp's range the generating term saturates at inf and keeps its log.
    saturated = theorem1_rhs(t=1, n=512, d=1, p=INFINITY, r=0.3, a_n=307.2, M_n=0, a=100)
    assert saturated.term2 == saturated.term2_volume == saturated.total == math.inf
    assert saturated.term2_saturated and saturated.term2_log == pytest.approx(1752.555, rel=1e-6)
    # Below t of about 1.6e-162 / n, n^2 t^2 underflows to 0: term 3 is inf, not a division error.
    for t in (1e-170, 5e-324):
        tiny = theorem1_rhs(t=t, n=8, d=1, p=INFINITY, r=0.3, a_n=4.8, M_n=0.12, a=2.0)
        assert tiny.term3 == tiny.total == math.inf and tiny.vacuous


def test_tail_bound_large_t_limit():
    report = theorem1_rhs(t=1e9, n=100, d=1, p=INFINITY, r=0.2, a_n=16.0, M_n=0.0, a=2.0)
    assert report.term3 < 1e-10
    assert report.term1 < 1e-10


def test_tail_bound_terms_nonincreasing_in_t():
    previous = None
    for t in np.logspace(0.0, 4.0, 15):
        report = theorem1_rhs(t=float(t), n=256, d=1, p=INFINITY, r=0.2, a_n=16.0, M_n=0.01, a=2.0)
        if report.vacuous:
            previous = None
            continue
        if previous is not None:
            assert report.term1 <= previous.term1 + 1e-15
            assert report.term2 <= previous.term2 or math.isinf(previous.term2)
            assert report.term3 <= previous.term3
        previous = report


def test_tail_bound_vacuous_flag():
    report = theorem1_rhs(t=0.01, n=64, d=1, p=INFINITY, r=0.1, a_n=2.0, M_n=0.04, a=2.0)
    assert report.vacuous
    assert report.epsilon <= 0
    assert report.term1 >= 1.0


def test_tail_bound_parameter_validation():
    with pytest.raises(ValueError):
        theorem1_rhs(t=1.0, n=64, d=1, p=INFINITY, r=0.1, a_n=2.0, M_n=0.05, a=2.0)  # r == 2 m_n
    with pytest.raises(ValueError):
        theorem1_rhs(t=1.0, n=64, d=1, p=INFINITY, r=0.2, a_n=2.0, M_n=0.0, a=0.5)  # a < 1
    with pytest.raises(ValueError, match="need a >= 1 and finite"):
        theorem1_rhs(t=1.0, n=64, d=1, p=INFINITY, r=0.2, a_n=2.0, M_n=0.0, a=math.inf)
    with pytest.raises(ValueError, match="need r > 0 and finite"):
        theorem1_rhs(t=1.0, n=64, d=1, p=INFINITY, r=math.inf, a_n=2.0, M_n=0.0, a=2.0)
    with pytest.raises(ValueError):
        theorem1_rhs(t=0.0, n=64, d=1, p=INFINITY, r=0.2, a_n=2.0, M_n=0.0, a=2.0)  # t <= 0
    with pytest.raises(ValueError, match="need a_n > 0"):
        theorem1_rhs(t=1.0, n=64, d=1, p=INFINITY, r=0.2, a_n=0.0, M_n=0.0, a=2.0)
    with pytest.raises(ValueError, match="need a_n > 0"):
        lemma6_variance_bound(1, 0.0)


def test_tail_bound_degenerate_chernoff_parameter():
    report = theorem1_rhs(t=1.0, n=64, d=1, p=INFINITY, r=0.2, a_n=16.0, M_n=0.0, a=1.0)
    assert report.term2 == pytest.approx(64.0, rel=1e-12)
    assert math.isfinite(report.total)


def test_tail_bound_volume_variant():
    flat = theorem1_rhs(t=5.0, n=256, d=2, p=2, r=0.2, a_n=32.0, M_n=0.01, a=2.0)
    assert flat.term2_volume != flat.term2
    assert flat.term2_volume >= 0
    linear = theorem1_rhs(t=5.0, n=64, d=1, p=INFINITY, r=0.2, a_n=16.0, M_n=0.01, a=2.0)
    assert linear.term2_volume == linear.term2


def test_binomial_oracle_degenerate_cases():
    assert binomial_tail_oracle(100, 0.0, 5.0, 1000, 1) == 0.0
    assert binomial_tail_oracle(100, 0.5, 0.0, 1000, 1) == 1.0


def test_binomial_oracle_against_exact_tail():
    n, prob, threshold, trials = 200, 0.1, 10.0, 100_000
    estimate = binomial_tail_oracle(n, prob, threshold, trials, seed=5)
    assert estimate <= 2.0 * math.exp(-0.25 * 20.0 / 3.0)  # concentration RHS ~ 0.378
    mean = n * prob
    lo = math.floor(mean - threshold)
    hi = math.ceil(mean + threshold)
    exact = stats.binom.cdf(lo, n, prob) + stats.binom.sf(hi - 1, n, prob)
    stderr = math.sqrt(exact * (1 - exact) / trials)
    assert abs(estimate - exact) <= 4 * stderr + 1e-12


def _terms_from_counts(A_X, A_D, matching, r, m):
    """lemma4_decomposition on the counts a trial carries: the trace bound of
    the aligned pair, the sample's edge count, and the lattice degree."""
    degrees = A_D.degrees()
    assert np.all(degrees == degrees[0])
    trace = trace_bound(A_X.entries, A_D.entries[np.ix_(matching, matching)])
    return lemma4_decomposition(trace, int(A_X.degrees().sum()) // 2, int(degrees[0]), A_X.n, r, m)


def test_decomposition_identity_on_identity_instance():
    grid = grid_points(4, 2)
    sample = type(grid)(coords=grid.coords.copy(), kind="sample")
    m = MetricSpec(d=2, p=INFINITY)
    A_X, A_D = build_adjacency(sample, 0.3, m), build_adjacency(grid, 0.3, m)
    terms, t1 = lemma4_matrix_terms(A_X, A_D, np.arange(16), 0.3, m)
    assert terms.t0 == 0.0
    assert abs(t1) <= 1e-12
    assert _levy_cubed(A_X, A_D) == 0.0
    assert _terms_from_counts(A_X, A_D, np.arange(16), 0.3, m) == terms


def test_decomposition_identity_and_chain_on_random_instances():
    rng = np.random.default_rng(53)
    for trial in range(8):
        d = 1 if trial % 2 == 0 else 2
        N = int(rng.integers(3, 9))
        n = N**d
        p = [1, 2, INFINITY][trial % 3]
        m = MetricSpec(d=d, p=p)
        sample = sample_uniform(n, d, int(rng.integers(0, 2**31)))
        grid = grid_points(N, d)
        matching = rng.permutation(n)
        r = float(rng.uniform(0.08, 0.45))
        A_X, A_D = build_adjacency(sample, r, m), build_adjacency(grid, r, m)
        terms, t1 = lemma4_matrix_terms(A_X, A_D, matching, r, m)
        assert terms.t0 == pytest.approx(t1, abs=1e-9)
        assert _levy_cubed(A_X, A_D) <= terms.t0 + 1e-9
        assert terms.t0 <= terms.eq1_total + 1e-9
        assert terms.t_degree >= 0 and terms.t_L >= 0 and terms.t_aprime >= 0
        assert _terms_from_counts(A_X, A_D, matching, r, m) == terms


def test_decomposition_term_formulas():
    m = MetricSpec(d=1, p=INFINITY)
    n, N, r = 9, 9, 0.2
    sample = sample_uniform(n, 1, 3)
    grid = grid_points(N, 1)
    matching = np.arange(n)
    A_X, A_D = build_adjacency(sample, r, m), build_adjacency(grid, r, m)
    terms, _ = lemma4_matrix_terms(A_X, A_D, matching, r, m)
    mean_deg = A_X.degrees().mean()
    a_n = ball_volume_theta(1) * n * r
    coeff = 2.0 ** (1 + 1)  # d^{1/p} 2^{d+1} with d=1
    assert terms.t_degree == pytest.approx(coeff * abs(mean_deg - a_n), rel=1e-12)
    assert terms.t_aprime == pytest.approx(float(A_D.degrees().mean()), rel=1e-12)
    assert terms.eq1_total == pytest.approx(terms.t_degree + terms.t_L + terms.t_aprime, rel=1e-12)
    assert _terms_from_counts(A_X, A_D, matching, r, m) == terms


def test_decomposition_common_edges_match_brute_force():
    # t1 = mean degree of A_X + mean degree of A_D - 2 (common ordered pairs) / n,
    # and every common edge is two ordered pairs.
    rng = np.random.default_rng(11)
    for N, d, p, r in ((30, 1, INFINITY, 0.1), (6, 2, 2, 0.3), (4, 3, 1, 0.4)):
        n, m = N**d, MetricSpec(d=d, p=p)
        # The lattice from dgg_band: at the tie radius 3/30, build_adjacency on
        # the grid's rounded coordinates gives a graph that is not regular.
        A_X, A_D = build_adjacency(sample_uniform(n, d, 3), r, m), lattice_graph(N, d, p, r)[1]
        matching = rng.permutation(n)
        common = brute_cross_edge_count(A_X.entries, A_D.entries, matching)
        assert common > 0
        expected = float(A_X.degrees().mean()) + float(A_D.degrees().mean()) - 2.0 * (2 * common) / n
        terms, t1 = lemma4_matrix_terms(A_X, A_D, matching, r, m)
        assert t1 == expected
        assert _terms_from_counts(A_X, A_D, matching, r, m) == terms


# With n = 4 vertices, 3 sample edges and lattice degree 2, the differing
# entries number 6 + 8 - 2 common, with 0 <= common <= min(6, 8).
@pytest.mark.parametrize(
    "trace, edges, lattice_degree, n",
    [
        (1.25, 3, 2, 4),  # 5 differing entries: an odd numerator
        (4.0, 3, 2, 4),  # 16 differing entries: common = -1
        (0.0, 3, 2, 4),  # common = 7 > 2 edges = 6
        (0.0, 5, 2, 4),  # common = 9 > n a' = 8, with 2 edges = 10
        (0.0, 0, 0, 0),  # no vertices
        (0.55, 3, 2, 4),  # 2.2 differing entries: not a count over n
    ],
    ids=["odd-numerator", "negative-common", "common-above-edges", "common-above-lattice", "n-zero", "trace-not-a-count"],
)
def test_decomposition_refuses_inconsistent_counts(trace, edges, lattice_degree, n):
    m = MetricSpec(d=1, p=2)
    with pytest.raises(ValueError):
        lemma4_decomposition(trace, edges, lattice_degree, n, 0.2, m)
