"""Seeded Monte Carlo harness: trials, tail-probability estimation, and the
paired-CDF comparison experiment.

Figure 1 and each trial share one comparison route, _compare: sample points,
build the random-graph adjacency and compare its spectrum with the lattice
spectrum (the DFT of the lattice's offset band, for every p); a trial adds the
bottleneck matching and the trace bound.  The lattice graph and its spectrum
come from dgg.dgg_band and depend only on (N, d, p, r), so they are cached per
configuration.  Figure 1 builds an ExperimentConfig, which makes its
order-ceiling and radius checks; the l_infinity closed form is only the tests'
check route, and figure1_experiment still reports its reach k.  Its twin
share reads A.twin_classes, which sym_eigenvalues has already searched.
Per-trial seeds are a documented splitmix64 mix of the master seed and the
trial index, so every aggregate is reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .dgg import dgg_band, dgg_eigenvalues_dft, dgg_reach
from .dgg import dgg_eigenvalues_closed_form  # noqa: F401  perfbench wraps it here until ROADMAP item 4
from .geometry import INFINITY, MetricSpec, PointSet, average_degree, grid_points, sample_uniform
from .graph import AdjacencyMatrix, _refuse_dense, build_adjacency
from .levy import levy_distance, trace_bound
from .matching import bottleneck_matching
from .spectra import Esd, _check_order, sym_eigenvalues

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def trial_seed(master_seed: int, trial_index: int) -> int:
    """splitmix64 output number (trial_index + 1) from state master_seed.

    The state after i+1 increments is master + (i+1)*GAMMA mod 2^64 with
    GAMMA = 0x9E3779B97F4A7C15; the output is its standard 64-bit finalizer
    (xor-shift/multiply twice, final xor-shift).
    """
    z = (master_seed + (trial_index + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: lattice side N, dimension d, metric p, finite radius
    r > 0, tail threshold t, Chernoff parameter a, trial count, and master seed."""

    N: int
    d: int
    p: float
    r: float
    t: float = 1.0
    a: float = 2.0
    trials: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.r < math.inf:
            raise ValueError(f"need r > 0 and finite, got {self.r}")
        if self.trials < 1:
            raise ValueError(f"need trials >= 1, got {self.trials}")
        if self.N < 1:
            raise ValueError(f"need N >= 1, got {self.N}")
        self.metric  # MetricSpec refuses d < 1 and p < 1
        _check_order(self.n)

    @property
    def n(self) -> int:
        return self.N**self.d

    @property
    def metric(self) -> MetricSpec:
        return MetricSpec(d=self.d, p=self.p)


@dataclass(frozen=True)
class TrialResult:
    """Per-trial outcomes."""

    levy_cubed: float
    trace_bound: float
    m_n: float
    xi_n: int


# Each entry holds an n x n adjacency, so only a few configurations are kept.
@lru_cache(maxsize=4)
def lattice_graph(N: int, d: int, p: float, r: float) -> tuple[PointSet, AdjacencyMatrix]:
    """The N^d grid and its lattice adjacency under l_p at radius r (cached).

    Entry (i, j) is dgg_band at the offset (j - i) mod N of the grid's
    multi-indices: row i is a window of the band tiled twice per axis.  An
    n x n result past MAX_PAIRWISE_BYTES is refused before the grid or the
    band is built.
    """
    _refuse_dense(N**d)
    grid = grid_points(N, d)
    band = dgg_band(N, d, p, r)
    windows = np.lib.stride_tricks.sliding_window_view(np.tile(band, (2,) * d), band.shape)
    return grid, AdjacencyMatrix(entries=windows[(slice(N, 0, -1),) * d].reshape(grid.n, grid.n))


@lru_cache(maxsize=32)
def _dgg_esd(N: int, d: int, p: float, r: float) -> Esd:
    """Lattice ESD: the DFT of dgg_band, for every p and every radius.

    The lattice is a d-level circulant, so the DFT is its spectrum, also
    where the l_infinity cube wraps onto itself (2k+1 > N: the lattice is
    then the complete graph) and the closed form no longer applies.
    """
    return Esd(dgg_eigenvalues_dft(N, d, p, r))


def _compare(cfg: ExperimentConfig, seed: int) -> tuple[PointSet, AdjacencyMatrix, Esd, Esd, float]:
    """cfg's lattice against the random graph sampled with `seed`: the sample,
    its adjacency A_X, the random-graph and lattice ESDs, and their Levy
    distance.  The lattice ESD comes first, so it fails before sampling."""
    esd_dgg = _dgg_esd(cfg.N, cfg.d, cfg.p, cfg.r)
    sample = sample_uniform(cfg.n, cfg.d, seed)
    A_X = build_adjacency(sample, cfg.r, cfg.metric)
    esd_rgg = Esd(sym_eigenvalues(A_X))
    return sample, A_X, esd_rgg, esd_dgg, levy_distance(esd_rgg, esd_dgg)


def run_trial(cfg: ExperimentConfig, trial_index: int) -> TrialResult:
    """Execute one fully deterministic trial of the comparison pipeline.

    The lattice comes first, so one that cannot be built fails before sampling.
    """
    grid, A_D = lattice_graph(cfg.N, cfg.d, cfg.p, cfg.r)
    sample, A_X, _, _, levy = _compare(cfg, trial_seed(cfg.seed, trial_index))
    bottleneck = bottleneck_matching(sample, grid, cfg.metric)
    # A_D aligned to the sample: row take, then column take; np.ix_ would build n x n index arrays.
    match = bottleneck.assignment
    return TrialResult(
        levy_cubed=levy**3,
        trace_bound=trace_bound(A_X.entries, A_D.entries[match][:, match]),
        m_n=bottleneck.m_n,
        xi_n=int(A_X.degrees().sum()) // 2,
    )


def run_trials(cfg: ExperimentConfig, check=None) -> list[TrialResult]:
    """The results of cfg.trials trials, run one after another in trial-index order.

    check, if given, is called on each result before the next trial starts;
    an exception it raises stops the trials and propagates.
    """
    results = []
    for index in range(cfg.trials):
        result = run_trial(cfg, index)
        if check is not None:
            check(result)
        results.append(result)
    return results


def estimate_probability(cfg: ExperimentConfig, trials: int) -> tuple[float, float]:
    """Monte Carlo estimate of P{L^3 > t} over `trials` trials of cfg, with its
    binomial standard error; ExperimentConfig refuses trials < 1 before any runs."""
    return probability_from_results(run_trials(replace(cfg, trials=trials)), cfg.t)


def probability_from_results(results: list[TrialResult], t: float) -> tuple[float, float]:
    """p_hat and stderr for P{L^3 > t}, counted over the given trials."""
    if not results:
        raise ValueError("no trial results to count P{L^3 > t} over")
    p_hat = sum(res.levy_cubed > t for res in results) / len(results)
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / len(results))
    return p_hat, stderr


# Eigenvalues this close to -1 count toward Figure1Result.atom_minus1_frac.
ATOM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Figure1Result:
    """Figure 1: the random-graph and lattice ESDs, their Levy distance, and
    the run's parameters and scales.

    twin_frac is 1 - (number of true-twin classes)/n for the random graph,
    and atom_minus1_frac the share of its eigenvalues within ATOM_TOLERANCE of
    -1; that atom, absent from the lattice spectrum, keeps the Levy
    distance near 0.15.
    """

    levy: float
    n: int
    d: int
    r: float
    a_n_implied: float
    k: int
    twin_frac: float
    atom_minus1_frac: float
    esd_rgg: Esd = field(repr=False)
    esd_dgg: Esd = field(repr=False)


def figure1_experiment(n: int = 2000, d: int = 1, seed: int = 1) -> Figure1Result:
    """Connectivity-regime CDF comparison at r = log(n)/sqrt(n), l_infinity.

    n >= 2 must be a perfect d-th power (d >= 1) so the lattice has the same
    size, and at most MAX_EIG_ORDER (ExperimentConfig's check); the reported
    reach k needs 2k+1 <= N (dgg_reach).  All are checked before sampling with
    `seed`.  Emits both ESDs, their Levy distance, and the random graph's twin
    share and -1 atom.
    """
    if n < 2 or d < 1:
        raise ValueError(f"figure 1 needs n >= 2 and d >= 1, got n = {n}, d = {d}")
    N = round(n ** (1.0 / d))
    if N**d != n:
        raise ValueError(f"n = {n} is not a perfect {d}-th power")
    r = math.log(n) / math.sqrt(n)
    cfg = ExperimentConfig(N, d, INFINITY, r)
    k = dgg_reach(N, d, r)
    _, A, esd_rgg, esd_dgg, levy = _compare(cfg, seed)
    return Figure1Result(
        levy=levy,
        n=n,
        d=d,
        r=r,
        a_n_implied=average_degree(n, d, r),
        k=k,
        twin_frac=1.0 - A.twin_classes[0].size / n,
        atom_minus1_frac=float(np.mean(np.abs(esd_rgg.eigenvalues + 1.0) <= ATOM_TOLERANCE)),
        esd_rgg=esd_rgg,
        esd_dgg=esd_dgg,
    )
