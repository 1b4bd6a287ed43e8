"""Seeded Monte Carlo harness: trials, tail-probability estimation, and the
paired-CDF comparison experiment.

Each trial samples points, builds the random-graph adjacency, compares its
spectrum against the lattice spectrum (the DFT of the lattice's offset band,
for every p), and evaluates the bottleneck matching and the trace bound.
The lattice graph and its spectrum both come from dgg.dgg_band and depend
only on (N, d, p, r), so they are built once per configuration and cached;
only the random graph is rebuilt per trial.  The l_infinity closed form is
only the tests' check route; figure1_experiment still reports its reach k.
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
from .graph import AdjacencyMatrix, _aligned, _refuse_dense, build_adjacency
from .levy import levy_distance, trace_bound
from .matching import bottleneck_matching
from .spectra import Esd, _check_order, esd_eval, esd_from_eigenvalues, sym_eigenvalues, twin_classes

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
    """One experiment: lattice side N, dimension d, metric p, radius r > 0,
    tail threshold t, Chernoff parameter a, trial count, and master seed."""

    N: int
    d: int
    p: float
    r: float
    t: float = 1.0
    a: float = 2.0
    trials: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.r > 0:
            raise ValueError(f"need r > 0, got {self.r}")
        if self.trials < 1:
            raise ValueError(f"need trials >= 1, got {self.trials}")
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
    n x n result past MAX_PAIRWISE_BYTES is refused before allocating.
    """
    grid = grid_points(N, d)
    band = dgg_band(N, d, p, r)
    _refuse_dense(grid.n)
    windows = np.lib.stride_tricks.sliding_window_view(np.tile(band, (2,) * d), band.shape)
    return grid, AdjacencyMatrix(entries=windows[(slice(N, 0, -1),) * d].reshape(grid.n, grid.n))


@lru_cache(maxsize=32)
def _dgg_esd(N: int, d: int, p: float, r: float) -> Esd:
    """Lattice ESD: the DFT of dgg_band, for every p and every radius.

    The lattice is a d-level circulant, so the DFT is its spectrum, also
    where the l_infinity cube wraps onto itself (2k+1 > N: the lattice is
    then the complete graph) and the closed form no longer applies.
    """
    return esd_from_eigenvalues(dgg_eigenvalues_dft(N, d, p, r))


def run_trial(cfg: ExperimentConfig, trial_index: int) -> TrialResult:
    """Execute one fully deterministic trial of the comparison pipeline.

    The lattice comes first, so one that cannot be built fails before sampling.
    """
    n, r, metric = cfg.n, cfg.r, cfg.metric
    esd_dgg = _dgg_esd(cfg.N, cfg.d, cfg.p, r)
    grid, A_D = lattice_graph(cfg.N, cfg.d, cfg.p, r)
    sample = sample_uniform(n, cfg.d, trial_seed(cfg.seed, trial_index))
    A_X = build_adjacency(sample, r, metric)
    esd_rgg = esd_from_eigenvalues(sym_eigenvalues(A_X))
    levy = levy_distance(esd_rgg, esd_dgg)
    bottleneck = bottleneck_matching(sample, grid, metric)
    return TrialResult(
        levy_cubed=levy**3,
        trace_bound=trace_bound(A_X.entries, _aligned(A_D, bottleneck.assignment)),
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
    """Paired-CDF table: merged x grid, both CDFs, and their Levy distance.

    twin_frac is 1 - (number of true-twin classes)/n for the random graph,
    and atom_minus1_frac the share of its eigenvalues within ATOM_TOLERANCE of
    -1; that atom, absent from the lattice spectrum, keeps the Levy
    distance near 0.15.
    """

    x: np.ndarray = field(repr=False)
    cdf_rgg: np.ndarray = field(repr=False)
    cdf_dgg: np.ndarray = field(repr=False)
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

    n must be a perfect d-th power so the lattice has the same size, and at
    most MAX_EIG_ORDER; the reported reach k needs 2k+1 <= N (dgg_reach).
    All three are checked before sampling.  Emits the union-of-atoms x grid,
    the random-graph empirical CDF, the lattice CDF, their Levy distance, and
    the random graph's twin share and -1 atom.
    """
    N = round(n ** (1.0 / d))
    if N**d != n:
        raise ValueError(f"n = {n} is not a perfect {d}-th power")
    _check_order(n)
    r = math.log(n) / math.sqrt(n)
    k = dgg_reach(N, d, r)

    esd_dgg = _dgg_esd(N, d, INFINITY, r)
    sample = sample_uniform(n, d, seed)
    A = build_adjacency(sample, r, MetricSpec(d=d, p=INFINITY))
    esd_rgg = esd_from_eigenvalues(sym_eigenvalues(A))

    x = np.unique(np.concatenate([esd_rgg.eigenvalues, esd_dgg.eigenvalues]))
    return Figure1Result(
        x=x,
        cdf_rgg=esd_eval(esd_rgg, x),
        cdf_dgg=esd_eval(esd_dgg, x),
        levy=levy_distance(esd_rgg, esd_dgg),
        n=n,
        d=d,
        r=r,
        a_n_implied=average_degree(n, d, r),
        k=k,
        twin_frac=1.0 - twin_classes(A)[0].size / n,  # kept on A by sym_eigenvalues
        atom_minus1_frac=float(np.mean(np.abs(esd_rgg.eigenvalues + 1.0) <= ATOM_TOLERANCE)),
        esd_rgg=esd_rgg,
        esd_dgg=esd_dgg,
    )
