"""Spectra of random geometric graphs on the torus versus their lattice twins.

The package builds geometric graphs from uniform samples or regular grids
on [0, 1)^d with wrap-around l_p metrics, computes adjacency spectra
(dense eigensolver for sampled graphs, DFT of the offset band for lattices),
measures Levy distance between empirical spectral distributions, solves the
bottleneck point-to-grid matching, and evaluates the concentration bounds
that tie those quantities together.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .bounds import (
    Lemma4Terms,
    Theorem1Report,
    lemma1_degree_bound,
    lemma4_decomposition,
    lemma6_variance_bound,
    theorem1_rhs,
)
from .dgg import dgg_band, dgg_degree, dgg_eigenvalues_dft, dgg_reach
from .geometry import (
    INFINITY,
    MAX_PAIRWISE_BYTES,
    MetricSpec,
    PointSet,
    average_degree,
    ball_volume_theta,
    grid_points,
    sample_uniform,
    torus_distance,
    torus_distance_matrix,
)
from .graph import AdjacencyMatrix, build_adjacency, edge_list_text
from .harness import (
    ExperimentConfig,
    Figure1Result,
    TrialResult,
    estimate_probability,
    figure1_experiment,
    lattice_graph,
    probability_from_results,
    run_trial,
    run_trials,
    trial_seed,
)
from .levy import levy_distance, levy_distance_oracle, trace_bound
from .matching import BottleneckResult, bottleneck_matching, bottleneck_rate_envelope
from .spectra import MAX_EIG_ORDER, Esd, esd_eval, sym_eigenvalues, twin_classes

__all__ = [
    "__version__",
    "AdjacencyMatrix",
    "BottleneckResult",
    "Esd",
    "ExperimentConfig",
    "Figure1Result",
    "INFINITY",
    "Lemma4Terms",
    "MAX_EIG_ORDER",
    "MAX_PAIRWISE_BYTES",
    "MetricSpec",
    "PointSet",
    "Theorem1Report",
    "TrialResult",
    "average_degree",
    "ball_volume_theta",
    "bottleneck_matching",
    "bottleneck_rate_envelope",
    "build_adjacency",
    "dgg_band",
    "dgg_degree",
    "dgg_eigenvalues_dft",
    "dgg_reach",
    "edge_list_text",
    "esd_eval",
    "estimate_probability",
    "figure1_experiment",
    "grid_points",
    "lattice_graph",
    "lemma1_degree_bound",
    "lemma4_decomposition",
    "lemma6_variance_bound",
    "levy_distance",
    "levy_distance_oracle",
    "probability_from_results",
    "run_trial",
    "run_trials",
    "sample_uniform",
    "sym_eigenvalues",
    "theorem1_rhs",
    "torus_distance",
    "torus_distance_matrix",
    "trace_bound",
    "trial_seed",
    "twin_classes",
]
