"""Exact Levy distance between step CDFs, a grid-scan oracle, and the
cubed-distance trace bound.

The Levy distance between CDFs F and G is the infimum of all eps > 0 with
F(x - eps) - eps <= G(x) <= F(x + eps) + eps for every x.  For step CDFs the
worst x of each one-sided inequality is a jump point of the CDF on its outer
side (between jumps that side is constant while the other side is
nondecreasing), so the condition reduces to one inequality per atom:
F(f_i) - eps <= G(f_i + eps) at the atoms f_i of F, and the same with F and G
swapped.  Each atom's inequality holds exactly from its own smallest eps on,
which one searchsorted finds for all atoms at once (see _atom_levels); the
distance is the largest of these levels, or 0 when none is positive.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import AdjacencyMatrix
from .spectra import Esd


def _atom_levels(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Smallest eps with F(f_i) - eps <= G(f_i + eps), for every atom f_i of F.

    With c atoms of G at or below f_i + eps (g_{c-1} <= f_i + eps, g_{-1} =
    -inf), the level is min over c of max(g_{c-1} - f_i, (i+1)/n_f - c/n_g).
    The first term rises with c and the second falls, so the minimum sits
    where they cross: at the first c with u_c = g_{c-1} + c/n_g >= f_i +
    (i+1)/n_f, or just before it.  u rises with c, so one searchsorted
    over c = 1..n_g returns k = c - 1 for every atom at once; the level is
    the smaller of g_k - f_i (none when k = n_g) and (i+1)/n_f - k/n_g.
    """
    nf, ng = len(f), len(g)
    own = np.arange(1, nf + 1) / nf
    k = np.searchsorted(g + np.arange(1, ng + 1) / ng, f + own, side="left")
    reach = np.where(k < ng, g[np.minimum(k, ng - 1)] - f, math.inf)
    return np.minimum(reach, own - k / ng)


def levy_distance(F: Esd, G: Esd) -> float:
    """Levy distance between two ESDs, exact up to rounding, in one pass."""
    f, g = F.eigenvalues, G.eigenvalues
    distance = max(_atom_levels(f, g).max(), _atom_levels(g, f).max())
    return float(distance) if distance > 0 else 0.0


def levy_distance_oracle(F: Esd, G: Esd, grid_step: float = 1e-3) -> float:
    """First feasible eps on the grid {step, 2*step, ...} by dense x-scan.

    Independent of levy_distance: feasibility is checked by brute force over
    a dense x grid (all atoms, their +-eps shifts, midpoints, and pads beyond
    the support) rather than the reduced atom conditions.  Every eps >= 1 is
    feasible (F(x - eps) - eps <= 0 <= G(x) <= 1 <= F(x + eps) + eps), so the
    scan ends within about ceil(1/step) rounds.
    """
    if not grid_step > 0:
        raise ValueError(f"grid_step must be positive, got {grid_step}")
    f, g = F.eigenvalues, G.eigenvalues
    nf, ng = len(f), len(g)
    eps = grid_step
    while True:
        xs = np.unique(np.concatenate([f, g, f - eps, f + eps, g - eps, g + eps]))
        xs = np.concatenate([xs, (xs[:-1] + xs[1:]) / 2.0, [xs[0] - 1.0, xs[-1] + 1.0]])
        F_x = np.searchsorted(f, xs, side="right") / nf
        G_x = np.searchsorted(g, xs, side="right") / ng
        F_left = np.searchsorted(f, xs - eps, side="right") / nf
        F_right = np.searchsorted(f, xs + eps, side="right") / nf
        if np.all(F_left - eps <= G_x) and np.all(G_x <= F_right + eps):
            return eps
        eps += grid_step


def trace_bound(A, B) -> float:
    """(1/n) tr(A - B)^2, the L^3 upper bound: for 0/1 entries, the exact count
    of differing entries over n.  A and B are AdjacencyMatrix objects or square
    uint8 arrays of 0/1 entries; anything else is refused."""
    Ma = A.entries if isinstance(A, AdjacencyMatrix) else np.asarray(A)
    Mb = B.entries if isinstance(B, AdjacencyMatrix) else np.asarray(B)
    if Ma.shape != Mb.shape or Ma.ndim != 2 or Ma.shape[0] != Ma.shape[1]:
        raise ValueError(f"matrix orders differ or are not square: {Ma.shape} vs {Mb.shape}")
    if not (Ma.dtype == Mb.dtype == np.uint8 and Ma.max(initial=0) <= 1 and Mb.max(initial=0) <= 1):
        raise ValueError("trace_bound needs uint8 matrices of 0/1 entries")
    return np.count_nonzero(Ma != Mb) / Ma.shape[0]
