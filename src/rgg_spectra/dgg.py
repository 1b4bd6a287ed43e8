"""The lattice graph (DGG): one offset band, its spectrum, and the l_inf closed form.

The DGG joins two vertices of the N^d torus grid when their l_p distance is
at most r.  dgg_band evaluates that rule once per lattice offset h, on the
exact wrapped coordinates min(h_s, N - h_s)/N, so the adjacency is a d-level
circulant whose row i is the band shifted to vertex i, and its eigenvalues
are the d-dimensional DFT of the band (dgg_eigenvalues_dft), for every p.
Under l_infinity the band is the cube of reach k = dgg_reach(N, d, r), the
largest k with k/N <= r; while the cube does not wrap onto itself
(2k+1 <= N) the degree is (2k+1)^d - 1 (dgg_degree) and the DFT factors
into a product of Dirichlet-kernel ratios (dgg_eigenvalues_closed_form).
All three take (N, d, r) and refuse 2k+1 > N with a ValueError.  Every
lattice spectrum the package reports (the trials, Figure 1 and
`spectrum --dgg`) is the DFT; the product is the tests' check route.
"""

from __future__ import annotations

import numpy as np

from .geometry import _MAX_GRID_POINTS, MetricSpec, _torus_distances


def dgg_band(N: int, d: int, p: float, r: float) -> np.ndarray:
    """The lattice edge rule on offsets: a read-only uint8 tensor over {0..N-1}^d.

    Entry h is 1 iff h != 0 and the l_p norm of the wrapped offset
    (min(h_s, N - h_s)/N)_s, computed by geometry._torus_distances as its
    distance from the origin, is <= r.  Each wrapped offset in
    {0..floor(N/2)}^d is evaluated once, so h and -h share one double and
    the band is exactly symmetric.
    """
    MetricSpec(d=d, p=p)
    if N < 1 or not r > 0:
        raise ValueError(f"need N >= 1, r > 0, got N={N}, r={r}")
    if N**d > _MAX_GRID_POINTS:
        raise ValueError(f"lattice of N^d = {N**d} offsets exceeds the size limit {_MAX_GRID_POINTS}")
    half = N // 2 + 1
    wrapped = np.stack(np.meshgrid(*(np.arange(half),) * d, indexing="ij"), axis=-1).reshape(-1, d) / N
    close = (_torus_distances(wrapped, np.zeros((1, d)), p)[:, 0] <= r).reshape((half,) * d)
    fold = np.minimum(np.arange(N), N - np.arange(N))
    band = close[np.ix_(*(fold,) * d)].astype(np.uint8)
    band[(0,) * d] = 0
    band.flags.writeable = False
    return band


def dgg_reach(N: int, d: int, r: float) -> int:
    """The l_infinity reach k: the largest k <= N with k/N <= r, compared in the
    doubles dgg_band uses.  Refused when 2k+1 > N, where the cube wraps."""
    if N < 1 or d < 1 or not r > 0:
        raise ValueError(f"need N >= 1, d >= 1, r > 0, got N={N}, d={d}, r={r}")
    k = int(np.count_nonzero(np.arange(1, N + 1) / N <= r))
    if 2 * k + 1 > N:
        raise ValueError(f"2k+1 = {2 * k + 1} exceeds N = {N}")
    return k


def dgg_degree(N: int, d: int, r: float) -> int:
    """Analytic l_infinity lattice degree (2k+1)^d - 1, gated on 2k+1 <= N."""
    return (2 * dgg_reach(N, d, r) + 1) ** d - 1


def _dirichlet_factors(N: int, k: int) -> np.ndarray:
    """Per-axis factors D(m) = sin(pi*m*(2k+1)/N) / sin(pi*m/N), D(0) = 2k+1."""
    m = np.arange(N)
    factors = np.empty(N, dtype=float)
    factors[0] = 2 * k + 1
    if N > 1:
        factors[1:] = np.sin(np.pi * m[1:] * (2 * k + 1) / N) / np.sin(np.pi * m[1:] / N)
    return factors


def dgg_eigenvalues_closed_form(N: int, d: int, r: float) -> np.ndarray:
    """All N^d l_infinity eigenvalues prod_s D(m_s) - 1, ascending, gated on 2k+1 <= N."""
    factors = _dirichlet_factors(N, dgg_reach(N, d, r))
    product = factors
    for _ in range(d - 1):
        product = np.multiply.outer(product, factors)
    return np.sort(product.ravel() - 1.0)


def dgg_eigenvalues_dft(N: int, d: int, p: float, r: float) -> np.ndarray:
    """All N^d eigenvalues, ascending: the d-dimensional DFT of dgg_band(N, d, p, r)."""
    transformed = np.fft.fftn(dgg_band(N, d, p, r))
    worst_imag = float(np.abs(transformed.imag).max())
    if worst_imag > 1e-8:
        raise ArithmeticError(f"DFT of a symmetric real tensor left imaginary residue {worst_imag:.3e}")
    return np.sort(transformed.real.ravel())
