"""The lattice graph (DGG): one offset band, its spectrum, and the l_inf closed form.

The DGG joins two vertices of the N^d torus grid when their l_p distance is
at most r.  dgg_band evaluates that rule once per lattice offset h, on the
exact wrapped coordinates min(h_s, N - h_s)/N, so the adjacency is a d-level
circulant whose row i is the band shifted to vertex i, and its eigenvalues
are the d-dimensional DFT of the band (dgg_eigenvalues_dft), for every p.
Under l_infinity the band is the cube of reach k (the largest k with
k/N <= r), the degree is (2k+1)^d - 1 and the DFT factors into a product of
Dirichlet-kernel ratios (dgg_eigenvalues_closed_form); that product is only
the graph's spectrum while the cube does not wrap onto itself, 2k+1 <= N.
Every lattice spectrum the package reports (the trials, Figure 1 and
`spectrum --dgg`) is the DFT; the product is the tests' check route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _MAX_GRID_POINTS, MetricSpec, _torus_distances

ANALYTIC_RANGE_EXCEEDED = "ANALYTIC_RANGE_EXCEEDED"


class AnalyticRangeError(ValueError):
    """Raised when 2k+1 > N: the analytic degree/spectrum formulas overcount."""

    code = ANALYTIC_RANGE_EXCEEDED


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


@dataclass(frozen=True)
class DggSpec:
    """l_infinity lattice-graph parameters with derived reach k and degree."""

    N: int
    d: int
    r: float

    def __post_init__(self) -> None:
        if self.N < 1 or self.d < 1 or not self.r > 0:
            raise ValueError(f"need N >= 1, d >= 1, r > 0, got N={self.N}, d={self.d}, r={self.r}")
        if 2 * self.k + 1 > self.N:
            raise AnalyticRangeError(
                f"{ANALYTIC_RANGE_EXCEEDED}: 2k+1 = {2 * self.k + 1} exceeds N = {self.N}"
            )

    @property
    def k(self) -> int:
        """The largest k <= N with k/N <= r, compared in the doubles dgg_band uses."""
        return int(np.count_nonzero(np.arange(1, self.N + 1) / self.N <= self.r))

    @property
    def degree(self) -> int:
        return (2 * self.k + 1) ** self.d - 1


def dgg_spec(N: int, d: int, r: float) -> DggSpec:
    """The DggSpec of (N, d, r), gated on 2k+1 <= N."""
    return DggSpec(N=N, d=d, r=r)


def dgg_degree(N: int, d: int, r: float) -> int:
    """Analytic l_infinity lattice degree (2k+1)^d - 1, gated on 2k+1 <= N."""
    return dgg_spec(N, d, r).degree


def _dirichlet_factors(N: int, k: int) -> np.ndarray:
    """Per-axis factors D(m) = sin(pi*m*(2k+1)/N) / sin(pi*m/N), D(0) = 2k+1."""
    m = np.arange(N)
    factors = np.empty(N, dtype=float)
    factors[0] = 2 * k + 1
    if N > 1:
        factors[1:] = np.sin(np.pi * m[1:] * (2 * k + 1) / N) / np.sin(np.pi * m[1:] / N)
    return factors


def dgg_eigenvalues_closed_form(spec: DggSpec) -> np.ndarray:
    """All N^d l_infinity eigenvalues prod_s D(m_s) - 1, ascending."""
    factors = _dirichlet_factors(spec.N, spec.k)
    product = factors
    for _ in range(spec.d - 1):
        product = np.multiply.outer(product, factors)
    return np.sort(product.ravel() - 1.0)


def dgg_eigenvalues_dft(N: int, d: int, p: float, r: float) -> np.ndarray:
    """All N^d eigenvalues, ascending: the d-dimensional DFT of dgg_band(N, d, p, r)."""
    transformed = np.fft.fftn(dgg_band(N, d, p, r))
    worst_imag = float(np.abs(transformed.imag).max())
    if worst_imag > 1e-8:
        raise ArithmeticError(f"DFT of a symmetric real tensor left imaginary residue {worst_imag:.3e}")
    return np.sort(transformed.real.ravel())
