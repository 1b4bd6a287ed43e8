"""Torus coordinate arithmetic, wrapped l_p distances, sampling, and grids.

All point sets live on the unit torus [0,1)^d: per-coordinate differences are
wrapped, delta(a, b) = min(|a-b|, 1-|a-b|), so no pair of coordinates is ever
farther than 1/2 apart.  Distances aggregate the wrapped deltas with an l_p
norm, p in [1, inf].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

INFINITY = math.inf

SAMPLE = "sample"
GRID = "grid"

# Allocating a grid beyond this many points is refused up front; the dense
# pipelines downstream cap out far earlier anyway.
_MAX_GRID_POINTS = 1 << 26

# All-pairs distances build an (n_a, n_b, d) float64 array of wrapped deltas;
# requests past this many bytes for it are refused before allocating.
MAX_PAIRWISE_BYTES = 1 << 30


@dataclass(frozen=True)
class MetricSpec:
    """Dimension d and l_p exponent (p >= 1 or INFINITY), wrapped per axis."""

    d: int
    p: float

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if not (self.p >= 1):  # also rejects NaN
            raise ValueError(f"metric exponent must be >= 1 or INFINITY, got {self.p}")


@dataclass(frozen=True)
class PointSet:
    """n points in [0,1)^d with a kind tag, SAMPLE or GRID.

    coords is an (n, d) float array, frozen after construction.
    """

    d: int
    coords: np.ndarray = field(repr=False)
    kind: str

    def __post_init__(self) -> None:
        coords = np.ascontiguousarray(np.asarray(self.coords, dtype=float))
        if coords.ndim != 2 or coords.shape[1] != self.d:
            raise ValueError(f"coords must have shape (n, {self.d}), got {coords.shape}")
        if coords.size and (coords.min() < 0.0 or coords.max() >= 1.0):
            raise ValueError("coordinates must lie in [0, 1)")
        if self.kind not in (SAMPLE, GRID):
            raise ValueError(f"kind must be {SAMPLE!r} or {GRID!r}, got {self.kind!r}")
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return self.coords.shape[0]


def torus_coordinate_delta(a: float, b: float) -> float:
    """Wrapped distance between two coordinates in [0,1): min(|a-b|, 1-|a-b|)."""
    gap = abs(a - b)
    return min(gap, 1.0 - gap)


def _wrapped_deltas(diff: np.ndarray) -> np.ndarray:
    """Elementwise wrapped deltas for an array of raw coordinate differences."""
    gap = np.abs(diff)
    return np.minimum(gap, 1.0 - gap)


def _aggregate(deltas: np.ndarray, p: float) -> np.ndarray:
    """l_p aggregate of wrapped deltas along the last axis.

    Shared by torus_distance_matrix (hence the all-pairs reference) and the
    blocked build_adjacency in graph.py, so that both produce bit-identical
    doubles.
    """
    if p == INFINITY:
        return deltas.max(axis=-1)
    if p == 1:
        return deltas.sum(axis=-1)
    if p == 2:
        return np.sqrt((deltas * deltas).sum(axis=-1))
    return (deltas**p).sum(axis=-1) ** (1.0 / p)


def torus_distance(x, y, m: MetricSpec) -> float:
    """l_p distance on the torus between coordinate vectors x and y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (m.d,) or y.shape != (m.d,):
        raise ValueError(f"expected coordinate vectors of length {m.d}, got {x.shape} and {y.shape}")
    return float(_aggregate(_wrapped_deltas(x - y), m.p))


def torus_distance_matrix(a: PointSet, b: PointSet, m: MetricSpec) -> np.ndarray:
    """All-pairs torus l_p distances, shape (a.n, b.n)."""
    if a.d != m.d or b.d != m.d:
        raise ValueError("point sets and metric disagree on dimension")
    size = a.n * b.n * m.d * 8
    if size > MAX_PAIRWISE_BYTES:
        raise ValueError(
            f"all-pairs distances for {a.n} x {b.n} points in d = {m.d} need {size} bytes, "
            f"past the limit MAX_PAIRWISE_BYTES = {MAX_PAIRWISE_BYTES}"
        )
    deltas = _wrapped_deltas(a.coords[:, None, :] - b.coords[None, :, :])
    return _aggregate(deltas, m.p)


def ball_volume_theta(d: int) -> float:
    """Volume of the d-dimensional unit l_2 ball, pi^{d/2} / Gamma(d/2 + 1).

    Exact factorial closed forms: even d=2m gives pi^m/m!; odd d=2k+1 gives
    pi^k 4^{k+1} (k+1)! / (2k+2)!.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if d % 2 == 0:
        m = d // 2
        return math.pi**m / math.factorial(m)
    k = (d - 1) // 2
    return math.pi**k * 4 ** (k + 1) * math.factorial(k + 1) / math.factorial(2 * k + 2)


def sample_uniform(n: int, d: int, seed: int) -> PointSet:
    """n i.i.d. uniform points on [0,1)^d, deterministic per seed (PCG64)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    return PointSet(d=d, coords=rng.random((n, d)), kind=SAMPLE)


def grid_points(N: int, d: int) -> PointSet:
    """The lattice {0, 1/N, ..., (N-1)/N}^d in row-major order, N^d points."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    n = N**d
    if n > _MAX_GRID_POINTS:
        raise ValueError(f"grid of N^d = {n} points exceeds the size limit {_MAX_GRID_POINTS}")
    axes = np.meshgrid(*(np.arange(N),) * d, indexing="ij")
    coords = np.stack(axes, axis=-1).reshape(n, d) / N
    return PointSet(d=d, coords=coords, kind=GRID)
