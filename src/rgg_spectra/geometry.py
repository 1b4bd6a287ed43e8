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

# All-pairs distance requests are refused before allocating when n_a * n_b * d
# float64 values pass this many bytes.  The measure is the byte size of the
# full (n_a, n_b, d) array of wrapped deltas, which the kernel never builds:
# it holds the (n_a, n_b) result plus three float64 arrays of one row block.
MAX_PAIRWISE_BYTES = 1 << 30

# The all-pairs kernel runs _BLOCK_BYTES // (8 * n_b * d) rows at a time, so
# each block's per-axis (rows, n_b) arrays stay cache-sized; 256 KiB to 2 MiB
# measured alike.
_BLOCK_BYTES = 1 << 20


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

    coords is an (n, d) float array, frozen after construction; d is its width.
    """

    coords: np.ndarray = field(repr=False)
    kind: str

    def __post_init__(self) -> None:
        coords = np.ascontiguousarray(np.asarray(self.coords, dtype=float))
        if coords.ndim != 2:
            raise ValueError(f"coords must be a 2-D (n, d) array, got shape {coords.shape}")
        if coords.size and not (coords.min() >= 0.0 and coords.max() < 1.0):  # NaN fails both
            raise ValueError("coordinates must lie in [0, 1)")
        if self.kind not in (SAMPLE, GRID):
            raise ValueError(f"kind must be {SAMPLE!r} or {GRID!r}, got {self.kind!r}")
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def d(self) -> int:
        return self.coords.shape[1]


def _torus_distances(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """l_p torus distances between the rows of a (n_a, d) and b (n_b, d), shape (n_a, n_b).

    One axis at a time: the wrapped deltas of that axis are folded into the
    (n_a, n_b) result (np.maximum for l_inf, in-place += of |delta|, delta^2
    or delta^p otherwise), and the root is taken once at the end.  The
    accumulation runs in axis order, which matches numpy's sum over a short
    last axis bit for bit up to d = 7.  torus_distance and, through
    _all_pairs, torus_distance_matrix and build_adjacency in graph.py all
    call this, so they produce identical doubles.
    """
    total = None
    wrapped = np.empty((len(a), len(b)))
    for axis in range(a.shape[1]):
        delta = np.subtract.outer(a[:, axis], b[:, axis])
        np.abs(delta, out=delta)
        np.subtract(1.0, delta, out=wrapped)
        np.minimum(delta, wrapped, out=delta)
        if p == 2:
            np.multiply(delta, delta, out=delta)
        elif p != 1 and p != INFINITY:
            np.power(delta, p, out=delta)
        if total is None:
            total = delta
        elif p == INFINITY:
            np.maximum(total, delta, out=total)
        else:
            total += delta
    if p == 2:
        return np.sqrt(total, out=total)
    if p == 1 or p == INFINITY:
        return total
    return total ** (1.0 / p)


def _all_pairs(a: np.ndarray, b: np.ndarray, p: float, r: float | None = None) -> np.ndarray:
    """_torus_distances(a, b, p), or its mask <= r when r is given, evaluated a
    block of rows of a at a time.

    When one block covers every row, the kernel's result is returned as it
    is, with no copy into a separate result array.
    """
    rows = max(1, _BLOCK_BYTES // (8 * max(1, len(b)) * a.shape[1]))

    def block(start: int) -> np.ndarray:
        D = _torus_distances(a[start : start + rows], b, p)
        return D if r is None else D <= r

    if rows >= len(a):
        return block(0)
    result = np.empty((len(a), len(b)), dtype=float if r is None else bool)
    for start in range(0, len(a), rows):
        result[start : start + rows] = block(start)
    return result


def torus_distance(x, y, m: MetricSpec) -> float:
    """l_p distance on the torus between coordinate vectors x and y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (m.d,) or y.shape != (m.d,):
        raise ValueError(f"expected coordinate vectors of length {m.d}, got {x.shape} and {y.shape}")
    return float(_torus_distances(x[None, :], y[None, :], m.p)[0, 0])


def _check_pairwise_bytes(size: int, what: str) -> None:
    """Refuse, before allocating, arrays of size bytes past MAX_PAIRWISE_BYTES
    (read on each call); what names them in the message."""
    if size > MAX_PAIRWISE_BYTES:
        raise ValueError(f"{what} need {size} bytes, past the limit MAX_PAIRWISE_BYTES = {MAX_PAIRWISE_BYTES}")


def torus_distance_matrix(a: PointSet, b: PointSet, m: MetricSpec) -> np.ndarray:
    """All-pairs torus l_p distances, shape (a.n, b.n)."""
    if a.d != m.d or b.d != m.d:
        raise ValueError("point sets and metric disagree on dimension")
    _check_pairwise_bytes(a.n * b.n * m.d * 8, f"all-pairs distances for {a.n} x {b.n} points in d = {m.d}")
    return _all_pairs(a.coords, b.coords, m.p)


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


def average_degree(n: int, d: int, r: float) -> float:
    """The average degree a_n = theta^(d) n r^d of n points at radius r, with
    theta^(d) the unit l_2 ball volume for every metric."""
    return ball_volume_theta(d) * n * r**d


def sample_uniform(n: int, d: int, seed: int) -> PointSet:
    """n i.i.d. uniform points on [0,1)^d, deterministic per seed (PCG64)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if seed < 0:
        raise ValueError(f"need seed >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    return PointSet(coords=rng.random((n, d)), kind=SAMPLE)


def grid_points(N: int, d: int) -> PointSet:
    """The lattice {0, 1/N, ..., (N-1)/N}^d in row-major order, N^d points."""
    if N < 1 or d < 1:
        raise ValueError(f"need N >= 1 and d >= 1, got N = {N}, d = {d}")
    n = N**d
    if n > _MAX_GRID_POINTS:
        raise ValueError(f"grid of N^d = {n} points exceeds the size limit {_MAX_GRID_POINTS}")
    axes = np.meshgrid(*(np.arange(N),) * d, indexing="ij")
    coords = np.stack(axes, axis=-1).reshape(n, d) / N
    return PointSet(coords=coords, kind=GRID)
