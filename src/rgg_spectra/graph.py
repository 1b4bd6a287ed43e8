"""Adjacency matrices of geometric graphs on the torus, degrees, edge counts.

Edges connect distinct points at torus l_p distance <= r (exact double
comparison, no epsilon slack).  Matrices are dense symmetric 0/1 arrays with
zero diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import MAX_PAIRWISE_BYTES, MetricSpec, PointSet, _torus_distances, ball_volume_theta, torus_distance_matrix


@dataclass(frozen=True)
class AdjacencyMatrix:
    """Symmetric 0/1 matrix with zero diagonal, frozen after construction."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        entries = np.ascontiguousarray(np.asarray(self.entries, dtype=np.uint8))
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {entries.shape}")
        if not np.array_equal(entries, entries.T):
            raise ValueError("adjacency must be symmetric")
        if entries.size and entries.max() > 1:
            raise ValueError("adjacency entries must be 0/1")
        if np.any(np.diagonal(entries)):
            raise ValueError("adjacency diagonal must be zero")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def degrees(self) -> np.ndarray:
        return self.entries.sum(axis=1, dtype=np.int64)


@dataclass(frozen=True)
class DegreeSummary:
    """Degrees, edge count xi_n, and empirical vs theoretical average degree."""

    degrees: np.ndarray = field(repr=False)
    edge_count: int
    average_degree_empirical: float
    average_degree_theoretical: float


def build_adjacency_reference(points: PointSet, r: float, m: MetricSpec) -> AdjacencyMatrix:
    """O(n^2) all-pairs construction: the ground-truth edge rule.

    Refused past geometry.MAX_PAIRWISE_BYTES, as torus_distance_matrix is.
    """
    if points.d != m.d:
        raise ValueError("point set and metric disagree on dimension")
    if not r > 0:
        raise ValueError(f"radius must be positive, got {r}")
    close = torus_distance_matrix(points, points, m) <= r
    np.fill_diagonal(close, False)
    return AdjacencyMatrix(entries=close.astype(np.uint8))


# build_adjacency evaluates _BLOCK_BYTES // (8 * n * d) rows at a time, so each
# block's per-axis (rows, n) arrays stay cache-sized; 256 KiB to 2 MiB measured
# alike.
_BLOCK_BYTES = 1 << 20


def build_adjacency(points: PointSet, r: float, m: MetricSpec) -> AdjacencyMatrix:
    """Adjacency of the geometric graph: edge iff i != j and torus l_p distance <= r.

    The reference's all-pairs rule on the same distance kernel, a block of
    rows at a time, so the output is bit-identical to
    build_adjacency_reference.  An n x n result past
    geometry.MAX_PAIRWISE_BYTES is refused before allocating.
    """
    if points.d != m.d:
        raise ValueError("point set and metric disagree on dimension")
    if not r > 0:
        raise ValueError(f"radius must be positive, got {r}")
    n, coords = points.n, points.coords
    if n * n > MAX_PAIRWISE_BYTES:
        raise ValueError(
            f"the adjacency of {n} points needs {n * n} bytes, "
            f"past the limit MAX_PAIRWISE_BYTES = {MAX_PAIRWISE_BYTES}"
        )
    rows = max(1, _BLOCK_BYTES // (n * m.d * 8))
    entries = np.empty((n, n), dtype=np.uint8)
    for start in range(0, n, rows):
        entries[start : start + rows] = _torus_distances(coords[start : start + rows], coords, m.p) <= r
    np.fill_diagonal(entries, 0)
    return AdjacencyMatrix(entries=entries)


def degree_summary(A: AdjacencyMatrix, n: int, d: int, r: float) -> DegreeSummary:
    """Degrees, edge count, and empirical vs a_n = theta^(d) n r^d averages."""
    degrees = A.degrees()
    edge_count = int(degrees.sum()) // 2
    return DegreeSummary(
        degrees=degrees,
        edge_count=edge_count,
        average_degree_empirical=float(degrees.mean()),
        average_degree_theoretical=ball_volume_theta(d) * n * r**d,
    )


def _check_permutation(matching: np.ndarray, n: int) -> np.ndarray:
    matching = np.asarray(matching, dtype=np.int64)
    if matching.shape != (n,) or not np.array_equal(np.sort(matching), np.arange(n)):
        raise ValueError("matching must be a permutation of 0..n-1")
    return matching


def cross_neighbor_count(A_sample: AdjacencyMatrix, A_grid: AdjacencyMatrix, matching: np.ndarray) -> np.ndarray:
    """Per-node count of common neighbors under the alignment i -> matching[i].

    Entry i is sum_j A_sample[i, j] * A_grid[matching[i], matching[j]].
    """
    n = A_sample.n
    if A_grid.n != n:
        raise ValueError(f"matrix orders differ: {n} vs {A_grid.n}")
    matching = _check_permutation(matching, n)
    aligned = A_grid.entries[np.ix_(matching, matching)]
    return (A_sample.entries.astype(np.int64) * aligned).sum(axis=1)


def edge_list_text(A: AdjacencyMatrix) -> str:
    """Upper-triangle edge list, one 'i j' pair per line, 0-based (debugging aid)."""
    ii, jj = np.nonzero(np.triu(A.entries, k=1))
    return "".join(f"{i} {j}\n" for i, j in zip(ii.tolist(), jj.tolist()))
