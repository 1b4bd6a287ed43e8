"""Adjacency matrices of geometric graphs on the torus, degrees, edge counts.

Edges connect distinct points at torus l_p distance <= r (exact double
comparison, no epsilon slack).  Matrices are dense symmetric 0/1 arrays with
zero diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import MetricSpec, PointSet, _aggregate, _wrapped_deltas, ball_volume_theta, torus_distance_matrix


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


def _build_adjacency_cells(points: PointSet, r: float, m: MetricSpec, cells_per_axis: int) -> AdjacencyMatrix:
    """Cell-list construction; bit-identical to the reference.

    Points are bucketed into a C^d grid of cells with side 1/C >= r.  Because
    the max-coordinate delta never exceeds the l_p distance, any edge joins
    points in the same or axis-adjacent cells (wrapping), so only those
    candidate pairs are tested -- with the exact same distance kernel as the
    reference.
    """
    n, d = points.n, points.d
    C = cells_per_axis
    cell_of = np.minimum((points.coords * C).astype(np.int64), C - 1)
    flat = np.zeros(n, dtype=np.int64)
    for axis in range(d):
        flat = flat * C + cell_of[:, axis]
    order = np.argsort(flat, kind="stable")
    sorted_flat = flat[order]
    starts = np.searchsorted(sorted_flat, np.arange(C**d))
    ends = np.searchsorted(sorted_flat, np.arange(C**d), side="right")

    offsets = np.stack(np.meshgrid(*(np.array([-1, 0, 1]),) * d, indexing="ij"), axis=-1).reshape(-1, d)
    cell_coords = np.stack(np.unravel_index(np.arange(C**d), (C,) * d), axis=-1)

    entries = np.zeros((n, n), dtype=np.uint8)
    coords = points.coords
    for cell_index in range(C**d):
        members = order[starts[cell_index] : ends[cell_index]]
        if members.size == 0:
            continue
        neighbor_cells = (cell_coords[cell_index] + offsets) % C
        neighbor_flat = np.zeros(len(neighbor_cells), dtype=np.int64)
        for axis in range(d):
            neighbor_flat = neighbor_flat * C + neighbor_cells[:, axis]
        neighbor_flat = np.unique(neighbor_flat)
        candidates = np.concatenate([order[starts[c] : ends[c]] for c in neighbor_flat])
        deltas = _wrapped_deltas(coords[members][:, None, :] - coords[candidates][None, :, :])
        close = _aggregate(deltas, m.p) <= r
        ii = np.repeat(members, candidates.size)
        jj = np.tile(candidates, members.size)
        keep = close.ravel() & (ii != jj)
        entries[ii[keep], jj[keep]] = 1
    return AdjacencyMatrix(entries=entries)


def build_adjacency(points: PointSet, r: float, m: MetricSpec) -> AdjacencyMatrix:
    """Adjacency of the geometric graph: edge iff 0 < torus l_p distance <= r.

    Uses the cell-list path when the radius is small enough for at least a
    3-per-axis cell grid and n is large enough to pay off; output is
    bit-identical to build_adjacency_reference in all cases.
    """
    if points.d != m.d:
        raise ValueError("point set and metric disagree on dimension")
    if not r > 0:
        raise ValueError(f"radius must be positive, got {r}")
    cells_per_axis = int(1.0 / r) if r < 1.0 else 0
    if points.n >= 512 and cells_per_axis >= 3:
        return _build_adjacency_cells(points, r, m, cells_per_axis)
    return build_adjacency_reference(points, r, m)


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
