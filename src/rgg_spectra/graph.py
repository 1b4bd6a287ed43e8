"""Adjacency matrices of geometric graphs on the torus and their edge lists.

Edges connect distinct points at torus l_p distance <= r (exact double
comparison, no epsilon slack).  Matrices are dense symmetric 0/1 arrays with
zero diagonal; each finds its true-twin classes once, when first asked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import MetricSpec, PointSet, _all_pairs, _check_pairwise_bytes


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

    @cached_property
    def twin_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """True-twin classes: vertices whose rows of A + I are equal.

        Each class's first vertex, ascending, and the class sizes, both
        read-only.  Rows are compared exactly, as packed bit strings.  The
        entries are frozen, so the search runs once per matrix.
        """
        closed = self.entries.copy()
        np.fill_diagonal(closed, 1)
        packed = np.packbits(closed, axis=1)
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, heads, sizes = np.unique(keys, return_index=True, return_counts=True)
        order = np.argsort(heads)
        heads, sizes = heads[order], sizes[order]
        heads.flags.writeable = sizes.flags.writeable = False
        return heads, sizes


def _refuse_dense(n: int) -> None:
    """Refuse an n x n uint8 adjacency past geometry.MAX_PAIRWISE_BYTES."""
    _check_pairwise_bytes(n * n, f"the adjacency entries of {n} points")


def build_adjacency(points: PointSet, r: float, m: MetricSpec) -> AdjacencyMatrix:
    """Adjacency of the geometric graph: edge iff i != j and torus l_p distance <= r.

    Every pair is evaluated on the shared distance kernel, a block of rows
    at a time.  An n x n result past geometry.MAX_PAIRWISE_BYTES is refused
    before allocating.
    """
    if points.d != m.d:
        raise ValueError("point set and metric disagree on dimension")
    if not r > 0:
        raise ValueError(f"radius must be positive, got {r}")
    _refuse_dense(points.n)
    entries = _all_pairs(points.coords, points.coords, m.p, r).view(np.uint8)
    np.fill_diagonal(entries, 0)
    return AdjacencyMatrix(entries=entries)


def edge_list_text(A: AdjacencyMatrix) -> str:
    """Upper-triangle edge list, one 'i j' pair per line, 0-based (debugging aid)."""
    ii, jj = np.nonzero(np.triu(A.entries, k=1))
    return "".join(f"{i} {j}\n" for i, j in zip(ii.tolist(), jj.tolist()))
