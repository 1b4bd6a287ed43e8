"""Symmetric eigendecomposition and empirical spectral distributions (ESDs).

The eigensolver is LAPACK via numpy.linalg.eigvalsh.  An adjacency matrix is
first reduced by its true-twin classes A.twin_classes (equal rows of A + I):
that partition is equitable, so the spectrum is the spectrum of the k x k
quotient plus n - k exact eigenvalues -1 (Godsil & Royle, Algebraic Graph
Theory, section 9.3).  An Esd is a sorted eigenvalue vector defining
the right-continuous step CDF F(x) = (1/n) #{i : lambda_i <= x}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import AdjacencyMatrix

# Dense O(n^3) decomposition ceiling; larger requests are refused.
MAX_EIG_ORDER = 4096


def _check_order(n: int) -> None:
    if n > MAX_EIG_ORDER:
        raise ValueError(f"order {n} exceeds the dense-eigensolver ceiling {MAX_EIG_ORDER}")


def sym_eigenvalues(A: AdjacencyMatrix) -> np.ndarray:
    """All eigenvalues of an adjacency matrix, ascending (LAPACK).

    A is reduced by A.twin_classes first: with heads h and sizes s, the
    quotient Q_ij = sqrt(s_i s_j) A[h_i, h_j] off the diagonal and
    Q_ii = s_i - 1, and the spectrum is eigvalsh(Q) plus n - k copies of
    exactly -1.0.  Without twins Q equals A, so the result is the plain
    eigvalsh(A) bit for bit.  Any other input is refused.
    """
    if not isinstance(A, AdjacencyMatrix):
        raise TypeError(f"sym_eigenvalues needs an AdjacencyMatrix, got {type(A).__name__}")
    _check_order(A.n)
    heads, sizes = A.twin_classes
    root = np.sqrt(sizes.astype(float))
    Q = A.entries[heads][:, heads] * np.outer(root, root)
    np.fill_diagonal(Q, sizes - 1.0)
    return np.sort(np.concatenate([np.linalg.eigvalsh(Q), np.full(A.n - heads.size, -1.0)]))


@dataclass(frozen=True, eq=False)
class Esd:
    """Empirical spectral distribution: ascending eigenvalues, step CDF.

    Esd(values) is the one constructor: it flattens and sorts a copy of
    values, refuses an empty or non-finite vector, and freezes the copy.
    """

    eigenvalues: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.sort(np.asarray(self.eigenvalues, dtype=float), axis=None)
        if v.size == 0:
            raise ValueError("an ESD needs at least one eigenvalue")
        if not np.isfinite(v).all():
            raise ValueError("eigenvalues must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "eigenvalues", v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Esd):
            return NotImplemented
        return np.array_equal(self.eigenvalues, other.eigenvalues)

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def esd_eval(F: Esd, x):
    """F(x): fraction of eigenvalues <= x (right-continuous), elementwise for an array x."""
    return np.searchsorted(F.eigenvalues, x, side="right") / F.n
