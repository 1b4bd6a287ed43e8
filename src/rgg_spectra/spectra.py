"""Symmetric eigendecomposition and empirical spectral distributions (ESDs).

The eigensolver is LAPACK via numpy.linalg.eigvalsh.  An Esd is a sorted
eigenvalue vector defining the right-continuous step CDF
F(x) = (1/n) #{i : lambda_i <= x}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import AdjacencyMatrix

# Dense O(n^3) decomposition ceiling; larger requests are refused.
MAX_EIG_ORDER = 4096


def _as_symmetric_array(A) -> np.ndarray:
    """Validate and return a float copy of an AdjacencyMatrix or array."""
    if isinstance(A, AdjacencyMatrix):
        return A.entries.astype(float)
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    if not np.allclose(M, M.T, rtol=0.0, atol=1e-12):
        raise ValueError("matrix is not symmetric within 1e-12")
    return M


def sym_eigenvalues(A) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, ascending (LAPACK)."""
    M = _as_symmetric_array(A)
    if M.shape[0] > MAX_EIG_ORDER:
        raise ValueError(f"order {M.shape[0]} exceeds the dense-eigensolver ceiling {MAX_EIG_ORDER}")
    return np.linalg.eigvalsh(M)


@dataclass(frozen=True, eq=False)
class Esd:
    """Empirical spectral distribution: ascending eigenvalues, step CDF."""

    eigenvalues: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(np.asarray(self.eigenvalues, dtype=float))
        v.flags.writeable = False
        object.__setattr__(self, "eigenvalues", v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Esd):
            return NotImplemented
        return np.array_equal(self.eigenvalues, other.eigenvalues)

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def esd_from_eigenvalues(v) -> Esd:
    """Sort a finite nonempty eigenvalue vector into an Esd."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("an ESD needs at least one eigenvalue")
    if not np.isfinite(v).all():
        raise ValueError("eigenvalues must be finite")
    return Esd(eigenvalues=np.sort(v))


def esd_eval(F: Esd, x: float) -> float:
    """F(x): fraction of eigenvalues <= x (right-continuous)."""
    return float(np.searchsorted(F.eigenvalues, x, side="right")) / F.n
