"""Exact minimum bottleneck matching between a sample and the grid.

The optimum is one of the n^2 pairwise torus distances.  A threshold is
feasible when the pairs within it admit a perfect matching, a maximum
bipartite matching (Hopcroft-Karp) question.  The optimum is at least the
largest row/column minimum of the distance matrix (`lower`), since every row
and every column must be covered.

The search runs on one candidate list: the pairs within a feasible cap, in
row-major order, with their distinct distances sorted once (the threshold
graph technique of Efrat, Itai & Katz, "Geometry helps in bottleneck matching
and related problems", Algorithmica 31, 2001).  A probe at threshold t is the
CSR of the candidates within t, which is the whole threshold graph D <= t
because t never exceeds the cap.  The search keeps the best perfect matching
found so far: every feasible probe lowers the upper end to the largest
distance of the matching it returns, and the search ends holding an optimal
assignment, so it never probes the optimum a second time.

In d = 1 the cap is the bottleneck of the best cyclic shift of sorted order,
which is optimal on the circle; one infeasible probe just below its value
then certifies it.  In d >= 2 the cap starts at 2 * lower: the whole
candidate set is probed once, and the cap widens by half (up to the largest
distance, where the graph is complete) until it holds a perfect matching;
the search then bisects the candidates' distinct distances.  The grid's
columns are probed in a fixed shuffled order: in row-major grid order
scipy's Hopcroft-Karp can spend a minute on a probe that takes 0.01 s
shuffled.

Also provides the d-dependent rate envelopes used for empirical rate
regressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .geometry import MetricSpec, PointSet, torus_distance_matrix


@dataclass(frozen=True)
class BottleneckResult:
    """Optimal bottleneck value m_n and a witnessing sample->grid bijection."""

    m_n: float
    assignment: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class _Candidates:
    """The pairs within a cap: rows, columns and distances in row-major order."""

    n: int
    rows: np.ndarray
    cols: np.ndarray
    dist: np.ndarray

    @classmethod
    def within(cls, D: np.ndarray, cap: float) -> "_Candidates":
        flat = np.flatnonzero(D <= cap)
        rows, cols = np.divmod(flat, D.shape[1])
        return cls(n=D.shape[0], rows=rows, cols=cols.astype(np.int32), dist=D.ravel()[flat])

    def full_matching(self, threshold: float) -> np.ndarray | None:
        """A perfect row->column matching using only pairs within threshold, or None."""
        keep = self.dist <= threshold
        indptr = np.zeros(self.n + 1, dtype=np.int32)
        np.cumsum(np.bincount(self.rows[keep], minlength=self.n), out=indptr[1:])
        cols = self.cols[keep]
        graph = csr_matrix((np.ones(len(cols), dtype=bool), cols, indptr), shape=(self.n, self.n))
        matched_col = maximum_bipartite_matching(graph, perm_type="column")
        if np.any(matched_col < 0):
            return None
        return matched_col.astype(np.int64)


def _cyclic_shift_seed(sample: PointSet, grid: PointSet, D: np.ndarray) -> np.ndarray:
    """Best cyclic shift of sorted order on the circle (d = 1): an optimal bijection.

    With a_0 <= ... <= a_{n-1} the sorted sample and b_0 <= ... <= b_{n-1}
    the sorted grid, shift s matches a_k to b_{(k+s) mod n}; the shift with
    the smallest largest distance is returned as sample -> grid indices.

    Some optimal matching is such a shift (Werman, Peleg, Melter & Kong,
    "Bipartite graph matching for points on a line or a circle", J.
    Algorithms 7, 1986).  Exchange argument: let lam be the optimum.  If
    lam = 1/2, every bijection attains it.  Otherwise lift both sets
    periodically to the line, A_t = a_{t mod n} + floor(t/n) and likewise
    B_t; each matched pair lifts to the unique pair of lifts within lam < 1/2,
    which gives a bijection sigma of the integers with
    sigma(t + n) = sigma(t) + n and |A_t - B_sigma(t)| <= lam.  If u < t but
    sigma(u) > sigma(t), then A_u <= A_t and B_sigma(u) >= B_sigma(t), and
    on a line |A_u - B_sigma(t)| and |A_t - B_sigma(u)| are both at most
    max(|A_u - B_sigma(u)|, |A_t - B_sigma(t)|) <= lam.  Swapping the two
    images (and every translate by a multiple of n) keeps the bound and
    lowers the number of inversions per period, as for ordinary
    permutations.  After finitely many swaps sigma is increasing, hence
    t -> t + s for one integer s, and the wrapped distance of a_k and
    b_{(k+s) mod n} is at most |A_k - B_{k+s}| <= lam.

    The distances are read from D, so the seed is exact in the same doubles
    the search probes; a feasible probe below it would only resume the search.
    """
    n = D.shape[0]
    sample_order = np.argsort(sample.coords[:, 0], kind="stable")
    grid_order = np.argsort(grid.coords[:, 0], kind="stable")
    ranks = np.arange(n)
    shifted = (ranks[:, None] + ranks[None, :]) % n  # [k, s] -> (k + s) mod n
    worst = D[sample_order[:, None], grid_order[shifted]].max(axis=0)
    assignment = np.empty(n, dtype=np.int64)
    assignment[sample_order] = grid_order[(ranks + int(np.argmin(worst))) % n]
    return assignment


def _bottleneck_index(values: np.ndarray, D: np.ndarray, assignment: np.ndarray) -> int:
    """Position in the sorted distinct distances of an assignment's largest distance."""
    return int(np.searchsorted(values, D[np.arange(D.shape[0]), assignment].max()))


def bottleneck_matching(sample: PointSet, grid: PointSet, m: MetricSpec) -> BottleneckResult:
    """Exact minimum bottleneck matching distance M_n and an optimal assignment."""
    if sample.n != grid.n:
        raise ValueError(f"sample and grid sizes differ: {sample.n} vs {grid.n}")
    # Shuffle the columns once; see the module docstring.
    cols = np.random.default_rng(0).permutation(grid.n)
    grid = PointSet(d=grid.d, coords=grid.coords[cols], kind=grid.kind)
    D = torus_distance_matrix(sample, grid, m)
    lower = max(D.min(axis=1).max(), D.min(axis=0).max())
    # Invariant: best is a perfect matching within the candidates' cap.
    if m.d == 1:
        best = _cyclic_shift_seed(sample, grid, D)
        candidates = _Candidates.within(D, D[np.arange(sample.n), best].max())
    else:
        cap, top = 2.0 * lower, D.max()
        while True:
            candidates = _Candidates.within(D, cap)
            best = candidates.full_matching(cap)
            if best is not None:
                break
            cap = min(1.5 * cap, top) if cap > 0 else top
    values = np.unique(candidates.dist)
    lo = int(np.searchsorted(values, lower))
    # Invariant: best is a perfect matching with largest distance values[hi].
    hi = _bottleneck_index(values, D, best)
    # The d = 1 seed is optimal, so probe just below it first.
    mid = hi - 1 if m.d == 1 else (lo + hi) // 2
    while lo < hi:
        found = candidates.full_matching(values[mid])
        if found is None:
            lo = mid + 1
        else:
            best, hi = found, _bottleneck_index(values, D, found)
        mid = (lo + hi) // 2
    return BottleneckResult(m_n=float(values[hi]), assignment=cols[best])


def bottleneck_rate_envelope(n: float, d: int, eps: float = 0.5) -> float:
    """Unscaled asymptotic rate for M_n (constant 1, natural logs).

    d >= 3: (log n / n)^(1/d);  d = 2: (log^{3/2} n / n)^{1/2};
    d = 1: sqrt(log(1/eps) / n), eps the exceedance probability in (0, 1).
    """
    if not n >= 2:
        raise ValueError(f"need n >= 2, got {n}")
    if d == 1:
        if not 0.0 < eps < 1.0:
            raise ValueError(f"d=1 envelope needs eps in (0,1), got {eps}")
        return math.sqrt(math.log(1.0 / eps) / n)
    if d == 2:
        return math.sqrt(math.log(n) ** 1.5 / n)
    return (math.log(n) / n) ** (1.0 / d)
