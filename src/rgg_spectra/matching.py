"""Exact minimum bottleneck matching between a sample and the grid.

The optimum is one of the n^2 pairwise torus distances.  A threshold is
feasible when the pairs within it admit a perfect matching, a maximum
bipartite matching (Hopcroft-Karp) question.  The optimum is at least the
largest row/column minimum of the distance matrix (`lower`), since every row
and every column must be covered.

In d = 1 no probe is needed on normal inputs of more than 16 points (see
_PROBED_CIRCLE_MAX_N for the exception).  The best cyclic shift of
sorted order is optimal on the circle (see _best_shift), and its value lam
is certified by a Hall arc: a run of consecutive sorted samples with fewer
grid points strictly within lam than it has points, so no perfect matching
exists below lam (see _hall_arc).  The arc is read from each sample's
neighbourhood on the distance matrix, its turn of the circle from the
coordinates, and verified by exact counting.  Only if no arc verifies does
the search fall back to one probe just below lam, running the general
search if that probe is feasible.  Avoiding the probe matters beyond its cost:
scipy's Hopcroft-Karp took over 30 s on single d = 1 probes at N = 768 and
over 60 s at N = 1024, even on shuffled columns.

The general search, run in d >= 2 and by the d = 1 fallback, works on one
candidate list: the pairs within a feasible cap, in row-major order, with
their distinct distances sorted once (the threshold graph technique of
Efrat, Itai & Katz, "Geometry helps in bottleneck matching and related
problems", Algorithmica 31, 2001).  A probe at threshold t is the CSR of the
candidates within t, which is the whole threshold graph D <= t because t
never exceeds the cap.  The cap starts at 2 * lower, and the search
gallops up from lower in steps of 64, 128, 256, ... distinct
distances; a gallop that reaches the cap without a perfect matching widens
the cap by half until it admits a new distance (up to the largest distance,
where the graph is complete), so no threshold is probed twice.
It then bisects the bracket below the first perfect matching, after cutting
the candidates to that matching's largest distance.  The search keeps the
best perfect matching found so far: every feasible probe lowers the upper
end to the largest distance of the matching it returns, and the search ends
holding an optimal assignment, so it never probes the optimum a second
time.

Every probe after the first is warm-started, the threshold method of Gabow
& Tarjan ("Algorithms for two bottleneck optimization problems", J.
Algorithms 9, 1988) without augmenting code of our own.  scipy's
Hopcroft-Karp starts from a greedy matching in CSR row order, so each row
whose warm pair is within the threshold lists that pair first, and only the
rows left free are augmented.  The warm matching is the previous probe's
maximum matching while galloping (its pairs stay within every higher
threshold), then the best perfect matching.  The layout affects only the
speed: Hopcroft-Karp returns a maximum matching for any order of the edges,
and m_n, the optimum, is the same; the assignment is one optimal one.
The grid's columns are probed in a fixed shuffled order: in row-major grid
order scipy's Hopcroft-Karp can spend a minute on a probe that takes 0.01 s
shuffled.

Also provides the d-dependent rate envelopes used for empirical rate
regressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .geometry import MetricSpec, PointSet, _check_pairwise_bytes, torus_distance_matrix


@dataclass(frozen=True)
class BottleneckResult:
    """Optimal bottleneck value m_n and a witnessing sample->grid bijection."""

    m_n: float
    assignment: np.ndarray = field(repr=False)


def maximum_bipartite_matching(graph, perm_type):
    """scipy's Hopcroft-Karp on a CSR graph, the one call of every probe.

    scipy.sparse is imported here, on the first probe, so that importing the
    package, Figure 1 and the d = 1 trials that need no probe never load it.
    """
    from scipy.sparse.csgraph import maximum_bipartite_matching as hopcroft_karp

    return hopcroft_karp(graph, perm_type=perm_type)


@dataclass(frozen=True)
class _Candidates:
    """The pairs within a cap in row-major order: flat index row * n + column,
    column and distance."""

    n: int
    flat: np.ndarray
    cols: np.ndarray
    dist: np.ndarray

    @classmethod
    def within(cls, D: np.ndarray, cap: float) -> "_Candidates":
        flat = np.flatnonzero(D <= cap)
        return cls(n=D.shape[0], flat=flat, cols=(flat % D.shape[1]).astype(np.int32), dist=D.ravel()[flat])

    def cut(self, threshold: float) -> "_Candidates":
        """The candidates within threshold."""
        keep = np.flatnonzero(self.dist <= threshold)  # integer indexing outruns a boolean mask
        return _Candidates(n=self.n, flat=self.flat[keep], cols=self.cols[keep], dist=self.dist[keep])

    def matching(self, threshold: float, warm: np.ndarray | None) -> np.ndarray:
        """A maximum row->column matching using only pairs within threshold,
        with -1 for the free rows.

        warm is a matching (-1 for free rows) to start from: in each row whose
        warm pair is within threshold, that pair is swapped to the front of the
        row, where the greedy start of scipy's Hopcroft-Karp takes it.
        """
        from scipy.sparse import csr_matrix  # on the first probe, like scipy's Hopcroft-Karp

        probe = self.cut(threshold)
        flat, cols = probe.flat, probe.cols
        indptr = np.searchsorted(flat, np.arange(self.n + 1) * self.n).astype(np.int32)
        if warm is not None:
            rows = np.flatnonzero(warm >= 0)
            pairs = rows * self.n + warm[rows]
            at = np.minimum(np.searchsorted(flat, pairs), len(flat) - 1)
            kept = flat[at] == pairs
            first, at = indptr[rows[kept]], at[kept]
            cols[first], cols[at] = cols[at], cols[first]
        graph = csr_matrix((np.ones(len(cols), dtype=bool), cols, indptr), shape=(self.n, self.n))
        return maximum_bipartite_matching(graph, perm_type="column")


def _column_order(n: int) -> np.ndarray:
    """The fixed shuffled column order of every probe; see the module docstring."""
    return np.random.default_rng(0).permutation(n)


def _bottleneck_index(values: np.ndarray, D: np.ndarray, assignment: np.ndarray) -> int:
    """Position in the sorted distinct distances of an assignment's largest distance."""
    return int(np.searchsorted(values, D[np.arange(D.shape[0]), assignment].max()))


# The gallop's first step, in distinct candidate distances; each step doubles.
_GALLOP = 64


def _search(D: np.ndarray) -> tuple[float, np.ndarray]:
    """Optimal value and assignment on D by the candidate-list search.

    Gallops up from the lower bound until a perfect matching is found, then
    bisects the bracket below it.
    """
    lower = max(D.min(axis=1).max(), D.min(axis=0).max())
    cap = 2.0 * lower
    candidates = _Candidates.within(D, cap)
    values = np.unique(candidates.dist)
    lo, step, warm = int(np.searchsorted(values, lower)), _GALLOP, None
    while True:
        mid = min(lo + step - 1, len(values) - 1)
        found = candidates.matching(values[mid], warm)
        if np.all(found >= 0):
            break
        lo, step, warm = mid + 1, 2 * step, found
        while lo == len(values):
            # Infeasible at the cap: widen it until it admits a new distance,
            # so no threshold is probed twice.  The new distances all lie
            # above the old ones, so lo keeps its place.  The loop ends by the
            # largest distance, where the graph is complete.
            top = D.max()
            cap = min(1.5 * cap, top) if cap > 0 else top
            candidates = _Candidates.within(D, cap)
            values = np.unique(candidates.dist)
    # Invariant: best is a perfect matching with largest distance values[hi],
    # and no perfect matching lies within values[lo - 1].
    best, hi = found, _bottleneck_index(values, D, found)
    candidates, values = candidates.cut(values[hi]), values[: hi + 1]
    while lo < hi:
        mid = (lo + hi) // 2
        found = candidates.matching(values[mid], best)
        if np.all(found >= 0):
            best, hi = found, _bottleneck_index(values, D, found)
        else:
            lo = mid + 1
    return float(values[hi]), best


def _best_shift(E: np.ndarray) -> int:
    """Best cyclic shift s of sorted order on the circle (d = 1).

    E holds the distances between the sorted sample a_0 <= ... <= a_{n-1}
    and the sorted grid b_0 <= ... <= b_{n-1}.  Shift s matches a_k to
    b_{(k+s) mod n}; its cost, the largest E[k, (k+s) mod n], is read for
    every s at once from a strided view of E with its columns repeated.  The
    first shift of smallest cost is returned.

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
    """
    n = E.shape[0]
    doubled = np.concatenate((E, E), axis=1)
    row, col = doubled.strides
    cost = as_strided(doubled, shape=(n, n), strides=(row + col, col), writeable=False).max(axis=0)
    return int(np.argmin(cost))


def _hall_arc(a: np.ndarray, b: np.ndarray, E: np.ndarray, lam: float) -> tuple[int, int] | None:
    """A run of consecutive sorted samples with fewer grid points strictly
    within lam than it has points, as (first sample, length), or None.

    Such a run violates Hall's condition, so no perfect matching uses only
    distances below lam.  a and b are the sorted sample and grid
    coordinates and E their distance matrix.

    Sample k's neighbourhood {j : E[k, j] < lam} is an arc of the grid
    circle, the lifted index interval [L_k, R_k] (lifted index t is
    b_{t mod n} + floor(t/n)).  Its first column is read from E (for an arc
    through column 0, size columns before the first one outside), and its
    turn is rint(a_k - b_col), since that point lies within lam <= 1/2 of
    a_k; R_k = L_k + size - 1.  Both rise with k and grow by n per turn, so
    the samples i..j (i <= j < i + n) have neighbours only in [L_i, R_j],
    and they are a Hall violator when R_j - L_i + 1 < j - i + 1, i.e.
    R_j - j < L_i - i.  Both sides are periodic in the sample index, so the
    run to try starts at the largest L_i - i and ends at the smallest
    R_j - j, over the samples that miss some grid point (no violator holds
    one that reaches all).  If no perfect matching exists below lam, that
    run is a violator: a violator can be reduced to the samples whose
    neighbourhoods lie in one arc of grid points, and those are consecutive.
    The run is accepted only after its neighbourhood is counted exactly on
    E, so rounding can cost the certificate but never make a false one.
    """
    n = len(a)
    inside = E < lam
    size = np.count_nonzero(inside, axis=1)
    if not size.all():  # a sample with no neighbour is a run of one
        return int(np.argmin(size)), 1
    col = np.where(inside[:, 0], (np.argmin(inside, axis=1) + n - size) % n, np.argmax(inside, axis=1))
    start = col + n * np.rint(a - b[col]).astype(np.int64) - np.arange(n)  # L_k - k
    full = size == n
    first = int(np.argmax(np.where(full, -np.inf, start)))
    last = int(np.argmin(np.where(full, np.inf, start + size - 1)))
    length = (last - first) % n + 1
    stop = first + length
    covered = inside[first:stop].any(axis=0)
    if stop > n:
        covered |= inside[: stop - n].any(axis=0)
    if not np.count_nonzero(covered) < length:
        return None
    return first, length


# Circles of at most this many points are certified by the probe instead of
# a Hall arc.  The arc is faster at every size (30 against 80 us at n = 16),
# so this costs about 50 us per small match.  It keeps d = 1 probes in the
# traced run of perfbench's self-test
# (test_traced_run_attributes_time_to_the_matching_layer, N = 16), which
# counts them; drop it once that test takes its probe spans from d >= 2.
_PROBED_CIRCLE_MAX_N = 16


def _circle_matching(sample: PointSet, grid: PointSet, m: MetricSpec) -> BottleneckResult:
    """The d = 1 route: best cyclic shift, certified by a Hall arc (or, for
    at most _PROBED_CIRCLE_MAX_N points, by one probe)."""
    n = sample.n
    # The sorted distance matrix E and the n x 2n copy of it that _best_shift reads.
    _check_pairwise_bytes(3 * n * n * 8, f"the sorted d = 1 distances of {n} points and their doubled copy")
    sample_order = np.argsort(sample.coords[:, 0], kind="stable")
    grid_order = np.argsort(grid.coords[:, 0], kind="stable")
    a = PointSet(coords=sample.coords[sample_order], kind=sample.kind)
    b = PointSet(coords=grid.coords[grid_order], kind=grid.kind)
    E = torus_distance_matrix(a, b, m)
    best = (np.arange(n) + _best_shift(E)) % n
    lam = float(E[np.arange(n), best].max())
    if n <= _PROBED_CIRCLE_MAX_N or _hall_arc(a.coords[:, 0], b.coords[:, 0], E, lam) is None:
        # One probe just below lam, on shuffled columns; resume if feasible.
        cols = _column_order(n)
        shuffled = E[:, cols]
        below = np.nextafter(lam, -math.inf)
        found = _Candidates.within(shuffled, below).matching(below, None)
        if np.all(found >= 0):
            lam, found = _search(shuffled)
            best = cols[found]
    assignment = np.empty(n, dtype=np.int64)
    assignment[sample_order] = grid_order[best]
    return BottleneckResult(m_n=lam, assignment=assignment)


def bottleneck_matching(sample: PointSet, grid: PointSet, m: MetricSpec) -> BottleneckResult:
    """Exact minimum bottleneck matching distance M_n and an optimal assignment."""
    if sample.n != grid.n:
        raise ValueError(f"sample and grid sizes differ: {sample.n} vs {grid.n}")
    if m.d == 1:
        return _circle_matching(sample, grid, m)
    cols = _column_order(grid.n)
    grid = PointSet(coords=grid.coords[cols], kind=grid.kind)
    m_n, best = _search(torus_distance_matrix(sample, grid, m))
    return BottleneckResult(m_n=m_n, assignment=cols[best])


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
