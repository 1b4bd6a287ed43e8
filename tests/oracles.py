"""Independent brute-force reference routines used only by the tests.

Everything here is deliberately naive (factorial search, double loops,
textbook formulas via the gamma function) so that it cannot share a bug
with the production implementations it checks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from rgg_spectra.bounds import Lemma4Terms, d_power
from rgg_spectra.geometry import MetricSpec, PointSet, average_degree, torus_distance_matrix
from rgg_spectra.graph import AdjacencyMatrix
from rgg_spectra.matching import BottleneckResult
from rgg_spectra.spectra import Esd


def brute_bottleneck(a: PointSet, b: PointSet, m: MetricSpec) -> float:
    """Minimize the maximum matched distance over all n! permutations."""
    D = torus_distance_matrix(a, b, m)
    n = D.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        worst = max(D[i, perm[i]] for i in range(n))
        if worst < best:
            best = worst
    return best


def _full_matching(D: np.ndarray, threshold: float) -> np.ndarray | None:
    """A perfect row->column matching using only D <= threshold, or None."""
    mask = csr_matrix(D <= threshold)
    matched_col = maximum_bipartite_matching(mask, perm_type="column")
    if np.any(matched_col < 0):
        return None
    return matched_col.astype(np.int64)


def bisection_bottleneck(sample: PointSet, grid: PointSet, m: MetricSpec) -> BottleneckResult:
    """Plain bisection over the sorted distinct distances, one probe per step.

    No seed and no tightening: the lowest feasible threshold is probed once
    more at the end for its assignment.  Reaches sizes brute force cannot.
    """
    if sample.n != grid.n:
        raise ValueError(f"sample and grid sizes differ: {sample.n} vs {grid.n}")
    D = torus_distance_matrix(sample, grid, m)
    values = np.unique(D)
    # Every row and every column must be covered, so the optimum is at least
    # the largest of the row/column minima; start the search there.
    lower = max(D.min(axis=1).max(), D.min(axis=0).max())
    lo = int(np.searchsorted(values, lower))
    hi = len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _full_matching(D, values[mid]) is not None:
            hi = mid
        else:
            lo = mid + 1
    assignment = _full_matching(D, values[lo])
    assert assignment is not None  # feasible at the max pairwise distance
    return BottleneckResult(m_n=float(values[lo]), assignment=assignment)


def axis_reduction_distances(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """All-pairs torus l_p distances from the full (n_a, n_b, d) array of
    wrapped deltas, reduced over its last axis by numpy."""
    gap = np.abs(a[:, None, :] - b[None, :, :])
    deltas = np.minimum(gap, 1.0 - gap)
    if p == math.inf:
        return deltas.max(axis=-1)
    if p == 1:
        return deltas.sum(axis=-1)
    if p == 2:
        return np.sqrt((deltas * deltas).sum(axis=-1))
    return (deltas**p).sum(axis=-1) ** (1.0 / p)


def torus_coordinate_delta(a: float, b: float) -> float:
    """Wrapped distance between two coordinates in [0,1): min(|a-b|, 1-|a-b|)."""
    gap = abs(a - b)
    return min(gap, 1.0 - gap)


def build_adjacency_reference(points: PointSet, r: float, m: MetricSpec) -> AdjacencyMatrix:
    """The edge rule distance <= r over all pairs of distinct points, on the
    axis-reduction distance matrix rather than the package's kernel."""
    close = axis_reduction_distances(points.coords, points.coords, m.p) <= r
    np.fill_diagonal(close, False)
    return AdjacencyMatrix(entries=close.astype(np.uint8))


def levy_feasible(f: np.ndarray, g: np.ndarray, eps: float) -> bool:
    """Definition check at eps for sorted atom vectors f and g, atom by atom."""
    nf, ng = len(f), len(g)
    # F(f) - eps <= G(f + eps) at every atom f of F (lower inequality),
    # G(g) - eps <= F(g + eps) at every atom g of G (upper inequality).
    if np.any(np.arange(1, nf + 1) / nf - eps > np.searchsorted(g, f + eps, side="right") / ng):
        return False
    return not np.any(np.arange(1, ng + 1) / ng - eps > np.searchsorted(f, g + eps, side="right") / nf)


def levy_bisection(F: Esd, G: Esd, tol: float = 1e-9) -> float:
    """Levy distance to within tol by bisection over the monotone levy_feasible."""
    f, g = F.eigenvalues, G.eigenvalues
    if levy_feasible(f, g, 0.0):
        return 0.0
    lo = 0.0
    hi = max(f[-1], g[-1]) - min(f[0], g[0]) + 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if levy_feasible(f, g, mid):
            hi = mid
        else:
            lo = mid
    return hi


def brute_cross_edge_count(a_entries: np.ndarray, b_entries: np.ndarray, matching: np.ndarray) -> int:
    """Unordered pairs {i, j} adjacent in A and whose matched images are adjacent in B."""
    n = a_entries.shape[0]
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            if a_entries[i, j] and b_entries[matching[i], matching[j]]:
                count += 1
    return count


def lemma4_matrix_terms(
    A_X: AdjacencyMatrix, A_D: AdjacencyMatrix, matching: np.ndarray, r: float, m: MetricSpec
) -> tuple[Lemma4Terms, float]:
    """The Lemma-4 terms on the matrices, and T1: T0 counts the entries where
    A_X and the aligned A_D differ, T1 is the degree form mean degree of A_X
    + mean degree of A_D - 2 (ordered pairs adjacent in both) / n."""
    n = A_X.n
    if A_D.n != n or not np.array_equal(np.sort(matching), np.arange(n)):
        raise ValueError("need two adjacencies of one order and a permutation of 0..n-1")
    aligned = A_D.entries[np.ix_(matching, matching)]
    t0 = np.count_nonzero(A_X.entries != aligned) / n
    common = np.count_nonzero(A_X.entries & aligned)
    mean_degree = float(A_X.degrees().mean())
    aprime = float(A_D.degrees().mean())
    t1 = mean_degree + aprime - 2.0 * common / n
    a_n = average_degree(n, m.d, r)
    coeff = d_power(m.d, 1.0, m.p) * 2 ** (m.d + 1)
    terms = Lemma4Terms(
        t0=t0, t_degree=coeff * abs(mean_degree - a_n), t_L=coeff * abs(a_n - 2.0 * common / n), t_aprime=aprime
    )
    return terms, t1


def brute_trace_quadratic(a_entries: np.ndarray, b_entries: np.ndarray) -> float:
    """(1/n) trace((A - B)^2) accumulated entrywise in Python floats."""
    n = a_entries.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            diff = float(a_entries[i, j]) - float(b_entries[i, j])
            total += diff * diff
    return total / n


def gamma_ball_volume(d: int) -> float:
    """Unit l_2 ball volume via the gamma function, pi^{d/2} / Gamma(d/2 + 1)."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def splitmix64_reference(state: int, count: int) -> list[int]:
    """First `count` outputs of the standard splitmix64 stream from `state`."""
    outputs = []
    mask = (1 << 64) - 1
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        outputs.append(z ^ (z >> 31))
    return outputs


def random_symmetric_01(n: int, density: float, rng: np.random.Generator) -> np.ndarray:
    """Random symmetric 0/1 matrix with zero diagonal, uint8 entries."""
    upper = rng.random((n, n)) < density
    entries = np.triu(upper, k=1)
    entries = (entries | entries.T).astype(np.uint8)
    return entries


def twin_classes_oracle(A: AdjacencyMatrix) -> tuple[list[int], list[int]]:
    """First vertex and size of each true-twin class, by comparing every
    pair of rows of A + I as Python tuples."""
    closed = [tuple(row) for row in (A.entries + np.eye(A.n, dtype=np.uint8)).tolist()]
    heads, sizes = [], []
    for i, row in enumerate(closed):
        if closed.index(row) == i:
            heads.append(i)
            sizes.append(closed.count(row))
    return heads, sizes


def jacobi_eigenvalues(A, sweep_tol: float = 1e-12, max_sweeps: int = 60) -> np.ndarray:
    """Reference eigensolver: cyclic Jacobi rotations until off-diagonal decay.

    Textbook implementation kept purely as an oracle for sym_eigenvalues;
    O(n^3) per sweep with a large constant, intended for n up to a few
    hundred.  A is an AdjacencyMatrix or a symmetric array; it is copied.
    """
    M = np.array(A.entries if isinstance(A, AdjacencyMatrix) else A, dtype=float)
    n = M.shape[0]
    if n == 1:
        return M[0, :1].copy()
    scale = max(1.0, float(np.abs(M).max()))
    off_part = np.empty_like(M)
    for sweep in range(max_sweeps + 1):
        np.copyto(off_part, M)
        np.fill_diagonal(off_part, 0.0)
        off = float(np.linalg.norm(off_part))
        if off <= sweep_tol * scale * n:
            break
        if sweep == max_sweeps:
            raise ArithmeticError(f"Jacobi iteration did not converge in {max_sweeps} sweeps")
        for p in range(n - 1):
            for q in range(p + 1, n):
                # entries already at roundoff scale rotate by ~0 and stall the
                # sweep; clear them outright instead
                if abs(M[p, q]) <= 1e-300 or abs(M[p, q]) <= 1e-18 * (abs(M[p, p]) + abs(M[q, q])):
                    M[p, q] = M[q, p] = 0.0
                    continue
                # Rotation angle zeroing M[p, q] (Golub & Van Loan sym. Schur).
                tau = (M[q, q] - M[p, p]) / (2.0 * M[p, q])
                if abs(tau) > 1e150:
                    t = 0.5 / tau  # asymptotic root; tau*tau would overflow
                else:
                    t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot = np.array([[c, s], [-s, c]])
                M[[p, q], :] = rot.T @ M[[p, q], :]
                M[:, [p, q]] = M[:, [p, q]] @ rot
    return np.sort(np.diagonal(M))


def binomial_tail_oracle(n: int, prob: float, threshold: float, trials: int, seed: int) -> float:
    """Monte Carlo estimate of P{|X - n*prob| >= threshold}, X ~ Bin(n, prob)."""
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"need prob in [0,1], got {prob}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    draws = rng.binomial(n, prob, size=trials)
    return float(np.mean(np.abs(draws - n * prob) >= threshold))
