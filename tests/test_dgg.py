"""Lattice graph: offset band, gate, degree, closed-form and DFT spectra."""

from __future__ import annotations

import numpy as np
import pytest

from rgg_spectra.dgg import dgg_degree, dgg_eigenvalues_closed_form, dgg_eigenvalues_dft, dgg_reach
from rgg_spectra.geometry import INFINITY, MetricSpec, grid_points
from rgg_spectra.graph import build_adjacency
from rgg_spectra.harness import lattice_graph
from rgg_spectra.spectra import sym_eigenvalues

METRICS = (1, 2, 3.5, INFINITY)
SIDES = {1: (3, 4, 7, 8, 12), 2: (3, 4, 6, 7), 3: (3, 4, 5)}


def test_reach_and_degree():
    assert dgg_reach(10, 1, 0.25) == 2
    assert dgg_degree(10, 1, 0.25) == 4
    assert dgg_reach(8, 2, 0.2) == 1
    assert dgg_degree(8, 2, 0.2) == 8
    assert dgg_degree(7, 3, 0.5) == 7**3 - 1  # k = 3


def test_gate_refuses_a_wrapping_cube():
    for function in (dgg_reach, dgg_degree, dgg_eigenvalues_closed_form):
        with pytest.raises(ValueError, match=r"2k\+1 = 7 exceeds N = 5"):
            function(5, 1, 0.7)  # k = 3, 2k+1 = 7 > 5
        for N, d, r in ((0, 1, 0.3), (5, 0, 0.3), (5, 1, 0.0), (5, 1, float("nan"))):
            with pytest.raises(ValueError, match="need N >= 1, d >= 1, r > 0"):
                function(N, d, r)
    # boundary case 2k+1 == N is allowed
    assert dgg_reach(5, 1, 0.45) == 2  # k = 2, 2k+1 = 5
    assert dgg_eigenvalues_closed_form(5, 1, 0.45).shape == (5,)


def test_closed_form_known_cycle_values():
    # N=4, k=1 ring: adjacency eigenvalues {-2, 0, 0, 2}
    values = dgg_eigenvalues_closed_form(4, 1, 0.25)
    assert np.allclose(values, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_closed_form_sum_rules():
    # trace(A) = 0 and trace(A^2) = n * degree for any regular graph
    for N, d, r in ((7, 1, 0.3), (6, 2, 0.25), (5, 3, 0.21)):
        values = dgg_eigenvalues_closed_form(N, d, r)
        assert values.shape == (N**d,)
        assert np.all(np.diff(values) >= 0)
        assert abs(values.sum()) < 1e-8
        assert np.sum(values**2) == pytest.approx(N**d * dgg_degree(N, d, r), rel=1e-12)


def test_zero_reach_gives_empty_graph():
    values = dgg_eigenvalues_closed_form(6, 2, 0.05)  # k = 0
    assert np.allclose(values, 0.0, atol=1e-14)


def test_dft_matches_closed_form():
    for N, d, r in ((5, 1, 0.3), (8, 2, 0.2), (7, 2, 0.45), (4, 3, 0.3)):
        closed = dgg_eigenvalues_closed_form(N, d, r)
        dft = dgg_eigenvalues_dft(N, d, INFINITY, r)
        assert np.max(np.abs(closed - dft)) <= 1e-9


def test_closed_form_matches_explicit_eigensolver():
    for N, d, r in ((9, 1, 0.3), (6, 2, 0.25), (4, 3, 0.3)):
        closed = dgg_eigenvalues_closed_form(N, d, r)
        grid = grid_points(N, d)
        A = build_adjacency(grid, r, MetricSpec(d=d, p=INFINITY))
        explicit = sym_eigenvalues(A)
        assert np.max(np.abs(closed - explicit)) <= 1e-8


def _tie_radii(N):
    """Each tie radius k/N and its two double neighbours, with the l_inf reach there."""
    for k in range(1, N // 2 + 1):
        yield np.nextafter(k / N, 0.0), k - 1
        yield k / N, k
        yield np.nextafter(k / N, 1.0), k


def _translation_invariant(A, N, d):
    index = np.arange(N**d).reshape((N,) * d)
    for axis in range(d):
        shift = np.roll(index, 1, axis=axis).ravel()
        if not np.array_equal(A[shift][:, shift], A):
            return False
    return True


@pytest.mark.parametrize("p", METRICS, ids=str)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_lattice_at_tie_radii_is_a_regular_circulant_with_the_band_spectrum(d, p):
    for N in SIDES[d]:
        for r, reach in _tie_radii(N):
            A = lattice_graph(N, d, p, r)[1].entries
            assert np.array_equal(A, A.T)
            degrees = A.sum(axis=1, dtype=np.int64)
            assert np.all(degrees == degrees[0]), (N, r)
            assert _translation_invariant(A, N, d), (N, r)
            dft = dgg_eigenvalues_dft(N, d, p, r)
            assert np.max(np.abs(dft - np.linalg.eigvalsh(A.astype(float)))) <= 1e-8
            if p == INFINITY and 2 * reach + 1 <= N:
                assert dgg_reach(N, d, r) == reach and dgg_degree(N, d, r) == degrees[0]
                assert np.max(np.abs(dft - dgg_eigenvalues_closed_form(N, d, r))) <= 1e-8


@pytest.mark.parametrize("p", METRICS, ids=str)
def test_lattice_off_ties_is_the_grid_adjacency(p):
    rng = np.random.default_rng(17)
    for d, sides in SIDES.items():
        for N in sides:
            radii = [(k + 0.5) / N for k in range(N // 2 + 1)] + list(rng.uniform(0.01, 0.5 * d, 4))
            for r in radii:
                expected = build_adjacency(grid_points(N, d), r, MetricSpec(d=d, p=p)).entries
                assert np.array_equal(lattice_graph(N, d, p, r)[1].entries, expected), (d, N, r)
