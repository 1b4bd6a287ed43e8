"""Lattice graph: offset band, gate, degree, closed-form and DFT spectra."""

from __future__ import annotations

import numpy as np
import pytest

from rgg_spectra.dgg import (
    ANALYTIC_RANGE_EXCEEDED,
    AnalyticRangeError,
    dgg_degree,
    dgg_eigenvalues_closed_form,
    dgg_eigenvalues_dft,
    dgg_spec,
)
from rgg_spectra.geometry import INFINITY, MetricSpec, grid_points
from rgg_spectra.graph import build_adjacency
from rgg_spectra.harness import lattice_graph
from rgg_spectra.spectra import sym_eigenvalues

METRICS = (1, 2, 3.5, INFINITY)
SIDES = {1: (3, 4, 7, 8, 12), 2: (3, 4, 6, 7), 3: (3, 4, 5)}


def test_spec_reach_and_degree():
    spec = dgg_spec(10, 1, 0.25)
    assert spec.k == 2
    assert spec.degree == 4
    spec = dgg_spec(8, 2, 0.2)
    assert spec.k == 1
    assert spec.degree == 8
    assert dgg_degree(7, 3, 0.5) == 7**3 - 1  # k = 3


def test_gate_raises_with_code():
    with pytest.raises(AnalyticRangeError) as excinfo:
        dgg_spec(5, 1, 0.7)  # k = 3, 2k+1 = 7 > 5
    assert excinfo.value.code == ANALYTIC_RANGE_EXCEEDED
    # boundary case 2k+1 == N is allowed
    spec = dgg_spec(5, 1, 0.45)  # k = 2, 2k+1 = 5
    assert spec.k == 2


def test_closed_form_known_cycle_values():
    # N=4, k=1 ring: adjacency eigenvalues {-2, 0, 0, 2}
    values = dgg_eigenvalues_closed_form(dgg_spec(4, 1, 0.25))
    assert np.allclose(values, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_closed_form_sum_rules():
    # trace(A) = 0 and trace(A^2) = n * degree for any regular graph
    for N, d, r in ((7, 1, 0.3), (6, 2, 0.25), (5, 3, 0.21)):
        spec = dgg_spec(N, d, r)
        values = dgg_eigenvalues_closed_form(spec)
        assert values.shape == (N**d,)
        assert np.all(np.diff(values) >= 0)
        assert abs(values.sum()) < 1e-8
        assert np.sum(values**2) == pytest.approx(N**d * spec.degree, rel=1e-12)


def test_zero_reach_gives_empty_graph():
    values = dgg_eigenvalues_closed_form(dgg_spec(6, 2, 0.05))  # k = 0
    assert np.allclose(values, 0.0, atol=1e-14)


def test_dft_matches_closed_form():
    for N, d, r in ((5, 1, 0.3), (8, 2, 0.2), (7, 2, 0.45), (4, 3, 0.3)):
        spec = dgg_spec(N, d, r)
        closed = dgg_eigenvalues_closed_form(spec)
        dft = dgg_eigenvalues_dft(N, d, INFINITY, r)
        assert np.max(np.abs(closed - dft)) <= 1e-9


def test_closed_form_matches_explicit_eigensolver():
    for N, d, r in ((9, 1, 0.3), (6, 2, 0.25), (4, 3, 0.3)):
        spec = dgg_spec(N, d, r)
        closed = dgg_eigenvalues_closed_form(spec)
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
                spec = dgg_spec(N, d, r)
                assert spec.k == reach and spec.degree == degrees[0]
                assert np.max(np.abs(dft - dgg_eigenvalues_closed_form(spec))) <= 1e-8


@pytest.mark.parametrize("p", METRICS, ids=str)
def test_lattice_off_ties_is_the_grid_adjacency(p):
    rng = np.random.default_rng(17)
    for d, sides in SIDES.items():
        for N in sides:
            radii = [(k + 0.5) / N for k in range(N // 2 + 1)] + list(rng.uniform(0.01, 0.5 * d, 4))
            for r in radii:
                expected = build_adjacency(grid_points(N, d), r, MetricSpec(d=d, p=p)).entries
                assert np.array_equal(lattice_graph(N, d, p, r)[1].entries, expected), (d, N, r)
