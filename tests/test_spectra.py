"""Eigensolvers and empirical spectral distributions."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import jacobi_eigenvalues
from rgg_spectra.geometry import MetricSpec, sample_uniform
from rgg_spectra.graph import build_adjacency
from rgg_spectra.spectra import (
    MAX_EIG_ORDER,
    esd_eval,
    esd_from_eigenvalues,
    sym_eigenvalues,
)


def test_two_by_two_closed_form():
    M = np.array([[1.0, 2.0], [2.0, -1.0]])
    expected = np.array([-np.sqrt(5.0), np.sqrt(5.0)])
    assert np.allclose(sym_eigenvalues(M), expected, atol=1e-12)
    assert np.allclose(jacobi_eigenvalues(M), expected, atol=1e-12)


def test_jacobi_agrees_with_library_solver():
    rng = np.random.default_rng(17)
    for n in (1, 2, 5, 30):
        base = rng.standard_normal((n, n))
        M = (base + base.T) / 2.0
        assert np.max(np.abs(jacobi_eigenvalues(M) - sym_eigenvalues(M))) <= 1e-10


def test_jacobi_on_adjacency_matrix():
    pts = sample_uniform(24, 2, 3)
    A = build_adjacency(pts, 0.3, MetricSpec(d=2, p=2))
    assert np.max(np.abs(jacobi_eigenvalues(A) - sym_eigenvalues(A))) <= 1e-10


def test_order_ceiling_enforced():
    with pytest.raises(ValueError):
        sym_eigenvalues(np.zeros((MAX_EIG_ORDER + 1, MAX_EIG_ORDER + 1)))


def test_symmetry_required():
    M = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError):
        sym_eigenvalues(M)


def test_esd_sorts_and_validates():
    esd = esd_from_eigenvalues(np.array([2.0, -1.0, 0.5]))
    assert np.array_equal(esd.eigenvalues, np.array([-1.0, 0.5, 2.0]))
    assert esd.n == 3
    with pytest.raises(ValueError):
        esd_from_eigenvalues(np.array([]))
    with pytest.raises(ValueError):
        esd_from_eigenvalues(np.array([1.0, np.nan]))


def test_esd_eval_right_continuous_step():
    esd = esd_from_eigenvalues(np.array([1.0, 2.0, 2.0, 5.0]))
    assert esd_eval(esd, 0.9) == 0.0
    assert esd_eval(esd, 1.0) == 0.25
    assert esd_eval(esd, 1.5) == 0.25
    assert esd_eval(esd, 2.0) == 0.75
    assert esd_eval(esd, 4.999) == 0.75
    assert esd_eval(esd, 5.0) == 1.0
    assert esd_eval(esd, 100.0) == 1.0
