"""Exact Levy distance, its grid-scan oracle, and the trace bound."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import brute_trace_quadratic, levy_bisection, levy_feasible, random_symmetric_01
from rgg_spectra.graph import AdjacencyMatrix
from rgg_spectra.levy import levy_distance, levy_distance_oracle, trace_bound
from rgg_spectra.spectra import Esd, sym_eigenvalues


def test_identical_distributions_have_distance_zero():
    f = Esd([0.0, 1.0, 2.5])
    assert levy_distance(f, f) == 0.0


def test_point_masses_hand_value():
    # levy(delta_a, delta_b) = min(|b - a|, 1)
    assert levy_distance(Esd([0.0]), Esd([0.3])) == pytest.approx(0.3, abs=1e-9)
    assert levy_distance(Esd([0.0]), Esd([5.0])) == pytest.approx(1.0, abs=1e-9)


def test_mixture_hand_value():
    # F = (delta_0 + delta_1)/2 versus G = delta_0: distance 1/2
    f = Esd([0.0, 1.0])
    g = Esd([0.0, 0.0])
    assert levy_distance(f, g) == pytest.approx(0.5, abs=1e-9)


def test_symmetry_and_shift_invariance():
    rng = np.random.default_rng(23)
    for _ in range(10):
        f = Esd(rng.normal(size=rng.integers(1, 12)))
        g = Esd(rng.normal(size=rng.integers(1, 12)))
        d_fg = levy_distance(f, g)
        d_gf = levy_distance(g, f)
        assert d_fg == pytest.approx(d_gf, abs=1e-12)
        shift = 3.7
        fs = Esd(f.eigenvalues + shift)
        gs = Esd(g.eigenvalues + shift)
        assert levy_distance(fs, gs) == pytest.approx(d_fg, abs=1e-9)


def test_exact_matches_oracle_on_random_atom_pairs():
    rng = np.random.default_rng(31)
    step = 1e-3
    for _ in range(10):
        f = Esd(rng.uniform(-2, 2, size=rng.integers(1, 21)))
        g = Esd(rng.uniform(-2, 2, size=rng.integers(1, 21)))
        exact = levy_distance(f, g)
        grid = levy_distance_oracle(f, g, step)
        assert abs(exact - grid) <= 2e-3
    for bad in (0.0, -1e-3):
        with pytest.raises(ValueError, match="grid_step must be positive"):
            levy_distance_oracle(f, g, bad)


def _atoms(rng, size):
    """Random atoms with repeats: rounded uniforms or draws from a small pool."""
    if rng.random() < 0.5:
        return np.round(rng.uniform(-2, 2, size=size), int(rng.integers(0, 3)))
    return rng.choice(rng.uniform(-2, 2, size=6), size=size)


def test_one_pass_agrees_with_bisection_and_is_tight():
    rng = np.random.default_rng(53)
    for _ in range(500):
        f = Esd(_atoms(rng, int(rng.integers(1, 30))))
        g = Esd(_atoms(rng, int(rng.integers(1, 30))))
        distance = levy_distance(f, g)
        assert abs(distance - levy_bisection(f, g)) <= 1e-9
        assert levy_feasible(f.eigenvalues, g.eigenvalues, distance + 1e-12)
        if distance > 0:
            assert not levy_feasible(f.eigenvalues, g.eigenvalues, distance - 1e-9)


def test_trace_bound_matches_brute_force():
    rng = np.random.default_rng(37)
    for n in (5, 17, 40):
        a = AdjacencyMatrix(entries=random_symmetric_01(n, 0.4, rng))
        b = AdjacencyMatrix(entries=random_symmetric_01(n, 0.4, rng))
        assert trace_bound(a, b) == pytest.approx(brute_trace_quadratic(a.entries, b.entries), rel=1e-12)
        # Raw 0/1 uint8 arrays, as the trial runner passes them: exact.
        assert trace_bound(a.entries, b.entries) == brute_trace_quadratic(a.entries, b.entries)


@pytest.mark.parametrize(
    "a, b, message",
    [
        (np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2)), "0/1"),
        (np.eye(2, dtype=bool), np.zeros((2, 2), dtype=bool), "0/1"),
        (np.array([[0, 1], [1, 0]], dtype=np.uint8), np.zeros((2, 2), dtype=np.int64), "0/1"),
        (np.array([[0, 2], [2, 0]], dtype=np.uint8), np.zeros((2, 2), dtype=np.uint8), "0/1"),
        (np.zeros((2, 2), dtype=np.uint8), np.zeros((3, 3), dtype=np.uint8), "orders differ"),
    ],
    ids=["float", "bool", "mixed-dtypes", "entry-2", "orders-differ"],
)
def test_trace_bound_refuses_anything_but_0_1_entries(a, b, message):
    with pytest.raises(ValueError, match=message):
        trace_bound(a, b)


def test_trace_bound_unsigned_entry_regression():
    # entries are uint8; a naive A - B would wrap where B has the only edge
    a = np.zeros((4, 4), dtype=np.uint8)
    b = np.zeros((4, 4), dtype=np.uint8)
    a[0, 1] = a[1, 0] = 1
    b[2, 3] = b[3, 2] = 1
    value = trace_bound(AdjacencyMatrix(entries=a), AdjacencyMatrix(entries=b))
    assert value == pytest.approx(1.0, abs=1e-15)


def test_trace_dominates_levy_cubed_on_random_pairs():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(2, 51))
        a = AdjacencyMatrix(entries=random_symmetric_01(n, float(rng.uniform(0.1, 0.9)), rng))
        b = AdjacencyMatrix(entries=random_symmetric_01(n, float(rng.uniform(0.1, 0.9)), rng))
        f = Esd(sym_eigenvalues(a))
        g = Esd(sym_eigenvalues(b))
        levy = levy_distance(f, g)
        assert levy**3 <= trace_bound(a, b) + 1e-9
