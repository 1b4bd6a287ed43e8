"""Eigensolvers and empirical spectral distributions."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import jacobi_eigenvalues, random_symmetric_01, twin_classes_oracle
from rgg_spectra.geometry import INFINITY, MetricSpec, PointSet, grid_points, sample_uniform
from rgg_spectra.graph import AdjacencyMatrix, build_adjacency
from rgg_spectra.levy import levy_distance
from rgg_spectra.spectra import MAX_EIG_ORDER, Esd, esd_eval, sym_eigenvalues


def test_two_by_two_closed_form():
    M = np.array([[1.0, 2.0], [2.0, -1.0]])
    expected = np.array([-np.sqrt(5.0), np.sqrt(5.0)])
    assert np.allclose(jacobi_eigenvalues(M), expected, atol=1e-12)
    # The path on three vertices: -sqrt(2), 0, sqrt(2).
    path = AdjacencyMatrix(entries=np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
    assert np.allclose(sym_eigenvalues(path), [-np.sqrt(2.0), 0.0, np.sqrt(2.0)], atol=1e-12)


def test_jacobi_agrees_with_library_solver():
    rng = np.random.default_rng(17)
    for n in (1, 2, 5, 30):
        A = AdjacencyMatrix(entries=random_symmetric_01(n, 0.4, rng))
        assert np.max(np.abs(jacobi_eigenvalues(A) - sym_eigenvalues(A))) <= 1e-10


def test_jacobi_on_adjacency_matrix():
    pts = sample_uniform(24, 2, 3)
    A = build_adjacency(pts, 0.3, MetricSpec(d=2, p=2))
    assert np.max(np.abs(jacobi_eigenvalues(A) - sym_eigenvalues(A))) <= 1e-10


def _duplicated_points() -> PointSet:
    base = sample_uniform(30, 1, 5).coords
    return PointSet(coords=np.concatenate([base, base[:10], base[:4]]), kind="sample")


# Graphs for the twin-class reduction: (points, r, metric).  The lattices at
# off-tie radii and the edgeless graph have no twins; r >= 1/2 gives K_n.
GRAPHS = {
    "lattice-d1": (grid_points(40, 1), 0.1125, MetricSpec(d=1, p=INFINITY)),
    "lattice-d2": (grid_points(8, 2), 0.3125, MetricSpec(d=2, p=2)),
    "complete": (sample_uniform(25, 2, 1), 0.5, MetricSpec(d=2, p=INFINITY)),
    "edgeless": (sample_uniform(25, 1, 2), 1e-6, MetricSpec(d=1, p=INFINITY)),
    "duplicated": (_duplicated_points(), 0.1, MetricSpec(d=1, p=1)),
    "n1": (sample_uniform(1, 1, 3), 0.2, MetricSpec(d=1, p=INFINITY)),
    "random-d1": (sample_uniform(400, 1, 4), 0.03, MetricSpec(d=1, p=INFINITY)),
    "random-d2": (sample_uniform(400, 2, 6), 0.12, MetricSpec(d=2, p=2)),
}


def _adjacency(name: str) -> AdjacencyMatrix:
    points, r, metric = GRAPHS[name]
    return build_adjacency(points, r, metric)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_twin_quotient_matches_the_dense_solver(name):
    A = _adjacency(name)
    heads, sizes = A.twin_classes
    assert (heads.tolist(), sizes.tolist()) == twin_classes_oracle(A)
    assert A.twin_classes[0] is heads and not (heads.flags.writeable or sizes.flags.writeable)  # kept, read-only
    values = sym_eigenvalues(A)
    assert values.shape == (A.n,)
    assert np.all(np.diff(values) >= 0)
    assert np.max(np.abs(values - np.linalg.eigvalsh(A.entries.astype(float)))) <= 1e-10
    # Trace identities: sum = tr A = 0 and sum of squares = tr A^2 = degree sum.
    degree_sum = float(A.degrees().sum())
    assert abs(values.sum()) <= 1e-12 * max(degree_sum, 1.0)
    assert abs(values @ values - degree_sum) <= 1e-12 * max(degree_sum, 1.0)
    # Every vertex beyond its class's first contributes an exact -1.
    assert np.count_nonzero(values == -1.0) >= A.n - heads.size


@pytest.mark.parametrize("name", ["lattice-d1", "lattice-d2", "edgeless", "n1"])
def test_twin_free_spectrum_is_bit_identical(name):
    A = _adjacency(name)
    heads, sizes = A.twin_classes
    assert np.array_equal(heads, np.arange(A.n)) and np.all(sizes == 1)
    assert np.array_equal(sym_eigenvalues(A), np.linalg.eigvalsh(A.entries.astype(float)))


def test_complete_graph_is_one_class():
    A = _adjacency("complete")
    heads, sizes = A.twin_classes
    assert heads.tolist() == [0] and sizes.tolist() == [A.n]
    expected = np.array([-1.0] * (A.n - 1) + [A.n - 1.0])
    assert np.array_equal(sym_eigenvalues(A), expected)


def test_twin_quotient_agrees_with_jacobi():
    A = _adjacency("duplicated")
    assert A.twin_classes[0].size < A.n
    assert np.max(np.abs(jacobi_eigenvalues(A) - sym_eigenvalues(A))) <= 1e-10


def test_order_ceiling_enforced(monkeypatch):
    def refuse(A):
        raise AssertionError("twin classes were searched before the order was checked")

    monkeypatch.setattr(AdjacencyMatrix, "twin_classes", property(refuse))
    too_big = AdjacencyMatrix(entries=np.zeros((MAX_EIG_ORDER + 1, MAX_EIG_ORDER + 1), dtype=np.uint8))
    with pytest.raises(ValueError, match="ceiling"):
        sym_eigenvalues(too_big)


def test_symmetry_required():
    M = np.array([[0, 1], [0, 0]])
    with pytest.raises(ValueError, match="symmetric"):
        AdjacencyMatrix(entries=M)


@pytest.mark.parametrize(
    "matrix",
    [np.array([[1.0, 2.0], [2.0, -1.0]]), np.zeros((2, 2), dtype=np.uint8), [[0, 1], [1, 0]]],
    ids=["float", "uint8", "list"],
)
def test_only_adjacency_matrices_are_eigensolved(matrix):
    with pytest.raises(TypeError, match="needs an AdjacencyMatrix"):
        sym_eigenvalues(matrix)


def test_esd_sorts_and_validates():
    values = np.array([2.0, -1.0, 0.5])
    esd = Esd(values)
    assert np.array_equal(esd.eigenvalues, np.array([-1.0, 0.5, 2.0]))
    assert esd.n == 3
    assert not esd.eigenvalues.flags.writeable and values.flags.writeable  # a frozen copy
    assert Esd(values[:, None]) == esd  # a one-column table is flattened
    assert (Esd([1.0]) == [1.0]) is False  # no equality with a non-Esd


def test_an_unsorted_or_invalid_esd_cannot_be_built():
    """Esd sorts its input, so an unsorted vector gives the answers of its
    sorted copy, and it refuses an empty or non-finite one."""
    F = Esd([3, 1, 2])
    assert np.all(np.diff(F.eigenvalues) > 0)
    assert esd_eval(F, 2.5) == 2 / 3
    assert levy_distance(F, Esd([1, 2, 3])) == 0
    with pytest.raises(ValueError, match="at least one eigenvalue"):
        Esd([])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="must be finite"):
            Esd([bad, 1])


def test_esd_eval_right_continuous_step():
    esd = Esd(np.array([1.0, 2.0, 2.0, 5.0]))
    assert esd_eval(esd, 0.9) == 0.0
    assert esd_eval(esd, 1.0) == 0.25
    assert esd_eval(esd, 1.5) == 0.25
    assert esd_eval(esd, 2.0) == 0.75
    assert esd_eval(esd, 4.999) == 0.75
    assert esd_eval(esd, 5.0) == 1.0
    assert esd_eval(esd, 100.0) == 1.0


def test_esd_eval_on_an_array_is_pointwise():
    esd = Esd(np.random.default_rng(19).integers(-3, 4, size=50).astype(float))
    x = np.concatenate([np.unique(esd.eigenvalues), np.linspace(-4.0, 4.0, 33)])
    values = esd_eval(esd, x)
    assert values.shape == x.shape
    assert values.tolist() == [esd_eval(esd, float(point)) for point in x]
