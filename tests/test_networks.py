"""Tests for the chain and graph network constructors."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvdistill import (
    ChainSpec,
    GraphSpec,
    IndexOutOfRange,
    InvalidAdjacency,
    build_chain,
    build_graph,
    grid_adjacency,
    purity,
    renyi2_entanglement_pure,
)


def test_chain_without_squeezing_or_displacement_is_vacuum():
    st = build_chain(ChainSpec(m=2, r=0.0, alpha_g=0.0))
    assert_allclose(st.cov, np.eye(4))
    assert_allclose(st.mean, np.zeros(4))


def test_chain_default_g_is_middle():
    assert ChainSpec(m=10, r=1.0).resolved_g == 4
    assert ChainSpec(m=3, r=1.0).resolved_g == 1
    assert ChainSpec(m=2, r=1.0).resolved_g == 0


def test_chain_reference_configuration():
    # ten modes, unit gate squeezing, half-photon displacement on the middle mode
    spec = ChainSpec(m=10, r=1.0, alpha_g=0.5)
    st = build_chain(spec)
    assert st.cov.shape == (20, 20)
    assert abs(np.linalg.det(st.cov) - 1.0) < 1e-8
    assert_allclose(st.mean[4], 1.0)  # x shift of mode 4 is 2 Re alpha
    assert np.abs(np.delete(st.mean, 4)).max() == 0.0


def test_chain_mean_uses_ladder_convention():
    st = build_chain(ChainSpec(m=2, r=0.0, g=1, alpha_g=0.25 + 0.5j))
    assert_allclose(st.mean, [0.0, 0.5, 0.0, 1.0])


def test_chain_near_vacuum_has_negligible_entanglement():
    st = build_chain(ChainSpec(m=3, r=0.01, alpha_g=0.0))
    for part in ((0,), (1,), (2,), (0, 1), (0, 2)):
        assert renyi2_entanglement_pure(st, part) <= 1e-3


def test_chain_validation():
    with pytest.raises(ValueError):
        ChainSpec(m=1, r=1.0)
    with pytest.raises(IndexOutOfRange):
        build_chain(ChainSpec(m=3, r=1.0, g=3))


def test_graph_empty_adjacency_no_squeezing_is_vacuum():
    st = build_graph(GraphSpec(adjacency=np.zeros((3, 3)), squeezing_db=0.0, alpha_g=0.0))
    assert_allclose(st.cov, np.eye(6), atol=1e-12)


def test_graph_matches_cz_conjugation_of_squeezed_input():
    # covariance equals C^T V0 C with C = [[I, A], [0, I]] acting on x' = x, p' = p + A x
    adj = np.array([[0.0, 1.0], [1.0, 0.0]])
    db = 10.0
    st = build_graph(GraphSpec(adjacency=adj, squeezing_db=db, alpha_g=0.0))
    s = 10.0 ** (db / 10.0)
    v0 = np.diag([s, s, 1.0 / s, 1.0 / s])
    c_mat = np.block([[np.eye(2), adj], [np.zeros((2, 2)), np.eye(2)]])
    assert_allclose(st.cov, c_mat.T @ v0 @ c_mat, atol=1e-9)
    # x marginals keep the antisqueezed input variance
    assert_allclose(st.cov[:2, :2], v0[:2, :2], atol=1e-9)


def test_graph_reference_configuration():
    spec = GraphSpec(adjacency=grid_adjacency(3, 3), squeezing_db=10.0, alpha_g=0.5)
    st = build_graph(spec)
    assert st.m == 9
    assert abs(np.linalg.det(st.cov) - 1.0) < 1e-8
    assert purity(st) == 1.0
    assert spec.resolved_g == 1
    assert_allclose(st.mean[1], 1.0)  # displacement lands on mode g


def test_graph_nullifier_variances():
    adj = grid_adjacency(3, 3)
    db = 10.0
    st = build_graph(GraphSpec(adjacency=adj, squeezing_db=db, alpha_g=0.5))
    m = 9
    squeezed = 10.0 ** (-db / 10.0)
    for i in range(m):
        coeff = np.concatenate([-adj[i], np.eye(m)[i]])  # p_i - sum_j A_ij x_j
        variance = coeff @ st.cov @ coeff
        assert abs(variance - squeezed) < 1e-9


def test_graph_purity_for_grid():
    st = build_graph(GraphSpec(adjacency=grid_adjacency(2, 2), squeezing_db=6.0))
    assert abs(np.linalg.det(st.cov) - 1.0) < 1e-8


def test_graph_adjacency_validation():
    with pytest.raises(InvalidAdjacency):
        GraphSpec(adjacency=np.ones((2, 3)), squeezing_db=3.0)
    with pytest.raises(InvalidAdjacency):
        GraphSpec(adjacency=np.array([[0.0, 1.0], [0.5, 0.0]]), squeezing_db=3.0)
    with pytest.raises(InvalidAdjacency):
        GraphSpec(adjacency=np.eye(2), squeezing_db=3.0)


def test_graph_adjacency_symmetry_bound_is_absolute():
    # ADJACENCY_TOL is the whole bound: no relative slack on a unit weight
    with pytest.raises(InvalidAdjacency):
        GraphSpec(adjacency=[[0.0, 1.0], [1.000009, 0.0]], squeezing_db=3.0)
    GraphSpec(adjacency=[[0.0, 1.0], [1.0 + 1e-13, 0.0]], squeezing_db=3.0)


def test_grid_adjacency_line():
    assert_allclose(grid_adjacency(1, 2), [[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("rows,cols,edges", [(3, 3, 12), (2, 2, 4), (1, 4, 3)])
def test_grid_adjacency_edge_counts(rows, cols, edges):
    adj = grid_adjacency(rows, cols)
    assert adj.shape == (rows * cols, rows * cols)
    assert int(adj.sum()) == 2 * edges
    assert int(adj.sum()) == 2 * (2 * rows * cols - rows - cols)


def test_builders_converge_to_displaced_vacuum():
    # CZ gates entangle even vacuum inputs, so the graph case needs an empty
    # edge set for the zero-squeezing limit to be a displaced vacuum
    chain = build_chain(ChainSpec(m=4, r=0.0, alpha_g=0.5))
    graph = build_graph(GraphSpec(adjacency=np.zeros((4, 4)), squeezing_db=0.0, alpha_g=0.5))
    for st, g in ((chain, 1), (graph, 1)):
        assert_allclose(st.cov, np.eye(2 * st.m), atol=1e-12)
        expected_mean = np.zeros(2 * st.m)
        expected_mean[g] = 1.0
        assert_allclose(st.mean, expected_mean)
