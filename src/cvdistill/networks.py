"""Constructors for the two worked multimode networks: a linear chain of
two-mode squeezers and a CZ graph (cluster) state, plus adjacency helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ADJACENCY_TOL, IndexOutOfRange, InvalidAdjacency
from .states import GaussianState, apply_circuit, vacuum
from .symplectic import CircuitElement, cz, displacement, single_mode_squeezer, two_mode_squeezer


@dataclass(frozen=True)
class ChainSpec:
    """A linear chain of two-mode squeezers on ``m`` vacuum modes.

    Gate ``i`` squeezes modes ``(i, i+1)`` with parameter ``r``; gates are
    applied in index order. Mode ``g`` (default: the 0-based middle mode)
    finally receives a displacement of ladder amplitude ``alpha_g``.
    """

    m: int
    r: float
    g: int | None = None
    alpha_g: complex = 0j

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("a chain needs at least two modes")
        object.__setattr__(self, "alpha_g", complex(self.alpha_g))

    @property
    def resolved_g(self) -> int:
        return (self.m + 1) // 2 - 1 if self.g is None else self.g


@dataclass(frozen=True)
class GraphSpec:
    """A CZ graph state: squeezed vacua entangled along the edges of a graph.

    ``adjacency`` is the real symmetric edge-weight matrix with zero
    diagonal. Each mode starts as a vacuum squeezed by ``squeezing_db``
    decibels (squeezed quadrature variance ``10 ** (-db / 10)`` in the p
    direction, x antisqueezed); every edge then applies a CZ gate with the
    edge weight; mode ``g`` finally receives a displacement ``alpha_g``.
    The default ``g`` is mode 1, the corner-adjacent mode of a row-major
    grid.
    """

    adjacency: np.ndarray
    squeezing_db: float
    g: int | None = None
    alpha_g: complex = 0j

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=float)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise InvalidAdjacency("adjacency matrix must be square")
        if not np.allclose(adj, adj.T, rtol=0.0, atol=ADJACENCY_TOL):
            raise InvalidAdjacency("adjacency matrix must be symmetric")
        if np.abs(np.diag(adj)).max(initial=0.0) > 0:
            raise InvalidAdjacency("adjacency matrix must have a zero diagonal")
        if self.squeezing_db < 0:
            raise ValueError("squeezing_db must be nonnegative")
        adj = adj.copy()
        adj.flags.writeable = False
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "alpha_g", complex(self.alpha_g))

    @property
    def m(self) -> int:
        return self.adjacency.shape[0]

    @property
    def resolved_g(self) -> int:
        if self.g is not None:
            return self.g
        return 1 if self.m > 1 else 0


def chain_elements(spec: ChainSpec) -> list[CircuitElement]:
    """Circuit realising a :class:`ChainSpec` in temporal order: the squeezers, then ``displacement(g, alpha_g)``."""
    g = spec.resolved_g
    if not 0 <= g < spec.m:
        raise IndexOutOfRange(f"mode {g} outside [0, {spec.m})")
    elems = [two_mode_squeezer(i, i + 1, spec.r) for i in range(spec.m - 1)]
    elems.append(displacement(g, spec.alpha_g))
    return elems


def build_chain(spec: ChainSpec) -> GaussianState:
    """Build the chain network state; pure by construction (det V = 1)."""
    return apply_circuit(vacuum(spec.m), chain_elements(spec))


def graph_elements(spec: GraphSpec) -> list[CircuitElement]:
    """Circuit realising a :class:`GraphSpec`, in temporal order."""
    m = spec.m
    g = spec.resolved_g
    if not 0 <= g < m:
        raise IndexOutOfRange(f"mode {g} outside [0, {m})")
    # variance ratio 10^(db/10) means a log-squeezing of db * ln(10) / 20
    r_s = spec.squeezing_db * math.log(10.0) / 20.0
    elems = [single_mode_squeezer(i, r_s) for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if spec.adjacency[i, j] != 0.0:
                elems.append(cz(i, j, spec.adjacency[i, j]))
    elems.append(displacement(g, spec.alpha_g))
    return elems


def build_graph(spec: GraphSpec) -> GaussianState:
    """Build the graph state; its covariance equals ``C^T V_0 C`` for the CZ map C."""
    return apply_circuit(vacuum(spec.m), graph_elements(spec))


def grid_adjacency(rows: int, cols: int) -> np.ndarray:
    """Unit-weight nearest-neighbour (4-connectivity) adjacency of a rows x cols grid.

    Modes are numbered row-major; the edge count is ``2*rows*cols - rows - cols``.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be at least 1x1")
    m = rows * cols
    adj = np.zeros((m, m))
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                adj[node, node + 1] = adj[node + 1, node] = 1.0
            if r + 1 < rows:
                adj[node, node + cols] = adj[node + cols, node] = 1.0
    return adj
