"""Shared test utilities: random network corpora and independent oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from resistnet.network import Network, build_network, random_walk_view


def random_connected_network(
    rng: random.Random,
    max_nodes: int = 12,
    rational: bool = False,
    unit: bool = False,
    extra_edges: int | None = None,
    min_nodes: int = 2,
) -> Network:
    """Random connected multigraph: spanning tree plus extra edges."""
    n = rng.randint(min_nodes, max_nodes)

    def resistance():
        if unit:
            return 1
        if rational:
            return Fraction(rng.randint(1, 9), rng.randint(1, 9))
        return rng.uniform(0.1, 10.0)

    edges = []
    for node in range(1, n):
        edges.append((rng.randrange(node), node, resistance()))
    n_extra = rng.randint(0, n) if extra_edges is None else extra_edges
    for _ in range(n_extra):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            edges.append((i, j, resistance()))
    return build_network(n, edges)


def random_simple_unit_network(rng: random.Random, max_nodes: int = 8) -> Network:
    """Connected simple graph with unit resistances (no parallel edges)."""
    n = rng.randint(2, max_nodes)
    pairs = {(rng.randrange(node), node) for node in range(1, n)}
    for _ in range(rng.randint(0, 2 * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    return build_network(n, [(i, j, 1) for i, j in pairs])


def markov_first_passage(net: Network, alpha: int, beta: int) -> float:
    """Absorption probability of the induced chain, solved independently.

    h is harmonic off {alpha, beta} with h(alpha)=0, h(beta)=1; the answer
    is the walker's first hop averaged over h.
    """
    hop = random_walk_view(net).hop_probabilities
    n = net.n_nodes
    interior = [k for k in range(n) if k not in (alpha, beta)]
    h = np.zeros(n)
    h[beta] = 1.0
    if interior:
        idx = {node: row for row, node in enumerate(interior)}
        mat = np.eye(len(interior))
        rhs = np.zeros(len(interior))
        for node in interior:
            row = idx[node]
            for other in range(n):
                p = hop[node, other]
                if p == 0.0 or other == node:
                    continue
                if other == beta:
                    rhs[row] += p
                elif other != alpha:
                    mat[row, idx[other]] -= p
        sol = np.linalg.solve(mat, rhs)
        for node in interior:
            h[node] = sol[idx[node]]
    return float(hop[alpha] @ h)
