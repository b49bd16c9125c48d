"""Network construction, Laplacian assembly, and random-walk view."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import markov_first_passage, random_connected_network
from resistnet import (
    DisconnectedNetworkError,
    NodeIndexError,
    NonPositiveResistanceError,
    OutOfRangeError,
    SameNodeError,
    SelfLoopError,
    assemble_laplacian,
    build_network,
    connectivity_check,
    first_passage_probability,
    random_walk_view,
)
from resistnet.exact import bridge_network, complete_network
from resistnet.network import node_conductance


def test_smallest_network():
    net = build_network(2, [(0, 1, 5.0)])
    assert net.n_nodes == 2
    assert net.edges == ((0, 1, 5.0),)


def test_bad_endpoint_rejected():
    with pytest.raises(NodeIndexError):
        build_network(3, [(0, 3, 1.0)])
    with pytest.raises(NodeIndexError):
        build_network(3, [(-1, 2, 1.0)])
    with pytest.raises(NodeIndexError):
        build_network(0, [])


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        build_network(3, [(1, 1, 1.0)])


def test_nonpositive_resistance_rejected():
    for bad in (0, -2, float("inf"), float("nan")):
        with pytest.raises(NonPositiveResistanceError):
            build_network(2, [(0, 1, bad)])


def test_parallel_pair_adds_conductance():
    net = build_network(3, [(0, 1, 1), (0, 1, 1)])
    lap = assemble_laplacian(net)
    assert lap.matrix[0, 1] == -2.0
    assert lap.matrix[0, 0] == 2.0


def test_bridge_laplacian_matches_reference():
    r1, r2 = 2.0, 5.0
    c1, c2 = 1 / r1, 1 / r2
    lap = assemble_laplacian(bridge_network(r1, r2))
    want = np.array(
        [
            [2 * c1, -c1, 0, -c1],
            [-c1, 2 * c1 + c2, -c1, -c2],
            [0, -c1, 2 * c1, -c1],
            [-c1, -c2, -c1, 2 * c1 + c2],
        ]
    )
    assert np.allclose(lap.matrix, want, atol=1e-15)


def test_complete_graph_laplacian_diagonal():
    n, r = 6, 2.0
    lap = assemble_laplacian(complete_network(n, r))
    assert np.allclose(np.diag(lap.matrix), (n - 1) / r)
    off = lap.matrix[~np.eye(n, dtype=bool)]
    assert np.allclose(off, -1 / r)


def test_two_node_laplacian():
    r = 4.0
    lap = assemble_laplacian(build_network(2, [(0, 1, r)]))
    assert np.allclose(lap.matrix, [[1 / r, -1 / r], [-1 / r, 1 / r]])


def test_row_sums_vanish():
    rng = random.Random(7)
    for _ in range(25):
        net = random_connected_network(rng)
        mat = assemble_laplacian(net).matrix
        bound = 1e-12 * np.abs(mat).max()
        assert np.abs(mat.sum(axis=1)).max() <= bound


def test_assembly_invariant_under_edge_permutation():
    rng = random.Random(11)
    net = random_connected_network(rng, max_nodes=9)
    reference = assemble_laplacian(net).matrix
    edges = list(net.edges)
    for _ in range(5):
        rng.shuffle(edges)
        shuffled = build_network(net.n_nodes, edges)
        assert np.array_equal(assemble_laplacian(shuffled).matrix, reference)


def test_connectivity_labels():
    assert connectivity_check(bridge_network(1, 1))[0] == 1
    count, labels = connectivity_check(
        build_network(4, [(0, 1, 1), (2, 3, 1)])
    )
    assert count == 2
    assert labels[0] == labels[1] != labels[2] == labels[3]
    assert connectivity_check(build_network(1, []))[0] == 1
    # the assembled Laplacian carries the same count for decompose to check
    assert assemble_laplacian(build_network(4, [(0, 1, 1), (2, 3, 1)])).components == 2


def test_random_walk_rows_sum_to_one():
    rng = random.Random(3)
    for _ in range(10):
        net = random_connected_network(rng)
        view = random_walk_view(net)
        assert np.allclose(view.hop_probabilities.sum(axis=1), 1.0)
        assert view.hop_probabilities.min() >= 0.0
        assert view.hop_probabilities.max() <= 1.0


def test_coordination_numbers():
    view = random_walk_view(build_network(3, [(0, 1, 1), (0, 1, 2), (1, 2, 1)]))
    assert view.degrees == (1, 2, 1)


def test_first_passage_two_nodes():
    net = build_network(2, [(0, 1, 3.0)])
    assert first_passage_probability(net, 0, 1, 3.0) == pytest.approx(1.0)


def test_first_passage_complete_graph():
    # z = 3 and R = 1/2, so the walker escapes with probability 2/3
    net = complete_network(4, 1)
    assert first_passage_probability(net, 0, 2, 0.5) == pytest.approx(2 / 3)


def test_first_passage_triangle():
    # 3-state chain absorption: h(gamma) = 1/2, so P = 1/2 + 1/4
    net = build_network(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    assert first_passage_probability(net, 0, 1, 2 / 3) == pytest.approx(0.75)
    assert markov_first_passage(net, 0, 1) == pytest.approx(0.75)


def test_first_passage_errors():
    net = build_network(4, [(0, 1, 1), (2, 3, 1)])
    with pytest.raises(SameNodeError, match="^first-passage probability needs two distinct nodes$"):
        first_passage_probability(net, 1, 1, 1.0)
    with pytest.raises(DisconnectedNetworkError):
        first_passage_probability(net, 0, 2, 1.0)
    with pytest.raises(NonPositiveResistanceError):
        first_passage_probability(net, 0, 1, 0.0)
    for pair in ((0, -1), (-1, 1), (0, 4), (4, 0)):
        with pytest.raises(NodeIndexError):
            first_passage_probability(net, *pair, 1.0)


def test_node_conductance_outside_float_range_is_typed():
    for r in (Fraction(1, 10**400), 10**400):
        net = build_network(3, [(0, 1, 1), (1, 2, r)])
        with pytest.raises(OutOfRangeError):
            node_conductance(net, 1)
        with pytest.raises(OutOfRangeError):
            first_passage_probability(net, 1, 0, 1.0)
        assert node_conductance(net, 0) == 1.0  # node 0 does not touch the edge
    # twenty conductances of 1e307 each sum past the largest float
    parallel = build_network(2, [(0, 1, 1e-307)] * 20)
    with pytest.raises(OutOfRangeError):
        node_conductance(parallel, 0)
    with pytest.raises(OutOfRangeError, match="parallel edges"):
        assemble_laplacian(parallel)
    # twenty single edges of 1e307 each, summed on the star's diagonal
    star = build_network(21, [(0, k, 1e-307) for k in range(1, 21)])
    with pytest.raises(OutOfRangeError, match="node 0"):
        assemble_laplacian(star)
    assert assemble_laplacian(build_network(2, [(0, 1, 1e-307)])).matrix[0, 0] == 1 / 1e-307


def test_first_passage_rejects_a_resistance_outside_float_range():
    net = build_network(2, [(0, 1, 3.0)])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonPositiveResistanceError, match="finite"):
            first_passage_probability(net, 0, 1, bad)
    for bad in (Fraction(1, 10**400), 10**400):
        with pytest.raises(OutOfRangeError):
            first_passage_probability(net, 0, 1, bad)
    # each factor in range, their product not: c = 1e300 times R = 1e100,
    # and c = 1/3 times R = 1e-307
    wide = build_network(2, [(0, 1, 1e-300)])
    with pytest.raises(OutOfRangeError):
        first_passage_probability(wide, 0, 1, 1e100)
    with pytest.raises(OutOfRangeError):
        first_passage_probability(net, 0, 1, 1e-307)
    assert first_passage_probability(net, 0, 1, Fraction(3)) == 1.0


def test_fraction_resistances_survive():
    net = build_network(2, [(0, 1, Fraction(3, 7))])
    assert net.edges[0][2] == Fraction(3, 7)
    lap = assemble_laplacian(net)
    assert lap.matrix[0, 0] == pytest.approx(7 / 3)


def test_laplacian_is_readonly():
    lap = assemble_laplacian(build_network(2, [(0, 1, 1)]))
    with pytest.raises(ValueError):
        lap.matrix[0, 0] = 99.0
