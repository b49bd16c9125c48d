"""Eigendecomposition and the spectral resistance sum."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from helpers import random_connected_network
from resistnet import (
    DisconnectedNetworkError,
    MultipleZeroModesError,
    assemble_laplacian,
    build_network,
    decompose,
    resistance_matrix,
    solve_exact,
    two_point_resistance,
)
from resistnet.exact import (
    bridge_adjacent_formula,
    bridge_network,
    complete_network,
)
from resistnet.spectral import Spectrum


def spectrum_of(net) -> Spectrum:
    return decompose(assemble_laplacian(net))


def test_bridge_eigensystem():
    r1, r2 = 1.0, 2.0
    c1, c2 = 1 / r1, 1 / r2
    spec = spectrum_of(bridge_network(r1, r2))
    want = sorted([0.0, 4 * c1, 2 * c1, 2 * (c1 + c2)])
    assert np.allclose(spec.eigenvalues, want, atol=1e-12)
    # eigenvectors as published, defined up to sign
    expected = {
        4 * c1: np.array([1, -1, 1, -1]) / 2,
        2 * c1: np.array([-1, 0, 1, 0]) / math.sqrt(2),
        2 * (c1 + c2): np.array([0, -1, 0, 1]) / math.sqrt(2),
    }
    for lam, vec in expected.items():
        idx = int(np.argmin(np.abs(spec.eigenvalues - lam)))
        got = spec.eigenvectors[:, idx]
        assert abs(abs(float(vec @ got)) - 1.0) < 1e-10


def test_complete_graph_spectrum():
    n, r = 6, 0.5
    spec = spectrum_of(complete_network(n, r))
    assert spec.zero_modes == (0,)
    assert np.allclose(spec.eigenvalues[1:], n / r, atol=1e-10)


def test_single_node_spectrum():
    spec = spectrum_of(build_network(1, []))
    assert spec.eigenvalues.shape == (1,)
    assert spec.eigenvalues[0] == pytest.approx(0.0, abs=1e-15)
    assert spec.zero_modes == (0,)
    assert spec.zero_mode_index == 0


def test_zero_mode_vector_is_uniform():
    rng = random.Random(21)
    for _ in range(10):
        net = random_connected_network(rng)
        spec = spectrum_of(net)
        vec = spec.eigenvectors[:, spec.zero_mode_index]
        uniform = np.full(net.n_nodes, 1 / math.sqrt(net.n_nodes))
        assert min(
            np.abs(vec - uniform).max(), np.abs(vec + uniform).max()
        ) <= 1e-8


def test_eigensystem_invariants():
    rng = random.Random(5)
    for _ in range(15):
        net = random_connected_network(rng)
        lap = assemble_laplacian(net)
        spec = decompose(lap)
        v = spec.eigenvectors
        gram = v.T @ v
        assert np.abs(gram - np.eye(net.n_nodes)).max() <= 1e-10
        residual = lap.matrix @ v - v * spec.eigenvalues
        scale = np.linalg.norm(lap.matrix, 2)
        assert np.linalg.norm(residual, 2) <= 1e-10 * max(scale, 1e-30)


def test_bridge_resistances():
    r1, r2 = 1.0, 2.0
    spec = spectrum_of(bridge_network(r1, r2))
    assert two_point_resistance(spec, 0, 2) == pytest.approx(r1, rel=1e-12)
    want = float(bridge_adjacent_formula(Fraction(1), Fraction(2)))
    assert two_point_resistance(spec, 0, 1) == pytest.approx(want, rel=1e-12)
    assert two_point_resistance(spec, 1, 1) == 0.0


def test_complete_graph_resistance():
    for n in range(2, 7):
        spec = spectrum_of(complete_network(n, 3.0))
        assert two_point_resistance(spec, 0, n - 1) == pytest.approx(
            2 * 3.0 / n, rel=1e-12
        )


def test_resistance_matrix_examples():
    r = 7.0
    table = resistance_matrix(spectrum_of(build_network(2, [(0, 1, r)])))
    assert np.allclose(table, [[0, r], [r, 0]], rtol=1e-12)

    table = resistance_matrix(spectrum_of(complete_network(4, 1)))
    off = table[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 0.5, rtol=1e-12)

    table = resistance_matrix(spectrum_of(bridge_network(1.0, 2.0)))
    assert table[0, 2] == pytest.approx(1.0, rel=1e-12)


def test_matrix_agrees_with_pairwise():
    rng = random.Random(13)
    net = random_connected_network(rng, max_nodes=9)
    spec = spectrum_of(net)
    table = resistance_matrix(spec)
    for a in range(net.n_nodes):
        for b in range(net.n_nodes):
            assert table[a, b] == pytest.approx(
                two_point_resistance(spec, a, b), abs=1e-12
            )


def test_symmetry_and_nonnegativity():
    rng = random.Random(17)
    for _ in range(20):
        net = random_connected_network(rng)
        spec = spectrum_of(net)
        a, b = rng.randrange(net.n_nodes), rng.randrange(net.n_nodes)
        rab = two_point_resistance(spec, a, b)
        rba = two_point_resistance(spec, b, a)
        assert rab == rba  # summand is symmetric, float-identical
        assert rab >= 0.0
        if a != b:
            assert rab > 0.0


def test_triangle_inequality():
    rng = random.Random(29)
    for _ in range(30):
        net = random_connected_network(rng, max_nodes=10)
        table = resistance_matrix(spectrum_of(net))
        n = net.n_nodes
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert table[a, c] <= table[a, b] + table[b, c] + 1e-12


def test_oracle_equivalence_on_random_networks():
    rng = random.Random(31)
    for _ in range(20):
        net = random_connected_network(rng, max_nodes=12, rational=True)
        spec = spectrum_of(net)
        a, b = 0, net.n_nodes - 1
        want = float(solve_exact(net, a, b))
        got = two_point_resistance(spec, a, b)
        assert abs(got - want) <= 1e-9 * max(1.0, want)


def test_rayleigh_monotonicity_under_edge_addition():
    rng = random.Random(37)
    for _ in range(15):
        net = random_connected_network(rng, max_nodes=8)
        before = resistance_matrix(spectrum_of(net))
        i, j = rng.randrange(net.n_nodes), rng.randrange(net.n_nodes)
        if i == j:
            continue
        augmented = build_network(
            net.n_nodes, list(net.edges) + [(i, j, rng.uniform(0.1, 5.0))]
        )
        after = resistance_matrix(spectrum_of(augmented))
        assert (after <= before + 1e-10).all()


def test_disconnected_resistance_raises():
    net = build_network(4, [(0, 1, 1), (2, 3, 1)])
    spec = spectrum_of(net)
    assert len(spec.zero_modes) == 2
    with pytest.raises(DisconnectedNetworkError):
        two_point_resistance(spec, 0, 2)
    with pytest.raises(DisconnectedNetworkError):
        resistance_matrix(spec)


def test_numerically_split_network_flags_zero_modes():
    # two cliques joined by a conductance far below the zero-mode threshold
    edges = [(i, j, 1) for i in range(4) for j in range(i + 1, 4)]
    edges += [(i, j, 1) for i in range(4, 8) for j in range(i + 1, 8)]
    edges.append((0, 4, 1e15))
    net = build_network(8, edges)
    with pytest.raises(MultipleZeroModesError):
        decompose(assemble_laplacian(net))


def test_decompose_deterministic():
    net = bridge_network(1.0, 3.0)
    lap = assemble_laplacian(net)
    one, two = decompose(lap), decompose(lap)
    assert np.array_equal(one.eigenvalues, two.eigenvalues)
    assert np.array_equal(one.eigenvectors, two.eigenvectors)


def test_degenerate_basis_independence():
    # complete graph: (n-1)-fold degeneracy; any orthonormal basis of the
    # eigenspace must give the same resistances
    net = complete_network(5, 1)
    lap = assemble_laplacian(net)
    ours = resistance_matrix(decompose(lap))

    w, v = scipy.linalg.eigh(np.asarray(lap.matrix), driver="ev")
    keep = w > 1e-9 * w[-1]
    scaled = v[:, keep] / np.sqrt(w[keep])
    gram = scaled @ scaled.T
    diag = np.diag(gram)
    other = diag[:, None] + diag[None, :] - gram - gram.T
    assert np.abs(ours - other).max() <= 1e-10


def _masked_reference(spec: Spectrum):
    """The former boolean-mask expressions of the two queries."""
    keep = np.ones(spec.n, dtype=bool)
    keep[list(spec.zero_modes)] = False
    scaled = spec.eigenvectors[:, keep] / np.sqrt(spec.eigenvalues[keep])
    gram = scaled @ scaled.T
    diag = np.diag(gram)
    table = diag[:, None] + diag[None, :] - gram - gram.T
    table = np.maximum(table, 0.0)
    np.fill_diagonal(table, 0.0)

    def pair(alpha, beta):
        diff = spec.eigenvectors[alpha, keep] - spec.eigenvectors[beta, keep]
        return float(np.sum(diff * diff / spec.eigenvalues[keep]))

    return table, pair


@pytest.mark.parametrize("n_max", [2, 12, 90, 300])
def test_queries_keep_the_bits_of_the_masked_expressions(n_max):
    rng = random.Random(n_max)
    for _ in range(3):
        net = random_connected_network(rng, max_nodes=n_max, min_nodes=max(2, n_max // 2))
        spec = spectrum_of(net)
        table, pair = _masked_reference(spec)
        assert resistance_matrix(spec).tobytes() == table.tobytes()
        for _ in range(20):
            a, b = rng.randrange(spec.n), rng.randrange(spec.n)
            assert two_point_resistance(spec, a, b) == (pair(a, b) if a != b else 0.0)
