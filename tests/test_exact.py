"""Exact rational oracle: golden values, exactness, and invariances."""

import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest

from helpers import random_connected_network
from resistnet import (
    DisconnectedNetworkError,
    NodeIndexError,
    SameNodeError,
    build_network,
    exact_resistance_matrix,
    solve_exact,
    solve_kirchhoff,
    solve_reference_table,
)
from resistnet import exact
from resistnet.exact import (
    CYLINDER_5X4,
    FREE_5X4,
    FREE_5X5X4,
    KLEIN_5X4,
    MOEBIUS_5X4,
    PERIODIC_5X4,
    bridge_adjacent_formula,
    bridge_network,
    complete_network,
    square_grid_corner_formula,
)
from resistnet.lattice import BoundaryCondition, LatticeSpec, make_lattice


def lattice_net(bc, dims, res=None):
    spec = LatticeSpec(
        dims=dims, resistances=res or (1,) * len(dims), bc=bc
    )
    return make_lattice(spec), spec


def test_bridge_diagonal_is_r1():
    net = bridge_network(Fraction(5, 3), Fraction(7, 2))
    assert solve_exact(net, 0, 2) == Fraction(5, 3)


def test_bridge_adjacent_symbolic():
    rng = random.Random(101)
    for _ in range(5):
        r1 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        r2 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        net = bridge_network(r1, r2)
        assert solve_exact(net, 0, 1) == bridge_adjacent_formula(r1, r2)
        assert solve_exact(net, 0, 2) == r1


def test_free_grid_5x4_golden():
    net, spec = lattice_net(BoundaryCondition.FREE_2D, (5, 4))
    a, b = spec.node_index((0, 0)), spec.node_index((3, 3))
    assert solve_exact(net, a, b) == FREE_5X4


def test_free_cube_5x5x4_golden():
    net, spec = lattice_net(BoundaryCondition.FREE_3D, (5, 5, 4))
    a, b = spec.node_index((0, 0, 0)), spec.node_index((3, 3, 3))
    assert solve_exact(net, a, b) == FREE_5X5X4


def test_wrapped_grid_goldens():
    for bc, expected in (
        (BoundaryCondition.PERIODIC_2D, PERIODIC_5X4),
        (BoundaryCondition.CYLINDER, CYLINDER_5X4),
        (BoundaryCondition.MOEBIUS, MOEBIUS_5X4),
        (BoundaryCondition.KLEIN, KLEIN_5X4),
    ):
        net, spec = lattice_net(bc, (5, 4))
        a, b = spec.node_index((0, 0)), spec.node_index((3, 3))
        assert solve_exact(net, a, b) == expected


def test_square_grid_corner_symbolic():
    rng = random.Random(103)
    for _ in range(5):
        r = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        s = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        net, spec = lattice_net(BoundaryCondition.FREE_2D, (4, 4), (r, s))
        a, b = spec.node_index((0, 0)), spec.node_index((3, 3))
        assert solve_exact(net, a, b) == square_grid_corner_formula(r, s)


def test_complete_graphs_two_to_eight():
    for n in range(2, 9):
        for r in (Fraction(1), Fraction(5, 7)):
            net = complete_network(n, r)
            assert solve_exact(net, 0, n - 1) == 2 * r / n


def test_ground_choice_irrelevant():
    rng = random.Random(107)
    for _ in range(10):
        net = random_connected_network(rng, max_nodes=9, rational=True)
        a, b = 0, net.n_nodes - 1
        assert solve_exact(net, a, b) == solve_exact(net, b, a)


def reference_conductances(net):
    """The merged conductances as a plain Fraction sum, edge by edge."""
    merged = {}
    for i, j, r in net.edges:
        key = (i, j) if i < j else (j, i)
        merged[key] = merged.get(key, Fraction(0)) + 1 / Fraction(r)
    return merged


def assert_resubstitutes(net, system):
    """L x must equal e_alpha - e_beta exactly, with x_beta = 0.

    L x is summed from reference_conductances, apart from the oracle's merge.
    """
    a, b, x = system.alpha, system.beta, system.potentials
    current = [Fraction(0)] * net.n_nodes
    for (i, j), c in reference_conductances(net).items():
        flow = c * (x[i] - x[j])
        current[i] += flow
        current[j] -= flow
    want = [Fraction(0)] * net.n_nodes
    want[a], want[b] = Fraction(1), Fraction(-1)
    assert current == want
    assert system.potentials[b] == 0


def test_resubstitution_is_exact():
    rng = random.Random(109)
    for _ in range(10):
        net = random_connected_network(rng, max_nodes=9, rational=True)
        assert_resubstitutes(net, solve_kirchhoff(net, 0, net.n_nodes - 1))


def test_resubstitution_at_medium_size():
    # 30-60 queried nodes with parallel edges, beside a component not queried
    rng = random.Random(127)

    def resistance():
        return Fraction(rng.randint(1, 9), rng.randint(1, 9))

    for _ in range(3):
        core = random_connected_network(rng, max_nodes=60, min_nodes=30, rational=True)
        other = random_connected_network(rng, max_nodes=8, rational=True)
        n = core.n_nodes
        edges = list(core.edges)
        edges += [(i, j, resistance()) for i, j, _ in rng.sample(core.edges, 6)]
        edges += [(n + i, n + j, r) for i, j, r in other.edges]
        net = build_network(n + other.n_nodes, edges)
        a, b = rng.sample(range(n), 2)
        system = solve_kirchhoff(net, a, b)
        assert_resubstitutes(net, system)
        assert all(v == 0 for v in system.potentials[n:])


def test_star_with_hub_eliminated_last():
    # minimum degree takes every leaf first and the hub alpha last
    rng = random.Random(131)
    legs = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(12)]
    net = build_network(13, [(0, k + 1, r) for k, r in enumerate(legs)])
    for leaf in (1, 7, 12):
        system = solve_kirchhoff(net, 0, leaf)
        assert system.resistance == legs[leaf - 1]
        assert_resubstitutes(net, system)
    assert solve_exact(net, 3, 9) == legs[2] + legs[8]


def test_foster_theorem_on_exact_table():
    # sum over edges of c_e R_e = n - 1, exactly
    rng = random.Random(137)
    for _ in range(4):
        net = random_connected_network(rng, max_nodes=30, min_nodes=12, rational=True)
        table = exact_resistance_matrix(net)
        foster = sum(table[i][j] / Fraction(r) for i, j, r in net.edges)
        assert foster == net.n_nodes - 1


def test_float_inputs_rationalized_exactly():
    # 0.1 enters as its binary value; the result is still an exact fraction
    net_float = build_network(2, [(0, 1, 0.1)])
    net_exact = build_network(2, [(0, 1, Fraction(0.1))])
    got = solve_exact(net_float, 0, 1)
    assert isinstance(got, Fraction)
    assert got == solve_exact(net_exact, 0, 1)
    assert got == Fraction(0.1)
    assert got != Fraction(1, 10)


def test_parallel_edges_handled():
    net = build_network(2, [(0, 1, 1), (0, 1, 1)])
    assert solve_exact(net, 0, 1) == Fraction(1, 2)


def test_all_pairs_matrix_matches_single_solves():
    rng = random.Random(113)
    net = random_connected_network(rng, max_nodes=8, rational=True)
    table = exact_resistance_matrix(net)
    for a in range(net.n_nodes):
        assert table[a][a] == 0
        for b in range(a + 1, net.n_nodes):
            assert table[a][b] == solve_exact(net, a, b)
            assert table[a][b] == table[b][a]


def test_query_errors():
    net = build_network(4, [(0, 1, 1), (2, 3, 1)])
    with pytest.raises(SameNodeError):
        solve_exact(net, 2, 2)
    for pair in ((0, 4), (4, 0), (0, -1), (-1, 1)):
        with pytest.raises(NodeIndexError):
            solve_exact(net, *pair)
    with pytest.raises(DisconnectedNetworkError):
        solve_exact(net, 0, 3)
    with pytest.raises(DisconnectedNetworkError):
        exact_resistance_matrix(net)
    # same-component queries on a disconnected network still solve
    assert solve_exact(net, 0, 1) == 1


def test_reference_table_all_pass():
    results = solve_reference_table()
    assert len(results) == 11
    for res in results:
        assert res.passed, f"{res.case.name}: {res.computed} != {res.case.expected}"


def oracle_corpus():
    """Pair values on every wrap, then the tables of the lattices n <= 16.

    Dims 2..8 in 1D, 2..5 in 2D and 2..3 in 3D; the resistances mix a
    p/q, a binary float and an int.
    """
    values = []
    for bc in BoundaryCondition:
        ndim = bc.ndim
        for dims in product(range(2, {1: 9, 2: 6, 3: 4}[ndim]), repeat=ndim):
            spec = LatticeSpec(dims, (Fraction(2, 3), 0.7, 3)[:ndim], bc)
            net = make_lattice(spec)
            n = net.n_nodes
            for k in range(n):
                if (7 * k + 3) % n != k:
                    values.append(solve_exact(net, k, (7 * k + 3) % n))
            if n <= 16:
                table = exact_resistance_matrix(net)
                values += [table[a][b] for a in range(n) for b in range(a + 1, n)]
    return values


def test_oracle_answers_pinned():
    # exact answers are unique, so any solver rewrite must keep these bytes
    values = oracle_corpus()
    assert len(values) == 4906
    digest = hashlib.sha256(repr(values).encode()).hexdigest()
    assert digest == "2fb180bf87a90d99ce40e55b3d488d9dce0189573cfaa44fc344c1d5b9e1037c"


def mixed_corpus():
    """Small networks with int, p/q and float resistances, some mixed.

    Random float resistances make the oracle's integers long, so those
    networks stay at five nodes or fewer; the mixed ones take quarter-
    integer floats, whose denominators are short.
    """
    rng = random.Random(139)
    nets = [
        build_network(2, [(0, 1, Fraction(3, 7))]),
        build_network(2, [(0, 1, Fraction(3, 7)), (1, 0, 2), (0, 1, 0.25)]),
    ]
    for _ in range(6):
        pq = random_connected_network(rng, max_nodes=9, rational=True)
        nets.append(pq)
        nets.append(build_network(pq.n_nodes, [(i, j, r.numerator) for i, j, r in pq.edges]))
        nets.append(random_connected_network(rng, max_nodes=5))
        mixed = [
            (i, j, (r, r.denominator, float(r.numerator) / 4)[k % 3])
            for k, (i, j, r) in enumerate(pq.edges)
        ]
        nets.append(build_network(pq.n_nodes, mixed))
    # the shapes of the benchmark's tables: a 6x6 Klein bottle, 40 p/q nodes
    nets.append(lattice_net(BoundaryCondition.KLEIN, (6, 6), (2, 3))[0])
    nets.append(
        random_connected_network(rng, max_nodes=40, min_nodes=40, rational=True, extra_edges=20)
    )
    return nets


def query_pairs(n):
    """Every pair of a small network; n strided pairs of a larger one."""
    if n <= 16:
        return [(a, b) for a in range(n) for b in range(a + 1, n)]
    return [(a, (7 * a + 3) % n) for a in range(n) if (7 * a + 3) % n != a]


def test_pair_routes_and_table_agree():
    for net in mixed_corpus():
        table = exact_resistance_matrix(net)
        for a, b in query_pairs(net.n_nodes):
            got = solve_exact(net, a, b)
            assert isinstance(got, Fraction)
            assert got == solve_exact(net, b, a)
            assert got == solve_kirchhoff(net, a, b).resistance
            assert got == table[a][b] == table[b][a]


def relabelled(net, rng):
    """The same network under a random node permutation and edge order."""
    perm = list(range(net.n_nodes))
    rng.shuffle(perm)
    edges = [(perm[i], perm[j], r) for i, j, r in net.edges]
    rng.shuffle(edges)
    return perm, build_network(net.n_nodes, edges)


def test_answers_do_not_depend_on_node_labels():
    # minimum-degree ties go by update order and label; the answers may not
    rng = random.Random(151)
    lattices = [
        lattice_net(bc, {1: (9,), 2: (4, 5), 3: (3, 3, 2)}[bc.ndim],
                    (Fraction(2, 3), 0.7, 3)[:bc.ndim])[0]
        for bc in BoundaryCondition
    ]
    for net in mixed_corpus() + lattices:
        perm, other = relabelled(net, rng)
        n = net.n_nodes
        table, table_p = exact_resistance_matrix(net), exact_resistance_matrix(other)
        for a in range(n):
            for b in range(n):
                assert table_p[perm[a]][perm[b]] == table[a][b]
        for a, b in query_pairs(n):
            assert solve_exact(other, perm[a], perm[b]) == solve_exact(net, a, b)


def test_conductance_merge_matches_fraction_sum():
    for net in mixed_corpus():
        # (numerator, denominator) in lowest terms, as Fraction keeps them
        assert exact._merged_conductances(net) == {
            key: (c.numerator, c.denominator)
            for key, c in reference_conductances(net).items()
        }
