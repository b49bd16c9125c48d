"""Invariants every two-point resistance obeys, checked exactly on the oracle.

The resistance is a metric; series and parallel resistors reduce to one;
a star of three resistors is its triangle (the Y-Delta transform);
Rayleigh's monotonicity law holds; and the all-pairs table follows the
rank-one (Sherman-Morrison) update under a change of one edge's
conductance.  The examples are derandomized and no database is kept, so
repeated runs draw the same ones.
"""

import os
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from resistnet import build_network, exact_resistance_matrix, solve_exact

# A home that cannot be created keeps Hypothesis from writing .hypothesis/.
set_hypothesis_home_dir(os.devnull)

RESISTANCES = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))
EXACT = settings(max_examples=25, derandomize=True, database=None, deadline=None)


@st.composite
def networks(draw, min_nodes=2):
    """Connected p/q multigraph: a random spanning tree plus chords."""
    n = draw(st.integers(min_nodes, 7))
    edges = [(draw(st.integers(0, k - 1)), k, draw(RESISTANCES)) for k in range(1, n)]
    node = st.integers(0, n - 1)
    chords = st.tuples(node, node, RESISTANCES).filter(lambda e: e[0] != e[1])
    return n, edges + draw(st.lists(chords, max_size=n))


# a share strictly between 0 and 1
SHARES = st.builds(Fraction, st.integers(1, 8), st.just(9))


def table_of(n, edges):
    return exact_resistance_matrix(build_network(n, edges))


@EXACT
@given(net=networks(), data=st.data())
def test_resistance_is_a_metric(net, data):
    # symmetric, zero only on the diagonal, and R_ac <= R_ab + R_bc
    n, edges = net
    table = table_of(n, edges)
    for a in range(n):
        assert table[a][a] == 0
        for b in range(n):
            assert table[a][b] == table[b][a]
            assert a == b or table[a][b] > 0
            for c in range(n):
                assert table[a][c] <= table[a][b] + table[b][c]
    a, b = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    assert solve_exact(build_network(n, edges), a, b) == table[a][b]


@EXACT
@given(net=networks(), data=st.data())
def test_series_reduction(net, data):
    # an edge r split into r t and r (1 - t) through a new node changes
    # no resistance between the old nodes
    n, edges = net
    e = data.draw(st.integers(0, len(edges) - 1))
    t = data.draw(SHARES)
    i, j, r = edges[e]
    split = edges[:e] + [(i, n, r * t), (n, j, r * (1 - t))] + edges[e + 1:]
    before, after = table_of(n, edges), table_of(n + 1, split)
    for a in range(n):
        assert after[a][:n] == before[a]


@EXACT
@given(net=networks(), data=st.data())
def test_parallel_reduction(net, data):
    # an edge r split into r / t and r / (1 - t) in parallel, whose
    # conductances add up to 1 / r, changes no resistance
    n, edges = net
    e = data.draw(st.integers(0, len(edges) - 1))
    t = data.draw(SHARES)
    i, j, r = edges[e]
    split = edges[:e] + [(i, j, r / t), (j, i, r / (1 - t))] + edges[e + 1:]
    assert table_of(n, split) == table_of(n, edges)


@EXACT
@given(net=networks(min_nodes=3), data=st.data())
def test_star_triangle_transform(net, data):
    # legs r_a, r_b, r_c from a new node to a, b and c change no resistance
    # between the old nodes from the triangle R_ab = S / r_c, R_bc = S / r_a,
    # R_ca = S / r_b, where S = r_a r_b + r_b r_c + r_c r_a
    n, edges = net
    a, b, c = data.draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True))
    r_a, r_b, r_c = (data.draw(RESISTANCES) for _ in range(3))
    s = r_a * r_b + r_b * r_c + r_c * r_a
    star = edges + [(n, a, r_a), (n, b, r_b), (n, c, r_c)]
    delta = edges + [(a, b, s / r_c), (b, c, s / r_a), (c, a, s / r_b)]
    with_star, with_delta = table_of(n + 1, star), table_of(n, delta)
    for x in range(n):
        assert with_star[x][:n] == with_delta[x]


@EXACT
@given(net=networks(), data=st.data())
def test_rayleigh_monotonicity(net, data):
    # raising one edge's resistance never lowers any two-point resistance
    n, edges = net
    e = data.draw(st.integers(0, len(edges) - 1))
    factor = data.draw(st.builds(Fraction, st.integers(2, 9), st.integers(1, 2)))
    i, j, r = edges[e]
    raised = edges[:e] + [(i, j, r * factor)] + edges[e + 1:]
    before = exact_resistance_matrix(build_network(n, edges))
    after = exact_resistance_matrix(build_network(n, raised))
    for a in range(n):
        for b in range(a + 1, n):
            assert after[a][b] >= before[a][b]


@EXACT
@given(net=networks(), data=st.data())
def test_rank_one_update(net, data):
    # edit the conductance between u and v by dc, a few times in a row:
    # R'_ab = R_ab - dc w^2 / (1 + dc R_uv), w = (R_av + R_bu - R_au - R_bv) / 2
    n, edges = net
    table = exact_resistance_matrix(build_network(n, edges))
    for _ in range(3):
        if data.draw(st.booleans()):  # a new edge, in parallel or not
            u, v = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            r = data.draw(RESISTANCES)
            edges = edges + [(u, v, r)]
            dc = 1 / r
        else:  # rescale an edge already there
            e = data.draw(st.integers(0, len(edges) - 1))
            u, v, r = edges[e]
            r_new = r * data.draw(st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)))
            edges = edges[:e] + [(u, v, r_new)] + edges[e + 1:]
            dc = 1 / r_new - 1 / r
        new = exact_resistance_matrix(build_network(n, edges))
        denom = 1 + dc * table[u][v]
        for a in range(n):
            for b in range(n):
                w = (table[a][v] + table[b][u] - table[a][u] - table[b][v]) / 2
                assert new[a][b] == table[a][b] - dc * w * w / denom
        table = new
