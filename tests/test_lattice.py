"""Lattice generators, axis sums, and the closed-form resistances."""

import hashlib
import itertools
import math
import random
import re
import sys
import threading
from array import array
from fractions import Fraction

import numpy as np
import pytest

from resistnet import (
    NodeIndexError,
    NonPositiveResistanceError,
    OutOfRangeError,
    ParseError,
    assemble_laplacian,
    build_network,
    decompose,
    f_sum,
    g_sum,
    lattice,
    make_lattice,
    mode_spectrum,
    r_1d_free,
    r_1d_periodic,
    r_2d_cylinder,
    r_2d_free,
    r_2d_klein,
    r_2d_moebius,
    r_2d_periodic,
    r_3d_free,
    resistance,
    solve_exact,
)
from resistnet.exact import (
    CYLINDER_5X4,
    FREE_5X4,
    FREE_5X5X4,
    KLEIN_5X4,
    MOEBIUS_5X4,
    PERIODIC_5X4,
    square_grid_corner_formula,
)
from resistnet.lattice import (
    BoundaryCondition,
    LatticeSpec,
    _klein_terms,
    klein_parity,
)

BC = BoundaryCondition


def spec2d(bc, m, n, r=1, s=1):
    return LatticeSpec(dims=(m, n), resistances=(r, s), bc=bc)


# ---------------------------------------------------------------------------
# spec validation and indexing


def test_spec_validation():
    with pytest.raises(ParseError):
        LatticeSpec(dims=(5,), resistances=(1,), bc=BC.CYLINDER)
    with pytest.raises(ParseError):
        LatticeSpec(dims=(5, 4, 3), resistances=(1, 1), bc=BC.FREE_3D)
    with pytest.raises(ParseError):
        LatticeSpec(dims=(0, 4), resistances=(1, 1), bc=BC.FREE_2D)
    for bad in (0, -1, Fraction(-1, 2), math.nan, math.inf, -math.inf):
        with pytest.raises(NonPositiveResistanceError):
            LatticeSpec(dims=(5, 4), resistances=(1, bad), bc=BC.FREE_2D)


def test_resistances_outside_float_range_are_typed():
    # a valid spec whose resistance no float route can take
    for r in (Fraction(1, 10**400), 10**400):
        spec = LatticeSpec(dims=(3,), resistances=(r,), bc=BC.FREE_1D)
        with pytest.raises(OutOfRangeError):
            mode_spectrum(spec)
        with pytest.raises(OutOfRangeError):
            resistance(spec, (0,), (2,))


def test_node_indexing_round_trip():
    spec = LatticeSpec(dims=(5, 4, 4), resistances=(1, 1, 1), bc=BC.FREE_3D)
    assert spec.node_index((0, 0, 0)) == 0
    assert spec.node_index((3, 3, 3)) == 3 + 5 * 3 + 20 * 3
    for idx in range(spec.n_nodes):
        assert spec.node_index(spec.node_coords(idx)) == idx
    with pytest.raises(NodeIndexError):
        spec.node_index((5, 0, 0))


# ---------------------------------------------------------------------------
# generators


def test_free_chain_edges():
    net = make_lattice(LatticeSpec((4,), (1,), BC.FREE_1D))
    assert len(net.edges) == 3


def test_ring_edges_and_degenerate_rings():
    net = make_lattice(LatticeSpec((5,), (1,), BC.PERIODIC_1D))
    assert len(net.edges) == 5
    # a 2-ring is a doubled edge; a 1-ring has no edges
    assert len(make_lattice(LatticeSpec((2,), (1,), BC.PERIODIC_1D)).edges) == 2
    assert len(make_lattice(LatticeSpec((1,), (1,), BC.PERIODIC_1D)).edges) == 0


def test_torus_5x4_edges():
    net = make_lattice(spec2d(BC.PERIODIC_2D, 5, 4))
    assert len(net.edges) == 40
    degree = [0] * net.n_nodes
    for i, j, _ in net.edges:
        degree[i] += 1
        degree[j] += 1
    assert set(degree) == {4}


def test_twisted_2x2_is_complete_graph():
    net = make_lattice(spec2d(BC.MOEBIUS, 2, 2))
    pairs = {(min(i, j), max(i, j)) for i, j, _ in net.edges}
    assert len(net.edges) == 6
    assert pairs == {(a, b) for a in range(4) for b in range(a + 1, 4)}


def _pinning_specs():
    return [
        LatticeSpec(dims, (Fraction(2, 3), 0.7, 3)[: bc.ndim], bc)
        for bc in BC
        for dims in itertools.product(range(1, 7 if bc.ndim < 3 else 5), repeat=bc.ndim)
    ]


def test_generators_keep_their_bits():
    """Edge lists and analytic modes of 256 specs, every wrap, pinned by digest."""
    specs = _pinning_specs()
    assert len(specs) == 256
    nets = [make_lattice(s) for s in specs]
    # built without build_network, whose checks every edge list passes
    assert all(build_network(s.n_nodes, net.edges) == net for s, net in zip(specs, nets))
    edges = repr([net.edges for net in nets])
    modes = repr([mode_spectrum(s).modes for s in specs])
    assert hashlib.sha256(edges.encode()).hexdigest() == (
        "69e1ecae407b904f004c5c95c1045b477738cff16ad4c7f5e73e8003b7f2b84d"
    )
    assert hashlib.sha256(modes.encode()).hexdigest() == (
        "ae73331a43be07aedfe66bd512b7429e38e799ef60e2f08764557915ed26b1bc"
    )


def test_length1_twist_doubles_mirror_edges():
    # length-1 twisted strip: each mirror pair is wrapped from both sides,
    # so its conductance doubles on top of any width-chain edge
    net = make_lattice(spec2d(BC.MOEBIUS, 1, 4))
    lap = assemble_laplacian(net)
    assert lap.matrix[0, 3] == -2.0  # two wrap edges
    assert lap.matrix[1, 2] == -3.0  # two wrap edges plus the chain edge
    assert lap.matrix[0, 1] == -1.0  # chain edge only


# ---------------------------------------------------------------------------
# axis sums


def _f_defining(n, ell):
    return math.fsum(
        (1 - math.cos(ell * k * math.pi / n)) / (1 - math.cos(k * math.pi / n))
        for k in range(1, n)
    ) / n


def _g_defining(n, ell):
    return math.fsum(
        (1 - math.cos(2 * ell * k * math.pi / n)) / (1 - math.cos(2 * k * math.pi / n))
        for k in range(1, n)
    ) / n


def test_axis_sum_values():
    assert f_sum(7, 0) == 0.0
    assert f_sum(9, 1) == pytest.approx(1 - 1 / 9, abs=1e-15)
    assert f_sum(4, 2) == pytest.approx(1.5, abs=1e-15)
    assert g_sum(7, 0) == 0.0
    assert g_sum(5, 1) == pytest.approx(4 / 5, abs=1e-15)
    assert g_sum(4, 2) == pytest.approx(1.0, abs=1e-15)


def test_axis_sums_match_defining_sums():
    for n in (1, 2, 3, 5, 16, 64):
        for ell in range(0, 2 * n):
            assert abs(f_sum(n, ell) - _f_defining(n, ell)) <= 1e-11
        for ell in range(0, n):
            assert abs(g_sum(n, ell) - _g_defining(n, ell)) <= 1e-11


def test_axis_sum_periodicity_and_sign():
    assert f_sum(6, -5) == f_sum(6, 5) == f_sum(6, 12 + 5)
    assert g_sum(6, -2) == g_sum(6, 2) == g_sum(6, 8)


# ---------------------------------------------------------------------------
# 1D closed forms


def test_chain_values():
    assert r_1d_free(4, 2.0, 0, 3) == pytest.approx(6.0)
    assert r_1d_free(9, 1.5, 4, 4) == 0.0
    assert r_1d_free(10, 2.0, 3, 7) == pytest.approx(8.0)


def test_ring_values():
    assert r_1d_periodic(4, 3.0, 0, 2) == pytest.approx(3.0)  # 2r parallel 2r
    assert r_1d_periodic(5, 1.0, 0, 1) == pytest.approx(4 / 5)
    assert r_1d_periodic(6, 1.0, 1, 4) == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# 2D and 3D closed forms against the exact reference fractions


def test_grid_reference_values():
    pair = ((0, 0), (3, 3))
    cases = [
        (r_2d_free, FREE_5X4),
        (r_2d_periodic, PERIODIC_5X4),
        (r_2d_cylinder, CYLINDER_5X4),
        (r_2d_moebius, MOEBIUS_5X4),
        (r_2d_klein, KLEIN_5X4),
    ]
    for fn, expected in cases:
        assert fn(5, 4, 1, 1, *pair) == pytest.approx(float(expected), rel=1e-12)


def klein_even_width_term(m, n, r, s, p1, p2):
    """Contribution of the alternating width mode; zero for odd widths."""
    if n % 2 == 1:
        return 0.0
    return math.fsum(_klein_terms(m, n, float(r), float(s), p1, p2, range(n // 2, n // 2 + 1)))


def test_klein_even_width_sector():
    got = klein_even_width_term(5, 4, 1, 1, (0, 0), (3, 3))
    assert got == pytest.approx(float(Fraction(5, 58)), rel=1e-12)
    assert klein_even_width_term(5, 3, 1, 1, (0, 0), (2, 2)) == 0.0


def test_klein_parity_sectors():
    assert [klein_parity(4, n) for n in range(4)] == [0, 0, 1, 1]
    assert [klein_parity(5, n) for n in range(5)] == [0, 0, 0, 1, 1]


def test_square_grid_formula():
    rng = random.Random(211)
    for _ in range(5):
        r = rng.uniform(0.2, 5.0)
        s = rng.uniform(0.2, 5.0)
        want = float(square_grid_corner_formula(Fraction(r), Fraction(s)))
        assert r_2d_free(4, 4, r, s, (0, 0), (3, 3)) == pytest.approx(want, rel=1e-12)
    assert r_2d_free(4, 4, 2, 2, (0, 0), (3, 3)) == pytest.approx(
        13 * 2 / 7, rel=1e-12
    )


def test_cube_reference_value():
    got = r_3d_free(5, 5, 4, 1, 1, 1, (0, 0, 0), (3, 3, 3))
    assert got == pytest.approx(float(FREE_5X5X4), rel=1e-12)


def test_periodic_depends_on_offsets_only():
    assert r_2d_periodic(5, 4, 1, 1, (0, 0), (3, 3)) == pytest.approx(
        r_2d_periodic(5, 4, 1, 1, (0, 0), (2, 1)), abs=1e-13
    )


def test_moebius_2x2_all_pairs_half():
    spec = spec2d(BC.MOEBIUS, 2, 2, 3.0, 3.0)
    for a in range(4):
        for b in range(a + 1, 4):
            got = resistance(spec, spec.node_coords(a), spec.node_coords(b))
            assert got == pytest.approx(1.5, rel=1e-12)


# ---------------------------------------------------------------------------
# the exact bits of the closed forms
#
# (wrap, dims, resistances, pair) -> repr of the value.  Every row is pinned
# to the last bit, so a rewrite of the mode sums must keep each term's float
# expression; the rows cover every wrap, negative offsets, even and odd
# twisted widths, int, p/q and float resistances, sizes past the sweep, and
# small lattices whose few terms each reach the last bit of the sum.

PINNED_BITS = [
    (BC.FREE_1D, (7,), (Fraction(1, 3),), (5,), (1,), 1.3333333333333333),
    (BC.FREE_1D, (40,), (0.7,), (3,), (38,), 24.5),
    (BC.PERIODIC_1D, (9,), (2,), (7,), (2,), 4.444444444444445),
    (BC.PERIODIC_1D, (41,), (Fraction(5, 7),), (0,), (30,), 5.749128919860628),
    (BC.FREE_2D, (5, 4), (1, 1), (0, 0), (3, 3), 1.70786368672497),
    (BC.FREE_2D, (6, 5), (Fraction(2, 3), 3), (5, 4), (1, 0), 3.1471636631279467),
    (BC.FREE_2D, (40, 37), (1.3, 0.45), (3, 30), (35, 2), 2.2866545874757596),
    (BC.FREE_2D, (1, 9), (2, Fraction(1, 3)), (0, 8), (0, 1), 2.333333333333333),
    (BC.FREE_2D, (23, 2), (0.9, 1.7), (22, 1), (0, 0), 10.433615778909639),
    (BC.PERIODIC_2D, (5, 4), (1, 1), (0, 0), (3, 3), 0.6809370988446726),
    (BC.PERIODIC_2D, (6, 7), (Fraction(1, 3), 2), (5, 6), (1, 2), 0.8364827664393163),
    (BC.PERIODIC_2D, (40, 37), (0.8, 1.25), (31, 2), (4, 29), 1.3156727574044127),
    (BC.PERIODIC_2D, (2, 11), (1, 0.3), (1, 10), (0, 0), 0.2986197581453511),
    (BC.CYLINDER, (5, 4), (1, 1), (0, 0), (3, 3), 1.1842671194114318),
    (BC.CYLINDER, (7, 6), (2, Fraction(3, 5)), (6, 5), (2, 0), 1.5365603742155087),
    (BC.CYLINDER, (40, 37), (1.1, 0.6), (39, 1), (7, 33), 1.6438019057931468),
    (BC.CYLINDER, (9, 1), (Fraction(4, 3), 1), (8, 0), (3, 0), 2.962962962962963),
    (BC.MOEBIUS, (5, 4), (1, 1), (0, 0), (3, 3), 0.8963676797627871),
    (BC.MOEBIUS, (6, 5), (Fraction(1, 2), 2), (5, 4), (0, 1), 0.6827470728526592),
    (BC.MOEBIUS, (7, 6), (0.35, 1.9), (6, 0), (2, 5), 0.6212237328983323),
    (BC.MOEBIUS, (40, 37), (1, Fraction(2, 7)), (38, 20), (1, 3), 0.7094734161416602),
    (BC.MOEBIUS, (37, 40), (2.5, 0.75), (0, 39), (36, 0), 1.157641859118324),
    (BC.MOEBIUS, (2, 2), (3, 3), (1, 1), (0, 0), 1.5),
    (BC.KLEIN, (5, 4), (1, 1), (0, 0), (3, 3), 0.6541494802837815),
    (BC.KLEIN, (6, 5), (Fraction(3, 2), Fraction(1, 4)), (5, 4), (1, 0), 0.5684223682853101),
    (BC.KLEIN, (7, 6), (0.6, 1.4), (6, 1), (0, 4), 0.3713641920528102),
    (BC.KLEIN, (40, 37), (2, 0.55), (35, 36), (2, 0), 1.26718330098673),
    (BC.KLEIN, (37, 40), (Fraction(7, 3), 1.05), (1, 39), (30, 2), 1.8965469751865107),
    (BC.KLEIN, (2, 2), (1, 2), (1, 0), (0, 1), 0.49999999999999994),
    (BC.KLEIN, (1, 8), (1, 1), (0, 7), (0, 2), 1.1654411764705879),
    (BC.FREE_3D, (5, 5, 4), (1, 1, 1), (0, 0, 0), (3, 3, 3), 0.9296932796507861),
    (BC.FREE_3D, (3, 4, 2), (Fraction(1, 3), 2, 1), (2, 3, 1), (0, 0, 0), 1.4083796597155647),
    (BC.FREE_3D, (7, 5, 6), (0.8, 1.6, Fraction(2, 5)), (6, 4, 5), (1, 2, 0), 0.7603665469462573),
    (BC.FREE_3D, (7, 5, 6), (1, 1, 1), (3, 0, 2), (3, 4, 2), 0.6005049981777748),
    (BC.FREE_3D, (12, 9, 10), (1.2, 0.5, 2.2), (11, 1, 9), (0, 8, 0), 1.309791442656666),
    (BC.FREE_3D, (1, 6, 5), (2, 3, 5), (0, 5, 0), (0, 1, 4), 7.606739463661904),
    (BC.FREE_3D, (4, 1, 3), (Fraction(5, 2), 1, 0.4), (3, 0, 2), (0, 0, 0), 2.893807699276563),
    # small lattices, where one term's last bit reaches the sum
    (BC.FREE_2D, (3, 3), (1, Fraction(1, 3)), (0, 0), (1, 0), 0.55),
    (BC.PERIODIC_2D, (5, 2), (2, 1), (3, 0), (4, 1), 1.0247706422018348),
    (BC.CYLINDER, (3, 5), (2, 2), (0, 2), (0, 4), 1.9455535390199634),
    (BC.MOEBIUS, (5, 3), (1, 1), (0, 2), (0, 0), 0.8799999999999999),
    (BC.KLEIN, (6, 4), (2, 2), (2, 0), (3, 0), 0.985780885780886),
    (BC.FREE_3D, (3, 3, 2), (0.7, 2, 2), (0, 1, 0), (0, 0, 1), 1.0662105635915387),
    # same node
    (BC.FREE_2D, (6, 6), (1, 1), (2, 3), (2, 3), 0.0),
    (BC.KLEIN, (5, 4), (1, 2), (4, 0), (4, 0), 0.0),
    (BC.FREE_3D, (4, 4, 4), (1, 2, 3), (1, 2, 3), (1, 2, 3), 0.0),
]


@pytest.mark.parametrize("bc,dims,res,c1,c2,want", PINNED_BITS)
def test_closed_form_bits_pinned(bc, dims, res, c1, c2, want):
    spec = LatticeSpec(dims=dims, resistances=res, bc=bc)
    lattice._ring_lattice.cache_clear()
    assert repr(resistance(spec, c1, c2)) == repr(want)
    # the cylinder, Moebius and Klein sums read a lattice's second and later
    # queries through its table of denominators
    resistance(spec, spec.node_coords(0), spec.node_coords(spec.n_nodes - 1))
    assert repr(resistance(spec, c1, c2)) == repr(want)


RING_LATTICES = [
    spec2d(BC.CYLINDER, 9, 7, 1.1, Fraction(2, 3)),
    spec2d(BC.MOEBIUS, 8, 11, 0.35, 2),
    spec2d(BC.KLEIN, 10, 9, 3, 0.8),
]


@pytest.mark.parametrize("spec", RING_LATTICES, ids=lambda spec: spec.bc.value)
def test_ring_denominators_wait_for_a_second_query(monkeypatch, spec):
    built = []

    def counting_array(typecode, values):
        built.append(typecode)
        return array(typecode, values)

    monkeypatch.setattr(lattice, "array", counting_array)
    lattice._ring_lattice.cache_clear()
    pair = ((0, 0), (spec.dims[0] - 1, spec.dims[1] - 1))
    want = resistance(spec, *pair)
    assert built == []  # a single query on a fresh lattice builds nothing
    for _ in range(3):
        assert repr(resistance(spec, *pair)) == repr(want)
    assert len(built) == spec.dims[1] - 1  # one row per width mode, once
    # two other lattices evict it: its next query is a first query again
    for other in RING_LATTICES:
        if other != spec:
            resistance(other, (0, 0), (1, 1))
            resistance(other, (0, 0), (1, 1))
        assert lattice._ring_lattice.cache_info().currsize <= 2
    built.clear()
    assert repr(resistance(spec, *pair)) == repr(want)
    assert built == []
    assert repr(resistance(spec, *pair)) == repr(want)
    assert len(built) == spec.dims[1] - 1
    assert lattice._ring_lattice.cache_info().maxsize == 2


def test_ring_denominators_shared_by_threads():
    specs = RING_LATTICES[1:]
    rng = random.Random(47)
    pairs = [
        (spec, *(tuple(rng.randrange(d) for d in spec.dims) for _ in range(2)))
        for _ in range(12)
        for spec in specs
    ]
    lattice._ring_lattice.cache_clear()
    serial = [repr(resistance(*query)) for query in pairs]
    results = {}

    def worker(k):
        results[k] = [repr(resistance(*query)) for query in pairs[k:] + pairs[:k]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            lattice._ring_lattice.cache_clear()
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            for k in range(4):
                assert results.pop(k) == serial[k:] + serial[:k]
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# degenerate axes collapse to lower dimension


def test_degenerate_axes():
    assert r_2d_free(1, 6, 2, 3, (0, 1), (0, 5)) == pytest.approx(
        r_1d_free(6, 3, 1, 5), rel=1e-12
    )
    assert r_2d_periodic(5, 1, 2, 3, (1, 0), (4, 0)) == pytest.approx(
        r_1d_periodic(5, 2, 1, 4), rel=1e-12
    )
    assert r_2d_cylinder(5, 1, 2, 3, (0, 0), (2, 0)) == pytest.approx(
        r_1d_periodic(5, 2, 0, 2), rel=1e-12
    )
    assert r_3d_free(4, 3, 1, 2, 3, 5, (0, 1, 0), (3, 2, 0)) == pytest.approx(
        r_2d_free(4, 3, 2, 3, (0, 1), (3, 2)), rel=1e-12
    )


# ---------------------------------------------------------------------------
# symmetries


def twisted_step(m, n, coord):
    """One lattice step around the twisted length axis."""
    x, y = coord
    return (x + 1, y) if x < m - 1 else (0, n - 1 - y)


def test_torus_translation_invariance():
    m, n = 5, 4
    base = r_2d_periodic(m, n, 2, 0.5, (0, 1), (3, 3))
    for sx in range(m):
        for sy in range(n):
            got = r_2d_periodic(
                m, n, 2, 0.5,
                ((0 + sx) % m, (1 + sy) % n),
                ((3 + sx) % m, (3 + sy) % n),
            )
            assert got == pytest.approx(base, abs=1e-12)


def test_cylinder_translation_invariance():
    m, n = 6, 3
    base = r_2d_cylinder(m, n, 1, 2, (1, 0), (4, 2))
    for sx in range(m):
        got = r_2d_cylinder(m, n, 1, 2, ((1 + sx) % m, 0), ((4 + sx) % m, 2))
        assert got == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize("fn,bc", [(r_2d_moebius, BC.MOEBIUS), (r_2d_klein, BC.KLEIN)])
def test_twisted_step_invariance(fn, bc):
    m, n = 5, 4
    p1, p2 = (1, 0), (4, 2)
    base = fn(m, n, 1, 2, p1, p2)
    for _ in range(2 * m):
        p1, p2 = twisted_step(m, n, p1), twisted_step(m, n, p2)
        assert fn(m, n, 1, 2, p1, p2) == pytest.approx(base, abs=1e-12)


def test_twisted_reflection_invariance():
    m, n = 5, 4
    for fn in (r_2d_moebius, r_2d_klein):
        base = fn(m, n, 1, 2, (1, 0), (3, 2))
        flipped = fn(m, n, 1, 2, (1, n - 1 - 0), (3, n - 1 - 2))
        assert flipped == pytest.approx(base, abs=1e-12)


def test_klein_half_width_shift_invariance():
    m, n = 4, 6
    base = r_2d_klein(m, n, 1, 1, (0, 1), (2, 4))
    shifted = r_2d_klein(m, n, 1, 1, (0, (1 + 3) % n), (2, (4 + 3) % n))
    assert shifted == pytest.approx(base, abs=1e-12)


def test_wrap_ordering_on_5x4():
    # more wrapping never increases the resistance of the same pair
    pair = ((0, 0), (3, 3))
    per = r_2d_periodic(5, 4, 1, 1, *pair)
    cyl = r_2d_cylinder(5, 4, 1, 1, *pair)
    fre = r_2d_free(5, 4, 1, 1, *pair)
    kle = r_2d_klein(5, 4, 1, 1, *pair)
    mob = r_2d_moebius(5, 4, 1, 1, *pair)
    assert per <= cyl <= fre
    assert kle <= mob


# ---------------------------------------------------------------------------
# analytic spectra match the numeric eigendecomposition


def _spectra_specs():
    for m in range(1, 7):
        yield LatticeSpec((m,), (2,), BC.FREE_1D)
        yield LatticeSpec((m,), (2,), BC.PERIODIC_1D)
    for bc in (BC.FREE_2D, BC.PERIODIC_2D, BC.CYLINDER, BC.MOEBIUS, BC.KLEIN):
        for m in range(1, 6):
            for n in range(1, 6):
                yield spec2d(bc, m, n, 2, 0.5)
    for m in range(1, 4):
        for n in range(1, 4):
            for l in range(1, 4):
                yield LatticeSpec((m, n, l), (2, 0.5, 3), BC.FREE_3D)


def test_mode_spectra_match_decompose():
    for spec in _spectra_specs():
        analytic = np.array(mode_spectrum(spec).eigenvalues)
        numeric = decompose(assemble_laplacian(make_lattice(spec))).eigenvalues
        assert analytic.shape == numeric.shape
        assert np.abs(np.sort(analytic) - numeric).max() <= 1e-8


# ---------------------------------------------------------------------------
# spot checks against the exact oracle


@pytest.mark.parametrize(
    "bc,dims",
    [
        (BC.CYLINDER, (3, 3)),
        (BC.MOEBIUS, (4, 3)),
        (BC.KLEIN, (5, 3)),
        (BC.KLEIN, (2, 2)),
        (BC.FREE_3D, (3, 3, 2)),
    ],
)
def test_closed_form_matches_oracle(bc, dims):
    res = (Fraction(1), Fraction(2), Fraction(1, 3))[: len(dims)]
    spec = LatticeSpec(dims=dims, resistances=res, bc=bc)
    net = make_lattice(spec)
    rng = random.Random(hash((bc.value, dims)) & 0xFFFF)
    for _ in range(4):
        a = rng.randrange(spec.n_nodes)
        b = rng.randrange(spec.n_nodes)
        want = float(solve_exact(net, a, b)) if a != b else 0.0
        got = resistance(spec, spec.node_coords(a), spec.node_coords(b))
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_coordinates_out_of_range():
    with pytest.raises(NodeIndexError):
        r_2d_free(5, 4, 1, 1, (0, 0), (5, 3))
    with pytest.raises(NodeIndexError):
        r_3d_free(2, 2, 2, 1, 1, 1, (0, 0, 0), (0, 0, 2))
    # one coordinate per axis, on either endpoint
    wrong_counts = [
        (LatticeSpec((4,), (1,), BC.FREE_1D), (1, 3), (2,)),
        (LatticeSpec((4,), (1,), BC.PERIODIC_1D), (1,), (2, 9)),
        (spec2d(BC.KLEIN, 5, 4), (1,), (2, 3)),
        (spec2d(BC.FREE_2D, 5, 4), (1, 2), (2, 3, 0)),
        (LatticeSpec((2, 2, 2), (1, 1, 1), BC.FREE_3D), (0, 0), (1, 1, 1)),
        (LatticeSpec((2, 2, 2), (1, 1, 1), BC.FREE_3D), (0, 0, 0), (1, 1, 1, 1)),
    ]
    for spec, c1, c2 in wrong_counts:
        bad = c1 if len(c1) != len(spec.dims) else c2
        message = f"expected {len(spec.dims)} coordinates, got {bad!r}"
        with pytest.raises(NodeIndexError, match=re.escape(message)):
            resistance(spec, c1, c2)
