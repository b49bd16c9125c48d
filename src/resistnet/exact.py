"""Exact two-point resistance by rational solution of the Kirchhoff equations.

The grounded Laplacian is scaled to a sparse integer matrix and reduced by
fraction-free (Bareiss) elimination in minimum-degree order: each step
touches only the entries its pivot changes, and every intermediate is an
exact integer minor.  With the query node eliminated last, the last two
pivots are the two determinants of Wu's cofactor formula, and their ratio
is the resistance in lowest terms.  No route carries a right-hand side:
the table rebuilds the grounded inverse from the pivot rows alone, by
Takahashi's recurrence, and the potentials are one column of it.  A float
resistance enters as the exact Fraction of its binary value.

The bottom of the module pins the golden reference table: the named
benchmark networks with their known exact resistances, solved and checked
in one call.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .errors import DisconnectedNetworkError, SingularSystemError
from .network import Network, _check_nodes, _check_pair, build_network, connectivity_check

if TYPE_CHECKING:
    from .lattice import LatticeSpec

# Arbitrary-precision fraction used throughout the oracle.
ExactRational = Fraction


class KirchhoffSystem(NamedTuple):
    """Solution of the grounded Kirchhoff system for one resistance query.

    ``potentials`` covers every node, with the grounded node beta pinned to
    zero and unit current injected at alpha and drawn at beta.
    """

    alpha: int
    beta: int
    potentials: tuple[Fraction, ...]

    @property
    def resistance(self) -> Fraction:
        return self.potentials[self.alpha]


def _merged_conductances(net: Network) -> dict[tuple[int, int], tuple[int, int]]:
    """Merged conductance per unordered pair, as (numerator, denominator).

    A resistance in lowest terms has for reciprocal the same two integers
    swapped: an int r gives (1, r) and a Fraction p/q gives (q, p), with no
    Fraction built; a float, finite by build_network, goes through Fraction
    first.  Parallel edges are added and reduced by their gcd, so every
    merged pair is in lowest terms too.
    """
    merged: dict[tuple[int, int], tuple[int, int]] = {}
    for i, j, r in net.edges:
        key = (i, j) if i < j else (j, i)
        kind = type(r)
        if kind is int:
            num, den = 1, r
        else:
            q = r if kind is Fraction else Fraction(r)
            num, den = q.denominator, q.numerator
        old = merged.get(key)
        if old is not None:
            num, den = old[0] * den + num * old[1], old[1] * den
            g = math.gcd(num, den)
            num, den = num // g, den // g
        merged[key] = (num, den)
    return merged


def rational_conductances(net: Network) -> dict[tuple[int, int], Fraction]:
    """Merged conductance per unordered pair, exact."""
    return {key: Fraction(*c) for key, c in _merged_conductances(net).items()}


def rational_laplacian(net: Network) -> list[list[Fraction]]:
    """Exact Kirchhoff matrix; rows sum to zero identically."""
    n = net.n_nodes
    lap = [[Fraction(0) for _ in range(n)] for _ in range(n)]
    for (i, j), c in rational_conductances(net).items():
        lap[i][j] -= c
        lap[j][i] -= c
        lap[i][i] += c
        lap[j][j] += c
    return lap


def _integer_grounded_rows(
    net: Network, nodes: list[int]
) -> tuple[dict[int, dict[int, int]], int]:
    """scale * L restricted to ``nodes``, one ``{column: entry}`` row per node.

    Every node left out acts as ground.  The scale is the LCM of the
    denominators of the conductances touching ``nodes``, so every entry is
    an integer.
    """
    rows: dict[int, dict[int, int]] = {node: {} for node in nodes}
    touching = [
        (i, j, num, den)
        for (i, j), (num, den) in _merged_conductances(net).items()
        if i in rows or j in rows
    ]
    scale = math.lcm(*(den for _, _, _, den in touching))
    for i, j, num, den in touching:
        weight = num * (scale // den)
        for a, b in ((i, j), (j, i)):
            row = rows.get(a)
            if row is not None:
                row[a] = row.get(a, 0) + weight
                if b in rows:
                    row[b] = -weight
    return rows, scale


def _eliminate(
    rows: dict[int, dict[int, int]], last: int | None = None
) -> Iterator[tuple[int, int, list[tuple[int, int]]]]:
    """Forward-eliminate the symmetric integer matrix ``rows``.

    Sparse Bareiss elimination: after step t every stored entry is the
    integer minor a^(t) on the first t pivots, and the pivot d_t is a
    leading principal minor, positive for a grounded Laplacian.  The pivot
    is the alive row with the fewest entries; among those, the row updated
    last goes first, as in the degree lists of multiple minimum degree
    (Liu 1985) and AMD, and rows never updated follow by lowest node.  Row
    ``last`` waits until every other row is gone.  Step t updates only the
    pivot's neighbours at its columns, a^(t) = (d_t a^(t-1) - f g) / d_(t-1).
    An entry the pivot does not touch only gains the factor d_t / d_(t-1),
    so each entry keeps the step s at which it was last set and is brought
    up to date on reading as a d_(t-1) // d_s, an exact division because
    both sides are minors.

    Yields one ``(node, d_t, row)`` per step: the pivot row's
    ``(column, entry)`` pairs at the later nodes, up to date at step t - 1.
    The last pivot is det(rows).  Nothing is kept once yielded.
    """
    mat = {i: {j: (a, 0) for j, a in row.items()} for i, row in rows.items()}
    pivots = [1]  # pivots[t] = d_t, the pivot of step t; d_0 = 1
    # heap key (size, -stamp, node): the stamp counts pushes
    heap = [(len(row), 0, node) for node, row in mat.items() if node != last]
    heapq.heapify(heap)
    stamp = 0
    while mat:
        if heap:
            size, _, k = heapq.heappop(heap)
            if k not in mat or len(mat[k]) != size:
                continue  # stale heap entry
        else:
            k = last  # every other row is gone
        step = len(pivots)
        prev, stale = pivots[-1], step - 1
        zero = (0, stale)  # an entry not stored, up to date at step - 1
        row = mat.pop(k)
        p, s = row.pop(k)
        if s != stale:
            p = p * prev // pivots[s]
        if p == 0:
            raise SingularSystemError(f"zero pivot at node {k}")
        nbrs = [
            (j, a if s == stale else a * prev // pivots[s]) for j, (a, s) in row.items()
        ]
        for n, (i, f) in enumerate(nbrs):
            row_i = mat[i]
            del row_i[k]
            for j, g in nbrs[n:]:
                a, s = row_i.get(j, zero)
                if s != stale:
                    a = a * prev // pivots[s]
                row_i[j] = mat[j][i] = ((p * a - f * g) // prev, step)
            if i != last:
                stamp += 1
                heapq.heappush(heap, (len(row_i), -stamp, i))
        pivots.append(p)
        yield k, p, nbrs


def _query_component(net: Network, alpha: int, beta: int) -> list[int]:
    """The nodes of the query's component other than beta, checked."""
    _check_nodes(net, alpha, beta)
    labels = connectivity_check(net)[1]
    _check_pair(alpha, beta, labels)
    return [k for k in range(net.n_nodes) if k != beta and labels[k] == labels[alpha]]


def solve_kirchhoff(net: Network, alpha: int, beta: int) -> KirchhoffSystem:
    """Ground beta, inject unit current at alpha, solve exactly.

    With alpha eliminated last, y = det * potentials is column alpha of
    Y = det * G (see exact_resistance_matrix).  Takahashi's recurrence reads
    it bottom-up from y_alpha = scale d_(m-1): y_k = -(sum_j a_kj y_j) / d_k.
    """
    # The solve runs on the query's component; any other component keeps
    # potential 0, which satisfies its (currentless) equations.
    active = _query_component(net, alpha, beta)
    rows, scale = _integer_grounded_rows(net, active)
    steps = list(_eliminate(rows, last=alpha))
    det = steps[-1][1]
    minor = steps[-2][1] if len(steps) > 1 else 1
    y = {alpha: scale * minor}
    for k, p, row in reversed(steps[:-1]):
        y[k] = -sum(u * y[j] for j, u in row) // p

    potentials = [Fraction(0)] * net.n_nodes
    for node in active:
        potentials[node] = Fraction(y[node], det)
    return KirchhoffSystem(alpha=alpha, beta=beta, potentials=tuple(potentials))


def solve_exact(net: Network, alpha: int, beta: int) -> Fraction:
    """Exact two-point resistance in lowest terms.

    With beta grounded and alpha eliminated last, the last two pivots
    d_(m-1) and d_m are the determinants of scale * L without and with
    alpha's row and column, so R = scale d_(m-1) / d_m is Wu's cofactor
    ratio |L^(alpha beta)| / |L^(beta)|.  No potential is computed.
    """
    rows, scale = _integer_grounded_rows(net, _query_component(net, alpha, beta))
    minor = det = 1
    for _, p, _ in _eliminate(rows, last=alpha):
        minor, det = det, p
    return Fraction(scale * minor, det)


def exact_resistance_matrix(net: Network) -> list[list[Fraction]]:
    """All-pairs exact resistance from one grounded matrix inversion.

    With G the inverse of the Laplacian grounded at node 0,
    R(a, b) = G[a][a] + G[b][b] - 2 G[a][b] (index 0 rows/columns read 0).
    Y = det * G is rebuilt from the pivot rows alone by Takahashi's
    recurrence (Takahashi, Fagan & Chin 1973), bottom-up: row k at each
    node c eliminated after k, then at k itself,

        y_kc = -(sum_j a_kj y_jc) / d_k
        y_kk = (det * scale * d_(k-1) - sum_j a_kj y_jk) / d_k,

    the sums running over the pivot row's later nodes j, every one of
    whose entries is already known.  Each y_kc is stored in both triangles.
    """
    n_comp, _ = connectivity_check(net)
    if n_comp != 1:
        raise DisconnectedNetworkError("all-pairs table needs a connected network")
    n = net.n_nodes
    if n == 1:
        return [[Fraction(0)]]
    rows, scale = _integer_grounded_rows(net, list(range(1, n)))
    steps = list(_eliminate(rows))
    det = steps[-1][1]
    y = [[0] * n for _ in range(n)]  # row and column 0, the ground, stay 0
    later: list[int] = []
    for t in range(len(steps) - 1, -1, -1):
        k, p, row = steps[t]
        y_k = y[k]
        for c in later:
            y_c = y[c]
            y_k[c] = y_c[k] = -sum(u * y_c[j] for j, u in row) // p
        minor = steps[t - 1][1] if t else 1
        y_k[k] = (det * scale * minor - sum(u * y_k[j] for j, u in row)) // p
        later.append(k)

    zero = Fraction(0)
    table = [[zero] * n for _ in range(n)]
    for a in range(n):
        y_a, table_a = y[a], table[a]
        for b in range(a + 1, n):
            value = Fraction(y_a[a] + y[b][b] - 2 * y_a[b], det)
            table_a[b] = table[b][a] = value
    return table


# ---------------------------------------------------------------------------
# golden reference table


def bridge_network(r1, r2) -> Network:
    """Square of four r1 resistors with an r2 bridge across one diagonal."""
    edges = [(0, 1, r1), (1, 2, r1), (2, 3, r1), (3, 0, r1), (1, 3, r2)]
    return build_network(4, edges)


def complete_network(n: int, r) -> Network:
    """Complete graph on n nodes, resistance r on every pair."""
    edges = [(i, j, r) for i in range(n) for j in range(i + 1, n)]
    return build_network(n, edges)


def bridge_diagonal_formula(r1, r2) -> Fraction:
    """Bridge carries no current for the diagonal pair; plain r1."""
    return Fraction(r1)


def bridge_adjacent_formula(r1, r2) -> Fraction:
    """Adjacent-pair resistance of the bridged square.

    Series-parallel reduction of r1 against r1 + (r2 parallel 2*r1); the
    eigenmode sum gives the same value.
    """
    r1, r2 = Fraction(r1), Fraction(r2)
    return (r1 * (2 * r1 + 3 * r2)) / (4 * (r1 + r2))


def square_grid_corner_formula(r, s) -> Fraction:
    """Exact corner-to-corner resistance of the free 4x4 grid."""
    r, s = Fraction(r), Fraction(s)
    num = (r + s) * (r * r + 5 * r * s + s * s) * (3 * r * r + 7 * r * s + 3 * s * s)
    den = 2 * (2 * r * r + 4 * r * s + s * s) * (r * r + 4 * r * s + 2 * s * s)
    return num / den


# Exact reference values for the 5x4 grids, pair (0,0)-(3,3), unit resistance.
FREE_5X4 = Fraction(3, 4) + Fraction(3, 5) + Fraction(9877231, 27600540)
PERIODIC_5X4 = Fraction(3, 10) + Fraction(3, 20) + Fraction(1799, 7790)
# The published cylinder figure halves the mode sum's denominator; the value
# consistent with the generated lattice (exact, spectral, and closed-form
# solves all agree) is this one.
CYLINDER_5X4 = Fraction(3, 10) + Fraction(3, 5) + Fraction(5023, 17670)
CYLINDER_5X4_PUBLISHED = Fraction(3, 10) + Fraction(3, 5) + Fraction(5023, 8835)
MOEBIUS_5X4 = Fraction(3, 10) + Fraction(1609, 2698)
KLEIN_5X4 = Fraction(3, 10) + Fraction(5, 58) + Fraction(56, 209)
FREE_5X5X4 = Fraction(327687658482872, 352468567489225)


class OracleCase(NamedTuple):
    """One golden benchmark: a network, a node pair, its exact resistance.

    ``spec`` is the lattice the network was generated from, if any;
    ``description`` is the text ``resistnet reproduce`` prints for the case.
    """

    name: str
    description: str
    net: Network
    pair: tuple[int, int]
    expected: Fraction
    spec: LatticeSpec | None = None


class OracleResult(NamedTuple):
    case: OracleCase
    computed: Fraction

    @property
    def passed(self) -> bool:
        return self.computed == self.case.expected


def reference_cases() -> tuple[OracleCase, ...]:
    """The golden benchmark networks with their known exact resistances."""
    from . import lattice  # deferred: lattice imports network, not exact

    bcs = lattice.BoundaryCondition

    def grid_case(name, description, bc, dims, res, c1, c2, expected):
        spec = lattice.LatticeSpec(dims=dims, resistances=res, bc=bc)
        pair = (spec.node_index(c1), spec.node_index(c2))
        return OracleCase(
            name, description, lattice.make_lattice(spec), pair, expected, spec
        )

    r1, r2 = Fraction(1), Fraction(2)
    return (
        OracleCase(
            "example-01a",
            "4-node bridge (r1=1, r2=2), pair (0, 2)",
            bridge_network(r1, r2),
            (0, 2),
            bridge_diagonal_formula(r1, r2),
        ),
        OracleCase(
            "example-01b",
            "4-node bridge (r1=1, r2=2), pair (0, 1)",
            bridge_network(r1, r2),
            (0, 1),
            bridge_adjacent_formula(r1, r2),
        ),
        OracleCase(
            "example-02",
            "complete graph on 5 nodes, unit resistance",
            complete_network(5, 1),
            (0, 3),
            Fraction(2, 5),
        ),
        grid_case(
            "example-03",
            "free 5x4 grid, (0,0)-(3,3), unit resistance",
            bcs.FREE_2D, (5, 4), (1, 1), (0, 0), (3, 3),
            FREE_5X4,
        ),
        grid_case(
            "example-04",
            "free 4x4 grid, corner pair, r=2 s=3 vs closed formula",
            bcs.FREE_2D, (4, 4), (Fraction(2), Fraction(3)), (0, 0), (3, 3),
            square_grid_corner_formula(2, 3),
        ),
        grid_case(
            "example-06",
            "periodic 5x4, (0,0)-(3,3); offset (2,1) must agree",
            bcs.PERIODIC_2D, (5, 4), (1, 1), (0, 0), (3, 3),
            PERIODIC_5X4,
        ),
        grid_case(
            "example-07",
            "cylindrical 5x4 grid, (0,0)-(3,3), unit resistance",
            bcs.CYLINDER, (5, 4), (1, 1), (0, 0), (3, 3),
            CYLINDER_5X4,
        ),
        grid_case(
            "example-08",
            "2x2 twisted strip = complete graph, all 6 pairs",
            bcs.MOEBIUS, (2, 2), (1, 1), (0, 0), (1, 1),
            Fraction(1, 2),
        ),
        grid_case(
            "example-09",
            "twisted 5x4 strip, (0,0)-(3,3), unit resistance",
            bcs.MOEBIUS, (5, 4), (1, 1), (0, 0), (3, 3),
            MOEBIUS_5X4,
        ),
        grid_case(
            "example-10",
            "twisted-periodic 5x4 grid, (0,0)-(3,3), unit resistance",
            bcs.KLEIN, (5, 4), (1, 1), (0, 0), (3, 3),
            KLEIN_5X4,
        ),
        grid_case(
            "example-11",
            "free 5x5x4 cube, (0,0,0)-(3,3,3), unit resistance",
            bcs.FREE_3D, (5, 5, 4), (1, 1, 1), (0, 0, 0), (3, 3, 3),
            FREE_5X5X4,
        ),
    )


def solve_reference_table() -> tuple[OracleResult, ...]:
    """Solve every golden case exactly; pass/fail is exact equality."""
    return tuple(
        OracleResult(case=case, computed=solve_exact(case.net, *case.pair))
        for case in reference_cases()
    )
