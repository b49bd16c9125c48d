"""Finite resistor networks: validation, Laplacian assembly, random-walk view.

A network is a weighted undirected multigraph on densely indexed nodes
0..n_nodes-1.  Edge weights are resistances in ohms; parallel edges are
legal and their conductances add when the Laplacian is assembled.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence, Union

from .errors import (
    DisconnectedNetworkError,
    NodeIndexError,
    NonPositiveResistanceError,
    OutOfRangeError,
    SameNodeError,
    SelfLoopError,
)

if TYPE_CHECKING:
    import numpy as np

Resistance = Union[int, float, Fraction]
Edge = tuple[int, int, Resistance]


class Network(NamedTuple):
    """Immutable resistor network; build through :func:`build_network`."""

    n_nodes: int
    edges: tuple[Edge, ...]

    def neighbors(self) -> list[set[int]]:
        """Adjacency sets (parallel edges collapse; self-loops are illegal)."""
        adj: list[set[int]] = [set() for _ in range(self.n_nodes)]
        for i, j, _ in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj


class Laplacian(NamedTuple):
    """Dense symmetric Kirchhoff matrix with exactly-zero row sums.

    ``components`` is the number of connected components of the network
    the matrix was assembled from.
    """

    n: int
    matrix: np.ndarray
    components: int


class RandomWalkView(NamedTuple):
    """Hop probabilities p[i, j] = c_ij / c_i and coordination numbers."""

    hop_probabilities: np.ndarray
    degrees: tuple[int, ...]


def _check_resistance(value: Resistance) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise NonPositiveResistanceError(f"resistance must be finite, got {value!r}")
    if value <= 0:
        raise NonPositiveResistanceError(f"resistance must be > 0, got {value!r}")


# A float route takes a nonzero magnitude only inside 2**-1021 .. 2**1021,
# where the value and its reciprocal are both finite, normal floats.
_FLOAT_EXP_LIMIT = 1020
_FLOAT_MIN = 2.0 ** -(_FLOAT_EXP_LIMIT + 1)
_FLOAT_MAX = 2.0 ** (_FLOAT_EXP_LIMIT + 1)


def _to_float(value: Resistance) -> float:
    """``value`` as a float; OutOfRangeError outside the float range.

    Zero passes.  Any other magnitude must lie inside 2**-1021 .. 2**1021:
    beyond it a float route would overflow, or divide by a value that
    underflowed to zero.  Ints and Fractions are judged by the bit lengths
    of numerator and denominator, so the check itself does no division.
    """
    if isinstance(value, float):
        if value == 0.0 or _FLOAT_MIN < abs(value) < _FLOAT_MAX:
            return value
        shown = repr(value)
    else:
        bits = abs(value.numerator).bit_length() - value.denominator.bit_length()
        if abs(bits) <= _FLOAT_EXP_LIMIT:
            return float(value)
        shown = f"of magnitude about 2**{bits}"
    raise OutOfRangeError(
        f"value {shown} outside the float range 2**-1021 .. 2**1021"
    )


def _check_nodes(net: Network, *nodes: int) -> None:
    for node in nodes:
        if not 0 <= node < net.n_nodes:
            raise NodeIndexError(f"node {node} outside 0..{net.n_nodes - 1}")


def _check_pair(
    alpha: int, beta: int, labels: Sequence[int] | None = None, query: str = "resistance query"
) -> None:
    """Two distinct nodes, in one component by ``labels`` (connectivity_check's);
    a lattice is connected, so its pair is checked without them, before building.
    ``query`` names the caller's query in the same-node message."""
    if alpha == beta:
        raise SameNodeError(f"{query} needs two distinct nodes")
    if labels is not None and labels[alpha] != labels[beta]:
        raise DisconnectedNetworkError(
            f"nodes {alpha} and {beta} lie in different components"
        )


def build_network(n_nodes: int, edges: Iterable[Sequence]) -> Network:
    """Validate and freeze a resistor network.

    Raises NodeIndexError, SelfLoopError, or NonPositiveResistanceError on
    bad input.  Parallel edges are preserved verbatim.
    """
    if n_nodes < 1:
        raise NodeIndexError(f"need at least one node, got {n_nodes}")
    out: list[Edge] = []
    for edge in edges:
        i, j, r = edge
        if not (0 <= i < n_nodes and 0 <= j < n_nodes):
            raise NodeIndexError(f"edge ({i}, {j}) outside 0..{n_nodes - 1}")
        if i == j:
            raise SelfLoopError(f"self-loop at node {i}")
        _check_resistance(r)
        out.append((int(i), int(j), r))
    return Network(n_nodes=int(n_nodes), edges=tuple(out))


def merged_conductances(net: Network) -> dict[tuple[int, int], float]:
    """Total conductance per unordered node pair, parallel edges added.

    Each pair's conductances are combined with exact float summation, so the
    result does not depend on edge-list order.  OutOfRangeError where a
    pair's total passes the largest float.
    """
    groups: dict[tuple[int, int], list[float]] = {}
    for i, j, r in net.edges:
        key = (i, j) if i < j else (j, i)
        groups.setdefault(key, []).append(1.0 / _to_float(r))
    try:
        return {key: math.fsum(vals) for key, vals in groups.items()}
    except OverflowError as err:
        raise OutOfRangeError(
            "conductance of parallel edges outside the float range"
        ) from err


def assemble_laplacian(net: Network) -> Laplacian:
    """Assemble the dense symmetric Laplacian (conductance matrix).

    diag(i) holds the total conductance at node i and offdiag(i, j) holds
    -c_ij, so every row sums to zero exactly up to one float rounding of
    the diagonal.  OutOfRangeError where a node's total conductance passes
    the largest float.
    """
    import numpy as np  # deferred: only the float graph route needs arrays

    n = net.n_nodes
    mat = np.zeros((n, n))
    rows: list[list[float]] = [[] for _ in range(n)]
    for (i, j), c in sorted(merged_conductances(net).items()):
        mat[i, j] = -c
        mat[j, i] = -c
        rows[i].append(c)
        rows[j].append(c)
    try:
        for i in range(n):
            mat[i, i] = math.fsum(rows[i])
    except OverflowError as err:
        raise OutOfRangeError(f"conductance at node {i} outside the float range") from err
    mat.setflags(write=False)
    return Laplacian(n=n, matrix=mat, components=connectivity_check(net)[0])


def connectivity_check(net: Network) -> tuple[int, tuple[int, ...]]:
    """Label connected components; returns (count, label per node)."""
    labels = [-1] * net.n_nodes
    adj = net.neighbors()
    count = 0
    for start in range(net.n_nodes):
        if labels[start] != -1:
            continue
        queue = deque([start])
        labels[start] = count
        while queue:
            node = queue.popleft()
            for other in adj[node]:
                if labels[other] == -1:
                    labels[other] = count
                    queue.append(other)
        count += 1
    return count, tuple(labels)


def random_walk_view(net: Network) -> RandomWalkView:
    """Hop probabilities of the walker that picks edges by conductance."""
    import numpy as np  # deferred, as in assemble_laplacian

    n = net.n_nodes
    cond = np.zeros((n, n))
    for (i, j), c in merged_conductances(net).items():
        cond[i, j] = c
        cond[j, i] = c
    totals = cond.sum(axis=1)
    hop = np.zeros((n, n))
    nz = totals > 0
    hop[nz] = cond[nz] / totals[nz, None]
    hop.setflags(write=False)
    degrees = tuple(len(s) for s in net.neighbors())
    return RandomWalkView(hop_probabilities=hop, degrees=degrees)


def node_conductance(net: Network, node: int) -> float:
    """Total conductance c_i attached to a node.

    OutOfRangeError where an edge or the total leaves the float range.
    """
    _check_nodes(net, node)
    try:
        return math.fsum(
            1.0 / _to_float(r) for i, j, r in net.edges if node in (i, j)
        )
    except OverflowError as err:
        raise OutOfRangeError(
            f"conductance at node {node} outside the float range"
        ) from err


def first_passage_probability(
    net: Network, alpha: int, beta: int, resistance: float
) -> float:
    """Probability a walker from alpha reaches beta before returning.

    Equals 1 / (c_alpha * R_alpha_beta); for unit resistances the node
    conductance is the coordination number.
    """
    _check_nodes(net, alpha, beta)
    _check_pair(alpha, beta, connectivity_check(net)[1], "first-passage probability")
    if isinstance(resistance, float) and not math.isfinite(resistance):
        raise NonPositiveResistanceError(
            f"two-point resistance must be finite, got {resistance!r}"
        )
    if resistance <= 0:
        raise NonPositiveResistanceError(
            f"two-point resistance must be > 0, got {resistance!r}"
        )
    product = node_conductance(net, alpha) * _to_float(resistance)
    if not _FLOAT_MIN < product < _FLOAT_MAX:
        raise OutOfRangeError(
            f"c_alpha * R = {product!r} outside the float range 2**-1021 .. 2**1021"
        )
    return 1.0 / product
