"""Closed-form two-point resistances for regular lattices.

Seven wrap conventions are supported: free and periodic chains, and the
free, periodic (torus), cylindrical, twisted (Moebius-strip), and
twisted-plus-periodic (Klein-bottle) rectangular grids, plus the free
cubic grid.  Each closed form sums analytic eigenmodes of the lattice
Laplacian instead of diagonalizing numerically; the generators emit the
explicit edge lists so the exact and spectral solvers can cross-check
every value.

Nodes are indexed x + M*y + M*N*z with x fastest.  Wrapping a length-1
or length-2 axis produces self-loops (dropped) or parallel edges (kept).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import (
    NodeIndexError,
    OutOfRangeError,
    ParseError,
)
from .network import Network, Resistance, _check_resistance, _to_float, build_network


class BoundaryCondition(Enum):
    FREE_1D = "free1d"
    PERIODIC_1D = "periodic1d"
    FREE_2D = "free2d"
    PERIODIC_2D = "periodic2d"
    CYLINDER = "cylinder"
    MOEBIUS = "moebius"
    KLEIN = "klein"
    FREE_3D = "free3d"

    @property
    def ndim(self) -> int:
        if self in (BoundaryCondition.FREE_1D, BoundaryCondition.PERIODIC_1D):
            return 1
        if self is BoundaryCondition.FREE_3D:
            return 3
        return 2


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice geometry: node counts per axis, per-axis resistances, wrap tag.

    The first axis (length M, resistance r) is the wrapped one on the
    cylinder and the twisted one on the Moebius strip and Klein bottle;
    the Klein bottle is additionally periodic along the second axis.
    """

    dims: tuple[int, ...]
    resistances: tuple[Resistance, ...]
    bc: BoundaryCondition

    def __post_init__(self) -> None:
        if len(self.dims) != self.bc.ndim:
            raise ParseError(
                f"{self.bc.value} needs {self.bc.ndim} axis length(s), "
                f"got {self.dims!r}"
            )
        if len(self.resistances) != len(self.dims):
            raise ParseError(
                f"need one resistance per axis, got {self.resistances!r}"
            )
        if any(d < 1 for d in self.dims):
            raise ParseError(f"axis lengths must be >= 1, got {self.dims!r}")
        for r in self.resistances:
            _check_resistance(r)

    @property
    def n_nodes(self) -> int:
        return math.prod(self.dims)

    def node_index(self, coords: Sequence[int]) -> int:
        """Dense index of a coordinate tuple (x fastest)."""
        if len(coords) != len(self.dims):
            raise NodeIndexError(
                f"expected {len(self.dims)} coordinates, got {coords!r}"
            )
        index = 0
        stride = 1
        for c, d in zip(coords, self.dims):
            if not 0 <= c < d:
                raise NodeIndexError(f"coordinate {coords!r} outside {self.dims}")
            index += c * stride
            stride *= d
        return index

    def node_coords(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.n_nodes:
            raise NodeIndexError(f"index {index} outside 0..{self.n_nodes - 1}")
        coords = []
        for d in self.dims:
            coords.append(index % d)
            index //= d
        return tuple(coords)


@dataclass(frozen=True)
class LatticeMode:
    """One analytic eigenmode: axis quantum numbers, angles, eigenvalue."""

    numbers: tuple[int, ...]
    angles: tuple[float, ...]
    eigenvalue: float


@dataclass(frozen=True)
class ModeSpectrum:
    """Analytic eigenvalues of a lattice Laplacian, one entry per mode."""

    spec: LatticeSpec
    modes: tuple[LatticeMode, ...]

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(sorted(m.eigenvalue for m in self.modes))


# ---------------------------------------------------------------------------
# generators


def make_lattice(spec: LatticeSpec) -> Network:
    """Explicit edge list realizing the boundary condition."""
    bc = BoundaryCondition(spec.bc)
    if bc.ndim == 1:
        (m,) = spec.dims
        (r,) = spec.resistances
        if bc is BoundaryCondition.FREE_1D:
            edges = [(x, x + 1, r) for x in range(m - 1)]
        else:
            edges = [
                (x, (x + 1) % m, r) for x in range(m) if x != (x + 1) % m
            ]
        return build_network(m, edges)

    if bc is BoundaryCondition.FREE_3D:
        m, n, l = spec.dims
        r, s, t = spec.resistances
        edges = []
        for z in range(l):
            for y in range(n):
                for x in range(m - 1):
                    edges.append(
                        (spec.node_index((x, y, z)), spec.node_index((x + 1, y, z)), r)
                    )
        for z in range(l):
            for x in range(m):
                for y in range(n - 1):
                    edges.append(
                        (spec.node_index((x, y, z)), spec.node_index((x, y + 1, z)), s)
                    )
        for y in range(n):
            for x in range(m):
                for z in range(l - 1):
                    edges.append(
                        (spec.node_index((x, y, z)), spec.node_index((x, y, z + 1)), t)
                    )
        return build_network(spec.n_nodes, edges)

    m, n = spec.dims
    r, s = spec.resistances
    edges = []

    if bc is BoundaryCondition.FREE_2D:
        for y in range(n):
            for x in range(m - 1):
                edges.append((spec.node_index((x, y)), spec.node_index((x + 1, y)), r))
    elif bc in (BoundaryCondition.PERIODIC_2D, BoundaryCondition.CYLINDER):
        for y in range(n):
            for x in range(m):
                a = spec.node_index((x, y))
                b = spec.node_index(((x + 1) % m, y))
                if a != b:
                    edges.append((a, b, r))
    else:  # Moebius strip / Klein bottle: wrap with a flip of the width axis
        for y in range(n):
            for x in range(m - 1):
                edges.append((spec.node_index((x, y)), spec.node_index((x + 1, y)), r))
            a = spec.node_index((m - 1, y))
            b = spec.node_index((0, n - 1 - y))
            if a != b:
                edges.append((a, b, r))

    if bc in (BoundaryCondition.PERIODIC_2D, BoundaryCondition.KLEIN):
        for x in range(m):
            for y in range(n):
                a = spec.node_index((x, y))
                b = spec.node_index((x, (y + 1) % n))
                if a != b:
                    edges.append((a, b, s))
    else:
        for x in range(m):
            for y in range(n - 1):
                edges.append((spec.node_index((x, y)), spec.node_index((x, y + 1)), s))

    return build_network(spec.n_nodes, edges)


# ---------------------------------------------------------------------------
# trigonometric axis sums


def f_sum(n_nodes: int, ell: int) -> float:
    """Free-chain lattice sum: (1/N) sum (1-cos(l a_k))/(1-cos a_k).

    Closed form |l| - ((l^2+|l|)/2 - floor(|l|/2))/N, valid after reducing
    l into [0, 2N) where the defining sum is periodic.
    """
    if n_nodes < 1:
        raise OutOfRangeError(f"need N >= 1, got {n_nodes}")
    ell = abs(ell) % (2 * n_nodes)
    return ell - ((ell * ell + ell) / 2 - ell // 2) / n_nodes


def g_sum(n_nodes: int, ell: int) -> float:
    """Ring lattice sum: closed form |l| - l^2/N on the reduced offset."""
    if n_nodes < 1:
        raise OutOfRangeError(f"need N >= 1, got {n_nodes}")
    ell = abs(ell) % n_nodes
    return ell - ell * ell / n_nodes


# ---------------------------------------------------------------------------
# closed forms


def _compensated(axis_terms: list[float], modes: list[tuple[float, float]]) -> float:
    """Sum axis terms plus per-mode terms, largest eigenvalue first."""
    modes.sort(key=lambda t: (-t[0], t[1]))
    return math.fsum(axis_terms + [c for _, c in modes])


def _check_range(value: int, limit: int, what: str) -> None:
    if not 0 <= value < limit:
        raise NodeIndexError(f"{what}={value} outside 0..{limit - 1}")


def r_1d_free(n_nodes: int, r: float, x1: int, x2: int) -> float:
    """Chain of series resistors: r |x1 - x2|."""
    _check_range(x1, n_nodes, "x1")
    _check_range(x2, n_nodes, "x2")
    return float(r) * abs(x1 - x2)


def r_1d_periodic(n_nodes: int, r: float, x1: int, x2: int) -> float:
    """Ring: the two arcs d*r and (N-d)*r in parallel."""
    _check_range(x1, n_nodes, "x1")
    _check_range(x2, n_nodes, "x2")
    d = abs(x1 - x2)
    return float(r) * d * (1 - d / n_nodes)


def r_2d_free(
    m: int,
    n: int,
    r: float,
    s: float,
    p1: tuple[int, int],
    p2: tuple[int, int],
) -> float:
    """Free MxN grid; depends on both endpoints, not just their offset."""
    x1, y1 = p1
    x2, y2 = p2
    _check_range(x1, m, "x1"), _check_range(x2, m, "x2")
    _check_range(y1, n, "y1"), _check_range(y2, n, "y2")
    r = float(r)
    s = float(s)
    axis = [r * abs(x1 - x2) / n, s * abs(y1 - y2) / m]
    modes: list[tuple[float, float]] = []
    for mm in range(1, m):
        theta = mm * math.pi / m
        cx1 = math.cos((x1 + 0.5) * theta)
        cx2 = math.cos((x2 + 0.5) * theta)
        dx_part = (1 - math.cos(theta)) / r
        for nn in range(1, n):
            phi = nn * math.pi / n
            num = (cx1 * math.cos((y1 + 0.5) * phi) - cx2 * math.cos((y2 + 0.5) * phi)) ** 2
            den = dx_part + (1 - math.cos(phi)) / s
            modes.append((2 * den, 2 * num / (m * n * den)))
    return _compensated(axis, modes)


def r_2d_periodic(
    m: int,
    n: int,
    r: float,
    s: float,
    p1: tuple[int, int],
    p2: tuple[int, int],
) -> float:
    """Torus; depends only on the coordinate differences."""
    x1, y1 = p1
    x2, y2 = p2
    _check_range(x1, m, "x1"), _check_range(x2, m, "x2")
    _check_range(y1, n, "y1"), _check_range(y2, n, "y2")
    r = float(r)
    s = float(s)
    dx = x1 - x2
    dy = y1 - y2
    axis = [r * g_sum(m, dx) / n, s * g_sum(n, dy) / m]
    modes: list[tuple[float, float]] = []
    for mm in range(1, m):
        theta = mm * math.pi / m
        dx_part = (1 - math.cos(2 * theta)) / r
        for nn in range(1, n):
            phi = nn * math.pi / n
            num = 1 - math.cos(2 * dx * theta + 2 * dy * phi)
            den = dx_part + (1 - math.cos(2 * phi)) / s
            modes.append((2 * den, num / (m * n * den)))
    return _compensated(axis, modes)


def r_2d_cylinder(
    m: int,
    n: int,
    r: float,
    s: float,
    p1: tuple[int, int],
    p2: tuple[int, int],
) -> float:
    """Cylinder: periodic along the length M, free across the width N."""
    x1, y1 = p1
    x2, y2 = p2
    _check_range(x1, m, "x1"), _check_range(x2, m, "x2")
    _check_range(y1, n, "y1"), _check_range(y2, n, "y2")
    r = float(r)
    s = float(s)
    dx = x1 - x2
    axis = [r * g_sum(m, dx) / n, s * abs(y1 - y2) / m]
    modes: list[tuple[float, float]] = []
    for mm in range(1, m):
        theta = mm * math.pi / m
        cos_run = math.cos(2 * dx * theta)
        dx_part = (1 - math.cos(2 * theta)) / r
        for nn in range(1, n):
            phi = nn * math.pi / n
            c1 = math.cos((y1 + 0.5) * phi)
            c2 = math.cos((y2 + 0.5) * phi)
            num = c1 * c1 + c2 * c2 - 2 * c1 * c2 * cos_run
            den = dx_part + (1 - math.cos(phi)) / s
            modes.append((2 * den, num / (m * n * den)))
    return _compensated(axis, modes)


def r_2d_moebius(
    m: int,
    n: int,
    r: float,
    s: float,
    p1: tuple[int, int],
    p2: tuple[int, int],
) -> float:
    """Moebius strip: length axis wrapped onto the flipped width axis.

    Longitudinal modes split by transverse parity: even modes run at the
    periodic angles 2*m*pi/M, odd ones at the antiperiodic (2m+1)*pi/M.
    """
    x1, y1 = p1
    x2, y2 = p2
    _check_range(x1, m, "x1"), _check_range(x2, m, "x2")
    _check_range(y1, n, "y1"), _check_range(y2, n, "y2")
    r = float(r)
    s = float(s)
    dx = x1 - x2
    axis = [r * g_sum(m, dx) / n]
    modes: list[tuple[float, float]] = []
    for nn in range(1, n):
        phi = nn * math.pi / n
        c1 = math.cos((y1 + 0.5) * phi)
        c2 = math.cos((y2 + 0.5) * phi)
        dy_part = (1 - math.cos(phi)) / s
        for mm in range(m):
            omega = (4 * mm + 1 - (-1) ** nn) * math.pi / (2 * m)
            num = c1 * c1 + c2 * c2 - 2 * c1 * c2 * math.cos(dx * omega)
            den = (1 - math.cos(omega)) / r + dy_part
            modes.append((2 * den, num / (m * n * den)))
    return _compensated(axis, modes)


def klein_parity(n: int, nn: int) -> int:
    """Longitudinal twist sector (0 periodic, 1 antiperiodic) of width mode nn."""
    return 0 if nn <= (n - 1) // 2 else 1


def klein_transverse_factor(n: int, nn: int, y: int) -> float:
    """Orthonormal width-mode component on the periodic-with-flip axis."""
    if nn == 0:
        return 1 / math.sqrt(n)
    if nn <= (n - 1) // 2:
        return math.sqrt(2 / n) * math.cos((2 * y + 1) * nn * math.pi / n)
    if n % 2 == 0 and nn == n // 2:
        return (-1) ** y / math.sqrt(n)
    return math.sqrt(2 / n) * math.sin((2 * y + 1) * nn * math.pi / n)


def _klein_modes(
    m: int,
    n: int,
    r: float,
    s: float,
    p1: tuple[int, int],
    p2: tuple[int, int],
    widths: range,
) -> list[tuple[float, float]]:
    x1, y1 = p1
    x2, y2 = p2
    dx = x1 - x2
    modes: list[tuple[float, float]] = []
    for nn in widths:
        tau = klein_parity(n, nn)
        a = klein_transverse_factor(n, nn, y1)
        b = klein_transverse_factor(n, nn, y2)
        dy_part = 2 * (1 - math.cos(2 * nn * math.pi / n)) / s
        for mm in range(m):
            omega = (2 * mm + tau) * math.pi / m
            lam = 2 * (1 - math.cos(omega)) / r + dy_part
            num = a * a + b * b - 2 * a * b * math.cos(dx * omega)
            modes.append((lam, num / (m * lam)))
    return modes


def r_2d_klein(
    m: int,
    n: int,
    r: float,
    s: float,
    p1: tuple[int, int],
    p2: tuple[int, int],
) -> float:
    """Klein bottle: twisted along the length, periodic across the width."""
    x1, y1 = p1
    x2, y2 = p2
    _check_range(x1, m, "x1"), _check_range(x2, m, "x2")
    _check_range(y1, n, "y1"), _check_range(y2, n, "y2")
    r = float(r)
    s = float(s)
    axis = [r * g_sum(m, x1 - x2) / n]
    modes = _klein_modes(m, n, r, s, p1, p2, range(1, n))
    return _compensated(axis, modes)


def r_3d_free(
    m: int,
    n: int,
    l: int,
    r: float,
    s: float,
    t: float,
    p1: tuple[int, int, int],
    p2: tuple[int, int, int],
) -> float:
    """Free MxNxL grid: triple mode sum plus planar and axis corrections.

    The planar terms reuse the 2D closed form once per coordinate plane;
    the singly-counted axis pieces are then removed.
    """
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    _check_range(x1, m, "x1"), _check_range(x2, m, "x2")
    _check_range(y1, n, "y1"), _check_range(y2, n, "y2")
    _check_range(z1, l, "z1"), _check_range(z2, l, "z2")
    r = float(r)
    s = float(s)
    t = float(t)
    axis = [
        r_2d_free(m, n, r, s, (x1, y1), (x2, y2)) / l,
        r_2d_free(n, l, s, t, (y1, z1), (y2, z2)) / m,
        r_2d_free(l, m, t, r, (z1, x1), (z2, x2)) / n,
        -r_1d_free(m, r, x1, x2) / (n * l),
        -r_1d_free(n, s, y1, y2) / (l * m),
        -r_1d_free(l, t, z1, z2) / (m * n),
    ]
    modes: list[tuple[float, float]] = []
    for mm in range(1, m):
        theta = mm * math.pi / m
        fx1 = math.cos((x1 + 0.5) * theta)
        fx2 = math.cos((x2 + 0.5) * theta)
        dx_part = (1 - math.cos(theta)) / r
        for nn in range(1, n):
            phi = nn * math.pi / n
            fy1 = math.cos((y1 + 0.5) * phi)
            fy2 = math.cos((y2 + 0.5) * phi)
            dy_part = (1 - math.cos(phi)) / s
            for ll in range(1, l):
                alpha = ll * math.pi / l
                fz1 = math.cos((z1 + 0.5) * alpha)
                fz2 = math.cos((z2 + 0.5) * alpha)
                num = (fx1 * fy1 * fz1 - fx2 * fy2 * fz2) ** 2
                den = dx_part + dy_part + (1 - math.cos(alpha)) / t
                modes.append((2 * den, 4 * num / (m * n * l * den)))
    return _compensated(axis, modes)


def resistance(spec: LatticeSpec, c1: Sequence[int], c2: Sequence[int]) -> float:
    """Closed-form resistance between two coordinate tuples."""
    bc = BoundaryCondition(spec.bc)
    res = tuple(_to_float(r) for r in spec.resistances)
    if bc is BoundaryCondition.FREE_1D:
        return r_1d_free(spec.dims[0], res[0], c1[0], c2[0])
    if bc is BoundaryCondition.PERIODIC_1D:
        return r_1d_periodic(spec.dims[0], res[0], c1[0], c2[0])
    if bc is BoundaryCondition.FREE_2D:
        return r_2d_free(*spec.dims, *res, tuple(c1), tuple(c2))
    if bc is BoundaryCondition.PERIODIC_2D:
        return r_2d_periodic(*spec.dims, *res, tuple(c1), tuple(c2))
    if bc is BoundaryCondition.CYLINDER:
        return r_2d_cylinder(*spec.dims, *res, tuple(c1), tuple(c2))
    if bc is BoundaryCondition.MOEBIUS:
        return r_2d_moebius(*spec.dims, *res, tuple(c1), tuple(c2))
    if bc is BoundaryCondition.KLEIN:
        return r_2d_klein(*spec.dims, *res, tuple(c1), tuple(c2))
    return r_3d_free(*spec.dims, *res, tuple(c1), tuple(c2))


# ---------------------------------------------------------------------------
# analytic spectra


def _eig(parts: list[tuple[float, float]]) -> float:
    """Eigenvalue from per-axis (angle, resistance) contributions."""
    return math.fsum(2 * (1 - math.cos(a)) / r for a, r in parts)


def mode_spectrum(spec: LatticeSpec) -> ModeSpectrum:
    """Analytic eigenmodes; multiset-equal to the numeric spectrum."""
    bc = BoundaryCondition(spec.bc)
    res = tuple(float(r) for r in spec.resistances)
    modes: list[LatticeMode] = []

    if bc.ndim == 1:
        (m,) = spec.dims
        double = 2 if bc is BoundaryCondition.PERIODIC_1D else 1
        for mm in range(m):
            angle = double * mm * math.pi / m
            modes.append(LatticeMode((mm,), (angle,), _eig([(angle, res[0])])))
        return ModeSpectrum(spec, tuple(modes))

    if bc is BoundaryCondition.FREE_3D:
        m, n, l = spec.dims
        for mm in range(m):
            for nn in range(n):
                for ll in range(l):
                    angles = (
                        mm * math.pi / m,
                        nn * math.pi / n,
                        ll * math.pi / l,
                    )
                    lam = _eig(list(zip(angles, res)))
                    modes.append(LatticeMode((mm, nn, ll), angles, lam))
        return ModeSpectrum(spec, tuple(modes))

    m, n = spec.dims
    for mm in range(m):
        for nn in range(n):
            if bc is BoundaryCondition.FREE_2D:
                angles = (mm * math.pi / m, nn * math.pi / n)
            elif bc is BoundaryCondition.PERIODIC_2D:
                angles = (2 * mm * math.pi / m, 2 * nn * math.pi / n)
            elif bc is BoundaryCondition.CYLINDER:
                angles = (2 * mm * math.pi / m, nn * math.pi / n)
            elif bc is BoundaryCondition.MOEBIUS:
                angles = (
                    (4 * mm + 1 - (-1) ** nn) * math.pi / (2 * m),
                    nn * math.pi / n,
                )
            else:  # Klein bottle
                angles = (
                    (2 * mm + klein_parity(n, nn)) * math.pi / m,
                    2 * nn * math.pi / n,
                )
            lam = _eig(list(zip(angles, res)))
            modes.append(LatticeMode((mm, nn), angles, lam))
    return ModeSpectrum(spec, tuple(modes))
