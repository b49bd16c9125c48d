"""Closed-form two-point resistances for regular lattices.

Seven wrap conventions are supported: free and periodic chains, and the
free, periodic (torus), cylindrical, twisted (Moebius-strip), and
twisted-plus-periodic (Klein-bottle) rectangular grids, plus the free
cubic grid.  Each closed form sums analytic eigenmodes of the lattice
Laplacian instead of diagonalizing numerically; the generators emit the
explicit edge lists so the exact and spectral solvers can cross-check
every value.

Every lattice is a Kronecker sum of per-axis chains, so one table,
``_AXES``, gives each wrap as its axis kinds: a free chain, a ring, or a
twist.  A twist is axis 0 of a 2D grid, wrapped onto the flipped axis 1;
its modes take the periodic or antiperiodic sector from the parity of
the width mode (Tzeng & Wu, Appl. Math. Lett. 13 (2000) 19).  The number
of axes, the edge list of ``make_lattice`` and the modes of
``mode_spectrum`` are all read from that table.

Nodes are indexed x + M*y + M*N*z with x fastest.  Wrapping a length-1
or length-2 axis produces self-loops (dropped) or parallel edges (kept).
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from itertools import chain, product, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    NodeIndexError,
    OutOfRangeError,
    ParseError,
)
from .network import Network, Resistance, _check_resistance, _to_float


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
        return len(_AXES[self])


# The kind of each axis, x first: a free chain, a ring, or a twist.  A twist
# is axis 0 of a 2D grid, wrapped onto the flipped axis 1.
_AXES = {
    BoundaryCondition.FREE_1D: ("free",),
    BoundaryCondition.PERIODIC_1D: ("ring",),
    BoundaryCondition.FREE_2D: ("free", "free"),
    BoundaryCondition.PERIODIC_2D: ("ring", "ring"),
    BoundaryCondition.CYLINDER: ("ring", "free"),
    BoundaryCondition.MOEBIUS: ("twist", "free"),
    BoundaryCondition.KLEIN: ("twist", "ring"),
    BoundaryCondition.FREE_3D: ("free", "free", "free"),
}


class _LatticeSpecFields(NamedTuple):
    dims: tuple[int, ...]
    resistances: tuple[Resistance, ...]
    bc: BoundaryCondition


class LatticeSpec(_LatticeSpecFields):
    """Lattice geometry: node counts per axis, per-axis resistances, wrap tag.

    The first axis (length M, resistance r) is the wrapped one on the
    cylinder and the twisted one on the Moebius strip and Klein bottle;
    the Klein bottle is additionally periodic along the second axis.
    """

    __slots__ = ()

    def __new__(
        cls,
        dims: tuple[int, ...],
        resistances: tuple[Resistance, ...],
        bc: BoundaryCondition,
    ) -> LatticeSpec:
        if len(dims) != bc.ndim:
            raise ParseError(
                f"{bc.value} needs {bc.ndim} axis length(s), got {dims!r}"
            )
        if len(resistances) != len(dims):
            raise ParseError(f"need one resistance per axis, got {resistances!r}")
        if any(d < 1 for d in dims):
            raise ParseError(f"axis lengths must be >= 1, got {dims!r}")
        for r in resistances:
            _check_resistance(r)
        return super().__new__(cls, dims, resistances, bc)

    @classmethod
    def _make(cls, iterable) -> LatticeSpec:
        return cls(*iterable)  # so that _replace validates too

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


class LatticeMode(NamedTuple):
    """One analytic eigenmode: axis quantum numbers, angles, eigenvalue."""

    numbers: tuple[int, ...]
    angles: tuple[float, ...]
    eigenvalue: float


class ModeSpectrum(NamedTuple):
    """Analytic eigenvalues of a lattice Laplacian, one entry per mode."""

    spec: LatticeSpec
    modes: tuple[LatticeMode, ...]

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(sorted(m.eigenvalue for m in self.modes))


# ---------------------------------------------------------------------------
# generators


def make_lattice(spec: LatticeSpec) -> Network:
    """Explicit edge list realizing the boundary condition.

    Axis by axis, and line by line along it (the other coordinates in
    index order), the chain edges come first, then the line's wrap edge
    from its last node if the axis is a ring or a twist.  The edges are
    valid by construction, the resistances checked by LatticeSpec.
    """
    n_nodes = spec.n_nodes
    edges: list = []
    stride = 1
    for kind, length, res in zip(_AXES[spec.bc], spec.dims, spec.resistances):
        block = stride * length
        last = block - stride  # offset of a line's last node from its first
        for top in range(0, n_nodes, block):
            for base in range(top, top + stride):
                edges += [(i, i + stride, res) for i in range(base, base + last, stride)]
                if kind == "free":
                    continue
                # a ring closes on the line's first node; the twist on the
                # first node of the mirrored row, y -> N - 1 - y
                far = base if kind == "ring" else n_nodes - block - base
                if base + last != far:
                    edges.append((base + last, far, res))
        stride = block
    return Network(n_nodes, tuple(edges))


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
# per-axis mode tables
#
# Every closed form below sums |psi(a) - psi(b)|^2 / lambda over a Kronecker
# sum of per-axis spectra, so each angle, basis value and eigenvalue part
# depends on one axis only.  These tables hold them, one O(length) tuple per
# key.  The closed-form values are pinned to the bit, so each entry and each
# term keeps its float expression, association order included.  The caches
# are small and fixed: a long run holds a few hundred tuples at most.

_TABLE_CACHE = 64


@lru_cache(maxsize=_TABLE_CACHE)
def _chain_angles(length: int) -> tuple[float, ...]:
    """Free-chain angles theta_k = k pi / L, k = 0..L-1."""
    return tuple(k * math.pi / length for k in range(length))


@lru_cache(maxsize=_TABLE_CACHE)
def _free_basis(length: int, coord: int) -> tuple[float, ...]:
    """Free-chain basis cos((x + 1/2) theta_k), k = 1..L-1."""
    return tuple(math.cos((coord + 0.5) * w) for w in _chain_angles(length)[1:])


@lru_cache(maxsize=_TABLE_CACHE)
def _free_parts(length: int, res: float) -> tuple[float, ...]:
    """Free-chain eigenvalue parts (1 - cos theta_k) / r, k = 1..L-1."""
    return tuple((1 - math.cos(w)) / res for w in _chain_angles(length)[1:])


@lru_cache(maxsize=_TABLE_CACHE)
def _sector_angles(length: int, sector: int) -> tuple[float, ...]:
    """Ring (sector 0) or antiperiodic (sector 1) angles (2k + sector) pi / L.

    k runs over 0..L-1; the sector-0 angles are the doubled chain angles
    2 theta_k bit for bit, since doubling is exact.
    """
    return tuple((2 * k + sector) * math.pi / length for k in range(length))


@lru_cache(maxsize=_TABLE_CACHE)
def _sector_parts(length: int, res: float, sector: int, scale: int) -> tuple[float, ...]:
    """Eigenvalue parts scale * (1 - cos omega_k) / r over the sector angles."""
    return tuple(scale * (1 - math.cos(w)) / res for w in _sector_angles(length, sector))


@lru_cache(maxsize=_TABLE_CACHE)
def _sector_runs(length: int, offset: int, sector: int) -> tuple[float, ...]:
    """Run factors cos(d omega_k) of an offset d over the sector angles."""
    return tuple(math.cos(offset * w) for w in _sector_angles(length, sector))


@lru_cache(maxsize=_TABLE_CACHE)
def _klein_basis(n: int, y: int) -> tuple[float, ...]:
    """Klein width factors of coordinate y for the width modes 0..N-1."""
    return tuple(klein_transverse_factor(n, nn, y) for nn in range(n))


def _free_axis(length: int, c1: int, c2: int, res: float) -> list[tuple[float, float, float]]:
    """(basis value at c1, basis value at c2, eigenvalue part) per free-chain mode."""
    return list(zip(_free_basis(length, c1), _free_basis(length, c2), _free_parts(length, res)))


def _ring_terms(widths: Iterable, runs: tuple, parts: tuple, scale: int) -> Iterator[float]:
    """Terms (a^2 + b^2 - 2ab cos(d omega)) / (scale (lambda_l + lambda_w)).

    The length axis is a ring, twisted or not: runs and parts hold its run
    factors and eigenvalue parts per sector.  widths yields (a, b, width
    part, sector) per width mode, a and b the width basis values at the two
    endpoints.
    """
    return (
        (sq - cross * run) / (scale * (part + dy))
        for a, b, dy, sector in widths
        for sq, cross in [(a * a + b * b, 2 * a * b)]
        for run, part in zip(runs[sector], parts[sector])
    )


# ---------------------------------------------------------------------------
# closed forms


def _check_points(dims: Sequence[int], p1: Sequence[int], p2: Sequence[int]) -> None:
    """Both endpoints inside the lattice, checked x1, x2, y1, y2, z1, z2."""
    for axis, limit, c1, c2 in zip("xyz", dims, p1, p2):
        if not 0 <= c1 < limit:
            raise NodeIndexError(f"{axis}1={c1} outside 0..{limit - 1}")
        if not 0 <= c2 < limit:
            raise NodeIndexError(f"{axis}2={c2} outside 0..{limit - 1}")


def r_1d_free(n_nodes: int, r: float, x1: int, x2: int) -> float:
    """Chain of series resistors: r |x1 - x2|."""
    _check_points((n_nodes,), (x1,), (x2,))
    return float(r) * abs(x1 - x2)


def r_1d_periodic(n_nodes: int, r: float, x1: int, x2: int) -> float:
    """Ring: the two arcs d*r and (N-d)*r in parallel."""
    _check_points((n_nodes,), (x1,), (x2,))
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
    _check_points((m, n), p1, p2)
    r = float(r)
    s = float(s)
    axis = [r * abs(x1 - x2) / n, s * abs(y1 - y2) / m]
    width = _free_axis(n, y1, y2, s)
    mn = m * n
    terms = (
        2 * (cx1 * cy1 - cx2 * cy2) ** 2 / (mn * (dx + dy))
        for cx1, cx2, dx in _free_axis(m, x1, x2, r)
        for cy1, cy2, dy in width
    )
    return math.fsum(chain(axis, terms))


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
    _check_points((m, n), p1, p2)
    r = float(r)
    s = float(s)
    dx = x1 - x2
    dy = y1 - y2
    axis = [r * g_sum(m, dx) / n, s * g_sum(n, dy) / m]
    width = [
        (dy * w, part)
        for w, part in zip(_sector_angles(n, 0)[1:], _sector_parts(n, s, 0, 1)[1:])
    ]
    mn = m * n
    terms = (
        (1 - math.cos(ax + ay)) / (mn * (px + py))
        for w, px in zip(_sector_angles(m, 0)[1:], _sector_parts(m, r, 0, 1)[1:])
        for ax in [dx * w]
        for ay, py in width
    )
    return math.fsum(chain(axis, terms))


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
    _check_points((m, n), p1, p2)
    r = float(r)
    s = float(s)
    dx = x1 - x2
    axis = [r * g_sum(m, dx) / n, s * abs(y1 - y2) / m]
    widths = zip(_free_basis(n, y1), _free_basis(n, y2), _free_parts(n, s), repeat(0))
    runs = (_sector_runs(m, dx, 0)[1:],)
    parts = (_sector_parts(m, r, 0, 1)[1:],)
    return math.fsum(chain(axis, _ring_terms(widths, runs, parts, m * n)))


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
    _check_points((m, n), p1, p2)
    r = float(r)
    s = float(s)
    dx = x1 - x2
    axis = [r * g_sum(m, dx) / n]
    sectors = (nn % 2 for nn in range(1, n))
    widths = zip(_free_basis(n, y1), _free_basis(n, y2), _free_parts(n, s), sectors)
    runs = (_sector_runs(m, dx, 0), _sector_runs(m, dx, 1))
    parts = (_sector_parts(m, r, 0, 1), _sector_parts(m, r, 1, 1))
    return math.fsum(chain(axis, _ring_terms(widths, runs, parts, m * n)))


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


def _klein_terms(
    m: int,
    n: int,
    r: float,
    s: float,
    p1: tuple[int, int],
    p2: tuple[int, int],
    widths: range,
) -> Iterator[float]:
    """Klein-bottle mode terms of the width modes in ``widths``."""
    x1, y1 = p1
    x2, y2 = p2
    a, b, width_parts = _klein_basis(n, y1), _klein_basis(n, y2), _sector_parts(n, s, 0, 2)
    modes = ((a[nn], b[nn], width_parts[nn], klein_parity(n, nn)) for nn in widths)
    runs = (_sector_runs(m, x1 - x2, 0), _sector_runs(m, x1 - x2, 1))
    parts = (_sector_parts(m, r, 0, 2), _sector_parts(m, r, 1, 2))
    return _ring_terms(modes, runs, parts, m)


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
    _check_points((m, n), p1, p2)
    r = float(r)
    s = float(s)
    axis = [r * g_sum(m, x1 - x2) / n]
    return math.fsum(chain(axis, _klein_terms(m, n, r, s, p1, p2, range(1, n))))


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
    _check_points((m, n, l), p1, p2)
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
    width, depth = _free_axis(n, y1, y2, s), _free_axis(l, z1, z2, t)
    mnl = m * n * l
    terms = (
        4 * (fxy1 * fz1 - fxy2 * fz2) ** 2 / (mnl * (dxy + dz))
        for fx1, fx2, dx in _free_axis(m, x1, x2, r)
        for fy1, fy2, dy in width
        for fxy1, fxy2, dxy in [(fx1 * fy1, fx2 * fy2, dx + dy)]
        for fz1, fz2, dz in depth
    )
    return math.fsum(chain(axis, terms))


# The closed form of each wrap; the 1D ones take scalar coordinates.
_CLOSED_FORMS = {
    BoundaryCondition.FREE_1D: r_1d_free,
    BoundaryCondition.PERIODIC_1D: r_1d_periodic,
    BoundaryCondition.FREE_2D: r_2d_free,
    BoundaryCondition.PERIODIC_2D: r_2d_periodic,
    BoundaryCondition.CYLINDER: r_2d_cylinder,
    BoundaryCondition.MOEBIUS: r_2d_moebius,
    BoundaryCondition.KLEIN: r_2d_klein,
    BoundaryCondition.FREE_3D: r_3d_free,
}


def resistance(spec: LatticeSpec, c1: Sequence[int], c2: Sequence[int]) -> float:
    """Closed-form resistance between two coordinate tuples."""
    closed_form = _CLOSED_FORMS[spec.bc]
    res = tuple(_to_float(r) for r in spec.resistances)
    if len(spec.dims) == 1:
        return closed_form(spec.dims[0], res[0], c1[0], c2[0])
    return closed_form(*spec.dims, *res, tuple(c1), tuple(c2))


# ---------------------------------------------------------------------------
# analytic spectra


def _eig(parts: Iterable[tuple[float, float]]) -> float:
    """Eigenvalue from per-axis (angle, resistance) contributions."""
    return math.fsum(2 * (1 - math.cos(a)) / r for a, r in parts)


def mode_spectrum(spec: LatticeSpec) -> ModeSpectrum:
    """Analytic eigenmodes; multiset-equal to the numeric spectrum.

    A free axis takes the chain angles, a ring the sector-0 angles, and a
    twist the sector that the width mode nn picks: nn % 2 on a free width,
    ``klein_parity`` on a periodic one.
    """
    axes, dims = _AXES[spec.bc], spec.dims
    res = tuple(_to_float(r) for r in spec.resistances)
    tables = [
        (_chain_angles(d),) if kind == "free" else (_sector_angles(d, 0), _sector_angles(d, 1))
        for kind, d in zip(axes, dims)
    ]
    modes = []
    for numbers in product(*map(range, dims)):
        sector = 0
        if axes[0] == "twist":
            nn = numbers[1]
            sector = nn % 2 if axes[1] == "free" else klein_parity(dims[1], nn)
        angles = tuple(t[s][k] for t, s, k in zip(tables, (sector, 0, 0), numbers))
        modes.append(LatticeMode(numbers, angles, _eig(zip(angles, res))))
    return ModeSpectrum(spec, tuple(modes))
