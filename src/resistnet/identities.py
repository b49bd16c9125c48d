"""Trigonometric lattice-sum and product identities, and the integrals the
finite-lattice resistances converge to on the infinite square and cubic grids.

The infinite-lattice integrals are reduced analytically over one angle with
the kernel  (1/pi) integral cos(l u) / (cosh v - cos u) du = exp(-l v)/sinh v,
leaving an integrand that is smooth after the arcsinh substitution
sinh(v/2) = sqrt(r/s) sin(phi/2); adaptive quadrature does the rest.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

from . import lattice
from .errors import OutOfRangeError, ParseError, QuadratureFailureError
from .network import _check_resistance, _to_float

QUAD_ABS_TOL_2D = 1e-8
QUAD_ABS_TOL_3D = 1e-6


class _IdentityQueryFields(NamedTuple):
    n_terms: int
    offset: int
    damping: float
    variant: int = 1


class IdentityQuery(_IdentityQueryFields):
    """Parameters of one damped lattice sum.

    variant 1 uses angles k*pi/N with offsets 0 <= offset < 2N; variant 2
    uses the doubled angles with 0 <= offset < N.  damping >= 0 is the
    hyperbolic parameter; its exp(-damping) appears as the decay factor.
    """

    __slots__ = ()

    def __new__(
        cls, n_terms: int, offset: int, damping: float, variant: int = 1
    ) -> IdentityQuery:
        if variant not in (1, 2):
            raise OutOfRangeError(f"variant must be 1 or 2, got {variant}")
        if n_terms < 1:
            raise OutOfRangeError(f"need N >= 1, got {n_terms}")
        if not 0 <= damping < math.inf:
            raise OutOfRangeError(f"damping must be finite and >= 0, got {damping}")
        limit = 2 * n_terms if variant == 1 else n_terms
        if not 0 <= offset < limit:
            raise OutOfRangeError(
                f"offset {offset} outside 0..{limit - 1} for variant {variant}"
            )
        return super().__new__(cls, n_terms, offset, damping, variant)

    @classmethod
    def _make(cls, iterable) -> IdentityQuery:
        return cls(*iterable)  # so that _replace validates too


def _in_float_range(
    compute: Callable[[], float | tuple[float, float]], n_terms: int, damping: float
) -> float | tuple[float, float]:
    """``compute()``, with OutOfRangeError where a value leaves the float range.

    A large damping overflows cosh, sinh and the products, and a tiny one
    sends the sums past the largest float; such a value is reported rather
    than returned as inf or NaN, or raised as OverflowError or
    ZeroDivisionError.
    """
    try:
        result = compute()
    except (OverflowError, ZeroDivisionError):
        result = math.inf
    if not all(map(math.isfinite, result if isinstance(result, tuple) else (result,))):
        raise OutOfRangeError(
            f"damping {damping} at N={n_terms} puts the identity outside the float range"
        )
    return result


def _direct_sum(q: IdentityQuery) -> float:
    if q.damping == 0.0:
        return math.inf
    n, lam, a = q.n_terms, q.damping, q.variant

    def total() -> float:
        ch = math.cosh(lam)
        return math.fsum(
            math.cos(a * q.offset * k * math.pi / n) / (ch - math.cos(a * k * math.pi / n))
            for k in range(n)
        ) / n

    return _in_float_range(total, n, lam)


def i1_direct(q: IdentityQuery) -> float:
    """Defining N-term sum of the variant-1 identity, term by term in floats.

    At large damping it cancels: each term is about cos(...)/cosh(damping),
    the sum is far smaller, and what is left is the rounding of the terms.
    At N = 3, offset 2, damping 300 it returns -3.3e-147 against a true
    3.5e-261 (``i1_closed``), so a closed-minus-direct difference there
    measures that rounding, not the identity.
    """
    if q.variant != 1:
        raise OutOfRangeError("i1 takes a variant-1 query")
    return _direct_sum(q)


def i2_direct(q: IdentityQuery) -> float:
    """Defining N-term sum of the variant-2 identity, term by term in floats.

    It cancels at large damping as ``i1_direct`` does: at N = 3, offset 2,
    damping 300 it returns 1.3e-146 against a true 5.3e-261 (``i2_closed``).
    """
    if q.variant != 2:
        raise OutOfRangeError("i2 takes a variant-2 query")
    return _direct_sum(q)


def i1_closed(q: IdentityQuery) -> float:
    """Closed form of the variant-1 sum.

    Written with decaying exponentials so large N*damping cannot overflow.
    At damping 0 the sum diverges (its k = 0 term does); the analytic
    limit is +inf, which is what this returns.
    """
    if q.variant != 1:
        raise OutOfRangeError("i1 takes a variant-1 query")
    if q.damping == 0.0:
        return math.inf
    n, ell, lam = q.n_terms, q.offset, q.damping
    k = abs(n - ell)

    def value() -> float:
        main = (
            math.exp((k - n) * lam)
            * (1 + math.exp(-2 * k * lam))
            / ((1 - math.exp(-2 * n * lam)) * math.sinh(lam))
        )
        parity = (1 - (-1) ** ell) / (4 * math.cosh(lam / 2) ** 2)
        try:
            csch2 = 1 / math.sinh(lam) ** 2
        except OverflowError:  # sinh(lam)**2 leaves the float range from lam ~ 355.6
            decay = math.exp(-lam)
            csch2 = (2 * decay / (1 - decay * decay)) ** 2
        return main + (csch2 + parity) / n

    return _in_float_range(value, n, lam)


def i2_closed(q: IdentityQuery) -> float:
    """Closed form of the variant-2 sum, overflow-safe like i1_closed."""
    if q.variant != 2:
        raise OutOfRangeError("i2 takes a variant-2 query")
    if q.damping == 0.0:
        return math.inf
    n, ell, lam = q.n_terms, q.offset, q.damping
    k = abs(n / 2 - ell)

    def value() -> float:
        return (
            math.exp((k - n / 2) * lam)
            * (1 + math.exp(-2 * k * lam))
            / ((1 - math.exp(-n * lam)) * math.sinh(lam))
        )

    return _in_float_range(value, n, lam)


def _check_product_args(n_terms: int, lam: float) -> None:
    if n_terms < 1 or not 0 < lam < math.inf:
        raise OutOfRangeError("need N >= 1 and finite damping > 0")


def product_identity_free(n_terms: int, lam: float) -> tuple[float, float]:
    """Product over free-chain angles vs sinh(N lam) tanh(lam/2) / 2^(N-1).

    The 2^(N-1) fixes the integration constant the bare product picks up;
    without it the two sides differ by exactly that power of two.
    """
    _check_product_args(n_terms, lam)

    def sides() -> tuple[float, float]:
        ch = math.cosh(lam)
        lhs = 1.0
        for k in range(n_terms):
            lhs *= ch - math.cos(k * math.pi / n_terms)
        rhs = math.sinh(n_terms * lam) * math.tanh(lam / 2) / 2 ** (n_terms - 1)
        return lhs, rhs

    return _in_float_range(sides, n_terms, lam)


def product_identity_periodic(n_terms: int, lam: float) -> tuple[float, float]:
    """Product over ring angles vs sinh^2(N lam / 2) / 2^(N-2)."""
    _check_product_args(n_terms, lam)

    def sides() -> tuple[float, float]:
        ch = math.cosh(lam)
        lhs = 1.0
        for k in range(n_terms):
            lhs *= ch - math.cos(2 * k * math.pi / n_terms)
        rhs = math.sinh(n_terms * lam / 2) ** 2 * 2 ** (2 - n_terms)
        return lhs, rhs

    return _in_float_range(sides, n_terms, lam)


# ---------------------------------------------------------------------------
# infinite-lattice integrals


def r_infinite_2d(dx: int, dy: int, r: float = 1.0, s: float = 1.0) -> float:
    """Resistance between grid points of the infinite square lattice."""
    from ._quadpack import quad  # deferred: routes without the integrals skip compiling it

    dx, dy = abs(int(dx)), abs(int(dy))
    for value in (r, s):
        _check_resistance(value)
    r, s = _to_float(r), _to_float(s)
    if dx == 0 and dy == 0:
        return 0.0
    rho = math.sqrt(r / s)

    def integrand(phi: float) -> float:
        sin_half = rho * math.sin(phi / 2)
        if sin_half == 0.0:
            return r * dx
        lam = 2 * math.asinh(sin_half)
        return r * (1 - math.cos(dy * phi) * math.exp(-dx * lam)) / math.sinh(lam)

    value, err = quad(integrand, 0.0, math.pi, epsabs=1e-12, epsrel=1e-12, limit=200)
    if err > QUAD_ABS_TOL_2D:
        raise QuadratureFailureError(f"estimated error {err:g} above {QUAD_ABS_TOL_2D:g}")
    return value / math.pi


def r_infinite_3d(
    dx: int, dy: int, dz: int, r: float = 1.0, s: float = 1.0, t: float = 1.0
) -> float:
    """Resistance between grid points of the infinite cubic lattice."""
    from ._quadpack import dblquad  # deferred, as in r_infinite_2d

    dx, dy, dz = abs(int(dx)), abs(int(dy)), abs(int(dz))
    for value in (r, s, t):
        _check_resistance(value)
    r, s, t = _to_float(r), _to_float(s), _to_float(t)
    if dx == 0 and dy == 0 and dz == 0:
        return 0.0

    def integrand(alpha: float) -> Callable[[float], float]:
        alpha_part = math.sin(alpha / 2) ** 2 / t
        cos_z = math.cos(dz * alpha)

        def over_phi(phi: float) -> float:
            radial = r * (math.sin(phi / 2) ** 2 / s + alpha_part)
            if radial == 0.0:
                return r * dx
            lam = 2 * math.asinh(math.sqrt(radial))
            return r * (1 - math.cos(dy * phi) * cos_z * math.exp(-dx * lam)) / math.sinh(lam)

        return over_phi

    value, err = dblquad(integrand, 0.0, math.pi, 0.0, math.pi, epsabs=1e-10, epsrel=1e-10)
    if err > QUAD_ABS_TOL_3D:
        raise QuadratureFailureError(f"estimated error {err:g} above {QUAD_ABS_TOL_3D:g}")
    return value / math.pi**2


# ---------------------------------------------------------------------------
# finite-size convergence


class ConvergenceRow(NamedTuple):
    size: int
    finite_value: float
    difference: float


def finite_to_infinite_convergence(
    bc: lattice.BoundaryCondition,
    delta: tuple[int, int],
    sizes: Sequence[int],
    r: float = 1.0,
    s: float = 1.0,
) -> tuple[ConvergenceRow, ...]:
    """Finite square-lattice values approaching the infinite-grid integral.

    Periodic and cylindrical grids measure from the origin; the free grid
    measures between nodes near the center, where boundary effects decay.
    """
    dx, dy = abs(delta[0]), abs(delta[1])
    limit = r_infinite_2d(dx, dy, r, s)
    rows = []
    for size in sizes:
        if size <= max(dx, dy) + 1:
            raise OutOfRangeError(f"size {size} too small for offset {delta}")
        center = (size - 1) // 2
        if bc is lattice.BoundaryCondition.PERIODIC_2D:
            value = lattice.r_2d_periodic(size, size, r, s, (0, 0), (dx, dy))
        elif bc is lattice.BoundaryCondition.CYLINDER:
            # x is translation invariant; y must sit far from the free edges
            value = lattice.r_2d_cylinder(
                size, size, r, s, (0, center), (dx, center + dy)
            )
        elif bc is lattice.BoundaryCondition.FREE_2D:
            value = lattice.r_2d_free(
                size, size, r, s, (center, center), (center + dx, center + dy)
            )
        else:
            raise ParseError(f"no convergence family for {bc.value}")
        rows.append(ConvergenceRow(size, value, value - limit))
    return tuple(rows)
