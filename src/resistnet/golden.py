"""End-to-end regression over the twelve reference cases.

Each row pins one published reference result: exact fractions where the
source gives them, limits and equivalences elsewhere.  Rows never raise;
failures are reported as rows so the whole table always renders.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import NamedTuple

from . import exact, identities, lattice, network, spectral
from .errors import OutOfRangeError, ParseError

DEFAULT_TOL = 1e-9


def comparison_tolerance() -> float:
    """Float/exact agreement tolerance; RESISTNET_TOL overrides.

    ParseError when the override is not a number; OutOfRangeError when it
    is NaN, negative or infinite.
    """
    raw = os.environ.get("RESISTNET_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError as err:
        raise ParseError(f"RESISTNET_TOL: bad number {raw!r}") from err
    if not 0.0 <= tol < math.inf:
        raise OutOfRangeError(f"RESISTNET_TOL must be finite and >= 0, got {raw!r}")
    return tol


class ReproRow(NamedTuple):
    ident: str
    description: str
    expected: str
    computed: dict[str, str]
    passed: bool


def torus_3d_value(size: int, delta: tuple[int, int, int]) -> float:
    """Mode sum for the size^3 torus with unit resistances."""
    import numpy as np  # deferred: only row 12 needs arrays

    k = 2.0 * np.pi * np.arange(size) / size
    one_minus_cos = 1.0 - np.cos(k)
    den = (
        one_minus_cos[:, None, None]
        + one_minus_cos[None, :, None]
        + one_minus_cos[None, None, :]
    )
    phase = (
        k[:, None, None] * delta[0]
        + k[None, :, None] * delta[1]
        + k[None, None, :] * delta[2]
    )
    num = 1.0 - np.cos(phase)
    den[0, 0, 0] = 1.0  # zero mode; numerator is 0 there
    num[0, 0, 0] = 0.0
    return float(np.sum(num / den) / size**3)


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _close(value: float, target: float, tol: float) -> bool:
    return abs(value - target) <= tol * max(1.0, abs(target))


def _case_row(case: exact.OracleCase, tol: float) -> ReproRow:
    """Oracle and spectral solves of one golden case, plus the closed form
    when the case is a lattice; every value must match the exact one."""
    a, b = case.pair
    spectrum = spectral.decompose(network.assemble_laplacian(case.net))
    oracle = exact.solve_exact(case.net, a, b)
    floats = {"spectral": spectral.two_point_resistance(spectrum, a, b)}
    if case.spec is not None:
        c1, c2 = case.spec.node_coords(a), case.spec.node_coords(b)
        floats["closed-form"] = lattice.resistance(case.spec, c1, c2)
    passed = oracle == case.expected and all(
        _close(value, float(case.expected), tol) for value in floats.values()
    )
    return ReproRow(
        ident=case.name,
        description=case.description,
        expected=_fmt(case.expected),
        computed={"oracle": _fmt(oracle)}
        | {key: _fmt(value) for key, value in floats.items()},
        passed=passed,
    )


def _offset_row(case: exact.OracleCase, tol: float) -> ReproRow:
    """Row 06: the torus maps offset (3,3) onto (2,1), so both must agree."""
    row = _case_row(case, tol)
    shifted = lattice.resistance(case.spec, (0, 0), (2, 1))
    agrees = abs(shifted - float(row.computed["closed-form"])) <= 1e-12
    return row._replace(
        computed=row.computed | {"closed-form-offset-2-1": _fmt(shifted)},
        passed=row.passed and agrees,
    )


def _all_pairs_row(case: exact.OracleCase, tol: float) -> ReproRow:
    """Row 08: the 2x2 twisted strip is the complete graph on 4 nodes, so
    every pair has the case's resistance."""
    spec, n = case.spec, case.net.n_nodes
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    table = exact.exact_resistance_matrix(case.net)
    expected = float(case.expected)
    closed_vals = [
        lattice.resistance(spec, spec.node_coords(a), spec.node_coords(b))
        for a, b in pairs
    ]
    ok = all(table[a][b] == case.expected for a, b in pairs) and all(
        _close(v, expected, tol) for v in closed_vals
    )
    return ReproRow(
        ident=case.name,
        description=case.description,
        expected=_fmt(case.expected),
        computed={
            "oracle-all-pairs": _fmt(case.expected if ok else table[0][1]),
            "closed-form-max-dev": _fmt(max(abs(v - expected) for v in closed_vals)),
        },
        passed=ok,
    )


def _convergence_row() -> ReproRow:
    """Row 05: free-grid center pairs approach the infinite-lattice integral."""
    integral = identities.r_infinite_2d(1, 1)
    conv = identities.finite_to_infinite_convergence(
        lattice.BoundaryCondition.FREE_2D, (1, 1), (17, 33, 65)
    )
    gaps = [abs(row.difference) for row in conv]
    return ReproRow(
        ident="example-05",
        description="free-grid center pair (dx,dy)=(1,1) vs infinite integral",
        expected=_fmt(integral),
        computed={f"free-{row.size}": _fmt(row.finite_value) for row in conv},
        passed=gaps[0] > gaps[1] > gaps[2] and gaps[2] < 5e-3,
    )


def _infinite_cubic_row() -> ReproRow:
    """Row 12: infinite cubic lattice, nearest neighbour = 1/3; the (1,1,0)
    integral is cross-checked against torus extrapolation."""
    nearest = identities.r_infinite_3d(1, 0, 0)
    diag = identities.r_infinite_3d(1, 1, 0)
    t16 = torus_3d_value(16, (1, 1, 0))
    t32 = torus_3d_value(32, (1, 1, 0))
    extrapolated = t32 + (t32 - t16) / 3.0
    return ReproRow(
        ident="example-12",
        description="infinite cubic lattice integrals vs torus extrapolation",
        expected="1/3",
        computed={
            "quadrature-nearest": _fmt(nearest),
            "quadrature-diagonal": _fmt(diag),
            "torus-extrapolated-diagonal": _fmt(extrapolated),
        },
        passed=abs(nearest - 1.0 / 3.0) <= 1e-6 and abs(diag - extrapolated) <= 1e-4,
    )


# Golden cases whose row checks more than the shared oracle/spectral/closed-form one.
_SPECIAL_ROWS = {"example-06": _offset_row, "example-08": _all_pairs_row}


def reproduce_all(tol: float | None = None) -> tuple[ReproRow, ...]:
    """Run every reference case; one row per case, failures as rows."""
    tol = comparison_tolerance() if tol is None else tol
    rows = [
        _SPECIAL_ROWS.get(case.name, _case_row)(case, tol)
        for case in exact.reference_cases()
    ]
    rows += [_convergence_row(), _infinite_cubic_row()]
    return tuple(sorted(rows, key=lambda row: row.ident))
