"""Lattice-sum identities, product identities, and infinite-grid integrals."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from resistnet import (
    BoundaryCondition,
    IdentityQuery,
    NonPositiveResistanceError,
    OutOfRangeError,
    f_sum,
    finite_to_infinite_convergence,
    g_sum,
    i1_closed,
    i1_direct,
    i2_closed,
    i2_direct,
    product_identity_free,
    product_identity_periodic,
    r_2d_periodic,
    r_infinite_2d,
    r_infinite_3d,
)
from resistnet.cli import main
from resistnet.golden import torus_3d_value


def q1(n, ell, lam):
    return IdentityQuery(n_terms=n, offset=ell, damping=lam, variant=1)


def q2(n, ell, lam):
    return IdentityQuery(n_terms=n, offset=ell, damping=lam, variant=2)


def test_query_validation():
    with pytest.raises(OutOfRangeError):
        IdentityQuery(n_terms=0, offset=0, damping=1.0)
    with pytest.raises(OutOfRangeError):
        IdentityQuery(n_terms=4, offset=8, damping=1.0, variant=1)
    with pytest.raises(OutOfRangeError):
        IdentityQuery(n_terms=4, offset=4, damping=1.0, variant=2)
    with pytest.raises(OutOfRangeError):
        IdentityQuery(n_terms=4, offset=0, damping=-0.5)
    with pytest.raises(OutOfRangeError):
        IdentityQuery(n_terms=4, offset=0, damping=1.0, variant=3)


def test_variant_guards():
    with pytest.raises(OutOfRangeError):
        i1_closed(q2(4, 1, 1.0))
    with pytest.raises(OutOfRangeError):
        i2_direct(q1(4, 1, 1.0))


def test_single_term_sum():
    # N=1, offset 0: the only term is 1/(cosh(lam) - 1)
    for lam in (0.3, 1.0, 2.5):
        want = 1 / (math.cosh(lam) - 1)
        assert i2_closed(q2(1, 0, lam)) == pytest.approx(want, rel=1e-13)
        assert i2_direct(q2(1, 0, lam)) == pytest.approx(want, rel=1e-13)


def test_closed_matches_direct():
    for n in (1, 2, 3, 8, 12):
        for lam in (0.05, 0.3, 1.0, 3.0):
            for ell in range(2 * n):
                closed = i1_closed(q1(n, ell, lam))
                direct = i1_direct(q1(n, ell, lam))
                assert abs(closed - direct) <= 1e-12 * max(1.0, abs(closed))
            for ell in range(n):
                closed = i2_closed(q2(n, ell, lam))
                direct = i2_direct(q2(n, ell, lam))
                assert abs(closed - direct) <= 1e-12 * max(1.0, abs(closed))


def test_zero_damping_is_infinite():
    assert i1_closed(q1(5, 2, 0.0)) == math.inf
    assert i1_direct(q1(5, 2, 0.0)) == math.inf
    assert i2_closed(q2(5, 2, 0.0)) == math.inf


def test_small_damping_differences_reach_axis_sums():
    # the damping->0 limit of I(0) - I(l) is the corresponding axis sum
    lam = 3e-4
    for n in (3, 5, 9):
        for ell in range(2 * n):
            diff = i1_closed(q1(n, 0, lam)) - i1_closed(q1(n, ell, lam))
            assert diff == pytest.approx(f_sum(n, ell), abs=1e-5)
        for ell in range(n):
            diff = i2_closed(q2(n, 0, lam)) - i2_closed(q2(n, ell, lam))
            assert diff == pytest.approx(g_sum(n, ell), abs=1e-5)


def test_large_n_limit():
    # both identities converge to exp(-l*lam)/sinh(lam); the variant-2 sum
    # does so exponentially, the variant-1 sum with a 1/N tail
    target = math.exp(-3.0) / math.sinh(1.0)
    assert i2_closed(q2(512, 3, 1.0)) == pytest.approx(target, abs=1e-6)
    errors = [abs(i1_closed(q1(n, 3, 1.0)) - target) for n in (512, 1024, 2048)]
    assert errors[0] > errors[1] > errors[2]
    ratios = [errors[k + 1] / errors[k] for k in range(2)]
    assert all(abs(rho - 0.5) < 0.05 for rho in ratios)
    assert abs(i1_closed(q1(2**21, 3, 1.0)) - target) <= 1e-6


def test_product_identity_trivial_case():
    # N=1 ring product: cosh(lam) - 1 == 2 sinh^2(lam/2)
    lhs, rhs = product_identity_periodic(1, 1.0)
    assert lhs == pytest.approx(math.cosh(1.0) - 1)
    assert rhs == pytest.approx(2 * math.sinh(0.5) ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-14)


def test_product_identities_hold():
    lhs, rhs = product_identity_free(16, 0.3)
    assert abs(lhs - rhs) <= 1e-10 * rhs
    lhs, rhs = product_identity_periodic(9, 2.0)
    assert abs(lhs - rhs) <= 1e-10 * rhs
    for n in (1, 2, 3, 9, 16, 64):
        for lam in (0.1, 1.0, 5.0):
            lhs, rhs = product_identity_free(n, lam)
            assert abs(lhs - rhs) <= 1e-10 * rhs
            lhs, rhs = product_identity_periodic(n, lam)
            assert abs(lhs - rhs) <= 1e-10 * rhs


def test_damping_outside_float_range():
    for lam in (math.nan, math.inf):
        with pytest.raises(OutOfRangeError):
            q1(5, 0, lam)
        with pytest.raises(OutOfRangeError):
            product_identity_free(3, lam)
        with pytest.raises(OutOfRangeError):
            product_identity_periodic(3, lam)
    # too large (cosh, sinh and the products overflow) or too small (the
    # sums pass the largest float): typed, never inf, NaN or a traceback
    for call in (
        lambda: product_identity_free(3, 1000.0),
        lambda: product_identity_periodic(40, 50.0),
        lambda: i1_closed(q1(5, 0, 1000.0)),
        lambda: i1_direct(q1(5, 0, 1000.0)),
        lambda: i2_closed(q2(5, 0, 1000.0)),
        lambda: i1_closed(q1(5, 1, 1e-200)),
        lambda: i2_direct(q2(5, 0, 1e-200)),
    ):
        with pytest.raises(OutOfRangeError):
            call()
    # a large damping that still fits gets its finite value
    lhs, rhs = product_identity_free(3, 200.0)
    assert math.isfinite(lhs) and abs(lhs - rhs) <= 1e-10 * rhs
    closed, direct = i2_closed(q2(5, 0, 300.0)), i2_direct(q2(5, 0, 300.0))
    assert 0 < closed < 1e-100 and closed == pytest.approx(direct, rel=1e-12)


def test_i1_closed_past_sinh_square_overflow():
    # sinh(lam)**2 overflows from lam ~ 355.6, where the value is still a
    # float; the defining sum cancels to about eps / cosh(lam), which sets
    # the scale of the comparison
    for n in (1, 2, 3, 5, 8, 13, 40):
        for lam in (300.0, 355.0, 355.6, 356.0, 400.0, 500.0, 650.0, 700.0):
            for ell in range(2 * n):
                closed = i1_closed(q1(n, ell, lam))
                direct = i1_direct(q1(n, ell, lam))
                scale = max(abs(closed), 1 / math.cosh(lam))
                assert abs(closed - direct) <= 1e-12 * scale, (n, ell, lam)
    assert i1_closed(q1(5, 0, 400.0)) == pytest.approx(2 * math.exp(-400.0) / 5, rel=1e-14)


# (N, offset, damping) -> i1_closed below the overflow cut-over, to the bit
I1_CLOSED_BITS = [
    (1, 0, 0.5, 7.835396178065528),
    (5, 0, 1.0, 0.9958077271870003),
    (5, 3, 2.5, 0.033596644886907265),
    (8, 7, 0.05, 98.75252673529619),
    (12, 5, 30.0, 1.5596038281400292e-14),
    (40, 17, 100.0, 1.8600379880104184e-45),
    (5, 2, 300.0, 2.1203172424034485e-261),
    (5, 1, 354.0, 7.2746716804412904e-155),
    (3, 0, 355.0, 1.3381010762532297e-154),
    (7, 4, 355.3, 1.40379312407878e-309),
]


@pytest.mark.parametrize("n,ell,lam,want", I1_CLOSED_BITS)
def test_i1_closed_bits_below_cut_over(n, ell, lam, want):
    assert repr(i1_closed(q1(n, ell, lam))) == repr(want)


def test_infinite_2d_values():
    assert r_infinite_2d(0, 0) == 0.0
    assert r_infinite_2d(1, 0) == pytest.approx(0.5, abs=1e-10)
    assert r_infinite_2d(0, 1) == pytest.approx(0.5, abs=1e-10)
    assert r_infinite_2d(1, 1) == pytest.approx(2 / math.pi, abs=1e-10)


def test_infinite_2d_symmetries():
    assert r_infinite_2d(2, 1) == pytest.approx(r_infinite_2d(-2, -1), abs=1e-12)
    assert r_infinite_2d(2, 1) == pytest.approx(r_infinite_2d(1, 2), abs=1e-10)
    # with unequal axis resistances the swap must also swap the resistances
    assert r_infinite_2d(2, 1, 2.0, 0.5) == pytest.approx(
        r_infinite_2d(1, 2, 0.5, 2.0), abs=1e-10
    )


def test_infinite_3d_values():
    assert r_infinite_3d(0, 0, 0) == 0.0
    assert r_infinite_3d(1, 0, 0) == pytest.approx(1 / 3, abs=1e-6)


def test_infinite_resistances_validated():
    cases = [
        (r_infinite_2d, (1, 1), {"r": 0}),
        (r_infinite_2d, (1, 1), {"r": -1}),
        (r_infinite_2d, (1, 1), {"s": 0}),
        (r_infinite_2d, (0, 0), {"r": math.nan}),
        (r_infinite_3d, (1, 1, 1), {"t": 0}),
        (r_infinite_3d, (1, 0, 0), {"s": -2.5}),
        (r_infinite_3d, (1, 0, 0), {"r": math.inf}),
    ]
    for integral, delta, res in cases:
        with pytest.raises(NonPositiveResistanceError):
            integral(*delta, **res)


def fresh_python(code: str, *args: str) -> str:
    """Stdout of ``code`` run in a new interpreter with this checkout's src."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout.strip()


def test_package_import_leaves_quadrature_unloaded():
    code = (
        "import sys; import resistnet; "
        "print('scipy.integrate' in sys.modules, 'resistnet._quadpack' in sys.modules)"
    )
    assert fresh_python(code) == "False False"


LAYERS = ("errors", "network", "spectral", "exact", "lattice", "identities", "golden")

# The records are NamedTuples: nothing of resistnet's own loads these two.
_RECORD_MACHINERY = "('dataclasses' in sys.modules or 'inspect' in sys.modules)"


def test_package_import_loads_every_layer_but_not_numpy():
    code = (
        "import sys; import resistnet as rn; "
        f"print(all('resistnet.' + m in sys.modules for m in {LAYERS!r}), "
        f"'numpy' in sys.modules, {_RECORD_MACHINERY}); "
        "import resistnet.cli; "
        f"print('resistnet.cli' in sys.modules, 'numpy' in sys.modules, {_RECORD_MACHINERY}); "
        "net = rn.build_network(3, [(0, 1, 1), (1, 2, 2)]); "
        "spec = rn.decompose(rn.assemble_laplacian(net)); "
        "print(round(rn.two_point_resistance(spec, 0, 2), 12), 'numpy' in sys.modules)"
    )
    assert fresh_python(code).splitlines() == [
        "True False False",
        "True False False",
        "3.0 True",
    ]


_CLI_SCRIPT = f"""
import contextlib, io, sys
from resistnet.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "numpy" in sys.modules, "scipy" in sys.modules, {_RECORD_MACHINERY})
"""

_LATTICE = ["lattice", "--bc", "klein", "--dims", "5x4", "--from", "0,0", "--to", "3,3"]
_GRAPH_BAD_NODE = ["graph", "--inline", '{"nodes": 3, "edges": [[0, 1, 1], [1, 2, 1]]}',
                   "--from", "0", "--to", "7"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (_LATTICE + ["--mode", "float"], 0),
        (_LATTICE + ["--mode", "exact"], 0),
        (_LATTICE + ["--mode", "both"], 0),
        (["identity", "--which", "i1", "--N", "8", "--ell", "3", "--lambda", "0.5"], 0),
        (["graph", "--inline", '{"nodes": 3, "edges": [[0, 1, 1], [1, 2, "1/2"]]}',
          "--from", "0", "--to", "2", "--mode", "exact"], 0),
        (_LATTICE + ["--r", "1e400"], 4),
        (["infinite", "--delta", "2,1", "--s", "1/3"], 0),
        (["infinite", "--delta", "1,1,0", "--t", "2"], 0),
        (_GRAPH_BAD_NODE + ["--mode", "float"], 4),
        (_GRAPH_BAD_NODE + ["--mode", "both"], 4),
    ],
    ids=["lattice-float", "lattice-exact", "lattice-both", "identity", "graph-exact",
         "range-error", "infinite-2d", "infinite-3d", "graph-float-bad-node",
         "graph-both-bad-node"],
)
def test_cli_route_runs_without_numpy(argv, code):
    """These routes load none of numpy, scipy, dataclasses and inspect."""
    assert fresh_python(_CLI_SCRIPT, *argv) == f"{code} False False False"


def test_reproduce_loads_no_scipy():
    # numpy itself imports inspect, so the last flag is numpy's to decide
    assert fresh_python(_CLI_SCRIPT, "reproduce").split()[:3] == ["0", "True", "False"]


_NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
from resistnet.cli import main
code = main(sys.argv[1:])
print(code)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["reproduce", "--format", "csv"],
        ["infinite", "--delta", "1,1"],
        ["infinite", "--delta", "1,0,0", "--r", "2", "--t", "1/2"],
        ["graph", "--inline", '{"nodes": 3, "edges": [[0, 1, 1], [1, 2, "1/2"]]}',
         "--from", "0", "--to", "2", "--mode", "float"],
    ],
    ids=["reproduce", "infinite-2d", "infinite-3d", "graph-float"],
)
def test_cli_route_runs_without_scipy(capsys, argv):
    code = main(argv)
    expected = capsys.readouterr().out + str(code)
    assert code == 0
    assert fresh_python(_NO_SCIPY_SCRIPT, *argv) == expected.strip()


@pytest.mark.parametrize("delta, code", [("0,500", 0), ("0,1000", 5)])
def test_infinite_writes_nothing_to_stderr_at_the_subdivision_limit(delta, code):
    """Both offsets reach limit=200; 0,1000 also fails the error bound, exit 5."""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "resistnet.cli", "infinite", "--delta", delta],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (done.returncode, done.stderr) == (code, "")
    assert ("QuadratureFailureError" in done.stdout) == (code == 5)


def test_infinite_3d_against_torus_extrapolation():
    value = r_infinite_3d(1, 1, 0)
    t16 = torus_3d_value(16, (1, 1, 0))
    t32 = torus_3d_value(32, (1, 1, 0))
    extrapolated = t32 + (t32 - t16) / 3.0
    assert value == pytest.approx(extrapolated, abs=1e-4)


def test_convergence_table_periodic():
    rows = finite_to_infinite_convergence(
        BoundaryCondition.PERIODIC_2D, (1, 0), (8, 16, 32, 64)
    )
    gaps = [abs(row.difference) for row in rows]
    assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
    assert rows[-1].finite_value == pytest.approx(0.5, abs=1e-3)
    assert rows[-1].finite_value == pytest.approx(
        r_2d_periodic(64, 64, 1, 1, (0, 0), (1, 0)), abs=1e-15
    )


def test_convergence_table_free_and_cylinder_share_limit():
    free_rows = finite_to_infinite_convergence(
        BoundaryCondition.FREE_2D, (1, 0), (17, 33, 65)
    )
    cyl_rows = finite_to_infinite_convergence(
        BoundaryCondition.CYLINDER, (1, 0), (16, 32, 64)
    )
    assert abs(free_rows[-1].difference) < abs(free_rows[0].difference)
    assert abs(cyl_rows[-1].difference) < abs(cyl_rows[0].difference)
    assert free_rows[-1].finite_value == pytest.approx(0.5, abs=5e-3)
    assert cyl_rows[-1].finite_value == pytest.approx(0.5, abs=5e-3)
