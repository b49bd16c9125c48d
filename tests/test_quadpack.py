"""The QUADPACK port: bit for bit against scipy.integrate, and pinned values.

The pinned reprs below were printed by the scipy-backed integrals this port
replaced, so they hold without scipy installed; the comparisons with
``scipy.integrate.quad``/``dblquad`` are skipped when it is absent.
"""

import math
import warnings

import pytest

from resistnet import QuadratureFailureError, _quadpack
from resistnet.identities import r_infinite_2d, r_infinite_3d

PINNED = [
    ((1, 0), (), 0.5000000000000001),
    ((1, 1), (), 0.6366197723675813),
    ((2, 1), (), 0.7732395447351625),
    ((7, 3), (), 1.1609593385640102),
    ((0, 40), (), 1.6888770510208428),
    ((0, 500), (), 2.4928579432087097),  # reaches limit=200, error within bound
    ((3, 2), (2.0, 0.5), 0.9570878980599784),
    ((1, 4), (0.01, 100.0), 1.0670808425826277),
    ((6, 0), (1.0, 3 / 7), 0.7452938555303957),
    ((1, 0, 0), (), 0.33333333333333387),
    ((1, 1, 0), (), 0.3950791523418525),
    ((1, 1, 1), (), 0.418305310921909),
    ((2, 1, 0), (2.0, 1.0, 0.5), 0.4255774832661828),
    ((0, 0, 3), (1.0, 10.0, 0.1), 0.16891011984912682),
    ((3, 2, 1), (), 0.4631466957815337),
]


@pytest.mark.parametrize("delta, res, expected", PINNED, ids=[str(p[:2]) for p in PINNED])
def test_infinite_integrals_keep_their_bits(delta, res, expected):
    integral = r_infinite_2d if len(delta) == 2 else r_infinite_3d
    assert repr(integral(*delta, *res)) == repr(expected)


# integrands that reach the epsilon algorithm and every ier of dqagse
INTEGRANDS = {
    "log": (lambda x: math.log(x) if x > 0 else 0.0, 0.0, 1.0),
    "x^-0.9": (lambda x: x**-0.9 if x > 0 else 0.0, 0.0, 1.0),
    "cusp": (lambda x: abs(x - 1 / 3) ** -0.5 if x != 1 / 3 else 0.0, 0.0, 1.0),
    "step": (lambda x: 1.0 if x > 0.3 else 0.0, 0.0, 1.0),
    "jump": (lambda x: math.exp(x) if x < 1 / 3 else -math.exp(x), 0.0, 1.0),
    "oscillatory": (lambda x: math.cos(50 * x) * math.exp(-x), 0.0, 10.0),
    "sin(1/x)": (lambda x: math.sin(1 / x) if x else 0.0, 0.0, 1.0),
    "1/|x-1/3|": (lambda x: 1 / abs(x - 1 / 3) if x != 1 / 3 else 0.0, 0.0, 1.0),
    "1/x^2 pole": (lambda x: 1 / (x - 1 / 3) ** 2 if x != 1 / 3 else 0.0, 0.0, 1.0),
    "spike": (lambda x: 1 / ((x - 0.3) ** 2 + 1e-6), 0.0, 1.0),
    "smooth": (math.exp, 0.0, 1.0),
    "zero": (lambda x: 0.0, -1.0, 1.0),
}
LIMITS = (1, 5, 50, 200)
TOLERANCES = (1e-6, 1e-8, 1e-10, 1e-12, 1e-14)
# first words of scipy's message for each nonzero ier
IER_MESSAGES = {
    "The maximum number of subdivisions": 1,
    "The occurrence of roundoff": 2,
    "Extremely bad integrand": 3,
    "The algorithm does not converge": 4,
    "The integral is probably divergent": 5,
}


def scipy_qagse(scipy_quad, f, a, b, epsabs, epsrel, limit):
    """(result, abserr, ier, last) from scipy.integrate.quad(full_output=1)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            out = scipy_quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
        except ValueError:  # ier 6: the tolerances are invalid
            return 0.0, 0.0, 6, 0
    ier = 0
    if len(out) == 4:
        ier = next(code for start, code in IER_MESSAGES.items() if out[3].startswith(start))
    return out[0], out[1], ier, out[2]["last"]


def test_quad_matches_scipy_bit_for_bit(monkeypatch):
    integrate = pytest.importorskip("scipy.integrate")
    qelg_calls = []
    qelg = _quadpack._qelg
    monkeypatch.setattr(
        _quadpack, "_qelg", lambda *args: qelg_calls.append(1) or qelg(*args)
    )
    iers = set()
    mismatches = []
    for name, (f, a, b) in INTEGRANDS.items():
        for limit in LIMITS:
            for tol in TOLERANCES:
                for epsabs, epsrel in ((tol, tol), (tol, 0.0), (0.0, tol)):
                    ours = _quadpack._qagse(f, a, b, epsabs, epsrel, limit)
                    theirs = scipy_qagse(integrate.quad, f, a, b, epsabs, epsrel, limit)
                    iers.add(ours[2])
                    if ours != theirs:
                        mismatches.append((name, limit, epsabs, epsrel, ours, theirs))
    assert mismatches == []
    assert iers == {0, 1, 2, 3, 4, 5, 6}
    assert len(qelg_calls) > 1000


def test_quad_rejects_what_scipy_rejects():
    integrate = pytest.importorskip("scipy.integrate")
    for kwargs in ({"epsabs": 0.0, "epsrel": 1e-15}, {"limit": 0}):
        with pytest.raises(ValueError):
            integrate.quad(math.exp, 0.0, 1.0, **kwargs)
        with pytest.raises(ValueError):
            _quadpack.quad(math.exp, 0.0, 1.0, **kwargs)


def test_dblquad_matches_scipy_bit_for_bit():
    integrate = pytest.importorskip("scipy.integrate")

    def g(y, x):
        return math.exp(-x * y) / math.sqrt(x + y) if x + y else 0.0

    for tol in (1e-6, 1e-10, 1e-14):
        ours = _quadpack.dblquad(lambda x: lambda y: g(y, x), 0.0, 2.0, 0.0, 1.0, tol, tol)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            theirs = integrate.dblquad(g, 0.0, 2.0, 0.0, 1.0, epsabs=tol, epsrel=tol)
        assert ours == theirs


LATTICE_CASES = [
    (dx, dy, r, s)
    for dx, dy in ((1, 0), (1, 1), (0, 3), (5, 2), (12, 7), (0, 100), (0, 500), (0, 1000))
    for r, s in ((1.0, 1.0), (2.0, 0.5), (0.01, 1000.0))
]


def test_lattice_integrands_match_scipy(monkeypatch):
    """Each quad/dblquad call of r_infinite_2d/_3d returns scipy's (value, error)."""
    integrate = pytest.importorskip("scipy.integrate")
    ours, theirs = [], []

    def record(log, integrator):
        def call(*args, **kwargs):
            log.append(integrator(*args, **kwargs))
            return log[-1]

        return call

    def scipy_quad(f, a, b, epsabs, epsrel, limit):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)

    def scipy_dblquad(inner, a, b, c, d, epsabs, epsrel):
        g = lambda y, x: inner(x)(y)  # noqa: E731
        return integrate.dblquad(g, a, b, c, d, epsabs=epsabs, epsrel=epsrel)

    def run_2d():
        for dx, dy, r, s in LATTICE_CASES:
            try:
                r_infinite_2d(dx, dy, r, s)
            except QuadratureFailureError:
                pass

    def run_3d():
        for delta, res in (((1, 0, 0), ()), ((2, 1, 1), (2.0, 1.0, 0.5))):
            r_infinite_3d(*delta, *res)

    # one integrator patched at a time, so dblquad's inner quad calls are
    # not recorded on their own
    for log, quad, dblquad in ((ours, _quadpack.quad, _quadpack.dblquad),
                               (theirs, scipy_quad, scipy_dblquad)):
        with monkeypatch.context() as patch:
            patch.setattr(_quadpack, "quad", record(log, quad))
            run_2d()
        with monkeypatch.context() as patch:
            patch.setattr(_quadpack, "dblquad", record(log, dblquad))
            run_3d()
    assert len(ours) == len(LATTICE_CASES) + 2
    assert ours == theirs
