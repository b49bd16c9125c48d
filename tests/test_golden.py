"""The ``resistnet reproduce`` table is pinned row by row.

Floats that pass through LAPACK or a numpy reduction (the spectral solve
and the torus extrapolation) may move in the last bits with the BLAS
build, so they are checked within 1e-12; every other string is checked
byte for byte.
"""

import pytest

from resistnet import reproduce_all

PINNED = (
    ("example-01a", "4-node bridge (r1=1, r2=2), pair (0, 2)", "1",
     {"oracle": "1", "spectral": "1.0000000000000002"}),
    ("example-01b", "4-node bridge (r1=1, r2=2), pair (0, 1)", "2/3",
     {"oracle": "2/3", "spectral": "0.6666666666666667"}),
    ("example-02", "complete graph on 5 nodes, unit resistance", "2/5",
     {"oracle": "2/5", "spectral": "0.3999999999999999"}),
    ("example-03", "free 5x4 grid, (0,0)-(3,3), unit resistance", "2356898/1380027",
     {"closed-form": "1.70786368672497", "oracle": "2356898/1380027",
      "spectral": "1.7078636867249712"}),
    ("example-04", "free 4x4 grid, corner pair, r=2 s=3 vs closed formula", "17415/3772",
     {"closed-form": "4.616914103923648", "oracle": "17415/3772",
      "spectral": "4.616914103923647"}),
    ("example-05", "free-grid center pair (dx,dy)=(1,1) vs infinite integral",
     "0.6366197723675813",
     {"free-17": "0.6404975826524117", "free-33": "0.6376309710114241",
      "free-65": "0.63687918410594"}),
    ("example-06", "periodic 5x4, (0,0)-(3,3); offset (2,1) must agree", "10609/15580",
     {"closed-form": "0.6809370988446726", "closed-form-offset-2-1": "0.6809370988446726",
      "oracle": "10609/15580", "spectral": "0.680937098844673"}),
    ("example-07", "cylindrical 5x4 grid, (0,0)-(3,3), unit resistance", "10463/8835",
     {"closed-form": "1.1842671194114318", "oracle": "10463/8835",
      "spectral": "1.1842671194114314"}),
    ("example-08", "2x2 twisted strip = complete graph, all 6 pairs", "1/2",
     {"closed-form-max-dev": "1.1102230246251565e-16", "oracle-all-pairs": "1/2"}),
    ("example-09", "twisted 5x4 strip, (0,0)-(3,3), unit resistance", "6046/6745",
     {"closed-form": "0.8963676797627871", "oracle": "6046/6745",
      "spectral": "0.8963676797627872"}),
    ("example-10", "twisted-periodic 5x4 grid, (0,0)-(3,3), unit resistance", "19824/30305",
     {"closed-form": "0.6541494802837815", "oracle": "19824/30305",
      "spectral": "0.6541494802837816"}),
    ("example-11", "free 5x5x4 cube, (0,0,0)-(3,3,3), unit resistance",
     "327687658482872/352468567489225",
     {"closed-form": "0.9296932796507861", "oracle": "327687658482872/352468567489225",
      "spectral": "0.9296932796507861"}),
    ("example-12", "infinite cubic lattice integrals vs torus extrapolation", "1/3",
     {"quadrature-diagonal": "0.3950791523418525", "quadrature-nearest": "0.33333333333333387",
      "torus-extrapolated-diagonal": "0.395105846173568"}),
)

LOOSE_KEYS = ("spectral", "torus-extrapolated-diagonal")


def test_reproduce_rows_pinned():
    rows = reproduce_all()
    assert [row.ident for row in rows] == [ident for ident, *_ in PINNED]
    for row, (ident, description, expected, computed) in zip(rows, PINNED):
        assert row.passed, ident
        assert row.description == description, ident
        assert row.expected == expected, ident
        assert row.computed.keys() == computed.keys(), ident
        for key, want in computed.items():
            if key in LOOSE_KEYS:
                assert float(row.computed[key]) == pytest.approx(
                    float(want), rel=0, abs=1e-12
                ), (ident, key)
            else:
                assert row.computed[key] == want, (ident, key)
