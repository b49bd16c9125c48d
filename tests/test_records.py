"""The frozen records: construction, immutability, repr and validation."""

from fractions import Fraction

import pytest

from resistnet.errors import NonPositiveResistanceError, OutOfRangeError, ParseError
from resistnet.exact import KirchhoffSystem, OracleCase, OracleResult
from resistnet.golden import ReproRow
from resistnet.identities import ConvergenceRow, IdentityQuery
from resistnet.lattice import BoundaryCondition, LatticeMode, LatticeSpec, ModeSpectrum
from resistnet.network import Laplacian, Network, RandomWalkView
from resistnet.spectral import Spectrum

KLEIN = BoundaryCondition.KLEIN
SPEC = LatticeSpec(dims=(5, 4), resistances=(1, Fraction(1, 2)), bc=KLEIN)
NET = Network(n_nodes=3, edges=((0, 1, 1), (1, 2, Fraction(1, 2)), (0, 2, 0.25)))
CASE = OracleCase(
    name="c", description="d", net=NET, pair=(0, 2), expected=Fraction(2, 7)
)

# record -> keyword arguments, in field order; a field left out takes its default
RECORDS = [
    (Network, {"n_nodes": 3, "edges": NET.edges}),
    (Laplacian, {"n": 2, "matrix": ((1.0, -1.0), (-1.0, 1.0)), "components": 1}),
    (RandomWalkView, {"hop_probabilities": ((0.0, 1.0), (1.0, 0.0)), "degrees": (1, 1)}),
    (Spectrum, {"eigenvalues": (0.0, 2.0), "eigenvectors": ((1.0,), (2.0,)),
                "zero_modes": (0,)}),
    (LatticeSpec, {"dims": (5, 4), "resistances": (1, Fraction(1, 2)), "bc": KLEIN}),
    (LatticeMode, {"numbers": (1, 2), "angles": (0.5, 1.0), "eigenvalue": 1.5}),
    (ModeSpectrum, {"spec": SPEC, "modes": (LatticeMode((0,), (0.0,), 0.0),)}),
    (KirchhoffSystem, {"alpha": 0, "beta": 1, "potentials": (Fraction(3), Fraction(0))}),
    (OracleCase, {"name": "c", "description": "d", "net": NET, "pair": (0, 2),
                  "expected": Fraction(2, 7)}),
    (OracleResult, {"case": CASE, "computed": Fraction(2, 7)}),
    (ReproRow, {"ident": "x", "description": "d", "expected": "1",
                "computed": {"oracle": "1"}, "passed": True}),
    (IdentityQuery, {"n_terms": 8, "offset": 3, "damping": 0.5}),
    (ConvergenceRow, {"size": 3, "finite_value": 1.0, "difference": 0.5}),
]
DEFAULTS = {OracleCase: {"spec": None}, IdentityQuery: {"variant": 1}}


@pytest.mark.parametrize("record, kwargs", RECORDS, ids=[r.__name__ for r, _ in RECORDS])
def test_record_contract(record, kwargs):
    full = kwargs | DEFAULTS.get(record, {})
    obj = record(**kwargs)
    assert record._fields == tuple(full)
    assert tuple(obj) == tuple(full.values())
    assert record(*full.values()) == obj
    for name, value in full.items():
        assert getattr(obj, name) is value
    for name in (*full, "other"):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
    assert type(obj._replace()) is record


def test_record_reprs_are_unchanged():
    assert repr(SPEC) == (
        "LatticeSpec(dims=(5, 4), resistances=(1, Fraction(1, 2)), "
        "bc=<BoundaryCondition.KLEIN: 'klein'>)"
    )
    assert repr(NET) == (
        "Network(n_nodes=3, edges=((0, 1, 1), (1, 2, Fraction(1, 2)), (0, 2, 0.25)))"
    )
    assert repr(IdentityQuery(n_terms=8, offset=3, damping=0.5)) == (
        "IdentityQuery(n_terms=8, offset=3, damping=0.5, variant=1)"
    )
    assert repr(IdentityQuery(4, 1, 0.0, 2)) == (
        "IdentityQuery(n_terms=4, offset=1, damping=0.0, variant=2)"
    )


def test_record_hash_and_equality_are_the_field_tuples():
    fields = ((5, 4), (1, Fraction(1, 2)), KLEIN)
    assert hash(SPEC) == hash(fields)
    assert SPEC == fields  # records are tuples
    assert SPEC != LatticeSpec((5, 4), (1, 1), KLEIN)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: IdentityQuery(8, 3, 0.5, variant=3), OutOfRangeError,
         "variant must be 1 or 2, got 3"),
        (lambda: IdentityQuery(0, 0, 0.5), OutOfRangeError, "need N >= 1, got 0"),
        (lambda: IdentityQuery(3, 0, float("nan")), OutOfRangeError,
         "damping must be finite and >= 0, got nan"),
        (lambda: IdentityQuery(3, 0, -1.0), OutOfRangeError,
         "damping must be finite and >= 0, got -1.0"),
        (lambda: IdentityQuery(3, 6, 1.0), OutOfRangeError,
         "offset 6 outside 0..5 for variant 1"),
        (lambda: IdentityQuery(3, 3, 1.0, 2), OutOfRangeError,
         "offset 3 outside 0..2 for variant 2"),
        (lambda: IdentityQuery(8, 3, 0.5)._replace(offset=16), OutOfRangeError,
         "offset 16 outside 0..15 for variant 1"),
        (lambda: LatticeSpec((5,), (1,), BoundaryCondition.FREE_2D), ParseError,
         "free2d needs 2 axis length(s), got (5,)"),
        (lambda: LatticeSpec((5, 4), (1,), BoundaryCondition.FREE_2D), ParseError,
         "need one resistance per axis, got (1,)"),
        (lambda: LatticeSpec((5, 0), (1, 1), BoundaryCondition.FREE_2D), ParseError,
         "axis lengths must be >= 1, got (5, 0)"),
        (lambda: LatticeSpec((5, 4), (1, -1), BoundaryCondition.FREE_2D),
         NonPositiveResistanceError, "resistance must be > 0, got -1"),
        (lambda: LatticeSpec((5, 4), (1, float("inf")), BoundaryCondition.FREE_2D),
         NonPositiveResistanceError, "resistance must be finite, got inf"),
        (lambda: SPEC._replace(dims=(0, 4)), ParseError,
         "axis lengths must be >= 1, got (0, 4)"),
    ],
)
def test_record_validators(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message
