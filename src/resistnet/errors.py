"""Exception hierarchy and the process exit codes the CLI maps them to."""

from __future__ import annotations

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_RANGE = 4
EXIT_NUMERIC = 5


class ResistnetError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = EXIT_NUMERIC


class ParseError(ResistnetError):
    """Malformed network file, lattice spec, or CLI value."""

    exit_code = EXIT_PARSE


class NodeIndexError(ResistnetError):
    """Node index outside 0..n_nodes-1 or coordinate outside the lattice."""

    exit_code = EXIT_RANGE


class SelfLoopError(ResistnetError):
    """Edge with identical endpoints; self-loops carry no current."""

    exit_code = EXIT_RANGE


class NonPositiveResistanceError(ResistnetError):
    """Resistance that is zero, negative, or not finite."""

    exit_code = EXIT_RANGE


class SameNodeError(ResistnetError):
    """Query requires two distinct nodes."""

    exit_code = EXIT_RANGE


class OutOfRangeError(ResistnetError):
    """Parameter or value outside its admissible range.

    Identity and lattice-sum parameters, the comparison tolerance, a value
    a float route cannot carry, and an exact value too long to print.
    """

    exit_code = EXIT_RANGE


class DisconnectedNetworkError(ResistnetError):
    """Resistance between nodes in different components is undefined."""

    exit_code = EXIT_DISCONNECTED


class MultipleZeroModesError(ResistnetError):
    """More near-zero eigenvalues than connected components allow."""

    exit_code = EXIT_NUMERIC


class SingularSystemError(ResistnetError):
    """Grounded Kirchhoff system is singular; impossible for connected input."""

    exit_code = EXIT_NUMERIC


class QuadratureFailureError(ResistnetError):
    """Adaptive quadrature did not reach the requested accuracy."""

    exit_code = EXIT_NUMERIC
