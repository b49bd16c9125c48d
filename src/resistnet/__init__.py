"""Two-point resistance of finite resistor networks.

Exact rational and float spectral solvers for arbitrary graphs, closed
forms for regular lattices under free, periodic, cylindrical, twisted
(Moebius-strip), and twisted-periodic (Klein-bottle) wraps, lattice-sum
and product identities, and infinite-lattice integrals.
"""

from .errors import (
    DisconnectedNetworkError,
    MultipleZeroModesError,
    NodeIndexError,
    NonPositiveResistanceError,
    OutOfRangeError,
    ParseError,
    QuadratureFailureError,
    ResistnetError,
    SameNodeError,
    SelfLoopError,
    SingularSystemError,
)
from .exact import (
    KirchhoffSystem,
    OracleCase,
    OracleResult,
    exact_resistance_matrix,
    reference_cases,
    solve_exact,
    solve_kirchhoff,
    solve_reference_table,
)
from .golden import ReproRow, reproduce_all
from .identities import (
    IdentityQuery,
    finite_to_infinite_convergence,
    i1_closed,
    i1_direct,
    i2_closed,
    i2_direct,
    product_identity_free,
    product_identity_periodic,
    r_infinite_2d,
    r_infinite_3d,
)
from .lattice import (
    BoundaryCondition,
    LatticeSpec,
    ModeSpectrum,
    f_sum,
    g_sum,
    make_lattice,
    mode_spectrum,
    r_1d_free,
    r_1d_periodic,
    r_2d_cylinder,
    r_2d_free,
    r_2d_klein,
    r_2d_moebius,
    r_2d_periodic,
    r_3d_free,
    resistance,
)
from .network import (
    Laplacian,
    Network,
    RandomWalkView,
    assemble_laplacian,
    build_network,
    connectivity_check,
    first_passage_probability,
    random_walk_view,
)
from .spectral import Spectrum, decompose, resistance_matrix, two_point_resistance

__version__ = "0.1.0"
