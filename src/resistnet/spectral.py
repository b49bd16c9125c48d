"""Two-point resistance as a sum over nonzero Laplacian eigenmodes."""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import DisconnectedNetworkError, MultipleZeroModesError, NodeIndexError
from .network import Laplacian

if TYPE_CHECKING:
    import numpy as np

# An eigenvalue below this fraction of the largest one is a zero mode.
ZERO_MODE_RTOL = 1e-9


class Spectrum(NamedTuple):
    """Eigensystem of a network Laplacian, eigenvalues ascending.

    Column i of ``eigenvectors`` belongs to ``eigenvalues[i]``.  Zero modes
    (one per connected component) are flagged by index and excluded from
    resistance sums.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    zero_modes: tuple[int, ...]

    @property
    def n(self) -> int:
        return int(self.eigenvalues.shape[0])

    @property
    def is_connected(self) -> bool:
        return len(self.zero_modes) == 1


def decompose(lap: Laplacian) -> Spectrum:
    """Dense symmetric eigendecomposition with zero-mode accounting.

    Deterministic for identical input.  Raises MultipleZeroModesError when
    the number of near-zero eigenvalues differs from the number of graph
    components, which signals numerical failure.
    """
    import numpy as np  # deferred: routes without eigenmodes never load it

    w, v = np.linalg.eigh(lap.matrix)
    top = float(w[-1])
    threshold = ZERO_MODE_RTOL * top if top > 0 else ZERO_MODE_RTOL
    zero_modes = tuple(int(k) for k in np.nonzero(w < threshold)[0])
    if len(zero_modes) != lap.components:
        raise MultipleZeroModesError(
            f"{len(zero_modes)} near-zero eigenvalues but {lap.components} "
            f"connected component(s)"
        )
    w.setflags(write=False)
    v.setflags(write=False)
    return Spectrum(eigenvalues=w, eigenvectors=v, zero_modes=zero_modes)


def _require_connected(spec: Spectrum) -> None:
    if not spec.is_connected:
        raise DisconnectedNetworkError(
            "resistance is undefined across components "
            f"({len(spec.zero_modes)} zero modes)"
        )


def two_point_resistance(spec: Spectrum, alpha: int, beta: int) -> float:
    """Resistance between two nodes from the nonzero eigenmodes.

    Sums |psi_i(alpha) - psi_i(beta)|^2 / lambda_i over modes with
    lambda_i > 0; returns 0 for alpha == beta.
    """
    _require_connected(spec)
    n = spec.n
    if not (0 <= alpha < n and 0 <= beta < n):
        raise NodeIndexError(f"nodes ({alpha}, {beta}) outside 0..{n - 1}")
    if alpha == beta:
        return 0.0
    import numpy as np  # deferred, as in decompose

    # The eigenvalues ascend, so the zero modes are the first columns.
    c = len(spec.zero_modes)
    diff = spec.eigenvectors[alpha, c:] - spec.eigenvectors[beta, c:]
    return float(np.sum(diff * diff / spec.eigenvalues[c:]))


def resistance_matrix(spec: Spectrum) -> np.ndarray:
    """All-pairs resistance table: symmetric, zero diagonal.

    Entry (a, b) is G_aa + G_bb - G_ab - G_ba, clipped at zero, where G is
    the pseudo-inverse built from the nonzero modes; the table is built in
    place, next to G, with no other n x n temporary.
    """
    import numpy as np  # deferred, as in decompose

    _require_connected(spec)
    c = len(spec.zero_modes)  # a prefix, as in two_point_resistance
    scaled = spec.eigenvectors[:, c:] / np.sqrt(spec.eigenvalues[c:])
    gram = scaled @ scaled.T
    del scaled
    diag = np.diag(gram)
    table = np.add.outer(diag, diag)
    # scaled @ scaled.T fills both triangles from one (BLAS syrk): gram.T is gram
    table -= gram
    table -= gram
    np.maximum(table, 0.0, out=table)
    np.fill_diagonal(table, 0.0)
    table.setflags(write=False)
    return table
