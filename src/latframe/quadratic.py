"""Frame coefficients of one-particle Hamiltonians: hopping and constants.

The Hamiltonians here keep the levels apart, H = sum_r H_r Pi_r.  Their
hopping matrix t(g', g) = <chi_g', S^-1 H S^-1 chi_g> generates the same
free dynamics as H on the span of the frame, and vanishes exactly between
levels.  `hopping_coeffs` is the window route of the lowest level, which no
command and no oracle calls: it sandwiches one block h, H_0 in the truncated
angular basis, between the window dual rows of
`frame_analysis.frame_operator`.  For the level Hamiltonian q(r) Pi_r,
q(r) = eps_b * (r + 1/2), `landau_coefficients` reads
t_r = q(r) * <chi, S^-2 chi'> on level 0's points and the constant c_r =
<chi, S^-1 chi>, the same on every site, from one adjoint dual of power 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame_analysis import (
    FrameAnalysisError,
    SInversePowerElements,
    frame_operator,
    s_inverse_diagonal,
    s_inverse_power_elements,
)
from .lattice import Window
from .magnetic import MagneticParams

__all__ = [
    "hopping_coeffs",
    "landau_coefficients",
]


def hopping_coeffs(h: np.ndarray, window: Window, mp: MagneticParams) -> np.ndarray:
    """Double-dressed hopping matrix t(g', g) = conj(D_g') h D_g of a
    lowest-level window, with D the window dual rows.

    h is the lowest-level block of H, shape (M+1, M+1) with M the window's
    truncation; the window must hold the lowest level alone.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise FrameAnalysisError(f"the lowest-level block must be (M+1, M+1), got {h.shape}")
    op = frame_operator(window, mp)
    if h.shape[0] - 1 != op.trunc:
        raise FrameAnalysisError(
            f"operator truncation {h.shape[0] - 1} mismatches window truncation {op.trunc}; "
            f"build the operator with the window's truncation"
        )
    return op.dual.conj() @ h @ op.dual.T


@dataclass(frozen=True)
class LandauCoefficients(SInversePowerElements):
    """Level r's table, entries = q <chi_g, S^-2 chi_g'> between the level-0 `sites`,
    its energy q = q(r) and c = <chi, S^-1 chi>; entries and c both come from `dual`."""

    q: float
    c: float


def landau_coefficients(r: int, window: Window, mp: MagneticParams) -> LandauCoefficients:
    """Infinite-lattice coefficients of the pure level-r Hamiltonian.

    Levels decouple exactly and each is a copy of level 0, so level r's table
    is q(r) = eps_b * (r + 1/2) times the S^-2 elements between the window's
    level-0 sites, whether or not the window holds level r; the constant
    <chi, S^-1 chi>, the same on every site, is read from the same dual."""
    if r < 0:
        raise FrameAnalysisError(f"level must be non-negative, got {r}")
    q = mp.level_spacing * (r + 0.5)
    elems = s_inverse_power_elements(window, mp, p=2)
    return LandauCoefficients(sites=elems.sites, entries=q * elems.entries, dual=elems.dual,
                              q=q, c=s_inverse_diagonal(elems.dual, mp, 1))
