"""Frame coefficients of one-particle Hamiltonians: hopping and constants.

The Hamiltonians here keep the levels apart, H = sum_r H_r Pi_r, and are
stored as their level blocks h[r] in the truncated angular basis.  The
hopping matrix between localized states double-dresses H with the inverse
frame operator,

    t(g', g) = <chi_g', S^-1 H S^-1 chi_g> = conj(D_g') h[r] D_g    (g', g on level r),

where D are the dual rows S^+ chi of `frame_analysis.frame_operator`, so
that sum t(g', g) a*_g' a_g generates the same free dynamics as H on the
span of the frame.  Entries between different levels vanish exactly, since
neither H nor S mixes levels.  For the level Hamiltonian q(r) Pi_r with
q(r) = eps_b * (r + 1/2) this is t_r = q(r) * <chi, S^-2 chi'>, which
`landau_coefficients` reads from `s_inverse_power_elements` together with
the constants c_r = <chi, S^-1 chi>.
"""

from __future__ import annotations

import numpy as np

from .frame_analysis import FrameAnalysisError, frame_operator, s_inverse_power_elements
from .lattice import Window
from .magnetic import MagneticParams

__all__ = [
    "landau_operator",
    "hopping_coeffs",
    "landau_coefficients",
]


def landau_operator(n_levels: int, trunc: int, eps_b: float) -> np.ndarray:
    """Level blocks of the Landau Hamiltonian: eps_b * (r + 1/2) * I on level r."""
    q = eps_b * (np.arange(n_levels) + 0.5)
    return q[:, None, None] * np.eye(trunc + 1, dtype=np.complex128)


def hopping_coeffs(h: np.ndarray, window: Window, mp: MagneticParams) -> np.ndarray:
    """Double-dressed hopping matrix t(g', g) = <chi_g', S^-1 H S^-1 chi_g>.

    h holds the level blocks of H, shape (levels, M+1, M+1) with M the
    window's truncation; h[r] acts on level r.  Entries between sites of
    different levels are exact zeros.
    """
    h = np.asarray(h)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise FrameAnalysisError(f"level blocks must be (levels, M+1, M+1), got {h.shape}")
    op = frame_operator(window, mp)
    levels = window.levels
    if h.shape[1] - 1 != op.trunc:
        raise FrameAnalysisError(
            f"operator truncation {h.shape[1] - 1} mismatches window truncation {op.trunc}; "
            f"build the operator with the window's truncation"
        )
    lmax = int(levels.max())
    if h.shape[0] < lmax + 1:
        raise FrameAnalysisError(f"operator covers {h.shape[0]} levels, window needs {lmax + 1}")
    t = np.zeros((len(window), len(window)), dtype=np.complex128)
    for r in range(lmax + 1):
        sel = np.nonzero(levels == r)[0]
        if sel.size:
            t[np.ix_(sel, sel)] = op.dual[sel].conj() @ h[r] @ op.dual[sel].T
    return t


def landau_coefficients(r: int, window: Window, mp: MagneticParams,
                        margin: float | None = None) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Closed-route coefficients of the pure level-r Hamiltonian.

    Returns (t_r, c_r, inner) where t_r = q(r) * <chi, S^-2 chi'> on the
    inner window, c_r = <chi, S^-1 chi> on the same sites, and
    q(r) = eps_b * (r + 1/2).  The elements are those between the level-0
    sites; level r must repeat those sites, and inner lists positions among
    them.  Levels decouple exactly, so elements between different levels
    vanish identically and are not materialized.
    """
    if r < 0:
        raise FrameAnalysisError(f"level must be non-negative, got {r}")
    levels = window.levels
    if not np.array_equal(window.gxy[levels == r], window.gxy[levels == 0]):
        raise FrameAnalysisError(
            f"level {r} of the window does not repeat its {int(np.sum(levels == 0))} "
            f"level-0 sites (it has {int(np.sum(levels == r))})"
        )
    q = mp.level_spacing * (r + 0.5)
    el2 = s_inverse_power_elements(window, mp, p=2, margin=margin)
    el1 = s_inverse_power_elements(window, mp, p=1, margin=margin)
    t_r = q * el2.entries
    c_r = np.real(np.diag(el1.entries)).copy()
    return t_r, c_r, el2.inner
