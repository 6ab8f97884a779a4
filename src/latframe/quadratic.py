"""Frame coefficients of one-particle Hamiltonians: hopping and constants.

A one-particle operator is stored blockwise over levels in the truncated
angular basis: blocks[r1, r2] maps level r2 into level r1.  The hopping
matrix between localized states double-dresses the operator with the
inverse frame operator,

    t(g', g) = <chi_g', S^-1 H S^-1 chi_g>,

so that sum t(g', g) a*_g' a_g generates the same free dynamics as H on the
span of the frame.  Level Hamiltonians have the closed route
t_r = q(r) * (S^-2 sandwich) with q(r) = eps_b * (r + 1/2), kept as an
independent code path so the generic assembly can be cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame_analysis import (
    FrameAnalysisError,
    frame_operator,
    s_inverse_power_elements,
    _spatial_subwindow,
)
from .lattice import Window
from .magnetic import MagneticParams, window_coords

__all__ = [
    "SingleParticleOperator",
    "landau_operator",
    "level_projector",
    "hopping_coeffs",
    "constant_terms",
    "landau_coefficients",
]


@dataclass(frozen=True)
class SingleParticleOperator:
    """Blockwise one-particle operator over levels 0..level_max.

    blocks has shape (L+1, L+1, M+1, M+1) with blocks[r1, r2] the component
    mapping level r2 to level r1 in the angular basis.
    """

    blocks: np.ndarray

    def __post_init__(self) -> None:
        if self.blocks.ndim != 4 or self.blocks.shape[0] != self.blocks.shape[1] \
                or self.blocks.shape[2] != self.blocks.shape[3]:
            raise FrameAnalysisError(f"blocks must be (L+1, L+1, M+1, M+1), got {self.blocks.shape}")

    @property
    def n_levels(self) -> int:
        return self.blocks.shape[0]

    @property
    def trunc(self) -> int:
        return self.blocks.shape[2] - 1


def landau_operator(n_levels: int, trunc: int, eps_b: float) -> SingleParticleOperator:
    """The level Hamiltonian: eps_b * (r + 1/2) on level r, diagonal over levels."""
    m = trunc + 1
    blocks = np.zeros((n_levels, n_levels, m, m), dtype=np.complex128)
    for r in range(n_levels):
        blocks[r, r] = eps_b * (r + 0.5) * np.eye(m)
    return SingleParticleOperator(blocks=blocks)


def level_projector(n_levels: int, trunc: int, levels: list[int]) -> SingleParticleOperator:
    """Projection onto the listed levels (identity blocks there, zero elsewhere)."""
    m = trunc + 1
    blocks = np.zeros((n_levels, n_levels, m, m), dtype=np.complex128)
    for r in levels:
        blocks[r, r] = np.eye(m)
    return SingleParticleOperator(blocks=blocks)


def hopping_coeffs(h: SingleParticleOperator, window: Window, mp: MagneticParams) -> np.ndarray:
    """Generic double-dressed hopping matrix t(g', g) = <chi_g', S^-1 H S^-1 chi_g>."""
    trunc, rows = window_coords(window, mp)
    levels = window.levels
    if h.trunc != trunc:
        raise FrameAnalysisError(
            f"operator truncation {h.trunc} mismatches window truncation {trunc}; "
            f"build the operator with the window's truncation"
        )
    lmax = int(levels.max())
    if h.n_levels < lmax + 1:
        raise FrameAnalysisError(f"operator covers {h.n_levels} levels, window needs {lmax + 1}")
    op = frame_operator(window, mp)
    sinv = op.power(-1)
    n = len(window)
    t = np.zeros((n, n), dtype=np.complex128)
    # dressed blocks: S^-1 H_{r1 r2} S^-1, shared by all site pairs on (r1, r2)
    dressed: dict[tuple[int, int], np.ndarray] = {}
    for r1 in range(lmax + 1):
        for r2 in range(lmax + 1):
            blk = h.blocks[r1, r2]
            if np.any(blk):
                dressed[(r1, r2)] = sinv @ blk @ sinv
    for (r1, r2), mblk in dressed.items():
        sel1 = np.nonzero(levels == r1)[0]
        sel2 = np.nonzero(levels == r2)[0]
        if sel1.size and sel2.size:
            t[np.ix_(sel1, sel2)] = rows[sel1].conj() @ mblk @ rows[sel2].T
    return t


def constant_terms(h: SingleParticleOperator, p: SingleParticleOperator, window: Window,
                   mp: MagneticParams) -> tuple[np.ndarray, float]:
    """Per-site constants c(g) = <chi_g, P H P S^-1 chi_g>.

    Returns the real parts together with the largest imaginary residue;
    the residue vanishes (to rounding) when P H P commutes with the frame
    operator, which covers the level-Hamiltonian uses.
    """
    trunc, rows = window_coords(window, mp)
    levels = window.levels
    for name, oper in (("H", h), ("P", p)):
        if oper.trunc != trunc:
            raise FrameAnalysisError(f"{name} truncation {oper.trunc} mismatches window {trunc}")
    # projector contract: idempotent and Hermitian blockwise
    lmax = int(levels.max())
    m = trunc + 1
    big = np.zeros(((lmax + 1) * m, (lmax + 1) * m), dtype=np.complex128)
    bigh = np.zeros_like(big)
    for r1 in range(lmax + 1):
        for r2 in range(lmax + 1):
            big[r1 * m:(r1 + 1) * m, r2 * m:(r2 + 1) * m] = p.blocks[r1, r2]
            bigh[r1 * m:(r1 + 1) * m, r2 * m:(r2 + 1) * m] = h.blocks[r1, r2]
    if np.max(np.abs(big @ big - big)) > 1e-10 or np.max(np.abs(big - big.conj().T)) > 1e-10:
        raise FrameAnalysisError("P is not an orthogonal projection (within 1e-10)")
    op = frame_operator(window, mp)
    sinv = op.power(-1)
    php = big @ bigh @ big
    c = np.zeros(len(window), dtype=np.complex128)
    for k in range(len(window)):
        r = int(levels[k])
        vec = np.zeros((lmax + 1) * m, dtype=np.complex128)
        vec[r * m:(r + 1) * m] = rows[k]
        target = np.zeros_like(vec)
        target[r * m:(r + 1) * m] = sinv @ rows[k]
        c[k] = np.vdot(vec, php @ target)
    max_imag = float(np.max(np.abs(c.imag))) if len(c) else 0.0
    return c.real.copy(), max_imag


def landau_coefficients(r: int, window: Window, mp: MagneticParams,
                        margin: float | None = None) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Closed-route coefficients of the pure level-r Hamiltonian.

    Returns (t_r, c_r, inner) where t_r = q(r) * <chi, S^-2 chi'> on the
    inner window, c_r = <chi, S^-1 chi> on the same sites, and
    q(r) = eps_b * (r + 1/2).  Levels decouple exactly, so elements between
    different levels vanish identically and are not materialized.
    """
    if r < 0:
        raise FrameAnalysisError(f"level must be non-negative, got {r}")
    q = mp.level_spacing * (r + 0.5)
    w0 = _spatial_subwindow(window)
    el2 = s_inverse_power_elements(w0, mp, p=2, margin=margin)
    el1 = s_inverse_power_elements(w0, mp, p=1, margin=margin)
    t_r = q * el2.entries
    c_r = np.real(np.diag(el1.entries)).copy()
    return t_r, c_r, el2.inner
