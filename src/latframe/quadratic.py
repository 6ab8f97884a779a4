"""Frame coefficients of one-particle Hamiltonians: hopping and constants.

A one-particle operator is stored blockwise over levels in the truncated
angular basis: blocks[r1, r2] maps level r2 into level r1.  The hopping
matrix between localized states double-dresses the operator with the
inverse frame operator,

    t(g', g) = <chi_g', S^-1 H S^-1 chi_g> = conj(D_g') H D_g,

where D are the dual rows S^+ chi of `frame_analysis.frame_operator`, so
that sum t(g', g) a*_g' a_g generates the same free dynamics as H on the
span of the frame.  Level Hamiltonians have the closed route
t_r = q(r) * (S^-2 sandwich) with q(r) = eps_b * (r + 1/2), kept as a
second code path (through `s_inverse_power_elements`) so the generic
blockwise assembly can be cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame_analysis import FrameAnalysisError, frame_operator, s_inverse_power_elements
from .lattice import Window
from .magnetic import MagneticParams

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
    op = frame_operator(window, mp)
    levels = window.levels
    if h.trunc != op.trunc:
        raise FrameAnalysisError(
            f"operator truncation {h.trunc} mismatches window truncation {op.trunc}; "
            f"build the operator with the window's truncation"
        )
    lmax = int(levels.max())
    if h.n_levels < lmax + 1:
        raise FrameAnalysisError(f"operator covers {h.n_levels} levels, window needs {lmax + 1}")
    t = np.zeros((len(window), len(window)), dtype=np.complex128)
    sels = [np.nonzero(levels == r)[0] for r in range(lmax + 1)]
    for r1, sel1 in enumerate(sels):
        for r2, sel2 in enumerate(sels):
            blk = h.blocks[r1, r2]
            if sel1.size and sel2.size and np.any(blk):
                t[np.ix_(sel1, sel2)] = op.dual[sel1].conj() @ blk @ op.dual[sel2].T
    return t


def constant_terms(h: SingleParticleOperator, p: SingleParticleOperator, window: Window,
                   mp: MagneticParams) -> tuple[np.ndarray, float]:
    """Per-site constants c(g) = <chi_g, P H P S^-1 chi_g>.

    Returns the real parts together with the largest imaginary residue;
    the residue vanishes (to rounding) when P H P commutes with the frame
    operator, which covers the level-Hamiltonian uses.
    """
    op = frame_operator(window, mp)
    levels = window.levels
    for name, oper in (("H", h), ("P", p)):
        if oper.trunc != op.trunc:
            raise FrameAnalysisError(f"{name} truncation {oper.trunc} mismatches window {op.trunc}")
    # projector contract: idempotent and Hermitian blockwise
    nl = int(levels.max()) + 1
    m = op.trunc + 1
    # block (r1, r2) of a SingleParticleOperator as one (nl m) x (nl m) matrix
    big, bigh = (o.blocks[:nl, :nl].transpose(0, 2, 1, 3).reshape(nl * m, nl * m) for o in (p, h))
    if np.max(np.abs(big @ big - big)) > 1e-10 or np.max(np.abs(big - big.conj().T)) > 1e-10:
        raise FrameAnalysisError("P is not an orthogonal projection (within 1e-10)")
    php = big @ bigh @ big
    c = np.zeros(len(window), dtype=np.complex128)
    for k, r in enumerate(levels):
        blk = php[r * m:(r + 1) * m, r * m:(r + 1) * m]
        c[k] = np.vdot(op.rows[k], blk @ op.dual[k])
    max_imag = float(np.max(np.abs(c.imag))) if len(c) else 0.0
    return c.real.copy(), max_imag


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
