"""Frame-operator numerics: Gram spectra, inverse powers, decay certificates.

The window frame operator of one level is assembled in the truncated angular
basis as S = sum_gamma |chi_gamma><chi_gamma|.  Its nonzero spectrum equals
the nonzero spectrum of the Gram matrix (the two orderings of the same
analysis/synthesis product), which the tests pin down.  Inverse powers are
spectral pseudo-inverses with a fixed relative threshold; matrix elements of
S^-p between window states are only reported on an inner window whose margin
keeps boundary truncation out of the quoted digits.

Certificates: a localization rate lam with |<chi, chi'>| <= G exp(-lam d)
turns, via a geometric series for S^-p, into a certified element bound
a_p * exp(-lambda_p d).  The certificate is sound whenever s_max dominates
the top of the spectrum and s_min sits below the bottom of the retained
spectrum, so spectral estimates from finite windows can be fed in directly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from math import log

import numpy as np

from .lattice import LatticeParams, Window, build_window, m_epsilon
from .magnetic import MagneticParams, RegimeError, bessel_bound, overlap_matrix, regime, window_coords

__all__ = [
    "PSEUDO_INVERSE_RTOL",
    "INNER_MARGIN_ELL",
    "FrameAnalysisError",
    "GramMatrix",
    "FrameOperatorTrunc",
    "DecayCertificate",
    "DecayReport",
    "FrameBoundsRecord",
    "gram",
    "frame_operator",
    "frame_bounds_estimate",
    "s_inverse_power_elements",
    "localization_rate",
    "overlap_rate_constant",
    "neumann_certificate",
    "verify_decay",
    "inner_indices",
]

# eigenvalues below this fraction of the largest are treated as numerical kernel
PSEUDO_INVERSE_RTOL = 1e-10

# inner-window margin, in units of ell_b; Gaussian overlap tails beyond the
# margin stay far below the tolerances quoted on inner-window elements
INNER_MARGIN_ELL = 6.0


class FrameAnalysisError(ValueError):
    """Contract violation in frame-operator numerics."""


@dataclass(frozen=True)
class GramMatrix:
    window: Window
    entries: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.window)
        if self.entries.shape != (n, n):
            raise FrameAnalysisError(f"Gram shape {self.entries.shape} mismatches window size {n}")
        dev = np.max(np.abs(self.entries - self.entries.conj().T))
        if dev > 1e-12:
            raise FrameAnalysisError(f"Gram is not Hermitian: max deviation {dev:.3e}")

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.entries)


@dataclass(frozen=True)
class FrameOperatorTrunc:
    """Spectral data of one level's window frame operator in the angular basis."""

    trunc: int
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    threshold: float
    window_hash: str

    @property
    def numerical_rank(self) -> int:
        return int(np.sum(self.eigenvalues > self.threshold))

    def power(self, p: float) -> np.ndarray:
        """Spectral pseudo-power: eigenvalues below the threshold are dropped."""
        keep = self.eigenvalues > self.threshold
        vals = np.zeros_like(self.eigenvalues)
        vals[keep] = self.eigenvalues[keep] ** p
        return (self.eigenvectors * vals) @ self.eigenvectors.conj().T


def _spatial_subwindow(window: Window) -> Window:
    """The level-0 slice of a window (identical spatial sites in every level)."""
    if window.params.level_max == 0:
        return window
    params0 = dataclasses.replace(window.params, level_max=0)
    return build_window(params0)


def gram(window: Window, mp: MagneticParams) -> GramMatrix:
    """Gram matrix of the window states from the closed-form overlaps."""
    return GramMatrix(window=window, entries=overlap_matrix(window, mp))


def frame_operator(window: Window, mp: MagneticParams) -> FrameOperatorTrunc:
    """Truncated frame operator of the spatial window within one level."""
    w0 = _spatial_subwindow(window)
    trunc, rows = window_coords(w0, mp)
    b = rows.T  # columns are coefficient vectors
    s0 = b @ b.conj().T
    vals, vecs = np.linalg.eigh(s0)
    vals = np.clip(vals, 0.0, None)
    thr = PSEUDO_INVERSE_RTOL * float(vals[-1])
    return FrameOperatorTrunc(
        trunc=trunc,
        matrix=s0,
        eigenvalues=vals,
        eigenvectors=vecs,
        threshold=thr,
        window_hash=w0.content_hash(),
    )


@dataclass(frozen=True)
class FrameBoundsRecord:
    window_hash: str
    n_sites: int
    a_est: float
    b_est: float
    numerical_rank: int
    ill_conditioned: bool
    upper_closed_form: float
    regime: str


def frame_bounds_estimate(windows: list[Window], mp: MagneticParams) -> list[FrameBoundsRecord]:
    """Two-sided spectral estimates from the Gram matrices of nested windows.

    a_est is the smallest retained eigenvalue (above the pseudo-inverse
    threshold), b_est the largest; b_est must stay below the closed-form
    upper constant, which is enforced here rather than reported as advice.
    """
    out = []
    for w in windows:
        g = gram(w, mp)
        vals = g.eigenvalues()
        top = float(vals[-1])
        thr = PSEUDO_INVERSE_RTOL * top
        retained = vals[vals > thr]
        upper = bessel_bound(w.params, mp)
        b_est = float(retained[-1])
        if b_est > upper * (1 + 1e-9):
            raise FrameAnalysisError(
                f"Gram top eigenvalue {b_est} exceeds the closed-form constant {upper}"
            )
        n = len(w)
        slack = int(np.ceil(2.0 * np.sqrt(n)))
        reg = regime(w.params, mp)
        rank = int(retained.size)
        out.append(
            FrameBoundsRecord(
                window_hash=w.content_hash(),
                n_sites=n,
                a_est=float(retained[0]),
                b_est=b_est,
                numerical_rank=rank,
                ill_conditioned=(reg == "overcomplete" and rank < n - slack),
                upper_closed_form=upper,
                regime=reg,
            )
        )
    return out


def inner_indices(window: Window, mp: MagneticParams, margin: float | None = None) -> list[int]:
    """Window sites at least `margin` inside the spatial boundary (default 6 ell_b)."""
    if margin is None:
        margin = INNER_MARGIN_ELL * mp.ell_b
    a_star = window.params.alpha_star
    keep = a_star * np.abs(window.gxy).sum(axis=1) <= window.params.radius - margin
    idx = [int(k) for k in np.nonzero(keep)[0]]
    if not idx:
        raise FrameAnalysisError(
            f"inner window is empty: radius {window.params.radius} with margin {margin}"
        )
    return idx


@dataclass(frozen=True)
class SInversePowerElements:
    """Inner-window matrix elements <chi_g, S^-p chi_g'> for one level."""

    p: int
    inner: list[int]
    entries: np.ndarray
    operator: FrameOperatorTrunc


def s_inverse_power_elements(window: Window, mp: MagneticParams, p: int,
                             margin: float | None = None) -> SInversePowerElements:
    """Matrix elements of the inverse frame-operator power on the inner window.

    Defined in the overcomplete regime only; at and above the critical
    density the lower frame bound degenerates and the inverse is unbounded.
    """
    if regime(window.params, mp) != "overcomplete":
        raise RegimeError(
            f"S^-p requires the overcomplete regime, got {regime(window.params, mp)}"
        )
    if p < 1:
        raise FrameAnalysisError(f"power must be a positive integer, got {p}")
    w0 = _spatial_subwindow(window)
    op = frame_operator(w0, mp)
    _, rows = window_coords(w0, mp)
    b = rows.T
    inner = inner_indices(w0, mp, margin)
    binner = b[:, inner]
    entries = binner.conj().T @ op.power(-p) @ binner
    return SInversePowerElements(p=p, inner=inner, entries=entries, operator=op)


def overlap_rate_constant(window: Window, mp: MagneticParams) -> float:
    """Smallest g >= 1 with |<chi, chi'>| <= g * exp(-lam * dist) on the window,
    for the localization rate of this lattice.  On square lattices with
    spacing >= ell_b the Gaussian overlap achieves g = 1 (sharp at unit steps)."""
    lam = localization_rate(window.params, mp)
    z = np.abs(overlap_matrix(window, mp))
    d = window.distance_matrix()
    return float(max(1.0, np.max(z * np.exp(lam * d))))


def localization_rate(lp: LatticeParams, mp: MagneticParams) -> float:
    """Exponential rate lam with |<chi, chi'>| <= exp(-lam * dist) on the lattice.

    The Gaussian overlap gives the rate (1/4 ell^2) * alpha_star when
    alpha_star <= 1; for wider spacings that expression overshoots at
    nearest neighbours and the valid rate saturates at 1/4 ell^2, so the
    returned rate is (1/4 ell^2) * min(alpha_star, 1).  Sharp at single-axis
    unit steps.
    """
    varpi = 1.0 / (4.0 * mp.ell_b**2)
    return varpi * min(lp.alpha_star, 1.0)


@dataclass(frozen=True)
class DecayCertificate:
    """Certified element bound |entry| <= a_p * exp(-lambda_p * dist)."""

    g: float
    lam: float
    p: int
    eps: float
    theta: float
    delta: float
    s_min: float
    s_max: float
    c_eps: float
    r_p: float
    d_p: float
    e_p: float
    lambda_p: float
    a_p: float


def neumann_certificate(window: Window, g: float, lam: float, s_min: float, s_max: float,
                        p: int, eps: float | None = None, theta: float | None = None,
                        m_eps_value: float | None = None) -> DecayCertificate:
    """Decay certificate for S^-p elements from spectral bounds and a rate.

    Sound whenever s_max >= the top of the spectrum, 0 < s_min <= the bottom
    of the retained spectrum, and the window states satisfy
    |<chi, chi'>| <= g * exp(-lam * dist).  delta is fixed at lam / 2; eps
    and theta default to lam / 4.  The localization budget c_eps uses the
    closed-form dominating value of the m_eps sum unless one is supplied.
    """
    delta = lam / 2.0
    if eps is None:
        eps = lam / 4.0
    if theta is None:
        theta = lam / 4.0
    if not (lam > 0 and g >= 1):
        raise FrameAnalysisError(f"need lam > 0 and g >= 1, got lam={lam}, g={g}")
    if not (0 < eps < delta):
        raise FrameAnalysisError(f"need 0 < eps < {delta} (= lam/2), got eps={eps}")
    if not (0 < theta < lam - delta):
        raise FrameAnalysisError(f"need 0 < theta < {lam - delta}, got theta={theta}")
    if not (0 < s_min < s_max):
        raise FrameAnalysisError(f"need 0 < s_min < s_max, got {s_min}, {s_max}")
    if p < 1 or int(p) != p:
        raise FrameAnalysisError(f"power must be a positive integer, got {p}")
    if m_eps_value is None:
        m_eps_value = m_epsilon(window, eps)[1]
    c_eps = g * m_eps_value
    r_p = 1.0 - (s_min / s_max) ** p
    d_p = g * (1.0 + (c_eps / s_max) ** p)
    e_p = (lam - delta - theta) / log(d_p / r_p)
    lambda_p = min(theta, log(1.0 / r_p) * e_p)
    a_p = 2.0 / (s_max**p * (1.0 - r_p))
    return DecayCertificate(
        g=g, lam=lam, p=p, eps=eps, theta=theta, delta=delta,
        s_min=s_min, s_max=s_max, c_eps=c_eps,
        r_p=r_p, d_p=d_p, e_p=e_p, lambda_p=lambda_p, a_p=a_p,
    )


@dataclass(frozen=True)
class DecayReport:
    violations: int
    n_pairs: int
    max_ratio: float
    fitted_rate: float | None
    lambda_p: float
    a_p: float


def verify_decay(entries: np.ndarray, dists: np.ndarray, cert: DecayCertificate,
                 scale: float = 1.0) -> DecayReport:
    """Check every element against scale * a_p * exp(-lambda_p * dist).

    Also fits a decay rate to the off-diagonal elements above the numerical
    floor; certificates are honest when the fitted rate is at least
    lambda_p.  A pair violates when |entry| exceeds the bound by more than
    1e-9 relative.
    """
    entries = np.asarray(entries)
    dists = np.asarray(dists, dtype=np.float64)
    if entries.shape != dists.shape:
        raise FrameAnalysisError(f"shape mismatch {entries.shape} vs {dists.shape}")
    mags = np.abs(entries)
    bounds = scale * cert.a_p * np.exp(-cert.lambda_p * dists)
    ratio = mags / bounds
    violations = int(np.sum(ratio > 1.0 + 1e-9))
    floor = 1e-14 * mags.max() if mags.size and mags.max() > 0 else 0.0
    mask = (dists > 0) & (mags > floor)
    fitted = None
    if np.sum(mask) >= 2:
        slope = np.polyfit(dists[mask], np.log(mags[mask]), 1)[0]
        fitted = float(-slope)
    return DecayReport(
        violations=violations,
        n_pairs=int(entries.size),
        max_ratio=float(ratio.max()) if ratio.size else 0.0,
        fitted_rate=fitted,
        lambda_p=cert.lambda_p,
        a_p=cert.a_p,
    )
