"""Gaussian-localized level states and their exact overlap algebra.

All states live in symmetric gauge with magnetic length ell_b.  Within one
level the Hilbert space is coordinatized by the angular Laguerre basis
psi_(r, m), m = 0, 1, ...; the lattice-localized state chi_(r, gamma) is the
phase-space translate of psi_(r, 0) to the lattice point gamma and has the
closed-form coefficient vector

    c_m(gamma) = exp(-|gamma|^2 / 4 ell^2) * w^m / sqrt(m!),
    w = (gamma_1 + i gamma_2) / (ell sqrt(2)).

Wedge convention used throughout: gamma ^ x = gamma_1 x_2 - gamma_2 x_1.
Translations compose as T_{g+g'} = exp(i g^g' / 2 ell^2) T_g T_{g'}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import exp, lgamma, log, pi

import numpy as np

from .lattice import LatticeParams, Site, Window

__all__ = [
    "MagneticParams",
    "LaguerreCoords",
    "TruncationError",
    "RegimeError",
    "choose_truncation",
    "laguerre_psi",
    "chi_coords",
    "chi_pointwise",
    "overlap",
    "overlap_matrix",
    "theta3",
    "bessel_bound",
    "regime",
    "coords_pointwise",
    "window_coords",
]

TAIL_TOL = 1e-12
_THETA3_TOL = 1e-16  # theta3 stops at a term below this fraction of the sum
_REGIME_RTOL = 1e-9  # relative width of regime()'s 'threshold' band


class TruncationError(ValueError):
    """Angular truncation too small for the requested window."""


class RegimeError(ValueError):
    """Operation not defined in the current lattice density regime."""


@dataclass(frozen=True)
class MagneticParams:
    """Magnetic length, level spacing, and optional angular truncation.

    eps_b defaults to 1 / ell_b**2 (natural units); laguerre_trunc, when
    set, pins the angular cutoff M instead of the automatic rule.
    """

    ell_b: float
    eps_b: float | None = None
    laguerre_trunc: int | None = None

    def __post_init__(self) -> None:
        if self.ell_b <= 0:
            raise ValueError(f"ell_b must be positive, got {self.ell_b}")
        if self.eps_b is not None and self.eps_b <= 0:
            raise ValueError(f"eps_b must be positive, got {self.eps_b}")
        if self.laguerre_trunc is not None and self.laguerre_trunc < 0:
            raise ValueError(f"laguerre_trunc must be non-negative, got {self.laguerre_trunc}")

    @property
    def level_spacing(self) -> float:
        return self.eps_b if self.eps_b is not None else 1.0 / self.ell_b**2

    def wedge(self, g: np.ndarray, x: np.ndarray) -> np.ndarray:
        """gamma ^ x = gamma_1 x_2 - gamma_2 x_1 (sign fixed here, used everywhere)."""
        g = np.asarray(g, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        return g[..., 0] * x[..., 1] - g[..., 1] * x[..., 0]


@dataclass(frozen=True)
class LaguerreCoords:
    """Coefficient vector of a one-particle state in the basis of one level."""

    level: int
    coeffs: np.ndarray
    ell_b: float

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError(f"level must be non-negative, got {self.level}")

    @property
    def trunc(self) -> int:
        return len(self.coeffs) - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def poisson_tail(m: int, u: float) -> float:
    """Poisson tail sum_{k>m} e^-u u^k / k! (the regularized lower incomplete
    gamma function P(m + 1, u)), for m >= 0 and u >= 0.

    Above the mean (m + 1 > u) the upper terms are summed directly; otherwise
    the tail is 1 minus the head sum_{k<=m}, which is then at most about 1/2,
    so the subtraction loses no relative accuracy.  Either series starts at
    its largest term and shrinks by a ratio below 1, so it stops once a term
    is below 1e-17 of the running sum; the sum is scaled by its first term,
    whose logarithm carries the magnitude, so nothing overflows.
    """
    if u == 0.0:
        return 0.0
    upper = m + 1 > u
    k = m + 1 if upper else m
    log_first = -u + k * log(u) - lgamma(k + 1)
    total, term = 1.0, 1.0
    while term > 1e-17 * total:
        if upper:
            k += 1
            term *= u / k
        else:
            if k == 0:
                break
            term *= k / u
            k -= 1
        total += term
    part = exp(log_first + log(total))
    return part if upper else 1.0 - part


def choose_truncation(radius_max: float, ell_b: float) -> int:
    """Angular cutoff M for states localized within |gamma| <= radius_max.

    Starts from the a-priori value ceil(e * R^2 / 4 ell^2 + 40) and verifies
    the exact coefficient tail (a Poisson tail with mean R^2 / 2 ell^2),
    growing M until the tail is below TAIL_TOL.
    """
    u = (radius_max / ell_b) ** 2 / 2.0
    m = int(np.ceil(np.e * u / 2.0 + 40))
    while poisson_tail(m, u) >= TAIL_TOL:
        m = int(np.ceil(1.1 * m)) + 8
        if m > 200_000:
            raise TruncationError(f"no acceptable truncation below 200000 for radius {radius_max}")
    return m


def coords_tail(gamma: tuple[float, float], ell_b: float, m: int) -> float:
    """Exact squared-norm tail sum_{k>m} |c_k(gamma)|^2."""
    u = (gamma[0] ** 2 + gamma[1] ** 2) / (2.0 * ell_b**2)
    return poisson_tail(m, u)


def chi_coords(gamma: tuple[float, float], ell_b: float, trunc: int, level: int = 0) -> LaguerreCoords:
    """Closed-form coefficients of the localized state at gamma in its level.

    Raises TruncationError when the coefficient tail beyond trunc is not
    below the package tolerance: truncation failures are reported, never
    silently accepted.
    """
    tail = coords_tail(gamma, ell_b, trunc)
    if tail >= TAIL_TOL:
        raise TruncationError(
            f"truncation {trunc} leaves tail {tail:.3e} for |gamma|={np.hypot(*gamma):.3f}; "
            f"needed < {TAIL_TOL:g}"
        )
    w = complex(gamma[0], gamma[1]) / (ell_b * np.sqrt(2.0))
    m = np.arange(trunc + 1)
    lg = np.array([lgamma(k + 1) for k in m])
    if abs(w) == 0.0:
        coeffs = np.zeros(trunc + 1, dtype=np.complex128)
        coeffs[0] = 1.0
    else:
        logmag = -abs(w) ** 2 / 2.0 + m * np.log(abs(w)) - 0.5 * lg
        phase = np.exp(1j * m * np.angle(w))
        coeffs = np.exp(logmag) * phase
    return LaguerreCoords(level=level, coeffs=coeffs, ell_b=ell_b)


def laguerre_psi(n1: int, n2: int, x: np.ndarray, ell_b: float) -> np.ndarray:
    """Pointwise values of the basis state psi_(n1, n2) at planar points x.

    x has shape (..., 2); the result is complex with the same leading shape.
    n1 is the level index, n2 the angular index.  The two index orders are
    related by conjugating the angular factor and a sign, which is used for
    numerical stability instead of negative-order polynomials.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError(f"indices must be non-negative, got ({n1}, {n2})")
    from scipy.special import eval_genlaguerre

    x = np.asarray(x, dtype=np.float64)
    z = (x[..., 0] + 1j * x[..., 1]) / (ell_b * np.sqrt(2.0))
    u = np.abs(z) ** 2
    lo, hi = min(n1, n2), max(n1, n2)
    delta = hi - lo
    lag = eval_genlaguerre(lo, delta, u)
    # prefactor sqrt(lo!/hi!) combined with |z|^delta and the Gaussian in log space
    logmag = np.where(u > 0, -u / 2.0 + delta * np.log(np.where(u > 0, np.abs(z), 1.0)), -u / 2.0)
    logmag = logmag + 0.5 * (lgamma(lo + 1) - lgamma(hi + 1))
    ang = np.angle(z)
    if n2 >= n1:
        phase = np.exp(-1j * delta * ang)
        sign = 1.0
    else:
        phase = np.exp(1j * delta * ang)
        sign = (-1.0) ** delta
    vals = sign * np.exp(logmag) * phase * lag / (ell_b * np.sqrt(2.0 * pi))
    if delta > 0:
        vals = np.where(u == 0.0, 0.0, vals)
    return vals


def chi_pointwise(site_gamma: tuple[float, float], x: np.ndarray, mp: MagneticParams,
                  level: int = 0, trunc: int | None = None) -> np.ndarray:
    """Values of chi_(level, gamma) at planar points x, shape (..., 2).

    The lowest level uses the closed Gaussian form; higher levels are
    synthesized from the coefficient vector and laguerre_psi.
    """
    ell = mp.ell_b
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(site_gamma, dtype=np.float64)
    if level == 0:
        d = x - g
        phase = np.exp(-1j * mp.wedge(g, x) / (2.0 * ell**2))
        return phase * np.exp(-np.sum(d * d, axis=-1) / (4.0 * ell**2)) / (ell * np.sqrt(2.0 * pi))
    if trunc is None:
        trunc = choose_truncation(float(np.hypot(*g)) + 1e-9, ell)
    coords = chi_coords(tuple(g), ell, trunc, level=level)
    out = np.zeros(x.shape[:-1], dtype=np.complex128)
    for m, c in enumerate(coords.coeffs):
        if abs(c) > 1e-18:
            out += c * laguerre_psi(level, m, x, ell)
    return out


def overlap(p: Site, q: Site, lp: LatticeParams, mp: MagneticParams) -> complex:
    """Exact inner product <chi_p, chi_q>.

    Zero across levels; within a level equal to
    exp(i p^q / 2 ell^2) * exp(-|p - q|^2 / 4 ell^2) with the wedge of the
    two lattice points.
    """
    if p.r != q.r:
        return 0.0 + 0.0j
    ell2 = mp.ell_b**2
    ga = np.array(p.gamma(lp))
    gb = np.array(q.gamma(lp))
    d = ga - gb
    return complex(np.exp(1j * mp.wedge(ga, gb) / (2.0 * ell2)) * np.exp(-np.dot(d, d) / (4.0 * ell2)))


def overlap_matrix(window: Window, mp: MagneticParams) -> np.ndarray:
    """All pairwise overlaps of the window states, shape (n, n)."""
    ell2 = mp.ell_b**2
    g = window.gxy
    wedge = g[:, None, 0] * g[None, :, 1] - g[:, None, 1] * g[None, :, 0]
    diff = g[:, None, :] - g[None, :, :]
    dist2 = np.sum(diff * diff, axis=2)
    z = np.exp(1j * wedge / (2.0 * ell2)) * np.exp(-dist2 / (4.0 * ell2))
    same_level = window.levels[:, None] == window.levels[None, :]
    return np.where(same_level, z, 0.0 + 0.0j)


def theta3(tau_im: float) -> float:
    """Lattice Gaussian series sum_n exp(-pi * tau_im * n^2) on the imaginary axis.

    Requires tau_im > 0; terms are accumulated symmetrically until they fall
    below _THETA3_TOL relative to the running sum.
    """
    if tau_im <= 0:
        raise ValueError(f"theta3 needs a positive imaginary modulus, got {tau_im}")
    total = 1.0
    n = 1
    while True:
        term = 2.0 * np.exp(-pi * tau_im * n * n)
        total += term
        if term < _THETA3_TOL * total:
            return float(total)
        n += 1
        if n > 10_000_000:
            raise RuntimeError("theta3 series did not converge")


def bessel_bound(lp: LatticeParams, mp: MagneticParams) -> float:
    """Closed-form upper frame constant theta3(a^2/4pi ell^2) * theta3(b^2/4pi ell^2).

    Equals the absolute overlap row sum of the infinite lattice within one
    level, so it dominates every truncated quadratic-form ratio.
    """
    ell2 = mp.ell_b**2
    return theta3(lp.alpha**2 / (4.0 * pi * ell2)) * theta3(lp.beta**2 / (4.0 * pi * ell2))


def regime(lp: LatticeParams, mp: MagneticParams) -> str:
    """Density trichotomy of the lattice: one flux quantum per cell is critical.

    Returns 'overcomplete' (alpha*beta < 2 pi ell^2), 'threshold' (equal
    within _REGIME_RTOL relative), or 'incomplete' (above).
    """
    crit = 2.0 * pi * mp.ell_b**2
    cell = lp.alpha * lp.beta
    if abs(cell - crit) <= _REGIME_RTOL * crit:
        return "threshold"
    return "overcomplete" if cell < crit else "incomplete"


@lru_cache(maxsize=32)
def _lgamma_vec(n: int) -> np.ndarray:
    return np.array([lgamma(k + 1) for k in range(n)])


def coords_pointwise(phi: LaguerreCoords, x: np.ndarray) -> np.ndarray:
    """Synthesize pointwise values of a coordinate vector on planar points x.

    x has shape (..., 2).  The lowest level collapses to a single Gaussian
    times a polynomial in conj(z) and is evaluated in one vectorized pass;
    higher levels fall back to per-index synthesis.
    """
    x = np.asarray(x, dtype=np.float64)
    ell = phi.ell_b
    if phi.level != 0:
        out = np.zeros(x.shape[:-1], dtype=np.complex128)
        for m, c in enumerate(phi.coeffs):
            if abs(c) > 1e-18:
                out += c * laguerre_psi(phi.level, m, x, ell)
        return out
    z = (x[..., 0] + 1j * x[..., 1]) / (ell * np.sqrt(2.0))
    u = np.abs(z) ** 2
    flat_z = z.reshape(-1)
    flat_u = u.reshape(-1)
    m = np.arange(phi.trunc + 1)
    lg = _lgamma_vec(phi.trunc + 1)
    safe_mag = np.where(flat_u > 0, np.abs(flat_z), 1.0)
    logmag = (-flat_u[:, None] / 2.0 + m[None, :] * np.log(safe_mag)[:, None]
              - 0.5 * lg[None, :])
    ang = np.angle(flat_z)
    basis = np.exp(logmag) * np.exp(-1j * m[None, :] * ang[:, None])
    zero = flat_u == 0.0
    if np.any(zero):
        basis[zero] = 0.0
        basis[zero, 0] = 1.0
    vals = basis @ phi.coeffs / (ell * np.sqrt(2.0 * pi))
    return vals.reshape(x.shape[:-1])


def window_coords(window: Window, mp: MagneticParams) -> tuple[int, np.ndarray]:
    """Truncation and stacked coefficient vectors for every window site.

    Returns (trunc, V) with V of shape (n_sites, trunc + 1); rows repeat
    across levels since the coefficient vector depends on gamma only.
    """
    rmax = float(np.max(np.linalg.norm(window.gxy, axis=1)))
    trunc = mp.laguerre_trunc
    if trunc is None:
        trunc = choose_truncation(rmax, mp.ell_b)
    rows = np.empty((len(window), trunc + 1), dtype=np.complex128)
    cache: dict[tuple[int, int], np.ndarray] = {}
    for k, s in enumerate(window.sites):
        key = (s.i, s.j)
        if key not in cache:
            cache[key] = chi_coords(s.gamma(window.params), mp.ell_b, trunc).coeffs
        rows[k] = cache[key]
    return trunc, rows
