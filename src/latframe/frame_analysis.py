"""Frame-operator numerics: Gram spectra, inverse powers, decay certificates.

S = sum_gamma |chi_gamma><chi_gamma| runs over the infinite lattice.  By
Wexler-Raz duality S^-p chi_0 is a short sum of adjoint-lattice states whose
coefficients solve one small, well-conditioned system (`dual_coefficients`);
every element <chi_g, S^-p chi_g'> follows by translation covariance,
`dual_residual` checks the dual without any inverse, and `schur_lower_bound`
is a rigorous lower frame bound.  Two users keep the window route:
`frame_operator` pseudo-inverts S in the truncated angular basis of a
lowest-level window for `interactions.v_omega`, the dual generator of the
two-body kernel; and `frame_bounds_estimate` reports window Gram spectra as a finite-window proxy
of the frame bounds.

Certificates: the localization rate lam = 1 / 4 ell^2 of |<chi, chi'>| <=
G exp(-lam d), with G = 1 on every lattice (`localization_rate`), turns, via a
geometric series for S^-p, into a certified element bound
a_p * exp(-lambda_p d), sound whenever [s_min, s_max] holds the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log, sqrt

import numpy as np

from .lattice import LatticeParams, Window, m_epsilon
from .magnetic import (
    MagneticParams,
    RegimeError,
    adjoint_lattice,
    bessel_bound,
    flux_density,
    overlap_matrix,
    regime,
    window_coords,
)

__all__ = [
    "PSEUDO_INVERSE_RTOL",
    "DUAL_TOL",
    "DUAL_RESIDUAL_TOL",
    "EXCEED_RTOL",
    "FrameAnalysisError",
    "FrameOperatorTrunc",
    "AdjointDual",
    "DecayCertificate",
    "DecayReport",
    "FrameBoundsRecord",
    "gram",
    "frame_operator",
    "frame_bounds_estimate",
    "schur_lower_bound",
    "dual_coefficients",
    "dual_residual",
    "s_inverse_power_elements",
    "s_inverse_diagonal",
    "OVERLAP_CONSTANT",
    "localization_rate",
    "neumann_certificate",
    "verify_decay",
]

# window route: eigenvalues below this fraction of the largest are treated as kernel
PSEUDO_INVERSE_RTOL = 1e-10
# adjoint dual: its patch grows until the rim coefficients are below DUAL_TOL,
# and the commands' residual check fails above DUAL_RESIDUAL_TOL
DUAL_TOL = 1e-12
DUAL_RESIDUAL_TOL = 1e-10
# a measured value exceeds its bound when it is above bound * (1 + EXCEED_RTOL)
EXCEED_RTOL = 1e-9
_DUAL_MAX_SITES = 1600
_OVERLAP_CUT_ELL = 2.0 * sqrt(log(1e16))  # Gaussian overlaps past this many ell_b are < 1e-16


class FrameAnalysisError(ValueError):
    """Contract violation in frame-operator numerics."""


@dataclass(frozen=True)
class FrameOperatorTrunc:
    """Angular coefficients rows[k] of the lowest-level window state k,
    S = matrix = sum_k rows[k] rows[k]^*, and the dual rows dual[k] = S^+ rows[k]."""

    trunc: int
    rows: np.ndarray
    matrix: np.ndarray
    dual: np.ndarray


def gram(window: Window, mp: MagneticParams) -> np.ndarray:
    """Gram matrix of the window states from the closed-form overlaps."""
    return overlap_matrix(window, mp)


def frame_operator(window: Window, mp: MagneticParams) -> FrameOperatorTrunc:
    """Frame operator of a lowest-level window's states and their dual rows,
    for the kernel's dual generator (`v_omega`); eigenvalues of S below
    PSEUDO_INVERSE_RTOL times the largest are dropped from S^+."""
    if window.params.level_max != 0:
        raise FrameAnalysisError(f"the window route serves the lowest level alone; "
                                 f"got level_max = {window.params.level_max}")
    trunc, rows = window_coords(window, mp)
    b = rows.T  # columns are coefficient vectors
    s0 = b @ b.conj().T
    vals, vecs = np.linalg.eigh(s0)
    vals = np.clip(vals, 0.0, None)
    keep = vals > PSEUDO_INVERSE_RTOL * float(vals[-1])
    inv = np.zeros_like(vals)
    inv[keep] = 1.0 / vals[keep]
    s_plus = (vecs * inv) @ vecs.conj().T
    return FrameOperatorTrunc(trunc=trunc, rows=rows, matrix=s0, dual=(s_plus @ rows.T).T)


@dataclass(frozen=True)
class FrameBoundsRecord:
    window_hash: str
    n_sites: int
    a_est: float
    b_est: float
    numerical_rank: int
    upper_closed_form: float
    regime: str


def frame_bounds_estimate(windows: list[Window], mp: MagneticParams) -> list[FrameBoundsRecord]:
    """Two-sided spectral estimates from the Gram matrices of nested windows,
    a finite-window proxy of the frame bounds.

    a_est is the smallest eigenvalue above PSEUDO_INVERSE_RTOL times the
    largest, so in the overcomplete regime it follows that cutoff, not the
    lattice; b_est is the largest, reported with the closed-form upper
    constant it must stay below.
    """
    out = []
    for w in windows:
        vals = np.linalg.eigvalsh(gram(w, mp))
        retained = vals[vals > PSEUDO_INVERSE_RTOL * float(vals[-1])]
        out.append(
            FrameBoundsRecord(
                window_hash=w.content_hash(),
                n_sites=len(w),
                a_est=float(retained[0]),
                b_est=float(retained[-1]),
                numerical_rank=int(retained.size),
                upper_closed_form=bessel_bound(w.params, mp),
                regime=regime(w.params, mp),
            )
        )
    return out


def schur_lower_bound(lp: LatticeParams, mp: MagneticParams) -> float:
    """Lower frame bound N (2 - sum_mu |<chi_0, chi_mu>|) by the Schur test on the Gram
    matrix of the adjoint lattice, whose Riesz bounds times N = `flux_density` are the
    frame bounds; the row sum is `bessel_bound` at the adjoint spacings."""
    if regime(lp, mp) != "overcomplete":
        raise RegimeError(f"a lower frame bound needs the overcomplete regime, "
                          f"got {regime(lp, mp)}")
    row = bessel_bound(adjoint_lattice(lp, mp), mp)
    if row >= 2.0:
        raise FrameAnalysisError(f"the Schur test gives no lower frame bound: adjoint "
                                 f"overlap row sum {row:.6f} >= 2")
    return flux_density(lp, mp) * (2.0 - row)


def _axis(step: float, extent: float) -> np.ndarray:
    k = int(np.ceil(extent / step - 1e-9))
    return step * np.arange(-k, k + 1)


def _grid_factors(x1, x2, y1, y2, ell2: float) -> tuple[np.ndarray, ...]:
    """Factors u[i, k] pv[i, l] v[j, l] pu[j, k] = <chi_(x1_i, x2_j), chi_(y1_k, y2_l)>
    of the closed-form overlap on rectangular grids: u and v are the Gaussians
    exp(-(x - y)^2 / 4 ell^2) of each axis, pv = exp(i x1 y2 / 2 ell^2) and
    pu = exp(-i x2 y1 / 2 ell^2).  Gaussian factors below 1e-16 are zeroed: they
    move no sum, and their subnormal products slow BLAS down."""
    def gauss(s, t):
        d2 = np.subtract.outer(s, t) ** 2 / (4.0 * ell2)
        return np.where(d2 <= _OVERLAP_CUT_ELL**2 / 4.0, np.exp(-d2), 0.0)

    return (gauss(x1, y1), np.exp(0.5j * np.multiply.outer(x1, y2) / ell2),
            gauss(x2, y2), np.exp(-0.5j * np.multiply.outer(x2, y1) / ell2))


def _grid_overlap_sum(x1, x2, y1, y2, coef: np.ndarray, ell2: float) -> np.ndarray:
    """sum_(k, l) <chi_(x1_i, x2_j), chi_(y1_k, y2_l)> coef[k, l] for every (i, j),
    one row i at a time, so memory stays at one grid's size.  Row i contracts
    only the k from the first to the last nonzero u[i, k]: past them every
    term is an exact zero (`_grid_factors` cuts the Gaussian)."""
    u, pv, v, pu = _grid_factors(x1, x2, y1, y2, ell2)
    nonzero = u != 0.0
    lo = np.argmax(nonzero, axis=1)
    hi = u.shape[1] - np.argmax(nonzero[:, ::-1], axis=1)
    return np.array([np.sum(v * (pu[:, a:b] @ (np.outer(u[i, a:b], pv[i]) * coef[a:b])), axis=1)
                     for i, (a, b) in enumerate(zip(lo, hi))])


@dataclass(frozen=True)
class AdjointDual:
    """S^-q chi_0 = sum_(k, l) coeffs[q - 1, k, l] chi_(mu1[k], mu2[l]), q = 1..p; edge is
    the largest coefficient on the outer ring of the patch disc."""

    mu1: np.ndarray
    mu2: np.ndarray
    coeffs: np.ndarray
    edge: float


def dual_coefficients(lp: LatticeParams, mp: MagneticParams, p: int,
                      tol: float = DUAL_TOL) -> AdjointDual:
    """Adjoint-lattice coefficients c^(q) = (N G)^-q e_0 of S^-q chi_0, q = 1..p.

    On the span of the adjoint states S acts as N G, G their Gram matrix (the
    identity behind Wexler-Raz duality; Janssen, JFAA 1 (1995) 403).  G is well
    conditioned, so c^(q) decays exponentially: the patch disc starts at radius
    2 ell sqrt(ln(1 / tol)) and grows by the factor ln(tol) / ln(edge) that
    such decay predicts until its outer ring is at most tol.  Each power is one
    conjugate-gradient solve of N G on the disc, applied through the separable
    factors of the overlap (`_grid_factors`) and never formed as a matrix.
    """
    if regime(lp, mp) != "overcomplete":
        raise RegimeError(f"S^-p requires the overcomplete regime, got {regime(lp, mp)}")
    if p < 1 or int(p) != p:
        raise FrameAnalysisError(f"power must be a positive integer, got {p}")
    ell2, adjoint, density = mp.ell_b**2, adjoint_lattice(lp, mp), flux_density(lp, mp)
    step1, step2 = adjoint.alpha, adjoint.beta
    radius = max(2.0 * mp.ell_b * sqrt(log(1.0 / tol)), step1, step2)
    while True:
        mu1, mu2 = _axis(step1, radius), _axis(step2, radius)
        dist = np.hypot(mu1[:, None], mu2[None, :])
        disc = dist <= radius
        if np.count_nonzero(disc) > _DUAL_MAX_SITES:
            raise FrameAnalysisError(f"adjoint dual coefficients stay above {tol:g} on "
                                     f"{np.count_nonzero(disc)} sites; the lattice is too "
                                     f"close to the critical density")
        # row a = (i, j) of N G on the disc: sum_k rows_q[a, k] sum_l rows_p[a, l] x[k, l]
        i, j = np.nonzero(disc)
        u, pv, v, pu = _grid_factors(mu1, mu2, mu1, mu2, ell2)
        rows_p, rows_q = pv[i] * v[j], density * u[i] * pu[j]
        box = np.zeros(dist.shape, dtype=np.complex128)

        def apply(x: np.ndarray) -> np.ndarray:
            box[disc] = x
            return np.einsum("ak,ak->a", rows_p @ box.T, rows_q)

        ring = dist[disc] > radius - max(step1, step2)
        c = (dist[disc] == 0.0).astype(np.complex128)
        coeffs, edge = np.zeros((p,) + dist.shape, dtype=np.complex128), 0.0
        for q in range(p):
            c = _conjugate_gradients(apply, c)
            coeffs[q, disc] = c
            edge = max(edge, float(np.abs(c[ring]).max()))
        if edge <= tol:
            return AdjointDual(mu1=mu1, mu2=mu2, coeffs=coeffs, edge=edge)
        radius *= 2.0 if edge >= 1.0 else min(2.0, max(1.1, log(tol) / log(edge)))


def _conjugate_gradients(apply, b: np.ndarray) -> np.ndarray:
    """x with apply(x) = b for a Hermitian positive-definite apply, by conjugate
    gradients from x = 0: stops once ||b - apply(x)|| <= eps ||b|| (machine eps,
    on the recursive residual) or after len(b) steps, the exact-arithmetic bound."""
    x, r = np.zeros_like(b), b.copy()
    d, rr = r.copy(), float(np.vdot(r, r).real)
    stop = rr * np.finfo(np.float64).eps ** 2
    for _ in range(b.size):
        if rr <= stop:
            break
        ad = apply(d)
        step = rr / float(np.vdot(d, ad).real)
        x += step * d
        r -= step * ad
        rr, rr_prev = float(np.vdot(r, r).real), rr
        d = r + (rr / rr_prev) * d
    return x


def dual_residual(dual: AdjointDual, lp: LatticeParams, mp: MagneticParams) -> float:
    """Largest |<chi_x, S w_q - w_(q-1)>| over q = 1..p and the half-spacing points x
    of the patch box, with w_q = S^-q chi_0 from `dual`, w_0 = chi_0 and S summed over
    the lattice itself: no inverse and no adjoint-lattice identity enter."""
    ell2, cut = mp.ell_b**2, _OVERLAP_CUT_ELL * mp.ell_b
    x1, x2 = _axis(lp.alpha / 2.0, dual.mu1[-1]), _axis(lp.beta / 2.0, dual.mu2[-1])
    l1, l2 = _axis(lp.alpha, dual.mu1[-1] + cut), _axis(lp.beta, dual.mu2[-1] + cut)
    prev = np.zeros_like(dual.coeffs[0])
    prev[len(dual.mu1) // 2, len(dual.mu2) // 2] = 1.0
    worst = 0.0
    for c in dual.coeffs:
        on_lattice = _grid_overlap_sum(l1, l2, dual.mu1, dual.mu2, c, ell2)
        s_w = _grid_overlap_sum(x1, x2, l1, l2, on_lattice, ell2)
        w_prev = _grid_overlap_sum(x1, x2, dual.mu1, dual.mu2, prev, ell2)
        worst = max(worst, float(np.max(np.abs(s_w - w_prev))))
        prev = c
    return worst


@dataclass(frozen=True)
class SInversePowerElements:
    """<chi_g, S^-p chi_g'> between the level-0 `sites` and the dual they come from."""

    sites: np.ndarray
    entries: np.ndarray
    dual: AdjointDual


def s_inverse_power_elements(window: Window, mp: MagneticParams, p: int) -> SInversePowerElements:
    """Infinite-lattice S^-p elements between all level-0 window sites, as
    exp(i g ^ g' / 2 ell^2) <chi_(g - g'), S^-p chi_0> once per site difference.
    Overcomplete regime only: at and above critical density S^-1 is unbounded."""
    lp, ell2 = window.params, mp.ell_b**2
    sites = np.nonzero(window.levels == 0)[0]
    if sites.size == 0:
        raise FrameAnalysisError("the window has no level-0 sites")
    dual = dual_coefficients(lp, mp, p)
    ij = np.array([(window.sites[k].i, window.sites[k].j) for k in sites])
    diff = ij[:, None, :] - ij[None, :, :]
    s1, s2 = np.abs(diff).max(axis=(0, 1))
    table = _grid_overlap_sum(lp.alpha * np.arange(-s1, s1 + 1), lp.beta * np.arange(-s2, s2 + 1),
                              dual.mu1, dual.mu2, dual.coeffs[p - 1], ell2)
    g = window.gxy[sites]
    phase = np.exp(0.5j * mp.wedge(g[:, None, :], g[None, :, :]) / ell2)
    entries = phase * table[diff[..., 0] + s1, diff[..., 1] + s2]
    return SInversePowerElements(sites=sites, entries=entries, dual=dual)


def s_inverse_diagonal(dual: AdjointDual, mp: MagneticParams, q: int) -> float:
    """<chi_g, S^-q chi_g>, the same on every site, from the q-th coefficients of `dual`."""
    origin = np.zeros(1)
    return float(_grid_overlap_sum(origin, origin, dual.mu1, dual.mu2, dual.coeffs[q - 1],
                                   mp.ell_b**2)[0, 0].real)


OVERLAP_CONSTANT = 1.0
"""G in |<chi, chi'>| <= G exp(-lam * dist), the same on every lattice (see
`localization_rate`)."""


def localization_rate(mp: MagneticParams) -> float:
    """Exponential rate lam = 1 / 4 ell^2 with |<chi, chi'>| <= G exp(-lam * dist)
    on every lattice, G = OVERLAP_CONSTANT = 1.

    Same-level states at the offset delta = (i alpha, j beta) overlap by
    exp(-|delta|^2 / 4 ell^2) at label distance d = alpha_star |delta|_1, and
    states of different levels are orthogonal.  A nonzero component of delta
    is at least alpha_star in size, so |delta|^2 >= alpha_star |delta|_1 = d:
    the bound holds with G = 1, sharp at unit steps along the shorter axis.
    """
    return 1.0 / (4.0 * mp.ell_b**2)


@dataclass(frozen=True)
class DecayCertificate:
    """Certified element bound |entry| <= a_p * exp(-lambda_p * dist)."""

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


def neumann_certificate(lp: LatticeParams, lam: float, s_min: float, s_max: float,
                        p: int, eps: float | None = None, theta: float | None = None,
                        m_eps_value: float | None = None) -> DecayCertificate:
    """Decay certificate for S^-p elements from spectral bounds and a rate.

    Sound whenever s_max >= the top of the spectrum, 0 < s_min <= its
    bottom, and the lattice states satisfy |<chi, chi'>| <= G * exp(-lam *
    dist) with G = OVERLAP_CONSTANT.  delta is fixed at lam / 2, so
    0 < eps < delta needs lam > 0; eps and theta default to lam / 4.  The
    localization budget c_eps uses the lattice's closed-form m_eps bound,
    m_epsilon(lp, eps), unless a value is supplied; lp enters through that
    bound alone.
    """
    delta = lam / 2.0
    if eps is None:
        eps = lam / 4.0
    if theta is None:
        theta = lam / 4.0
    if not (0 < eps < delta):
        raise FrameAnalysisError(f"need 0 < eps < {delta} (= lam/2), got eps={eps}")
    if not (0 < theta < lam - delta):
        raise FrameAnalysisError(f"need 0 < theta < {lam - delta}, got theta={theta}")
    if not (0 < s_min < s_max):
        raise FrameAnalysisError(f"need 0 < s_min < s_max, got {s_min}, {s_max}")
    if p < 1 or int(p) != p:
        raise FrameAnalysisError(f"power must be a positive integer, got {p}")
    if m_eps_value is None:
        m_eps_value = m_epsilon(lp, eps)
    c_eps = OVERLAP_CONSTANT * m_eps_value
    r_p = 1.0 - (s_min / s_max) ** p
    if r_p >= 1.0:
        raise FrameAnalysisError(f"(s_min / s_max)^p = ({s_min / s_max:.3e})^{p} is below rounding: "
                                 f"the Neumann rate r_p rounds to 1 and nothing decays")
    d_p = OVERLAP_CONSTANT * (1.0 + (c_eps / s_max) ** p)
    e_p = (lam - delta - theta) / log(d_p / r_p)
    lambda_p = min(theta, log(1.0 / r_p) * e_p)
    a_p = 2.0 / (s_max**p * (1.0 - r_p))
    return DecayCertificate(
        lam=lam, p=p, eps=eps, theta=theta, delta=delta,
        s_min=s_min, s_max=s_max, c_eps=c_eps,
        r_p=r_p, d_p=d_p, e_p=e_p, lambda_p=lambda_p, a_p=a_p,
    )


@dataclass(frozen=True)
class DecayReport:
    """The element table checked: bounds and ratio = |entry| / bound per pair."""

    bounds: np.ndarray
    ratio: np.ndarray
    violations: int
    n_pairs: int
    max_ratio: float
    fitted_rate: float | None


def verify_decay(entries: np.ndarray, dists: np.ndarray, cert: DecayCertificate) -> DecayReport:
    """Check every element against a_p * exp(-lambda_p * dist).

    Also fits a decay rate to the off-diagonal elements above the numerical
    floor; certificates are honest when the fitted rate is at least
    lambda_p.  A pair violates when |entry| exceeds the bound by more than
    EXCEED_RTOL relative.
    """
    entries = np.asarray(entries)
    dists = np.asarray(dists, dtype=np.float64)
    if entries.shape != dists.shape:
        raise FrameAnalysisError(f"shape mismatch {entries.shape} vs {dists.shape}")
    mags = np.abs(entries)
    bounds = cert.a_p * np.exp(-cert.lambda_p * dists)
    ratio = mags / bounds
    violations = int(np.sum(ratio > 1.0 + EXCEED_RTOL))
    floor = 1e-14 * mags.max() if mags.size and mags.max() > 0 else 0.0
    mask = (dists > 0) & (mags > floor)
    fitted = None
    if np.sum(mask) >= 2:
        slope = np.polyfit(dists[mask], np.log(mags[mask]), 1)[0]
        fitted = float(-slope)
    return DecayReport(
        bounds=bounds,
        ratio=ratio,
        violations=violations,
        n_pairs=int(entries.size),
        max_ratio=float(ratio.max()) if ratio.size else 0.0,
        fitted_rate=fitted,
    )
