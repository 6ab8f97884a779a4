"""Few-body interactions on a window and their propagation data.

An interaction assigns to finite site sets Z monic monomials of degree 2k
with non-negative couplings f_k(Z); the Hamiltonian contribution of a term
is f * (M + M*).  The propagation speed of the induced dynamics is
controlled by the weighted double sum

    C(zeta, xi) = sup_g sup_Z' exp(zeta d(g, Z')) / D(Z')
                  * sum_Z sum_k k^2 f_k(Z) D(Z) e^{-zeta d(g, Z)} e^{-xi d(Z, Z')},

with D(Z) = (1 + diam Z)^nu.  The supremum over Z' runs over singletons and
closed metric balls; on windows small enough to enumerate, a brute-force
sweep over every nonempty subset is available to confirm that this family
attains the supremum.

The kernel quadrature at the end of the module computes two-body matrix
elements between dressed states.  Radial exponential potentials have a cusp
on the diagonal x = y, so they are integrated on the Fourier side, where the
potential has the closed form 2 pi c1 sigma1 / (sigma1^2 + |k|^2)^{3/2}: the
two pair densities are sampled on one uniform grid, zero-padded so that the
periodic images of the potential sit far past their support, and w is one
Parseval sum over the discrete spectrum.  Generic smooth kernels take the
direct two-cloud Gauss-Hermite tensor rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .frame_analysis import FrameAnalysisError, frame_operator
from .lattice import Window
from .magnetic import LaguerreCoords, MagneticParams, coords_pointwise

__all__ = [
    "InteractionError",
    "MonomialDescriptor",
    "InteractionTerm",
    "Interaction",
    "density_density",
    "CPhiResult",
    "c_phi",
    "lr_velocity",
    "VOmega",
    "v_omega",
    "ExponentialPotential",
    "exponential_potential",
    "KERNEL_FFT_MAX",
    "kernel_fft_side",
    "smallest_kernel_sigma1",
    "WKernelResult",
    "w_kernel",
    "k_sigma",
]


class InteractionError(ValueError):
    pass


@dataclass(frozen=True)
class MonomialDescriptor:
    """Ordered creation/annihilation word: (site_index, dagger) left to right."""

    factors: tuple[tuple[int, bool], ...]

    def __post_init__(self) -> None:
        for site, dagger in self.factors:
            if site < 0 or not isinstance(dagger, bool):
                raise InteractionError(f"bad factor ({site}, {dagger})")

    @property
    def sites(self) -> frozenset[int]:
        return frozenset(s for s, _ in self.factors)


@dataclass(frozen=True)
class InteractionTerm:
    """One weighted monomial: contributes coupling * (M + M*) to the Hamiltonian."""

    support: frozenset[int]
    k: int
    coupling: float
    monomial: MonomialDescriptor

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InteractionError(f"degree index k must be >= 1, got {self.k}")
        if self.coupling < 0:
            raise InteractionError(f"couplings must be non-negative, got {self.coupling}")
        if len(self.monomial.factors) != 2 * self.k:
            raise InteractionError(
                f"monomial has {len(self.monomial.factors)} factors, expected {2 * self.k}"
            )
        if self.monomial.sites != self.support:
            raise InteractionError("support must equal the monomial's site set")


@dataclass(frozen=True)
class Interaction:
    """A window together with its interaction terms.

    metadata records the constants of the generating pair potential when
    there is one (keys f0, mu for the exponential density-density family).
    """

    window: Window
    terms: tuple[InteractionTerm, ...]
    metadata: dict | None = None

    def __post_init__(self) -> None:
        n = len(self.window)
        for t in self.terms:
            if any(s >= n for s in t.support):
                raise InteractionError("term support outside the window")

    @property
    def max_k(self) -> int:
        return max((t.k for t in self.terms), default=0)


def density_density(window: Window, f0: float, mu: float) -> Interaction:
    """Exponentially decaying density-density interaction over site pairs:
    coupling f0 * exp(-mu d(p, q)) on the monomial n_p n_q, k = 2."""
    if f0 < 0 or mu < 0:
        raise InteractionError("f0 and mu must be non-negative")
    dists = window.distance_matrix()
    terms = []
    n = len(window)
    for p in range(n):
        for q in range(p + 1, n):
            c = f0 * float(np.exp(-mu * dists[p, q]))
            mono = MonomialDescriptor(factors=((p, True), (p, False), (q, True), (q, False)))
            terms.append(InteractionTerm(support=frozenset({p, q}), k=2, coupling=c, monomial=mono))
    return Interaction(window=window, terms=tuple(terms), metadata={"f0": f0, "mu": mu})


@dataclass(frozen=True)
class CPhiResult:
    value: float
    zeta: float
    xi: float
    site_index: int
    member_kind: str
    member_sites: tuple[int, ...]
    family_size: int


def _term_geometry(inter: Interaction, nu: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distance-to-sites matrix T[t, s] = d(Z_t, s) and weights k^2 f D(Z)."""
    dists = inter.window.distance_matrix()
    n = len(inter.window)
    nt = len(inter.terms)
    tmat = np.empty((nt, n))
    weights = np.empty(nt)
    for it, term in enumerate(inter.terms):
        idx = sorted(term.support)
        tmat[it] = dists[idx].min(axis=0)
        diam = float(dists[np.ix_(idx, idx)].max()) if len(idx) > 1 else 0.0
        weights[it] = term.k**2 * term.coupling * (1.0 + diam) ** nu
    return tmat, weights, dists


def c_phi(inter: Interaction, zeta: float, xi: float, family: str = "auto") -> CPhiResult:
    """The propagation functional C(zeta, xi) over singleton-and-ball probes.

    family='auto' uses singletons plus closed metric balls around every site;
    family='brute' sweeps every nonempty subset and is limited to small
    windows.  Both report where the supremum was attained.  An interaction
    with no terms evaluates to zero.
    """
    if zeta <= 0 or xi <= zeta:
        raise InteractionError(f"need 0 < zeta < xi, got zeta={zeta}, xi={xi}")
    if not inter.terms:
        return CPhiResult(value=0.0, zeta=zeta, xi=xi, site_index=-1,
                          member_kind="none", member_sites=(), family_size=0)
    nu = inter.window.params.dim
    tmat, weights, dists = _term_geometry(inter, nu)
    n = len(inter.window)
    if family == "brute":
        return _c_phi_brute(inter, zeta, xi, tmat, weights, dists)
    if family != "auto":
        raise InteractionError(f"unknown family {family!r}")
    emat = weights[:, None] * np.exp(-zeta * tmat)

    best = -np.inf
    best_site = -1
    best_kind = ""
    best_members: tuple[int, ...] = ()
    count = 0

    # singleton probes: D = 1, all distances direct
    inner = np.exp(-xi * tmat).T @ emat
    vals = np.exp(zeta * dists) * inner
    count += n
    s, g = np.unravel_index(int(np.argmax(vals)), vals.shape)
    if vals[s, g] > best:
        best = float(vals[s, g])
        best_site, best_kind, best_members = int(g), "singleton", (int(s),)

    # ball probes: prefixes of the distance ordering around each center
    for c in range(n):
        order = np.argsort(dists[:, c], kind="stable")
        radii = dists[order, c]
        # complete balls end where the next radius strictly increases
        ends = np.nonzero(np.diff(radii, append=np.inf) > 1e-12)[0]
        cm_terms = np.minimum.accumulate(tmat[:, order], axis=1)
        cm_sites = np.minimum.accumulate(dists[:, order], axis=1)
        diam = np.zeros(n)
        running = 0.0
        for k in range(1, n):
            running = max(running, float(dists[np.ix_(order[k:k + 1], order[:k + 1])].max()))
            diam[k] = running
        sel = cm_terms[:, ends]
        inner = np.exp(-xi * sel).T @ emat
        dfac = (1.0 + diam[ends]) ** nu
        vals = np.exp(zeta * cm_sites[:, ends]).T * inner / dfac[:, None]
        count += len(ends)
        b, g = np.unravel_index(int(np.argmax(vals)), vals.shape)
        if vals[b, g] > best:
            best = float(vals[b, g])
            best_site = int(g)
            best_kind = "ball"
            best_members = tuple(int(v) for v in np.sort(order[: ends[b] + 1]))

    return CPhiResult(value=best, zeta=zeta, xi=xi, site_index=best_site,
                      member_kind=best_kind, member_sites=best_members, family_size=count)


def _c_phi_brute(inter: Interaction, zeta: float, xi: float, tmat: np.ndarray,
                 weights: np.ndarray, dists: np.ndarray, max_sites: int = 12) -> CPhiResult:
    n = len(inter.window)
    if n > max_sites:
        raise InteractionError(f"brute-force probe sweep limited to {max_sites} sites, window has {n}")
    nu = inter.window.params.dim
    emat = weights[:, None] * np.exp(-zeta * tmat)
    best = -np.inf
    best_site = -1
    best_members: tuple[int, ...] = ()
    count = 0
    for mask in range(1, 1 << n):
        members = [s for s in range(n) if mask >> s & 1]
        count += 1
        d_terms = tmat[:, members].min(axis=1)
        d_sites = dists[:, members].min(axis=1)
        diam = float(dists[np.ix_(members, members)].max()) if len(members) > 1 else 0.0
        inner = emat.T @ np.exp(-xi * d_terms)
        vals = np.exp(zeta * d_sites) * inner / (1.0 + diam) ** nu
        g = int(np.argmax(vals))
        if vals[g] > best:
            best = float(vals[g])
            best_site = g
            best_members = tuple(members)
    return CPhiResult(value=best, zeta=zeta, xi=xi, site_index=best_site,
                      member_kind="subset", member_sites=best_members, family_size=count)


def lr_velocity(c: float, g: float, zeta: float) -> float:
    """Propagation speed v = 16 g C / zeta entering the light-cone envelope."""
    if zeta <= 0 or c < 0 or g < 1:
        raise InteractionError(f"need zeta > 0, C >= 0, g >= 1; got {zeta}, {c}, {g}")
    return 16.0 * g * c / zeta


# v_omega's envelope fit: radii span in ell_b, numbers of radii and angles
_FIT_LO_ELL, _FIT_HI_ELL, _FIT_RADII, _FIT_ANGLES = 2.0, 8.0, 25, 16


@dataclass(frozen=True)
class VOmega:
    """Dual generator v = S^+ chi_0 with its fitted exponential envelope."""

    coords: LaguerreCoords
    residual: float
    c2: float
    sigma2: float
    fit_radii: np.ndarray
    envelope: np.ndarray


def v_omega(window: Window, mp: MagneticParams) -> VOmega:
    """Take v = S^+ chi_0 on the window and fit |v| <= c2 exp(-sigma2 |x|).

    The fit uses the angular maximum of |v| on radii in [_FIT_LO_ELL,
    _FIT_HI_ELL] magnetic lengths; c2 is then inflated so the envelope
    dominates every sample from the origin out to _FIT_HI_ELL.
    """
    if window.params.level_max != 0:
        raise FrameAnalysisError("dual generator is defined on the lowest-level window")
    op = frame_operator(window, mp)
    center = window.center_index()
    v = op.dual[center]
    resid = float(np.linalg.norm(op.matrix @ v - op.rows[center]))
    vc = LaguerreCoords(level=0, coeffs=v, ell_b=mp.ell_b)
    ell = mp.ell_b
    radii = np.linspace(_FIT_LO_ELL * ell, _FIT_HI_ELL * ell, _FIT_RADII)
    angles = np.linspace(0.0, 2.0 * pi, _FIT_ANGLES, endpoint=False)
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    vals = np.abs(coords_pointwise(vc, radii[:, None, None] * ring))
    env = vals.max(axis=1)
    if np.any(env <= 0):
        raise FrameAnalysisError("dual generator vanished on a fit radius")
    slope, intercept = np.polyfit(radii, np.log(env), 1)
    sigma2 = float(-slope)
    if sigma2 <= 0:
        raise FrameAnalysisError(f"fitted envelope rate {sigma2:.3e} is not positive")
    # inflate c2 so the bound holds at every sampled radius, including r ~ 0
    radii_all = np.linspace(0.0, _FIT_HI_ELL * ell, 2 * _FIT_RADII)
    env_all = np.abs(coords_pointwise(vc, radii_all[:, None, None] * ring)).max(axis=1)
    c2 = float(np.max(env_all * np.exp(sigma2 * radii_all)))
    c2 = max(c2, float(np.exp(intercept)))
    return VOmega(coords=vc, residual=resid, c2=c2, sigma2=sigma2,
                  fit_radii=radii, envelope=env)


@dataclass(frozen=True)
class ExponentialPotential:
    """Two-body kernel W(x, y) = c1 * exp(-sigma1 |x - y|), vectorized over grids.

    w_kernel recognizes this type and integrates it on the Fourier side with
    the closed-form transform of the profile, instead of the plain tensor
    rule, which stalls near 1e-4 relative on the diagonal kink.  Calling it
    evaluates W on two point clouds, the convention of generic kernels.
    """

    c1: float
    sigma1: float

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        diff = x[:, None, :] - y[None, :, :]
        return self.c1 * np.exp(-self.sigma1 * np.sqrt(np.sum(diff * diff, axis=-1)))


def exponential_potential(c1: float, sigma1: float) -> ExponentialPotential:
    if c1 <= 0 or sigma1 <= 0:
        raise InteractionError("c1 and sigma1 must be positive")
    return ExponentialPotential(c1=c1, sigma1=sigma1)


@dataclass(frozen=True)
class WKernelResult:
    value: complex
    error_estimate: float
    nodes: int
    converged: bool


def _dressed_grid(gammas: np.ndarray, pts: np.ndarray, v: LaguerreCoords,
                  mp: MagneticParams) -> np.ndarray:
    """A_g(x) = ell sqrt(2 pi) e^{-i g^x / 2 ell^2} v(x - g) for each listed g."""
    ell = mp.ell_b
    out = np.empty((len(gammas), len(pts)), dtype=np.complex128)
    for k, g in enumerate(gammas):
        phase = np.exp(-1j * mp.wedge(g, pts) / (2.0 * ell**2))
        out[k] = ell * np.sqrt(2.0 * pi) * phase * coords_pointwise(v, pts - g[None, :])
    return out


def _tensor_rule(center: np.ndarray, scale: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """2-D Gauss-Hermite grid about center: points and total weights including
    the inverse Gaussian factor, so raw integrand values can be summed."""
    t, w = np.polynomial.hermite.hermgauss(nodes)
    total = w * np.exp(t * t)
    px, py = np.meshgrid(t, t, indexing="ij")
    pts = np.empty((nodes * nodes, 2))
    pts[:, 0] = center[0] + scale * px.ravel()
    pts[:, 1] = center[1] + scale * py.ravel()
    wts = (total[:, None] * total[None, :]).ravel() * scale**2
    return pts, wts


def _w_value(gammas: np.ndarray, v: LaguerreCoords, pair_w, mp: MagneticParams,
             nodes: int) -> complex:
    ell = mp.ell_b
    scale = ell * np.sqrt(2.0)
    cx = 0.5 * (gammas[2] + gammas[3])
    cy = 0.5 * (gammas[0] + gammas[1])
    xpts, xwts = _tensor_rule(cx, scale, nodes)
    ypts, ywts = _tensor_rule(cy, scale, nodes)
    ax = _dressed_grid(gammas[2:4], xpts, v, mp)
    ay = _dressed_grid(gammas[0:2], ypts, v, mp)
    fx = xwts * np.conj(ax[1]) * ax[0]
    fy = ywts * np.conj(ay[1]) * ay[0]
    kmat = pair_w(xpts, ypts)
    return complex(fx @ kmat @ fy)


KERNEL_FFT_MAX = 2048
"""Largest side of the padded FFT grid of the radial route: 2048^2 complex
entries take 64 MiB per array."""

_TAIL_ELL = 20.0  # dressed-state margin of the synthesis grid, in magnetic lengths
_IMAGE_RATE = 30.0  # periodic images of W sit >= _IMAGE_RATE / sigma1 past H's support


def _synthesis_grid(dmid: float, ell: float, nodes: int) -> tuple[float, int]:
    """Step and side n of the uniform grid holding both pair densities, for
    pair centers dmid apart."""
    from scipy.fft import next_fast_len

    step = ell * 10.0 / nodes
    half = 0.5 * dmid + _TAIL_ELL * ell
    return step, next_fast_len(int(np.ceil(2.0 * half / step)))


def kernel_fft_side(dmid: float, sigma1: float, ell: float, nodes: int) -> int:
    """Side m of the zero-padded FFT grid of the radial route for pair centers
    dmid apart: the synthesis grid plus _IMAGE_RATE / sigma1 of padding."""
    from scipy.fft import next_fast_len

    step, n = _synthesis_grid(dmid, ell, nodes)
    return next_fast_len(n + int(np.ceil(_IMAGE_RATE / (sigma1 * step))))


def smallest_kernel_sigma1(dmid: float, ell: float, nodes: int) -> float:
    """Smallest sigma1 whose padded grid fits KERNEL_FFT_MAX (inf when the
    synthesis grid alone does not fit)."""
    step, n = _synthesis_grid(dmid, ell, nodes)
    room = KERNEL_FFT_MAX - n
    return _IMAGE_RATE / (step * room) if room > 0 else float("inf")


def _w_value_radial(gammas: np.ndarray, v: LaguerreCoords, pot: ExponentialPotential,
                    mp: MagneticParams, nodes: int) -> complex:
    """Kernel element for a radial exponential potential by Parseval,

        w = (2 pi)^-2 int dk W^(k) Bx^(k) By^(-k),
        W^(k) = 2 pi c1 sigma1 / (sigma1^2 + |k|^2)^{3/2},

    with Bx = conj(A4) A3 and By = conj(A2) A1 sampled on one uniform grid
    (step 10 ell / nodes, half-width dmid / 2 + 20 ell about the midpoint of
    the pair centers).  The discrete sum is exact for the periodization of W
    with the FFT period, so the transforms are zero-padded to a side m that
    puts every periodic image at least _IMAGE_RATE / sigma1 beyond the
    support of H(u) = int dS Bx(S + u/2) By(S - u/2), where each image is
    below c1 e^-30.  The grid origin's phase cancels between k and -k."""
    from scipy.fft import fft2

    ell = mp.ell_b
    cx = 0.5 * (gammas[2] + gammas[3])
    cy = 0.5 * (gammas[0] + gammas[1])
    gc = 0.5 * (cx + cy)
    dmid = float(np.linalg.norm(cx - cy))
    step, n = _synthesis_grid(dmid, ell, nodes)
    m = kernel_fft_side(dmid, pot.sigma1, ell, nodes)
    if m > KERNEL_FFT_MAX:
        raise InteractionError(
            f"the padded kernel grid needs side {m} > {KERNEL_FFT_MAX}; the smallest "
            f"usable sigma1 is {smallest_kernel_sigma1(dmid, ell, nodes):.4g}")
    x0 = gc[0] - 0.5 * n * step
    y0 = gc[1] - 0.5 * n * step
    grid = np.empty((n, n, 2))
    grid[..., 0] = (x0 + step * np.arange(n))[:, None]
    grid[..., 1] = (y0 + step * np.arange(n))[None, :]
    flat = grid.reshape(-1, 2)
    ax = _dressed_grid(gammas[2:4], flat, v, mp)
    ay = _dressed_grid(gammas[0:2], flat, v, mp)
    bx = (np.conj(ax[1]) * ax[0]).reshape(n, n)
    by = (np.conj(ay[1]) * ay[0]).reshape(n, n)
    k1 = 2.0 * np.pi * np.fft.fftfreq(m, d=step)
    k2 = k1[:, None] ** 2 + k1[None, :] ** 2
    w_hat = 2.0 * np.pi * pot.sigma1 / (pot.sigma1**2 + k2) ** 1.5
    # By^(-k) is the conjugate of the transform of conj(By), which vdot conjugates
    total = np.vdot(fft2(np.conj(by), s=(m, m)), w_hat * fft2(bx, s=(m, m)))
    # (2 pi)^-2 dk^2 step^4 = step^2 / m^2
    return pot.c1 * step**2 / m**2 * complex(total)


def w_kernel(gammas, v: LaguerreCoords, pair_w, mp: MagneticParams,
             nodes: int = 40) -> WKernelResult:
    """Two-body kernel element between dressed states,

        w = int int W(x, y) conj(A4(x)) A3(x) conj(A2(y)) A1(y) dx dy,

    gammas lists (g1, g2, g3, g4) row-wise.  An ExponentialPotential takes
    the Fourier-side route (_w_value_radial), where nodes sets the grid step
    10 ell / nodes; any other kernel takes a Gauss-Hermite tensor rule with
    nodes points per axis, centered between each pair's sites with scale
    ell sqrt(2).  The error estimate is the difference against the same
    route at max(8, nodes - 8) nodes, so nodes must be at least 9.  On the
    Fourier side both rules keep the periodic images of W e^-30 away, so the
    estimate measures the change in grid spacing alone.  Values whose
    estimate exceeds 1e-6 relative (with a tiny absolute floor) are flagged
    as unconverged rather than silently accepted.
    """
    gammas = np.asarray(gammas, dtype=np.float64)
    if gammas.shape != (4, 2):
        raise InteractionError(f"gammas must be (4, 2), got {gammas.shape}")
    if nodes < 9:
        raise InteractionError(
            f"need at least 9 nodes per axis, got {nodes}: the check rule runs "
            f"max(8, nodes - 8) nodes and must differ from the main rule")
    coarse = max(8, nodes - 8)
    if isinstance(pair_w, ExponentialPotential):
        val = _w_value_radial(gammas, v, pair_w, mp, nodes)
        ref = _w_value_radial(gammas, v, pair_w, mp, coarse)
    else:
        val = _w_value(gammas, v, pair_w, mp, nodes)
        ref = _w_value(gammas, v, pair_w, mp, coarse)
    err = abs(val - ref)
    converged = err <= 1e-6 * max(abs(val), 1e-12)
    return WKernelResult(value=val, error_estimate=err, nodes=nodes, converged=converged)


def k_sigma(c1: float, c2: float, sigma1: float, sigma2: float,
            omega: float) -> tuple[float, float]:
    """Decay budget (sigma, K) for kernel elements built from an exponential
    pair potential c1 exp(-sigma1 |x-y|) and dressed states with envelope
    c2 exp(-sigma2 |x|): sigma = min(sigma1/2, sigma2/6) and
    K = pi^4 c1 c2^4 / (4 omega^4 sigma^4)."""
    if min(c1, c2, sigma1, sigma2, omega) <= 0:
        raise InteractionError("all kernel constants must be positive")
    sigma = min(sigma1 / 2.0, sigma2 / 6.0)
    k = pi**4 * c1 * c2**4 / (4.0 * omega**4 * sigma**4)
    return sigma, k
