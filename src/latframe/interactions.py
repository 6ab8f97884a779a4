"""Two-body interactions on a window and their propagation data.

In general an interaction assigns to finite site sets Z monic monomials of
degree 2k with non-negative couplings f_k(Z), the Hamiltonian contribution of
a term being f * (M + M*).  The propagation speed of the induced dynamics is
controlled by the weighted double sum

    C(zeta, xi) = sup_g sup_Z' exp(zeta d(g, Z')) / D(Z')
                  * sum_Z sum_k k^2 f_k(Z) D(Z) e^{-zeta d(g, Z)} e^{-xi d(Z, Z')},

with D(Z) = (1 + diam Z)^nu.  The code holds the two-body density-density
case: Z = {p, q}, k = 2, M = n_p n_q, so an interaction is one symmetric
pair-coupling matrix.  That is the case the bound is applied to, the Landau
Hamiltonian plus two-body electron-electron interactions, and the one the
Fock engine can build in number sectors.  For a pair, diam Z = d(p, q) and
d(Z, B) = min(d(p, B), d(q, B)), so every term distance comes from the
sites' own distances.  The supremum over Z' runs over singletons and closed
metric balls; on windows small enough to enumerate, a brute-force sweep over
every nonempty subset confirms that this family attains the supremum.  The
two families list different probe sets and share one evaluation of the
summand.

The kernel quadrature at the end of the module computes two-body matrix
elements between dressed states.  Radial exponential potentials have a cusp
on the diagonal x = y, so they are integrated on the Fourier side, where the
potential has the closed form 2 pi c1 sigma1 / (sigma1^2 + |k|^2)^{3/2}: the
two pair densities are sampled on one uniform grid, zero-padded so that the
periodic images of the potential sit far past their support, and w is one
Parseval sum over the discrete spectrum.  The exponential pair potential is
the only kernel it takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .frame_analysis import OVERLAP_CONSTANT, FrameAnalysisError, frame_operator
from .lattice import Window
from .magnetic import LaguerreCoords, MagneticParams, coords_pointwise, flux_density, regime

__all__ = [
    "InteractionError",
    "Interaction",
    "density_density",
    "CPhiResult",
    "c_phi",
    "BRUTE_MAX_SITES",
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


@dataclass(frozen=True, eq=False)
class Interaction:
    """A window with its density-density couplings.

    coupling[p, q] is the coefficient f of the word n_p n_q on Z = {p, q},
    with k = 2; the matrix is symmetric, non-negative and finite, with a zero
    diagonal.  The terms are the pairs p < q in np.triu_indices order."""

    window: Window
    coupling: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.window)
        f = np.array(self.coupling, dtype=np.float64)
        if f.shape != (n, n):
            raise InteractionError(f"coupling shape {f.shape} mismatches {n} sites")
        if not np.all(np.isfinite(f)):
            raise InteractionError("couplings must be finite")
        if np.any(f < 0):
            raise InteractionError("couplings must be non-negative")
        if np.any(f != f.T):
            raise InteractionError("coupling matrix must be symmetric")
        if np.any(np.diag(f) != 0):
            raise InteractionError("coupling matrix must have a zero diagonal")
        f.flags.writeable = False
        object.__setattr__(self, "coupling", f)

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The sites p < q of every term, in term order."""
        return np.triu_indices(len(self.window), 1)


def density_density(window: Window, f0: float, mu: float) -> Interaction:
    """Exponentially decaying density-density interaction over site pairs:
    coupling f0 * exp(-mu d(p, q)) on the monomial n_p n_q, k = 2."""
    if f0 < 0 or mu < 0:
        raise InteractionError("f0 and mu must be non-negative")
    n = len(window)
    return Interaction(window=window,
                       coupling=(1.0 - np.eye(n)) * (f0 * np.exp(-mu * window.distance_matrix())))


@dataclass(frozen=True)
class CPhiResult:
    value: float
    site_index: int
    member_kind: str
    member_sites: tuple[int, ...]
    family_size: int


def c_phi(inter: Interaction, zeta: float, xi: float, family: str = "auto") -> CPhiResult:
    """The propagation functional C(zeta, xi) over singleton-and-ball probes.

    family='auto' uses the closed metric balls around every site, the radius-0
    balls being the singletons; family='brute' sweeps every nonempty subset
    and is limited to BRUTE_MAX_SITES sites.  The two list different probe
    sets and share one evaluation of them; both report where the supremum
    was attained.  A window with no site pairs evaluates to zero.

    A term on Z = {p, q} has D(Z) = (1 + d_pq)^nu and weight
    k^2 f D(Z) = 4 f (1 + d_pq)^nu, and its distance to any site set B is
    d(Z, B) = min(d(p, B), d(q, B)), read from the sites' own distances to B.
    """
    if zeta <= 0 or xi <= zeta:
        raise InteractionError(f"need 0 < zeta < xi, got zeta={zeta}, xi={xi}")
    if family not in ("auto", "brute"):
        raise InteractionError(f"unknown family {family!r}")
    n = len(inter.window)
    if n < 2:
        return CPhiResult(value=0.0, site_index=-1,
                          member_kind="none", member_sites=(), family_size=0)
    if family == "brute" and n > BRUTE_MAX_SITES:
        raise InteractionError(
            f"brute-force probe sweep limited to {BRUTE_MAX_SITES} sites, window has {n}")
    nu = inter.window.params.dim
    dists = inter.window.distance_matrix()
    p, q = inter.pairs()
    weights = 4.0 * inter.coupling[p, q] * (1.0 + dists[p, q]) ** nu
    # emat[t, g] = k^2 f D(Z_t) e^{-zeta d(g, Z_t)}, built in place: d(g, Z_t)
    # takes the rows of q n terms at a time, so no second terms x sites array is held
    emat = dists[p]
    for s in range(0, len(q), n):
        np.minimum(emat[s:s + n], dists[q[s:s + n]], out=emat[s:s + n])
    emat *= -zeta
    np.exp(emat, out=emat)
    emat *= weights[:, None]

    best = -np.inf
    best_site = -1
    best_members: tuple[int, ...] = ()
    count = 0
    probes = _subset_probes(dists) if family == "brute" else _ball_probes(dists)
    for cm, diam, member in probes:
        vals = _probe_values(cm, diam, emat, dists, p, q, weights, zeta, xi, nu)
        count += len(diam)
        b, g = np.unravel_index(int(np.argmax(vals)), vals.shape)
        if vals[b, g] > best:
            best = float(vals[b, g])
            best_site = int(g)
            best_members = tuple(int(v) for v in np.nonzero(member[b])[0])
    kind = "subset" if family == "brute" else "singleton" if len(best_members) == 1 else "ball"
    return CPhiResult(value=best, site_index=best_site,
                      member_kind=kind, member_sites=best_members, family_size=count)


def _probe_values(cm: np.ndarray, diam: np.ndarray, emat: np.ndarray, dists: np.ndarray,
                  p: np.ndarray, q: np.ndarray, weights: np.ndarray, zeta: float, xi: float,
                  nu: int) -> np.ndarray:
    """vals[b, g] = e^{zeta d(g, B_b)} sum_t emat[t, g] e^{-xi d(Z_t, B_b)} / (1 + diam B_b)^nu
    for probe sets B_b given by cm[b, s] = d(s, B_b) and diam[b] = diam B_b.

    Where e^{zeta d(g, B_b)} overflows, the sum under it has underflowed: those
    cells add e^{ln weights[t] + zeta (d(g, B_b) - d(g, Z_t)) - xi d(Z_t, B_b)}."""
    # d(Z_t, B_b) in C order (take, where cm[:, p] would come out in F order),
    # built in place: the operand layout sets BLAS's summation order, and so
    # the last bits of C
    sel = cm.take(p, axis=1)
    np.minimum(sel, cm[:, q], out=sel)
    sel *= -xi
    np.exp(sel, out=sel)
    inner = sel @ emat
    del sel
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.exp(zeta * cm)
        inner *= scale
    for g in np.nonzero(np.isinf(scale).any(axis=0))[0]:
        b = np.isinf(scale[:, g])
        to_set = np.minimum(cm[b].take(p, axis=1), cm[b].take(q, axis=1))
        to_site = np.minimum(dists[g, p], dists[g, q])
        with np.errstate(divide="ignore", over="ignore"):
            inner[b, g] = np.exp(np.log(weights) + zeta * (cm[b, g, None] - to_site)
                                 - xi * to_set).sum(axis=1)
    inner /= ((1.0 + diam) ** nu)[:, None]
    return inner


def _ball_probes(dists: np.ndarray):
    """The closed metric balls around each site in turn, as (cm, diam, member) with
    member[b, s] whether site s is in B_b: prefixes of the distance ordering around
    the center."""
    for c in range(len(dists)):
        order = np.argsort(dists[:, c], kind="stable")
        # complete balls end where the next radius strictly increases
        ends = np.nonzero(np.diff(dists[order, c], append=np.inf) > 1e-12)[0]
        cm = np.minimum.accumulate(dists[order], axis=0)[ends]
        # diameter of the first k + 1 sites: running max of the lower-triangle row maxima
        diam = np.maximum.accumulate(np.tril(dists[np.ix_(order, order)]).max(axis=1))
        yield cm, diam[ends], np.argsort(order) <= ends[:, None]


def _subset_probes(dists: np.ndarray):
    """Every nonempty site subset at once, as (cm, diam, member), subset b being
    the sites set in the bits of b + 1."""
    n = len(dists)
    member = ((np.arange(1, 1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)
    cm = np.where(member[:, :, None], dists, np.inf).min(axis=1)
    diam = np.where(member[:, :, None] & member[:, None, :], dists, 0.0).max(axis=(1, 2))
    yield cm, diam, member


BRUTE_MAX_SITES = 12
"""Largest window of family='brute', which sweeps all 2^n - 1 subsets."""


def lr_velocity(c: float, zeta: float) -> float:
    """Propagation speed v = 16 G C / zeta, G = OVERLAP_CONSTANT, of the light-cone envelope.

    A C or a speed that overflowed to inf (or nan) certifies nothing: every
    envelope built on it would be inf or nan."""
    if zeta <= 0 or c < 0:
        raise InteractionError(f"need zeta > 0, C >= 0; got {zeta}, {c}")
    v = 16.0 * OVERLAP_CONSTANT * c / zeta
    if not np.isfinite(v):
        raise InteractionError(f"propagation speed 16 G C / zeta overflows a float: "
                               f"C(zeta, xi) = {c}, zeta = {zeta}")
    return v


# v_omega's envelope fit: radii span in ell_b, numbers of radii and angles
_FIT_LO_ELL, _FIT_HI_ELL, _FIT_RADII, _FIT_ANGLES = 2.0, 8.0, 25, 16


@dataclass(frozen=True)
class VOmega:
    """Dual generator v = S^+ chi_0 with its fitted exponential envelope."""

    coords: LaguerreCoords
    residual: float
    c2: float
    sigma2: float


def v_omega(window: Window, mp: MagneticParams) -> VOmega:
    """Take v = S^+ chi_0 on the window and fit |v| <= c2 exp(-sigma2 |x|).

    The fit uses the angular maximum of |v| on radii in [_FIT_LO_ELL,
    _FIT_HI_ELL] magnetic lengths; c2 is then inflated so the envelope
    dominates every sample from the origin out to _FIT_HI_ELL.
    """
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
        lp = window.params
        raise FrameAnalysisError(
            f"the window dual generator is not localized on this {regime(lp, mp)} lattice "
            f"(N = 2 pi ell^2 / (alpha beta) = {flux_density(lp, mp):.4g}): fitted envelope rate "
            f"{sigma2:.3e} is not positive")
    # inflate c2 so the bound holds at every sampled radius, including r ~ 0
    radii_all = np.linspace(0.0, _FIT_HI_ELL * ell, 2 * _FIT_RADII)
    env_all = np.abs(coords_pointwise(vc, radii_all[:, None, None] * ring)).max(axis=1)
    c2 = float(np.max(env_all * np.exp(sigma2 * radii_all)))
    c2 = max(c2, float(np.exp(intercept)))
    return VOmega(coords=vc, residual=resid, c2=c2, sigma2=sigma2)


@dataclass(frozen=True)
class ExponentialPotential:
    """Two-body kernel W(x, y) = c1 * exp(-sigma1 |x - y|), the one pair
    potential w_kernel takes.  It is integrated on the Fourier side with the
    closed-form transform of the profile, since a direct rule on the two
    point clouds stalls near 1e-4 relative on the diagonal kink.
    """

    c1: float
    sigma1: float


def exponential_potential(c1: float, sigma1: float) -> ExponentialPotential:
    if c1 <= 0 or sigma1 <= 0:
        raise InteractionError("c1 and sigma1 must be positive")
    return ExponentialPotential(c1=c1, sigma1=sigma1)


@dataclass(frozen=True)
class WKernelResult:
    value: complex
    error_estimate: float
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


KERNEL_FFT_MAX = 2048
"""Largest side m of the padded FFT grid of the radial route.  The sum holds
each density's axis-0 transform, m x n complex for a synthesis grid of side
n, and block-sized buffers, never an m x m array: at the cap, with pair
centers 2.8 ell apart at 40 nodes (n = 175), one evaluation peaks at
11.9 MiB traced.  So the cap bounds time, not memory: the axis-1
transforms and W^ grow as m^2, and one evaluation at the cap took 0.26 s
on one x86_64 core, against 0.04 s at m = 330."""

_TAIL_ELL = 20.0  # dressed-state margin of the synthesis grid, in magnetic lengths
_IMAGE_RATE = 30.0  # periodic images of W sit >= _IMAGE_RATE / sigma1 past H's support
_BLOCK_POINTS = 1 << 13  # grid points per block of the synthesis and of the sum


def _next_fast_len(n: int) -> int:
    """Smallest 2-3-5-7-11-smooth integer >= n: pocketfft's fast sizes for
    complex transforms."""
    while True:
        k = n
        for p in (2, 3, 5, 7, 11):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def _synthesis_grid(dmid: float, ell: float, nodes: int) -> tuple[float, int]:
    """Step and side n of the uniform grid holding both pair densities, for
    pair centers dmid apart."""
    step = ell * 10.0 / nodes
    half = 0.5 * dmid + _TAIL_ELL * ell
    return step, _next_fast_len(int(np.ceil(2.0 * half / step)))


def kernel_fft_side(dmid: float, sigma1: float, ell: float, nodes: int) -> int:
    """Side m of the zero-padded FFT grid of the radial route for pair centers
    dmid apart: the synthesis grid plus _IMAGE_RATE / sigma1 of padding."""
    step, n = _synthesis_grid(dmid, ell, nodes)
    return _next_fast_len(n + int(np.ceil(_IMAGE_RATE / (sigma1 * step))))


def smallest_kernel_sigma1(dmid: float, ell: float, nodes: int) -> float:
    """Smallest sigma1 whose padded grid fits KERNEL_FFT_MAX, rounded up to
    four significant digits so that the value named stays usable (inf when
    the synthesis grid alone does not fit)."""
    step, n = _synthesis_grid(dmid, ell, nodes)
    room = KERNEL_FFT_MAX - n
    if room <= 0:
        return float("inf")
    limit = _IMAGE_RATE / (step * room)
    digit = 10.0 ** (np.floor(np.log10(limit)) - 3)
    return float(f"{np.ceil(limit / digit) * digit:.4g}")


def _pair_density(gammas: np.ndarray, axes: np.ndarray, v: LaguerreCoords,
                  mp: MagneticParams) -> np.ndarray:
    """conj(A_g2) A_g1 for gammas = (g1, g2) on the grid axes[0] x axes[1],
    synthesized a block of grid rows at a time, so that the dressed states'
    temporaries are the size of a block."""
    n = axes.shape[1]
    rows = max(1, _BLOCK_POINTS // n)
    dens = np.empty((n, n), dtype=np.complex128)
    pts = np.empty((rows, n, 2))
    pts[..., 1] = axes[1]
    for r0 in range(0, n, rows):
        r1 = min(n, r0 + rows)
        block = pts[:r1 - r0]
        block[..., 0] = axes[0, r0:r1, None]
        a = _dressed_grid(gammas, block.reshape(-1, 2), v, mp)
        np.multiply(np.conj(a[1]), a[0], out=dens[r0:r1].reshape(-1))
    return dens


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
    below c1 e^-30.  The grid origin's phase cancels between k and -k.

    Each density's axis-0 transform is taken whole (m x n for a synthesis
    grid of side n); the axis-1 transforms, W^ and the sum then run over
    blocks of rows, W^ in a buffer reused from block to block, so no m x m
    array exists.  Axis 0 goes first because the axis order sets the
    rounding of the last bits, and so the bytes of wkernel.csv."""
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
            f"usable sigma1 is {smallest_kernel_sigma1(dmid, ell, nodes):g}")
    axes = (gc - 0.5 * n * step)[:, None] + step * np.arange(n)
    tx = np.fft.fft(_pair_density(gammas[2:4], axes, v, mp), n=m, axis=0)
    # By^(-k) is the conjugate of the transform of conj(By), which vdot conjugates
    by = _pair_density(gammas[0:2], axes, v, mp)
    ty = np.fft.fft(np.conj(by, out=by), n=m, axis=0)
    del by
    k2 = (2.0 * np.pi * np.fft.fftfreq(m, d=step)) ** 2
    rows = max(1, _BLOCK_POINTS // m)
    w_buf = np.empty((rows, m))
    total = 0j
    for r0 in range(0, m, rows):
        r1 = min(m, r0 + rows)
        w_hat = w_buf[:r1 - r0]
        np.add(k2[r0:r1, None], k2[None, :], out=w_hat)  # |k|^2, turned into W^ in place
        w_hat += pot.sigma1**2
        w_hat **= 1.5
        np.divide(2.0 * np.pi * pot.sigma1, w_hat, out=w_hat)
        fx = np.fft.fft(tx[r0:r1], n=m, axis=1)
        fx *= w_hat
        total += np.vdot(np.fft.fft(ty[r0:r1], n=m, axis=1), fx)
    # (2 pi)^-2 dk^2 step^4 = step^2 / m^2
    return pot.c1 * step**2 / m**2 * complex(total)


def w_kernel(gammas, v: LaguerreCoords, pair_w: ExponentialPotential, mp: MagneticParams,
             nodes: int = 40) -> WKernelResult:
    """Two-body kernel element between dressed states,

        w = int int W(x, y) conj(A4(x)) A3(x) conj(A2(y)) A1(y) dx dy,

    gammas lists (g1, g2, g3, g4) row-wise.  pair_w must be an
    ExponentialPotential, integrated on the Fourier side (_w_value_radial),
    where nodes sets the grid step 10 ell / nodes.  The error estimate is the
    difference against the same route at max(8, nodes - 8) nodes, so nodes
    must be at least 9.  Both grids keep the periodic images of W e^-30
    away, so the estimate measures the change in grid spacing alone.  Values
    whose estimate exceeds 1e-6 relative (with a tiny absolute floor) are
    flagged as unconverged rather than silently accepted.
    """
    if not isinstance(pair_w, ExponentialPotential):
        raise InteractionError(
            f"the pair potential must be an ExponentialPotential, got {type(pair_w).__name__}")
    gammas = np.asarray(gammas, dtype=np.float64)
    if gammas.shape != (4, 2):
        raise InteractionError(f"gammas must be (4, 2), got {gammas.shape}")
    if nodes < 9:
        raise InteractionError(
            f"need at least 9 nodes, got {nodes}: the check rule runs "
            f"max(8, nodes - 8) nodes and must differ from the main rule")
    val = _w_value_radial(gammas, v, pair_w, mp, nodes)
    ref = _w_value_radial(gammas, v, pair_w, mp, max(8, nodes - 8))
    err = abs(val - ref)
    converged = err <= 1e-6 * max(abs(val), 1e-12)
    return WKernelResult(value=val, error_estimate=err, converged=converged)


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
