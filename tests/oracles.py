"""Independent routes that only the tests use: each checks a package value
from its definition, one element at a time.  `read_csv` is the tests'
reader of the package's CSV artifacts, which no command reads whole."""

from math import log, sqrt
from pathlib import Path

import numpy as np

from latframe.fock import FockError
from latframe.frame_analysis import (
    _DUAL_MAX_SITES,
    DUAL_TOL,
    AdjointDual,
    FrameAnalysisError,
    _axis,
    _grid_factors,
)
from latframe.interactions import _dressed_grid, _synthesis_grid, kernel_fft_side
from latframe.lattice import LatticeParams, Site
from latframe.magnetic import (
    MagneticParams,
    RegimeError,
    adjoint_lattice,
    flux_density,
    overlap_matrix,
    regime,
)


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """The header and the rows of a CSV artifact, every cell a string."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").split("\n") if ln != ""]
    if not lines:
        raise ValueError(f"{path}: empty csv")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def distance(p: Site, q: Site, params: LatticeParams) -> float:
    """Label metric |r - r'| + alpha_star * |gamma - gamma'|_1 of one pair, the
    oracle of Window.distance_matrix."""
    dg = abs(p.i - q.i) * params.alpha + abs(p.j - q.j) * params.beta
    return abs(p.r - q.r) + params.alpha_star * dg


def m_epsilon_window(window, eps: float) -> float:
    """max over window sites gamma of sum_xi exp(-eps * dist(gamma, xi)): a
    lower approximation of the lattice sum that m_epsilon bounds in closed
    form."""
    return float(np.exp(-eps * window.distance_matrix()).sum(axis=1).max())


def overlap_rate_constant(window, mp, lam: float) -> float:
    """G as the maximum of |<chi, chi'>| e^(lam d) over every pair of the
    window, cross-level pairs included: the window scan of the constant that
    localization_rate's derivation sets to 1."""
    z = np.abs(overlap_matrix(window, mp))
    return float(np.max(z * np.exp(lam * window.distance_matrix())))


def dual_coefficients_dense(lp: LatticeParams, mp: MagneticParams, p: int,
                            tol: float = DUAL_TOL) -> AdjointDual:
    """The finite-section route to `frame_analysis.dual_coefficients`: the same
    disc-growth rule, with N G formed whole on each disc from the four-factor
    overlap product and each power taken by a dense LU solve.  The oracle of the
    package's matrix-free conjugate-gradient solve."""
    if regime(lp, mp) != "overcomplete":
        raise RegimeError(f"S^-p requires the overcomplete regime, got {regime(lp, mp)}")
    if p < 1 or int(p) != p:
        raise FrameAnalysisError(f"power must be a positive integer, got {p}")
    ell2, adjoint, density = mp.ell_b**2, adjoint_lattice(lp, mp), flux_density(lp, mp)
    step1, step2 = adjoint.alpha, adjoint.beta
    radius = max(2.0 * mp.ell_b * sqrt(log(1.0 / tol)), step1, step2)
    while True:
        mu1, mu2 = _axis(step1, radius), _axis(step2, radius)
        dist = np.hypot(mu1[:, None], mu2[None, :]).ravel()
        disc = dist <= radius
        if np.count_nonzero(disc) > _DUAL_MAX_SITES:
            raise FrameAnalysisError(f"adjoint dual coefficients stay above {tol:g} on "
                                     f"{np.count_nonzero(disc)} sites; the lattice is too "
                                     f"close to the critical density")
        gram = np.einsum("ik,il,jl,jk->ijkl", *_grid_factors(mu1, mu2, mu1, mu2, ell2))
        gram = gram.reshape(dist.size, -1)[np.ix_(disc, disc)]
        gram *= density  # N G
        ring = dist[disc] > radius - max(step1, step2)
        c = (dist[disc] == 0.0).astype(np.complex128)
        coeffs, edge = np.zeros((p, dist.size), dtype=np.complex128), 0.0
        for q in range(p):
            c = np.linalg.solve(gram, c)
            coeffs[q, disc] = c
            edge = max(edge, float(np.abs(c[ring]).max()))
        if edge <= tol:
            return AdjointDual(mu1=mu1, mu2=mu2, coeffs=coeffs.reshape(p, len(mu1), len(mu2)),
                               edge=edge)
        radius *= 2.0 if edge >= 1.0 else min(2.0, max(1.1, log(tol) / log(edge)))


def w_value_whole_grid(gammas, v, pot, mp, nodes: int) -> complex:
    """The radial kernel route's Parseval sum on whole grids: both pair
    densities synthesized at once, both 2-D transforms m x m (axis 0
    first) and one sum over the whole spectrum.  The oracle of
    interactions._w_value_radial, which runs the same sum over blocks of
    rows and so adds its terms in another order."""
    ell = mp.ell_b
    cx = 0.5 * (gammas[2] + gammas[3])
    cy = 0.5 * (gammas[0] + gammas[1])
    gc = 0.5 * (cx + cy)
    dmid = float(np.linalg.norm(cx - cy))
    step, n = _synthesis_grid(dmid, ell, nodes)
    m = kernel_fft_side(dmid, pot.sigma1, ell, nodes)
    grid = np.empty((n, n, 2))
    grid[..., 0] = (gc[0] - 0.5 * n * step + step * np.arange(n))[:, None]
    grid[..., 1] = (gc[1] - 0.5 * n * step + step * np.arange(n))[None, :]
    flat = grid.reshape(-1, 2)
    ax = _dressed_grid(gammas[2:4], flat, v, mp)
    ay = _dressed_grid(gammas[0:2], flat, v, mp)
    bx = (np.conj(ax[1]) * ax[0]).reshape(n, n)
    by = (np.conj(ay[1]) * ay[0]).reshape(n, n)
    fx = np.fft.fft(np.fft.fft(bx, n=m, axis=0), n=m, axis=1)
    fy = np.fft.fft(np.fft.fft(np.conj(by), n=m, axis=0), n=m, axis=1)
    k1 = 2.0 * np.pi * np.fft.fftfreq(m, d=step)
    w_hat = 2.0 * np.pi * pot.sigma1 / (k1[:, None] ** 2 + k1[None, :] ** 2 + pot.sigma1**2) ** 1.5
    return pot.c1 * step**2 / m**2 * complex(np.vdot(fy, fx * w_hat))


def quasifree_expectation(rows: np.ndarray, p_matrix: np.ndarray, factors) -> complex:
    """Determinant form of a quasi-free expectation with one-particle density P:

        <a*(f_n) ... a*(f_1) a(g_1) ... a(g_m)> = delta_{nm} det [ <g_i, P f_j> ].

    rows holds one coefficient vector per site (window_coords' rows, or their
    leading columns); the factors are (site, dagger) pairs and must be normal
    ordered (all creators first); P must be an orthogonal projection in the
    coordinates of rows.
    """
    p_matrix = np.asarray(p_matrix, dtype=np.complex128)
    if np.max(np.abs(p_matrix - p_matrix.conj().T)) > 1e-10:
        raise FockError("P must be Hermitian")
    if np.max(np.abs(p_matrix @ p_matrix - p_matrix)) > 1e-10:
        raise FockError("P must be idempotent")
    nm = rows.shape[1]
    if p_matrix.shape != (nm, nm):
        raise FockError(f"P shape {p_matrix.shape} mismatches coordinate size {nm}")
    seen_annihilator = False
    creators: list[int] = []
    annihilators: list[int] = []
    for site, dagger in factors:
        if dagger:
            if seen_annihilator:
                raise FockError("monomial is not normal ordered: creator after annihilator")
            creators.append(site)
        else:
            seen_annihilator = True
            annihilators.append(site)
    if len(creators) != len(annihilators):
        return 0.0 + 0.0j
    if not creators:
        return 1.0 + 0.0j
    n = len(creators)
    # creators listed left to right are f_n .. f_1
    fs = [rows[creators[n - 1 - j]] for j in range(n)]
    gs = [rows[annihilators[i]] for i in range(n)]
    gmat = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            gmat[i, j] = np.vdot(gs[i], p_matrix @ fs[j])
    return complex(np.linalg.det(gmat))
