"""Pair couplings, the propagation functional, and the two-body kernel."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from latframe.lattice import LatticeParams, build_chain, build_window, window_from_triples
from latframe.magnetic import LaguerreCoords, MagneticParams
from latframe.interactions import (
    BRUTE_MAX_SITES,
    FrameAnalysisError,
    Interaction,
    InteractionError,
    KERNEL_FFT_MAX,
    c_phi,
    density_density,
    exponential_potential,
    k_sigma,
    lr_velocity,
    v_omega,
    w_kernel,
    _next_fast_len,
    _w_value_radial,
    kernel_fft_side,
    smallest_kernel_sigma1,
)
from oracles import w_value_whole_grid

MP = MagneticParams(ell_b=1.0)


# ---------------------------------------------------------------- structure

def test_density_density_structure():
    w = build_chain(LatticeParams(1.0, 1.0, 30.0), 5)
    inter = density_density(w, f0=0.7, mu=1.3)
    p, q = inter.pairs()
    assert len(p) == 10  # 5 choose 2
    assert list(zip(p, q)) == [(a, b) for a in range(5) for b in range(a + 1, 5)]
    d = w.distance_matrix()
    f = inter.coupling
    for a, b in zip(p, q):
        assert f[a, b] == pytest.approx(0.7 * math.exp(-1.3 * d[a, b]), rel=1e-13)
        assert f[b, a] == f[a, b]
    assert not np.any(np.diag(f))


def test_density_density_single_site_empty():
    w = window_from_triples(LatticeParams(1.0, 1.0, 4.0), [(0, 0, 0)])
    inter = density_density(w, 1.0, 1.0)
    assert inter.coupling.shape == (1, 1)
    assert len(inter.pairs()[0]) == 0


def test_interaction_coupling_validation():
    w = build_chain(LatticeParams(1.0, 1.0, 30.0), 3)
    good = np.array([[0.0, 0.5, 0.1], [0.5, 0.0, 0.2], [0.1, 0.2, 0.0]])
    assert np.array_equal(Interaction(window=w, coupling=good).coupling, good)
    asymmetric = good.copy()
    asymmetric[0, 1] = 0.4
    negative = good.copy()
    negative[0, 2] = negative[2, 0] = -0.1
    diagonal = good + np.diag([0.0, 0.3, 0.0])
    bad = {"shape": np.zeros((2, 2)), "asymmetric": asymmetric, "negative": negative,
           "diagonal": diagonal}
    for value in (np.inf, np.nan):
        nonfinite = good.copy()
        nonfinite[1, 2] = nonfinite[2, 1] = value
        bad[f"non-finite {value}"] = nonfinite
    for name, coupling in bad.items():
        with pytest.raises(InteractionError):
            Interaction(window=w, coupling=coupling)
            pytest.fail(name)


def test_interaction_holds_its_own_read_only_couplings():
    w = build_chain(LatticeParams(1.0, 1.0, 30.0), 2)
    given = np.array([[0.0, 0.5], [0.5, 0.0]])
    inter = Interaction(window=w, coupling=given)
    given[0, 1] = given[1, 0] = 9.0
    assert inter.coupling[0, 1] == 0.5
    with pytest.raises(ValueError):
        inter.coupling[0, 1] = 1.0


# ------------------------------------------------------- propagation functional

def cphi_oracle(inter, zeta, xi):
    """Exhaustive sweep of the double supremum over subsets and sites."""
    w = inter.window
    nu = w.params.dim
    d = w.distance_matrix()
    n = len(w.sites)
    f = inter.coupling
    geo = [([p, q], 4 * f[p, q] * (1.0 + d[p, q]) ** nu) for p, q in zip(*inter.pairs())]
    best = 0.0
    for size in range(1, n + 1):
        for probe in itertools.combinations(range(n), size):
            pd = max(d[a, b] for a in probe for b in probe) if size > 1 else 0.0
            dfac = (1.0 + pd) ** nu
            for g in range(n):
                tot = 0.0
                for idx, weight in geo:
                    dist_zp = min(d[a, b] for a in idx for b in probe)
                    dist_zg = min(d[a, g] for a in idx)
                    tot += weight * math.exp(-xi * dist_zp) * math.exp(-zeta * dist_zg)
                dist_pg = min(d[a, g] for a in probe)
                best = max(best, math.exp(zeta * dist_pg) * tot / dfac)
    return best


def test_c_phi_empty_interaction():
    w = window_from_triples(LatticeParams(1.0, 1.0, 4.0), [(0, 0, 0)])
    inter = Interaction(window=w, coupling=np.zeros((1, 1)))
    res = c_phi(inter, 0.1, 0.3)
    assert res.value == 0.0
    assert res.member_kind == "none"
    # pairs with zero couplings contribute nothing either
    chain = build_chain(LatticeParams(1.0, 1.0, 30.0), 3)
    assert c_phi(Interaction(window=chain, coupling=np.zeros((3, 3))), 0.1, 0.3).value == 0.0


def test_c_phi_brute_matches_enumeration():
    w = build_chain(LatticeParams(1.0, 1.0, 30.0), 5)
    inter = density_density(w, f0=1.0, mu=1.0)
    zeta, xi = 0.125, 0.25
    expected = cphi_oracle(inter, zeta, xi)
    res = c_phi(inter, zeta, xi, family="brute")
    assert res.value == pytest.approx(expected, rel=1e-12)
    auto = c_phi(inter, zeta, xi, family="auto")
    assert auto.value <= res.value * (1 + 1e-12)


def test_c_phi_brute_matches_enumeration_on_ball_window(rng):
    w = build_window(LatticeParams(1.3, 1.3, 1.5 * 1.3 * 1.3))
    assert len(w.sites) == 5
    inter = density_density(w, f0=0.6, mu=0.8)
    zeta, xi = 0.07, 0.2
    expected = cphi_oracle(inter, zeta, xi)
    res = c_phi(inter, zeta, xi, family="brute")
    assert res.value == pytest.approx(expected, rel=1e-12)
    auto = c_phi(inter, zeta, xi, family="auto")
    assert auto.value <= res.value * (1 + 1e-12)
    # on this geometry every optimal probe the sweep finds is singleton or ball,
    # which the default family contains
    assert auto.value == pytest.approx(res.value, rel=1e-9)


def test_c_phi_ball_supremum_matches_enumeration():
    # a steep xi on a fine chain makes a two-site ball beat every singleton,
    # so the (1 + diam B)^nu divisor of a probe enters the value
    w = build_chain(LatticeParams(0.5, 0.5, 30.0), 5)
    inter = density_density(w, f0=1.0, mu=0.5)
    zeta, xi = 0.1, 10.0
    expected = cphi_oracle(inter, zeta, xi)
    auto = c_phi(inter, zeta, xi)
    assert auto.member_kind == "ball"
    for res in (auto, c_phi(inter, zeta, xi, family="brute")):
        assert res.value == pytest.approx(expected, rel=1e-12)


def test_c_phi_reported_member_reproduces_value():
    w = build_chain(LatticeParams(1.0, 1.0, 30.0), 6)
    inter = density_density(w, f0=1.0, mu=1.0)
    zeta, xi = 0.1, 0.3
    for family in ("auto", "brute"):
        res = c_phi(inter, zeta, xi, family=family)
        d = w.distance_matrix()
        nu = w.params.dim
        probe = res.member_sites
        pd = max(d[a, b] for a in probe for b in probe) if len(probe) > 1 else 0.0
        tot = 0.0
        for p, q in zip(*inter.pairs()):
            idx = [p, q]
            weight = 4 * inter.coupling[p, q] * (1.0 + d[p, q]) ** nu
            dist_zp = min(d[a, b] for a in idx for b in probe)
            dist_zg = min(d[a, res.site_index] for a in idx)
            tot += weight * math.exp(-xi * dist_zp - zeta * dist_zg)
        dist_pg = min(d[a, res.site_index] for a in probe)
        val = math.exp(zeta * dist_pg) * tot / (1.0 + pd) ** nu
        assert res.value == pytest.approx(val, rel=1e-12)


def test_c_phi_probes_each_complete_ball_once():
    # the radius-0 balls are the singletons, so none is probed twice
    w = build_chain(LatticeParams(1.0, 1.0, 30.0), 6)
    d = w.distance_matrix()
    res = c_phi(density_density(w, f0=1.0, mu=1.0), 0.1, 0.3)
    assert res.family_size == sum(np.unique(np.round(d[:, c], 9)).size for c in range(6))
    assert res.member_kind == "singleton" and len(res.member_sites) == 1


def test_c_phi_single_term_singleton_formula():
    # one two-site term: the singleton slice has a closed form
    w = build_chain(LatticeParams(1.0, 1.0, 30.0), 3)
    d = w.distance_matrix()
    coupling = np.zeros((3, 3))
    coupling[0, 2] = coupling[2, 0] = 0.45
    inter = Interaction(window=w, coupling=coupling)
    zeta, xi = 0.11, 0.29
    nu = w.params.dim
    weight = 4 * 0.45 * (1.0 + d[0, 2]) ** nu
    best_singleton = 0.0
    for s in range(3):
        for g in range(3):
            val = (
                weight
                * math.exp(zeta * d[s, g])
                * math.exp(-xi * min(d[0, s], d[2, s]))
                * math.exp(-zeta * min(d[0, g], d[2, g]))
            )
            best_singleton = max(best_singleton, val)
    res = c_phi(inter, zeta, xi, family="brute")
    oracle = cphi_oracle(inter, zeta, xi)
    assert res.value == pytest.approx(oracle, rel=1e-12)
    assert best_singleton <= oracle * (1 + 1e-12)
    if res.member_kind == "singleton":
        assert res.value == pytest.approx(best_singleton, rel=1e-12)


def test_c_phi_monotone_in_xi():
    w = build_chain(LatticeParams(1.0, 1.0, 30.0), 5)
    inter = density_density(w, f0=1.0, mu=1.0)
    values = [c_phi(inter, 0.05, xi).value for xi in (0.1, 0.2, 0.4, 0.8)]
    assert all(a >= b - 1e-13 for a, b in zip(values, values[1:]))


def test_c_phi_validation():
    w = build_chain(LatticeParams(1.0, 1.0, 30.0), 3)
    inter = density_density(w, 1.0, 1.0)
    with pytest.raises(InteractionError):
        c_phi(inter, 0.0, 0.3)
    with pytest.raises(InteractionError):
        c_phi(inter, 0.3, 0.3)
    with pytest.raises(InteractionError):
        c_phi(inter, 0.1, 0.3, family="annulus")
    big = build_chain(LatticeParams(1.0, 1.0, 40.0), BRUTE_MAX_SITES + 1)
    with pytest.raises(InteractionError):
        c_phi(density_density(big, 1.0, 1.0), 0.1, 0.3, family="brute")


def test_c_phi_holds_one_term_table():
    """On the certificate benchmark's 85-site radius-20 sqrt(pi) window the
    terms x sites table emat is 2.43 MB; c_phi builds it in place and peaks
    below two of it (1.53 traced).  Taking d(g, Z_t) from whole dists[p] and
    dists[q] copies read 3.06."""
    w = build_window(LatticeParams(math.sqrt(math.pi), math.sqrt(math.pi), 20.0))
    inter = density_density(w, f0=1.0, mu=1.0)
    n = len(w)
    emat_bytes = n * (n - 1) // 2 * n * 8
    assert n == 85
    tracemalloc.start()
    try:
        res = c_phi(inter, 0.125, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(res.value) and res.value > 0
    assert peak < 2 * emat_bytes


def test_lr_velocity():
    assert lr_velocity(0.0, 0.5) == 0.0
    assert lr_velocity(0.5, 1.0) == pytest.approx(8.0)
    with pytest.raises(InteractionError):
        lr_velocity(1.0, 0.0)
    with pytest.raises(InteractionError):
        lr_velocity(-1.0, 1.0)


# ------------------------------------------------------------- dual generator

@pytest.fixture(scope="module")
def riesz_window():
    return build_window(LatticeParams(2.8, 2.8, 20.0))


@pytest.fixture(scope="module")
def dual_generator(riesz_window):
    return v_omega(riesz_window, MP)


def test_v_omega_solves_frame_equation(riesz_window, dual_generator):
    assert dual_generator.residual < 1e-7
    from latframe.magnetic import window_coords

    trunc, rows = window_coords(riesz_window, MP)
    c0 = rows[riesz_window.center_index()]
    inner = np.vdot(c0, dual_generator.coords.coeffs)
    assert inner.real > 0
    assert abs(inner.imag) < 1e-10


def test_v_omega_envelope_dominates_samples(riesz_window, dual_generator):
    from latframe.magnetic import coords_pointwise

    c2, s2 = dual_generator.c2, dual_generator.sigma2
    assert c2 > 0 and s2 > 0
    radii = np.linspace(0.0, 8.0, 33)
    angles = np.linspace(0.0, 2 * math.pi, 12, endpoint=False)
    pts = np.stack(
        [radii[:, None] * np.cos(angles), radii[:, None] * np.sin(angles)], axis=-1
    )
    vals = np.abs(coords_pointwise(dual_generator.coords, pts)).max(axis=1)
    assert np.all(vals <= c2 * np.exp(-s2 * radii) * (1 + 1e-9))


def test_v_omega_rejects_levels_and_critical_density():
    w1 = build_window(LatticeParams(2.8, 2.8, 20.0, level_max=1))
    with pytest.raises(FrameAnalysisError):
        v_omega(w1, MP)
    sp = math.sqrt(math.pi)
    dense = build_window(LatticeParams(sp, sp, 12.0))
    # at the near-critical density the envelope fit degenerates
    with pytest.raises(FrameAnalysisError):
        v_omega(dense, MP)


# ------------------------------------------------------------------ w kernel

def test_k_sigma_values_and_branches():
    sigma, k = k_sigma(1.0, 1.0, 0.5, 1.5, 1.0)
    assert sigma == 0.25
    assert k == pytest.approx(math.pi**4 / (4 * 0.25**4), rel=1e-12)
    assert k == pytest.approx(6234.181826, rel=1e-6)
    # branch switch at sigma2 = 3 sigma1
    s_lo, _ = k_sigma(1.0, 1.0, 1.0, 2.9, 1.0)
    s_hi, _ = k_sigma(1.0, 1.0, 1.0, 3.1, 1.0)
    assert s_lo == pytest.approx(2.9 / 6.0)
    assert s_hi == pytest.approx(0.5)
    _, k1 = k_sigma(1.0, 1.0, 0.5, 1.5, 1.0)
    _, k2 = k_sigma(1.0, 2.0, 0.5, 1.5, 1.0)
    assert k2 == pytest.approx(16.0 * k1, rel=1e-12)
    with pytest.raises(InteractionError):
        k_sigma(0.0, 1.0, 0.5, 1.5, 1.0)


def test_exponential_potential_shape_and_validation():
    with pytest.raises(InteractionError):
        exponential_potential(0.0, 1.0)
    with pytest.raises(InteractionError):
        exponential_potential(1.0, -1.0)


def test_w_kernel_validation(riesz_window, dual_generator):
    g0 = riesz_window.gxy[riesz_window.center_index()]
    with pytest.raises(InteractionError):
        w_kernel(np.tile(g0, (3, 1)), dual_generator.coords,
                 exponential_potential(1.0, 1.0), MP)
    with pytest.raises(InteractionError):
        w_kernel(np.tile(g0, (4, 1)), dual_generator.coords,
                 exponential_potential(1.0, 1.0), MP, nodes=4)
    # at 8 nodes the default check rule would be the main rule itself
    with pytest.raises(InteractionError, match="check rule"):
        w_kernel(np.tile(g0, (4, 1)), dual_generator.coords,
                 exponential_potential(1.0, 1.0), MP, nodes=8)
    # the padded Fourier grid of the radial route grows as 1 / sigma1
    with pytest.raises(InteractionError, match="smallest usable sigma1"):
        w_kernel(np.tile(g0, (4, 1)), dual_generator.coords,
                 exponential_potential(1.0, 1e-3), MP)
    # the exponential pair potential is the only kernel there is a route for
    with pytest.raises(InteractionError, match="ExponentialPotential"):
        w_kernel(np.tile(g0, (4, 1)), dual_generator.coords,
                 lambda x, y: np.exp(-np.linalg.norm(x[:, None] - y[None], axis=-1)), MP)


def test_w_kernel_names_a_usable_sigma1(dual_generator):
    # pair centers 0.1 apart at 20 nodes: the limit is 0.030503..., which
    # rounds to nearest as 0.0305, a sigma1 whose grid side 2058 is over the cap
    quad = np.array([[0.0, 0.0], [0.0, 0.0], [0.1, 0.0], [0.1, 0.0]])
    with pytest.raises(InteractionError, match="smallest usable sigma1") as err:
        w_kernel(quad, dual_generator.coords, exponential_potential(1.0, 0.03), MP, nodes=20)
    usable = float(re.search(r"smallest usable sigma1 is (\S+)$", str(err.value))[1])
    assert kernel_fft_side(0.1, usable, MP.ell_b, 20) <= KERNEL_FFT_MAX


def test_smallest_kernel_sigma1_fits_and_is_four_digits():
    # rounded up, never to nearest: the value named fits the cap, 1e-3 below
    # it does not, and it prints as it is
    for nodes in (9, 20, 30, 40, 60, 80):
        for dmid in np.linspace(0.0, 30.0, 301):
            usable = smallest_kernel_sigma1(dmid, MP.ell_b, nodes)
            assert float(f"{usable:.4g}") == usable
            assert kernel_fft_side(dmid, usable, MP.ell_b, nodes) <= KERNEL_FFT_MAX
            assert kernel_fft_side(dmid, usable * (1 - 1e-3), MP.ell_b, nodes) > KERNEL_FFT_MAX
    # a synthesis grid over the cap leaves no sigma1
    assert smallest_kernel_sigma1(0.0, MP.ell_b, 1000) == float("inf")


def _coherent_oracle(gammas, c1, sigma1):
    """w for the coherent generator at ell = 1, where A_g(x) = e^{-i g^x/2} e^{-|x-g|^2/4}.

    Bx = conj(A4) A3 = e^{-|g3-g4|^2/8} e^{i P.x} e^{-|x-m_x|^2/2} with
    P = J(g4-g3)/2, J(a, b) = (-b, a), and By likewise with Q = J(g2-g1)/2
    about m_y.  In u = x - y and S = (x + y)/2 about the pair centers the S
    integral is a Gaussian, pi e^{-|P+Q|^2/4}, and the u integral becomes
    e^{-i kappa.D - |D|^2/4} 2 pi int r e^{-sigma1 r - r^2/4} I0(r sqrt(s)) dr,
    with D = m_x - m_y, kappa = (P-Q)/2 and s = z.z (no conjugation) for
    z = D/2 + i kappa.  quad needs a finite upper limit: at infinity the
    integrand is inf * 0."""
    from scipy.integrate import quad
    from scipy.special import iv

    g1, g2, g3, g4 = gammas
    m_x, m_y = (g3 + g4) / 2.0, (g1 + g2) / 2.0
    d = m_x - m_y
    p = np.array([g3[1] - g4[1], g4[0] - g3[0]]) / 2.0
    q = np.array([g1[1] - g2[1], g2[0] - g1[0]]) / 2.0
    kappa = (p - q) / 2.0
    z = d / 2.0 + 1j * kappa
    root = np.sqrt(np.sum(z * z))
    radial, _ = quad(lambda r: r * math.exp(-sigma1 * r - r * r / 4.0) * iv(0, r * root),
                     0.0, 40.0 + 4.0 * abs(root), epsabs=0.0, epsrel=1e-12, limit=200,
                     complex_func=True)
    return (c1 * math.exp(-(np.sum((g3 - g4) ** 2) + np.sum((g1 - g2) ** 2)) / 8.0)
            * np.exp(1j * (p @ m_x + q @ m_y)) * math.pi * math.exp(-np.sum((p + q) ** 2) / 4.0)
            * np.exp(-1j * (kappa @ d) - (d @ d) / 4.0) * 2.0 * math.pi * radial)


_DISPLACED = np.random.default_rng(0).uniform(-2.5, 2.5, size=(3, 4, 2))


@pytest.mark.parametrize("sigma1, gammas", [
    *(pytest.param(s, np.zeros((4, 2)), id=f"{s}") for s in (1.0, 0.25, 0.1)),
    *(pytest.param(s, g, id=f"{s}-displaced{k}")
      for s in (1.0, 0.25, 0.1) for k, g in enumerate(_DISPLACED)),
])
def test_w_kernel_radial_closed_form_oracle(sigma1, gammas):
    # coherent states: at gamma = 0 every dressing phase vanishes and
    # w = c1 pi int e^{-sigma1 |u|} e^{-|u|^2/4} du; displaced quadruples pin
    # the wedge sign, the dressing phase and the conjugation order.  A
    # too-short FFT period shows here as the images of the slow tail of W
    c1 = 1.3
    ref = _coherent_oracle(gammas, c1, sigma1)
    coherent = LaguerreCoords(level=0, coeffs=np.array([1.0 + 0.0j]), ell_b=MP.ell_b)
    res = w_kernel(gammas, coherent, exponential_potential(c1, sigma1), MP, nodes=40)
    assert res.converged
    assert abs(res.value - ref) / abs(ref) < 1e-10


def test_next_fast_len_matches_scipy():
    # the FFT side rule of the radial route; scipy is the oracle only
    from scipy.fft import next_fast_len

    sides = range(1, 4 * KERNEL_FFT_MAX + 1)
    assert [_next_fast_len(n) for n in sides] == [next_fast_len(n) for n in sides]


def test_w_kernel_exchange_conjugation(riesz_window, dual_generator):
    gxy = riesz_window.gxy
    c = riesz_window.center_index()
    near = [k for k in range(len(gxy)) if 0 < np.abs(gxy[k]).sum() <= 2.9]
    g1, g2, g3, g4 = gxy[c], gxy[near[0]], gxy[near[1]], gxy[near[2]]
    pot = exponential_potential(1.0, 1.0)
    a = w_kernel(np.stack([g1, g2, g3, g4]), dual_generator.coords, pot, MP, nodes=28)
    b = w_kernel(np.stack([g2, g1, g4, g3]), dual_generator.coords, pot, MP, nodes=28)
    tol = max(3.0 * (a.error_estimate + b.error_estimate), 1e-8)
    assert abs(a.value - np.conj(b.value)) < tol


_SQUARE = np.array([[0.0, 0.0], [2.8, 0.0], [0.0, 2.8], [2.8, 2.8]])


def _traced_peak(*args) -> int:
    """tracemalloc's peak over one _w_value_radial call."""
    tracemalloc.start()
    try:
        value = _w_value_radial(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(value) and abs(value) > 0
    return peak


def test_w_kernel_parseval_sum_holds_two_transforms():
    """On a quadruple of the alpha = beta = 2.8, radius-12 window (m = 330,
    synthesis side n = 175) the radial route holds the two m x n axis-0
    transforms and block-sized buffers: at most 2 units of 16 m^2 bytes
    (1.06 units for the transforms).  A sum over whole m x m transforms holds
    two of them and W^, 2.5 units at the least, and read 3.24."""
    coords = v_omega(build_window(LatticeParams(2.8, 2.8, 12.0)), MP).coords
    pot = exponential_potential(1.2, 0.8)
    m = kernel_fft_side(2.8, pot.sigma1, MP.ell_b, 40)
    assert m == 330
    assert _traced_peak(_SQUARE, coords, pot, MP, 40) <= 2 * 16 * m * m


def test_w_kernel_sum_at_small_sigma1_holds_no_square_array(dual_generator):
    """At sigma1 = 0.1 the padding takes the side to m = 1375, where one
    m x m complex array is 30.3 MB; the blocked sum stays below 20 MB traced
    (a sum over whole m x m transforms read 72.4 MB)."""
    pot = exponential_potential(1.2, 0.1)
    assert kernel_fft_side(2.8, pot.sigma1, MP.ell_b, 40) == 1375
    assert _traced_peak(_SQUARE, dual_generator.coords, pot, MP, 40) <= 20e6


_BLOCKED_QUADS = [
    np.zeros((4, 2)),  # coincident: every pair center at the origin
    _SQUARE,
    *(2.8 * np.random.default_rng(3).integers(-2, 3, size=(4, 4, 2)).astype(float)),
]


@pytest.mark.parametrize("sigma1", [1.0, 0.5, 0.1])
def test_w_kernel_blocked_sum_matches_whole_grid(dual_generator, sigma1):
    # the same Parseval sum with every array whole (tests/oracles.py); the
    # blocks change only the order in which the sum adds its terms
    pot = exponential_potential(1.2, sigma1)
    for gammas in _BLOCKED_QUADS:
        blocked = _w_value_radial(gammas, dual_generator.coords, pot, MP, 40)
        whole = w_value_whole_grid(gammas, dual_generator.coords, pot, MP, 40)
        assert abs(blocked - whole) <= 1e-13 * abs(whole), gammas
