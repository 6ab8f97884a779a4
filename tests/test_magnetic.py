"""Coherent states over Landau levels: coordinates, overlaps, translations."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from latframe.lattice import LatticeParams, Site, build_window
from latframe.magnetic import (
    TAIL_TOL,
    _genlaguerre,
    LaguerreCoords,
    MagneticParams,
    TruncationError,
    bessel_bound,
    chi_coords,
    chi_pointwise,
    choose_truncation,
    coords_pointwise,
    coords_tail,
    laguerre_psi,
    overlap,
    overlap_matrix,
    poisson_tail,
    regime,
    theta3,
    window_coords,
)

MP = MagneticParams(ell_b=1.0)


def overlap_quadrature(ga, gb, mp, level_a=0, level_b=0, n_nodes=70):
    """Two-dimensional Gauss-Hermite integral of conj(chi_a) * chi_b.

    Nodes are centered at the midpoint and scaled by ell*sqrt(2), which
    absorbs the shared Gaussian of the two states; the weight function is
    divided back out of the integrand.
    """
    t, wts = np.polynomial.hermite.hermgauss(n_nodes)
    scale = mp.ell_b * math.sqrt(2.0)
    mid = 0.5 * (np.asarray(ga) + np.asarray(gb))
    x = mid[0] + scale * t
    y = mid[1] + scale * t
    xg, yg = np.meshgrid(x, y, indexing="ij")
    pts = np.stack([xg.ravel(), yg.ravel()], axis=-1)
    fa = chi_pointwise(tuple(ga), pts, mp, level=level_a).reshape(n_nodes, n_nodes)
    fb = chi_pointwise(tuple(gb), pts, mp, level=level_b).reshape(n_nodes, n_nodes)
    u = (xg - mid[0]) / scale
    v = (yg - mid[1]) / scale
    integrand = np.conj(fa) * fb * np.exp(u**2 + v**2)
    return complex((integrand * np.outer(wts, wts)).sum() * scale**2)


def test_chi_pointwise_closed_form(rng):
    gamma = (1.3, -0.7)
    pts = rng.normal(scale=2.0, size=(40, 2))
    got = chi_pointwise(gamma, pts, MP)
    g = np.asarray(gamma)
    wedge = g[0] * pts[:, 1] - g[1] * pts[:, 0]
    expected = (
        np.exp(-1j * wedge / 2.0)
        * np.exp(-((pts - g) ** 2).sum(axis=1) / 4.0)
        / math.sqrt(2.0 * math.pi)
    )
    assert np.max(np.abs(got - expected)) < 1e-12


def test_chi_pointwise_peak_value():
    val = chi_pointwise((0.0, 0.0), np.array([[0.0, 0.0]]), MP)[0]
    assert val == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-14)
    mp2 = MagneticParams(ell_b=2.0)
    val2 = chi_pointwise((0.0, 0.0), np.array([[0.0, 0.0]]), mp2)[0]
    assert val2 == pytest.approx(1.0 / (2.0 * math.sqrt(2.0 * math.pi)), abs=1e-14)


def test_chi_normalized_all_levels():
    for level in (0, 1, 2):
        val = overlap_quadrature((0.4, 1.1), (0.4, 1.1), MP, level, level)
        assert abs(val - 1.0) < 1e-9


def test_overlap_closed_form_vs_quadrature(rng):
    lp = LatticeParams(math.sqrt(math.pi), math.sqrt(math.pi), 12.0)
    w = build_window(lp)
    n = len(w.sites)
    for _ in range(20):
        i, j = rng.integers(0, n, size=2)
        p, q = w.sites[int(i)], w.sites[int(j)]
        closed = overlap(p, q, lp, MP)
        quad = overlap_quadrature(p.gamma(lp), q.gamma(lp), MP)
        assert abs(closed - quad) < 1e-8


def test_overlap_cross_level_orthogonal():
    lp = LatticeParams(1.0, 1.0, 6.0, level_max=1)
    p, q = Site(0, 1, 0), Site(1, 0, 1)
    assert overlap(p, q, lp, MP) == 0.0
    quad = overlap_quadrature(p.gamma(lp), q.gamma(lp), MP, 0, 1)
    assert abs(quad) < 1e-9


def test_overlap_level_one_matches_quadrature(rng):
    lp = LatticeParams(1.4, 1.4, 9.0, level_max=1)
    w = build_window(lp)
    pairs = [(s, t) for s in w.sites for t in w.sites if s.r == t.r == 1]
    for p, q in [pairs[int(k)] for k in rng.integers(0, len(pairs), size=8)]:
        closed = overlap(p, q, lp, MP)
        quad = overlap_quadrature(p.gamma(lp), q.gamma(lp), MP, 1, 1)
        assert abs(closed - quad) < 1e-8


def test_overlap_matrix_consistency():
    lp = LatticeParams(2.0, 2.0, 8.0)
    w = build_window(lp)
    z = overlap_matrix(w, MP)
    assert np.allclose(z, z.conj().T)
    assert np.allclose(np.diag(z), 1.0)
    for a in range(len(w.sites)):
        for b in range(len(w.sites)):
            assert z[a, b] == pytest.approx(overlap(w.sites[a], w.sites[b], lp, MP))


@given(
    st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)
)
def test_overlap_modulus_and_symmetry(i1, j1, i2, j2):
    lp = LatticeParams(1.2, 0.8, 50.0)
    p, q = Site(0, i1, j1), Site(0, i2, j2)
    z = overlap(p, q, lp, MP)
    assert abs(z) <= 1.0 + 1e-14
    assert overlap(q, p, lp, MP) == pytest.approx(np.conj(z), abs=1e-14)
    assert overlap(p, p, lp, MP) == pytest.approx(1.0, abs=1e-14)


def test_chi_coords_hand_formula():
    gamma = (1.0, 0.5)
    trunc = choose_truncation(math.hypot(*gamma), 1.0)
    c = chi_coords(gamma, 1.0, trunc)
    w = (gamma[0] + 1j * gamma[1]) / math.sqrt(2.0)
    pref = math.exp(-(gamma[0] ** 2 + gamma[1] ** 2) / 4.0)
    for m in range(4):
        expected = pref * w**m / math.sqrt(math.factorial(m))
        assert c.coeffs[m] == pytest.approx(expected, abs=1e-14)
    assert abs(np.vdot(c.coeffs, c.coeffs) - 1.0) < 1e-10


def test_chi_coords_truncation_guard():
    with pytest.raises(TruncationError):
        chi_coords((6.0, 0.0), 1.0, trunc=5)


def test_choose_truncation_tail():
    from scipy.stats import poisson

    for r in (1.0, 5.0, 10.0, 20.0):
        m = choose_truncation(r, 1.0)
        u = r * r / 2.0
        # kept coefficient mass is a Poisson head sum
        assert 1.0 - poisson.cdf(m, u) < 1e-12


def _poisson_cases():
    for u in (0.0, 1e-300, 1e-8, 0.3, 1.0, 2.5, 10.0, 72.0, 100.0, 500.0, 1000.0, 1999.5, 2000.0):
        ms = set(range(40))
        ms |= {int(u * f) for f in (0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 1.5, 2.0, 3.0, 5.0)}
        ms |= {int(u) + d for d in range(-3, 4) if int(u) + d >= 0}
        for m in sorted(ms):
            yield m, u


def test_poisson_tail_matches_gammainc():
    from scipy.special import gammainc

    checked = 0
    for m, u in _poisson_cases():
        ref = float(gammainc(m + 1, u))
        got = poisson_tail(m, u)
        if ref > 1e-300:
            assert got == pytest.approx(ref, rel=1e-10, abs=0.0), (m, u)
            checked += 1
        else:
            assert got <= 1e-290, (m, u)
    assert poisson_tail(0, 0.0) == 0.0 and poisson_tail(7, 0.0) == 0.0
    assert checked > 500


def test_poisson_tail_near_tail_tol():
    from scipy.special import gammainc

    for u in (0.5, 8.0, 72.0, 128.0, 450.0, 1800.0):
        # the first m whose tail is below TAIL_TOL, and its neighbours
        m = int(u)
        while gammainc(m + 1, u) >= TAIL_TOL:
            m += 1
        for k in (m - 2, m - 1, m, m + 1, m + 2):
            ref = float(gammainc(k + 1, u))
            got = poisson_tail(k, u)
            assert got == pytest.approx(ref, rel=1e-10, abs=0.0), (k, u)
            assert (got >= TAIL_TOL) == (ref >= TAIL_TOL), (k, u)


def test_choose_truncation_matches_gammainc_rule():
    from scipy.special import gammainc

    def scipy_rule(radius, ell):
        u = (radius / ell) ** 2 / 2.0
        m = int(np.ceil(np.e * u / 2.0 + 40))
        while gammainc(m + 1, u) >= TAIL_TOL:
            m = int(np.ceil(1.1 * m)) + 8
        return m

    for r in np.linspace(0.01, 60.0, 3000):
        assert choose_truncation(float(r), 1.0) == scipy_rule(float(r), 1.0), r
    for ell in (0.5, 2.0):
        for r in (3.0, 12.0, 16.0, 20.5):
            assert choose_truncation(r, ell) == scipy_rule(r, ell)


def test_coords_tail_on_window_sites():
    from scipy.special import gammainc

    lp = LatticeParams(math.sqrt(math.pi), math.sqrt(math.pi), 12.0)
    w = build_window(lp)
    trunc, _ = window_coords(w, MP)
    for s in w.sites:
        g = s.gamma(lp)
        u = (g[0] ** 2 + g[1] ** 2) / 2.0
        for m in (trunc, trunc // 2, 10):
            ref = float(gammainc(m + 1, u))
            got = coords_tail(g, 1.0, m)
            if ref > 1e-300:
                assert got == pytest.approx(ref, rel=1e-10, abs=0.0)
            else:
                assert got <= 1e-290


def test_coords_inner_product_matches_overlap(rng):
    lp = LatticeParams(1.5, 1.5, 9.0)
    w = build_window(lp)
    trunc, rows = window_coords(w, MP)
    z = overlap_matrix(w, MP)
    got = rows.conj() @ rows.T
    assert np.max(np.abs(got - z)) < 1e-10
    for k, s in enumerate(w.sites):
        c = chi_coords(s.gamma(lp), 1.0, trunc)
        assert np.allclose(rows[k], c.coeffs, atol=1e-14)


def test_coords_pointwise_matches_chi(rng):
    gamma = (2.0, -1.0)
    trunc = choose_truncation(math.hypot(*gamma), 1.0)
    phi = chi_coords(gamma, 1.0, trunc)
    pts = rng.normal(scale=1.5, size=(30, 2))
    direct = chi_pointwise(gamma, pts, MP)
    via_coords = coords_pointwise(phi, pts)
    assert np.max(np.abs(direct - via_coords)) < 1e-9


def _log_space_synthesis(coeffs, x):
    """Level-0 synthesis by the explicit (points x modes) log-space basis
    exp(-u/2 + m log|z| - lgamma(m+1)/2 - i m arg z), in long double and in
    chunks of points; ell_b = 1."""
    ld = np.longdouble
    c = np.asarray(coeffs, dtype=np.clongdouble)
    m = np.arange(len(c), dtype=ld)
    half_lgamma = np.concatenate([[ld(0)], np.cumsum(np.log(m[1:]))]) / 2
    x = np.asarray(x, dtype=ld) / np.sqrt(ld(2))
    out = np.empty(len(x), dtype=np.clongdouble)
    for s in range(0, len(x), 128):
        x1, x2 = x[s:s + 128, 0], x[s:s + 128, 1]
        u = x1 * x1 + x2 * x2
        with np.errstate(divide="ignore", invalid="ignore"):
            logmag = -u[:, None] / 2 + m[None, :] * (np.log(u) / 2)[:, None] - half_lgamma[None, :]
        logmag[:, 0] = -u / 2  # m = 0 at the origin: 0 * log 0
        phase = m[None, :] * np.arctan2(x2, x1)[:, None]
        out[s:s + 128] = (np.exp(logmag) * (np.cos(phase) - 1j * np.sin(phase))) @ c
    return (out / np.sqrt(2 * np.pi)).astype(np.complex128)


def _probe_points(rng, gamma):
    """Points in the disk out to |gamma| + 30, points near gamma, and the origin."""
    reach = math.hypot(*gamma) + 30.0
    r = reach * np.sqrt(rng.uniform(size=500))
    t = rng.uniform(0.0, 2.0 * np.pi, size=500)
    return np.vstack([np.c_[r * np.cos(t), r * np.sin(t)],
                      np.asarray(gamma) + rng.normal(scale=3.0, size=(300, 2)),
                      [[reach, 0.0], [0.0, 0.0]]])


@pytest.mark.parametrize("radius", [12.0, 40.0, 60.0])
def test_coords_pointwise_far_from_origin(rng, radius):
    # the recurrence restarts every 64 indices; past u ~ 1490 its seed
    # e^(-u/2) underflows, so at 60 ell a product without restarts loses
    # the whole value near gamma
    trunc = choose_truncation(radius, 1.0)
    assert trunc == {12.0: 160, 40.0: 1128, 60.0: 2487}[radius]
    gamma = (radius * math.cos(2.0), radius * math.sin(2.0))
    pts = _probe_points(rng, gamma)
    chi = chi_coords(gamma, 1.0, trunc)
    got = coords_pointwise(chi, pts)
    oracle = _log_space_synthesis(chi.coeffs, pts)
    assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    # the closed form differs from the truncated expansion by at most
    # (sum_{m>M} |c_m|^2)^(1/2) (sum_{m>M} |b_m(x)|^2)^(1/2) / sqrt(2 pi)
    tail_c = coords_tail(gamma, 1.0, trunc)
    tail = np.array([math.sqrt(tail_c * poisson_tail(trunc, (p @ p) / 2.0)) for p in pts])
    exact = chi_pointwise(gamma, pts, MP)
    assert np.all(np.abs(got - exact) <= 1e-12 * np.max(np.abs(exact))
                  + tail / math.sqrt(2.0 * math.pi))
    assert got[-1] == pytest.approx(chi.coeffs[0] / math.sqrt(2.0 * math.pi), abs=1e-300)
    coeffs = rng.normal(size=trunc + 1) + 1j * rng.normal(size=trunc + 1)
    coeffs /= np.linalg.norm(coeffs)
    got = coords_pointwise(LaguerreCoords(level=0, coeffs=coeffs, ell_b=1.0), pts)
    oracle = _log_space_synthesis(coeffs, pts)
    assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    assert got[-1] == pytest.approx(coeffs[0] / math.sqrt(2.0 * math.pi), abs=1e-300)


def test_coords_pointwise_memory_is_linear_in_points(rng):
    # 175 x 175 grid at truncation 62: the kernel's largest synthesis call
    coeffs = rng.normal(size=63) + 1j * rng.normal(size=63)
    phi = LaguerreCoords(level=0, coeffs=coeffs / np.linalg.norm(coeffs), ell_b=1.0)
    axis = np.linspace(-20.0, 20.0, 175)
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
    tracemalloc.start()
    try:
        vals = coords_pointwise(phi, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vals.shape == (175, 175)
    assert peak < 10 * 175 * 175 * 16  # ten point-length complex arrays


def test_reproducing_property(rng):
    # a random finite frame combination evaluated two ways
    lp = LatticeParams(1.0, 1.0, 4.0)
    w = build_window(lp)
    trunc, rows = window_coords(w, MP)
    coef = rng.normal(size=len(w.sites)) + 1j * rng.normal(size=len(w.sites))
    phi = LaguerreCoords(level=0, coeffs=(coef[:, None] * rows).sum(axis=0), ell_b=1.0)
    # on the lowest level <chi_gamma, phi> = ell_b sqrt(2 pi) phi(gamma)
    for gamma in [(0.3, -1.2), (2.0, 0.5)]:
        inner = np.vdot(chi_coords(gamma, 1.0, trunc).coeffs, phi.coeffs)
        by_basis = sum(a * laguerre_psi(0, m, np.array(gamma), 1.0)
                       for m, a in enumerate(phi.coeffs))
        assert inner == pytest.approx(math.sqrt(2.0 * math.pi) * by_basis, abs=1e-9)
        pointwise = coords_pointwise(phi, np.array([list(gamma)]))[0]
        assert inner == pytest.approx(
            math.sqrt(2.0 * math.pi) * pointwise, abs=1e-9
        )


def test_theta3_values_and_monotonicity():
    # classical closed form at tau = i: theta3 = pi^(1/4) / Gamma(3/4)
    assert theta3(1.0) == pytest.approx(
        math.pi**0.25 / math.gamma(0.75), abs=1e-12
    )
    assert theta3(1.0) == pytest.approx(1.0864348112133080, abs=1e-12)
    assert theta3(0.5) == pytest.approx(1.4194954880837662, abs=1e-12)
    # brute series
    for tau in (0.25, 0.5, 1.0, 2.0):
        brute = 1.0 + 2.0 * sum(
            math.exp(-math.pi * tau * n * n) for n in range(1, 200)
        )
        assert theta3(tau) == pytest.approx(brute, rel=1e-13)
    assert theta3(0.5) > theta3(1.0) > theta3(2.0) > 1.0
    with pytest.raises(ValueError):
        theta3(0.0)


def test_bessel_bound_brute_series():
    for alpha in (math.sqrt(math.pi), math.sqrt(3 * math.pi / 2), 2.0):
        lp = LatticeParams(alpha, alpha, 10.0)
        got = bessel_bound(lp, MP)
        s = 1.0 + 2.0 * sum(
            math.exp(-(alpha**2) * n * n / 4.0) for n in range(1, 300)
        )
        assert got == pytest.approx(s * s, rel=1e-12)


def test_regime_trichotomy():
    def lp_with_density(delta):
        a = math.sqrt(delta)
        return LatticeParams(a, a, 10.0)

    assert regime(lp_with_density(math.pi), MP) == "overcomplete"
    assert regime(lp_with_density(2.0 * math.pi), MP) == "threshold"
    assert regime(lp_with_density(3.0 * math.pi), MP) == "incomplete"
    # relative tolerance band around the critical density
    assert regime(lp_with_density(2.0 * math.pi * (1 + 1e-12)), MP) == "threshold"
    assert regime(lp_with_density(2.0 * math.pi * (1 + 1e-6)), MP) == "incomplete"


def test_laguerre_psi_orthonormal():
    # radial Gauss-Laguerre style check via dense Gauss-Hermite grid
    t, wts = np.polynomial.hermite.hermgauss(80)
    scale = math.sqrt(2.0)
    xg, yg = np.meshgrid(scale * t, scale * t, indexing="ij")
    pts = np.stack([xg.ravel(), yg.ravel()], axis=-1)
    w2 = np.outer(wts, wts).ravel() * scale**2
    rescale = np.exp(((xg / scale) ** 2 + (yg / scale) ** 2)).ravel()
    vals = {}
    for n1, n2 in [(0, 0), (0, 1), (1, 1), (1, 2)]:
        vals[(n1, n2)] = laguerre_psi(n1, n2, pts, 1.0)
    for a in vals:
        for b in vals:
            inner = np.sum(np.conj(vals[a]) * vals[b] * rescale * w2)
            expected = 1.0 if a == b else 0.0
            assert abs(inner - expected) < 1e-8


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_laguerre_recurrence_matches_scipy(level):
    # laguerre_psi's polynomial factor L_level^order(u); scipy is the oracle only.
    # Every term of L_n^a(-u) is positive, so it bounds the cancellation error.
    from scipy.special import eval_genlaguerre

    u = np.concatenate([np.linspace(0.0, 60.0, 601), np.linspace(60.0, 1500.0, 145)])
    for order in (0, 1, 2, 5, 17, 40, 120):
        got = _genlaguerre(level, order, u)
        scale = eval_genlaguerre(level, order, -u)
        assert np.all(np.abs(got - eval_genlaguerre(level, order, u)) <= 1e-13 * scale)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_laguerre_psi_matches_scipy_laguerre(level, rng):
    # psi_(level, m) and psi_(m, level) from the closed form with scipy's
    # polynomial: e^{-u/2} |z|^delta L_lo^delta(u) sqrt(lo!/hi!) / (l sqrt(2 pi))
    from scipy.special import eval_genlaguerre

    pts = rng.normal(scale=3.0, size=(200, 2))
    z = (pts[:, 0] + 1j * pts[:, 1]) / math.sqrt(2.0)
    u = np.abs(z) ** 2
    for m in (0, 1, 4, 9):
        lo, hi = min(level, m), max(level, m)
        delta = hi - lo
        radial = (np.exp(-u / 2.0) * np.abs(z) ** delta * eval_genlaguerre(lo, delta, u)
                  * math.sqrt(math.factorial(lo) / math.factorial(hi)) / math.sqrt(2.0 * math.pi))
        angle = np.exp(-1j * delta * np.angle(z))
        want_right = radial * angle  # psi_(level, m), m >= level
        want_left = (-1.0) ** delta * radial * np.conj(angle)  # psi_(m, level)
        got = laguerre_psi(lo, hi, pts, 1.0), laguerre_psi(hi, lo, pts, 1.0)
        assert np.max(np.abs(got[0] - want_right)) < 1e-13
        assert np.max(np.abs(got[1] - want_left)) < 1e-13


def test_window_coords_truncation_matches_radius():
    lp = LatticeParams(1.0, 1.0, 5.0)
    w = build_window(lp)
    trunc, rows = window_coords(w, MP)
    rmax = max(math.hypot(*s.gamma(lp)) for s in w.sites)
    assert trunc == choose_truncation(rmax, 1.0)
    assert rows.shape == (len(w.sites), trunc + 1)


def test_magnetic_params_validation():
    with pytest.raises(ValueError):
        MagneticParams(ell_b=0.0)
    mp = MagneticParams(ell_b=2.0)
    assert mp.level_spacing == pytest.approx(0.25)  # default gap 1/ell^2
    assert MagneticParams(ell_b=2.0, eps_b=3.0).level_spacing == 3.0
