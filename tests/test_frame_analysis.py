"""Gram spectra, frame bounds, inverse-power decay certificates."""

import math

import numpy as np
import pytest

from latframe.lattice import LatticeParams, build_window, window_from_triples
from latframe.magnetic import MagneticParams, bessel_bound
from latframe.frame_analysis import (
    PSEUDO_INVERSE_RTOL,
    FrameAnalysisError,
    RegimeError,
    frame_bounds_estimate,
    frame_operator,
    gram,
    inner_indices,
    localization_rate,
    neumann_certificate,
    overlap_rate_constant,
    s_inverse_power_elements,
    verify_decay,
    window_coords,
)

MP = MagneticParams(ell_b=1.0)
SQRT_PI = math.sqrt(math.pi)

M_EPS_1D = 1.0 + 2.0 / (math.e - 1.0)  # row sum of exp(-|k|) on the unit chain


def test_single_site_gram():
    w = window_from_triples(LatticeParams(2.0, 2.0, 4.0), [(0, 0, 0)])
    z = gram(w, MP).entries
    assert z.shape == (1, 1)
    assert z[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_two_site_gram_eigenvalues():
    # neighbours at spacing 2: overlap modulus e^{-1}
    w = window_from_triples(LatticeParams(2.0, 2.0, 4.0), [(0, 0, 0), (0, 1, 0)])
    z = gram(w, MP).entries
    eigs = np.sort(np.linalg.eigvalsh(z))
    assert eigs[0] == pytest.approx(0.6321205588285577, abs=1e-12)
    assert eigs[1] == pytest.approx(1.3678794411714423, abs=1e-12)
    assert abs(z[0, 1]) == pytest.approx(math.exp(-1.0), abs=1e-14)


def test_frame_operator_shares_gram_spectrum():
    lp = LatticeParams(SQRT_PI, SQRT_PI, 8.0)
    w = build_window(lp)
    z = gram(w, MP).entries
    op = frame_operator(w, MP)
    gram_eigs = np.sort(np.linalg.eigvalsh(z))[::-1]
    op_eigs = np.sort(np.linalg.eigvalsh(op.matrix))[::-1]
    k = len(w.sites)
    # overcomplete coherent states stay independent: k eigenvalues above the cutoff
    assert op_eigs[k - 1] > PSEUDO_INVERSE_RTOL * op_eigs[0] >= op_eigs[k]
    assert np.max(np.abs(op_eigs[:k] - gram_eigs[:k])) < 1e-9


def test_frame_operator_power_identities():
    lp = LatticeParams(SQRT_PI, SQRT_PI, 6.0)
    w = build_window(lp)
    op = frame_operator(w, MP)
    s = op.matrix
    trunc, rows = window_coords(w, MP)
    assert op.trunc == trunc and np.array_equal(op.rows, rows)
    # independent pseudo-inverse at the same cutoff
    s_plus = np.linalg.pinv(s, rcond=PSEUDO_INVERSE_RTOL, hermitian=True)
    assert np.allclose(op.dual, rows @ s_plus.T, atol=1e-9)
    # S dual_g = S S^+ chi_g = chi_g on the retained range, which holds every chi_g
    assert np.allclose(op.dual @ s.T, rows, atol=1e-9)
    assert np.allclose(s @ s_plus @ s, s, atol=1e-9)
    # the dual rows resolve S^+ itself: D0^T conj(D0) = S^+ S S^+ = S^+
    d0 = op.dual[w.levels == 0]
    assert np.allclose(d0.T @ d0.conj(), s_plus, atol=1e-9)


def test_frame_operator_needs_level0_sites():
    # S is summed over the window's own level-0 states; without any there is no S
    w = window_from_triples(LatticeParams(SQRT_PI, SQRT_PI, 6.0, level_max=1), [(1, 0, 0)])
    with pytest.raises(FrameAnalysisError):
        frame_operator(w, MP)


def test_frame_bounds_orthonormal_limit():
    # far-separated states: Gram is numerically the identity
    lp = LatticeParams(20.0, 20.0, 400.0)
    rec = frame_bounds_estimate([build_window(lp)], MP)[0]
    assert rec.a_est == pytest.approx(1.0, abs=1e-12)
    assert rec.b_est == pytest.approx(1.0, abs=1e-12)
    assert rec.n_sites == 5


def test_frame_bounds_fields_and_upper():
    lp = LatticeParams(SQRT_PI, SQRT_PI, 8.0)
    w = build_window(lp)
    rec = frame_bounds_estimate([w], MP)[0]
    assert rec.regime == "overcomplete"
    assert 0 < rec.a_est <= rec.b_est <= rec.upper_closed_form * (1 + 1e-9)
    assert rec.upper_closed_form == pytest.approx(bessel_bound(lp, MP), rel=1e-12)
    assert rec.window_hash == w.content_hash()


def test_frame_bounds_regime_labels():
    mk = lambda delta: build_window(LatticeParams(math.sqrt(delta), math.sqrt(delta), 3.0 * delta))
    recs = frame_bounds_estimate([mk(math.pi), mk(2 * math.pi), mk(3 * math.pi)], MP)
    assert [r.regime for r in recs] == ["overcomplete", "threshold", "incomplete"]


def test_s_inverse_elements_against_pinv(rng):
    lp = LatticeParams(SQRT_PI, SQRT_PI, 8.0)
    w = build_window(lp)
    trunc, rows = window_coords(w, MP)
    # independent route: assemble S from rank-one terms and pseudo-invert
    s = np.zeros((trunc + 1, trunc + 1), dtype=complex)
    for k in range(len(w.sites)):
        s += np.outer(rows[k], np.conj(rows[k]))
    pinv = np.linalg.pinv(s, rcond=1e-10, hermitian=True)
    for p in (1, 2, 3):
        el = s_inverse_power_elements(w, MP, p=p, margin=0.0)
        assert el.inner == list(range(len(w.sites)))
        ref = np.linalg.matrix_power(pinv, p)
        expected = rows.conj() @ ref @ rows.T
        # the elements grow by about 1e3 per power on this window
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(el.entries - expected)) < 1e-12 * scale


def test_s_inverse_sandwich_recovers_gram():
    # sum_g <chi_i, S^-1 chi_g><chi_g, chi_j> ~ <chi_i, chi_j> deep inside
    lp = LatticeParams(SQRT_PI, SQRT_PI, 12.0)
    w = build_window(lp)
    t = s_inverse_power_elements(w, MP, p=1, margin=0.0).entries
    z = gram(w, MP).entries
    inner = inner_indices(w, MP)
    resid = (t @ z - z)[np.ix_(inner, inner)]
    assert np.max(np.abs(resid)) < 1e-6


def test_s_inverse_rejects_non_overcomplete():
    crit = math.sqrt(2.0 * math.pi)
    w = build_window(LatticeParams(crit, crit, 3.0 * crit * crit))
    with pytest.raises(RegimeError):
        s_inverse_power_elements(w, MP, p=1)
    w2 = build_window(LatticeParams(3.0, 3.0, 27.0))
    with pytest.raises(RegimeError):
        s_inverse_power_elements(w2, MP, p=1)


def test_s_inverse_power_validation():
    w = build_window(LatticeParams(SQRT_PI, SQRT_PI, 6.0))
    with pytest.raises(FrameAnalysisError):
        s_inverse_power_elements(w, MP, p=0)


@pytest.mark.parametrize(
    "alpha,beta,ell,expected",
    [
        (1.0, 1.0, 1.0, 0.25),
        (2.8, 2.8, 1.0, 0.25),  # clamp at one lattice unit
        (0.5, 1.5, 1.0, 0.125),
        (1.0, 1.0, 2.0, 0.0625),
    ],
)
def test_localization_rate_values(alpha, beta, ell, expected):
    lp = LatticeParams(alpha, beta, 10.0)
    assert localization_rate(lp, MagneticParams(ell_b=ell)) == pytest.approx(expected)


def test_overlap_rate_constant_unit_lattice():
    w = build_window(LatticeParams(1.0, 1.0, 6.0))
    g = overlap_rate_constant(w, MP)
    assert g == pytest.approx(1.0, abs=1e-12)  # sharp at unit steps


def test_overlap_rate_constant_at_least_one():
    for alpha in (0.6, 1.0, 1.8, 2.8):
        w = build_window(LatticeParams(alpha, alpha, 6.0 * alpha * alpha))
        g = overlap_rate_constant(w, MP)
        lam = localization_rate(w.params, MP)
        z = np.abs(gram(w, MP).entries)
        d = w.distance_matrix()
        assert g >= 1.0
        assert np.all(z <= g * np.exp(-lam * d) * (1 + 1e-12))


def test_certificate_frozen_example():
    w = build_window(LatticeParams(1.0, 1.0, 3.0))
    cert = neumann_certificate(
        w, g=1.0, lam=1.5, s_min=1.0, s_max=2.0, p=1,
        theta=0.25, m_eps_value=M_EPS_1D,
    )
    assert cert.delta == pytest.approx(0.75)
    assert cert.c_eps == pytest.approx(M_EPS_1D, abs=1e-12)
    assert cert.r_p == pytest.approx(0.5, abs=1e-15)
    assert cert.d_p == pytest.approx(2.0819767068693267, abs=1e-12)
    assert cert.e_p == pytest.approx(0.3505168462105266, abs=1e-12)
    assert cert.lambda_p == pytest.approx(0.24295976368959044, abs=1e-12)
    assert cert.a_p == pytest.approx(2.0, abs=1e-15)
    # independent recomputation of the chained formulas
    d_p = 1.0 * (1.0 + (M_EPS_1D / 2.0) ** 1)
    e_p = (1.5 - 0.75 - 0.25) / math.log(d_p / 0.5)
    assert cert.e_p == pytest.approx(e_p, abs=1e-15)
    assert cert.lambda_p == pytest.approx(min(0.25, math.log(2.0) * e_p), abs=1e-15)


def test_certificate_trivial_amplitude():
    w = build_window(LatticeParams(1.0, 1.0, 3.0))
    cert = neumann_certificate(w, g=1.0, lam=1.0, s_min=1.0, s_max=2.0, p=1,
                               m_eps_value=M_EPS_1D)
    assert cert.r_p == pytest.approx(0.5)
    assert cert.a_p == pytest.approx(2.0)  # 2 / (s_max^p (1 - r_p))
    assert cert.eps == pytest.approx(0.25)  # default lam/4
    assert cert.theta == pytest.approx(0.25)


def test_certificate_degrades_with_power():
    # a_p = 2 / s_min^p grows without bound once s_min < 1
    w = build_window(LatticeParams(1.0, 1.0, 3.0))
    a_prev, r_prev = 0.0, 0.0
    for p in (1, 2, 4, 8):
        cert = neumann_certificate(w, g=1.0, lam=1.0, s_min=0.8, s_max=2.0,
                                   p=p, m_eps_value=M_EPS_1D)
        assert cert.a_p == pytest.approx(2.0 / 0.8**p, rel=1e-12)
        assert cert.a_p > a_prev and cert.r_p > r_prev
        a_prev, r_prev = cert.a_p, cert.r_p
        assert 0 < cert.lambda_p < 1.0
    assert r_prev > 0.99  # r_p -> 1


def test_certificate_validation():
    w = build_window(LatticeParams(1.0, 1.0, 3.0))
    kw = dict(g=1.0, lam=1.0, s_min=1.0, s_max=2.0, p=1, m_eps_value=2.0)
    with pytest.raises(FrameAnalysisError):
        neumann_certificate(w, **{**kw, "s_min": 0.0})
    with pytest.raises(FrameAnalysisError):
        neumann_certificate(w, **{**kw, "s_min": 3.0})  # s_min > s_max
    with pytest.raises(FrameAnalysisError):
        neumann_certificate(w, **{**kw, "g": 0.5})
    with pytest.raises(FrameAnalysisError):
        neumann_certificate(w, **{**kw, "theta": 0.6})  # >= lam - delta
    with pytest.raises(FrameAnalysisError):
        neumann_certificate(w, **{**kw, "eps": 0.5})  # >= delta
    with pytest.raises(FrameAnalysisError):
        neumann_certificate(w, **{**kw, "p": 0})


@pytest.fixture(scope="module")
def small_cert():
    w = build_window(LatticeParams(1.0, 1.0, 3.0))
    return neumann_certificate(w, g=1.0, lam=1.0, s_min=1.0, s_max=2.0, p=1,
                               m_eps_value=M_EPS_1D)


def test_verify_decay_zero_matrix(small_cert):
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = verify_decay(np.zeros((2, 2)), d, small_cert)
    assert rep.violations == 0
    assert rep.max_ratio == 0.0
    assert rep.n_pairs == 4


def test_verify_decay_saturated_and_violated(small_cert):
    rng = np.random.default_rng(5)
    d = np.abs(rng.normal(scale=3.0, size=(6, 6)))
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    exact = small_cert.a_p * np.exp(-small_cert.lambda_p * d)
    rep = verify_decay(exact, d, small_cert)
    assert rep.violations == 0
    assert rep.max_ratio == pytest.approx(1.0, rel=1e-12)
    bad = exact.copy()
    bad[2, 3] *= 1.5
    rep2 = verify_decay(bad, d, small_cert)
    assert rep2.violations == 1
    assert rep2.max_ratio == pytest.approx(1.5, rel=1e-12)


def test_verify_decay_scale_and_fit(small_cert):
    d = np.linspace(0.0, 12.0, 30)[None, :].repeat(2, axis=0)
    entries = 0.7 * np.exp(-0.9 * d)
    rep = verify_decay(entries, d, small_cert, scale=0.7 / small_cert.a_p)
    # scaled bound is 0.7 e^{-lambda_p d}, and the data decay faster
    assert rep.violations == 0
    assert rep.fitted_rate == pytest.approx(0.9, abs=1e-6)
    assert rep.fitted_rate >= small_cert.lambda_p


def test_decay_certificate_end_to_end():
    lp = LatticeParams(SQRT_PI, SQRT_PI, 12.0)
    w = build_window(lp)
    rec = frame_bounds_estimate([w], MP)[0]
    lam = localization_rate(lp, MP)
    g = overlap_rate_constant(w, MP)
    for p in (1, 2):
        cert = neumann_certificate(w, g=g, lam=lam, s_min=rec.a_est,
                                   s_max=rec.b_est, p=p)
        el = s_inverse_power_elements(w, MP, p=p)
        d = w.distance_matrix()[np.ix_(el.inner, el.inner)]
        rep = verify_decay(np.abs(el.entries), d, cert)
        assert rep.violations == 0
        assert rep.fitted_rate >= cert.lambda_p


def test_inner_indices_margins():
    lp = LatticeParams(SQRT_PI, SQRT_PI, 12.0)
    w = build_window(lp)
    assert inner_indices(w, MP, margin=0.0) == list(range(len(w.sites)))
    inner = inner_indices(w, MP)  # default 6 ell margin
    a_star = lp.alpha_star
    for k in inner:
        assert a_star * np.abs(w.gxy[k]).sum() <= 12.0 - 6.0
    assert 0 < len(inner) < len(w.sites)
    with pytest.raises(FrameAnalysisError):
        inner_indices(w, MP, margin=1e6)
