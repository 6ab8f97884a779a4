"""Gram spectra, frame bounds, inverse-power decay certificates."""

import math
import tracemalloc

import numpy as np
import pytest

from dataclasses import replace

from latframe.cli import _MODULE_ERRORS
from latframe.lattice import LatticeParams, build_window, window_from_triples
from latframe.magnetic import MagneticParams, bessel_bound, theta3
from latframe.frame_analysis import (
    DUAL_RESIDUAL_TOL,
    EXCEED_RTOL,
    OVERLAP_CONSTANT,
    PSEUDO_INVERSE_RTOL,
    FrameAnalysisError,
    RegimeError,
    check_bound,
    dual_coefficients,
    dual_residual,
    frame_bounds_estimate,
    frame_operator,
    gram,
    localization_rate,
    neumann_certificate,
    s_inverse_power_elements,
    schur_lower_bound,
    verify_decay,
    window_coords,
)
from oracles import dual_coefficients_dense, overlap_rate_constant

MP = MagneticParams(ell_b=1.0)
SQRT_PI = math.sqrt(math.pi)

M_EPS_1D = 1.0 + 2.0 / (math.e - 1.0)  # row sum of exp(-|k|) on the unit chain


def test_single_site_gram():
    w = window_from_triples(LatticeParams(2.0, 2.0, 4.0), [(0, 0, 0)])
    z = gram(w, MP)
    assert z.shape == (1, 1)
    assert z[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_two_site_gram_eigenvalues():
    # neighbours at spacing 2: overlap modulus e^{-1}
    w = window_from_triples(LatticeParams(2.0, 2.0, 4.0), [(0, 0, 0), (0, 1, 0)])
    z = gram(w, MP)
    eigs = np.sort(np.linalg.eigvalsh(z))
    assert eigs[0] == pytest.approx(0.6321205588285577, abs=1e-12)
    assert eigs[1] == pytest.approx(1.3678794411714423, abs=1e-12)
    assert abs(z[0, 1]) == pytest.approx(math.exp(-1.0), abs=1e-14)


def test_frame_operator_shares_gram_spectrum():
    lp = LatticeParams(SQRT_PI, SQRT_PI, 8.0)
    w = build_window(lp)
    z = gram(w, MP)
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
    # the dual rows resolve S^+ itself: D^T conj(D) = S^+ S S^+ = S^+
    assert np.allclose(op.dual.T @ op.dual.conj(), s_plus, atol=1e-9)


def test_frame_operator_needs_level0_sites():
    # the window route serves the lowest level alone: a window that may hold
    # level 1 is rejected, with or without level-0 sites to build S from
    lp = LatticeParams(SQRT_PI, SQRT_PI, 6.0, level_max=1)
    for triples in ([(1, 0, 0)], [(0, 0, 0), (0, 1, 0)]):
        with pytest.raises(FrameAnalysisError, match="lowest level"):
            frame_operator(window_from_triples(lp, triples), MP)


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


def _overlaps(x, mu):
    """Closed-form <chi_x, chi_mu> for points x (2,) and mu (..., 2), ell = 1."""
    wedge = x[0] * mu[..., 1] - x[1] * mu[..., 0]
    d2 = np.sum((mu - x) ** 2, axis=-1)
    return np.exp(0.5j * wedge - d2 / 4.0)


def _symbol_route(p, x):
    """<chi_x, S^-p chi_0> on the sqrt(pi) lattice from the Janssen symbol.

    There N = 2 and the adjoint lattice is 2 sqrt(pi) Z^2, whose magnetic
    phases are trivial: N G is the Toeplitz matrix of 2 s(t1) s(t2) with
    s(t) = sum_k exp(-pi k^2 + i k t), so the coefficients of S^-p chi_0 are
    the Fourier coefficients of (2 s s)^-p, taken here by an FFT.
    """
    n = 64
    k = np.arange(-10, 11)
    s = np.exp(-np.pi * k**2) @ np.exp(2j * np.pi * np.outer(k, np.arange(n)) / n)
    h = np.real(np.fft.fft(s ** -p) / n)[k]
    mu = 2.0 * SQRT_PI * np.stack(np.meshgrid(k, k, indexing="ij"), axis=-1)
    return complex(np.sum(2.0**-p * np.outer(h, h) * _overlaps(np.asarray(x), mu)))


def _dual_at(dual, q, x):
    """<chi_x, S^-q chi_0> from adjoint-lattice coefficients, ell = 1."""
    mu = np.stack(np.meshgrid(dual.mu1, dual.mu2, indexing="ij"), axis=-1)
    return complex(np.sum(dual.coeffs[q - 1] * _overlaps(np.asarray(x), mu)))


def test_s_inverse_elements_match_symbol_route():
    w = build_window(LatticeParams(SQRT_PI, SQRT_PI, 8.0))
    for p in (1, 2):
        el = s_inverse_power_elements(w, MP, p=p)
        assert list(el.sites) == list(range(len(w.sites)))
        # translation covariance: <chi_a, S^-p chi_b> = exp(i a ^ b / 2) <chi_(a - b), S^-p chi_0>
        expected = np.array([[np.exp(0.5j * (a[0] * b[1] - a[1] * b[0])) * _symbol_route(p, a - b)
                              for b in w.gxy] for a in w.gxy])
        assert np.max(np.abs(el.entries - expected)) < 1e-12
        # Hermitian, up to rounding
        assert np.max(np.abs(el.entries - el.entries.conj().T)) < 1e-14


@pytest.mark.parametrize("spacing,s1_e1,s2_00", [
    (SQRT_PI, 0.220545, 0.2518815),  # N = 2
    (math.sqrt(2.0 * math.pi / 3.0), 0.197188, 0.1111470),  # N = 3
])
def test_s_inverse_reference_values_converge(spacing, s1_e1, s2_00):
    lp = LatticeParams(spacing, spacing, 4.0 * spacing)
    e1 = np.array([spacing, 0.0])
    errs = []
    for tol in (1e-3, 1e-6, 1e-9, 1e-12):
        dual = dual_coefficients(lp, MP, 2, tol)
        errs.append(max(abs(abs(_dual_at(dual, 1, -e1)) - s1_e1),
                        abs(_dual_at(dual, 2, [0.0, 0.0]) - s2_00)))
    assert errs[-1] < 1e-6
    assert all(b <= a + 1e-7 for a, b in zip(errs, errs[1:]))
    assert dual_residual(dual_coefficients(lp, MP, 2), lp, MP) <= DUAL_RESIDUAL_TOL
    # the library's own element table carries the same values
    w = window_from_triples(lp, [(0, 0, 0), (0, 1, 0)])
    assert abs(s_inverse_power_elements(w, MP, 1).entries[0, 1]) == pytest.approx(s1_e1, abs=1e-6)
    assert s_inverse_power_elements(w, MP, 2).entries[0, 0] == pytest.approx(s2_00, abs=1e-6)


def test_dual_residual_sees_a_scaled_dual():
    lp = LatticeParams(SQRT_PI, SQRT_PI, 8.0)
    dual = dual_coefficients(lp, MP, 2)
    assert dual_residual(dual, lp, MP) <= DUAL_RESIDUAL_TOL
    bad = replace(dual, coeffs=dual.coeffs * (1 + 1e-6))
    assert dual_residual(bad, lp, MP) > 1e-7


@pytest.mark.parametrize("alpha, beta, p", [
    (SQRT_PI, SQRT_PI, 1), (SQRT_PI, SQRT_PI, 2), (1.0, 3.0, 2), (2.3, 2.3, 2),
], ids=["sqrt_pi-p1", "sqrt_pi-p2", "1x3-p2", "2.3-p2"])
def test_dual_coefficients_match_the_dense_finite_section(alpha, beta, p):
    # the conjugate-gradient solve against LU on the same disc, N G formed whole
    lp = LatticeParams(alpha, beta, 4.0)
    dual, dense = dual_coefficients(lp, MP, p), dual_coefficients_dense(lp, MP, p)
    assert np.array_equal(dual.mu1, dense.mu1) and np.array_equal(dual.mu2, dense.mu2)
    assert np.array_equal(dual.coeffs != 0, dense.coeffs != 0)  # the same patch sites
    assert np.max(np.abs(dual.coeffs - dense.coeffs)) <= 1e-15
    assert dual_residual(dual, lp, MP) <= DUAL_RESIDUAL_TOL


def test_dual_coefficients_form_no_disc_matrix():
    # 1401 disc sites at p = 2: N G whole would take 31.4 MB, and the einsum over
    # its 77 x 25 box 59.3 MB
    lp = LatticeParams(1.0, math.pi, 4.0)
    tracemalloc.start()
    try:
        dual = dual_coefficients(lp, MP, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(dual.coeffs[0]) == 1401
    assert peak < 10e6


def test_schur_lower_bound():
    lp = LatticeParams(SQRT_PI, SQRT_PI, 8.0)
    a = schur_lower_bound(lp, MP)
    assert a == pytest.approx(2.0 * (2.0 - theta3(1.0) ** 2), rel=1e-14)
    # at N = 2 the bottom of the spectrum is 2 s(pi)^2, s(pi) = sum_k (-1)^k exp(-pi k^2)
    k = np.arange(-10, 11)
    bottom = 2.0 * float(np.sum((-1.0) ** k * np.exp(-np.pi * k**2))) ** 2
    assert a == pytest.approx(1.6393188, abs=1e-6) and a < bottom == pytest.approx(1.6693, abs=1e-4)
    with pytest.raises(FrameAnalysisError, match="Schur"):
        schur_lower_bound(LatticeParams(1.0, 6.0, 12.0), MP)  # elongated: row sum above 2


def test_s_inverse_sandwich_recovers_gram():
    # sum_g <chi_i, S^-1 chi_g><chi_g, chi_j> = <chi_i, chi_j> summed over the
    # lattice; the window sum misses only the S^-1 tails past a 12-unit margin
    lp = LatticeParams(SQRT_PI, SQRT_PI, 18.0)
    w = build_window(lp)
    t = s_inverse_power_elements(w, MP, p=1).entries
    z = gram(w, MP)
    inner = lp.alpha_star * np.abs(w.gxy).sum(axis=1) <= 18.0 - 12.0
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
        (2.8, 2.8, 1.0, 0.25),  # the spacings do not enter
        (0.5, 1.5, 1.0, 0.25),
        (1.0, 1.0, 2.0, 0.0625),
    ],
)
def test_localization_rate_values(alpha, beta, ell, expected):
    # |delta|^2 >= alpha_star |delta|_1 = d on every lattice, so lam = 1 / 4 ell^2
    # with G = 1; the spacings only label the case
    assert localization_rate(MagneticParams(ell_b=ell)) == pytest.approx(expected)


def test_overlap_rate_constant_unit_lattice():
    w = build_window(LatticeParams(1.0, 1.0, 6.0))
    g = overlap_rate_constant(w, MP, localization_rate(MP))
    assert g == pytest.approx(OVERLAP_CONSTANT, abs=1e-12)  # sharp at unit steps


@pytest.mark.parametrize("alpha, beta, radius, ell", [
    (math.sqrt(math.pi), math.sqrt(math.pi), 12.0, 1.0), (1.0, 2.0, 8.0, 1.5),
    (1.5, 3.0, 10.0, 0.7), (3.0, 1.0, 10.0, 1.5)])
def test_overlap_rate_constant_from_level_zero(alpha, beta, radius, ell):
    # overlaps vanish across levels and every level repeats the level-0 block,
    # so the scan over all pairs is the level-0 scan bit for bit (the last
    # three windows reach it one or two units of round-off above 1)
    lp = LatticeParams(alpha, beta, radius, level_max=1)
    w = build_window(lp)
    assert np.count_nonzero(w.levels == 1) == np.count_nonzero(w.levels == 0)
    mp = MagneticParams(ell_b=ell)
    lam = localization_rate(mp)
    level0 = build_window(replace(lp, level_max=0))
    assert overlap_rate_constant(w, mp, lam) == overlap_rate_constant(level0, mp, lam)


def test_overlap_rate_constant_at_least_one():
    for alpha in (0.6, 1.0, 1.8, 2.8):
        w = build_window(LatticeParams(alpha, alpha, 6.0 * alpha * alpha))
        lam = localization_rate(MP)
        g = overlap_rate_constant(w, MP, lam)
        z = np.abs(gram(w, MP))
        d = w.distance_matrix()
        assert g >= 1.0
        assert np.all(z <= g * np.exp(-lam * d) * (1 + 1e-12))


@pytest.mark.parametrize("level_max", [0, 1])
@pytest.mark.parametrize("ell", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("alpha, beta", [
    (0.5, 0.5), (0.7, 0.9), (0.6, 1.3), (1.0, 1.0), (math.sqrt(math.pi), math.sqrt(math.pi)),
    (1.3, 1.0), (2.2, 1.6), (2.8, 2.8)])
def test_overlap_rate_constant_is_one(alpha, beta, ell, level_max):
    # localization_rate's derivation gives G = 1, which the commands use in
    # place of a window scan; the scan may only add round-off, a few ulp per
    # unit of the exponent lam * alpha_star^2 at the sharp pairs (16 ulp at
    # alpha = 2.8, ell = 0.5, where that exponent is 7.84)
    lp = LatticeParams(alpha, beta, 4.0 * alpha * beta, level_max)  # four steps or more
    mp = MagneticParams(ell_b=ell)
    lam = localization_rate(mp)
    g = overlap_rate_constant(build_window(lp), mp, lam)
    assert 1.0 <= g <= 1.0 + 8 * np.spacing(1.0) * max(1.0, lam * lp.alpha_star**2)


def test_overlap_rate_constant_scan_detects_a_fast_rate():
    # the sweep above can fail: 5% past localization_rate the scan leaves 1,
    # on a lattice with alpha_star < 1 as on one with alpha_star >= 1
    lam = 1.05 * localization_rate(MP)
    for lp in (LatticeParams(SQRT_PI, SQRT_PI, 12.0), LatticeParams(0.5, 0.5, 2.0)):
        assert overlap_rate_constant(build_window(lp), MP, lam) > 1.0 + 1e-3


def test_certificate_frozen_example():
    w = build_window(LatticeParams(1.0, 1.0, 3.0))
    cert = neumann_certificate(
        w.params, lam=1.5, s_min=1.0, s_max=2.0, p=1,
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
    cert = neumann_certificate(w.params, lam=1.0, s_min=1.0, s_max=2.0, p=1,
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
        cert = neumann_certificate(w.params, lam=1.0, s_min=0.8, s_max=2.0,
                                   p=p, m_eps_value=M_EPS_1D)
        assert cert.a_p == pytest.approx(2.0 / 0.8**p, rel=1e-12)
        assert cert.a_p > a_prev and cert.r_p > r_prev
        a_prev, r_prev = cert.a_p, cert.r_p
        assert 0 < cert.lambda_p < 1.0
    assert r_prev > 0.99  # r_p -> 1


def test_certificate_validation():
    w = build_window(LatticeParams(1.0, 1.0, 3.0))
    kw = dict(lam=1.0, s_min=1.0, s_max=2.0, p=1, m_eps_value=2.0)
    with pytest.raises(FrameAnalysisError):
        neumann_certificate(w.params, **{**kw, "s_min": 0.0})
    with pytest.raises(FrameAnalysisError):
        neumann_certificate(w.params, **{**kw, "s_min": 3.0})  # s_min > s_max
    with pytest.raises(FrameAnalysisError):
        neumann_certificate(w.params, **{**kw, "theta": 0.6})  # >= lam - delta
    with pytest.raises(FrameAnalysisError):
        neumann_certificate(w.params, **{**kw, "eps": 0.5})  # >= delta
    with pytest.raises(FrameAnalysisError):
        neumann_certificate(w.params, **{**kw, "p": 0})


def test_certificate_rejects_rate_rounding_to_one():
    # (s_min / s_max)^p below rounding: r_p = 1 and a_p would divide by zero
    w = build_window(LatticeParams(1.0, 1.0, 3.0))
    with pytest.raises(FrameAnalysisError, match=r"s_min / s_max\)\^p = \(1\.000e-17\)") as err:
        neumann_certificate(w.params, lam=1.0, s_min=1e-17, s_max=1.0, p=1,
                            m_eps_value=M_EPS_1D)
    assert isinstance(err.value, _MODULE_ERRORS)  # an input rejection (exit 2), not a crash


@pytest.fixture(scope="module")
def small_cert():
    w = build_window(LatticeParams(1.0, 1.0, 3.0))
    return neumann_certificate(w.params, lam=1.0, s_min=1.0, s_max=2.0, p=1,
                               m_eps_value=M_EPS_1D)


# a bound at which one ulp above bound (1 + EXCEED_RTOL) exceeds, while its
# ratio measured / bound rounds back to 1 + EXCEED_RTOL
_EDGE = 0.43249719552409716
_ON_EDGE = _EDGE * (1.0 + EXCEED_RTOL)


@pytest.mark.parametrize("measured, bound, trivial, atol, ratio, exceed, informative", [
    ([0.0, 1e-300], [0.0, 0.0], None, 0.0, [0.0, np.inf], [False, True], None),
    ([1.0], [np.inf], None, 0.0, [0.0], [False], None),
    ([5e-13, 2e-12], [0.0, 0.0], None, 1e-12, [0.0, np.inf], [False, True], None),
    ([0.5, 0.5, 0.5, 0.5], [1.0, 3.0, 1.0, 0.0], [2.0, 2.0, 0.0, 0.0], 0.0,
     [0.5, 0.5 / 3.0, 0.5, np.inf], [False, False, False, True], 1),
    ([_ON_EDGE, np.nextafter(_ON_EDGE, 2.0)], [_EDGE, _EDGE], None, 0.0,
     [1.0 + EXCEED_RTOL, 1.0 + EXCEED_RTOL], [False, True], None),
], ids=["zero_bound", "overflowed_bound", "atol", "trivial_per_cell", "threshold"])
def test_check_bound_rule(measured, bound, trivial, atol, ratio, exceed, informative):
    """The rule of every certified-bound check: exceed when measured > bound
    (1 + EXCEED_RTOL) + atol, the ratio 0 where the bound is inf, and at a zero
    bound inf where the cell exceeds, else 0; a cell is informative when its
    bound lies below its own trivial limit (the 0 of the third cell stands for
    a dynamics check at t = 0)."""
    chk = check_bound(measured, bound, trivial, atol)
    np.testing.assert_allclose(chk.ratio, ratio, rtol=1e-15)
    assert chk.exceed.tolist() == exceed
    assert chk.n_exceed == sum(exceed) and chk.passed is (sum(exceed) == 0)
    assert chk.max_ratio == max(chk.ratio.tolist())
    assert chk.informative == informative


def test_verify_decay_counts_informative_pairs(small_cert):
    """lam = 1, s_min = 1, s_max = 2: a pair's bound a_p e^(-lambda_p d) lies
    below the trivial limit ||S^-1|| <= s_min^-1 = a_p / 2 past d = ln 2 / lambda_p."""
    assert small_cert.s_min ** -small_cert.p == pytest.approx(small_cert.a_p / 2.0, rel=1e-12)
    cut = math.log(2.0) / small_cert.lambda_p
    d = np.array([[0.0, 0.5 * cut], [2.0 * cut, 3.0 * cut]])
    rep = verify_decay(np.zeros((2, 2)), d, small_cert)
    assert rep.check.informative == 2


def test_verify_decay_zero_matrix(small_cert):
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = verify_decay(np.zeros((2, 2)), d, small_cert)
    assert rep.check.n_exceed == 0
    assert rep.check.max_ratio == 0.0
    assert rep.n_pairs == 4


def test_verify_decay_saturated_and_violated(small_cert):
    rng = np.random.default_rng(5)
    d = np.abs(rng.normal(scale=3.0, size=(6, 6)))
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    exact = small_cert.a_p * np.exp(-small_cert.lambda_p * d)
    rep = verify_decay(exact, d, small_cert)
    assert rep.check.n_exceed == 0
    assert rep.check.max_ratio == pytest.approx(1.0, rel=1e-12)
    bad = exact.copy()
    bad[2, 3] *= 1.5
    rep2 = verify_decay(bad, d, small_cert)
    assert rep2.check.n_exceed == 1
    assert rep2.check.max_ratio == pytest.approx(1.5, rel=1e-12)


def test_verify_decay_scale_and_fit(small_cert):
    d = np.linspace(0.0, 12.0, 30)[None, :].repeat(2, axis=0)
    entries = 0.7 * np.exp(-0.9 * d)
    rep = verify_decay(entries / (0.7 / small_cert.a_p), d, small_cert)
    # entries over 0.7 / a_p against a_p e^{-lambda_p d}: the bound 0.7 e^{-lambda_p d}
    # on the entries, and the data decay faster
    assert rep.check.n_exceed == 0
    assert rep.fitted_rate == pytest.approx(0.9, abs=1e-6)
    assert rep.fitted_rate >= small_cert.lambda_p


def test_decay_certificate_end_to_end():
    lp = LatticeParams(SQRT_PI, SQRT_PI, 12.0)
    w = build_window(lp)
    lam = localization_rate(MP)
    for p in (1, 2):
        cert = neumann_certificate(w.params, lam=lam, s_min=schur_lower_bound(lp, MP),
                                   s_max=bessel_bound(lp, MP), p=p)
        el = s_inverse_power_elements(w, MP, p=p)
        d = w.distance_matrix()[np.ix_(el.sites, el.sites)]
        rep = verify_decay(np.abs(el.entries), d, cert)
        assert rep.check.n_exceed == 0
        assert rep.fitted_rate >= cert.lambda_p
