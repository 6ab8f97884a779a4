"""Hopping coefficients of the lowest-level window model and the infinite-lattice
coefficients of the level Hamiltonian."""

import math

import numpy as np
import pytest

from latframe.lattice import LatticeParams, build_window
from latframe.magnetic import MagneticParams, window_coords
from latframe.quadratic import FrameAnalysisError, hopping_coeffs, landau_coefficients
from latframe.frame_analysis import PSEUDO_INVERSE_RTOL, dual_coefficients

MP = MagneticParams(ell_b=1.0)
SQRT_PI = math.sqrt(math.pi)


def lll_window(radius=8.0):
    return build_window(LatticeParams(SQRT_PI, SQRT_PI, radius))


def two_level_window(radius=4.0):
    return build_window(LatticeParams(SQRT_PI, SQRT_PI, radius, level_max=1))


def test_zero_operator_gives_zero_hopping():
    w = lll_window()
    trunc, _ = window_coords(w, MP)
    t = hopping_coeffs(np.zeros((trunc + 1, trunc + 1), dtype=complex), w, MP)
    assert t.shape == (len(w.sites), len(w.sites))
    assert np.all(t == 0)


def test_projector_hopping_matches_inverse_square():
    # H = lowest-level projector: t = <chi, S_W^+2 chi'> elementwise, with the
    # window frame operator S_W pseudo-inverted independently
    w = lll_window()
    trunc, rows = window_coords(w, MP)
    t = hopping_coeffs(np.eye(trunc + 1), w, MP)
    s_plus = np.linalg.pinv(rows.T @ rows.conj(), rcond=PSEUDO_INVERSE_RTOL, hermitian=True)
    expected = rows.conj() @ s_plus @ s_plus @ rows.T
    # the elements grow by about 1e3 per power on this window
    assert np.max(np.abs(t - expected)) < 1e-12 * float(np.max(np.abs(expected)))
    assert np.allclose(t, t.conj().T, atol=1e-10)


def test_hopping_level_blocks_match_dual_sandwich(rng):
    # a generic Hermitian lowest-level block: t = conj(D) h D^T with the dual
    # rows D = rows S_W^+ from an independent pseudo-inverse
    w = lll_window(radius=4.0)
    trunc, rows = window_coords(w, MP)
    m = trunc + 1
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    h = a + a.conj().T
    t = hopping_coeffs(h, w, MP)
    s_plus = np.linalg.pinv(rows.T @ rows.conj(), rcond=PSEUDO_INVERSE_RTOL, hermitian=True)
    dual = rows @ s_plus.T
    expected = dual.conj() @ h @ dual.T
    scale = float(np.max(np.abs(expected)))
    assert scale > 0
    assert np.max(np.abs(t - expected)) < 1e-12 * scale
    assert np.max(np.abs(t - t.conj().T)) < 1e-12 * scale


def test_hopping_coeffs_rejects_multi_level_windows():
    # the window route serves the lowest level alone, even where a level-1
    # block would make sense
    w = two_level_window()
    trunc, _ = window_coords(w, MP)
    with pytest.raises(FrameAnalysisError, match="level_max = 1"):
        hopping_coeffs(np.eye(trunc + 1), w, MP)


def test_hopping_trunc_mismatch_raises():
    w = lll_window()
    with pytest.raises(FrameAnalysisError, match="truncation"):
        hopping_coeffs(np.eye(11), w, MP)


def test_hopping_coeffs_rejects_bad_block_shapes():
    w = lll_window()
    trunc, _ = window_coords(w, MP)
    m = trunc + 1
    with pytest.raises(FrameAnalysisError, match=r"block must be \(M\+1, M\+1\)"):
        hopping_coeffs(np.zeros((1, m, m), dtype=complex), w, MP)  # a stack of level blocks
    with pytest.raises(FrameAnalysisError, match=r"block must be \(M\+1, M\+1\)"):
        hopping_coeffs(np.zeros((m, m + 1), dtype=complex), w, MP)


def _overlaps(x, y):
    """Closed-form <chi_x, chi_y> for point sets x (n, 2), y (m, 2), ell = 1."""
    wedge = x[:, None, 0] * y[None, :, 1] - x[:, None, 1] * y[None, :, 0]
    d2 = np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=-1)
    return np.exp(0.5j * wedge - d2 / 4.0)


def test_landau_coefficients_match_blockwise_route():
    # per level, q(r) <chi_g, S^-2 chi_g'> = q(r) <v_g, v_g'> with the duals
    # v_g = S^-1 chi_g = sum_mu c_mu(g) chi_(g + mu) written out as a double sum
    w = two_level_window()
    mp = MagneticParams(ell_b=1.0, eps_b=0.7)
    dual = dual_coefficients(w.params, mp, 1)
    mu = np.stack(np.meshgrid(dual.mu1, dual.mu2, indexing="ij"), axis=-1).reshape(-1, 2)
    c = dual.coeffs[0].ravel()
    for r in (0, 1):
        level_r = landau_coefficients(r, w, mp)
        t_r, c_r = level_r.entries, level_r.c
        g = w.gxy[w.levels == r]
        assert t_r.shape == (len(g), len(g)) and isinstance(c_r, float)
        # c_mu(g) = exp(-i g ^ mu / 2) c_mu, the patch translated to g
        duals = [(np.exp(-0.5j * (gk[0] * mu[:, 1] - gk[1] * mu[:, 0])) * c, gk + mu) for gk in g]
        expected = np.array([[ca.conj() @ _overlaps(pa, pb) @ cb for cb, pb in duals]
                             for ca, pa in duals])
        assert np.max(np.abs(t_r - 0.7 * (r + 0.5) * expected)) < 1e-12
        # <chi_g, S^-1 chi_g> = <chi_g, v_g> is the same on every site
        c_sites = np.array([(_overlaps(gk[None], pa) @ ca)[0] for gk, (ca, pa) in zip(g, duals)])
        assert np.max(np.abs(c_sites - c_r)) < 1e-12 and c_r > 0


def test_landau_q_factor_exact():
    # t_r scales exactly as eps_b (r + 1/2); the spatial factor cancels
    w = two_level_window()
    base = landau_coefficients(0, w, MagneticParams(1.0, eps_b=1.0)).entries
    for eps_b in (0.5, 1.0, 2.0):
        mp = MagneticParams(ell_b=1.0, eps_b=eps_b)
        for r in (0, 1):
            t_r = landau_coefficients(r, w, mp).entries
            factor = eps_b * (r + 0.5) / 0.5
            assert np.array_equal(t_r, factor * base) or np.max(
                np.abs(t_r - factor * base)
            ) < 1e-14
