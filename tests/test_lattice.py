"""Label geometry: windows, the additive metric, summability constants."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from latframe.lattice import (
    LatticeError,
    LatticeParams,
    Site,
    _inside,
    build_chain,
    build_window,
    m_epsilon,
    window_from_triples,
)
from oracles import distance, m_epsilon_window


@pytest.mark.parametrize("r", [1, 2, 3, 5])
def test_unit_ball_site_count(r):
    w = build_window(LatticeParams(1.0, 1.0, float(r)))
    # independent enumeration of |i| + |j| <= r on the unit lattice
    brute = sum(
        1
        for i in range(-r - 2, r + 3)
        for j in range(-r - 2, r + 3)
        if abs(i) + abs(j) <= r
    )
    assert len(w.sites) == brute == 1 + 2 * r * (r + 1)


def test_radius_is_measured_in_the_label_metric():
    # one lattice step costs alpha_star * alpha = 4 here
    assert len(build_window(LatticeParams(2.0, 2.0, 4.0)).sites) == 5
    assert len(build_window(LatticeParams(2.0, 2.0, 3.9)).sites) == 1


def test_anisotropic_ball_uses_alpha_star():
    lp = LatticeParams(1.0, 3.0, 3.0)
    assert lp.alpha_star == 1.0
    # |i| + 3|j| <= 3: seven sites on the i-axis, two on the j-axis
    assert len(build_window(lp).sites) == 9


@pytest.mark.parametrize("alpha, beta", [
    (math.sqrt(2.0), math.sqrt(2.0)), (0.6, 0.6), (0.7, 1.1), (1.3, 0.9), (math.sqrt(math.pi), 2.5),
    (0.3, 0.3 * math.sqrt(3.0))])
def test_window_holds_every_site_its_rule_admits(alpha, beta):
    # radii on whole lattice steps put sites on the rim, where _inside admits
    # them up to a rounding past the radius
    a_star = min(alpha, beta)
    for k in range(1, 9):
        for radius in (k * a_star * alpha, k * a_star * beta):
            lp = LatticeParams(alpha, beta, radius)
            pad = int(radius / (a_star * a_star)) + 2
            rule = {(i, j) for i in range(-pad, pad + 1) for j in range(-pad, pad + 1)
                    if _inside(lp, i, j)}
            assert {(s.i, s.j) for s in build_window(lp).sites} == rule, (k, radius)


def test_levels_multiply_the_site_count():
    lp0 = LatticeParams(1.0, 1.0, 2.0)
    lp1 = LatticeParams(1.0, 1.0, 2.0, level_max=1)
    assert len(build_window(lp1).sites) == 2 * len(build_window(lp0).sites)


def test_sites_sorted_and_deduplicated():
    lp = LatticeParams(1.0, 1.0, 6.0)
    w = window_from_triples(lp, [(0, 1, 0), (0, -1, 2), (0, 0, 0), (0, 1, 0)])
    assert [s.triple() for s in w.sites] == [(0, -1, 2), (0, 0, 0), (0, 1, 0)]


def test_distance_hand_values():
    lp = LatticeParams(2.0, 2.0, 40.0, level_max=1)
    a, b = Site(0, 0, 0), Site(0, 1, 0)
    assert distance(a, b, lp) == pytest.approx(4.0, abs=1e-14)
    assert distance(Site(1, 0, 0), b, lp) == pytest.approx(5.0, abs=1e-14)
    assert distance(a, a, lp) == 0.0
    _assert_matrix_matches_oracle(window_from_triples(lp, [(0, 0, 0), (0, 1, 0), (1, 0, 0)]))


def _assert_matrix_matches_oracle(w):
    """Window.distance_matrix entry by entry against the one-pair oracle."""
    d = w.distance_matrix()
    for a, p in enumerate(w.sites):
        for b, q in enumerate(w.sites):
            assert d[a, b] == pytest.approx(distance(p, q, w.params), abs=1e-12)


@given(
    st.tuples(st.integers(0, 1), st.integers(-6, 6), st.integers(-6, 6)),
    st.tuples(st.integers(0, 1), st.integers(-6, 6), st.integers(-6, 6)),
    st.tuples(st.integers(0, 1), st.integers(-6, 6), st.integers(-6, 6)),
)
def test_distance_is_a_metric(t1, t2, t3):
    lp = LatticeParams(0.7, 1.3, 50.0, level_max=1)
    p, q, s = (Site(*t) for t in (t1, t2, t3))
    dpq = distance(p, q, lp)
    assert dpq == distance(q, p, lp)
    assert dpq >= 0.0
    if t1 != t2:
        assert dpq > 0.0
    else:
        assert dpq == 0.0
    assert dpq <= distance(p, s, lp) + distance(s, q, lp) + 1e-12
    _assert_matrix_matches_oracle(window_from_triples(lp, [t1, t2, t3]))


def test_chain_layout_and_center():
    lp = LatticeParams(1.0, 1.0, 20.0)
    for length in (4, 5, 6, 8):
        w = build_chain(lp, length)
        assert len(w.sites) == length
        assert all(s.j == 0 and s.r == 0 for s in w.sites)
        assert w.sites[w.center_index()].triple() == (0, 0, 0)
    c4, c6, c8 = (build_chain(lp, n) for n in (4, 6, 8))
    assert c4.is_subwindow_of(c6) and c6.is_subwindow_of(c8)
    assert not c8.is_subwindow_of(c4)


def test_chain_length_alone_sets_the_chain():
    # a radius too small for the chain is widened to the farthest site's reach
    # (4 alpha_star alpha = 4 here); one that holds it is kept
    short = build_chain(LatticeParams(1.0, 1.0, 2.0), 8)
    held = build_chain(LatticeParams(1.0, 1.0, 20.0), 8)
    assert short.sites == held.sites
    assert short.params == LatticeParams(1.0, 1.0, 4.0)
    assert held.params == LatticeParams(1.0, 1.0, 20.0)
    assert build_chain(LatticeParams(1.0, 1.0, 4.0), 8).params.radius == 4.0
    assert len(build_chain(LatticeParams(2.0, 3.0, 1.0), 7).sites) == 7


def test_distance_block_comes_from_its_own_sites():
    # decay and landau tabulate one level's pairs of a two-level window: the
    # block equals the whole matrix's, bit for bit, and its temporaries are
    # the block's size (the whole matrix alone is four times the block)
    w = build_window(LatticeParams(0.5, 0.5, 3.0, level_max=1))
    whole = w.distance_matrix()
    for sites in (np.nonzero(w.levels == 0)[0], np.nonzero(w.levels == 1)[0],
                  np.arange(0, len(w), 7)):
        assert w.distance_matrix(sites).tobytes() == whole[np.ix_(sites, sites)].tobytes()
    sites = np.nonzero(w.levels == 0)[0]
    assert len(sites) == len(w) // 2 == 313
    tracemalloc.start()
    try:
        w.distance_matrix(sites)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * len(sites) ** 2


def test_m_epsilon_one_dimensional_value():
    # interior row sum of exp(-|k|) over a long unit chain: 1 + 2/(e-1)
    w = build_chain(LatticeParams(1.0, 1.0, 100.0), 81)
    est, bound = m_epsilon_window(w, 1.0), m_epsilon(w.params, 1.0)
    assert est == pytest.approx(1.0 + 2.0 / (math.e - 1.0), abs=1e-12)
    assert bound >= est


@pytest.mark.parametrize(
    "alpha,beta,eps",
    [(1.0, 1.0, 0.5), (0.6, 1.4, 1.0), (2.8, 2.8, 0.3), (1.0, 1.0, 2.0)],
)
def test_m_epsilon_bound_dominates(alpha, beta, eps):
    a_star = min(alpha, beta)
    lp = LatticeParams(alpha, beta, 8.0 * a_star * alpha)
    est, bound = m_epsilon_window(build_window(lp), eps), m_epsilon(lp, eps)
    assert bound >= est > 1.0


def test_m_epsilon_level_factor_and_validation():
    lp0 = LatticeParams(1.0, 1.0, 3.0)
    lp1 = LatticeParams(1.0, 1.0, 3.0, level_max=1)
    b0 = m_epsilon(lp0, 1.0)
    b1 = m_epsilon(lp1, 1.0)
    factor = (1.0 + math.exp(-1.0)) / (1.0 - math.exp(-1.0))
    assert b1 == pytest.approx(b0 * factor, rel=1e-12)
    with pytest.raises(LatticeError):
        m_epsilon(lp0, 0.0)


def test_window_from_triples_validation():
    lp = LatticeParams(1.0, 1.0, 2.0)
    with pytest.raises(LatticeError):
        window_from_triples(lp, [(0, 3, 0)])  # outside the radius
    with pytest.raises(LatticeError):
        window_from_triples(lp, [(1, 0, 0)])  # above level_max


def test_content_hash_identity_and_sensitivity():
    lp = LatticeParams(1.0, 1.0, 3.0)
    w1, w2 = build_window(lp), build_window(lp)
    assert w1.content_hash() == w2.content_hash()
    assert len(w1.content_hash()) == 16
    w3 = build_window(LatticeParams(1.0, 1.0, 4.0))
    assert w3.content_hash() != w1.content_hash()


def test_content_hash_pinned_digest():
    # the window_hash that gram, bounds and decay write for the default
    # radius-12 sqrt(pi) lattice: hashlib is imported on first use, and the
    # digest must not move with it
    w = build_window(LatticeParams(math.sqrt(math.pi), math.sqrt(math.pi), 12.0))
    assert len(w) == 25
    assert w.content_hash() == "d0258109fd397e54"


def test_params_validation():
    with pytest.raises(LatticeError):
        LatticeParams(0.0, 1.0, 3.0)
    with pytest.raises(LatticeError):
        LatticeParams(1.0, 1.0, -1.0)
    with pytest.raises(LatticeError):
        LatticeParams(1.0, 1.0, 3.0, level_max=-1)
