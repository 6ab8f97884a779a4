"""Fock-space machinery: mode maps, Hamiltonians, dynamics, quasi-free states."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm, svdvals

from latframe.frame_analysis import OVERLAP_CONSTANT
from latframe.lattice import LatticeParams, build_chain, window_from_triples
from latframe.magnetic import MagneticParams, overlap_matrix, window_coords
from latframe.interactions import (
    Interaction,
    c_phi,
    density_density,
    lr_velocity,
)
import latframe.fock
from latframe.fock import (
    Evolution,
    FockError,
    anticommutator_norm,
    build_interaction_hamiltonian,
    build_quadratic_hamiltonian,
    jw_lowering,
    lr_check,
    lr_envelope,
    mode_basis,
    mode_operators,
    monomial_operator,
    operator_norm,
    volume_convergence,
)
from oracles import quasifree_expectation

MP = MagneticParams(ell_b=1.0)


def far_params(radius=900.0):
    # spacing 20 makes cross overlaps e^{-100}: modes are site-aligned
    return LatticeParams(20.0, 20.0, radius)


def _sector_states(rank):
    """Basis indices of each number sector, ascending: the popcount of the index."""
    count = np.array([bin(s).count("1") for s in range(1 << rank)])
    return [np.flatnonzero(count == n) for n in range(rank + 1)]


def _embed(blocks, rank, lowering=False):
    """The whole-space matrix of sector blocks: diagonal blocks, or blocks from
    sector N + 1 to N when lowering."""
    states = _sector_states(rank)
    out = np.zeros((1 << rank, 1 << rank), dtype=np.complex128)
    for n, b in enumerate(blocks):
        out[np.ix_(states[n], states[n + 1 if lowering else n])] = b
    return out


def _whole_space_ops(basis):
    """a_g = sum_k V[g, k] c_k on the whole space, from jw_lowering."""
    cs = jw_lowering(basis.rank)
    return [sum(basis.v[g, k] * cs[k] for k in range(basis.rank)) for g in range(basis.n_sites)]


def _density_word(p, q):
    """The word n_p n_q = a*_p a_p a*_q a_q as (site, dagger) factors."""
    return ((p, True), (p, False), (q, True), (q, False))


def _kept(inter, support_within):
    """The pairs p < q of the terms inside support_within (all without it)."""
    return [(p, q) for p, q in zip(*inter.pairs())
            if support_within is None or {p, q} <= support_within]


def _whole_space_h(basis, inter, support_within=None):
    """sum f (M + M*) over the kept terms, one monomial_operator per term."""
    ops = _whole_space_ops(basis)
    h = np.zeros((basis.dim, basis.dim), dtype=np.complex128)
    for p, q in _kept(inter, support_within):
        m = monomial_operator(_density_word(p, q), ops)
        h += inter.coupling[p, q] * (m + m.conj().T)
    return h


# -------------------------------------------------------------------- basis

def test_mode_basis_chain():
    w = build_chain(LatticeParams(1.0, 1.0, 10.0), 3)
    basis = mode_basis(w, MP)
    assert basis.rank == 3
    assert basis.dim == 8
    assert basis.n_sites == 3
    z = overlap_matrix(w, MP)
    assert np.allclose(basis.z, z)
    assert np.max(np.abs(basis.v @ basis.v.conj().T - z)) < 1e-12


def test_mode_basis_rank_cap():
    w = build_chain(LatticeParams(1.0, 1.0, 30.0), 15)
    with pytest.raises(FockError):
        mode_basis(w, MP)


# ------------------------------------------------------------- Jordan-Wigner

def test_jw_lowering_matches_kron_oracle():
    low = np.array([[0.0, 1.0], [0.0, 0.0]])
    zph = np.diag([1.0, -1.0])
    eye = np.eye(2)
    expect = [
        np.kron(np.kron(low, eye), eye),
        np.kron(np.kron(zph, low), eye),
        np.kron(np.kron(zph, zph), low),
    ]
    got = jw_lowering(3)
    for a, b in zip(got, expect):
        assert np.array_equal(a, b)


def test_jw_lowering_car():
    cs = jw_lowering(4)
    eye = np.eye(16)
    for i in range(4):
        for j in range(4):
            anti = cs[i] @ cs[j] + cs[j] @ cs[i]
            assert np.max(np.abs(anti)) < 1e-15
            mixed = cs[i] @ cs[j].conj().T + cs[j].conj().T @ cs[i]
            target = eye if i == j else np.zeros_like(eye)
            assert np.max(np.abs(mixed - target)) < 1e-15


def test_mode_operators_reproduce_overlaps():
    # two sites whose labels are not collinear, so the overlap carries a phase
    w = window_from_triples(LatticeParams(1.0, 1.0, 4.0), [(0, 1, 0), (0, 0, 1)])
    basis = mode_basis(w, MP)
    z = basis.z
    assert abs(z[0, 1].imag) > 0.01  # the phase is actually exercised
    ops = [_embed(a, basis.rank, lowering=True) for a in mode_operators(basis)]
    eye = np.eye(basis.dim)
    for p in range(2):
        for q in range(2):
            mixed = ops[p] @ ops[q].conj().T + ops[q].conj().T @ ops[p]
            assert np.max(np.abs(mixed - z[p, q] * eye)) < 1e-12
            plain = ops[p] @ ops[q] + ops[q] @ ops[p]
            assert np.max(np.abs(plain)) < 1e-12


def test_monomial_operator_composition():
    w = build_chain(LatticeParams(1.0, 1.0, 10.0), 2)
    basis = mode_basis(w, MP)
    ops = _whole_space_ops(basis)
    num = monomial_operator(((0, True), (0, False)), ops)
    a0 = ops[0]
    assert np.allclose(num, a0.conj().T @ a0)
    # reversed order obeys the anticommutation rule a a* = Z00 - a* a
    rev = monomial_operator(((0, False), (0, True)), ops)
    z00 = basis.z[0, 0]
    assert np.max(np.abs(rev - (z00 * np.eye(basis.dim) - num))) < 1e-12


# -------------------------------------------------------------- Hamiltonians

def test_interaction_hamiltonian_pair_eigenstates():
    w = build_chain(far_params(), 2)
    basis = mode_basis(w, MP)
    ops = _whole_space_ops(basis)
    c = 0.35
    inter = Interaction(window=w, coupling=np.array([[0.0, c], [c, 0.0]]))
    h = _embed(build_interaction_hamiltonian(basis, inter), basis.rank)
    vac = np.zeros(basis.dim)
    vac[0] = 1.0
    one = ops[1].conj().T @ vac
    both = ops[0].conj().T @ one
    assert np.max(np.abs(h @ vac)) < 1e-12
    assert np.max(np.abs(h @ one)) < 1e-12
    # doubly occupied state picks up coupling * (M + M*) = 2c
    assert np.max(np.abs(h @ both - 2 * c * both)) < 1e-10


def test_quadratic_hamiltonian_subset_sums():
    w = build_chain(far_params(), 3)
    basis = mode_basis(w, MP)
    t = np.diag([1.0, 2.5, 4.25])
    h = build_quadratic_hamiltonian(basis, t)
    eigs = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in h]))
    sums = sorted(
        sum(combo)
        for size in range(4)
        for combo in itertools.combinations([1.0, 2.5, 4.25], size)
    )
    assert np.allclose(eigs, sums, atol=1e-9)


def test_quadratic_hamiltonian_validation():
    w = build_chain(far_params(), 2)
    basis = mode_basis(w, MP)
    with pytest.raises(FockError):
        build_quadratic_hamiltonian(basis, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(FockError):
        build_quadratic_hamiltonian(basis, np.eye(3))


# ------------------------------------------------------------------ dynamics

def test_evolution_group_law(rng):
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = m + m.conj().T
    ev = Evolution([h])
    assert np.allclose(ev.propagator(0.0)[0], np.eye(6), atol=1e-14)
    [u1], [u2], [u12] = ev.propagator(0.3), ev.propagator(0.45), ev.propagator(0.75)
    assert np.max(np.abs(u12 - u1 @ u2)) < 1e-10
    assert np.max(np.abs(u1 @ u1.conj().T - np.eye(6))) < 1e-12
    # generator is a fixed point of its own flow
    [u] = ev.propagator(0.7)
    assert np.max(np.abs(u @ h @ u.conj().T - h)) < 1e-10


def test_evolution_rejects_non_hermitian():
    with pytest.raises(FockError):
        Evolution([np.eye(1), np.array([[0.0, 1.0], [0.0, 0.0]])])


def test_operator_norms(rng):
    a = rng.normal(size=(7, 5))
    assert operator_norm(a) == pytest.approx(svdvals(a)[0], rel=1e-12)
    assert operator_norm(np.zeros((0, 3))) == 0.0
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    assert anticommutator_norm(sx, sy) < 1e-14
    assert anticommutator_norm(sx, sx) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("shape", [(6, 6), (15, 20), (20, 15), (1, 6)])
def test_operator_norm_is_numpy_spectral_norm_bit_for_bit(rng, shape):
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    assert operator_norm(a) == float(np.linalg.norm(a, 2))


# ----------------------------------------------------------- light-cone check

def test_lr_check_static_dynamics():
    w = build_chain(LatticeParams(1.0, 1.0, 10.0), 4)
    basis = mode_basis(w, MP)
    t_grid = np.linspace(0.0, 1.0, 3)
    rep = lr_check(basis, density_density(w, 0.0, 1.0), t_grid, zeta=0.125, velocity=1.0)
    assert rep.passed
    assert rep.n_exceed == 0
    assert len(rep.pairs) == 16
    d = w.distance_matrix()
    for ip, (i, j) in enumerate(rep.pairs):
        expect = abs(basis.z[i, j])
        for it in range(len(t_grid)):
            assert rep.f_table[it, ip].max() == pytest.approx(expect, abs=1e-10)
            want = math.exp(-0.125 * (d[i, j] - 1.0 * t_grid[it]))
            assert rep.bounds[it, ip] == pytest.approx(want, rel=1e-12)


def test_lr_check_validation():
    w = build_chain(LatticeParams(1.0, 1.0, 10.0), 2)
    basis = mode_basis(w, MP)
    inter = density_density(w, 0.0, 1.0)
    with pytest.raises(FockError):
        lr_check(basis, inter, [0.0], zeta=0.0, velocity=1.0)


# ------------------------------------------------------------- volume limits

@pytest.fixture(scope="module")
def chain4_setup():
    w = build_chain(LatticeParams(1.0, 1.0, 10.0), 4)
    basis = mode_basis(w, MP)
    inter = density_density(w, f0=1.0, mu=1.0)
    return w, basis, inter


def test_volume_convergence_full_inner_is_exact(chain4_setup):
    w, basis, inter = chain4_setup
    all_sites = frozenset(range(4))
    [rep] = volume_convergence(basis, inter, [all_sites], w.center_index(),
                               [0.0, 0.5], zeta=0.125, velocity=2.0)
    assert rep.boundary_sum == 0.0
    assert np.allclose(rep.diffs, 0.0, atol=1e-12)
    assert rep.passed


def test_volume_convergence_boundary_envelope(chain4_setup):
    w, basis, inter = chain4_setup
    zeta, xi = 0.125, 0.25
    vel = lr_velocity(c_phi(inter, zeta, xi).value, zeta)
    inner = frozenset({0, 1, 2})
    site = w.center_index()
    t_grid = np.array([0.0, 0.05, 0.1])
    [rep] = volume_convergence(basis, inter, [inner], site, t_grid, zeta, vel)
    assert rep.diffs[0] < 1e-12  # nothing moves at t = 0
    assert rep.diffs[-1] > 1e-6  # the truncated generator genuinely differs
    d = w.distance_matrix()
    boundary = sum(
        2 * inter.coupling[p, q] * math.exp(-zeta * min(d[site, p], d[site, q]))
        for p, q in zip(*inter.pairs())
        if not {p, q} <= inner
    )
    assert rep.boundary_sum == pytest.approx(boundary, rel=1e-12)
    for it, t in enumerate(t_grid):
        want = 2.0 * OVERLAP_CONSTANT * (math.exp(zeta * vel * t) - 1.0) * boundary
        assert rep.bounds[it] == pytest.approx(want, rel=1e-12)
    assert rep.passed


# ------------------------------------------------- sector engine vs dense oracle

_FLAVORS = ((False, False), (False, True), (True, False), (True, True))


def _six_modes(kind):
    params = LatticeParams(1.0, 1.0, 10.0)
    if kind == "chain":
        w = build_chain(params, 6)
    else:
        w = window_from_triples(params, [(0, i, j) for i in range(3) for j in range(2)])
        assert np.max(np.abs(overlap_matrix(w, MP).imag)) > 0.1
    basis = mode_basis(w, MP)
    assert basis.rank == 6
    return w, basis, density_density(w, f0=1.0, mu=1.0)


@pytest.fixture(scope="module", params=["chain", "patch"])
def six_modes(request):
    """A 6-site chain, and a 3 x 2 patch whose overlaps carry phases: there H is
    not real and the fronts at t and -t differ (on a straight chain they coincide)."""
    return _six_modes(request.param)


def _dense_evolved(h, a, t):
    u = expm(1j * t * h)
    return u @ a @ u.conj().T


def _dense_f_table(basis, h, t_grid):
    """All four flavors of ||{tau_t(a#_i), a#_j}|| on whole-space matrices, e^{itH} by expm."""
    ops = _whole_space_ops(basis)
    n = basis.n_sites
    out = np.zeros((len(t_grid), n * n, 4))
    for it, t in enumerate(t_grid):
        moved = [_dense_evolved(h, a, t) for a in ops]
        for i in range(n):
            for j in range(n):
                for ifl, (dag_mov, dag_stat) in enumerate(_FLAVORS):
                    x = moved[i].conj().T if dag_mov else moved[i]
                    y = ops[j].conj().T if dag_stat else ops[j]
                    out[it, i * n + j, ifl] = anticommutator_norm(x, y)
    return out


def test_lr_check_sectors_match_dense_oracle(six_modes):
    w, basis, inter = six_modes
    t_grid = np.array([0.0, 0.35, 1.1])
    rep = lr_check(basis, inter, t_grid, zeta=0.125, velocity=1.0)
    oracle = _dense_f_table(basis, _whole_space_h(basis, inter), t_grid)
    assert np.max(np.abs(rep.f_table - oracle)) < 1e-12
    # the dynamics genuinely moves the fronts
    assert np.max(np.abs(rep.f_table[-1] - rep.f_table[0])) > 1e-2


def test_real_arithmetic_follows_the_overlap_phases(six_modes):
    """A chain's overlaps carry no phase: V, the Hamiltonian blocks and the
    eigenbases are float64.  The patch keeps complex arithmetic."""
    w, basis, inter = six_modes
    real = not np.any(overlap_matrix(w, MP).imag)
    assert real == (w.gxy[:, 1] == 0.0).all()
    want = np.float64 if real else np.complex128
    assert basis.v.dtype == want
    h = build_interaction_hamiltonian(basis, inter)
    assert {b.dtype for b in h} == {np.dtype(want)}
    assert {u.dtype for u in Evolution(h).eigvecs} == {np.dtype(want)}
    assert {b.dtype for b in mode_operators(basis)[0]} == {np.dtype(want)}


def _count_norms(monkeypatch):
    calls = []
    real_norm = latframe.fock.operator_norm
    monkeypatch.setattr(latframe.fock, "operator_norm", lambda a: calls.append(1) or real_norm(a))
    return calls


def test_lr_check_computes_each_unordered_pair_once_on_real_input(six_modes, monkeypatch):
    w, basis, inter = six_modes
    calls = _count_norms(monkeypatch)
    t_grid = np.array([0.0, 0.35, 1.1])
    lr_check(basis, inter, t_grid, zeta=0.125, velocity=1.0)
    # per pair and time t != 0: 5 plain blocks, the 2 edge and 5 inner mixed
    # blocks; the straight chain's 12 orbits under the pair swap and the site
    # reversal (i <= j < 6 - i), the patch's 36 ordered pairs
    pairs = 12 if (w.gxy[:, 1] == 0.0).all() else 36
    assert len(calls) == pairs * np.count_nonzero(t_grid) * 12


def _count_heisenberg(monkeypatch):
    calls = []
    real_step = Evolution.heisenberg
    monkeypatch.setattr(Evolution, "heisenberg",
                        lambda self, a, t: calls.append(t) or real_step(self, a, t))
    return calls


def test_t0_rows_come_from_the_car(six_modes, monkeypatch):
    """At t = 0 nothing has moved: lr_check's plain columns are exactly 0 and
    its mixed columns |V V*|, volume_convergence's difference is exactly 0,
    and neither takes a Heisenberg step or a norm there."""
    w, basis, inter = six_modes
    norms, steps = _count_norms(monkeypatch), _count_heisenberg(monkeypatch)
    rep = lr_check(basis, inter, [0.0], zeta=0.125, velocity=1.0)
    [conv] = volume_convergence(basis, inter, [frozenset({2, 3})], w.center_index(), [0.0],
                                zeta=0.125, velocity=1.0)
    assert norms == [] and steps == []
    f0 = rep.f_table[0]
    assert np.all(f0[:, [0, 3]] == 0.0)
    car = np.abs(basis.v @ basis.v.conj().T).ravel()
    assert np.max(np.abs(f0[:, [1, 2]] - car[:, None])) <= 1e-15
    assert conv.diffs.tolist() == [0.0]
    # a grid with moving times norms those times only
    t_grid = np.array([0.0, 0.35])
    moved = lr_check(basis, inter, t_grid, zeta=0.125, velocity=1.0)
    assert steps and 0.0 not in steps
    assert np.array_equal(moved.f_table[0], f0)


def test_v_crit_is_the_least_covering_speed():
    """v_crit from the whole-space oracle on the six-mode chain: the envelope
    at v_crit covers F on every cell past t = 0 and meets it at the reported
    cell."""
    w, basis, inter = _six_modes("chain")
    t_grid = np.array([0.0, 0.35, 1.1])
    zeta, g, velocity = 0.125, OVERLAP_CONSTANT, 40.0
    rep = lr_check(basis, inter, t_grid, zeta=zeta, velocity=velocity)
    f = _dense_f_table(basis, _whole_space_h(basis, inter), t_grid).max(axis=2)
    d = w.distance_matrix().ravel()
    later = t_grid > 0
    speeds = (d[None, :] + np.log(f[later] / g) / zeta) / t_grid[later, None]
    v_crit = float(speeds.max())
    assert v_crit > 0
    assert rep.v_crit == pytest.approx(v_crit, rel=1e-12)
    envelope = g * np.exp(-zeta * (d[None, :] - rep.v_crit * t_grid[later, None]))
    assert np.all(envelope >= f[later] * (1.0 - 1e-12))
    t, i, j = rep.v_crit_cell
    it, ip = list(t_grid).index(t), i * len(w) + j
    assert t > 0
    assert g * math.exp(-zeta * (d[ip] - rep.v_crit * t)) == pytest.approx(f[it, ip], rel=1e-12)
    assert rep.v_cert_over_v_crit == pytest.approx(velocity / v_crit, rel=1e-12)


def test_v_crit_off_diagonal_and_t_sat_from_f_table():
    """v_crit_off_diagonal is v_crit's maximum over the cells at d > 0, here
    recomputed cell by cell from the report's own f_table; t_sat is the time
    at which the bound at the largest distance reaches 2."""
    w, basis, inter = _six_modes("chain")
    t_grid = np.array([0.0, 0.35, 1.1])
    zeta, g, velocity = 0.125, OVERLAP_CONSTANT, 40.0
    rep = lr_check(basis, inter, t_grid, zeta=zeta, velocity=velocity)
    d = w.distance_matrix()
    best = None
    for it, t in enumerate(t_grid):
        for ip, (i, j) in enumerate(rep.pairs):
            f = rep.f_table[it, ip].max()
            if t > 0 and d[i, j] > 0 and f > 0:
                speed = (d[i, j] + math.log(f / g) / zeta) / t
                best = speed if best is None else max(best, speed)
    assert rep.v_crit_off_diagonal == best
    assert rep.v_crit_off_diagonal <= rep.v_crit
    assert rep.t_sat == pytest.approx((d.max() + math.log(2.0 / g) / zeta) / velocity, rel=1e-15)
    assert lr_envelope(zeta, velocity, d.max(), rep.t_sat) == pytest.approx(2.0, rel=1e-12)
    # a grid without a moving cell has no off-diagonal speed; no speed, no t_sat
    rep = lr_check(basis, inter, [0.0], zeta=zeta, velocity=0.0)
    assert (rep.v_crit_off_diagonal, rep.t_sat) == (None, None)


def test_v_crit_without_a_moving_cell():
    """With H = 0 nothing moves: the diagonal cells read F = Z_gg = G = 1 at
    every time, so their speed is 0, and every off-diagonal cell's is
    negative.  v_crit = 0, the static envelope G e^(-zeta d) already covers
    every cell and the ratio is None.  A grid with only t = 0 has no cell to
    take v_crit from."""
    w = build_chain(LatticeParams(1.0, 1.0, 10.0), 4)
    basis = mode_basis(w, MP)
    static = density_density(w, 0.0, 1.0)
    rep = lr_check(basis, static, [0.0, 0.5, 1.0], zeta=0.125, velocity=1.0)
    assert rep.v_crit == pytest.approx(0.0, abs=1e-12)
    assert rep.v_crit_cell is not None
    assert rep.v_cert_over_v_crit is None
    rep = lr_check(basis, static, [0.0], zeta=0.125, velocity=1.0)
    assert (rep.v_crit, rep.v_crit_cell, rep.v_cert_over_v_crit) == (None, None, None)


@pytest.mark.parametrize("scale", [1.0 - 4 * np.finfo(float).eps, 1.0 + 4 * np.finfo(float).eps],
                         ids=["below", "above"])
def test_v_crit_is_zero_whichever_way_the_norms_round(monkeypatch, scale):
    """With H = 0 the diagonal cells meet the static envelope up to rounding:
    norms a few ulp below or above must both give v_crit = 0 and no ratio,
    not a speed of either sign from the rounding alone."""
    w = build_chain(LatticeParams(1.0, 1.0, 10.0), 4)
    basis = mode_basis(w, MP)
    real_norm = latframe.fock.operator_norm
    monkeypatch.setattr(latframe.fock, "operator_norm", lambda a: scale * real_norm(a))
    rep = lr_check(basis, density_density(w, 0.0, 1.0), [0.0, 0.5, 1.0], zeta=0.125, velocity=1.0)
    assert rep.v_crit == 0.0
    assert rep.v_cert_over_v_crit is None


def _asymmetric_coupling():
    """The 6-site chain with the end pair's coupling doubled: the site reversal
    no longer fixes H."""
    w, basis, inter = _six_modes("chain")
    f = np.array(inter.coupling)
    f[0, 1] *= 2.0
    f[1, 0] *= 2.0
    return basis, Interaction(window=w, coupling=f)


def _sqrt_pi_chain():
    """A 6-site chain at spacing sqrt(pi), whose Z the reversal fixes only to
    round-off."""
    w = build_chain(LatticeParams(math.sqrt(math.pi), math.sqrt(math.pi), 12.0), 6)
    basis = mode_basis(w, MP)
    off = float(np.max(np.abs(basis.z - basis.z[::-1, ::-1])))
    assert 0.0 < off <= latframe.fock.SYMMETRY_RTOL
    return basis, density_density(w, f0=1.0, mu=1.0)


@pytest.mark.parametrize("case, pairs", [(_asymmetric_coupling, 21), (_sqrt_pi_chain, 12)],
                         ids=["asymmetric_coupling", "sqrt_pi_chain"])
def test_lr_check_reversal_follows_the_model(case, pairs, monkeypatch):
    """The reversal is taken only when the model has it, to a tolerance: an
    asymmetric coupling computes all 21 unordered pairs, a chain persymmetric
    to round-off the 12 orbits, and both match the whole-space oracle."""
    basis, inter = case()
    calls = _count_norms(monkeypatch)
    t_grid = np.array([0.0, 0.35, 1.1])
    rep = lr_check(basis, inter, t_grid, zeta=0.125, velocity=1.0)
    assert len(calls) == pairs * np.count_nonzero(t_grid) * 12
    oracle = _dense_f_table(basis, _whole_space_h(basis, inter), t_grid)
    assert np.max(np.abs(rep.f_table - oracle)) < 1e-12


def test_patch_fronts_are_not_symmetric_in_the_pair():
    """Off a straight chain H is not real, F(i, j, t) != F(j, i, t), and
    lr_check must compute both ordered pairs."""
    _, basis, inter = _six_modes("patch")
    t_grid = np.array([0.35, 1.1])
    f = lr_check(basis, inter, t_grid, zeta=0.125, velocity=1.0).f_table
    n = basis.n_sites
    table = f.reshape(len(t_grid), n, n, 4)
    assert np.max(np.abs(table - table.transpose(0, 2, 1, 3))) > 1e-3


def test_volume_convergence_sectors_match_dense_oracle(six_modes):
    w, basis, inter = six_modes
    site = w.center_index()
    inners = [frozenset({0, 1, 2, 3}), frozenset({2, 3})]
    t_grid = np.array([0.0, 0.3, 0.9])
    reports = volume_convergence(basis, inter, inners, site, t_grid,
                                 zeta=0.125, velocity=1.0)
    a = _whole_space_ops(basis)[site]
    h_full = _whole_space_h(basis, inter)
    for inner, rep in zip(inners, reports):
        h_small = _whole_space_h(basis, inter, support_within=inner)
        oracle = [operator_norm(_dense_evolved(h_full, a, t) - _dense_evolved(h_small, a, t))
                  for t in t_grid]
        assert np.max(np.abs(rep.diffs - oracle)) < 1e-12
        assert rep.diffs[-1] > 1e-3


def _ten_site_convergence():
    """The 10-site unit chain (C(10, 5) = 252 states in the middle sector) under
    volume_convergence with inner chains 6 and 8 at times 0, 0.1 and 0.2:
    tracemalloc's peak over the call and, in bytes, one eigenbasis' blocks,
    the annihilator's blocks and one complex block of the middle sector."""
    lp = LatticeParams(1.0, 1.0, 10.0)
    w = build_chain(lp, 10)
    basis = mode_basis(w, MP)
    inter = density_density(w, f0=1.0, mu=1.0)
    inners = [frozenset(w.index(s) for s in build_chain(lp, m).sites) for m in (6, 8)]
    sizes = [math.comb(basis.rank, k) for k in range(basis.rank + 1)]
    real = basis.v.dtype.itemsize
    eigvecs = sum(d * d for d in sizes) * real
    annihilator = sum(p * q for p, q in zip(sizes, sizes[1:])) * real
    middle = max(sizes) ** 2 * 16  # one complex block of the middle sector
    tracemalloc.start()
    try:
        reports = volume_convergence(basis, inter, inners, w.center_index(), [0.0, 0.1, 0.2],
                                     zeta=0.125, velocity=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.rank == 10 and all(rep.diffs[-1] > 1e-3 for rep in reports)
    return peak, eigvecs, annihilator, middle


def test_volume_convergence_memory_is_one_sector_pair():
    """On the 10-site chain the sector loop holds the two eigenbases, the
    annihilator in the site basis and in the full eigenbasis, and a few
    blocks of one sector pair: the overlaps W_N, W_(N+1), the restricted
    block and one phased difference, or the scatter arrays of one Hamiltonian
    block while H is built."""
    peak, eigvecs, annihilator, middle = _ten_site_convergence()
    assert peak < 2 * eigvecs + 2 * annihilator + 8 * middle


def test_volume_convergence_holds_one_annihilator_block():
    """The same 10-site run stays below three eigenbases, one whole
    annihilator and three complex middle-sector blocks (8 826 016 bytes): the
    loop forms each block of a, in the site basis and in the full eigenbasis,
    only when it reaches that block.  Holding a in the full eigenbasis across
    the inner windows (1 343 680 bytes) breaks the bound."""
    peak, eigvecs, annihilator, middle = _ten_site_convergence()
    assert 3 * eigvecs + annihilator + 3 * middle == 8_826_016
    assert peak < 3 * eigvecs + annihilator + 3 * middle


def test_volume_convergence_multiplies_phased_blocks_in_real_arithmetic():
    """The same 10-site run stays below the two real eigenbases and five
    complex middle-sector blocks (8 036 416 bytes).  At its peak the loop holds
    the eigenbases and, of one sector pair, six real blocks, each at most half
    a complex middle block (the overlaps W_N and W_(N+1), a_N in both
    eigenbases, and the two real products W_N Re(P) and W_N Re(P) W_(N+1)*,
    or the same on Im(P)), and two complex ones (the full phased block, into
    which the difference is subtracted, and the restricted phased block P):
    2 x 1 478 048 + 5 x 1 016 064 bytes.  Multiplying P by the real overlaps
    as complex matrices copies each overlap to complex and adds two complex
    products, and breaks the bound (8 438 681 bytes traced that way)."""
    peak, eigvecs, _, middle = _ten_site_convergence()
    assert 2 * eigvecs + 5 * middle == 8_036_416
    assert peak < 2 * eigvecs + 5 * middle


def test_real_windows_match_the_complex_route():
    """On the 6-site chain, volume_convergence and lr_check give the same
    differences and fronts from the real basis as from the same basis cast to
    complex, where H, every eigenbasis and every product are complex: the
    phased blocks multiplied by real factors as two real products agree with
    complex products to round-off."""
    w, basis, inter = _six_modes("chain")
    assert np.isrealobj(basis.v)
    as_complex = dataclasses.replace(basis, v=basis.v.astype(np.complex128))
    t_grid = np.array([0.0, 0.35, 1.1])
    inners = [frozenset({0, 1, 2, 3}), frozenset({2, 3})]
    runs = [(volume_convergence(b, inter, inners, w.center_index(), t_grid,
                                zeta=0.125, velocity=1.0),
             lr_check(b, inter, t_grid, zeta=0.125, velocity=1.0)) for b in (basis, as_complex)]
    (real_conv, real_lr), (complex_conv, complex_lr) = runs
    for real, cplx in zip(real_conv, complex_conv):
        assert real.diffs[-1] > 1e-3
        assert np.max(np.abs(real.diffs - cplx.diffs)) < 1e-13
    assert np.max(real_lr.f_table) > 0.1
    assert np.max(np.abs(real_lr.f_table - complex_lr.f_table)) < 1e-13


# ------------------------------------------- sector assembly vs per-term oracles

def _random_couplings(inter):
    """A symmetric non-negative coupling matrix with no distance profile and
    some pairs switched off."""
    n = len(inter.window)
    f = np.triu(np.random.default_rng(7).uniform(0.0, 1.0, size=(n, n)), 1)
    f[f < 0.25] = 0.0
    return Interaction(window=inter.window, coupling=f + f.T)


_ASSEMBLY_CASES = {
    "density": lambda inter: inter,
    "random": _random_couplings,
}


@pytest.mark.parametrize("support_within", [None, frozenset({0, 1, 2, 3}), frozenset({2, 3})],
                         ids=["all", "0123", "23"])
@pytest.mark.parametrize("case", sorted(_ASSEMBLY_CASES))
def test_interaction_hamiltonian_matches_per_term_oracles(six_modes, case, support_within):
    """The sector blocks against sum f (M + M*) one term at a time, through
    monomial_operator and through dense products of the whole-space a_g."""
    _, basis, inter = six_modes
    inter = _ASSEMBLY_CASES[case](inter)
    h = build_interaction_hamiltonian(basis, inter, support_within=support_within)
    dense = _whole_space_ops(basis)
    by_term = np.zeros((basis.dim, basis.dim), dtype=np.complex128)
    by_dense = np.zeros_like(by_term)
    kept = _kept(inter, support_within)
    assert kept
    for p, q in kept:
        f = inter.coupling[p, q]
        m = monomial_operator(_density_word(p, q), dense)
        by_term += f * (m + m.conj().T)
        md = np.eye(basis.dim, dtype=np.complex128)
        for site, dagger in _density_word(p, q):
            md = md @ (dense[site].conj().T if dagger else dense[site])
        by_dense += f * (md + md.conj().T)
    hd = _embed(h, basis.rank)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(hd))))
    assert np.max(np.abs(hd - by_term)) < tol
    assert np.max(np.abs(hd - by_dense)) < tol


def test_mode_operators_match_whole_space_oracle(six_modes):
    _, basis, _ = six_modes
    for a, oracle in zip(mode_operators(basis), _whole_space_ops(basis)):
        assert [b.shape for b in a] == [(math.comb(6, n), math.comb(6, n + 1)) for n in range(6)]
        assert np.max(np.abs(_embed(a, basis.rank, lowering=True) - oracle)) < 1e-15


def test_quadratic_hamiltonian_matches_whole_space_oracle(six_modes, rng):
    _, basis, _ = six_modes
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    t = m + m.conj().T
    h = _embed(build_quadratic_hamiltonian(basis, t), basis.rank)
    ops = _whole_space_ops(basis)
    oracle = sum(t[i, j] * ops[i].conj().T @ ops[j] for i in range(6) for j in range(6))
    assert np.max(np.abs(h - oracle)) < 1e-12 * max(1.0, float(np.max(np.abs(oracle))))


def test_interaction_hamiltonian_without_kept_terms(six_modes):
    _, basis, inter = six_modes
    empty = frozenset({5})
    assert not _kept(inter, empty)
    h = build_interaction_hamiltonian(basis, inter, support_within=empty)
    assert [b.shape for b in h] == [(math.comb(6, n),) * 2 for n in range(7)]
    assert not any(np.any(b) for b in h)


def test_evolution_sector_validation():
    ev = Evolution([np.eye(1), np.diag([1.0, 2.0]), np.eye(1)])
    assert np.allclose(ev.propagator(0.3)[1], np.diag(np.exp(0.3j * np.array([1.0, 2.0]))))
    lowering = (np.ones((1, 2)), np.ones((2, 1)))
    assert [b.shape for b in ev.eigenbasis(lowering)] == [(1, 2), (2, 1)]
    with pytest.raises(FockError):
        ev.eigenbasis(lowering[:1])  # one block short of the three sectors


# ------------------------------------------------------------ quasifree state

def test_quasifree_validation():
    w = build_chain(far_params(), 2)
    trunc, rows = window_coords(w, MP)
    n = trunc + 1
    with pytest.raises(FockError):
        quasifree_expectation(rows, np.triu(np.ones((n, n))), ((0, True), (0, False)))
    half = 0.5 * np.eye(n)
    with pytest.raises(FockError):
        quasifree_expectation(rows, half, ((0, True), (0, False)))
    with pytest.raises(FockError):
        quasifree_expectation(rows, np.eye(3), ((0, True), (0, False)))
    with pytest.raises(FockError):
        quasifree_expectation(rows, np.eye(n), ((0, False), (0, True)))


def test_quasifree_basic_values():
    w = build_chain(far_params(), 2)
    trunc, rows = window_coords(w, MP)
    n = trunc + 1
    eye = np.eye(n)
    zero = np.zeros((n, n))
    assert quasifree_expectation(rows, eye, ()) == 1.0
    assert quasifree_expectation(rows, eye, ((0, True), (0, False), (1, False))) == 0.0
    assert quasifree_expectation(rows, zero, ((0, True), (0, False))) == 0.0
    for gc in range(2):
        for ga in range(2):
            got = quasifree_expectation(rows, eye, ((gc, True), (ga, False)))
            want = np.vdot(rows[ga], rows[gc])
            assert got == pytest.approx(want, abs=1e-12)


def _rep_lowering(vec, cs, p_real):
    """Field operator of the quasi-free representation with real density p:
    a(f) = a0((1-P)f) + a0*(conj(P f))."""
    n_modes = len(cs)
    f1 = (np.eye(n_modes) - p_real) @ vec
    f2 = np.conj(p_real @ vec)
    out = np.zeros(cs[0].shape, dtype=np.complex128)
    for m in range(n_modes):
        out += np.conj(f1[m]) * cs[m]
        out += f2[m] * cs[m].conj().T
    return out


def test_quasifree_matches_representation_oracle(rng):
    w = build_chain(LatticeParams(0.1, 0.1, 0.25), 3)
    rows = window_coords(w, MP)[1][:, :7]  # the coefficients of angular indices 0..6
    n = rows.shape[1]
    assert n == 7
    q, _ = np.linalg.qr(rng.normal(size=(n, 3)))
    p = q @ q.T  # rank-3 real projection
    cs = jw_lowering(n)
    reps = [_rep_lowering(rows[s], cs, p) for s in range(3)]

    def vac_expect(mats):
        acc = np.eye(1 << n, dtype=np.complex128)
        for m in mats:
            acc = acc @ m
        return acc[0, 0]

    for sf in range(3):
        for sg in range(3):
            got = quasifree_expectation(rows, p, ((sf, True), (sg, False)))
            oracle = vac_expect([reps[sf].conj().T, reps[sg]])
            assert abs(got - oracle) < 1e-12
    # four-point Wick determinant
    got = quasifree_expectation(
        rows, p, ((2, True), (0, True), (0, False), (1, False)))
    oracle = vac_expect([reps[2].conj().T, reps[0].conj().T, reps[0], reps[1]])
    assert abs(got - oracle) < 1e-12
