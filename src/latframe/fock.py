"""Finite Fock-space models over a window of localized states.

The localized states are linearly dependent in general, so the window Gram
matrix Z is factored as Z = V V* with V of full column rank; the physical
operators a_g = sum_k V[g, k] c_k over Jordan-Wigner modes c_k then satisfy

    {a_g, a*_g'} = Z[g, g'],   {a_g, a_g'} = 0,

and the Fock dimension is 2**rank(Z) rather than 2**n_sites.  Everything
downstream (Hamiltonians, Heisenberg evolution, anticommutator norms,
propagation and volume-convergence checks) runs in this mode space.  At
t = 0 nothing has moved: lr_check fills that row from the CAR,
{a_g, a*_g'} = (V V*)[g, g'] and {a_g, a_g'} = 0, and volume_convergence
records a zero difference, so only the times t != 0 are normed.

The dynamics runs in number sectors: sector N holds the Jordan-Wigner basis
states with N particles.  Every Hamiltonian built here commutes with the
particle number, so it is held as its rank + 1 diagonal blocks, built
straight from its normal-ordered mode form, and a_g as its blocks from sector
N to N - 1.  Every eigendecomposition, Heisenberg step and norm runs on
blocks of one sector, at most C(rank, rank // 2) states.  jw_lowering,
monomial_operator and anticommutator_norm act on dense matrices of the whole
2**rank space: they are the oracle of the sector engine.

A restricted dynamics tau^S, generated by the pairs inside a site set S, acts
only on the modes that S touches.  volume_convergence turns the modes by a
unitary Q (V -> V Q keeps Z = V V*) so that each of its nested inner windows
touches only the leading m = min(|S|, rank) of them, and builds and diagonalises
each restricted Hamiltonian on those m modes alone: H_S (x) 1 on 2**m states
rather than 2**rank.

Real windows run in real arithmetic.  When the overlaps carry no phase (on a
straight chain every wedge gamma ^ gamma' is 0), mode_basis factors the real
part of Z, so V is float64, and with a real coupling or hopping matrix every
Hamiltonian block and eigenbasis is real too; only the Heisenberg phases make
a block complex, and a phased block multiplies real factors as two real
products, on its real and on its imaginary part (_add_product).  The dtype
alone decides this: windows whose overlaps carry phases keep the complex
path.  On real V and H, complex conjugation K of the Jordan-Wigner basis fixes
every a_g and sends tau_t to tau_-t while keeping norms, so
||{tau_t(a#_i), a#_j}|| = ||{tau_-t(a#_i), a#_j}||, and applying the
automorphism tau_t turns that into ||{tau_t(a#_j), a#_i}||: the light-cone
front is symmetric in the site pair, and lr_check computes each unordered pair
once.

A straight chain with a distance-only coupling has a second symmetry, the
site reversal R: k -> n - 1 - k.  When it fixes Z (Z[Rg, Rg'] = Z[g, g']),
PV = VQ for the reversal permutation P and a unitary Q on the modes, which
lifts to a Fock unitary Gamma with Gamma a_g Gamma* = a_Rg; when it also fixes
the coupling F, Gamma commutes with H, so F(Ri, Rj, t) = F(i, j, t).  lr_check
tests both matrices against their reversal to SYMMETRY_RTOL relative (a
tolerance, since an even chain with non-dyadic spacing is persymmetric only
to round-off) and on real inputs computes one cell of each orbit {(i, j),
(j, i), (Ri, Rj), (Rj, Ri)}: 20 of the 64 cells on 8 sites.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .frame_analysis import EXCEED_RTOL, OVERLAP_CONSTANT, BoundCheck, check_bound
from .interactions import Interaction
from .lattice import Window
from .magnetic import MagneticParams, overlap_matrix

__all__ = [
    "FockError",
    "ModeBasis",
    "mode_basis",
    "jw_lowering",
    "mode_operators",
    "monomial_operator",
    "build_interaction_hamiltonian",
    "build_quadratic_hamiltonian",
    "Evolution",
    "operator_norm",
    "anticommutator_norm",
    "lr_envelope",
    "convergence_envelope",
    "LRReport",
    "lr_check",
    "ConvergenceReport",
    "boundary_sum",
    "volume_convergence",
]

GRAM_FACTOR_RTOL = 1e-12
# mode cap of the Fock engine and of the dynamics commands: the largest number
# sector at 12 modes holds C(12, 6) = 924 states, and `lr` on a 12-site chain
# needs minutes per time step past t = 0 (that row comes from the CAR) for its
# 42 of 144 cells (one per orbit of the pair swap and the site reversal) x 2
# flavours of block norms
MAX_MODES = 12
# relative tolerance of lr_check's site-reversal test on Z and the coupling:
# the sqrt(pi) chains are persymmetric only to round-off (2.2e-16, 3.9e-16 and
# 7.2e-16 relative at 6, 8 and 12 sites), a phase or an asymmetric coupling
# breaks the symmetry at order one
SYMMETRY_RTOL = 1e-14
# the trivial limit of both dynamics checks: ||{tau_t(a_i), a#_j}|| <=
# 2 ||a_i|| ||a_j|| = 2 and ||tau_t(a) - tau'_t(a)|| <= 2 ||a|| = 2 (Z_gg = 1),
# so an envelope at or above it carries no information
TRIVIAL_LIMIT = 2.0


class FockError(ValueError):
    pass


@dataclass(frozen=True)
class ModeBasis:
    """Gram factorization of a window plus the ambient Fock dimensions."""

    window: Window
    z: np.ndarray
    v: np.ndarray
    rank: int

    @property
    def n_sites(self) -> int:
        return len(self.window)

    @property
    def dim(self) -> int:
        return 1 << self.rank


def mode_basis(window: Window, mp: MagneticParams) -> ModeBasis:
    z = overlap_matrix(window, mp)
    # overlaps without phases are factored in real arithmetic, so V, and with
    # it every Hamiltonian block, eigenbasis and mode operator, is real
    w, u = np.linalg.eigh(z if np.any(z.imag) else z.real)
    keep = w > GRAM_FACTOR_RTOL * max(w[-1], 0.0)
    rank = int(np.count_nonzero(keep))
    if rank == 0:
        raise FockError("window Gram matrix has no retained modes")
    if rank > MAX_MODES:
        raise FockError(f"rank {rank} exceeds the mode cap {MAX_MODES} (dim 2^{rank})")
    v = u[:, keep] * np.sqrt(w[keep])
    resid = float(np.max(np.abs(z - v @ v.conj().T)))
    if resid > 1e-10 * max(1.0, float(np.max(np.abs(z)))):
        raise FockError(f"Gram factorization residual {resid:.3e} too large")
    return ModeBasis(window=window, z=z, v=v, rank=rank)


def jw_lowering(n_modes: int) -> list[np.ndarray]:
    """Jordan-Wigner lowering operators on (C^2)^{n_modes} as dense matrices,
    basis |0>, |1> per mode, mode 0 the leading tensor factor.  The whole-space
    oracle of the sector engine: 2**n_modes rows each."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    zphase = np.diag([1.0, -1.0])
    ops = []
    for k in range(n_modes):
        acc = np.ones((1, 1))
        for f in [zphase] * k + [lower] + [np.eye(2)] * (n_modes - k - 1):
            acc = np.kron(acc, f)
        ops.append(acc.astype(np.complex128))
    return ops


def _sector_tables(rank: int):
    """Number sectors in jw_lowering's basis: the states of each sector N
    (basis indices with N set bits, ascending), each state's index within its
    sector, the occupation occ[k, s] of mode k and the Jordan-Wigner sign
    sign[k, s] = (-1)^(modes before k occupied in s) that c_k and c*_k pick up."""
    states = np.arange(1 << rank)
    bit = 1 << (rank - 1 - np.arange(rank))
    occ = (states[None, :] & bit[:, None] != 0).astype(np.intp)
    sign = 1 - 2 * ((np.cumsum(occ, axis=0) - occ) & 1)
    count = occ.sum(axis=0)
    by_count = [np.flatnonzero(count == n) for n in range(rank + 1)]
    index = np.empty(1 << rank, dtype=np.intp)
    for members in by_count:
        index[members] = np.arange(len(members))
    return by_count, index, occ, sign, bit


def _lowering_tables(rank: int) -> list[tuple]:
    """Where sum_k c[k] c_k puts its entries, block by block: table N - 1 maps
    sector N into sector N - 1, for _lowering_block to fill with any c."""
    by_count, index, occ, sign, bit = _sector_tables(rank)
    tables = []
    for n in range(1, rank + 1):
        s = by_count[n]
        held = np.nonzero(occ[:, s].T)[1].reshape(len(s), n)  # occupied modes per state
        rows = index[s[:, None] - bit[held]]
        tables.append((len(by_count[n - 1]), rows, np.arange(len(s))[:, None], held,
                       sign[held, s[:, None]]))
    return tables


def _lowering_block(table: tuple, c: np.ndarray) -> np.ndarray:
    """The block of sum_k c[k] c_k that one of _lowering_tables' entries maps."""
    d, rows, cols, held, sg = table
    b = np.zeros((d, len(cols)), dtype=c.dtype)
    b[rows, cols] = c[held] * sg
    return b


def _conserving_blocks(rank: int, one_body: np.ndarray,
                       two_body: np.ndarray | None = None) -> list[np.ndarray]:
    """Sector blocks of sum T[k, n] c*_k c_n + sum_{k<m, l<n} W[k, m, l, n]
    c*_k c*_m c_n c_l for T = one_body and W = two_body.

    Such a term sends a state s of sector N through an intermediate state t of
    sector N - j (j = 1, 2) back into sector N: s = t plus the annihilated
    modes, s' = t plus the created ones, both among the modes free in t, and
    the amplitude is the product of the Jordan-Wigner signs of those modes at
    t.  Every (t, created, annihilated) triple lands in the block through one
    bincount."""
    by_count, index, occ, sign, bit = _sector_tables(rank)
    dtype = np.result_type(*(c for c in (one_body, two_body) if c is not None))
    blocks = []
    for n in range(rank + 1):
        d = len(by_count[n])
        flat, vals = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=dtype)]
        for j, coef in ((1, one_body), (2, two_body)):
            if coef is None or n < j:
                continue
            t = by_count[n - j]
            n_free = rank - n + j
            free = np.nonzero(occ[:, t].T == 0)[1].reshape(len(t), n_free)
            subsets = free[:, np.array(list(itertools.combinations(range(n_free), j)))]
            target = index[t[:, None] + bit[subsets].sum(axis=2)]
            amp = sign[subsets, t[:, None, None]].prod(axis=2)
            at = tuple(subsets[:, :, None, i] for i in range(j)) + \
                tuple(subsets[:, None, :, i] for i in range(j))
            flat.append((target[:, :, None] * d + target[:, None, :]).ravel())
            vals.append((coef[at] * (amp[:, :, None] * amp[:, None, :])).ravel())
        # complex values as their real and imaginary parts interleaved: one
        # scatter fills the block; an empty one (sector 0) comes back as int
        k = 2 if dtype.kind == "c" else 1
        slots = (k * np.concatenate(flat)[:, None] + np.arange(k)).ravel()
        parts = np.concatenate(vals).view(np.float64)
        block = np.bincount(slots, weights=parts, minlength=k * d * d)
        blocks.append(block.astype(np.float64, copy=False).view(dtype).reshape(d, d))
    return blocks


def mode_operators(basis: ModeBasis) -> list[tuple[np.ndarray, ...]]:
    """Annihilators a_g = sum_k V[g, k] c_k for every window site, each as its
    blocks from sector N to N - 1 (block N - 1)."""
    tables = _lowering_tables(basis.rank)
    return [tuple(_lowering_block(table, c) for table in tables) for c in basis.v]


def monomial_operator(factors, ops: list[np.ndarray]) -> np.ndarray:
    """Ordered product of a / a* factors, as (site, dagger) pairs left to right,
    of whole-space matrices: the per-term oracle of build_interaction_hamiltonian."""
    acc = np.eye(ops[0].shape[0], dtype=np.complex128)
    for site, dagger in factors:
        acc = acc @ (ops[site].conj().T if dagger else ops[site])
    return acc


def build_interaction_hamiltonian(basis: ModeBasis, interaction: Interaction,
                                  support_within: frozenset[int] | None = None) -> list[np.ndarray]:
    """Sector blocks of H = sum_{p<q} F_pq (n_p n_q + (n_p n_q)*), optionally
    keeping only the pairs that lie inside the given site subset.

    F is the interaction's coupling matrix, masked to the kept pairs, and
    n_p = a*_p a_p = sum A_p[k, l] c*_k c_l with A_p = conj(V_p) (x) V_p.
    Over the symmetric F, H = sum_pq F_pq n_p n_q, since the pair (q, p)
    gives (n_p n_q)*.  Normal ordering gives the one-body part
    T = sum F_pq A_p A_q and the two-body coefficient of c*_k c*_m c_n c_l,
    sum F_pq A_p[k, l] A_q[m, n], antisymmetrised over k <-> m and l <-> n."""
    f = interaction.coupling
    if support_within is not None:
        inside = np.isin(np.arange(basis.n_sites), list(support_within))
        f = np.where(inside[:, None] & inside[None, :], f, 0.0)
    a = basis.v.conj()[:, :, None] * basis.v[:, None, :]
    fa = np.tensordot(f, a, axes=(1, 0))  # sum_q F_pq A_q
    one_body = np.einsum("pkl,pln->kn", a, fa)
    x = np.tensordot(a, fa, axes=(0, 0)).transpose(0, 2, 1, 3)  # [k, m, l, n]
    two_body = x - x.transpose(1, 0, 2, 3) - x.transpose(0, 1, 3, 2) + x.transpose(1, 0, 3, 2)
    return _conserving_blocks(basis.rank, one_body, two_body)


def build_quadratic_hamiltonian(basis: ModeBasis, hopping: np.ndarray) -> list[np.ndarray]:
    """Sector blocks of H = sum t[g', g] a*_g' a_g, with t Hermitian: in the
    modes, sum_kl T[k, l] c*_k c_l with T = V* t V."""
    n = basis.n_sites
    if hopping.shape != (n, n):
        raise FockError(f"hopping shape {hopping.shape} mismatches {n} sites")
    if np.max(np.abs(hopping - hopping.conj().T)) > 1e-10 * max(1.0, float(np.max(np.abs(hopping)))):
        raise FockError("hopping matrix is not Hermitian")
    return _conserving_blocks(basis.rank, basis.v.conj().T @ hopping @ basis.v)


class Evolution:
    """Heisenberg evolution A -> e^{itH} A e^{-itH} from one eigendecomposition
    per sector: h holds the diagonal blocks of H, sector by sector."""

    def __init__(self, h: list[np.ndarray]):
        h = [np.asarray(b) for b in h]
        dev = max(float(np.max(np.abs(b - b.conj().T))) for b in h)
        if dev > 1e-9 * max(1.0, max(float(np.max(np.abs(b))) for b in h)):
            raise FockError(f"Hamiltonian is not Hermitian: deviation {dev:.3e}")
        self.eigvals, self.eigvecs = [], []
        for b in h:
            e, u = np.linalg.eigh(b)
            self.eigvals.append(e)
            self.eigvecs.append(u)

    def eigenbasis(self, a: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
        """The blocks U_N* a U_(N+1) of an operator held as its blocks from
        sector N + 1 to N, as mode_operators gives them."""
        if len(a) != len(self.eigvecs) - 1:
            raise FockError(f"operator has {len(a)} blocks for {len(self.eigvecs)} sectors")
        return tuple(self.eigenbasis_block(b, r) for r, b in enumerate(a))

    def eigenbasis_block(self, b: np.ndarray, r: int) -> np.ndarray:
        """Block r of an operator, from sector r + 1 to r, in this evolution's
        eigenbasis: U_r* b U_(r+1)."""
        return self.eigvecs[r].conj().T @ (b @ self.eigvecs[r + 1])

    def propagator(self, t: float) -> list[np.ndarray]:
        """The sector blocks of e^{itH}."""
        return [(v * np.exp(1j * t * e)) @ v.conj().T for e, v in zip(self.eigvals, self.eigvecs)]

    def heisenberg_block(self, b: np.ndarray, r: int, t: float) -> np.ndarray:
        """Block r of tau_t(a), from block r of a in this evolution's
        eigenbasis: e^{itE_r} A_r e^{-itE_(r+1)}, phased entry by entry."""
        row, col = np.exp(1j * t * self.eigvals[r]), np.exp(1j * t * self.eigvals[r + 1])
        out = row[:, None] * b
        out *= col.conj()[None, :]
        return out

    def heisenberg(self, a: tuple[np.ndarray, ...], t: float) -> tuple[np.ndarray, ...]:
        """tau_t(a) for an operator in this evolution's eigenbasis, phased block
        by block; it stays in the eigenbasis."""
        return tuple(self.heisenberg_block(b, r, t) for r, b in enumerate(a))


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value of a dense matrix, the first of the descending
    values LAPACK's SVD returns (np.linalg.norm(a, 2) makes the same call).
    Sector blocks have at most C(MAX_MODES, MAX_MODES // 2) = 924 rows (the
    middle sector at the mode cap)."""
    a = np.asarray(a)
    return float(np.linalg.svd(a, compute_uv=False)[0]) if a.size else 0.0


def anticommutator_norm(p: np.ndarray, q: np.ndarray) -> float:
    """||{p, q}|| of two dense matrices: the whole-space oracle of lr_check."""
    return operator_norm(p @ q + q @ p)


def _anticommutator_norms(x, y) -> tuple[float, float]:
    """||{x, y}|| and ||{x, y*}|| of two operators held as their blocks from
    sector N + 1 to N.  {x, y} maps sector N + 2 into N and {x, y*} keeps every
    sector (x y* alone on sector 0, y* x alone on the full sector), so each norm
    is the largest of its block norms."""
    def norm(*products) -> float:
        acc = np.zeros((len(products[0][0]), products[0][1].shape[1]), dtype=np.complex128)
        for factors in products:
            _add_product(acc, factors)
        return operator_norm(acc)

    top = len(x)
    plain = max((norm((x[r], y[r + 1]), (y[r], x[r + 1])) for r in range(top - 1)), default=0.0)
    mixed = max(norm((x[0], y[0].conj().T)), norm((y[-1].conj().T, x[-1])),
                *(norm((x[r], y[r].conj().T), (y[r - 1].conj().T, x[r - 1]))
                  for r in range(1, top)))
    return plain, mixed


def _add_product(out: np.ndarray, factors: tuple[np.ndarray, ...]) -> None:
    """out += the product of factors, left to right, in place.

    A phased block between real factors (the eigenbases and blocks of a real
    window) multiplies as two real products, one on its real part into
    out.real and one on its imaginary part into out.imag: no real factor is
    copied to complex and no complex GEMM runs.  The dtypes alone pick this
    route; factors that are all complex multiply as they are."""
    phased = [k for k, f in enumerate(factors) if np.iscomplexobj(f)]
    if len(phased) != 1:
        out += functools.reduce(np.matmul, factors)
        return
    k = phased[0]
    for part, z in ((out.real, factors[k].real), (out.imag, factors[k].imag)):
        part += functools.reduce(np.matmul, factors[:k] + (z,) + factors[k + 1:])


def lr_envelope(zeta: float, velocity: float, d, t):
    """Light-cone envelope G exp(-zeta (d - v|t|)), G = OVERLAP_CONSTANT; inf on overflow."""
    with np.errstate(over="ignore"):
        return OVERLAP_CONSTANT * np.exp(-zeta * (np.asarray(d, dtype=float)
                                                  - velocity * np.abs(t)))


def convergence_envelope(zeta: float, velocity: float, boundary: float, t):
    """Boundary-sum envelope 2 G (e^{zeta v |t|} - 1) * boundary; inf on overflow."""
    with np.errstate(over="ignore"):
        return 2.0 * OVERLAP_CONSTANT * (np.exp(zeta * velocity * np.abs(t)) - 1.0) * boundary


@dataclass(frozen=True)
class LRReport:
    """Propagation-front table: measured anticommutator norms against the
    exponential light-cone envelope G * exp(-zeta * (d - v|t|)), G =
    OVERLAP_CONSTANT, at the times t_grid passed to lr_check.

    check compares F with the bound cell by cell (`check_bound`, trivial
    limit F <= 2 past t = 0, none at t = 0, where the check holds by
    construction).  Its max_ratio includes the diagonal cells, where F(0) =
    Z_gg = 1 meets the bound G at t = 0; max_ratio_off_diagonal is the
    maximum over pairs at distance d > 0.  The columns of
    f_table[t, pair] are the flavors (a, a), (a, a*), (a*, a), (a*, a*) of
    ||{tau_t(a#_g), a#_g'}||; its t = 0 rows come from the CAR, 0 and
    |(V V*)_gg'|, and only the times t != 0 are normed.

    v_crit is the least speed whose envelope covers every cell with t > 0
    and F > 0, max (d + ln(F/G)/zeta)/t, attained at v_crit_cell (t, g, g');
    a cell on the static envelope to rounding, |zeta d + ln(F/G)| <= EXCEED_RTOL,
    moves at speed 0.  v_cert_over_v_crit is velocity / v_crit, None when v_crit <= 0 (the
    static envelope G e^(-zeta d) already covers every such cell) or when
    there is no such cell.  v_crit_off_diagonal is that maximum over cells
    with d > 0.  From t_sat = (d_max + ln(2/G)/zeta)/v on (None if v <= 0)
    no cell's bound lies below the trivial limit 2."""

    pairs: tuple[tuple[int, int], ...]
    f_table: np.ndarray
    bounds: np.ndarray
    check: BoundCheck
    max_ratio_off_diagonal: float
    v_crit: float | None
    v_crit_cell: tuple[float, int, int] | None
    v_cert_over_v_crit: float | None
    v_crit_off_diagonal: float | None
    t_sat: float | None


def _persymmetric(m: np.ndarray) -> bool:
    """Whether the site reversal k -> n - 1 - k fixes m, to SYMMETRY_RTOL
    relative to its largest entry."""
    return float(np.max(np.abs(m - m[::-1, ::-1]))) <= SYMMETRY_RTOL * float(np.max(np.abs(m)))


def lr_check(basis: ModeBasis, interaction: Interaction, t_grid,
             zeta: float, velocity: float) -> LRReport:
    """Measure F(t) = max over flavors of ||{tau_t(a#_g), a#_g'}|| for every
    ordered site pair under the interaction's Hamiltonian and compare with
    G * exp(-zeta(d(g, g') - v|t|)) through `check_bound`.

    At t = 0 the CAR give every cell exactly: ||{a_i, a_j}|| = 0 and
    ||{a_i, a*_j}|| = |(V V*)_ij|, the anticommutator of the engine's own
    operators at any rank, so that row takes no Heisenberg step and no norm.
    The times t != 0 run sector by sector in H's eigenbasis; the flavors come
    in adjoint pairs, ||{x*, y*}|| = ||{x, y}|| and ||{x*, y}|| = ||{x, y*}||,
    so two norms per pair and time fill the four columns of f_table.

    When basis.v is real (and so H), F(i, j, t) = F(j, i, t) for both norms:
    conjugation fixes each a_g, maps tau_t to tau_-t and keeps norms, and the
    automorphism tau_t then swaps the pair.  When, in addition, the site
    reversal R: k -> n - 1 - k fixes Z and the coupling to SYMMETRY_RTOL, a
    unitary Gamma with Gamma a_g Gamma* = a_Rg commutes with H, so
    F(Ri, Rj, t) = F(i, j, t).  One cell of each orbit is computed and the
    others copied: 20 of the 64 cells on an 8-site chain, 36 with the pair
    swap alone.  Complex inputs, where the fronts at t and -t differ, compute
    every ordered pair."""
    if zeta <= 0:
        raise FockError("zeta must be positive")
    t_grid = np.asarray(t_grid, dtype=float)
    n = basis.n_sites
    pairs = [(i, j) for i in range(n) for j in range(n)]
    evol = Evolution(build_interaction_hamiltonian(basis, interaction))
    ops = mode_operators(basis)
    # each site leaves the site basis in turn, so only one site is held twice
    static = [evol.eigenbasis(ops.pop(0)) for _ in range(n)]
    mirrored = np.isrealobj(basis.v)
    reversal = mirrored and _persymmetric(basis.z) and _persymmetric(interaction.coupling)
    # the t = 0 row from the CAR: |(V V*)_ij| in the mixed columns, 0 plain
    car = np.abs(basis.v @ basis.v.conj().T).ravel()
    f_table = np.zeros((len(t_grid), n * n, 4))
    for it, t in enumerate(t_grid):
        if t == 0.0:
            f_table[it, :, 1] = f_table[it, :, 2] = car
            continue
        # with the reversal, each orbit has one cell with i <= j < n - i
        for i in range((n + 1) // 2 if reversal else n):
            x = evol.heisenberg(static[i], float(t))
            for j in range(i if mirrored else 0, n - i if reversal else n):
                plain, mixed = _anticommutator_norms(x, static[j])
                cells = [(i, j)]
                if mirrored:
                    cells.append((j, i))
                if reversal:
                    cells += [(n - 1 - i, n - 1 - j), (n - 1 - j, n - 1 - i)]
                for p, q in cells:
                    f_table[it, p * n + q] = (plain, mixed, mixed, plain)
    # callers that write the bounds out cap them at the trivial limit 2
    d_pairs = basis.window.distance_matrix().ravel()
    bounds = lr_envelope(zeta, velocity, d_pairs[None, :], t_grid[:, None])
    fmax = f_table.max(axis=2)
    check = check_bound(fmax, bounds, np.where(t_grid > 0, TRIVIAL_LIMIT, 0.0)[:, None])
    off_diagonal = check.ratio[:, d_pairs > 0]
    # the least speed whose envelope covers every cell past t = 0 with F > 0
    it_m, ip_m = np.nonzero((t_grid[:, None] > 0) & (fmax > 0))
    speeds = (d_pairs[ip_m] + np.log(fmax[it_m, ip_m] / OVERLAP_CONSTANT) / zeta) / t_grid[it_m]
    speeds[np.abs(zeta * speeds * t_grid[it_m]) <= EXCEED_RTOL] = 0.0  # zeta v t = zeta d + ln(F/G)
    k = int(np.argmax(speeds)) if speeds.size else None
    v_crit = None if k is None else float(speeds[k])
    off_speeds = speeds[d_pairs[ip_m] > 0]
    d_max = float(d_pairs.max())
    return LRReport(
        pairs=tuple(pairs), f_table=f_table, bounds=bounds, check=check,
        max_ratio_off_diagonal=float(off_diagonal.max()) if off_diagonal.size else 0.0,
        v_crit=v_crit,
        v_crit_cell=None if k is None else (float(t_grid[it_m[k]]), *pairs[ip_m[k]]),
        v_cert_over_v_crit=velocity / v_crit if v_crit is not None and v_crit > 0 else None,
        v_crit_off_diagonal=float(off_speeds.max()) if off_speeds.size else None,
        t_sat=float((d_max + np.log(TRIVIAL_LIMIT / OVERLAP_CONSTANT) / zeta) / velocity)
        if velocity > 0 else None,
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """Norm differences between full- and restricted-support dynamics against
    the boundary-sum envelope 2 G (e^{zeta v |t|} - 1) * boundary_sum at the
    times t_grid passed to volume_convergence.

    check compares diffs with bounds per time (`check_bound`, 1e-12 absolute,
    trivial limit ||tau_t(a) - tau'_t(a)|| <= 2 past t = 0 as in LRReport); at
    t = 0 the two dynamics coincide, so diffs there is 0 and only t != 0 is
    normed."""

    diffs: np.ndarray
    bounds: np.ndarray
    boundary_sum: float
    check: BoundCheck


def boundary_sum(interaction: Interaction, inner_sites: frozenset[int], site: int,
                 zeta: float) -> float:
    """Sum of k f e^{-zeta d(site, Z)} = 2 F_pq e^{-zeta min(d(site, p), d(site, q))}
    over the pairs Z = {p, q} that leave inner_sites, added in term order."""
    dists = interaction.window.distance_matrix()
    p, q = interaction.pairs()
    inside = np.isin(np.arange(len(interaction.window)), list(inner_sites))
    leave = ~(inside[p] & inside[q])
    p, q = p[leave], q[leave]
    terms = 2.0 * interaction.coupling[p, q] * np.exp(-zeta * np.minimum(dists[site, p],
                                                                          dists[site, q]))
    # a running sum keeps the order, and so the bits, of a term-by-term sum
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


def _nested_order(inner_windows: list[frozenset[int]], n_sites: int) -> list[int]:
    """The sites innermost first: the smallest inner window, then each shell of
    the next larger one, then the rest, each group in index order.  The windows
    must be nested, in any order."""
    shells = sorted(inner_windows, key=len)
    order: list[int] = []
    for small, big in zip([frozenset()] + shells, shells):
        if not small <= big or not big <= frozenset(range(n_sites)):
            raise FockError("inner windows must be nested subsets of the window's sites")
        order += sorted(big - small)
    return order + sorted(frozenset(range(n_sites)).difference(order))


def _embedding(rank: int, m: int, index: np.ndarray):
    """Where the blocks from sector j + 1 to j of an operator on the leading m
    of rank modes land in the blocks r + 1 -> r of the whole space, X (x) 1:
    for each r, the (j, rows, cols) of the blocks j that meet it, so that
    block[rows, cols] = X_j[:, :, None].  A whole-space state is an inner one
    on the leading bits and an outer one on the trailing rank - m; rows[a, 0, o]
    and cols[0, b, o] place inner states a of sector j and b of sector j + 1
    next to outer state o of sector r - j."""
    inner, outer = _sector_tables(m)[0], _sector_tables(rank - m)[0]
    shift = rank - m
    out = []
    for r in range(rank):
        meets = []
        for j in range(max(0, r - shift), min(m - 1, r) + 1):
            o = outer[r - j][None, :]
            meets.append((j, index[(inner[j][:, None] << shift) + o][:, None, :],
                          index[(inner[j + 1][:, None] << shift) + o][None, :, :]))
        out.append(meets)
    return out


def _moved_block(evol: Evolution, static: np.ndarray, r: int, t: float) -> np.ndarray:
    """Block r of tau_t(a) - a in the Jordan-Wigner basis, from block r of a in
    the evolution's eigenbasis: U_r (P - A_r) U_(r+1)*, P the phased block."""
    p = evol.heisenberg_block(static, r, t)
    p -= static
    out = np.zeros(p.shape, dtype=np.complex128)
    _add_product(out, (evol.eigvecs[r], p, evol.eigvecs[r + 1].conj().T))
    return out


def volume_convergence(basis: ModeBasis, interaction: Interaction,
                       inner_windows: list[frozenset[int]], site: int, t_grid,
                       zeta: float, velocity: float) -> list[ConvergenceReport]:
    """Compare tau_t under the full interaction against the dynamics tau'_t
    generated by the pairs inside each of inner_windows (site-index sets, which
    must be nested), for the annihilator at one site; one report per inner
    window, in the order given.

    The modes are turned so that each inner window S touches only the leading
    m = min(|S|, rank) of them: with the sites ordered innermost first, the QR
    factorization V[order]* = Q R makes V Q = (R*, reordered) lower-trapezoidal
    in that order, and (V Q)(V Q)* = Z.  The restricted Hamiltonian H_S is then
    H_in (x) 1, built and diagonalised on the 2^m states of the leading modes.
    Split a = a_in + a_out over the leading and the other modes: the other
    modes carry the parity string of the leading ones, which H_in keeps (it
    conserves their particle number), so tau'_t(a) = tau'_in,t(a_in) (x) 1 +
    a_out and tau_t(a) - tau'_t(a) = (tau_t(a) - a) - (tau'_in,t(a_in) - a_in)
    (x) 1.

    The full Hamiltonian is diagonalised once.  The loop runs over the blocks
    r + 1 -> r of the whole space: it forms block r of a in the full
    eigenbasis, and for each t != 0 block r of tau_t(a) - a in the
    Jordan-Wigner basis, once; each inner window subtracts the blocks of
    tau'_in,t(a_in) - a_in that land in it and takes one norm.  So it holds the
    full eigenbasis, the small restricted ones and a few blocks of one sector
    pair."""
    t_grid = np.asarray(t_grid, dtype=float)
    order = _nested_order(inner_windows, basis.n_sites)
    vq = basis.v @ np.linalg.qr(basis.v[order].conj().T, mode="complete")[0]
    rank, c = basis.rank, vq[site]
    ev_full = Evolution(build_interaction_hamiltonian(
        ModeBasis(basis.window, basis.z, vq, rank), interaction))
    index = _sector_tables(rank)[1]
    # per inner window: its evolution on the leading m modes, a_in in that
    # evolution's eigenbasis, and where its blocks land in the whole space
    restricted = []
    for inner in inner_windows:
        m = min(len(inner), rank)
        ev = Evolution(build_interaction_hamiltonian(
            ModeBasis(basis.window, basis.z, vq[:, :m], m), interaction, support_within=inner))
        static = [ev.eigenbasis_block(_lowering_block(table, c[:m]), j)
                  for j, table in enumerate(_lowering_tables(m))]
        restricted.append((ev, static, _embedding(rank, m, index)))
    # tau_0 and tau'_0 are both the identity, so t = 0 keeps a zero difference
    moving = [(it, float(t)) for it, t in enumerate(t_grid) if t != 0.0]
    diffs = np.zeros((len(inner_windows), len(t_grid)))
    for r, table in enumerate(_lowering_tables(rank)):
        static_full = ev_full.eigenbasis_block(_lowering_block(table, c), r)
        for it, t in moving:
            moved = _moved_block(ev_full, static_full, r, t)
            for k, (ev, static, embedding) in enumerate(restricted):
                d = moved.copy()
                for j, rows, cols in embedding[r]:
                    d[rows, cols] -= _moved_block(ev, static[j], j, t)[:, :, None]
                diffs[k, it] = max(diffs[k, it], operator_norm(d))
                del d  # no window's difference outlives its norm
            del moved
        del static_full
    reports = []
    for inner, diff in zip(inner_windows, diffs):
        boundary = boundary_sum(interaction, inner, site, zeta)
        # callers that write the bounds out cap them at the trivial limit 2
        bounds = convergence_envelope(zeta, velocity, boundary, t_grid)
        reports.append(ConvergenceReport(
            diffs=diff, bounds=bounds, boundary_sum=boundary,
            check=check_bound(diff, bounds, np.where(t_grid > 0, TRIVIAL_LIMIT, 0.0), 1e-12)))
    return reports
