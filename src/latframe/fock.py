"""Finite Fock-space models over a window of localized states.

The localized states are linearly dependent in general, so the window Gram
matrix Z is factored as Z = V V* with V of full column rank; the physical
operators a_g = sum_k V[g, k] c_k over Jordan-Wigner modes c_k then satisfy

    {a_g, a*_g'} = Z[g, g'],   {a_g, a_g'} = 0,

and the Fock dimension is 2**rank(Z) rather than 2**n_sites.  Everything
downstream (Hamiltonians, Heisenberg evolution, anticommutator norms,
propagation and volume-convergence checks) runs in this mode space.

The dynamics runs in number sectors: the Jordan-Wigner basis states grouped
by N mod q, N being the particle number (q = rank + 1 when H commutes with N,
q = 2 for fermion parity otherwise).  H is block-diagonal over the sectors, a_g
maps sector r + 1 into r, and every eigendecomposition, Heisenberg step and
norm runs on blocks of one sector: at most C(rank, rank // 2) states for
number sectors, 2**(rank - 1) for parity sectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

from .frame_analysis import EXCEED_RTOL
from .interactions import Interaction
from .lattice import Window
from .magnetic import MagneticParams, overlap_matrix, window_coords

__all__ = [
    "FockError",
    "ModeBasis",
    "mode_basis",
    "jw_lowering",
    "mode_operators",
    "monomial_operator",
    "build_interaction_hamiltonian",
    "build_quadratic_hamiltonian",
    "number_sectors",
    "SectorOperator",
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
    "quasifree_expectation",
]

GRAM_FACTOR_RTOL = 1e-12
# mode cap of the Fock engine and of the dynamics commands: `lr` on a 12-site
# chain (largest sector 924 states) took 17.5 min for two time points on one
# core and peaked at 0.7 GB
MAX_MODES = 12


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
    w, u = np.linalg.eigh(z)
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


def jw_lowering(n_modes: int) -> list[sp.csr_matrix]:
    """Jordan-Wigner lowering operators on (C^2)^{n_modes}, basis |0>, |1> per mode."""
    import scipy.sparse as sp

    lower = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    zphase = sp.csr_matrix(np.diag([1.0, -1.0]))
    ident = sp.identity(2, format="csr")
    ops = []
    for k in range(n_modes):
        factors = [zphase] * k + [lower] + [ident] * (n_modes - k - 1)
        acc = factors[0]
        for f in factors[1:]:
            acc = sp.kron(acc, f, format="csr")
        ops.append(acc.astype(np.complex128))
    return ops


def _combine(coefs: np.ndarray, cs: list[sp.csr_matrix], dim: int) -> sp.csr_matrix:
    """sum_k coefs[k] cs[k] over the nonzero coefficients."""
    import scipy.sparse as sp

    acc = None
    for coef, c in zip(coefs, cs):
        if coef == 0:
            continue
        term = coef * c
        acc = term if acc is None else acc + term
    if acc is None:
        return sp.csr_matrix((dim, dim), dtype=np.complex128)
    return acc.tocsr()


def mode_operators(basis: ModeBasis) -> list[sp.csr_matrix]:
    """Annihilators a_g = sum_k V[g, k] c_k for every window site."""
    cs = jw_lowering(basis.rank)
    return [_combine(basis.v[g], cs, basis.dim) for g in range(basis.n_sites)]


def monomial_operator(factors, ops: list[sp.csr_matrix]) -> sp.csr_matrix:
    """Ordered product of a / a* factors, as (site, dagger) pairs left to right.

    This is the per-term oracle of build_interaction_hamiltonian: one word at a
    time, with no grouping or caching."""
    import scipy.sparse as sp

    dim = ops[0].shape[0]
    acc = sp.identity(dim, format="csr", dtype=np.complex128)
    for site, dagger in factors:
        a = ops[site]
        acc = acc @ (a.conj().T.tocsr() if dagger else a)
    return acc.tocsr()


def build_interaction_hamiltonian(basis: ModeBasis, interaction: Interaction,
                                  ops: list[sp.csr_matrix] | None = None,
                                  support_within: frozenset[int] | None = None) -> sp.csr_matrix:
    """H = sum over terms of f * (M + M*), optionally keeping only terms whose
    support lies inside the given site subset.

    A word of 2k factors is the product of its k adjacent pairs a#_i a#_j, and
    the pair operators are formed once and cached.  The kept terms are grouped
    by their leading pair L, so that sum_t f_t M_t = sum_L L @ R_L with
    R_L = sum f_t * (product of the remaining pairs); the k = 1 terms form one
    group of their own that needs no product.  Only one group's R_L and
    product are alive at a time: one sparse product per group replaces 2k per
    term and the sum over terms."""
    import scipy.sparse as sp

    if ops is None:
        ops = mode_operators(basis)
    adj = [a.conj().T.tocsr() for a in ops]
    pair_cache: dict = {}

    def pair(first, second):
        op = pair_cache.get((first, second))
        if op is None:
            (i, di), (j, dj) = first, second
            op = (adj[i] if di else ops[i]) @ (adj[j] if dj else ops[j])
            pair_cache[first, second] = op
        return op

    def remaining_sum(terms, skip):
        """R = sum f_t * (product of the pairs of word t past its first skip factors)."""
        r = None
        for term in terms:
            rest = term.monomial.factors[skip:]
            prod = pair(*rest[:2])
            for j in range(2, len(rest), 2):
                prod = prod @ pair(*rest[j:j + 2])
            r = term.coupling * prod if r is None else r + term.coupling * prod
        return r

    groups: dict = {}
    for term in interaction.terms:
        if support_within is not None and not term.support <= support_within:
            continue
        lead = term.monomial.factors[:2] if term.k > 1 else None
        groups.setdefault(lead, []).append(term)
    m = sp.csr_matrix((basis.dim, basis.dim), dtype=np.complex128)
    for lead, terms in groups.items():
        if lead is None:
            m = m + remaining_sum(terms, 0)
        else:
            m = m + pair(*lead) @ remaining_sum(terms, 2)
    pair_cache.clear()
    # csr + keeps a view into an nnz(A) + nnz(B) buffer when the sum fills
    # exactly half of it, as M + M* does; the copy holds only H's own entries
    h = (m + m.conj().T).copy()
    del m
    dev = float(abs(h - h.conj().T).max()) if h.nnz else 0.0
    if dev > 1e-10 * max(1.0, float(abs(h).max()) if h.nnz else 1.0):
        raise FockError(f"assembled Hamiltonian is not Hermitian: deviation {dev:.3e}")
    return h


def build_quadratic_hamiltonian(basis: ModeBasis, hopping: np.ndarray) -> sp.csr_matrix:
    """H = sum t[g', g] a*_g' a_g, with t Hermitian."""
    import scipy.sparse as sp

    n = basis.n_sites
    if hopping.shape != (n, n):
        raise FockError(f"hopping shape {hopping.shape} mismatches {n} sites")
    if np.max(np.abs(hopping - hopping.conj().T)) > 1e-10 * max(1.0, float(np.max(np.abs(hopping)))):
        raise FockError("hopping matrix is not Hermitian")
    # collapse through the mode map first: sum t a*a = sum_k c*_k (sum_l T[k, l] c_l)
    # with T = V* t V, one sparse product per mode
    tmode = basis.v.conj().T @ hopping @ basis.v
    cs = jw_lowering(basis.rank)
    h = sp.csr_matrix((basis.dim, basis.dim), dtype=np.complex128)
    for k in range(basis.rank):
        h = h + cs[k].conj().T @ _combine(tmode[k], cs, basis.dim)
    return h.tocsr()


def number_sectors(hamiltonians, rank: int) -> np.ndarray:
    """Sector label N mod q of every Jordan-Wigner basis state, N being its
    particle number (the popcount of its index).  q = rank + 1 when every
    Hamiltonian commutes with N and q = 2 (fermion parity) when one only
    conserves N mod 2; both are checked exactly on the nonzero patterns."""
    index = np.arange(1 << rank)
    count = np.zeros(len(index), dtype=np.intp)
    for k in range(rank):
        count += (index >> k) & 1
    q = rank + 1
    for h in hamiltonians:
        rows, cols = h.nonzero()
        step = count[rows] - count[cols]
        if np.any(step % 2):
            raise FockError("Hamiltonian does not conserve fermion parity")
        if np.any(step):
            q = 2
    return count % q


@dataclass(frozen=True)
class SectorOperator:
    """An operator that lowers the sector by one, as a_g does: block r maps
    sector (r + 1) mod q into sector r and is held densely in the eigenbasis
    of an Evolution."""

    blocks: tuple[np.ndarray, ...]


class Evolution:
    """Heisenberg evolution A -> e^{itH} A e^{-itH} from one eigendecomposition
    per sector of H.  sectors labels every basis state 0..q-1 (one sector when
    omitted); H must not couple different labels."""

    def __init__(self, h: sp.spmatrix | np.ndarray, sectors: np.ndarray | None = None):
        import scipy.sparse as sp

        hs = sp.csr_matrix(h)
        dev = float(abs(hs - hs.conj().T).max()) if hs.nnz else 0.0
        if dev > 1e-9 * max(1.0, float(abs(hs).max()) if hs.nnz else 0.0):
            raise FockError(f"Hamiltonian is not Hermitian: deviation {dev:.3e}")
        labels = np.zeros(hs.shape[0], dtype=np.intp) if sectors is None else np.asarray(sectors)
        rows, cols = hs.nonzero()
        if np.any(labels[rows] != labels[cols]):
            raise FockError("Hamiltonian couples different sectors")
        self.dim = hs.shape[0]
        self.sectors = [np.flatnonzero(labels == r) for r in range(int(labels.max()) + 1)]
        self.eigvals, self.eigvecs = [], []
        for idx in self.sectors:
            e, u = np.linalg.eigh(hs[idx][:, idx].toarray())
            self.eigvals.append(e)
            self.eigvecs.append(u)

    def eigenbasis(self, a: sp.spmatrix | np.ndarray) -> SectorOperator:
        """The blocks U_r* a U_{r+1} of an operator that lowers the sector by one;
        entries of a outside those blocks are an error."""
        import scipy.sparse as sp

        a = sp.csr_matrix(a)
        q = len(self.sectors)
        blocks, kept = [], 0
        for r, idx in enumerate(self.sectors):
            s = (r + 1) % q
            part = a[idx][:, self.sectors[s]]
            kept += part.count_nonzero()
            blocks.append(self.eigvecs[r].conj().T @ (part @ self.eigvecs[s]))
        if kept != a.count_nonzero():
            raise FockError("operator does not lower the sector by one")
        return SectorOperator(tuple(blocks))

    def propagator(self, t: float) -> np.ndarray:
        u = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for idx, e, v in zip(self.sectors, self.eigvals, self.eigvecs):
            u[np.ix_(idx, idx)] = (v * np.exp(1j * t * e)) @ v.conj().T
        return u

    def heisenberg(self, a: SectorOperator, t: float) -> SectorOperator:
        """tau_t(a) for a SectorOperator of this evolution, phased block by
        block, e^{itE_r} A_r e^{-itE_{r+1}}; it stays in the eigenbasis."""
        q = len(self.sectors)
        phases = [np.exp(1j * t * e) for e in self.eigvals]
        return SectorOperator(tuple(
            phases[r][:, None] * b * phases[(r + 1) % q].conj()[None, :]
            for r, b in enumerate(a.blocks)))


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value of a dense matrix.  Sector blocks have at most
    2**(MAX_MODES - 1) = 2048 rows (a parity sector at the mode cap)."""
    a = np.asarray(a)
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


def anticommutator_norm(p: np.ndarray, q: np.ndarray) -> float:
    import scipy.sparse as sp

    pd = p.toarray() if sp.issparse(p) else np.asarray(p)
    qd = q.toarray() if sp.issparse(q) else np.asarray(q)
    return operator_norm(pd @ qd + qd @ pd)


def _anticommutator_norms(x: SectorOperator, y: SectorOperator) -> tuple[float, float]:
    """||{x, y}|| and ||{x, y*}||.  {x, y} maps sector r + 2 into r and {x, y*}
    keeps every sector, so each norm is the largest of its block norms."""
    xb, yb = x.blocks, y.blocks
    q = len(xb)
    plain = max(operator_norm(xb[r] @ yb[(r + 1) % q] + yb[r] @ xb[(r + 1) % q])
                for r in range(q))
    mixed = max(operator_norm(xb[r] @ yb[r].conj().T + yb[r - 1].conj().T @ xb[r - 1])
                for r in range(q))
    return plain, mixed


def lr_envelope(g: float, zeta: float, velocity: float, d, t):
    """Light-cone envelope g exp(-zeta (d - v|t|)); inf where it overflows."""
    with np.errstate(over="ignore"):
        return g * np.exp(-zeta * (np.asarray(d, dtype=float) - velocity * np.abs(t)))


def convergence_envelope(g: float, zeta: float, velocity: float, boundary: float, t):
    """Boundary-sum envelope 2 g (e^{zeta v |t|} - 1) * boundary; inf where it overflows."""
    with np.errstate(over="ignore"):
        return 2.0 * g * (np.exp(zeta * velocity * np.abs(t)) - 1.0) * boundary


@dataclass(frozen=True)
class LRReport:
    """Propagation-front table: measured anticommutator norms against the
    exponential light-cone envelope g * exp(-zeta * (d - v|t|)).

    max_ratio includes the diagonal cells, where F(0) = Z_gg = 1 meets the
    bound g at t = 0; max_ratio_off_diagonal is the maximum over pairs at
    distance d > 0, and informative_cells counts the (time, pair) cells past
    t = 0 whose bound lies below the trivial limit F <= 2 (at t = 0 the
    check holds by construction).  ratios[t, pair] is F / bound, and exceed
    marks the cells where it is above 1 + EXCEED_RTOL."""

    zeta: float
    velocity: float
    g: float
    t_grid: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    f_table: np.ndarray
    bounds: np.ndarray
    ratios: np.ndarray
    exceed: np.ndarray
    n_exceed: int
    max_ratio: float
    max_ratio_off_diagonal: float
    informative_cells: int
    passed: bool
    flavor_labels: tuple[str, ...] = ("a,a", "a,a*", "a*,a", "a*,a*")


def lr_check(basis: ModeBasis, h: sp.spmatrix | np.ndarray, t_grid,
             zeta: float, velocity: float, g: float) -> LRReport:
    """Measure F(t) = max over flavors of ||{tau_t(a#_g), a#_g'}|| for every
    ordered site pair and compare with g * exp(-zeta(d(g, g') - v|t|)); a cell
    exceeds when F is above the bound by more than EXCEED_RTOL relative.

    The work runs in the number sectors of H in its eigenbasis; the flavors
    come in adjoint pairs, ||{x*, y*}|| = ||{x, y}|| and ||{x*, y}|| = ||{x, y*}||,
    so two norms per pair and time fill the four columns of f_table."""
    if zeta <= 0 or g <= 0:
        raise FockError("zeta and g must be positive")
    if h.shape != (basis.dim, basis.dim):
        raise FockError(f"Hamiltonian shape {h.shape} mismatches Fock dimension {basis.dim}")
    t_grid = np.asarray(t_grid, dtype=float)
    n = basis.n_sites
    pairs = [(i, j) for i in range(n) for j in range(n)]
    evol = Evolution(h, number_sectors([h], basis.rank))
    static = [evol.eigenbasis(a) for a in mode_operators(basis)]
    f_table = np.zeros((len(t_grid), n * n, 4))
    for it, t in enumerate(t_grid):
        for i in range(n):
            x = evol.heisenberg(static[i], float(t))
            for j in range(n):
                plain, mixed = _anticommutator_norms(x, static[j])
                f_table[it, i * n + j] = (plain, mixed, mixed, plain)
    # an overflowing envelope holds trivially; callers that write the bounds
    # out reject such a t_max before the run
    d_pairs = basis.window.distance_matrix().ravel()
    bounds = lr_envelope(g, zeta, velocity, d_pairs[None, :], t_grid[:, None])
    fmax = f_table.max(axis=2)
    ratios = fmax / bounds
    exceed = ratios > 1.0 + EXCEED_RTOL
    off_diagonal = ratios[:, d_pairs > 0]
    return LRReport(
        zeta=zeta, velocity=velocity, g=g, t_grid=t_grid, pairs=tuple(pairs),
        f_table=f_table, bounds=bounds, ratios=ratios, exceed=exceed,
        n_exceed=int(np.count_nonzero(exceed)),
        max_ratio=float(ratios.max()) if ratios.size else 0.0,
        max_ratio_off_diagonal=float(off_diagonal.max()) if off_diagonal.size else 0.0,
        informative_cells=int(np.count_nonzero(bounds[t_grid > 0] < 2.0)),
        passed=not bool(exceed.any()),
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """Norm differences between full- and restricted-support dynamics against
    the boundary-sum envelope 2 g (e^{zeta v |t|} - 1) * boundary_sum.

    informative_cells counts the times past t = 0 whose bound lies below the
    trivial limit ||tau_t(a) - tau'_t(a)|| <= 2, as in LRReport; at t = 0 the
    two dynamics coincide."""

    t_grid: np.ndarray
    site: int
    diffs: np.ndarray
    bounds: np.ndarray
    boundary_sum: float
    passed: bool
    max_ratio: float
    informative_cells: int


def boundary_sum(interaction: Interaction, inner_sites: frozenset[int], site: int,
                 zeta: float) -> float:
    """Sum of k * coupling * e^{-zeta d(site, support)} over the terms whose
    support leaves inner_sites."""
    dists = interaction.window.distance_matrix()
    total = 0.0
    for term in interaction.terms:
        if term.support <= inner_sites:
            continue
        d_site = min(dists[site, s] for s in term.support)
        total += term.k * term.coupling * np.exp(-zeta * d_site)
    return total


def volume_convergence(basis: ModeBasis, interaction: Interaction,
                       inner_windows: list[frozenset[int]], site: int, t_grid,
                       zeta: float, velocity: float, g: float) -> list[ConvergenceReport]:
    """Compare tau_t under the full interaction against the dynamics generated
    by the terms supported inside each of inner_windows (site-index sets), for
    the annihilator at one site; one report per inner window.

    The full Hamiltonian is diagonalised once.  Each difference is taken block
    by block in the full eigenbasis, where the restricted evolution enters
    through the overlaps W_r = U_r* V_r of the two eigenbases."""
    t_grid = np.asarray(t_grid, dtype=float)
    ops = mode_operators(basis)
    h_full = build_interaction_hamiltonian(basis, interaction, ops=ops)
    h_inner = [build_interaction_hamiltonian(basis, interaction, ops=ops, support_within=inner)
               for inner in inner_windows]
    sectors = number_sectors([h_full, *h_inner], basis.rank)
    ev_full = Evolution(h_full, sectors)
    a_full = ev_full.eigenbasis(ops[site])
    q = len(ev_full.sectors)
    reports = []
    for inner, h_small in zip(inner_windows, h_inner):
        ev_small = Evolution(h_small, sectors)
        a_small = ev_small.eigenbasis(ops[site])
        overlap = [u.conj().T @ v for u, v in zip(ev_full.eigvecs, ev_small.eigvecs)]
        diffs = np.zeros(len(t_grid))
        for it, t in enumerate(t_grid):
            xf = ev_full.heisenberg(a_full, float(t)).blocks
            xs = ev_small.heisenberg(a_small, float(t)).blocks
            diffs[it] = max(
                operator_norm(xf[r] - overlap[r] @ xs[r] @ overlap[(r + 1) % q].conj().T)
                for r in range(q))
        boundary = boundary_sum(interaction, inner, site, zeta)
        # an overflowing envelope holds trivially; callers that write the bounds
        # out reject such a t_max before the run
        bounds = convergence_envelope(g, zeta, velocity, boundary, t_grid)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(bounds > 0, diffs / bounds, np.where(diffs > 1e-12, np.inf, 0.0))
        passed = bool(np.all(diffs <= bounds * (1.0 + EXCEED_RTOL) + 1e-12))
        reports.append(ConvergenceReport(
            t_grid=t_grid, site=site, diffs=diffs, bounds=bounds, boundary_sum=boundary,
            passed=passed, max_ratio=float(np.max(ratios)) if ratios.size else 0.0,
            informative_cells=int(np.count_nonzero(bounds[t_grid > 0] < 2.0))))
    return reports


def quasifree_expectation(window: Window, mp: MagneticParams, p_matrix: np.ndarray,
                          factors) -> complex:
    """Determinant form of a quasi-free expectation with one-particle density P:

        <a*(f_n) ... a*(f_1) a(g_1) ... a(g_m)> = delta_{nm} det [ <g_i, P f_j> ].

    The factors must be normal ordered (all creators first); P must be an
    orthogonal projection in the truncated angular coordinates.
    """
    p_matrix = np.asarray(p_matrix, dtype=np.complex128)
    if np.max(np.abs(p_matrix - p_matrix.conj().T)) > 1e-10:
        raise FockError("P must be Hermitian")
    if np.max(np.abs(p_matrix @ p_matrix - p_matrix)) > 1e-10:
        raise FockError("P must be idempotent")
    trunc, rows = window_coords(window, mp)
    if p_matrix.shape != (trunc + 1, trunc + 1):
        raise FockError(f"P shape {p_matrix.shape} mismatches coordinate size {trunc + 1}")
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
