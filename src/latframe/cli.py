"""Batch front end: config in, CSV/JSON artifacts out, exit code by verdict.

Exit codes: 0 all selected verifications passed; 1 a verification failed
(artifacts and summary.json carry the evidence); 2 the config or a module
precondition was rejected; 3 unexpected internal error.  Every failure mode
leaves a machine-readable record in summary.json (best effort) and a
single JSON line on stderr, never a bare traceback.

Artifacts are deterministic given (config, seed): fixed float formatting,
no timestamps, seeded sampling, fixed enumeration order.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    RunConfig,
    load_config,
    make_lattice_params,
    make_magnetic_params,
    make_window,
)
from .fock import (
    MAX_MODES,
    FockError,
    boundary_sum,
    build_interaction_hamiltonian,
    convergence_envelope,
    lr_check,
    lr_envelope,
    mode_basis,
    volume_convergence,
)
from .frame_analysis import (
    FrameAnalysisError,
    frame_bounds_estimate,
    gram,
    localization_rate,
    neumann_certificate,
    overlap_rate_constant,
    s_inverse_power_elements,
    verify_decay,
)
from .interactions import (
    KERNEL_FFT_MAX,
    InteractionError,
    c_phi,
    density_density,
    exponential_potential,
    k_sigma,
    kernel_fft_side,
    lr_velocity,
    smallest_kernel_sigma1,
    v_omega,
    w_kernel,
)
from .lattice import LatticeError, build_chain, build_window
from .magnetic import MagneticParams, RegimeError, TruncationError, regime, window_coords
from .quadratic import hopping_coeffs, landau_coefficients, level_projector
from .serialize import (
    SerializeError,
    read_csv,
    site_token,
    write_csv,
    write_json,
    write_matrix_text,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

_MODULE_ERRORS = (LatticeError, TruncationError, RegimeError, FrameAnalysisError,
                  InteractionError, FockError, SerializeError)


@dataclass
class Check:
    name: str
    passed: bool
    values: dict


@dataclass
class RunContext:
    cfg: RunConfig
    out: Path
    rng: np.random.Generator
    negative_control: bool


@dataclass
class CommandResult:
    checks: list[Check]
    artifacts: list[str]
    parameters: dict


def _rates(window, mp: MagneticParams, cfg: RunConfig) -> dict:
    """Localization rate, overlap constant and the (zeta, xi) pair in use."""
    lam = localization_rate(window.params, mp)
    g = cfg.g if cfg.g is not None else overlap_rate_constant(window, mp)
    zeta = cfg.zeta if cfg.zeta is not None else lam / 2.0
    xi = cfg.xi if cfg.xi is not None else lam
    return {"lam": lam, "g": g, "zeta": zeta, "xi": xi}


def _cmd_gram(ctx: RunContext) -> CommandResult:
    cfg = ctx.cfg
    w = make_window(cfg)
    mp = make_magnetic_params(cfg)
    gm = gram(w, mp)
    dev = float(np.max(np.abs(gm.entries - gm.entries.conj().T)))
    diag_dev = float(np.max(np.abs(np.diag(gm.entries) - 1.0)))
    vals = gm.eigenvalues()
    min_eig, max_eig = float(vals[0]), float(vals[-1])
    dists = w.distance_matrix()
    n = len(w)
    rows = []
    for i in range(n):
        for j in range(n):
            z = gm.entries[i, j]
            rows.append((i, j, site_token(w.sites[i]), site_token(w.sites[j]),
                         float(dists[i, j]), float(z.real), float(z.imag)))
    write_csv(ctx.out / "gram.csv", ["i", "j", "site_i", "site_j", "d", "re", "im"], rows)
    write_matrix_text(ctx.out / "gram_matrix.txt", gm.entries, w.content_hash())
    checks = [
        Check("hermitian", dev <= 1e-12, {"max_deviation": dev}),
        Check("unit_diagonal", diag_dev <= 1e-12, {"max_deviation": diag_dev}),
        Check("positive_semidefinite", min_eig >= -1e-10 * max_eig,
              {"min_eig": min_eig, "max_eig": max_eig}),
    ]
    params = {"n_sites": n, "regime": regime(w.params, mp), "window_hash": w.content_hash()}
    return CommandResult(checks, ["gram.csv", "gram_matrix.txt"], params)


def _nested_windows(cfg: RunConfig):
    lp = make_lattice_params(cfg)
    if cfg.shape == "chain":
        return [build_chain(lp, n) for n in cfg.chain_lengths]
    radii = cfg.radii
    if not radii:
        radii = tuple(r for r in (cfg.radius * 0.5, cfg.radius * 0.75, cfg.radius) if r > 0)
    if len(radii) < 2:
        raise ConfigError("windows", "radii", "need at least two nested radii")
    return [build_window(replace(lp, radius=r)) for r in radii]


def _cmd_bounds(ctx: RunContext) -> CommandResult:
    cfg = ctx.cfg
    mp = make_magnetic_params(cfg)
    windows = _nested_windows(cfg)
    records = frame_bounds_estimate(windows, mp)
    rows = []
    for rec in records:
        rows.append((rec.n_sites, rec.numerical_rank, rec.a_est, rec.b_est,
                     rec.upper_closed_form, rec.ill_conditioned, rec.regime, rec.window_hash))
    write_csv(ctx.out / "bounds.csv",
              ["n_sites", "rank", "a_est", "b_est", "upper", "ill_conditioned",
               "regime", "window_hash"], rows)
    ordered = all(r.a_est <= r.b_est for r in records)
    below = all(r.b_est <= r.upper_closed_form * (1 + 1e-9) for r in records)
    checks = [
        Check("a_below_b", ordered, {"n_windows": len(records)}),
        Check("b_below_closed_form", below,
              {"max_b": max(r.b_est for r in records),
               "upper": records[-1].upper_closed_form}),
    ]
    params = {
        "regime": records[-1].regime,
        "a_trend": [r.a_est for r in records],
        "b_trend": [r.b_est for r in records],
        "sizes": [r.n_sites for r in records],
    }
    return CommandResult(checks, ["bounds.csv"], params)


def _cmd_decay(ctx: RunContext) -> CommandResult:
    cfg = ctx.cfg
    w = make_window(cfg)
    mp = make_magnetic_params(cfg)
    rates = _rates(w, mp, cfg)
    rec = frame_bounds_estimate([w], mp)[0]
    margin = cfg.margin_ell * mp.ell_b
    cert = neumann_certificate(w, g=rates["g"], lam=rates["lam"], s_min=rec.a_est,
                               s_max=rec.upper_closed_form, p=cfg.p,
                               eps=cfg.eps, theta=cfg.theta)
    elems = s_inverse_power_elements(w, mp, cfg.p, margin=margin)
    inner = elems.inner
    dists = w.distance_matrix()[np.ix_(inner, inner)]
    report = verify_decay(elems.entries, dists, cert)
    rows = []
    for a, ga in enumerate(inner):
        for b, gb in enumerate(inner):
            mag = float(np.abs(elems.entries[a, b]))
            bound = cert.a_p * float(np.exp(-cert.lambda_p * dists[a, b]))
            rows.append((ga, gb, site_token(w.sites[ga]), site_token(w.sites[gb]),
                         float(dists[a, b]), mag, bound, mag / bound))
    write_csv(ctx.out / "decay_check.csv",
              ["i", "j", "site_i", "site_j", "d", "abs_entry", "bound", "ratio"], rows)
    write_json(ctx.out / "decay_certificate.json", {
        "p": cert.p, "g": cert.g, "lam": cert.lam, "delta": cert.delta,
        "eps": cert.eps, "theta": cert.theta, "s_min": cert.s_min, "s_max": cert.s_max,
        "c_eps": cert.c_eps, "r_p": cert.r_p, "d_p": cert.d_p, "e_p": cert.e_p,
        "lambda_p": cert.lambda_p, "a_p": cert.a_p,
        "window_hash": w.content_hash(), "inner_sites": len(inner),
    })
    fit_ok = report.fitted_rate is None or report.fitted_rate >= cert.lambda_p
    checks = [
        Check("zero_violations", report.violations == 0,
              {"violations": report.violations, "max_ratio": report.max_ratio,
               "n_pairs": report.n_pairs}),
        Check("fitted_rate_at_least_lambda_p", fit_ok,
              {"fitted_rate": report.fitted_rate, "lambda_p": cert.lambda_p}),
    ]
    params = {"p": cfg.p, "lambda_p": cert.lambda_p, "a_p": cert.a_p,
              "g": rates["g"], "lam": rates["lam"], "s_min": rec.a_est,
              "s_max": rec.upper_closed_form, "inner_sites": len(inner)}
    return CommandResult(checks, ["decay_check.csv", "decay_certificate.json"], params)


def _cmd_cphi(ctx: RunContext) -> CommandResult:
    cfg = ctx.cfg
    w = make_window(cfg)
    mp = make_magnetic_params(cfg)
    rates = _rates(w, mp, cfg)
    inter = density_density(w, cfg.f0, cfg.mu)
    res = c_phi(inter, rates["zeta"], rates["xi"])
    velocity = lr_velocity(res.value, rates["g"], rates["zeta"])
    checks = [Check("finite_nonnegative", np.isfinite(res.value) and res.value >= 0,
                    {"value": res.value})]
    brute_value = None
    if len(w) <= 6:
        brute = c_phi(inter, rates["zeta"], rates["xi"], family="brute")
        brute_value = brute.value
        agree = abs(brute.value - res.value) <= 1e-9 * max(1.0, abs(brute.value))
        checks.append(Check("family_matches_brute_force", agree,
                            {"family": res.value, "brute": brute.value}))
    write_json(ctx.out / "cphi.json", {
        "value": res.value, "zeta": res.zeta, "xi": res.xi,
        "attained_kind": res.member_kind,
        "attained_sites": [site_token(w.sites[k]) for k in res.member_sites],
        "attained_probe_site": res.site_index,
        "family_size": res.family_size, "n_terms": len(inter.terms),
        "g": rates["g"], "velocity": velocity,
        "brute_force_value": brute_value,
    })
    params = {"value": res.value, "velocity": velocity, "zeta": rates["zeta"],
              "xi": rates["xi"], "g": rates["g"], "n_terms": len(inter.terms)}
    return CommandResult(checks, ["cphi.json"], params)


def _require_kernel_grid(cfg: RunConfig, ell: float) -> None:
    """Reject a sigma1 whose padded kernel grid exceeds KERNEL_FFT_MAX at the
    diameter cap, which bounds the distance of any sampled pair centers."""
    cap = cfg.diam_max_ell * ell
    m = kernel_fft_side(cap, cfg.sigma1, ell, cfg.nodes)
    if m <= KERNEL_FFT_MAX:
        return
    lo = smallest_kernel_sigma1(cap, ell, cfg.nodes)
    where = (f"the padded kernel grid needs side {m} > {KERNEL_FFT_MAX} at sigma1 = "
             f"{cfg.sigma1:g}, nodes = {cfg.nodes}")
    if not np.isfinite(lo):
        raise ConfigError("kernel", "nodes", f"{where}; no sigma1 fits, use fewer nodes")
    scale = 10.0 ** (np.floor(np.log10(lo)) - 3)
    usable = float(f"{np.ceil(lo / scale) * scale:.4g}")
    raise ConfigError("kernel", "sigma1", f"{where}; the smallest usable sigma1 is {usable:g}")


def _cmd_wkernel(ctx: RunContext) -> CommandResult:
    cfg = ctx.cfg
    w = make_window(cfg)
    mp = make_magnetic_params(cfg)
    _require_kernel_grid(cfg, mp.ell_b)
    vres = v_omega(w, mp)
    omega = 1.0 / (2.0 * mp.ell_b)
    sigma, kconst = k_sigma(cfg.c1, vres.c2, cfg.sigma1, vres.sigma2, omega)
    pair_w = exponential_potential(cfg.c1, cfg.sigma1)
    cap = cfg.diam_max_ell * mp.ell_b
    pts = w.gxy
    n = len(w)
    rows = []
    all_bounded = True
    all_converged = True
    max_ratio = 0.0
    max_rel_err = 0.0
    for _ in range(cfg.n_quadruples):
        for _attempt in range(100000):
            idx = ctx.rng.integers(0, n, size=4)
            quad = pts[idx]
            diff = quad[:, None, :] - quad[None, :, :]
            diam = float(np.sqrt((diff * diff).sum(axis=-1)).max())
            if diam <= cap:
                break
        else:
            raise InteractionError("could not sample a quadruple within the diameter cap")
        res = w_kernel(quad, vres.coords, pair_w, mp, nodes=cfg.nodes)
        bound = kconst * float(np.exp(-sigma * diam))
        ok = abs(res.value) <= bound * (1 + 1e-9)
        all_bounded = all_bounded and ok
        all_converged = all_converged and res.converged
        max_ratio = max(max_ratio, abs(res.value) / bound)
        max_rel_err = max(max_rel_err, res.error_estimate / max(abs(res.value), 1e-12))
        rows.append((quad[0, 0], quad[0, 1], quad[1, 0], quad[1, 1],
                     quad[2, 0], quad[2, 1], quad[3, 0], quad[3, 1],
                     diam, float(res.value.real), float(res.value.imag),
                     abs(res.value), bound, res.error_estimate, res.converged))
    write_csv(ctx.out / "wkernel.csv",
              ["g1x", "g1y", "g2x", "g2y", "g3x", "g3y", "g4x", "g4y",
               "diam", "re_w", "im_w", "abs_w", "bound", "err_estimate", "converged"],
              rows)
    checks = [
        Check("dual_generator_residual", vres.residual < 1e-7, {"residual": vres.residual}),
        Check("all_within_decay_bound", all_bounded,
              {"n_quadruples": cfg.n_quadruples, "sigma": sigma, "k": kconst,
               "max_ratio": max_ratio}),
        Check("quadrature_converged", all_converged,
              {"nodes": cfg.nodes, "max_rel_err": max_rel_err}),
    ]
    params = {"c2": vres.c2, "sigma2": vres.sigma2, "sigma": sigma, "k": kconst,
              "omega": omega, "n_quadruples": cfg.n_quadruples}
    return CommandResult(checks, ["wkernel.csv"], params)


def _cmd_landau(ctx: RunContext) -> CommandResult:
    cfg = ctx.cfg
    w = make_window(cfg)
    mp = make_magnetic_params(cfg)
    rates = _rates(w, mp, cfg)
    margin = cfg.margin_ell * mp.ell_b
    r = cfg.level
    t_r, c_r, inner = landau_coefficients(r, w, mp, margin=margin)
    q = mp.level_spacing * (r + 0.5)
    rec = frame_bounds_estimate([w], mp)[0]
    cert = neumann_certificate(w, g=rates["g"], lam=rates["lam"], s_min=rec.a_est,
                               s_max=rec.upper_closed_form, p=2,
                               eps=cfg.eps, theta=cfg.theta)
    w0_dists = w.distance_matrix()
    levels = w.levels
    sel_r = np.nonzero(levels == r)[0]
    inner_global = sel_r[inner]
    dists = w0_dists[np.ix_(inner_global, inner_global)]
    report = verify_decay(t_r, dists, cert, scale=q)
    rows = []
    for a, ga in enumerate(inner_global):
        for b, gb in enumerate(inner_global):
            mag = float(np.abs(t_r[a, b]))
            bound = q * cert.a_p * float(np.exp(-cert.lambda_p * dists[a, b]))
            rows.append((int(ga), int(gb), site_token(w.sites[ga]), site_token(w.sites[gb]),
                         float(dists[a, b]), float(t_r[a, b].real), float(t_r[a, b].imag),
                         mag, bound, mag / bound))
    write_csv(ctx.out / "landau.csv",
              ["i", "j", "site_i", "site_j", "d", "re_t", "im_t", "abs_t", "bound", "ratio"],
              rows)
    write_csv(ctx.out / "landau_constants.csv", ["i", "site", "c"],
              [(int(g_), site_token(w.sites[g_]), float(c_r[a])) for a, g_ in enumerate(inner_global)])
    # independent route: dress the level Hamiltonian q(r) * Pi_r generically
    n_levels = cfg.level_max + 1
    trunc, _ = window_coords(w, mp)
    proj = level_projector(n_levels, trunc, [r])
    h_op = replace(proj, blocks=q * proj.blocks)
    hop = hopping_coeffs(h_op, w, mp)
    dual_dev = float(np.max(np.abs(hop[np.ix_(inner_global, inner_global)] - t_r)))
    checks = [
        Check("zero_violations", report.violations == 0,
              {"violations": report.violations, "max_ratio": report.max_ratio}),
        Check("dual_route_agreement", dual_dev <= 1e-8, {"max_deviation": dual_dev}),
        Check("constants_real_positive", bool(np.all(c_r > 0)),
              {"min_c": float(np.min(c_r)) if len(c_r) else None}),
    ]
    if cfg.level_max >= 1:
        cross = 0.0
        for r2 in range(n_levels):
            if r2 == r:
                continue
            sel2 = np.nonzero(levels == r2)[0]
            if sel2.size:
                cross = max(cross, float(np.max(np.abs(hop[np.ix_(sel_r, sel2)]))))
        checks.append(Check("cross_level_exactly_zero", cross == 0.0, {"max_cross": cross}))
    params = {"level": r, "q": q, "lambda_2": cert.lambda_p, "a_2": cert.a_p,
              "inner_sites": len(inner_global)}
    return CommandResult(checks, ["landau.csv", "landau_constants.csv"], params)


def _chain_and_interaction(cfg: RunConfig, length: int):
    lp = make_lattice_params(cfg)
    if lp.level_max != 0:
        raise FockError("dynamics commands run on lowest-level chains; set level_max = 0")
    w = build_chain(lp, length)
    # every site can carry a mode, so the window is checked against the Fock
    # engine's mode cap before any Gram factorization or dynamics
    if len(w) > MAX_MODES:
        raise FockError(f"window of {len(w)} modes exceeds the dynamics cap {MAX_MODES}")
    return w


def _require_finite_envelope(envelope, t_max: float) -> None:
    """Reject a t_max at which envelope(t) overflows (the artifacts cannot hold
    inf), naming the largest usable t_max; envelope grows with t."""
    if np.isfinite(envelope(t_max)):
        return
    lo, hi = 0.0, t_max
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if np.isfinite(envelope(mid)):
            lo = mid
        else:
            hi = mid
    # round down to four significant digits so the named value stays usable
    step = 10.0 ** (np.floor(np.log10(lo)) - 3) if lo > 0 else 1.0
    usable = float(f"{np.floor(lo / step) * step:.4g}")
    raise ConfigError("dynamics", "t_max",
                      f"the bound envelope overflows at t_max = {t_max:g}; "
                      f"the largest usable t_max is {usable:g}")


def _cmd_lr(ctx: RunContext) -> CommandResult:
    cfg = ctx.cfg
    mp = make_magnetic_params(cfg)
    w = _chain_and_interaction(cfg, cfg.chain_length)
    rates = _rates(w, mp, cfg)
    inter = density_density(w, cfg.f0, cfg.mu)
    cres = c_phi(inter, rates["zeta"], rates["xi"])
    velocity = lr_velocity(cres.value, rates["g"], rates["zeta"])
    if ctx.negative_control:
        velocity = velocity / 100.0
    d_min = float(w.distance_matrix().min())
    _require_finite_envelope(
        lambda t: lr_envelope(rates["g"], rates["zeta"], velocity, d_min, t), cfg.t_max)
    basis = mode_basis(w, mp)
    h = build_interaction_hamiltonian(basis, inter)
    t_grid = np.linspace(0.0, cfg.t_max, cfg.n_t)
    report = lr_check(basis, h, t_grid, rates["zeta"], velocity, rates["g"])
    dists = w.distance_matrix()
    fmax = report.f_table.max(axis=2)
    header = ["t", "site_g", "site_gp", "d", "f", "bound", "ratio"]
    rows = []
    exceed_rows = []
    for it, t in enumerate(report.t_grid):
        for ip, (i, j) in enumerate(report.pairs):
            f_val = float(fmax[it, ip])
            bound = float(report.bounds[it, ip])
            ratio = f_val / bound
            row = (float(t), site_token(w.sites[i]), site_token(w.sites[j]),
                   float(dists[i, j]), f_val, bound, ratio)
            rows.append(row)
            if ratio > 1.0 + 1e-9:
                exceed_rows.append(row)
    write_csv(ctx.out / "lr.csv", header, rows)
    write_csv(ctx.out / "lr_exceedances.csv", header, exceed_rows)
    write_json(ctx.out / "lr_summary.json", {
        "verdict": "pass" if report.passed else "fail",
        "n_exceed": report.n_exceed, "max_ratio": report.max_ratio,
        "max_ratio_off_diagonal": report.max_ratio_off_diagonal,
        "informative_cells": report.informative_cells,
        "g": report.g, "zeta": report.zeta, "xi": rates["xi"],
        "velocity": report.velocity, "c_phi": cres.value,
        "negative_control": ctx.negative_control,
        "chain_length": cfg.chain_length, "f0": cfg.f0, "mu": cfg.mu,
        "t_max": cfg.t_max, "n_t": cfg.n_t,
        "flavor_policy": "F is the max over the four sharp dagger flavors; "
                         "the supremum over mixed combinations on the unit disc "
                         "lies between F and 2F and is not computed",
    })
    checks = [Check("light_cone_bound", report.passed,
                    {"n_exceed": report.n_exceed, "max_ratio": report.max_ratio,
                     "max_ratio_off_diagonal": report.max_ratio_off_diagonal,
                     "informative_cells": report.informative_cells,
                     "velocity": report.velocity})]
    params = {"g": report.g, "zeta": report.zeta, "velocity": report.velocity,
              "c_phi": cres.value, "negative_control": ctx.negative_control,
              "modes": basis.rank}
    return CommandResult(checks, ["lr.csv", "lr_exceedances.csv", "lr_summary.json"], params)


def _cmd_converge(ctx: RunContext) -> CommandResult:
    cfg = ctx.cfg
    mp = make_magnetic_params(cfg)
    lengths = cfg.chain_lengths
    if len(lengths) < 2:
        raise ConfigError("windows", "chain_lengths", "need at least two nested lengths")
    w_big = _chain_and_interaction(cfg, lengths[-1])
    rates = _rates(w_big, mp, cfg)
    inter = density_density(w_big, cfg.f0, cfg.mu)
    cres = c_phi(inter, rates["zeta"], rates["xi"])
    velocity = lr_velocity(cres.value, rates["g"], rates["zeta"])
    center = w_big.center_index()
    lp = make_lattice_params(cfg)
    inners = [frozenset(w_big.index(s) for s in build_chain(lp, length).sites)
              for length in lengths[:-1]]
    largest_boundary = max(boundary_sum(inter, inner, center, rates["zeta"]) for inner in inners)
    _require_finite_envelope(
        lambda t: convergence_envelope(rates["g"], rates["zeta"], velocity, largest_boundary, t),
        cfg.t_max)
    basis = mode_basis(w_big, mp)
    t_grid = np.linspace(0.0, cfg.t_max, cfg.n_t)
    rows = []
    reports = list(zip(lengths[:-1], volume_convergence(
        basis, inter, inners, center, t_grid, rates["zeta"], velocity, rates["g"])))
    for length, rep in reports:
        for it, t in enumerate(rep.t_grid):
            b = float(rep.bounds[it])
            d = float(rep.diffs[it])
            rows.append((length, float(t), d, b, d / b if b > 0 else 0.0))
    write_csv(ctx.out / "converge.csv", ["length", "t", "diff", "bound", "ratio"], rows)
    within = all(rep.passed for _, rep in reports)
    monotone = True
    for (l1, r1), (l2, r2) in zip(reports, reports[1:]):
        # the smaller inner window omits more terms, so its difference dominates
        tol = 1e-9 * max(1.0, float(np.max(r1.diffs))) + 1e-12
        if np.any(r2.diffs > r1.diffs + tol):
            monotone = False
    # cells past t = 0 whose bound is below the trivial limit
    # ||tau_t(a) - tau'_t(a)|| <= 2; at t = 0 the two dynamics coincide
    informative = sum(int(np.count_nonzero(rep.bounds[rep.t_grid > 0] < 2.0))
                      for _, rep in reports)
    checks = [
        Check("within_bound", within,
              {"max_ratio": max(rep.max_ratio for _, rep in reports),
               "informative": informative}),
        Check("monotone_in_window_gap", monotone,
              {"lengths": list(lengths)}),
    ]
    params = {"velocity": velocity, "g": rates["g"], "zeta": rates["zeta"],
              "c_phi": cres.value, "center_site": site_token(w_big.sites[center]),
              "boundary_sums": [rep.boundary_sum for _, rep in reports]}
    return CommandResult(checks, ["converge.csv"], params)


# report file -> (x column, y columns, key columns for the series suffix)
_PLOT_SOURCES = (
    ("bounds.csv", "n_sites", ("a_est", "b_est", "upper"), ()),
    ("decay_check.csv", "d", ("abs_entry", "bound"), ()),
    ("landau.csv", "d", ("abs_t", "bound"), ()),
    ("wkernel.csv", "diam", ("abs_w", "bound"), ()),
    ("lr.csv", "t", ("f", "bound"), ("site_g", "site_gp")),
    ("converge.csv", "t", ("diff", "bound"), ("length",)),
)


def _cmd_plotdata(ctx: RunContext) -> CommandResult:
    out_rows = []
    found = []
    for name, xcol, ycols, keycols in _PLOT_SOURCES:
        path = ctx.out / name
        if not path.exists():
            continue
        found.append(name)
        header, rows = read_csv(path)
        try:
            xi = header.index(xcol)
            yis = [header.index(y) for y in ycols]
            kis = [header.index(k) for k in keycols]
        except ValueError as exc:
            raise SerializeError(f"{name}: unexpected columns {header}") from exc
        stem = name[:-4]
        for row in rows:
            suffix = "".join(":" + row[k] for k in kis)
            for y, yi in zip(ycols, yis):
                out_rows.append((stem, y + suffix, float(row[xi]), float(row[yi])))
    write_csv(ctx.out / "plot.csv", ["source", "series", "x", "y"], out_rows)
    checks = [Check("plot_rows_emitted", True,
                    {"n_rows": len(out_rows), "sources": found})]
    return CommandResult(checks, ["plot.csv"], {"sources": found})


_COMMANDS = {
    "gram": (_cmd_gram, "Gram matrix of the configured window with its invariants"),
    "bounds": (_cmd_bounds, "frame-bound estimates across nested windows"),
    "decay": (_cmd_decay, "inverse-power matrix elements against their certificate"),
    "cphi": (_cmd_cphi, "interaction decay functional and propagation speed"),
    "wkernel": (_cmd_wkernel, "two-body kernel samples against the decay budget"),
    "landau": (_cmd_landau, "level Hamiltonian coefficients with decay and dual-route checks"),
    "lr": (_cmd_lr, "light-cone verification for the density-density chain"),
    "converge": (_cmd_converge, "finite-window dynamics convergence study"),
    "plotdata": (_cmd_plotdata, "collect report CSVs into one long-format table"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latframe",
        description="Localized-frame analysis toolbox: frame bounds, decay "
                    "certificates, light cones and kernel checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", default=None, help="configuration file (INI sections)")
        sp.add_argument("--out", default="latframe-out", help="artifact directory")
        sp.add_argument("--seed", type=int, default=None, help="override [run] seed")
        sp.add_argument("--negative-control", action="store_true",
                        help="shrink the propagation speed 100x to force exceedances")
        sp.add_argument("--threads", type=int, default=None, help="override [run] threads")
    return parser


def _print_checks(command: str, checks: list[Check]) -> None:
    for c in checks:
        state = "PASS" if c.passed else "FAIL"
        detail = ", ".join(f"{k}={v}" for k, v in c.values.items())
        print(f"{state} {command}.{c.name}" + (f" ({detail})" if detail else ""))


def _write_summary(out: Path, payload: dict) -> None:
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "summary.json", payload)
    except OSError:
        pass  # stderr record still carries the failure


def _error_exit(out: Path, command: str, kind: str, code: int, message: str,
                section: str = "", key: str = "") -> int:
    record = {"command": command, "status": "error", "exit_code": code,
              "error": {"type": kind, "message": message}}
    if kind == "config":
        record["error"]["section"] = section
        record["error"]["key"] = key
    _write_summary(out, record)
    import json as _json

    print(_json.dumps(record, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    out = Path(args.out)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("run", "seed", "must be non-negative")
            cfg = replace(cfg, seed=args.seed)
        if args.threads is not None:
            if args.threads < 1:
                raise ConfigError("run", "threads", "must be positive")
            cfg = replace(cfg, threads=args.threads)
        out.mkdir(parents=True, exist_ok=True)
        ctx = RunContext(cfg=cfg, out=out, rng=np.random.default_rng(cfg.seed),
                         negative_control=args.negative_control)
        threads_applied = False
        limiter = None
        if cfg.threads is not None:
            try:
                from threadpoolctl import threadpool_limits

                limiter = threadpool_limits(limits=cfg.threads)
                threads_applied = True
            except ImportError:
                pass
        try:
            result = _COMMANDS[command][0](ctx)
        finally:
            if limiter is not None:
                limiter.unregister()
        passed = all(c.passed for c in result.checks)
        code = EXIT_OK if passed else EXIT_VERIFY
        _print_checks(command, result.checks)
        summary = {
            "command": command,
            "status": "ok" if passed else "fail",
            "exit_code": code,
            "seed": cfg.seed,
            "negative_control": args.negative_control,
            "threads": {"requested": cfg.threads, "applied": threads_applied},
            "parameters": result.parameters,
            "checks": [{"name": c.name, "passed": c.passed, "values": c.values}
                       for c in result.checks],
            "artifacts": sorted(result.artifacts + ["summary.json"]),
        }
        _write_summary(out, summary)
        print(f"latframe {command}: {'ok' if passed else 'FAILED'} (exit {code})")
        return code
    except ConfigError as exc:
        return _error_exit(out, command, "config", EXIT_INPUT, exc.message,
                           exc.section, exc.key)
    except _MODULE_ERRORS as exc:
        return _error_exit(out, command, type(exc).__name__, EXIT_INPUT, str(exc))
    except Exception as exc:  # pragma: no cover - safety net, still structured
        return _error_exit(out, command, "internal", EXIT_INTERNAL,
                           f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
