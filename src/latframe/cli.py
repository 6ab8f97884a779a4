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
import json
import random
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    RunConfig,
    load_config,
    make_lattice_params,
    make_magnetic_params,
    make_window,
    validate,
)
from .fock import (
    MAX_MODES,
    TRIVIAL_LIMIT,
    FockError,
    lr_check,
    mode_basis,
    volume_convergence,
)
from .frame_analysis import (
    DUAL_RESIDUAL_TOL,
    EXCEED_RTOL,
    OVERLAP_CONSTANT,
    FrameAnalysisError,
    dual_residual,
    frame_bounds_estimate,
    gram,
    localization_rate,
    neumann_certificate,
    s_inverse_power_elements,
    schur_lower_bound,
    verify_decay,
)
from .interactions import (
    BRUTE_MAX_SITES,
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
from .lattice import LatticeError, LatticeParams, build_chain, build_window
from .magnetic import MagneticParams, RegimeError, TruncationError, bessel_bound, regime
from .quadratic import landau_coefficients
from .serialize import (
    ColumnTable,
    SerializeError,
    site_token,
    write_csv,
    write_json,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

_DEFAULT_OUT = "latframe-out"

# Window caps of the commands whose arrays grow with every site pair, timed on
# one core of a 2-core x86_64 machine.  decay and landau hold n^2 pairs of
# sites of one level: 545 sites took 1.1-1.8 s and 78 MB (decay), 1.2 s and
# 53 MB (landau); 1201 sites took 5.7-7.3 s and 190 MB (decay).
# cphi holds n (n - 1) / 2 terms by n sites: 181 sites took 2.3 s and 106 MB,
# 313 sites 17.8 s and 390 MB.
MAX_PAIR_TABLE_SITES = 1000
MAX_CPHI_SITES = 300

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
    negative_control: bool  # only lr takes the flag; False for every other command


@dataclass
class CommandResult:
    checks: list[Check]
    artifacts: list[str]
    parameters: dict


def _rates(mp: MagneticParams) -> dict:
    """Localization rate lam (its overlap constant is OVERLAP_CONSTANT) and the
    decay-functional pair zeta = lam / 2 < xi = lam."""
    lam = localization_rate(mp)
    return {"lam": lam, "zeta": lam / 2.0, "xi": lam}


def _cmd_gram(ctx: RunContext) -> CommandResult:
    cfg = ctx.cfg
    w = make_window(cfg)
    mp = make_magnetic_params(cfg)
    z = gram(w, mp)
    dev = float(np.max(np.abs(z - z.conj().T)))
    diag_dev = float(np.max(np.abs(np.diag(z) - 1.0)))
    vals = np.linalg.eigvalsh(z)
    min_eig, max_eig = float(vals[0]), float(vals[-1])
    n = len(w)
    write_csv(ctx.out / "gram.csv", ["i", "j", "site_i", "site_j", "d", "re", "im"],
              _pair_table(w.sites, np.arange(n), w.distance_matrix(), z.real, z.imag))
    checks = [
        Check("hermitian", dev <= 1e-12, {"max_deviation": dev}),
        Check("unit_diagonal", diag_dev <= 1e-12, {"max_deviation": diag_dev}),
        Check("positive_semidefinite", min_eig >= -1e-10 * max_eig,
              {"min_eig": min_eig, "max_eig": max_eig}),
    ]
    params = {"n_sites": n, "regime": regime(w.params, mp), "window_hash": w.content_hash()}
    return CommandResult(checks, ["gram.csv"], params)


def _nested_windows(cfg: RunConfig):
    lp = make_lattice_params(cfg)
    if cfg.shape == "chain":
        return [build_chain(lp, n) for n in cfg.chain_lengths]
    radii = cfg.radii or (cfg.radius * 0.5, cfg.radius * 0.75, cfg.radius)
    return [build_window(replace(lp, radius=r)) for r in radii]


def _cmd_bounds(ctx: RunContext) -> CommandResult:
    cfg = ctx.cfg
    mp = make_magnetic_params(cfg)
    windows = _nested_windows(cfg)
    records = frame_bounds_estimate(windows, mp)
    rows = [(rec.n_sites, rec.numerical_rank, rec.a_est, rec.b_est, rec.upper_closed_form,
             rec.regime, rec.window_hash) for rec in records]
    write_csv(ctx.out / "bounds.csv",
              ["n_sites", "rank", "a_est", "b_est", "upper", "regime", "window_hash"], rows)
    below = all(r.b_est <= r.upper_closed_form * (1 + EXCEED_RTOL) for r in records)
    checks = [
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


def _inverse_power_certificate(lp: LatticeParams, mp: MagneticParams, p: int):
    """The S^-p decay certificate between the Schur lower frame bound and the
    closed-form upper one, with the split eps = theta = lam / 4."""
    return neumann_certificate(lp, lam=localization_rate(mp),
                               s_min=schur_lower_bound(lp, mp), s_max=bessel_bound(lp, mp), p=p)


def _pair_table(labels, sites, d, *columns) -> ColumnTable:
    """Rows (i, j, site_i, site_j, d[a, b], *columns[a, b]) over all pairs of the window
    indices `sites`, each written as its Site in `labels`, d being their distance block;
    the site columns stay (n, 1) and (1, n) until write_csv expands them block by block."""
    ids = np.asarray(sites)
    tokens = np.array([site_token(labels[g]) for g in ids])
    return ColumnTable(ids[:, None], ids[None, :], tokens[:, None], tokens[None, :], d, *columns)


def _residual_check(dual, lp, mp: MagneticParams) -> Check:
    """S w_q = w_(q-1) for the adjoint dual, checked without any inverse."""
    res = dual_residual(dual, lp, mp)
    return Check("dual_residual", res <= DUAL_RESIDUAL_TOL,
                 {"max_residual": res, "bound": DUAL_RESIDUAL_TOL,
                  "patch_edge": dual.edge, "patch_sites": int(np.count_nonzero(dual.coeffs[0]))})


def _density_check(c_r: float, lp, mp: MagneticParams) -> Check:
    """<chi, S^-1 chi> = 1 / N as alpha beta / (2 pi ell^2): 1 / flux_density rounds twice."""
    inv_n = lp.alpha * lp.beta / (2.0 * np.pi * mp.ell_b**2)
    dev = abs(c_r - inv_n)
    return Check("constants_equal_inverse_density", dev <= DUAL_RESIDUAL_TOL,
                 {"c": c_r, "max_deviation": dev, "inverse_density": inv_n,
                  "bound": DUAL_RESIDUAL_TOL})


def _require_window_cap(cfg: RunConfig, command: str, n: int, what: str, cap: int) -> None:
    """Reject a window over a command's site cap before any work on it."""
    if n > cap:
        key = "chain_length" if cfg.shape == "chain" else "radius"
        raise ConfigError("lattice", key,
                          f"{command} would run on {n} {what}, over its cap of {cap}; "
                          f"use a smaller {key}")


def _cmd_decay(ctx: RunContext) -> CommandResult:
    cfg = ctx.cfg
    w = make_window(cfg)
    mp = make_magnetic_params(cfg)
    _require_window_cap(cfg, "decay", int(np.count_nonzero(w.levels == 0)), "level-0 sites",
                        MAX_PAIR_TABLE_SITES)
    cert = _inverse_power_certificate(w.params, mp, cfg.p)
    elems = s_inverse_power_elements(w, mp, cfg.p)
    sites = elems.sites
    d = w.distance_matrix(sites)
    report = verify_decay(elems.entries, d, cert)
    write_csv(ctx.out / "decay_check.csv",
              ["i", "j", "site_i", "site_j", "d", "abs_entry", "bound", "ratio"],
              _pair_table(w.sites, sites, d, np.abs(elems.entries), report.bounds, report.ratio))
    write_json(ctx.out / "decay_certificate.json",
               {"g": OVERLAP_CONSTANT, **asdict(cert), "window_hash": w.content_hash(),
                "n_sites": len(sites)})
    fit_ok = report.fitted_rate is None or report.fitted_rate >= cert.lambda_p
    checks = [
        Check("zero_violations", report.violations == 0,
              {"violations": report.violations, "max_ratio": report.max_ratio,
               "n_pairs": report.n_pairs}),
        Check("fitted_rate_at_least_lambda_p", fit_ok,
              {"fitted_rate": report.fitted_rate, "lambda_p": cert.lambda_p}),
        _residual_check(elems.dual, w.params, mp),
    ]
    params = {"p": cfg.p, "lambda_p": cert.lambda_p, "a_p": cert.a_p, "g": OVERLAP_CONSTANT,
              "lam": cert.lam, "s_min": cert.s_min, "s_max": cert.s_max, "n_sites": len(sites)}
    return CommandResult(checks, ["decay_check.csv", "decay_certificate.json"], params)


def _interaction_speed(w, mp: MagneticParams, cfg: RunConfig):
    """Rates, the density-density interaction, its C(zeta, xi) and the
    propagation speed that C certifies."""
    rates = _rates(mp)
    inter = density_density(w, cfg.f0, cfg.mu)
    res = c_phi(inter, rates["zeta"], rates["xi"])
    return rates, inter, res, lr_velocity(res.value, rates["zeta"])


def _cmd_cphi(ctx: RunContext) -> CommandResult:
    cfg = ctx.cfg
    w = make_window(cfg)
    mp = make_magnetic_params(cfg)
    _require_window_cap(cfg, "cphi", len(w), "sites", MAX_CPHI_SITES)
    rates, inter, res, velocity = _interaction_speed(w, mp, cfg)
    n_terms = len(w) * (len(w) - 1) // 2
    checks = [Check("finite_nonnegative", np.isfinite(res.value) and res.value >= 0,
                    {"value": res.value})]
    brute_value = None
    if len(w) <= BRUTE_MAX_SITES:
        brute = c_phi(inter, rates["zeta"], rates["xi"], family="brute")
        brute_value = brute.value
        agree = abs(brute.value - res.value) <= 1e-9 * max(1.0, abs(brute.value))
        checks.append(Check("family_matches_brute_force", agree,
                            {"family": res.value, "brute": brute.value}))
    write_json(ctx.out / "cphi.json", {
        "value": res.value, "zeta": rates["zeta"], "xi": rates["xi"],
        "attained_kind": res.member_kind,
        "attained_sites": [site_token(w.sites[k]) for k in res.member_sites],
        "attained_probe_site": res.site_index,
        "family_size": res.family_size, "n_terms": n_terms,
        "g": OVERLAP_CONSTANT, "velocity": velocity,
        "brute_force_value": brute_value,
    })
    params = {"value": res.value, "velocity": velocity, "zeta": rates["zeta"],
              "xi": rates["xi"], "g": OVERLAP_CONSTANT, "n_terms": n_terms}
    return CommandResult(checks, ["cphi.json"], params)


def _require_kernel_grid(cfg: RunConfig, ell: float) -> None:
    """Reject a sigma1 whose padded kernel grid exceeds KERNEL_FFT_MAX at the
    diameter cap, which bounds the distance of any sampled pair centers."""
    cap = cfg.diam_max_ell * ell
    m = kernel_fft_side(cap, cfg.sigma1, ell, cfg.nodes)
    if m <= KERNEL_FFT_MAX:
        return
    usable = smallest_kernel_sigma1(cap, ell, cfg.nodes)
    where = (f"the padded kernel grid needs side {m} > {KERNEL_FFT_MAX} at sigma1 = "
             f"{cfg.sigma1:g}, nodes = {cfg.nodes}")
    if not np.isfinite(usable):
        raise ConfigError("kernel", "nodes", f"{where}; no sigma1 fits, use fewer nodes")
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
    # the stdlib generator: random() is the one stream Python keeps across
    # versions, and numpy.random would map OpenSSL to draw four integers
    rng = random.Random(cfg.seed)
    rows = []
    all_bounded = True
    all_converged = True
    max_ratio = 0.0
    max_rel_err = 0.0
    for _ in range(cfg.n_quadruples):
        for _attempt in range(100000):
            idx = [int(n * rng.random()) for _ in range(4)]
            quad = pts[idx]
            diff = quad[:, None, :] - quad[None, :, :]
            diam = float(np.sqrt((diff * diff).sum(axis=-1)).max())
            if diam <= cap:
                break
        else:
            raise InteractionError("could not sample a quadruple within the diameter cap")
        res = w_kernel(quad, vres.coords, pair_w, mp, nodes=cfg.nodes)
        bound = kconst * float(np.exp(-sigma * diam))
        ok = abs(res.value) <= bound * (1 + EXCEED_RTOL)
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
    r = cfg.level
    _require_window_cap(cfg, "landau", int(np.count_nonzero(w.levels == 0)), "level-0 sites",
                        MAX_PAIR_TABLE_SITES)
    # t_r = q <chi, S^-2 chi'> on the level-0 points, labelled with level r, decays
    # as `decay` at p = 2 certifies; landau checks only what it reads itself
    lc = landau_coefficients(r, w, mp)
    write_csv(ctx.out / "landau.csv",
              ["i", "j", "site_i", "site_j", "d", "re_t", "im_t", "abs_t"],
              _pair_table([replace(s, r=r) for s in w.sites], lc.sites, w.distance_matrix(lc.sites),
                          lc.entries.real, lc.entries.imag, np.abs(lc.entries)))
    checks = [_residual_check(lc.dual, w.params, mp), _density_check(lc.c, w.params, mp)]
    params = {"level": r, "q": lc.q, "c": lc.c, "n_sites": len(lc.sites)}
    return CommandResult(checks, ["landau.csv"], params)


def _dynamics_chain(cfg: RunConfig, length: int):
    """The lowest-level chain of `length` sites."""
    lp = make_lattice_params(cfg)
    if lp.level_max != 0:
        raise FockError("dynamics commands run on lowest-level chains; set level_max = 0")
    w = build_chain(lp, length)
    # every site can carry a mode, so the window is checked against the Fock
    # engine's mode cap before any Gram factorization or dynamics
    if len(w) > MAX_MODES:
        raise FockError(f"window of {len(w)} modes exceeds the dynamics cap {MAX_MODES}")
    return w


def _cmd_lr(ctx: RunContext) -> CommandResult:
    cfg = ctx.cfg
    mp = make_magnetic_params(cfg)
    w = _dynamics_chain(cfg, cfg.chain_length)
    rates, inter, cres, velocity = _interaction_speed(w, mp, cfg)
    if ctx.negative_control:
        velocity = velocity / 100.0
    basis = mode_basis(w, mp)
    t_grid = np.linspace(0.0, cfg.t_max, cfg.n_t)
    report = lr_check(basis, inter, t_grid, rates["zeta"], velocity)
    tokens = np.array([site_token(s) for s in w.sites])
    i, j = np.array(report.pairs).T
    header = ["t", "site_g", "site_gp", "d", "f", "bound", "ratio"]
    # one row per (time, pair), times outermost; the bound is written capped
    # at the trivial limit, finite where the envelope overflows
    table = ColumnTable(t_grid[:, None], tokens[i], tokens[j], w.distance_matrix()[i, j],
                        report.f_table.max(axis=2), np.minimum(report.bounds, TRIVIAL_LIMIT),
                        report.ratios)
    cell = report.v_crit_cell
    v_crit_cell = None if cell is None else {
        "t": cell[0], "site_g": site_token(w.sites[cell[1]]),
        "site_gp": site_token(w.sites[cell[2]])}
    write_csv(ctx.out / "lr.csv", header, table)
    write_csv(ctx.out / "lr_exceedances.csv", header,
              ColumnTable(*(c[report.exceed] for c in table.columns)))
    write_json(ctx.out / "lr_summary.json", {
        "verdict": "pass" if report.passed else "fail",
        "n_exceed": report.n_exceed, "max_ratio": report.max_ratio,
        "max_ratio_off_diagonal": report.max_ratio_off_diagonal,
        "informative_cells": report.informative_cells,
        "g": OVERLAP_CONSTANT, "zeta": rates["zeta"], "xi": rates["xi"],
        "velocity": velocity, "c_phi": cres.value,
        "negative_control": ctx.negative_control,
        "chain_length": cfg.chain_length, "f0": cfg.f0, "mu": cfg.mu,
        "t_max": cfg.t_max, "n_t": cfg.n_t,
        "v_crit": report.v_crit, "v_cert_over_v_crit": report.v_cert_over_v_crit,
        "v_crit_cell": v_crit_cell, "v_crit_off_diagonal": report.v_crit_off_diagonal,
        "t_sat": report.t_sat,
        "flavor_policy": "F is the max over the four sharp dagger flavors; "
                         "the supremum over mixed combinations on the unit disc "
                         "lies between F and 2F and is not computed",
    })
    checks = [Check("light_cone_bound", report.passed,
                    {"n_exceed": report.n_exceed, "max_ratio": report.max_ratio,
                     "max_ratio_off_diagonal": report.max_ratio_off_diagonal,
                     "informative_cells": report.informative_cells,
                     "vacuous": report.informative_cells == 0,
                     "velocity": velocity})]
    params = {"g": OVERLAP_CONSTANT, "zeta": rates["zeta"], "velocity": velocity,
              "c_phi": cres.value, "negative_control": ctx.negative_control,
              "modes": basis.rank}
    return CommandResult(checks, ["lr.csv", "lr_exceedances.csv", "lr_summary.json"], params)


def _cmd_converge(ctx: RunContext) -> CommandResult:
    cfg = ctx.cfg
    mp = make_magnetic_params(cfg)
    lengths = cfg.chain_lengths
    w_big = _dynamics_chain(cfg, lengths[-1])
    rates, inter, cres, velocity = _interaction_speed(w_big, mp, cfg)
    center = w_big.center_index()
    lp = make_lattice_params(cfg)
    inners = [frozenset(w_big.index(s) for s in build_chain(lp, length).sites)
              for length in lengths[:-1]]
    basis = mode_basis(w_big, mp)
    t_grid = np.linspace(0.0, cfg.t_max, cfg.n_t)
    reports = list(zip(lengths[:-1], volume_convergence(
        basis, inter, inners, center, t_grid, rates["zeta"], velocity)))
    diffs = np.array([rep.diffs for _, rep in reports])
    bounds = np.array([rep.bounds for _, rep in reports])
    ratios = np.array([rep.ratios for _, rep in reports])
    write_csv(ctx.out / "converge.csv", ["length", "t", "diff", "bound", "ratio"],
              ColumnTable(np.array(lengths[:-1])[:, None], t_grid, diffs,
                          np.minimum(bounds, TRIVIAL_LIMIT), ratios))
    within = all(rep.passed for _, rep in reports)
    informative = sum(rep.informative_cells for _, rep in reports)
    monotone = True
    for (l1, r1), (l2, r2) in zip(reports, reports[1:]):
        # the smaller inner window omits more terms, so its difference dominates
        tol = EXCEED_RTOL * max(1.0, float(np.max(r1.diffs))) + 1e-12
        if np.any(r2.diffs > r1.diffs + tol):
            monotone = False
    checks = [
        Check("within_bound", within,
              {"max_ratio": max(rep.max_ratio for _, rep in reports),
               "informative": informative, "vacuous": informative == 0}),
        Check("monotone_in_window_gap", monotone,
              {"lengths": list(lengths)}),
    ]
    params = {"velocity": velocity, "g": OVERLAP_CONSTANT, "zeta": rates["zeta"],
              "c_phi": cres.value, "center_site": site_token(w_big.sites[center]),
              "boundary_sums": [rep.boundary_sum for _, rep in reports]}
    return CommandResult(checks, ["converge.csv"], params)


# report file -> (x column, y columns, key columns for the series suffix)
_PLOT_SOURCES = (
    ("bounds.csv", "n_sites", ("a_est", "b_est", "upper"), ()),
    ("decay_check.csv", "d", ("abs_entry", "bound"), ()),
    ("landau.csv", "d", ("abs_t",), ()),
    ("wkernel.csv", "diam", ("abs_w", "bound"), ()),
    ("lr.csv", "t", ("f", "bound"), ("site_g", "site_gp")),
    ("converge.csv", "t", ("diff", "bound"), ("length",)),
)


def _plot_rows(out: Path, sources: list[tuple], expected: dict):
    """plot.csv's rows from the `_PLOT_SOURCES` entries `sources`, each table
    read a line at a time; expected[stem] counts the rows each source gave.
    A row that cannot be read raises SerializeError naming its file and line."""
    for name, xcol, ycols, keycols in sources:
        stem = name[:-4]
        expected[stem] = 0
        with (out / name).open(encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            try:
                xi = header.index(xcol)
                yis = [header.index(y) for y in ycols]
                kis = [header.index(k) for k in keycols]
            except ValueError as exc:
                raise SerializeError(f"{name}: unexpected columns {header}") from exc
            for lineno, line in enumerate(fh, start=2):
                row = line.rstrip("\n").split(",")
                try:
                    suffix = "".join(":" + row[k] for k in kis)
                    x, ys = float(row[xi]), [float(row[yi]) for yi in yis]
                except (IndexError, ValueError) as exc:
                    raise SerializeError(f"{name}: line {lineno}: cannot read "
                                         f"{line.rstrip()!r} ({exc})") from None
                for y, value in zip(ycols, ys):
                    yield stem, y + suffix, x, value
                expected[stem] += len(ycols)


def _cmd_plotdata(ctx: RunContext) -> CommandResult:
    sources = [src for src in _PLOT_SOURCES if (ctx.out / src[0]).exists()]
    found = [src[0] for src in sources]
    expected = {}  # source stem -> its data rows times its y columns
    write_csv(ctx.out / "plot.csv", ["source", "series", "x", "y"],
              _plot_rows(ctx.out, sources, expected))
    # read the table back: every source row must be there once per y column
    counts, n_rows = dict.fromkeys(expected, 0), 0
    with (ctx.out / "plot.csv").open(encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            stem = line.split(",", 1)[0]
            counts[stem] = counts.get(stem, 0) + 1
            n_rows += 1
    checks = [Check("plot_rows_match_sources", counts == expected,
                    {"n_rows": n_rows, "sources": found, "rows": counts,
                     "expected": expected})]
    return CommandResult(checks, ["plot.csv"], {"sources": found})


_COMMANDS = {
    "gram": (_cmd_gram, "Gram matrix of the configured window with its invariants"),
    "bounds": (_cmd_bounds, "finite-window proxy of the frame bounds across nested windows"),
    "decay": (_cmd_decay, "inverse-power matrix elements against their certificate"),
    "cphi": (_cmd_cphi, "interaction decay functional and propagation speed"),
    "wkernel": (_cmd_wkernel, "two-body kernel samples against the decay budget"),
    "landau": (_cmd_landau, "level Hamiltonian coefficients with dual and constant checks"),
    "lr": (_cmd_lr, "light-cone verification for the density-density chain"),
    "converge": (_cmd_converge, "finite-window dynamics convergence study"),
    "plotdata": (_cmd_plotdata, "collect report CSVs into one long-format table"),
}


class _UsageError(Exception):
    """An argument list the parser rejected."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _usage_out(argv: list[str]) -> Path:
    """The --out directory named in an argument list the parser rejected."""
    for k, arg in enumerate(argv):
        if arg == "--out" and k + 1 < len(argv):
            return Path(argv[k + 1])
        if arg.startswith("--out="):
            return Path(arg[len("--out="):])
    return Path(_DEFAULT_OUT)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="latframe",
        description="Localized-frame analysis toolbox: frame bounds, decay "
                    "certificates, light cones and kernel checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", default=None, help="configuration file (INI sections)")
        sp.add_argument("--out", default=_DEFAULT_OUT, help="artifact directory")
        sp.add_argument("--seed", type=int, default=None, help="override [run] seed")
        if name == "lr":
            sp.add_argument("--negative-control", action="store_true",
                            help="shrink the propagation speed 100x to force exceedances")
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
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        command = argv[0] if argv and argv[0] in _COMMANDS else ""
        return _error_exit(_usage_out(argv), command, "usage", EXIT_INPUT, str(exc))
    command = args.command
    out = Path(args.out)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg = validate(replace(cfg, seed=args.seed))
        out.mkdir(parents=True, exist_ok=True)
        ctx = RunContext(cfg=cfg, out=out, negative_control=getattr(args, "negative_control", False))
        result = _COMMANDS[command][0](ctx)
        passed = all(c.passed for c in result.checks)
        code = EXIT_OK if passed else EXIT_VERIFY
        _print_checks(command, result.checks)
        summary = {
            "command": command,
            "status": "ok" if passed else "fail",
            "exit_code": code,
            "seed": cfg.seed,
            "negative_control": ctx.negative_control,
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
