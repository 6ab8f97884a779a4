"""Correctness checks of latframe artifacts, and the references they use.

Every reference here is computed apart from the program: closed-form
overlaps, a theta-series sum, a Fourier-side (Parseval) kernel quadrature
with the closed-form transform of the exponential potential, and the
singleton-probe part of the propagation functional.  The only program data
a reference takes is the dual generator's coefficient vector.  The rest of
the checks are properties the method must have (symmetries, trivial bounds,
monotonicity).  No check compares against stored program output.

Each `check_*` function returns a list of failure messages; empty means the
artifacts passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


# -- artifact readers ------------------------------------------------------

def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = Path(path).read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def csv_columns(path: Path, float_cols=(), str_cols=()) -> dict:
    header, rows = read_csv(path)
    out = {}
    for c in float_cols:
        k = header.index(c)
        out[c] = np.array([float(r[k]) for r in rows])
    for c in str_cols:
        k = header.index(c)
        out[c] = [r[k] for r in rows]
    return out


def site_xy(token: str, alpha: float, beta: float) -> tuple[int, float, float]:
    r, i, j = (int(p) for p in token.split(":"))
    return r, i * alpha, j * beta


# -- references ------------------------------------------------------------

def overlap_closed_form(g1, g2, ell: float = 1.0) -> complex:
    """<chi_g1, chi_g2> = exp(i g1^g2 / 2 ell^2) exp(-|g1 - g2|^2 / 4 ell^2)."""
    wedge = g1[0] * g2[1] - g1[1] * g2[0]
    d2 = (g1[0] - g2[0]) ** 2 + (g1[1] - g2[1]) ** 2
    return complex(np.exp(1j * wedge / (2 * ell**2)) * math.exp(-d2 / (4 * ell**2)))


def theta3_product(alpha: float, beta: float, ell: float = 1.0) -> float:
    """theta3(alpha^2 / 4 pi ell^2) * theta3(beta^2 / 4 pi ell^2), summed over |n| <= N."""
    def theta(tau: float) -> float:
        n_max = int(math.ceil(math.sqrt(745.0 / (math.pi * tau)))) + 1
        return math.fsum(math.exp(-math.pi * tau * n * n) for n in range(-n_max, n_max + 1))
    return theta(alpha**2 / (4 * math.pi * ell**2)) * theta(beta**2 / (4 * math.pi * ell**2))


def dressed_state(coeffs: np.ndarray, gamma, x: np.ndarray, y: np.ndarray,
                  ell: float = 1.0) -> np.ndarray:
    """A_g(x) = ell sqrt(2 pi) exp(-i g^x / 2 ell^2) v(x - g) on the grid (x, y).

    v = sum_m c_m psi_(0, m) with psi_(0, m)(u) = conj(z)^m / sqrt(m!)
    exp(-|z|^2 / 2) / (ell sqrt(2 pi)), z = (u_1 + i u_2) / (ell sqrt 2); the
    polynomial in conj(z) is evaluated by Horner's rule.
    """
    gx, gy = gamma
    w = ((x - gx) - 1j * (y - gy)) / (ell * math.sqrt(2.0))
    log_fact = np.array([math.lgamma(m + 1) for m in range(len(coeffs))])
    a = np.asarray(coeffs, dtype=complex) * np.exp(-0.5 * log_fact)
    poly = np.zeros_like(w)
    for am in a[::-1]:
        poly = poly * w + am
    phase = np.exp(-1j * (gx * y - gy * x) / (2 * ell**2))
    return phase * np.exp(-0.5 * np.abs(w) ** 2) * poly


def kernel_parseval(gammas, coeffs, c1: float, sigma1: float, ell: float = 1.0,
                    step: float = 0.2, pad: float = 18.0, tail_rate: float = 40.0) -> complex:
    """w = int int c1 e^{-sigma1 |x - y|} conj(A4) A3 (x) conj(A2) A1 (y) dx dy
    as the Fourier-side sum (2 pi)^-2 sum_k W^(k) Bx^(k) By^(-k) dk^2, with the
    closed form W^(k) = 2 pi c1 sigma1 / (sigma1^2 + |k|^2)^(3/2).

    The box holds every dressed state to `pad` magnetic lengths and leaves
    `tail_rate / sigma1` more for the periodic images of W, whose error is
    about exp(-tail_rate).
    """
    g = np.asarray(gammas, dtype=float)
    lo, hi = g.min(axis=0) - pad * ell, g.max(axis=0) + pad * ell
    span = float(np.max(hi - lo)) + tail_rate / sigma1
    n = int(math.ceil(span / step / 2.0)) * 2
    centre = 0.5 * (lo + hi)
    ax = centre[0] + step * (np.arange(n) - n // 2)
    ay = centre[1] + step * (np.arange(n) - n // 2)
    x, y = np.meshgrid(ax, ay, indexing="ij")
    a1, a2, a3, a4 = (dressed_state(coeffs, gk, x, y, ell) for gk in g)
    bx = np.conj(a4) * a3
    by = np.conj(a2) * a1
    fx = np.fft.fft2(bx)
    fy = np.fft.fft2(by)
    neg = (-np.arange(n)) % n
    k = 2 * math.pi * np.fft.fftfreq(n, d=step)
    k2 = k[:, None] ** 2 + k[None, :] ** 2
    w_hat = 2 * math.pi * c1 * sigma1 / (sigma1**2 + k2) ** 1.5
    # (2 pi)^-2 dk^2 step^4 = step^2 / n^2
    return complex(np.sum(w_hat * fx * fy[np.ix_(neg, neg)]) * step**2 / n**2)


def ball_sites(alpha: float, beta: float, radius: float) -> np.ndarray:
    """Points (i alpha, j beta) with alpha_star (|i alpha| + |j beta|) <= radius."""
    a_star = min(alpha, beta)
    imax = int(radius / (a_star * alpha)) + 1
    jmax = int(radius / (a_star * beta)) + 1
    pts = [(i * alpha, j * beta) for i in range(-imax, imax + 1) for j in range(-jmax, jmax + 1)
           if a_star * (abs(i) * alpha + abs(j) * beta) <= radius * (1 + 1e-12)]
    return np.array(pts)


def c_phi_singleton(pts: np.ndarray, a_star: float, f0: float, mu: float,
                    zeta: float, xi: float, nu: float = 2.0) -> float:
    """sup over sites g, s of e^{zeta d(g,s)} sum_Z k^2 f(Z) D(Z) e^{-zeta d(g,Z)}
    e^{-xi d(Z,s)} for the density-density pair terms (k = 2, D = (1 + diam)^nu)."""
    d = a_star * np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    p, q = np.triu_indices(len(pts), k=1)
    weight = 4.0 * f0 * np.exp(-mu * d[p, q]) * (1.0 + d[p, q]) ** nu
    to_term = np.minimum(d[p], d[q])  # (terms, sites): d(Z, site)
    inner = np.exp(-xi * to_term).T @ (weight[:, None] * np.exp(-zeta * to_term))
    return float(np.max(np.exp(zeta * d) * inner))


# -- per-workload checks ---------------------------------------------------

def _exit_ok(op_dir: Path) -> list[str]:
    summary = json.loads((op_dir / "summary.json").read_text())
    if summary.get("status") != "ok" or summary.get("exit_code") != 0:
        return [f"{op_dir.name}: summary status {summary.get('status')}"]
    return []


def check_lightcone(dirs: dict, params: dict, full: bool) -> list[str]:
    d = dirs["lr"]
    errs = _exit_ok(d)
    summ = json.loads((d / "lr_summary.json").read_text())
    if summ["n_exceed"] != 0 or read_csv(d / "lr_exceedances.csv")[1]:
        errs.append(f"lr: {summ['n_exceed']} light-cone exceedances")
    col = csv_columns(d / "lr.csv", ("t", "f", "bound"), ("site_g", "site_gp"))
    n = params["chain_length"]
    a, b = params["alpha"], params["beta"]
    xy_g = [site_xy(s, a, b)[1:] for s in col["site_g"]]
    xy_p = [site_xy(s, a, b)[1:] for s in col["site_gp"]]
    if len(col["t"]) != params["n_t"] * n * n:
        errs.append(f"lr: {len(col['t'])} rows, want {params['n_t'] * n * n}")
    if np.any(col["f"] > 2.0 + 1e-12):
        errs.append(f"lr: F = {col['f'].max()} above the trivial bound 2")
    if not np.all(np.isfinite(col["bound"])):
        errs.append("lr: non-finite envelope")
    t0 = col["t"] == 0.0
    closed = np.array([abs(overlap_closed_form(p, q)) for p, q in zip(xy_g, xy_p)])
    dev0 = float(np.max(np.abs(col["f"][t0] - closed[t0]))) if t0.any() else math.inf
    if not dev0 <= 1e-13:
        errs.append(f"lr: t = 0 rows differ from |<chi_i, chi_j>| by {dev0:.3e}")
    # reflection of the chain, i -> n - 1 - i, maps F onto itself
    xs = sorted({p[0] for p in xy_g})
    pos = {x: k for k, x in enumerate(xs)}
    table = {}
    for t, p, q, f in zip(col["t"], xy_g, xy_p, col["f"]):
        table[(t, pos[p[0]], pos[q[0]])] = f
    dev = max(abs(f - table[(t, n - 1 - i, n - 1 - j)]) for (t, i, j), f in table.items())
    if not dev <= 1e-12:
        errs.append(f"lr: reflection symmetry broken by {dev:.3e}")
    return errs


def check_convergence(dirs: dict, params: dict, full: bool) -> list[str]:
    d = dirs["converge"]
    errs = _exit_ok(d)
    col = csv_columns(d / "converge.csv", ("length", "t", "diff"))
    lengths = sorted(set(col["length"].astype(int)))
    if lengths != list(params["chain_lengths"][:-1]):
        errs.append(f"converge: inner lengths {lengths}")
    diff = col["diff"]
    at0 = diff[col["t"] == 0.0]
    if at0.size == 0 or np.any(np.abs(at0) > 1e-12):
        errs.append(f"converge: difference at t = 0 is {at0}")
    if np.any(diff < 0.0) or np.any(diff > 2.0 + 1e-12):
        errs.append(f"converge: difference outside [0, 2]: {diff.min()}..{diff.max()}")
    by_len = {ln: diff[col["length"] == ln] for ln in lengths}
    for small, large in zip(lengths, lengths[1:]):
        if np.any(by_len[large] > by_len[small] + 1e-12):
            errs.append(f"converge: inner length {large} differs more than {small}")
    return errs


def check_kernel(dirs: dict, params: dict, full: bool) -> list[str]:
    d = dirs["wkernel"]
    errs = _exit_ok(d)
    header, rows = read_csv(d / "wkernel.csv")
    col = {h: [r[k] for r in rows] for k, h in enumerate(header)}
    if len(rows) != params["n_quadruples"]:
        errs.append(f"wkernel: {len(rows)} rows")
    abs_w = np.array(col["abs_w"], dtype=float)
    if not all(c == "true" for c in col["converged"]):
        errs.append("wkernel: unconverged value")
    if np.any(abs_w > np.array(col["bound"], dtype=float) * (1 + 1e-9)):
        errs.append("wkernel: value above its decay budget")
    if not full or errs:
        return errs
    from latframe.interactions import exponential_potential, v_omega, w_kernel
    from latframe.lattice import LatticeParams, build_window
    from latframe.magnetic import MagneticParams

    mp = MagneticParams(ell_b=1.0, eps_b=1.0)
    window = build_window(LatticeParams(params["alpha"], params["beta"], params["radius"]))
    vres = v_omega(window, mp)
    keys = ("g1x", "g1y", "g2x", "g2y", "g3x", "g3y", "g4x", "g4y")
    for k, row in enumerate(rows):
        quad = np.array([float(col[c][k]) for c in keys]).reshape(4, 2)
        value = complex(float(col["re_w"][k]), float(col["im_w"][k]))
        ref = kernel_parseval(quad, vres.coords.coeffs, params["c1"], params["sigma1"])
        rel = abs(ref - value) / abs(value)
        if not rel <= 1e-6:
            errs.append(f"wkernel: row {k} differs from the Parseval reference by {rel:.2e} rel")
        if k == 0:
            swapped = quad[[1, 0, 3, 2]]
            pot = exponential_potential(params["c1"], params["sigma1"])
            w_sw = w_kernel(swapped, vres.coords, pot, mp, nodes=params["nodes"]).value
            rel_sw = abs(w_sw - value.conjugate()) / abs(value)
            if not rel_sw <= 1e-10:
                errs.append(f"wkernel: w(g2, g1, g4, g3) != conj w(g1, g2, g3, g4), "
                            f"{rel_sw:.2e} rel")
    return errs


def hermitian_in_modulus(path: Path, col_name: str) -> float:
    """Largest |M_ij| - |M_ji| over the element table, relative to max |M|."""
    col = csv_columns(path, (col_name,), ("i", "j"))
    table = {(i, j): v for i, j, v in zip(col["i"], col["j"], col[col_name])}
    top = max(col[col_name].max(), 1e-300)
    return max(abs(v - table[(j, i)]) for (i, j), v in table.items()) / top


def check_certificate(dirs: dict, params: dict, full: bool) -> list[str]:
    errs = []
    for d in dirs.values():
        errs += _exit_ok(d)
    a, b = params["alpha"], params["beta"]
    if "gram" in dirs:
        col = csv_columns(dirs["gram"] / "gram.csv", ("re", "im"), ("site_i", "site_j"))
        dev = 0.0
        for si, sj, re, im in zip(col["site_i"], col["site_j"], col["re"], col["im"]):
            ri, *gi = site_xy(si, a, b)
            rj, *gj = site_xy(sj, a, b)
            ref = overlap_closed_form(gi, gj) if ri == rj else 0.0
            dev = max(dev, abs(complex(re, im) - ref))
        if not dev <= 1e-13:
            errs.append(f"gram: entries differ from the closed form by {dev:.3e}")
    if "bounds" in dirs:
        col = csv_columns(dirs["bounds"] / "bounds.csv", ("a_est", "b_est", "upper"))
        upper = theta3_product(a, b)
        if np.any(col["b_est"] > upper * (1 + 1e-12)) or np.any(col["a_est"] > col["b_est"]):
            errs.append(f"bounds: b_est {col['b_est']} vs theta3 bound {upper}")
        if np.any(np.abs(col["upper"] - upper) > 1e-13 * upper):
            errs.append(f"bounds: closed-form upper {col['upper']} vs theta3 sum {upper}")
    for label, name, column in (("decay_p1", "decay_check.csv", "abs_entry"),
                                ("decay_p2", "decay_check.csv", "abs_entry"),
                                ("landau", "landau.csv", "abs_t"),
                                ("landau_r16", "landau.csv", "abs_t")):
        if label in dirs:
            dev = hermitian_in_modulus(dirs[label] / name, column)
            if not dev <= 1e-12:
                errs.append(f"{label}: element table not Hermitian in modulus ({dev:.2e})")
    if "cphi" in dirs:
        res = json.loads((dirs["cphi"] / "cphi.json").read_text())
        v_ref = 16.0 * res["g"] * res["value"] / res["zeta"]
        if abs(res["velocity"] - v_ref) > 1e-13 * v_ref:
            errs.append(f"cphi: velocity {res['velocity']} != 16 g C / zeta = {v_ref}")
        if full:
            pts = ball_sites(a, b, params["cphi_radius"])
            single = c_phi_singleton(pts, min(a, b), params["f0"], params["mu"],
                                     res["zeta"], res["xi"])
            if not res["value"] >= single * (1 - 1e-12):
                errs.append(f"cphi: C = {res['value']} below the singleton supremum {single}")
    return errs


CHECKS = {"lightcone": check_lightcone, "convergence": check_convergence,
          "kernel": check_kernel, "certificate": check_certificate}
