"""Command-line front end: artifacts, verdicts, exit codes, error records."""

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import latframe
import latframe.cli
import latframe.frame_analysis
import latframe.quadratic
from latframe.cli import main
from latframe.config import (REFERENCE_CONFIG, RunConfig, load_config, make_magnetic_params,
                             make_window)
from latframe.fock import MAX_MODES
from latframe.interactions import BRUTE_MAX_SITES, KERNEL_FFT_MAX, kernel_fft_side
from latframe.magnetic import overlap_matrix
from latframe.serialize import fmt_float
from oracles import read_csv

SMALL_GRAM = """\
[lattice]
radius = 8
"""

CHAIN5 = """\
[lattice]
alpha = 1.0
beta = 1.0
shape = chain
chain_length = 5
"""

LR_FAST = """\
[lattice]
alpha = 1.0
beta = 1.0
shape = chain
chain_length = 4

[dynamics]
t_max = 0.2
n_t = 3
"""

WKERNEL_FAST = """\
[lattice]
alpha = 2.8
beta = 2.8
radius = 20

[kernel]
nodes = 32
n_quadruples = 2
"""


def run_cli(tmp_path, command, cfg_text=None, extra=(), name="run"):
    out = tmp_path / name
    argv = [command, "--out", str(out)]
    if cfg_text is not None:
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(cfg_text)
        argv += ["--config", str(cfg)]
    code = main(argv + list(extra))
    summary = json.loads((out / "summary.json").read_text())
    return code, out, summary


def check_map(summary):
    return {c["name"]: c["passed"] for c in summary["checks"]}


# ------------------------------------------------------------------ verdicts

def test_gram_artifacts(tmp_path):
    code, out, summary = run_cli(tmp_path, "gram", SMALL_GRAM)
    assert code == 0
    assert summary["status"] == "ok"
    assert all(check_map(summary).values())
    assert summary["artifacts"] == ["gram.csv", "summary.json"]
    n = summary["parameters"]["n_sites"]
    assert n == 13
    cfg = load_config(tmp_path / "run.ini")
    window = make_window(cfg)
    assert summary["parameters"]["window_hash"] == window.content_hash()
    header, rows = read_csv(out / "gram.csv")
    assert header == ["i", "j", "site_i", "site_j", "d", "re", "im"]
    assert [(int(r[0]), int(r[1])) for r in rows] == [(i, j) for i in range(n) for j in range(n)]
    # the CSV is the overlap matrix, entry by entry
    z = overlap_matrix(window, make_magnetic_params(cfg))
    for row in rows:
        i, j = int(row[0]), int(row[1])
        assert complex(float(row[5]), float(row[6])) == pytest.approx(z[i, j], abs=1e-13)


def test_gram_hermitian_check_catches_a_skewed_entry(tmp_path, monkeypatch):
    real = latframe.frame_analysis.overlap_matrix

    def skewed(window, mp):
        z = real(window, mp)
        z[0, 1] += 1e-9  # eigvalsh reads the lower triangle, so the spectrum stays
        return z

    monkeypatch.setattr(latframe.frame_analysis, "overlap_matrix", skewed)
    code, _, summary = run_cli(tmp_path, "gram", SMALL_GRAM)
    assert code == 1
    failed = [c for c in summary["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["hermitian"]
    assert failed[0]["values"]["max_deviation"] == pytest.approx(1e-9, rel=1e-6)


def test_gram_deterministic(tmp_path):
    _, out1, _ = run_cli(tmp_path, "gram", SMALL_GRAM, name="first")
    _, out2, _ = run_cli(tmp_path, "gram", SMALL_GRAM, name="second")
    for fname in ("gram.csv", "summary.json"):
        assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()


def test_bounds_chain_windows(tmp_path):
    cfg = "[lattice]\nalpha = 1.0\nbeta = 1.0\nshape = chain\n"
    code, out, summary = run_cli(tmp_path, "bounds", cfg)
    assert code == 0
    header, rows = read_csv(out / "bounds.csv")
    assert len(rows) == 3  # default nested chain lengths
    assert [int(r[0]) for r in rows] == [4, 6, 8]
    assert all(check_map(summary).values())
    a_trend = summary["parameters"]["a_trend"]
    b_trend = summary["parameters"]["b_trend"]
    assert all(a <= b for a, b in zip(a_trend, b_trend))


def test_bounds_closed_form_check_catches_a_halved_constant(tmp_path, monkeypatch):
    real = latframe.frame_analysis.bessel_bound
    monkeypatch.setattr(latframe.frame_analysis, "bessel_bound", lambda lp, mp: real(lp, mp) / 2)
    code, _, summary = run_cli(tmp_path, "bounds", SMALL_GRAM)
    assert code == 1
    failed = [c for c in summary["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["b_below_closed_form"]
    assert failed[0]["values"]["max_b"] > failed[0]["values"]["upper"]


def test_decay_certificate_and_table(tmp_path):
    code, out, summary = run_cli(tmp_path, "decay", SMALL_GRAM)
    assert code == 0
    cm = check_map(summary)
    assert cm["zero_violations"]
    assert cm["fitted_rate_at_least_lambda_p"]
    cert = json.loads((out / "decay_certificate.json").read_text())
    for key in ("p", "g", "lam", "delta", "eps", "theta", "s_min", "s_max",
                "c_eps", "r_p", "d_p", "e_p", "lambda_p", "a_p"):
        assert key in cert
    assert cm["dual_residual"]
    header, rows = read_csv(out / "decay_check.csv")
    n_sites = cert["n_sites"]
    assert n_sites == 13  # every level-0 site of the radius-8 window
    assert len(rows) == n_sites * n_sites
    for row in rows:
        assert float(row[5]) <= float(row[6]) * (1 + 1e-9)  # abs_entry vs bound


@pytest.mark.parametrize("command,cfg,table", [
    ("decay", SMALL_GRAM, "decay_check.csv"),
])
def test_decay_table_writes_the_report_arrays(tmp_path, monkeypatch, command, cfg, table):
    real, reports = latframe.cli.verify_decay, []

    def captured(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(latframe.cli, "verify_decay", captured)
    code, out, _ = run_cli(tmp_path, command, cfg)
    assert code == 0 and len(reports) == 1
    header, rows = read_csv(out / table)
    for name, array in (("bound", reports[0].bounds), ("ratio", reports[0].ratio)):
        k = header.index(name)
        assert [r[k] for r in rows] == [fmt_float(x) for x in array.ravel()], name


def test_cphi_brute_force_agreement(tmp_path):
    code, out, summary = run_cli(tmp_path, "cphi", CHAIN5)
    assert code == 0
    cm = check_map(summary)
    assert cm["finite_nonnegative"]
    assert cm["family_matches_brute_force"]
    payload = json.loads((out / "cphi.json").read_text())
    assert payload["brute_force_value"] == pytest.approx(payload["value"], rel=1e-9)
    assert payload["velocity"] == pytest.approx(
        16.0 * payload["g"] * payload["value"] / payload["zeta"], rel=1e-12)
    assert len(payload["attained_sites"]) == payload["family_size"] or payload["family_size"] >= 1


@pytest.mark.parametrize("cfg,n_sites", [
    ("[lattice]\nalpha = 1.0\nbeta = 1.0\nshape = chain\nchain_length = 12\n", 12),
    ("[lattice]\nalpha = 1.0\nbeta = 2.0\nradius = 2\n", 7),
], ids=["chain12", "ball7"])
def test_cphi_brute_force_agreement_up_to_the_library_cap(tmp_path, cfg, n_sites):
    # the 12-site chain is the largest window the brute-force sweep accepts
    assert n_sites <= BRUTE_MAX_SITES
    code, out, summary = run_cli(tmp_path, "cphi", cfg)
    assert code == 0
    assert check_map(summary)["family_matches_brute_force"]
    payload = json.loads((out / "cphi.json").read_text())
    assert payload["n_terms"] == n_sites * (n_sites - 1) // 2
    assert payload["brute_force_value"] == pytest.approx(payload["value"], rel=1e-9)


def test_cphi_deterministic(tmp_path):
    _, out1, _ = run_cli(tmp_path, "cphi", CHAIN5, name="first")
    _, out2, _ = run_cli(tmp_path, "cphi", CHAIN5, name="second")
    assert (out1 / "cphi.json").read_bytes() == (out2 / "cphi.json").read_bytes()


def test_landau_two_level_run(tmp_path):
    cfg = "[lattice]\nradius = 10\nlevel_max = 1\n\n[landau]\nlevel = 1\n"
    code, out, summary = run_cli(tmp_path, "landau", cfg)
    assert code == 0
    cm = check_map(summary)
    assert list(cm) == ["dual_residual", "constants_equal_inverse_density"]
    assert all(cm.values())
    assert summary["parameters"]["q"] == pytest.approx(1.5)  # level spacing * (1 + 1/2)
    assert summary["parameters"]["n_sites"] == 25
    # <chi, S^-1 chi> is one number, recorded once beside its check
    assert summary["artifacts"] == ["landau.csv", "summary.json"]
    c = summary["parameters"]["c"]
    assert summary["checks"][1]["values"]["c"] == c
    assert c == pytest.approx(0.5, abs=1e-10)  # 1 / N, N = 2 pi / (sqrt(pi) sqrt(pi))


def _scale_dual(monkeypatch):
    # the elements and the residual read the same dual, so a dual off by 1e-6
    # agrees with itself; S w_1 = chi_0 does not hold for it
    real = latframe.frame_analysis.dual_coefficients

    def scaled(lp, mp, p, tol=latframe.frame_analysis.DUAL_TOL):
        dual = real(lp, mp, p, tol)
        return replace(dual, coeffs=dual.coeffs * (1 + 1e-6))

    monkeypatch.setattr(latframe.frame_analysis, "dual_coefficients", scaled)


def test_landau_dual_check_catches_a_scaled_dual(tmp_path, monkeypatch):
    _scale_dual(monkeypatch)
    code, _, summary = run_cli(tmp_path, "landau", "[lattice]\nradius = 10\nlevel_max = 1\n")
    assert code == 1
    failed = [c for c in summary["checks"] if not c["passed"]]
    # c_r is read from the same scaled dual, so it misses 1 / N as well
    assert [c["name"] for c in failed] == ["dual_residual", "constants_equal_inverse_density"]
    assert failed[0]["values"]["max_residual"] > 1e-7


def test_landau_solves_the_dual_once(tmp_path, monkeypatch):
    # t_r, the residual and c_r all come from one power-2 dual
    real, powers = latframe.frame_analysis.dual_coefficients, []

    def counted(lp, mp, p, tol=latframe.frame_analysis.DUAL_TOL):
        powers.append(p)
        return real(lp, mp, p, tol)

    monkeypatch.setattr(latframe.frame_analysis, "dual_coefficients", counted)
    code, _, _ = run_cli(tmp_path, "landau", "[lattice]\nradius = 10\nlevel_max = 1\n")
    assert code == 0
    assert powers == [2]


def test_landau_constants_check_catches_a_scaled_constant(tmp_path, monkeypatch):
    real = latframe.cli.landau_coefficients

    def scaled(r, window, mp):
        level_r = real(r, window, mp)
        return replace(level_r, c=level_r.c * (1 + 1e-9))

    monkeypatch.setattr(latframe.cli, "landau_coefficients", scaled)
    code, _, summary = run_cli(tmp_path, "landau", "[lattice]\nradius = 10\nlevel_max = 1\n")
    assert code == 1
    failed = [c for c in summary["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["constants_equal_inverse_density"]
    assert failed[0]["values"]["max_deviation"] > 1e-10


def _written_tables(monkeypatch):
    """name -> (header, flat columns) of every table the commands write."""
    real, tables = latframe.cli.write_csv, {}

    def captured(path, header, rows):
        tables[Path(path).name] = (header, [np.ravel(c) for c in rows.columns])
        return real(path, header, rows)

    monkeypatch.setattr(latframe.cli, "write_csv", captured)
    return tables


@pytest.mark.parametrize("level", [0, 1])
def test_decay_p2_covers_landau_hopping_decay(tmp_path, monkeypatch, level):
    # t_r = q <chi, S^-2 chi'>, so decay at p = 2 on the same lattice checks
    # the decay of every hopping coefficient that landau writes (the
    # certificate workload's landau window, with both levels)
    lattice = f"[lattice]\nalpha = {ROOT_PI}\nbeta = {ROOT_PI}\nradius = 12.0\nlevel_max = 1\n"
    tables = _written_tables(monkeypatch)
    code, _, decay = run_cli(tmp_path, "decay", lattice + "[certificate]\np = 2\n", name="decay")
    assert code == 0 and check_map(decay)["zero_violations"]
    code, _, landau = run_cli(tmp_path, "landau", lattice + f"[landau]\nlevel = {level}\n",
                              name="landau")
    assert code == 0
    (dh, dc), (lh, lc) = tables["decay_check.csv"], tables["landau.csv"]
    dcol, lcol = dict(zip(dh, dc)), dict(zip(lh, lc))
    n = decay["parameters"]["n_sites"]
    assert n == landau["parameters"]["n_sites"] == 25 and lcol["abs_t"].size == n * n
    for key in ("site_i", "site_j"):  # the same lattice points, level aside
        assert ([t.split(":", 1)[1] for t in lcol[key]]
                == [t.split(":", 1)[1] for t in dcol[key]])
        assert {t.split(":", 1)[0] for t in lcol[key]} == {str(level)}
    assert np.array_equal(lcol["d"], dcol["d"])
    q = landau["parameters"]["q"]
    assert q == level + 0.5
    scaled = q * dcol["abs_entry"]
    assert np.all(np.abs(lcol["abs_t"] - scaled) <= 1e-15 * scaled)


@pytest.mark.parametrize("p", [1, 2])
def test_decay_dual_check_catches_a_scaled_dual(tmp_path, monkeypatch, p):
    _scale_dual(monkeypatch)
    code, _, summary = run_cli(tmp_path, "decay", f"[lattice]\nradius = 10\n[certificate]\np = {p}\n")
    assert code == 1
    failed = [c for c in summary["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["dual_residual"]
    assert failed[0]["values"]["max_residual"] > 1e-7


ROOT_PI = repr(math.sqrt(math.pi))
ROOT_PI_R16 = f"[lattice]\nalpha = {ROOT_PI}\nbeta = {ROOT_PI}\nradius = 16.0\n"


@pytest.mark.parametrize("command,extra", [("decay", "[certificate]\np = 2\n"), ("landau", "")])
def test_inverse_powers_at_radius_16(tmp_path, command, extra):
    # (s_min / s_max)^2 once rounded r_p to 1 here and the commands exited 3
    code, out, summary = run_cli(tmp_path, command, ROOT_PI_R16 + extra)
    assert code == 0 and summary["status"] == "ok"
    assert summary["parameters"]["n_sites"] == 61
    assert all(check_map(summary).values())


def test_wkernel_sampling(tmp_path):
    code, out, summary = run_cli(tmp_path, "wkernel", WKERNEL_FAST)
    assert code == 0
    cm = check_map(summary)
    assert cm["dual_generator_residual"]
    assert cm["all_within_decay_bound"]
    assert cm["quadrature_converged"]
    header, rows = read_csv(out / "wkernel.csv")
    assert len(rows) == 2
    for row in rows:
        assert float(row[11]) <= float(row[12]) * (1 + 1e-9)  # abs_w vs bound
    # each check records its slack
    values = {c["name"]: c["values"] for c in summary["checks"]}
    ratios = [float(r[11]) / float(r[12]) for r in rows]
    assert values["all_within_decay_bound"]["max_ratio"] == pytest.approx(max(ratios), rel=1e-12)
    rel_errs = [float(r[13]) / float(r[11]) for r in rows]
    assert values["quadrature_converged"]["max_rel_err"] == pytest.approx(max(rel_errs), rel=1e-12)
    assert values["quadrature_converged"]["max_rel_err"] <= 1e-6


def test_wkernel_seed_reproducible(tmp_path):
    cfg = WKERNEL_FAST.replace("n_quadruples = 2", "n_quadruples = 1")
    _, out1, s1 = run_cli(tmp_path, "wkernel", cfg, extra=["--seed", "7"], name="first")
    _, out2, s2 = run_cli(tmp_path, "wkernel", cfg, extra=["--seed", "7"], name="second")
    assert s1["seed"] == s2["seed"] == 7
    assert (out1 / "wkernel.csv").read_bytes() == (out2 / "wkernel.csv").read_bytes()


def test_wkernel_residual_check_catches_an_unsolved_dual(tmp_path, monkeypatch):
    real = latframe.cli.v_omega
    monkeypatch.setattr(latframe.cli, "v_omega",
                        lambda window, mp: replace(real(window, mp), residual=1e-6))
    code, _, summary = run_cli(tmp_path, "wkernel", WKERNEL_FAST)
    assert code == 1
    failed = [c for c in summary["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["dual_generator_residual"]
    assert failed[0]["values"]["residual"] == 1e-6


def test_wkernel_bound_check_catches_a_shrunk_budget(tmp_path, monkeypatch):
    _, _, clean = run_cli(tmp_path, "wkernel", WKERNEL_FAST, name="clean")
    ratio = {c["name"]: c["values"] for c in clean["checks"]}["all_within_decay_bound"]["max_ratio"]
    real = latframe.cli.k_sigma

    def shrunk(*args):
        sigma, k = real(*args)
        return sigma, k * ratio / 2.0

    monkeypatch.setattr(latframe.cli, "k_sigma", shrunk)
    code, _, summary = run_cli(tmp_path, "wkernel", WKERNEL_FAST, name="shrunk")
    assert code == 1
    failed = [c for c in summary["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["all_within_decay_bound"]
    assert failed[0]["values"]["max_ratio"] == pytest.approx(2.0, rel=1e-9)


def test_wkernel_convergence_check_catches_an_unconverged_value(tmp_path, monkeypatch):
    real = latframe.cli.w_kernel
    monkeypatch.setattr(latframe.cli, "w_kernel",
                        lambda *args, **kw: replace(real(*args, **kw), converged=False))
    code, out, summary = run_cli(tmp_path, "wkernel", WKERNEL_FAST)
    assert code == 1
    failed = [c for c in summary["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["quadrature_converged"]
    _, rows = read_csv(out / "wkernel.csv")
    assert [r[14] for r in rows] == ["false", "false"]


def test_lr_light_cone(tmp_path):
    code, out, summary = run_cli(tmp_path, "lr", LR_FAST)
    assert code == 0
    assert check_map(summary)["light_cone_bound"]
    payload = json.loads((out / "lr_summary.json").read_text())
    assert payload["verdict"] == "pass"
    assert payload["n_exceed"] == 0
    assert payload["negative_control"] is False
    header, rows = read_csv(out / "lr.csv")
    assert len(rows) == 3 * 16  # t points x site pairs
    _, exceed = read_csv(out / "lr_exceedances.csv")
    assert exceed == []


def test_lr_tables_write_the_report_arrays(tmp_path, monkeypatch):
    # every third cell is marked as an exceedance: the CLI writes the marked
    # rows and the report's ratios, and decides nothing itself
    real, reports = latframe.cli.lr_check, []

    def marked(*args, **kwargs):
        rep = real(*args, **kwargs)
        marks = np.arange(rep.ratios.size).reshape(rep.ratios.shape) % 3 == 0
        reports.append(replace(rep, exceed=marks))
        return reports[-1]

    monkeypatch.setattr(latframe.cli, "lr_check", marked)
    _, out, _ = run_cli(tmp_path, "lr", LR_FAST)
    report, = reports
    header, rows = read_csv(out / "lr.csv")
    k = header.index("ratio")
    assert [r[k] for r in rows] == [fmt_float(x) for x in report.ratios.ravel()]
    _, exceed = read_csv(out / "lr_exceedances.csv")
    assert exceed == [r for r, hit in zip(rows, report.exceed.ravel()) if hit]
    assert len(exceed) == 16


def test_converge_table_writes_the_report_arrays(tmp_path, monkeypatch):
    # each report's ratios are replaced by markers: the CLI writes them as
    # they come, and computes no ratio itself
    real, reports = latframe.cli.volume_convergence, []

    def marked(*args, **kwargs):
        reps = [replace(rep, ratios=10.0 * (k + 1) + np.arange(rep.ratios.size))
                for k, rep in enumerate(real(*args, **kwargs))]
        reports.extend(reps)
        return reps

    monkeypatch.setattr(latframe.cli, "volume_convergence", marked)
    _, out, _ = run_cli(tmp_path, "converge", "[lattice]\nalpha = 1.0\nbeta = 1.0\nshape = chain\n"
                        "\n[dynamics]\nt_max = 0.2\nn_t = 3\n")
    assert len(reports) == 2
    header, rows = read_csv(out / "converge.csv")
    k = header.index("ratio")
    assert [r[k] for r in rows] == [fmt_float(x) for rep in reports for x in rep.ratios]


def test_lr_off_diagonal_ratio_and_informative_cells(tmp_path):
    # the 8-site chain up to its saturation time d_max / v = 7 / 12861.4
    cfg = ("[lattice]\nalpha = 1.0\nbeta = 1.0\nshape = chain\nchain_length = 8\n\n"
           "[dynamics]\nt_max = 5.44272e-4\nn_t = 2\n")
    code, out, summary = run_cli(tmp_path, "lr", cfg)
    assert code == 0
    payload = json.loads((out / "lr_summary.json").read_text())
    record = next(c for c in summary["checks"] if c["name"] == "light_cone_bound")
    for key in ("max_ratio_off_diagonal", "informative_cells"):
        assert record["values"][key] == payload[key]
    header, rows = read_csv(out / "lr.csv")
    col = {name: np.array([float(r[k]) for r in rows]) for k, name in enumerate(header)
           if name in ("t", "d", "bound", "ratio")}
    # the diagonal cell at t = 0 has F = Z_gg = 1, so the plain maximum carries no information
    assert payload["max_ratio"] == pytest.approx(1.0, rel=1e-12)
    off = col["d"] > 0
    assert payload["max_ratio_off_diagonal"] == pytest.approx(col["ratio"][off].max(), rel=1e-12)
    assert payload["max_ratio_off_diagonal"] < 1.0
    # only cells past t = 0 count: at t = 0 the bound holds by construction
    later = col["t"] > 0
    assert payload["informative_cells"] == int(np.count_nonzero(col["bound"][later] < 2.0))
    assert 0 < payload["informative_cells"] < np.count_nonzero(later)
    assert record["values"]["vacuous"] is False


def test_lr_summary_reports_v_crit(tmp_path):
    # v_crit = max over cells with t > 0 of (d + ln(F/g)/zeta)/t, from lr.csv
    _, out, _ = run_cli(tmp_path, "lr", LR_FAST)
    payload = json.loads((out / "lr_summary.json").read_text())
    header, rows = read_csv(out / "lr.csv")
    k = {name: header.index(name) for name in ("t", "site_g", "site_gp", "d", "f")}
    speed = {(float(r[k["t"]]), r[k["site_g"]], r[k["site_gp"]]):
             (float(r[k["d"]]) + math.log(float(r[k["f"]]) / payload["g"]) / payload["zeta"])
             / float(r[k["t"]]) for r in rows if float(r[k["t"]]) > 0}
    assert payload["v_crit"] == pytest.approx(max(speed.values()), rel=1e-9)
    cell = payload["v_crit_cell"]
    assert speed[(cell["t"], cell["site_g"], cell["site_gp"])] == pytest.approx(
        payload["v_crit"], rel=1e-9)
    assert payload["v_crit"] > 0
    assert payload["v_cert_over_v_crit"] == pytest.approx(
        payload["velocity"] / payload["v_crit"], rel=1e-12)
    # the certified speed is thousands of times what this front needs
    assert payload["v_cert_over_v_crit"] > 100.0


def test_lr_summary_reports_t_sat_and_off_diagonal_v_crit(tmp_path):
    # on the 4-site unit chain d_max = 3, g = 1 and zeta = 1/8, so the last
    # bound reaches the trivial limit 2 at t_sat = (3 + 8 ln 2) / v
    _, out, _ = run_cli(tmp_path, "lr", LR_FAST)
    payload = json.loads((out / "lr_summary.json").read_text())
    assert (payload["g"], payload["zeta"]) == (1.0, 0.125)
    assert payload["t_sat"] == pytest.approx((3.0 + 8.0 * math.log(2.0)) / payload["velocity"],
                                             rel=1e-14)
    header, rows = read_csv(out / "lr.csv")
    k = {name: header.index(name) for name in ("t", "d", "f")}
    assert max(float(r[k["d"]]) for r in rows) == 3.0
    # v_crit sits on a diagonal cell of this grid; the off-diagonal maximum is smaller
    off = [(float(r[k["d"]]) + math.log(float(r[k["f"]])) / 0.125) / float(r[k["t"]])
           for r in rows if float(r[k["t"]]) > 0 and float(r[k["d"]]) > 0]
    assert payload["v_crit_off_diagonal"] == pytest.approx(max(off), rel=1e-9)
    assert payload["v_crit_cell"]["site_g"] == payload["v_crit_cell"]["site_gp"]
    assert payload["v_crit_off_diagonal"] < payload["v_crit"]


def test_lr_negative_control_mechanics(tmp_path):
    _, _, honest = run_cli(tmp_path, "lr", LR_FAST, name="honest")
    code, out, summary = run_cli(tmp_path, "lr", LR_FAST,
                                 extra=["--negative-control"], name="control")
    assert code in (0, 1)
    assert summary["negative_control"] is True
    v_full = honest["parameters"]["velocity"]
    v_ctrl = summary["parameters"]["velocity"]
    assert v_ctrl == pytest.approx(v_full / 100.0, rel=1e-12)
    assert (out / "lr_exceedances.csv").exists()


def test_converge_nested_chains(tmp_path):
    cfg = ("[lattice]\nalpha = 1.0\nbeta = 1.0\nshape = chain\n\n"
           "[windows]\nchain_lengths = 4, 6, 8\n\n"
           "[dynamics]\nt_max = 0.2\nn_t = 5\n")
    code, out, summary = run_cli(tmp_path, "converge", cfg)
    assert code == 0
    cm = check_map(summary)
    assert cm["within_bound"]
    assert cm["monotone_in_window_gap"]
    header, rows = read_csv(out / "converge.csv")
    assert len(rows) == 2 * 5  # two inner lengths x five times
    assert len(summary["parameters"]["boundary_sums"]) == 2


@pytest.mark.parametrize("t_max, n_t, informative", [(0.2, 2, 0), (1e-5, 3, 4)],
                         ids=["benchmark", "tiny_t_max"])
def test_converge_informative_cells(tmp_path, t_max, n_t, informative):
    # the benchmark's convergence chains: past t = 0 their bounds are capped
    # at 2, the trivial limit; at t_max = 1e-5 every bound is below it.  The
    # t = 0 cells, where both dynamics coincide, never count.
    cfg = ("[lattice]\nalpha = 1.0\nbeta = 1.0\nshape = chain\n\n"
           "[model]\nf0 = 1.0\nmu = 1.0\n\n"
           "[windows]\nchain_lengths = 6 8 10\n\n"
           f"[dynamics]\nt_max = {t_max}\nn_t = {n_t}\n")
    code, out, summary = run_cli(tmp_path, "converge", cfg)
    assert code == 0
    within = next(c for c in summary["checks"] if c["name"] == "within_bound")
    assert within["values"]["informative"] == informative
    assert within["values"]["vacuous"] is (informative == 0)
    header, rows = read_csv(out / "converge.csv")
    cells = [(float(r[header.index("t")]), float(r[header.index("bound")])) for r in rows]
    assert len(cells) == 2 * n_t
    assert sum(t > 0 and b < 2.0 for t, b in cells) == informative


@pytest.mark.parametrize("command, name, count", [
    ("lr", "light_cone_bound", "informative_cells"),
    ("converge", "within_bound", "informative"),
])
def test_reference_config_pass_is_flagged_vacuous(tmp_path, command, name, count):
    # on the reference config no bound past t = 0 is below the trivial limit,
    # so the pass says nothing about propagation; the record says so, and the
    # verdict stays a pass
    code, _, summary = run_cli(tmp_path, command)
    assert code == 0
    record = next(c for c in summary["checks"] if c["name"] == name)
    assert record["passed"] is True
    assert record["values"][count] == 0
    assert record["values"]["vacuous"] is True


def test_plotdata_lifecycle(tmp_path):
    code, out, summary = run_cli(tmp_path, "plotdata", name="shared")
    assert code == 0
    header, rows = read_csv(out / "plot.csv")
    assert header == ["source", "series", "x", "y"]
    assert rows == []
    # after a producing run in the same directory the table fills up
    cfg = tmp_path / "b.ini"
    cfg.write_text("[lattice]\nalpha = 1.0\nbeta = 1.0\nshape = chain\n")
    assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["plotdata", "--out", str(out)]) == 0
    _, rows = read_csv(out / "plot.csv")
    assert len(rows) == 9  # three windows x three bound series
    assert {r[0] for r in rows} == {"bounds"}
    # rerunning over its own output changes nothing
    assert main(["plotdata", "--out", str(out)]) == 0
    _, rows2 = read_csv(out / "plot.csv")
    assert rows2 == rows
    summary = json.loads((out / "summary.json").read_text())
    [check] = summary["checks"]
    assert check["name"] == "plot_rows_match_sources" and check["passed"]
    assert check["values"]["rows"] == check["values"]["expected"] == {"bounds": 9}


def test_plotdata_check_catches_a_dropped_row(tmp_path, monkeypatch):
    cfg = tmp_path / "b.ini"
    cfg.write_text("[lattice]\nalpha = 1.0\nbeta = 1.0\nshape = chain\n")
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
    real = latframe.cli.write_csv

    def drop_last_plot_row(path, header, rows):
        if Path(path).name == "plot.csv":
            rows = list(rows)[:-1]
        return real(path, header, rows)

    monkeypatch.setattr(latframe.cli, "write_csv", drop_last_plot_row)
    assert main(["plotdata", "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    failed = [c for c in summary["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["plot_rows_match_sources"]
    assert failed[0]["values"]["rows"] == {"bounds": 8}
    assert failed[0]["values"]["expected"] == {"bounds": 9}


PLOT_PRODUCERS = {
    "bounds": SMALL_GRAM, "decay": SMALL_GRAM, "landau": SMALL_GRAM, "lr": LR_FAST,
    "converge": "[lattice]\nalpha = 1.0\nbeta = 1.0\nshape = chain\n\n"
                "[windows]\nchain_lengths = 4 6\n\n[dynamics]\nt_max = 0.2\nn_t = 3\n",
    "wkernel": "[lattice]\nalpha = 2.8\nbeta = 2.8\nradius = 12\n\n"
               "[kernel]\nsigma1 = 0.75\nnodes = 40\nn_quadruples = 1\n",
}


def test_plot_sources_name_columns_their_command_writes(tmp_path):
    # each plotdata source must be a table some command writes, and its x, y
    # and key columns must be in the header that command writes today
    headers = {}
    for command, cfg in PLOT_PRODUCERS.items():
        code, out, summary = run_cli(tmp_path, command, cfg, name=command)
        assert code == 0, command
        for name in summary["artifacts"]:
            if name.endswith(".csv"):
                headers[name] = read_csv(out / name)[0]
    for name, xcol, ycols, keycols in latframe.cli._PLOT_SOURCES:
        assert name in headers, name
        missing = [c for c in (xcol, *ycols, *keycols) if c not in headers[name]]
        assert missing == [], f"{name}: {missing} not in {headers[name]}"


# --------------------------------------------------------------- error paths

def read_error(capsys, out):
    stderr = capsys.readouterr().err.strip().splitlines()
    assert len(stderr) == 1
    record = json.loads(stderr[0])
    disk = json.loads((out / "summary.json").read_text())
    assert disk == record
    return record


@pytest.mark.parametrize("edit,why", [
    (lambda cells: cells[:2] + ["x"] + cells[3:], "could not convert"),
    (lambda cells: cells[:2], "out of range"),
], ids=["non_numeric", "short_row"])
def test_plotdata_malformed_source_row_exits_2(tmp_path, capsys, edit, why):
    cfg = tmp_path / "b.ini"
    cfg.write_text("[lattice]\nalpha = 1.0\nbeta = 1.0\nshape = chain\n")
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "bounds.csv").read_text().splitlines()
    assert lines[0].split(",")[2] == "a_est"
    lines[2] = ",".join(edit(lines[2].split(",")))
    (out / "bounds.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["plotdata", "--out", str(out)]) == 2
    record = read_error(capsys, out)
    assert record["error"]["type"] == "SerializeError"
    assert record["error"]["message"].startswith("bounds.csv: line 3: ")
    assert why in record["error"]["message"]
    assert not (out / "plot.csv").exists()  # no partial table is left


def test_malformed_config_error_record(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[lattice]\nalpha = -3\n")
    out = tmp_path / "out"
    code = main(["gram", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    record = read_error(capsys, out)
    assert record["status"] == "error"
    assert record["command"] == "gram"
    assert record["error"]["type"] == "config"
    assert record["error"]["section"] == "lattice"
    assert record["error"]["key"] == "alpha"


def test_bounds_refuses_a_single_chain(tmp_path, capsys):
    # a one-window "trend" compares nothing; every command refuses the config
    cfg = tmp_path / "one.ini"
    cfg.write_text(CHAIN5 + "\n[windows]\nchain_lengths = 8\n")
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 2
    record = read_error(capsys, out)
    assert record["error"]["type"] == "config"
    assert (record["error"]["section"], record["error"]["key"]) == ("windows", "chain_lengths")


def test_overlap_constant_key_exits_before_work(tmp_path, capsys, monkeypatch):
    # g is measured on the window, never read from the config
    def reached(*args, **kwargs):
        raise AssertionError("window work reached")

    monkeypatch.setattr(latframe.cli, "make_window", reached)
    cfg = tmp_path / "override.ini"
    cfg.write_text("[certificate]\ng = 1.5\n")
    out = tmp_path / "out"
    assert main(["decay", "--config", str(cfg), "--out", str(out)]) == 2
    record = read_error(capsys, out)
    assert record["error"]["type"] == "config"
    assert (record["error"]["section"], record["error"]["key"]) == ("certificate", "g")


def test_module_error_record(tmp_path, capsys):
    # lattice density past the closing threshold: no lower frame bound exists
    cfg = tmp_path / "dense.ini"
    cfg.write_text("[lattice]\nalpha = 3.0\nbeta = 3.0\nradius = 27\n")
    out = tmp_path / "out"
    code = main(["decay", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    record = read_error(capsys, out)
    assert record["error"]["type"] == "RegimeError"
    assert "section" not in record["error"]


# a chain window on a lattice with two levels: the chain holds level-0 sites only
MULTI_LEVEL_CHAIN = ("[lattice]\nalpha = 1.0\nbeta = 1.0\nshape = chain\nchain_length = 8\n"
                     "level_max = 1\nradius = 10\n")


@pytest.mark.parametrize("command", ["decay", "landau"])
def test_multi_level_chain_runs(tmp_path, command):
    # S is built from the chain's own level-0 sites, not from a ball of the radius
    code, out, summary = run_cli(tmp_path, command, MULTI_LEVEL_CHAIN)
    assert code in (0, 1)
    assert summary["parameters"]["n_sites"] == 8


def test_landau_level_without_sites(tmp_path, monkeypatch):
    # level r is read on the level-0 points, so the chain, which holds no
    # level-1 site, still has a level-1 table: the level-0 rows labelled with
    # level 1, |t| = q(1) / q(0) = 3 times the level-0 run's
    tables = _written_tables(monkeypatch)
    code0, _, level0 = run_cli(tmp_path, "landau", MULTI_LEVEL_CHAIN, name="level0")
    col0 = dict(zip(*tables["landau.csv"]))
    code1, _, level1 = run_cli(tmp_path, "landau", MULTI_LEVEL_CHAIN + "\n[landau]\nlevel = 1\n",
                               name="level1")
    col1 = dict(zip(*tables["landau.csv"]))
    assert code0 == code1 == 0
    assert level1["parameters"]["n_sites"] == level0["parameters"]["n_sites"] == 8
    assert (level0["parameters"]["q"], level1["parameters"]["q"]) == (0.5, 1.5)
    for key in ("i", "j"):
        assert np.array_equal(col1[key], col0[key])
    for key in ("site_i", "site_j"):
        assert {t.split(":", 1)[0] for t in col1[key]} == {"1"}
        assert [t.split(":", 1)[1] for t in col1[key]] == [t.split(":", 1)[1] for t in col0[key]]
    scaled = 3.0 * col0["abs_t"]
    assert np.all(np.abs(col1["abs_t"] - scaled) <= 1e-15 * scaled)


def test_missing_config_file(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["gram", "--config", str(tmp_path / "absent.ini"), "--out", str(out)])
    assert code == 2
    record = read_error(capsys, out)
    assert record["error"]["type"] == "config"


def test_bad_seed_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["gram", "--out", str(out), "--seed", "-1"])
    assert code == 2
    record = read_error(capsys, out)
    assert record["error"]["section"] == "run"
    assert record["error"]["key"] == "seed"


# a08's alpha = beta = 1 chain of eight sites with the default dynamics: its
# bound envelope e^{zeta v t} overflows a float near t = 0.44, long before
# t_max = 2, and the front crosses the chain near t = 1.6
CHAIN8_DEFAULT_DYNAMICS = """\
[lattice]
alpha = 1.0
beta = 1.0
shape = chain
chain_length = 8
"""


def _forbid_dynamics(monkeypatch):
    """Make any Gram factorization or dynamics end the run with exit 3."""
    def reached(*args, **kwargs):
        raise AssertionError("dynamics reached")

    for name in ("mode_basis", "lr_check", "volume_convergence"):
        monkeypatch.setattr(latframe.cli, name, reached)


@pytest.mark.parametrize("command", ["lr", "converge"])
def test_default_dynamics_reach_the_front(tmp_path, monkeypatch, command):
    # the tables write each envelope capped at the trivial limit 2, and the
    # ratio against the uncapped envelope: 0 once it overflows
    producer = "lr_check" if command == "lr" else "volume_convergence"
    real, results = getattr(latframe.cli, producer), []

    def kept(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(latframe.cli, producer, kept)
    code, out, _ = run_cli(tmp_path, command, CHAIN8_DEFAULT_DYNAMICS)
    assert code == 0
    result, = results
    if command == "lr":
        envelope, measured = result.bounds.ravel(), result.f_table.max(axis=2).ravel()
    else:
        envelope = np.concatenate([rep.bounds for rep in result])
        measured = np.concatenate([rep.diffs for rep in result])
    header, rows = read_csv(out / f"{command}.csv")
    col = {name: [r[k] for r in rows] for k, name in enumerate(header)}
    assert max(map(float, col["t"])) == 2.0
    assert np.isinf(envelope).any()
    bound = np.array(col["bound"], dtype=float)
    assert np.all(np.isfinite(bound)) and np.all(bound <= 2.0)
    assert np.all(bound[envelope > 2.0] == 2.0)
    assert col["bound"] == [fmt_float(x) for x in np.minimum(envelope, 2.0)]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(envelope > 0, measured / envelope, 0.0)
    assert col["ratio"] == [fmt_float(x) for x in ratio]
    if command == "lr":
        payload = json.loads((out / "lr_summary.json").read_text())
        assert f"{payload['v_crit']:.3g}" == "3.81"


def test_tiny_sigma1_rejected_before_kernel_work(tmp_path, capsys, monkeypatch):
    # the padded FFT grid of the radial kernel route grows as 1 / sigma1
    def reached(*args, **kwargs):
        raise AssertionError("kernel work reached")

    monkeypatch.setattr(latframe.cli, "v_omega", reached)
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(WKERNEL_FAST + "sigma1 = 0.001\n")
    out = tmp_path / "out"
    t0 = time.perf_counter()
    code = main(["wkernel", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert time.perf_counter() - t0 < 10.0
    record = read_error(capsys, out)
    assert record["error"]["type"] == "config"
    assert (record["error"]["section"], record["error"]["key"]) == ("kernel", "sigma1")
    usable = float(re.search(r"smallest usable sigma1 is (\S+)$", record["error"]["message"])[1])
    ell = RunConfig().ell_b
    cap = RunConfig().diam_max_ell * ell
    assert kernel_fft_side(cap, usable, ell, 32) <= KERNEL_FFT_MAX
    assert kernel_fft_side(cap, usable * (1 - 1e-3), ell, 32) > KERNEL_FFT_MAX
    # the named sigma1 passes the grid check and reaches the kernel work
    cfg.write_text(WKERNEL_FAST + f"sigma1 = {usable}\n")
    assert main(["wkernel", "--config", str(cfg), "--out", str(out)]) == 3
    assert "kernel work reached" in read_error(capsys, out)["error"]["message"]
    # so many nodes that the unpadded grid alone is too large: no sigma1 fits
    cfg.write_text(WKERNEL_FAST.replace("nodes = 32", "nodes = 500"))
    assert main(["wkernel", "--config", str(cfg), "--out", str(out)]) == 2
    record = read_error(capsys, out)
    assert (record["error"]["section"], record["error"]["key"]) == ("kernel", "nodes")


@pytest.mark.parametrize("command", ["lr", "converge"])
def test_window_over_mode_cap_rejected_before_dynamics(tmp_path, capsys, monkeypatch, command):
    _forbid_dynamics(monkeypatch)
    cfg = tmp_path / "long.ini"
    n = MAX_MODES + 1
    cfg.write_text("[lattice]\nalpha = 1.0\nbeta = 1.0\nshape = chain\n"
                   f"chain_length = {n}\n\n[windows]\nchain_lengths = 4 {n}\n\n"
                   "[dynamics]\nt_max = 0.0001\nn_t = 2\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    record = read_error(capsys, out)
    assert record["error"]["type"] == "FockError"
    assert f"cap {MAX_MODES}" in record["error"]["message"]


def test_oversized_pair_tables_rejected_before_work(tmp_path, capsys, monkeypatch):
    # alpha = beta = 0.5 at radius 12 is a 4705-site window: decay and landau
    # would hold 4705^2 site pairs, cphi 4705 x 4705 * 4704 / 2 term distances
    def reached(*args, **kwargs):
        raise AssertionError("window work reached")

    for name in ("gram", "s_inverse_power_elements", "landau_coefficients", "density_density",
                 "c_phi"):
        monkeypatch.setattr(latframe.cli, name, reached)
    cfg = tmp_path / "dense.ini"
    cfg.write_text("[lattice]\nalpha = 0.5\nbeta = 0.5\nradius = 12\n")
    t0 = time.perf_counter()
    pair_cap, cphi_cap = latframe.cli.MAX_PAIR_TABLE_SITES, latframe.cli.MAX_CPHI_SITES
    for command, what in (("decay", f"4705 level-0 sites, over its cap of {pair_cap}"),
                          ("landau", f"4705 level-0 sites, over its cap of {pair_cap}"),
                          ("cphi", f"4705 sites, over its cap of {cphi_cap}")):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        record = read_error(capsys, out)
        assert record["error"]["type"] == "config"
        assert (record["error"]["section"], record["error"]["key"]) == ("lattice", "radius")
        assert what in record["error"]["message"]
    assert time.perf_counter() - t0 < 1.0


def test_unknown_command_exits_via_parser(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["no-such-command", "--out", str(out)]) == 2
    record = read_error(capsys, out)
    assert record["command"] == ""
    assert record["error"]["type"] == "usage"
    assert "invalid choice: 'no-such-command'" in record["error"]["message"]


@pytest.mark.parametrize("argv,fragment", [
    (["gram", "--bogus"], "unrecognized arguments: --bogus"),
    (["gram", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["gram", "--negative-control"], "unrecognized arguments: --negative-control"),
])
def test_rejected_arguments_leave_a_usage_record(tmp_path, capsys, argv, fragment):
    out = tmp_path / "x"
    assert main(argv + [f"--out={out}"]) == 2
    record = read_error(capsys, out)
    assert record["command"] == "gram"
    assert record["error"]["type"] == "usage"
    assert fragment in record["error"]["message"]


# ------------------------------------------------------------------- fuzzing

def _mutations(rng, n_cases):
    base_lines = REFERENCE_CONFIG.splitlines()
    known_bad = [
        "[lattice]\nalpha = nope\n",
        "[lattice]\nalpha = 0\n",
        "[lattice]\nradius = -2\n",
        "[lattice]\nlevel_max = -1\n",
        "[lattice]\nshape = ring\n",
        "[magnetic]\nell_b = 0\n",
        "[magnetic]\ntrunc = -1\n",
        "[model]\nzeta = 0.5\nxi = 0.25\n",
        "[model]\nmu = -1\n",
        "[certificate]\np = 0\n",
        "[certificate]\neps = -0.1\n",
        "[dynamics]\nn_t = 1\n",
        "[kernel]\nnodes = 2\n",
        "[windows]\nradii = 3, oops\n",
        "[run]\nseed = -4\n",
        "[landau]\nlevel = -1\n",
        "[lattice]\nunknown_key = 1\n",
        "[mystery]\nvalue = 1\n",
        "alpha = 1.0\n[lattice]\nbeta = 1.0\n",
        "[lattice]\nalpha = 1.0\n[lattice]\nbeta = 2.0\n",
    ]
    cases = list(known_bad)
    while len(cases) < n_cases:
        kind = rng.integers(0, 4)
        if kind == 0:  # corrupt one value line
            idx = [i for i, ln in enumerate(base_lines) if "=" in ln]
            k = int(rng.choice(idx))
            key = base_lines[k].split("=")[0]
            garbage = rng.choice(["nan-ish", "--", "1e", '"x"', "[5]", "0x1g"])
            lines = list(base_lines)
            lines[k] = f"{key}= {garbage}"
            cases.append("\n".join(lines) + "\n")
        elif kind == 1:  # negate one numeric value
            idx = [i for i, ln in enumerate(base_lines)
                   if "=" in ln and any(ch.isdigit() for ch in ln.split("=")[1])]
            k = int(rng.choice(idx))
            key, val = base_lines[k].split("=", 1)
            lines = list(base_lines)
            lines[k] = f"{key}= -999{val.strip().lstrip('-')}"
            cases.append("\n".join(lines) + "\n")
        elif kind == 2:  # invent a key in a real section
            section = rng.choice(["lattice", "magnetic", "model", "certificate",
                                  "dynamics", "kernel", "windows", "run", "landau"])
            noise = f"fuzz_{int(rng.integers(0, 10 ** 6))}"
            cases.append(f"[{section}]\n{noise} = 1\n")
        else:  # orphan assignment before any section header
            noise = f"stray_{int(rng.integers(0, 10 ** 6))}"
            cases.append(f"{noise} = 1\n" + "\n".join(base_lines) + "\n")
    return cases[:n_cases]


def test_config_fuzz_rejections(tmp_path, capsys):
    rng = np.random.default_rng(20260822)
    cases = _mutations(rng, 200)
    for k, text in enumerate(cases):
        cfg = tmp_path / f"fuzz_{k}.ini"
        cfg.write_text(text)
        out = tmp_path / f"out_{k}"
        code = main(["gram", "--config", str(cfg), "--out", str(out)])
        assert code == 2, f"case {k} accepted:\n{text}"
        record = read_error(capsys, out)
        assert record["status"] == "error"
        assert record["error"]["type"] == "config", f"case {k}: {record}"
        assert record["error"]["message"]


def test_non_utf8_config(tmp_path, capsys):
    cfg = tmp_path / "bin.ini"
    cfg.write_bytes(b"[lattice]\nalpha = \xff\xfe1.0\n")
    out = tmp_path / "out"
    assert main(["gram", "--config", str(cfg), "--out", str(out)]) == 2
    record = read_error(capsys, out)
    assert record["error"]["type"] == "config"


def _package_env():
    """Environment for a fresh interpreter that imports this latframe."""
    src = os.path.dirname(os.path.dirname(latframe.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _assert_every_command_leaves_a_record(tmp_path, config_args):
    """Every command on the sqrt(pi) lattice at radius 12 ends in exit 0, 1
    or 2 with a summary.json.  lr and converge run: their chains come from
    chain_length alone, though the default 8-site chain reaches 4 pi, past the
    radius.  wkernel exits 2, because the window dual generator it reads is
    not localized on this overcomplete lattice: ROADMAP item 7's fault, which
    moving wkernel onto the lattice dual mends."""
    for command in latframe.cli._COMMANDS:
        out = tmp_path / command
        code = main([command, "--out", str(out), *config_args])
        summary = json.loads((out / "summary.json").read_text())
        assert code in (0, 1, 2), command
        assert summary["exit_code"] == code and summary["status"] in ("ok", "fail", "error")
        if command == "wkernel":
            assert code == 2
            message = summary["error"]["message"]
            assert "dual generator is not localized" in message
            assert "overcomplete" in message and "N = 2 pi ell^2 / (alpha beta) = 2" in message
        if command in ("lr", "converge"):
            assert code == 0, summary


def test_every_command_without_config_leaves_a_record(tmp_path, capsys):
    _assert_every_command_leaves_a_record(tmp_path, [])
    capsys.readouterr()


def test_every_command_runs_on_the_reference_config(tmp_path, capsys):
    cfg = tmp_path / "reference.ini"
    cfg.write_text(REFERENCE_CONFIG)
    _assert_every_command_leaves_a_record(tmp_path, ["--config", str(cfg)])
    capsys.readouterr()


def test_module_entrypoint(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(SMALL_GRAM)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "latframe", "gram", "--config", str(cfg),
         "--out", str(out)],
        capture_output=True, text=True, env=_package_env(), timeout=300)
    assert proc.returncode == 0
    assert "gram" in proc.stdout
    assert (out / "summary.json").exists()


def _loaded_modules(tmp_path, *argvs):
    """scipy modules loaded in a fresh interpreter after `import latframe.cli`,
    and after main(argv) has run for each argv in turn in that interpreter;
    "random" says whether numpy.random is loaded after the import and after
    each argv."""
    script = (
        "import json, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "import latframe\n"
        "import latframe.cli\n"
        "after_import = scipy_modules()\n"
        "codes, random = [], ['numpy.random' in sys.modules]\n"
        f"for argv in {list(argvs)!r}:\n"
        "    codes.append(latframe.cli.main(argv))\n"
        "    random.append('numpy.random' in sys.modules)\n"
        "print(json.dumps({'import': after_import, 'run': scipy_modules(), 'codes': codes,\n"
        "                  'random': random}))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_package_env(), cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_and_certificate_command_load_no_scipy(tmp_path):
    # decay on the default radius-12 sqrt(pi) lattice
    loaded = _loaded_modules(tmp_path, ["decay", "--out", str(tmp_path / "out")])
    assert loaded["codes"] == [0]
    assert loaded["import"] == []
    assert loaded["run"] == []
    assert loaded["random"] == [False, False]


def test_import_loads_no_openssl(tmp_path):
    # hashlib maps OpenSSL's libcrypto (about 3.5 MB resident) into the
    # process; only the commands that write a window_hash import it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, latframe.cli; print('_hashlib' in sys.modules)"],
        capture_output=True, text=True, env=_package_env(), cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("command, extra, artifact", [
    ("gram", "", "summary.json"), ("bounds", "", "bounds.csv"),
    ("decay", "\n[certificate]\np = 2\n", "decay_certificate.json"),
], ids=["gram", "bounds", "decay"])
def test_window_hash_commands_load_no_openssl(tmp_path, command, extra, artifact):
    # the window_hash comes from CPython's builtin SHA-256, not from hashlib,
    # which would map OpenSSL's libcrypto
    cfg = tmp_path / "run.ini"
    cfg.write_text("[lattice]\nalpha = 1.7724538509055159\nbeta = 1.7724538509055159\n"
                   "radius = 12\n" + extra)
    out = tmp_path / "out"
    script = ("import sys, latframe.cli\n"
              f"code = latframe.cli.main([{command!r}, '--config', {str(cfg)!r}, "
              f"'--out', {str(out)!r}])\n"
              "print(code, '_hashlib' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_package_env(), cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 False"
    assert "window_hash" in (out / artifact).read_text(encoding="utf-8")


def test_wkernel_loads_no_numpy_random_or_openssl(tmp_path):
    # numpy.random maps secrets, hmac and OpenSSL's libcrypto; wkernel draws
    # its quadruples with the stdlib generator and writes no window_hash
    cfg = tmp_path / "wkernel.ini"
    cfg.write_text("[lattice]\nalpha = 2.8\nbeta = 2.8\nradius = 12\n\n"
                   "[kernel]\nsigma1 = 0.75\nnodes = 40\nn_quadruples = 1\n")
    script = ("import sys, latframe.cli\n"
              f"code = latframe.cli.main(['wkernel', '--config', {str(cfg)!r}, "
              f"'--out', {str(tmp_path / 'out')!r}, '--seed', '12'])\n"
              "print(code, 'numpy.random' in sys.modules, '_hashlib' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_package_env(), cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 False False"


def test_every_command_loads_no_scipy(tmp_path):
    # one interpreter runs every command on a small config; lr and converge
    # run the Fock engine on chains of up to 6 sites, wkernel runs the
    # benchmark's 2.8 lattice at radius 12, and plotdata reads what the others
    # wrote to the shared directory
    configs = {
        "gram": SMALL_GRAM, "bounds": SMALL_GRAM, "decay": SMALL_GRAM, "landau": SMALL_GRAM,
        "cphi": CHAIN5,
        "lr": LR_FAST,
        "converge": "[lattice]\nalpha = 1.0\nbeta = 1.0\nshape = chain\n\n"
                    "[windows]\nchain_lengths = 4 6\n\n[dynamics]\nt_max = 0.2\nn_t = 3\n",
        "wkernel": "[lattice]\nalpha = 2.8\nbeta = 2.8\nradius = 12\n\n"
                   "[kernel]\nsigma1 = 0.75\nnodes = 40\nn_quadruples = 1\n",
    }
    out = str(tmp_path / "out")
    argvs = []
    for command, text in configs.items():
        cfg = tmp_path / f"{command}.ini"
        cfg.write_text(text)
        argvs.append([command, "--config", str(cfg), "--out", out, "--seed", "12"])
    argvs.append(["plotdata", "--out", out])
    t0 = time.perf_counter()
    loaded = _loaded_modules(tmp_path, *argvs)
    elapsed = time.perf_counter() - t0
    assert loaded["codes"] == [0] * len(argvs)
    assert loaded["import"] == []
    assert loaded["run"] == []
    # after the import and after every command: wkernel samples with the
    # stdlib generator, so numpy.random never loads
    assert loaded["random"] == [False] * 10
    assert {r[0] for r in read_csv(tmp_path / "out" / "plot.csv")[1]} == {
        "bounds", "decay_check", "landau", "wkernel", "lr", "converge"}
    assert elapsed < 10.0


def test_benchmark_tracer_binds_every_traced_name(tmp_path):
    # the benchmark's per-layer tracer wraps every __all__ function and a few
    # named methods; a stale __all__ entry or a deleted method breaks install()
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = latframe.cli.gram
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.counts["trace.bindings"] > 0
        assert latframe.cli.gram is not original
        code, _, _ = run_cli(tmp_path, "gram", SMALL_GRAM)
    finally:
        tracer.uninstall()
    assert code == 0
    assert "frame_analysis.gram" in {span[0] for span in tracer.spans}
    assert latframe.cli.gram is original
