"""Command-line front end: artifacts, verdicts, exit codes, error records."""

import importlib.util
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import latframe
import latframe.cli
from latframe.cli import main
from latframe.config import REFERENCE_CONFIG, RunConfig
from latframe.fock import MAX_MODES
from latframe.interactions import KERNEL_FFT_MAX, kernel_fft_side
from latframe.serialize import read_csv, read_matrix_text

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
    assert summary["artifacts"] == sorted(["gram.csv", "gram_matrix.txt", "summary.json"])
    n = summary["parameters"]["n_sites"]
    assert n == 13
    header, rows = read_csv(out / "gram.csv")
    assert header[:4] == ["i", "j", "site_i", "site_j"]
    assert len(rows) == n * n
    mat, tag = read_matrix_text(out / "gram_matrix.txt")
    assert mat.shape == (n, n)
    assert tag == summary["parameters"]["window_hash"]
    # the CSV is the same matrix, entry by entry
    for row in rows[:20]:
        i, j = int(row[0]), int(row[1])
        assert complex(float(row[5]), float(row[6])) == pytest.approx(mat[i, j], abs=1e-13)


def test_gram_deterministic(tmp_path):
    _, out1, _ = run_cli(tmp_path, "gram", SMALL_GRAM, name="first")
    _, out2, _ = run_cli(tmp_path, "gram", SMALL_GRAM, name="second")
    for fname in ("gram.csv", "gram_matrix.txt", "summary.json"):
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
    header, rows = read_csv(out / "decay_check.csv")
    n_inner = cert["inner_sites"]
    assert len(rows) == n_inner * n_inner
    for row in rows:
        assert float(row[5]) <= float(row[6]) * (1 + 1e-9)  # abs_entry vs bound


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


def test_cphi_deterministic(tmp_path):
    _, out1, _ = run_cli(tmp_path, "cphi", CHAIN5, name="first")
    _, out2, _ = run_cli(tmp_path, "cphi", CHAIN5, name="second")
    assert (out1 / "cphi.json").read_bytes() == (out2 / "cphi.json").read_bytes()


def test_landau_two_level_run(tmp_path):
    cfg = "[lattice]\nradius = 10\nlevel_max = 1\n\n[landau]\nlevel = 1\n"
    code, out, summary = run_cli(tmp_path, "landau", cfg)
    assert code == 0
    cm = check_map(summary)
    assert cm["zero_violations"]
    assert cm["dual_route_agreement"]
    assert cm["constants_real_positive"]
    assert cm["cross_level_exactly_zero"]
    assert summary["parameters"]["q"] == pytest.approx(1.5)  # level spacing * (1 + 1/2)
    header, rows = read_csv(out / "landau_constants.csv")
    assert len(rows) == summary["parameters"]["inner_sites"]


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
    # the benchmark's convergence chains: past t = 0 their bounds are near
    # 1e181, far above the trivial limit 2; at t_max = 1e-5 every bound is
    # below it.  The t = 0 cells, where both dynamics coincide, never count.
    cfg = ("[lattice]\nalpha = 1.0\nbeta = 1.0\nshape = chain\n\n"
           "[model]\nf0 = 1.0\nmu = 1.0\n\n"
           "[windows]\nchain_lengths = 6 8 10\n\n"
           f"[dynamics]\nt_max = {t_max}\nn_t = {n_t}\n")
    code, out, summary = run_cli(tmp_path, "converge", cfg)
    assert code == 0
    within = next(c for c in summary["checks"] if c["name"] == "within_bound")
    assert within["values"]["informative"] == informative
    header, rows = read_csv(out / "converge.csv")
    cells = [(float(r[header.index("t")]), float(r[header.index("bound")])) for r in rows]
    assert len(cells) == 2 * n_t
    assert sum(t > 0 and b < 2.0 for t, b in cells) == informative


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


def test_threads_flag_recorded(tmp_path):
    code, out, summary = run_cli(tmp_path, "gram", SMALL_GRAM, extra=["--threads", "1"])
    assert code == 0
    assert summary["threads"]["requested"] == 1


# --------------------------------------------------------------- error paths

def read_error(capsys, out):
    stderr = capsys.readouterr().err.strip().splitlines()
    assert len(stderr) == 1
    record = json.loads(stderr[0])
    disk = json.loads((out / "summary.json").read_text())
    assert disk == record
    return record


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
    assert summary["parameters"]["inner_sites"] <= 8


def test_landau_level_without_sites(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "level1.ini"
    cfg.write_text(MULTI_LEVEL_CHAIN + "\n[landau]\nlevel = 1\n")
    code = main(["landau", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    record = read_error(capsys, out)
    assert record["error"]["type"] == "FrameAnalysisError"
    assert "level 1" in record["error"]["message"]


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


# the alpha = beta = 1 chain of eight sites with the default dynamics: its
# bound envelope e^{zeta v t} overflows long before t_max = 2
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
def test_envelope_overflow_rejected_before_dynamics(tmp_path, capsys, monkeypatch, command):
    _forbid_dynamics(monkeypatch)
    cfg = tmp_path / "chain8.ini"
    cfg.write_text(CHAIN8_DEFAULT_DYNAMICS)
    out = tmp_path / "out"
    t0 = time.perf_counter()
    code = main([command, "--config", str(cfg), "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 2
    assert elapsed < 10.0
    record = read_error(capsys, out)
    assert record["error"]["type"] == "config"
    assert (record["error"]["section"], record["error"]["key"]) == ("dynamics", "t_max")
    usable = float(re.search(r"largest usable t_max is (\S+)$", record["error"]["message"])[1])
    assert 0.0 < usable < 2.0


def test_envelope_overflow_names_a_usable_t_max(tmp_path, capsys):
    cfg = tmp_path / "chain8.ini"
    cfg.write_text(CHAIN8_DEFAULT_DYNAMICS)
    assert main(["lr", "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 2
    message = read_error(capsys, tmp_path / "bad")["error"]["message"]
    usable = re.search(r"largest usable t_max is (\S+)$", message)[1]
    code, out, _ = run_cli(tmp_path, "lr", CHAIN8_DEFAULT_DYNAMICS
                           + f"\n[dynamics]\nt_max = {usable}\nn_t = 2\n", name="usable")
    assert code == 0
    header, rows = read_csv(out / "lr.csv")
    assert max(float(r[header.index("bound")]) for r in rows) > 1e300


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


def test_unknown_command_exits_via_parser(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    capsys.readouterr()


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
        "[landau]\nlevel = 7\n",
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


def _scipy_modules(tmp_path, argv):
    """scipy modules loaded in a fresh interpreter after `import latframe.cli`,
    and after main(argv) has run in that interpreter."""
    script = (
        "import json, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "import latframe\n"
        "import latframe.cli\n"
        "after_import = scipy_modules()\n"
        f"code = latframe.cli.main({argv!r})\n"
        "print(json.dumps({'import': after_import, 'run': scipy_modules(), 'code': code}))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_package_env(), cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_and_certificate_command_load_no_scipy(tmp_path):
    # decay on the default radius-12 sqrt(pi) lattice
    loaded = _scipy_modules(tmp_path, ["decay", "--out", str(tmp_path / "out")])
    assert loaded["code"] == 0
    assert loaded["import"] == []
    assert loaded["run"] == []


def test_lr_loads_scipy_sparse_when_it_runs(tmp_path):
    cfg = tmp_path / "lr.ini"
    cfg.write_text(LR_FAST)
    loaded = _scipy_modules(tmp_path, ["lr", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert loaded["code"] == 0
    assert loaded["import"] == []
    assert "scipy.sparse" in loaded["run"]


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
