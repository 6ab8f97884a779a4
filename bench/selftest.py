"""Self-tests of the benchmark's references and checks.

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py

Each reference is compared with a second computation made another way, and
each check is shown to pass on real artifacts (small configs, run in
process) and to reject the same artifact after one value is perturbed.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import run  # noqa: E402
from workloads import Fault, Op, Workload  # noqa: E402

WORK = run.OUT / "selftest"


def _round(wl: Workload) -> list[dict]:
    """Run a workload's round in process, as the traced run does; return its records."""
    run.import_program()
    d = WORK / wl.ops[0].label
    shutil.rmtree(d, ignore_errors=True)
    return run.run_round_inprocess(wl, d)


def _program(command: str, config: str, label: str, seed: int = 0) -> Path:
    """Run one latframe command in process on a config; return its artifact dir."""
    [rec] = _round(Workload(label, (Op(label, command, config, seed),)))
    assert rec["exit"] == 0, f"{command} exited {rec['exit']}"
    return rec["dir"]


def _perturbed(src: Path, name: str, edit) -> Path:
    """Copy of an artifact dir with file `name` rewritten by edit(text)."""
    dst = src.parent / (src.name + "_perturbed")
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    (dst / name).write_text(edit((dst / name).read_text()))
    return dst


def _edit_cell(text: str, row: int, column: str, fn) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    k = header.index(column)
    cells[k] = repr(fn(float(cells[k])))
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _row_where(path: Path, pred) -> int:
    header, rows = checks.read_csv(path)
    return next(k for k, r in enumerate(rows) if pred(dict(zip(header, r))))


# -- references against a second route ---------------------------------------

def test_overlap_reference_matches_quadrature():
    g1, g2 = (0.7, -1.1), (-0.4, 0.9)
    h = 0.05
    ax = np.arange(-9.0, 9.0, h)
    x, y = np.meshgrid(ax, ax, indexing="ij")

    def chi(g):  # lowest-level coherent state at g
        phase = np.exp(-1j * (g[0] * y - g[1] * x) / 2.0)
        return phase * np.exp(-((x - g[0]) ** 2 + (y - g[1]) ** 2) / 4.0) / math.sqrt(2 * math.pi)

    quad = complex(np.sum(np.conj(chi(g1)) * chi(g2)) * h * h)
    assert abs(quad - checks.overlap_closed_form(g1, g2)) < 1e-12


def test_theta3_reference_matches_jacobi_transform():
    # theta3(tau) = tau^(-1/2) theta3(1 / tau) on the imaginary axis
    for a in (1.0, math.sqrt(math.pi), 2.8):
        tau = a * a / (4 * math.pi)
        direct = math.sqrt(checks.theta3_product(a, a))
        dual = math.sqrt(checks.theta3_product(4 * math.pi / a, 4 * math.pi / a))
        assert abs(direct - dual / math.sqrt(tau)) < 1e-13 * direct


def test_kernel_reference_matches_radial_integral():
    # coherent states at the origin: A(x) = e^{-|x|^2/4}, so Bx = By = e^{-|x|^2/2};
    # in centre and relative variables the centre integral is pi, which leaves
    # w = c1 pi int e^{-sigma1 |u|} e^{-|u|^2/4} du, one radial integral
    from scipy.integrate import quad

    c1, sigma1 = 1.3, 0.7
    coeffs = np.array([1.0 + 0j])
    ref = checks.kernel_parseval(np.zeros((4, 2)), coeffs, c1, sigma1)
    radial = quad(lambda r: 2 * math.pi * r * c1 * math.exp(-sigma1 * r)
                  * math.pi * math.exp(-r * r / 4.0), 0.0, 60.0, epsabs=1e-14, epsrel=1e-13)[0]
    assert abs(ref - radial) < 1e-10 * radial


def test_singleton_c_phi_matches_loops():
    pts = checks.ball_sites(math.sqrt(math.pi), math.sqrt(math.pi), 7.0)
    a_star, f0, mu, zeta, xi = math.sqrt(math.pi), 1.3, 0.8, 0.125, 0.25
    n = len(pts)
    d = [[a_star * (abs(p[0] - q[0]) + abs(p[1] - q[1])) for q in pts] for p in pts]
    terms = [(p, q) for p in range(n) for q in range(p + 1, n)]
    best = 0.0
    for g in range(n):
        for s in range(n):
            total = 0.0
            for p, q in terms:
                weight = 4 * f0 * math.exp(-mu * d[p][q]) * (1 + d[p][q]) ** 2
                total += (weight * math.exp(-zeta * min(d[g][p], d[g][q]))
                          * math.exp(-xi * min(d[p][s], d[q][s])))
            best = max(best, math.exp(zeta * d[g][s]) * total)
    fast = checks.c_phi_singleton(pts, a_star, f0, mu, zeta, xi)
    assert abs(fast - best) < 1e-12 * best


# -- checks pass on real artifacts and reject perturbed ones ------------------

CHAIN = "[lattice]\nalpha = 1.0\nbeta = 1.0\nshape = chain\nchain_length = 4\n"


def test_lightcone_check():
    params = {"alpha": 1.0, "beta": 1.0, "chain_length": 4, "n_t": 3}
    art = _program("lr", CHAIN + "[dynamics]\nt_max = 0.001\nn_t = 3\n", "lr")
    assert checks.check_lightcone({"lr": art}, params, True) == []
    lr = art / "lr.csv"
    at0 = _row_where(lr, lambda r: r["t"] == "0" and r["site_g"] != r["site_gp"])
    late = _row_where(lr, lambda r: r["t"] != "0" and r["site_g"] != r["site_gp"])
    for row, fn, what in ((at0, lambda f: f * (1 + 1e-9), "t = 0"),
                          (late, lambda f: f + 1e-9, "reflection"),
                          (late, lambda f: 2.5, "trivial bound")):
        bad = _perturbed(art, "lr.csv", lambda t: _edit_cell(t, row, "f", fn))
        errs = checks.check_lightcone({"lr": bad}, params, True)
        assert errs, f"perturbed {what} row passed"


def test_convergence_check():
    params = {"chain_lengths": (2, 3, 4)}
    cfg = CHAIN + "[dynamics]\nt_max = 0.2\nn_t = 3\n[windows]\nchain_lengths = 2 3 4\n"
    art = _program("converge", cfg, "converge")
    assert checks.check_convergence({"converge": art}, params, True) == []
    path = art / "converge.csv"
    at0 = _row_where(path, lambda r: r["t"] == "0")
    larger = _row_where(path, lambda r: r["length"] == "3" and r["t"] != "0")
    for row, fn in ((at0, lambda d: 1e-6), (larger, lambda d: d + 1.0)):
        bad = _perturbed(art, "converge.csv", lambda t: _edit_cell(t, row, "diff", fn))
        assert checks.check_convergence({"converge": bad}, params, True)


def test_certificate_checks():
    root_pi = math.sqrt(math.pi)
    base = f"[lattice]\nalpha = {root_pi!r}\nbeta = {root_pi!r}\nradius = 12.0\n"
    params = {"alpha": root_pi, "beta": root_pi, "cphi_radius": 9.0, "f0": 1.4, "mu": 0.9}
    dirs = {
        "gram": _program("gram", base, "gram"),
        "bounds": _program("bounds", base, "bounds"),
        "decay_p1": _program("decay", base, "decay_p1"),
        "cphi": _program("cphi", base.replace("12.0", "9.0")
                         + "[model]\nf0 = 1.4\nmu = 0.9\n", "cphi"),
    }
    assert checks.check_certificate(dirs, params, True) == []
    off = _row_where(dirs["gram"] / "gram.csv", lambda r: r["i"] != r["j"])
    asym = _row_where(dirs["decay_p1"] / "decay_check.csv", lambda r: r["i"] != r["j"])
    cases = [
        ("gram", "gram.csv", lambda t: _edit_cell(t, off, "re", lambda v: v + 1e-9)),
        ("bounds", "bounds.csv", lambda t: _edit_cell(t, 0, "b_est", lambda v: 4.01)),
        ("decay_p1", "decay_check.csv",
         lambda t: _edit_cell(t, asym, "abs_entry", lambda v: v + 1e-9)),
    ]
    for label, name, edit in cases:
        bad = dict(dirs, **{label: _perturbed(dirs[label], name, edit)})
        assert checks.check_certificate(bad, params, True), f"perturbed {name} passed"
    for key, fn in (("value", lambda v: v * 0.5), ("velocity", lambda v: v * (1 + 1e-9))):
        def edit(text, key=key, fn=fn):
            obj = json.loads(text)
            obj[key] = fn(obj[key])
            return json.dumps(obj)
        bad = dict(dirs, cphi=_perturbed(dirs["cphi"], "cphi.json", edit))
        assert checks.check_certificate(bad, params, True), f"perturbed cphi {key} passed"


def test_kernel_check():
    params = {"alpha": 2.8, "beta": 2.8, "radius": 12.0, "c1": 1.2, "sigma1": 0.8,
              "nodes": 40, "n_quadruples": 1}
    cfg = ("[lattice]\nalpha = 2.8\nbeta = 2.8\nradius = 12.0\n"
           "[kernel]\nc1 = 1.2\nsigma1 = 0.8\nnodes = 40\nn_quadruples = 1\n")
    art = _program("wkernel", cfg, "wkernel", seed=3)
    assert checks.check_kernel({"wkernel": art}, params, True) == []
    for column in ("re_w", "im_w"):
        bad = _perturbed(art, "wkernel.csv",
                         lambda t, c=column: _edit_cell(t, 0, c, lambda v: v + 1e-5))
        assert checks.check_kernel({"wkernel": bad}, params, True), f"perturbed {column} passed"


# -- failed operations ---------------------------------------------------------

def test_failed_operation_makes_run_incorrect():
    # at 12 nodes the radial quadrature of this quadruple does not converge:
    # wkernel writes every artifact and exits 1 (its own check failed)
    params = {"alpha": 2.8, "beta": 2.8, "radius": 12.0, "c1": 1.2, "sigma1": 0.8,
              "nodes": 12, "n_quadruples": 1}
    cfg = ("[lattice]\nalpha = 2.8\nbeta = 2.8\nradius = 12.0\n"
           "[kernel]\nc1 = 1.2\nsigma1 = 0.8\nnodes = 12\nn_quadruples = 1\n")
    wl = Workload("kernel", (Op("wkernel", "wkernel", cfg, 3),), params)
    recs = _round(wl)
    assert recs[0]["exit"] == 1, f"unconverged wkernel exited {recs[0]['exit']}"
    errs = run.check_rounds(wl, [recs])
    assert any("wkernel exited 1" in e and "quadrature_converged" in e for e in errs), errs
    assert any("unconverged value" in e for e in errs), errs


def test_only_the_named_fault_is_a_known_failure():
    root_pi = math.sqrt(math.pi)
    cfg = f"[lattice]\nalpha = {root_pi!r}\nbeta = {root_pi!r}\nradius = 16.0\n"
    op = Op("landau_r16", "landau", cfg, 0)
    recs = _round(Workload("certificate", (op,)))
    assert recs[0]["exit"] == 3, f"landau at radius 16 exited {recs[0]['exit']}"
    named = {"landau_r16": Fault(3, "ZeroDivisionError", "frame_analysis.py:308")}
    assert run.check_rounds(Workload("certificate", (op,), {}, named), [recs]) == []
    for faults in ({}, {"landau_r16": Fault(2, "ZeroDivisionError", "")},
                   {"landau_r16": Fault(3, "ValueError", "")}):
        errs = run.check_rounds(Workload("certificate", (op,), {}, faults), [recs])
        assert errs, f"failure passed with known failures {faults}"


def main() -> int:
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
