#!/usr/bin/env python3
"""latframe benchmark: run the workloads, check their artifacts, report metrics.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository; the program is taken from `src/`
there.  With `--trace 0` every operation is a fresh `python3 -m latframe
<command>` process, started one after another from this process, and the
metrics are the end-to-end ones:

  wall_s       median over rounds of the summed wall time of a round's commands
  setup_s      median start-up of a fresh interpreter importing latframe.cli
  peak_rss_mb  largest peak resident set of any command process

With `--trace 1` the same commands run in this process through
`latframe.cli.main`, with every public latframe function wrapped in a span
(see tracing.py); the metrics are the per-layer ones, per round.

A run attempts whole rounds until `--seconds` is used up, then checks the
artifacts of every round (checks.py).  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
`--workload all` every workload runs in turn, each in a process of its own,
and the final object carries each metric as `<workload>.<metric>`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# start-up samples taken before and again after the rounds, and one between
# each pair of rounds, so that the median spans the run rather than the few
# seconds of one slow or fast spell
SETUP_SAMPLES = 4
OP_TIMEOUT_S = 150.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread per command, at most nproc: on a shared 2-core machine a
# second thread made `import latframe.cli` 30% slower
BLAS_THREADS = 1

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def _wait(proc: subprocess.Popen) -> tuple[int, float]:
    """Reap proc; return its exit code and peak RSS in MB, killing it after the timeout."""
    timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def measure_setup(env: dict, samples: int) -> list[float]:
    """Start-up times of fresh interpreters that import latframe.cli."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import latframe.cli"], env=env,
                                cwd=ROOT, stdin=subprocess.DEVNULL)
        code, _ = _wait(proc)
        if code != 0:
            raise SystemExit(f"bench: importing latframe.cli failed with exit {code}")
        times.append(time.perf_counter() - t0)
    return times


def prepare(wl, round_dir: Path) -> dict:
    """Write each operation's config; return label -> (op, op dir)."""
    out = {}
    for op in wl.ops:
        d = round_dir / op.label
        d.mkdir(parents=True)
        (d / "config.ini").write_text(op.config)
        out[op.label] = (op, d)
    return out


def argv_for(op, d: Path) -> list[str]:
    return [op.command, "--config", str(d / "config.ini"), "--out", str(d / "art"),
            "--seed", str(op.seed)]


def run_round_processes(wl, round_dir: Path, env: dict) -> list[dict]:
    records = []
    for label, (op, d) in prepare(wl, round_dir).items():
        with open(d / "stdout.txt", "wb") as out, open(d / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "latframe", *argv_for(op, d)],
                                    env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            code, rss = _wait(proc)
            wall = time.perf_counter() - t0
        records.append({"label": label, "exit": code, "wall": wall, "rss_mb": rss,
                        "dir": d / "art"})
    return records


def run_round_inprocess(wl, round_dir: Path, tracer=None) -> list[dict]:
    import latframe.cli

    records = []
    for label, (op, d) in prepare(wl, round_dir).items():
        lo = len(tracer.spans) if tracer else 0
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            code = latframe.cli.main(argv_for(op, d))
            wall = time.perf_counter() - t0
        (d / "stdout.txt").write_text(sink.getvalue())
        rec = {"label": label, "exit": code, "wall": wall, "dir": d / "art"}
        if tracer:
            rec["self_sum"] = sum(tracer.self_times(lo))
        records.append(rec)
    return records


def run_rounds(seconds: float, one_round) -> list[list[dict]]:
    """Whole rounds until the next one would end more than half a round past the budget."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(one_round(len(rounds)))
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / len(rounds) >= seconds:
            return rounds


def import_program() -> None:
    """Import latframe.cli from this checkout's sources, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import latframe.cli

    here = Path(latframe.cli.__file__).resolve()
    if SRC.resolve() not in here.parents:
        raise SystemExit(f"bench: latframe imported from {here}, not from {SRC}")


def _failure(art: Path) -> str:
    """What a failed operation's summary.json says went wrong."""
    try:
        summary = json.loads((art / "summary.json").read_text())
    except (OSError, ValueError):
        return "no summary.json"
    if "error" in summary:
        return summary["error"].get("message", "")
    failed = [c["name"] for c in summary.get("checks", []) if not c["passed"]]
    return f"status {summary.get('status')}, failed checks {failed}"


def check_rounds(wl, rounds: list[list[dict]]) -> list[str]:
    """Errors of every round; the costly references run on the first.

    A failed operation is an error unless it is one of the workload's known
    failures and failed exactly as named there.  The artifacts of exit 0 and
    of exit 1 (the program's own checks failed, every artifact written) are
    checked.
    """
    import checks

    import_program()
    errors = []
    for k, recs in enumerate(rounds):
        for r in recs:
            if r["exit"] == 0:
                continue
            fault = wl.known_failures.get(r["label"])
            why = _failure(r["dir"])
            if fault is None or r["exit"] != fault.exit or not why.startswith(fault.error):
                errors.append(f"round {k}: {r['label']} exited {r['exit']}: {why}")
        dirs = {r["label"]: r["dir"] for r in recs if r["exit"] in (0, 1)}
        if dirs:
            errors += [f"round {k}: {e}" for e in checks.CHECKS[wl.name](dirs, wl.params, k == 0)]
    return errors


def count_ops(rounds) -> tuple[int, int]:
    attempted = sum(len(r) for r in rounds)
    failed = sum(1 for r in rounds for rec in r if rec["exit"] != 0)
    return attempted, failed


def fingerprint() -> dict:
    import importlib.util

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": BLAS_THREADS,
        "latframe_threads_flag": ("applied through threadpoolctl"
                                  if importlib.util.find_spec("threadpoolctl")
                                  else "not applied: threadpoolctl is not installed"),
    }


def run_untraced(wl, wdir: Path, seconds: float) -> dict:
    env = child_env()
    measure_setup(env, 1)  # warm-up: bytecode and file caches
    setup = measure_setup(env, SETUP_SAMPLES)

    def one_round(k: int) -> list[dict]:
        if k:
            setup.extend(measure_setup(env, 1))
        return run_round_processes(wl, wdir / f"round{k}", env)

    rounds = run_rounds(seconds, one_round)
    setup += measure_setup(env, SETUP_SAMPLES)
    errors = check_rounds(wl, rounds)
    attempted, failed = count_ops(rounds)
    metrics = {
        "wall_s": statistics.median(sum(r["wall"] for r in recs) for recs in rounds),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r["rss_mb"] for recs in rounds for r in recs),
    }
    detail = {"rounds": len(rounds), "setup_samples": setup,
              "ops": [[{k: v for k, v in r.items() if k != "dir"} for r in recs]
                      for recs in rounds]}
    return {"errors": errors, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
            "detail": detail}


def run_traced(wl, wdir: Path, seconds: float, import_s: float) -> dict:
    from tracing import PER_LAYER_UNITS, Tracer

    # warm-up round: lazy imports, caches and BLAS threads start before timing
    warm = run_round_inprocess(wl, wdir / "warm")
    tracers = []

    def pair(k: int) -> list[dict]:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_round_inprocess(wl, wdir / f"traced{k}", tracer)
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        plain = run_round_inprocess(wl, wdir / f"plain{k}")
        for t_rec, p_rec in zip(traced, plain):
            t_rec["untraced_wall"] = p_rec["wall"]
        return traced

    rounds = run_rounds(seconds, pair)
    errors = check_rounds(wl, [warm] + rounds)
    for k, recs in enumerate(rounds):
        for r in recs:
            if r["self_sum"] > r["wall"]:
                errors.append(f"traced round {k}: {r['label']} self times sum to "
                              f"{r['self_sum']} > wall {r['wall']}")
    with open(wdir / "trace.jsonl", "w") as fh:
        for k, tracer in enumerate(tracers):
            tracer.dump(fh, round_index=k)
    per_round = [t.layer_metrics() for t in tracers]
    metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    traced_wall = statistics.median(sum(r["wall"] for r in recs) for recs in rounds)
    plain_wall = statistics.median(sum(r["untraced_wall"] for r in recs) for recs in rounds)
    metrics["cli.import_s"] = import_s
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    attempted, failed = count_ops(rounds)
    return {"errors": errors, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER_UNITS.items()},
            "detail": {"rounds": len(rounds), "bindings": tracers[0].counts["trace.bindings"]}}


def run_workload(name: str, seed: int, seconds: float, import_s: float | None) -> dict:
    """Run one workload; traced (in process) when the first import time is given."""
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    wdir = OUT / name
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    if import_s is None:
        res = run_untraced(wl, wdir, seconds)
    else:
        res = run_traced(wl, wdir, seconds, import_s)
    res.update(workload=name, seed=seed, seconds=seconds, trace=int(import_s is not None),
               known_failures={k: dataclasses.asdict(f) for k, f in wl.known_failures.items()},
               fingerprint=fingerprint())
    (wdir / "result.json").write_text(json.dumps(res, indent=1, default=str) + "\n")
    return res


def _summary_line(name: str, res: dict) -> str:
    parts = [f"{k}={m['value']:.4g} {m['unit']}" for k, m in res["metrics"].items()]
    return (f"# {name}: attempted={res['attempted']} failed={res['failed']} "
            f"correct={not res['errors']} " + " ".join(parts))


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in a benchmark process of its own.

    A forked command's peak RSS counts the parent's pages before exec, so
    one workload's in-process checks must not leave this process large
    while the next workload's commands are measured.
    """
    import workloads

    finals = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)],
                              cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        finals[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(f["correct"] for f in finals.values()),
        "attempted": sum(f["attempted"] for f in finals.values()),
        "failed": sum(f["failed"] for f in finals.values()),
        "metrics": {f"{n}.{k}": m for n, f in finals.items() for k, m in f["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "latframe" / "cli.py").is_file():
        print(f"bench: no latframe sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    import_s = None
    if args.trace:
        # BLAS reads its thread count when numpy loads, inside this import
        for var in THREAD_VARS:
            os.environ[var] = str(BLAS_THREADS)
        t0 = time.perf_counter()
        import_program()
        import_s = time.perf_counter() - t0
    res = run_workload(args.workload, args.seed, args.seconds, import_s)
    for e in res["errors"]:
        print(f"# {args.workload}: CHECK FAILED: {e}", file=sys.stderr)
    print(_summary_line(args.workload, res))
    print("# fingerprint " + json.dumps(res["fingerprint"], sort_keys=True))
    print(json.dumps({"correct": not res["errors"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
