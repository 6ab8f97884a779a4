"""Workload definitions: the latframe commands of one round, made from a seed.

A round is a fixed list of operations; one operation is one `latframe
<command>` invocation with its own config file.  The seed draws only inputs
that leave the amount of work unchanged (couplings, potential constants, the
program's sampling seed where the sampled sizes do not change the work), so
runs with different seeds measure the same work on different data.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# distance across the 8-site alpha = beta = 1 chain in the label metric
_CHAIN8_DMAX = 7.0
# light-cone speed 16 g C / zeta of that chain at f0 = mu = 1; C scales
# linearly with f0, so d_max / (f0 * V1) is the saturation time of a run
_CHAIN8_V1 = 12861.375708829162


@dataclass(frozen=True)
class Op:
    """One latframe invocation: label (unique in the round), command, INI text."""

    label: str
    command: str
    config: str
    seed: int


@dataclass(frozen=True)
class Fault:
    """How a known-faulty operation fails: its exit code, the start of the
    error message in its summary.json, and where the fault is."""

    exit: int
    error: str
    where: str


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    params: dict = field(default_factory=dict)
    # label -> Fault of an operation that fails on every run; any other
    # failure, or this one failing another way, makes the run incorrect
    known_failures: dict = field(default_factory=dict)


def _ini(sections: dict) -> str:
    out = []
    for sec, keys in sections.items():
        out.append(f"[{sec}]")
        out.extend(f"{k} = {v}" for k, v in keys.items())
        out.append("")
    return "\n".join(out)


def lightcone(seed: int) -> Workload:
    rng = random.Random(f"lightcone/{seed}")
    f0 = round(rng.uniform(0.8, 1.25), 6)
    t_sat = _CHAIN8_DMAX / (f0 * _CHAIN8_V1)
    params = {"alpha": 1.0, "beta": 1.0, "chain_length": 8, "f0": f0, "mu": 1.0,
              "t_max": float(f"{t_sat:.6g}"), "n_t": 2}
    cfg = _ini({
        "lattice": {"alpha": 1.0, "beta": 1.0, "shape": "chain", "chain_length": 8},
        "model": {"f0": f0, "mu": 1.0},
        "dynamics": {"t_max": params["t_max"], "n_t": params["n_t"]},
    })
    return Workload(
        "lightcone",
        (Op("lr", "lr", cfg, seed),), params)


def convergence(seed: int) -> Workload:
    rng = random.Random(f"convergence/{seed}")
    f0 = round(rng.uniform(0.8, 1.25), 6)
    params = {"alpha": 1.0, "beta": 1.0, "chain_lengths": (6, 8, 10), "f0": f0,
              "mu": 1.0, "t_max": 0.2, "n_t": 2}
    cfg = _ini({
        "lattice": {"alpha": 1.0, "beta": 1.0, "shape": "chain"},
        "model": {"f0": f0, "mu": 1.0},
        "dynamics": {"t_max": params["t_max"], "n_t": params["n_t"]},
        "windows": {"chain_lengths": " ".join(map(str, params["chain_lengths"]))},
    })
    return Workload(
        "convergence",
        (Op("converge", "converge", cfg, seed),), params)


def kernel(seed: int) -> Workload:
    rng = random.Random(f"kernel/{seed}")
    c1 = round(rng.uniform(0.5, 2.0), 6)
    sigma1 = round(rng.uniform(0.5, 1.0), 6)
    params = {"alpha": 2.8, "beta": 2.8, "radius": 12.0, "c1": c1, "sigma1": sigma1,
              "nodes": 40, "n_quadruples": 1, "program_seed": 12}
    cfg = _ini({
        "lattice": {"alpha": 2.8, "beta": 2.8, "radius": params["radius"]},
        "kernel": {"c1": c1, "sigma1": sigma1, "nodes": params["nodes"],
                   "n_quadruples": params["n_quadruples"]},
    })
    return Workload(
        "kernel",
        (Op("wkernel", "wkernel", cfg, params["program_seed"]),), params)


def certificate(seed: int) -> Workload:
    rng = random.Random(f"certificate/{seed}")
    f0 = round(rng.uniform(0.5, 2.0), 6)
    mu = round(rng.uniform(0.5, 1.5), 6)
    root_pi = math.sqrt(math.pi)
    params = {"alpha": root_pi, "beta": root_pi, "radius": 12.0, "cphi_radius": 20.0,
              "f0": f0, "mu": mu, "fail_radius": 16.0}
    base = {"alpha": root_pi, "beta": root_pi, "radius": params["radius"]}
    ops = (
        Op("gram", "gram", _ini({"lattice": base}), seed),
        Op("bounds", "bounds", _ini({"lattice": base}), seed),
        Op("decay_p1", "decay", _ini({"lattice": base, "certificate": {"p": 1}}), seed),
        Op("decay_p2", "decay", _ini({"lattice": base, "certificate": {"p": 2}}), seed),
        Op("landau", "landau", _ini({"lattice": dict(base, level_max=1)}), seed),
        Op("cphi", "cphi", _ini({"lattice": dict(base, radius=params["cphi_radius"]),
                                 "model": {"f0": f0, "mu": mu}}), seed),
        Op("landau_r16", "landau",
           _ini({"lattice": dict(base, radius=params["fail_radius"])}), seed),
    )
    return Workload(
        "certificate", ops, params,
        known_failures={"landau_r16": Fault(3, "ZeroDivisionError",
                                            "neumann_certificate (frame_analysis.py:308): "
                                            "r_p rounds to 1 at radius 16")})


WORKLOADS = {"lightcone": lightcone, "convergence": convergence, "kernel": kernel,
             "certificate": certificate}
