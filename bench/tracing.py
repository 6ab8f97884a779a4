"""In-memory span tracing of latframe from outside the package.

`Tracer.install()` replaces every public function of the latframe modules
(and the few class methods that carry a layer of their own) with a wrapper
that records a span (name, start, end, parent).  The wrapper is bound at
every place the original object is bound: `latframe.cli` imports `lr_check`
and the rest by name, `latframe.interactions` binds `coords_pointwise`
itself, and so on, so each module attribute that *is* the original function
is swapped.  `uninstall()` puts the originals back.  Nothing inside
`src/latframe` changes.

Self time of a span is its duration minus the time its direct children
cover; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYER_MODULES = ("lattice", "magnetic", "frame_analysis", "interactions",
                 "quadratic", "fock", "serialize", "config", "cli")

# class methods that are layers of their own; other methods run inside the
# span of the function that calls them
CLASS_METHODS = {
    "lattice": {"Window": ("distance_matrix", "center_index", "content_hash",
                           "index", "is_subwindow_of")},
    "fock": {"Evolution": ("__init__", "heisenberg", "propagator")},
}

# per-layer time metric -> spans whose self times it sums
TIME_METRICS = {
    "magnetic.overlap_matrix_s": ("magnetic.overlap_matrix", "magnetic.overlap"),
    "magnetic.window_coords_s": ("magnetic.window_coords", "magnetic.chi_coords",
                                 "magnetic.choose_truncation"),
    "magnetic.coords_pointwise_s": ("magnetic.coords_pointwise", "magnetic.laguerre_psi"),
    "frame_analysis.gram_s": ("frame_analysis.gram",),
    "frame_analysis.frame_bounds_estimate_s": ("frame_analysis.frame_bounds_estimate",),
    "frame_analysis.frame_operator_s": ("frame_analysis.frame_operator",),
    "frame_analysis.s_inverse_power_elements_s": ("frame_analysis.s_inverse_power_elements",),
    "frame_analysis.neumann_certificate_s": ("frame_analysis.neumann_certificate",),
    "frame_analysis.verify_decay_s": ("frame_analysis.verify_decay",),
    "quadratic.landau_coefficients_s": ("quadratic.landau_coefficients",),
    "quadratic.hopping_coeffs_s": ("quadratic.hopping_coeffs",),
    "interactions.c_phi_s": ("interactions.c_phi",),
    "interactions.v_omega_s": ("interactions.v_omega",),
    "interactions.w_kernel_self_s": ("interactions.w_kernel",),
    "fock.operator_norm_s": ("fock.operator_norm", "fock.anticommutator_norm"),
    "fock.lr_check_self_s": ("fock.lr_check",),
    "fock.mode_basis_s": ("fock.mode_basis",),
    "fock.mode_operators_s": ("fock.mode_operators", "fock.jw_lowering"),
    "fock.hamiltonian_s": ("fock.build_interaction_hamiltonian",
                           "fock.build_quadratic_hamiltonian", "fock.monomial_operator"),
    "fock.eigh_s": ("fock.Evolution.__init__",),
    "fock.heisenberg_s": ("fock.Evolution.heisenberg", "fock.Evolution.propagator"),
    "fock.volume_convergence_self_s": ("fock.volume_convergence",),
}

# per-layer count metric -> span whose calls it counts
CALL_METRICS = {
    "interactions.w_kernel_calls": "interactions.w_kernel",
    "fock.operator_norm_calls": "fock.operator_norm",
    "fock.eigh_calls": "fock.Evolution.__init__",
    "fock.heisenberg_calls": "fock.Evolution.heisenberg",
}

_SERIALIZE_READERS = ("serialize.read_", "serialize.parse_")

# every metric of a traced run, in report order, with its unit
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "lattice.self_s": "s",
    **{m: "s" for m in TIME_METRICS},
    "serialize.write_s": "s",
    "magnetic.coords_pointwise_points": "count",
    "interactions.c_phi_probes": "count",
    "serialize.rows": "count",
    **{m: "count" for m in CALL_METRICS},
    "fock.dim": "dim",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    # -- counters taken from arguments and results -----------------------
    def _observers(self):
        counts = self.counts

        def points(args, kwargs, result):
            shape = getattr(args[1] if len(args) > 1 else kwargs["x"], "shape", ())
            n = 1
            for s in shape[:-1]:
                n *= int(s)
            counts["magnetic.coords_pointwise_points"] += n

        def probes(args, kwargs, result):
            counts["interactions.c_phi_probes"] += result.family_size

        def dim(args, kwargs, result):
            counts["fock.dim"] = max(counts["fock.dim"], result.dim)

        return {"magnetic.coords_pointwise": points, "interactions.c_phi": probes,
                "fock.mode_basis": dim}

    def _write_csv_counting(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def write_csv(path, header, rows):
            rows = list(rows)
            counts["serialize.rows"] += len(rows)
            return fn(path, header, rows)

        return write_csv

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Swap in wrappers at every binding of each public latframe function."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = {name: sys.modules[f"latframe.{name}"] for name in LAYER_MODULES}
        observers = self._observers()
        replacements: dict[int, tuple] = {}
        for short, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                target = self._write_csv_counting(obj) if name == "serialize.write_csv" else obj
                replacements[id(obj)] = (obj, self._wrap(name, target, observers.get(name)))
            for cls_name, methods in CLASS_METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    self._set(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", orig))
        bound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "latframe" or mod_name.startswith("latframe.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
                    bound += 1
        self.counts["trace.bindings"] = bound

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis --------------------------------------------------------
    def self_times(self, lo: int = 0) -> list[float]:
        """Self time of spans[lo:]: duration minus the duration of direct children."""
        spans = self.spans[lo:]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= lo:
                child[parent - lo] += end - start
        return [(s[2] - s[1]) - c for s, c in zip(spans, child)]

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric from all spans recorded so far."""
        selfs = self.self_times()
        by_name: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span, st in zip(self.spans, selfs):
            by_name[span[0]] += st
            calls[span[0]] += 1
        out = {metric: sum(by_name[s] for s in names) for metric, names in TIME_METRICS.items()}
        out["lattice.self_s"] = sum(v for k, v in by_name.items() if k.startswith("lattice."))
        out["serialize.write_s"] = sum(
            v for k, v in by_name.items()
            if k.startswith("serialize.") and not k.startswith(_SERIALIZE_READERS))
        for metric, span_name in CALL_METRICS.items():
            out[metric] = calls[span_name]
        for key in ("magnetic.coords_pointwise_points", "interactions.c_phi_probes",
                    "fock.dim", "serialize.rows"):
            out[key] = self.counts[key]
        return out

    def dump(self, fh, round_index: int = 0) -> None:
        """Write spans as JSON lines: round, index, name, start, end, parent, self."""
        selfs = self.self_times()
        t0 = self.spans[0][1] if self.spans else 0.0
        for k, ((name, start, end, parent), st) in enumerate(zip(self.spans, selfs)):
            fh.write(json.dumps({"round": round_index, "index": k, "name": name,
                                 "start": start - t0, "end": end - t0,
                                 "parent": parent, "self": st}) + "\n")
