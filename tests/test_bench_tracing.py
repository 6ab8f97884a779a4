"""The benchmark's per-layer metrics name spans the tracer really records.

`bench/tracing.py` sums span self times by name.  A metric whose span name
no longer matches a wrapped latframe function or method reads 0 and shows
nothing, so every name it lists must resolve and be wrapped by `install()`.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import latframe.cli  # noqa: F401  (imports every layer module the tracer wraps)


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _span_names(tracing):
    names = {n for spans in tracing.TIME_METRICS.values() for n in spans}
    names |= set(tracing.CALL_METRICS.values())
    names |= {f"{short}.{cls}.{meth}"
              for short, classes in tracing.CLASS_METHODS.items()
              for cls, methods in classes.items() for meth in methods}
    return names


def _resolve(name):
    """The object bound at a span name: module attribute or class attribute."""
    short, *path = name.split(".")
    obj = sys.modules.get(f"latframe.{short}")
    for part in path:
        if obj is None:
            return None
        obj = vars(obj).get(part)
    return obj


def test_traced_span_names_resolve_to_latframe_callables():
    tracing = _load_tracing()
    names = _span_names(tracing)
    assert {"quadratic.hopping_coeffs", "fock.Evolution.propagator",
            "lattice.Window.is_subwindow_of"} <= names
    unresolved = sorted(n for n in names if not inspect.isfunction(_resolve(n)))
    assert not unresolved, f"span names with no latframe function or method: {unresolved}"


def test_tracer_wraps_every_span_name():
    # install() wraps only public functions of each module (its __all__) and
    # the listed class methods; a name outside them is never recorded
    tracing = _load_tracing()
    names = _span_names(tracing)
    originals = {name: _resolve(name) for name in names}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        unwrapped = sorted(n for n in names
                           if _resolve(n) is originals[n]
                           or inspect.unwrap(_resolve(n)) is not originals[n])
    finally:
        tracer.uninstall()
    assert not unwrapped, f"span names the tracer never records: {unwrapped}"
    assert all(_resolve(n) is originals[n] for n in names)
