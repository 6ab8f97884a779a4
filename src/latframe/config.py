"""Run configuration: flat key/value text with sections, strictly validated.

Unknown sections or keys are rejected, every value is type- and
range-checked, and failures carry the section/key they belong to so the
front end can report them as structured records.  Optional keys accept the
literal "none".  The full schema, with defaults, is documented in the
project README.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
from math import pi, sqrt
from pathlib import Path

from .frame_analysis import INNER_MARGIN_ELL
from .lattice import LatticeParams, Window, build_chain, build_window
from .magnetic import MagneticParams

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config_text",
    "load_config",
    "make_lattice_params",
    "make_magnetic_params",
    "make_window",
    "REFERENCE_CONFIG",
]


class ConfigError(ValueError):
    """Config rejection with the section/key it occurred at ("" for file-level)."""

    def __init__(self, section: str, key: str, message: str):
        self.section = section
        self.key = key
        self.message = message
        where = f"[{section}] {key}: " if section else ""
        super().__init__(f"config error: {where}{message}")


_ROOT_PI = sqrt(pi)


@dataclass(frozen=True)
class RunConfig:
    # lattice
    alpha: float = _ROOT_PI
    beta: float = _ROOT_PI
    radius: float = 12.0
    level_max: int = 0
    nu: float | None = None
    shape: str = "ball"
    chain_length: int = 8
    # magnetic
    ell_b: float = 1.0
    eps_b: float = 1.0
    trunc: int | None = None
    # model
    f0: float = 1.0
    mu: float = 1.0
    zeta: float | None = None
    xi: float | None = None
    # certificate
    p: int = 1
    g: float | None = None
    eps: float | None = None
    theta: float | None = None
    margin_ell: float = INNER_MARGIN_ELL
    # dynamics
    t_max: float = 2.0
    n_t: int = 21
    # kernel
    c1: float = 1.0
    sigma1: float = 0.5
    nodes: int = 40
    n_quadruples: int = 30
    diam_max_ell: float = 8.0
    # windows
    radii: tuple[float, ...] = ()
    chain_lengths: tuple[int, ...] = (4, 6, 8)
    # landau
    level: int = 0
    # run
    seed: int = 0
    threads: int | None = None


def _parse_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError as exc:
        raise ValueError(f"not a number: {text!r}") from exc
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError(f"not finite: {text!r}")
    return v


def _parse_int(text: str) -> int:
    try:
        return int(text, 10)
    except ValueError as exc:
        raise ValueError(f"not an integer: {text!r}") from exc


def _parse_float_list(text: str) -> tuple[float, ...]:
    toks = [t for t in text.replace(",", " ").split() if t]
    return tuple(_parse_float(t) for t in toks)


def _parse_int_list(text: str) -> tuple[int, ...]:
    toks = [t for t in text.replace(",", " ").split() if t]
    return tuple(_parse_int(t) for t in toks)


def _parse_shape(text: str) -> str:
    if text not in ("ball", "chain"):
        raise ValueError(f"shape must be 'ball' or 'chain', got {text!r}")
    return text


# (section, key) -> (RunConfig field, parser, optional)
_SCHEMA = {
    ("lattice", "alpha"): ("alpha", _parse_float, False),
    ("lattice", "beta"): ("beta", _parse_float, False),
    ("lattice", "radius"): ("radius", _parse_float, False),
    ("lattice", "level_max"): ("level_max", _parse_int, False),
    ("lattice", "nu"): ("nu", _parse_float, True),
    ("lattice", "shape"): ("shape", _parse_shape, False),
    ("lattice", "chain_length"): ("chain_length", _parse_int, False),
    ("magnetic", "ell_b"): ("ell_b", _parse_float, False),
    ("magnetic", "eps_b"): ("eps_b", _parse_float, False),
    ("magnetic", "trunc"): ("trunc", _parse_int, True),
    ("model", "f0"): ("f0", _parse_float, False),
    ("model", "mu"): ("mu", _parse_float, False),
    ("model", "zeta"): ("zeta", _parse_float, True),
    ("model", "xi"): ("xi", _parse_float, True),
    ("certificate", "p"): ("p", _parse_int, False),
    ("certificate", "g"): ("g", _parse_float, True),
    ("certificate", "eps"): ("eps", _parse_float, True),
    ("certificate", "theta"): ("theta", _parse_float, True),
    ("certificate", "margin_ell"): ("margin_ell", _parse_float, False),
    ("dynamics", "t_max"): ("t_max", _parse_float, False),
    ("dynamics", "n_t"): ("n_t", _parse_int, False),
    ("kernel", "c1"): ("c1", _parse_float, False),
    ("kernel", "sigma1"): ("sigma1", _parse_float, False),
    ("kernel", "nodes"): ("nodes", _parse_int, False),
    ("kernel", "n_quadruples"): ("n_quadruples", _parse_int, False),
    ("kernel", "diam_max_ell"): ("diam_max_ell", _parse_float, False),
    ("windows", "radii"): ("radii", _parse_float_list, False),
    ("windows", "chain_lengths"): ("chain_lengths", _parse_int_list, False),
    ("landau", "level"): ("level", _parse_int, False),
    ("run", "seed"): ("seed", _parse_int, False),
    ("run", "threads"): ("threads", _parse_int, True),
}

_SECTIONS = {section for section, _ in _SCHEMA}


def _check_positive(cfg: RunConfig, field: str, section: str, key: str,
                    strict: bool = True) -> None:
    v = getattr(cfg, field)
    if v is None:
        return
    if (v <= 0) if strict else (v < 0):
        kind = "positive" if strict else "non-negative"
        raise ConfigError(section, key, f"must be {kind}, got {v}")


def _validate(cfg: RunConfig) -> RunConfig:
    for field, section, key in (
        ("alpha", "lattice", "alpha"), ("beta", "lattice", "beta"),
        ("radius", "lattice", "radius"), ("ell_b", "magnetic", "ell_b"),
        ("eps_b", "magnetic", "eps_b"), ("mu", "model", "mu"),
        ("zeta", "model", "zeta"), ("xi", "model", "xi"),
        ("eps", "certificate", "eps"), ("theta", "certificate", "theta"),
        ("t_max", "dynamics", "t_max"), ("c1", "kernel", "c1"),
        ("sigma1", "kernel", "sigma1"), ("diam_max_ell", "kernel", "diam_max_ell"),
        ("threads", "run", "threads"),
    ):
        _check_positive(cfg, field, section, key)
    for field, section, key in (
        ("f0", "model", "f0"), ("margin_ell", "certificate", "margin_ell"),
        ("level_max", "lattice", "level_max"), ("level", "landau", "level"),
        ("seed", "run", "seed"),
    ):
        _check_positive(cfg, field, section, key, strict=False)
    if cfg.nu is not None and cfg.nu < 0:
        raise ConfigError("lattice", "nu", f"must be non-negative, got {cfg.nu}")
    if cfg.trunc is not None and cfg.trunc < 0:
        raise ConfigError("magnetic", "trunc", f"must be non-negative, got {cfg.trunc}")
    if cfg.chain_length < 1:
        raise ConfigError("lattice", "chain_length", f"must be at least 1, got {cfg.chain_length}")
    if cfg.p < 1:
        raise ConfigError("certificate", "p", f"must be a positive integer, got {cfg.p}")
    if cfg.g is not None and cfg.g < 1:
        raise ConfigError("certificate", "g", f"must be at least 1, got {cfg.g}")
    if cfg.n_t < 2:
        raise ConfigError("dynamics", "n_t", f"need at least 2 time points, got {cfg.n_t}")
    if cfg.nodes < 9:
        # the convergence check reruns with max(8, nodes - 8) nodes, which must differ
        raise ConfigError("kernel", "nodes", f"need at least 9 nodes per axis, got {cfg.nodes}")
    if cfg.n_quadruples < 1:
        raise ConfigError("kernel", "n_quadruples", f"must be positive, got {cfg.n_quadruples}")
    if cfg.zeta is not None and cfg.xi is not None and cfg.xi <= cfg.zeta:
        raise ConfigError("model", "xi", f"need zeta < xi, got {cfg.zeta} >= {cfg.xi}")
    if any(r <= 0 for r in cfg.radii):
        raise ConfigError("windows", "radii", "all radii must be positive")
    if list(cfg.radii) != sorted(cfg.radii) or len(set(cfg.radii)) != len(cfg.radii):
        raise ConfigError("windows", "radii", "radii must be strictly increasing")
    if not cfg.chain_lengths:
        raise ConfigError("windows", "chain_lengths", "need at least one length")
    if any(l < 1 for l in cfg.chain_lengths):
        raise ConfigError("windows", "chain_lengths", "lengths must be positive")
    if list(cfg.chain_lengths) != sorted(cfg.chain_lengths) \
            or len(set(cfg.chain_lengths)) != len(cfg.chain_lengths):
        raise ConfigError("windows", "chain_lengths", "lengths must be strictly increasing")
    if cfg.level > cfg.level_max:
        raise ConfigError("landau", "level",
                          f"level {cfg.level} exceeds lattice level_max {cfg.level_max}")
    return cfg


def parse_config_text(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None, strict=True,
                                       empty_lines_in_values=False)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("", "", str(exc).replace("\n", " ")) from None
    if parser.defaults():
        key = next(iter(parser.defaults()))
        raise ConfigError("", key, "keys must live inside a section")
    values = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(section, "", f"unknown section [{section}]")
        for key, raw in parser.items(section):
            spec = _SCHEMA.get((section, key))
            if spec is None:
                raise ConfigError(section, key, f"unknown key {key!r}")
            field, parse, optional = spec
            raw = raw.strip()
            if optional and raw.lower() == "none":
                values[field] = None
                continue
            try:
                values[field] = parse(raw)
            except ValueError as exc:
                raise ConfigError(section, key, str(exc)) from None
    return _validate(replace(RunConfig(), **values))


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError("", "", f"cannot read {p}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError("", "", f"{p} is not utf-8 text: {exc}") from None
    return parse_config_text(text)


def make_lattice_params(cfg: RunConfig) -> LatticeParams:
    return LatticeParams(alpha=cfg.alpha, beta=cfg.beta, radius=cfg.radius,
                         level_max=cfg.level_max, nu=cfg.nu)


def make_magnetic_params(cfg: RunConfig) -> MagneticParams:
    return MagneticParams(ell_b=cfg.ell_b, eps_b=cfg.eps_b, laguerre_trunc=cfg.trunc)


def make_window(cfg: RunConfig) -> Window:
    lp = make_lattice_params(cfg)
    if cfg.shape == "chain":
        return build_chain(lp, cfg.chain_length)
    return build_window(lp)


REFERENCE_CONFIG = """\
# latframe reference configuration; every key is optional and shown at
# its default.  "none" selects the computed default where allowed, and an
# empty radii list means radius / 2, 3 radius / 4 and radius.

[lattice]
alpha = 1.7724538509055159
beta = 1.7724538509055159
radius = 12.0
level_max = 0
nu = none
shape = ball
chain_length = 8

[magnetic]
ell_b = 1.0
eps_b = 1.0
trunc = none

[model]
f0 = 1.0
mu = 1.0
zeta = none
xi = none

[certificate]
p = 1
g = none
eps = none
theta = none
margin_ell = 6.0

[dynamics]
t_max = 2.0
n_t = 21

[kernel]
c1 = 1.0
sigma1 = 0.5
nodes = 40
n_quadruples = 30
diam_max_ell = 8.0

[windows]
radii =
chain_lengths = 4 6 8

[run]
seed = 0
threads = none

[landau]
level = 0
"""
