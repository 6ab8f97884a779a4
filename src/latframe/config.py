"""Run configuration: flat key/value text with sections, strictly validated.

Each key is declared once, as a `RunConfig` field that carries its section,
its default and its lower bound; its parser follows from the annotation.  The
parse table, the bound checks and `REFERENCE_CONFIG` are all read off those
fields.  Unknown sections or keys are rejected, and failures carry the
section/key they belong to so the front end can report them as structured
records.  The full schema is documented in the project README.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace
from functools import partial
from math import pi, sqrt
from pathlib import Path

from .lattice import LatticeParams, Window, build_chain, build_window
from .magnetic import MagneticParams

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config_text",
    "validate",
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


def _key(section: str, default, *, gt: float | None = None, ge: float | None = None,
         choices: tuple[str, ...] = ()):
    """A config key in [section] with its default: a number, or each number of a
    list, must be > gt or >= ge, and a string one of `choices`."""
    return field(default=default,
                 metadata={"section": section, "gt": gt, "ge": ge, "choices": choices})


_ROOT_PI = sqrt(pi)


@dataclass(frozen=True)
class RunConfig:
    alpha: float = _key("lattice", _ROOT_PI, gt=0)
    beta: float = _key("lattice", _ROOT_PI, gt=0)
    radius: float = _key("lattice", 12.0, gt=0)
    level_max: int = _key("lattice", 0, ge=0)
    shape: str = _key("lattice", "ball", choices=("ball", "chain"))
    chain_length: int = _key("lattice", 8, ge=1)
    ell_b: float = _key("magnetic", 1.0, gt=0)
    eps_b: float = _key("magnetic", 1.0, gt=0)
    f0: float = _key("model", 1.0, ge=0)
    mu: float = _key("model", 1.0, gt=0)
    p: int = _key("certificate", 1, ge=1)
    t_max: float = _key("dynamics", 2.0, gt=0)
    n_t: int = _key("dynamics", 21, ge=2)
    c1: float = _key("kernel", 1.0, gt=0)
    sigma1: float = _key("kernel", 0.5, gt=0)
    # the convergence check reruns with max(8, nodes - 8) nodes, which must differ
    nodes: int = _key("kernel", 40, ge=9)
    n_quadruples: int = _key("kernel", 30, ge=1)
    diam_max_ell: float = _key("kernel", 8.0, gt=0)
    radii: tuple[float, ...] = _key("windows", (), gt=0)
    chain_lengths: tuple[int, ...] = _key("windows", (4, 6, 8), ge=1)
    seed: int = _key("run", 0, ge=0)
    level: int = _key("landau", 0, ge=0)


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


def _parse_choice(choices: tuple[str, ...], text: str) -> str:
    if text not in choices:
        raise ValueError(f"must be one of {', '.join(map(repr, choices))}, got {text!r}")
    return text


_PARSERS = {"float": _parse_float, "int": _parse_int}


def _parser(f):
    """The parser of a field, read off its annotation: "tuple[T, ...]" reads a
    list of T separated by spaces or commas, and "str" one of the field's choices."""
    if f.type.startswith("tuple["):
        item = _PARSERS[f.type[len("tuple["):-len(", ...]")]]
        return lambda text: tuple(item(t) for t in text.replace(",", " ").split())
    if f.type == "str":
        return partial(_parse_choice, f.metadata["choices"])
    return _PARSERS[f.type]


# (section, key) -> parser
_KEYS = {(f.metadata["section"], f.name): _parser(f) for f in fields(RunConfig)}
_SECTIONS = {section for section, _ in _KEYS}


def _check_bound(f, value) -> None:
    gt, ge = f.metadata["gt"], f.metadata["ge"]
    for v in value if isinstance(value, tuple) else (value,):
        if (gt is not None and v <= gt) or (ge is not None and v < ge):
            need = f"greater than {gt}" if gt is not None else f"at least {ge}"
            raise ConfigError(f.metadata["section"], f.name, f"must be {need}, got {v}")


def _increasing(values: tuple) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


def validate(cfg: RunConfig) -> RunConfig:
    """cfg, if every key is within its declared bound and the keys agree with
    each other; otherwise a ConfigError naming the first offending key."""
    for f in fields(cfg):
        _check_bound(f, getattr(cfg, f.name))
    # bounds and converge compare at least two nested windows
    if len(cfg.radii) == 1:
        raise ConfigError("windows", "radii", "need at least two nested radii")
    if not _increasing(cfg.radii):
        raise ConfigError("windows", "radii", "radii must be strictly increasing")
    if len(cfg.chain_lengths) < 2:
        raise ConfigError("windows", "chain_lengths", "need at least two nested lengths")
    if not _increasing(cfg.chain_lengths):
        raise ConfigError("windows", "chain_lengths", "lengths must be strictly increasing")
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
            parse = _KEYS.get((section, key))
            if parse is None:
                raise ConfigError(section, key, f"unknown key {key!r}")
            try:
                values[key] = parse(raw.strip())
            except ValueError as exc:
                raise ConfigError(section, key, str(exc)) from None
    return validate(replace(RunConfig(), **values))


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
                         level_max=cfg.level_max)


def make_magnetic_params(cfg: RunConfig) -> MagneticParams:
    return MagneticParams(ell_b=cfg.ell_b, eps_b=cfg.eps_b)


def make_window(cfg: RunConfig) -> Window:
    lp = make_lattice_params(cfg)
    if cfg.shape == "chain":
        return build_chain(lp, cfg.chain_length)
    return build_window(lp)


def _reference_config() -> str:
    lines = ['# latframe reference configuration; every key is optional and shown at',
             '# its default.  An empty radii list means radius / 2, 3 radius / 4 and',
             '# radius.']
    section = None
    for f in fields(RunConfig):
        if f.metadata["section"] != section:
            section = f.metadata["section"]
            lines += ["", f"[{section}]"]
        value = f.default
        text = " ".join(map(str, value)) if isinstance(value, tuple) else str(value)
        lines.append(f"{f.name} = {text}".rstrip())
    return "\n".join(lines) + "\n"


REFERENCE_CONFIG = _reference_config()
