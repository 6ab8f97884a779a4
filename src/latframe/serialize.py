"""Deterministic text formats for tables and reports.

Every float is printed with %.15g so that reruns of the same configuration
produce byte-identical artifacts; negative zero is normalized away for the
same reason.  The formats are line-based and binary-free:

csv      comma-separated with a header row; fields never contain commas
         (site ids use the colon form "r:i:j").
json     plain JSON with sorted keys and two-space indent.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .lattice import Site

__all__ = [
    "SerializeError",
    "fmt_float",
    "write_csv",
    "read_csv",
    "json_text",
    "write_json",
    "site_token",
]


class SerializeError(ValueError):
    pass


def fmt_float(x: float) -> str:
    """15 significant digits, with -0 folded into 0."""
    x = float(x)
    if x == 0.0:
        x = 0.0  # drops the sign of -0.0
    if math.isnan(x) or math.isinf(x):
        raise SerializeError(f"non-finite value {x!r} in output")
    return "%.15g" % x


def _fmt_scalar(value) -> str | None:
    """A bool as true/false, an int as its digits, a float by fmt_float;
    None for any other type."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt_float(float(value))
    return None


def _fmt_cell(value) -> str:
    if isinstance(value, str):
        if "," in value or "\n" in value:
            raise SerializeError(f"cell {value!r} contains a separator")
        return value
    text = _fmt_scalar(value)
    if text is None:
        raise SerializeError(f"unsupported cell type {type(value).__name__}")
    return text


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    width = len(header)
    for row in rows:
        if len(row) != width:
            raise SerializeError(f"row width {len(row)} mismatches header width {width}")
        lines.append(",".join(_fmt_cell(c) for c in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.split("\n") if ln != ""]
    if not lines:
        raise SerializeError(f"{path}: empty csv")
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def _json_value(obj, indent: int) -> str:
    pad = "  " * (indent + 1)
    close = "  " * indent
    if obj is None:
        return "null"
    text = _fmt_scalar(obj)
    if text is not None:
        return text
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise SerializeError(f"json keys must be strings, got {key!r}")
            items.append(f"{pad}{json.dumps(key)}: {_json_value(obj[key], indent + 1)}")
        return "{\n" + ",\n".join(items) + f"\n{close}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{pad}{_json_value(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{close}]"
    raise SerializeError(f"unsupported json type {type(obj).__name__}")


def json_text(obj) -> str:
    """Canonical JSON: sorted keys, two-space indent, %.15g floats."""
    return _json_value(obj, 0) + "\n"


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(json_text(obj), encoding="utf-8")


def site_token(site: Site) -> str:
    return f"{site.r}:{site.i}:{site.j}"
