"""Deterministic text formats for tables and reports.

Every float is printed with %.15g so that reruns of the same configuration
produce byte-identical artifacts; negative zero is normalized away for the
same reason.  The formats are line-based and binary-free:

csv      comma-separated with a header row; fields never contain commas
         (site ids use the colon form "r:i:j").  Tables are formatted a
         block of rows at a time, column by column, by the column's dtype:
         a float column gets its finite check and -0 fold on the array, then
         %.15g per value; bools are true/false, ints their digits.  Rows
         given as a list become one array per column and block, so a cell
         is written by the common type of its column, as in a ColumnTable;
         a column numpy can only hold as objects (None, a dict) is refused.
json     plain JSON with sorted keys and two-space indent.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .lattice import Site

__all__ = [
    "SerializeError",
    "ColumnTable",
    "fmt_float",
    "write_csv",
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


# rows formatted and written at a time: each column of a block is formatted as
# one array, and a small block keeps the cell strings of a mid-size table from
# raising a command's memory (one 3721-row block raised `landau`'s peak
# resident set at radius 16 by 0.7 MB); a pair table's block is at least one
# row of pairs
BLOCK_ROWS = 128


class ColumnTable:
    """Rows held by column: arrays broadcast to one shape, row k made of the
    cells at flat (C-order) position k.  A pair table passes (n, 1) and
    (1, m) site columns beside (n, m) values, and write_csv expands them one
    block of rows at a time.  Iterating gives the rows as tuples."""

    def __init__(self, *columns):
        self.columns = np.broadcast_arrays(*(np.atleast_1d(c) for c in columns))

    def __len__(self) -> int:
        return self.columns[0].size

    def blocks(self) -> Iterator[list[np.ndarray]]:
        """The columns, flat, over runs of whole leading-axis rows that hold
        about BLOCK_ROWS table rows each."""
        shape = self.columns[0].shape
        step = max(1, BLOCK_ROWS // max(1, math.prod(shape[1:])))
        for lo in range(0, shape[0], step):
            yield [c[lo:lo + step].ravel() for c in self.columns]

    def __iter__(self) -> Iterator[tuple]:
        for block in self.blocks():
            yield from zip(*block)


def _fmt_column(col: np.ndarray) -> list[str]:
    """The cells of one column of floats, bools, ints or strings."""
    kind = col.dtype.kind
    if kind == "f":
        bad = ~np.isfinite(col)
        if bad.any():
            raise SerializeError(f"non-finite value {float(col[bad][0])!r} in output")
        return ["%.15g" % x for x in (col + 0.0).tolist()]  # + 0.0 folds -0.0 into 0.0
    if kind == "b":
        return ["true" if x else "false" for x in col.tolist()]
    if kind in "iu":
        return list(map(str, col.tolist()))
    if kind == "U":
        cells = col.tolist()
        bad = next((c for c in cells if "," in c or "\n" in c), None)
        if bad is not None:
            raise SerializeError(f"cell {bad!r} contains a separator")
        return cells
    raise SerializeError(f"unsupported column of dtype {col.dtype}")


def _row_column(cells: tuple) -> np.ndarray:
    """The cells of one column of a block of rows as one array.  A cell that
    is a sequence, or a number among text (which numpy would turn into its
    repr), is refused rather than converted."""
    col = np.array(cells)
    if col.ndim != 1 or (col.dtype.kind == "U" and not all(isinstance(c, str) for c in cells)):
        kinds = ", ".join(sorted({type(c).__name__ for c in cells}))
        raise SerializeError(f"a column of {kinds} cells is not one scalar type")
    return col


def _column_blocks(rows, width: int) -> Iterator[list[np.ndarray]]:
    """A ColumnTable's blocks, or any other iterable of rows cut into blocks
    of BLOCK_ROWS and turned into one array per column."""
    if isinstance(rows, ColumnTable):
        if len(rows.columns) != width:
            raise SerializeError(f"{len(rows.columns)} columns mismatch header width {width}")
        yield from rows.blocks()
        return
    it = iter(rows)
    while block := list(itertools.islice(it, BLOCK_ROWS)):
        for row in block:
            if len(row) != width:
                raise SerializeError(f"row width {len(row)} mismatches header width {width}")
        yield [_row_column(col) for col in zip(*block)]


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a table given as a ColumnTable or as rows, a block of rows at a
    time; a cell that cannot be written leaves no file behind."""
    path = Path(path)
    try:
        with path.open("w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for block in _column_blocks(rows, len(header)):
                cells = [_fmt_column(col) for col in block]
                fh.write("".join(",".join(row) + "\n" for row in zip(*cells)))
    except BaseException:
        path.unlink(missing_ok=True)
        raise


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
