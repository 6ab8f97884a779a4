"""Deterministic text formats: floats, CSV, JSON, site tokens."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from latframe.lattice import Site
import latframe.serialize
from latframe.serialize import (
    ColumnTable,
    SerializeError,
    fmt_float,
    json_text,
    site_token,
    write_csv,
)
from oracles import read_csv


def test_fmt_float_basics():
    assert fmt_float(0.1) == "0.1"
    assert fmt_float(2.0) == "2"
    assert fmt_float(-0.0) == "0"
    assert fmt_float(math.pi) == "3.14159265358979"
    assert fmt_float(1e300) == "1e+300"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_fmt_float_rejects_non_finite(bad):
    with pytest.raises(SerializeError):
        fmt_float(bad)


@given(st.floats(min_value=-1e308, max_value=1e308, allow_nan=False))
def test_fmt_float_reparses_close(x):
    # 15 significant digits: reparse agrees to a relative 5e-15
    y = float(fmt_float(x))
    assert y == pytest.approx(x, rel=5e-15, abs=5e-305)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    rows = [["a", 1, 0.25, True], ["b", -2, 1.5e-9, False]]
    write_csv(path, ["name", "n", "x", "flag"], rows)
    header, got = read_csv(path)
    assert header == ["name", "n", "x", "flag"]
    assert got == [["a", "1", "0.25", "true"], ["b", "-2", "1.5e-09", "false"]]


def test_csv_rejects_unserializable_cells(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(SerializeError):
        write_csv(path, ["a"], [["has,comma"]])
    with pytest.raises(SerializeError):
        write_csv(path, ["a"], [["line\nbreak"]])
    with pytest.raises(SerializeError):
        write_csv(path, ["a", "b"], [["only-one"]])
    with pytest.raises(SerializeError, match="separator"):
        write_csv(path, ["a"], ColumnTable(np.array(["ok", "has,comma"])))
    with pytest.raises(SerializeError):
        write_csv(path, ["a", "b"], ColumnTable(np.arange(2)))


@pytest.mark.parametrize("cell", [None, {"a": 1}, "text"], ids=["none", "dict", "text"])
def test_csv_rejects_object_columns(tmp_path, cell):
    # a column that numpy holds only as objects, or text mixed with numbers,
    # has no format of its own: refused from rows and from columns alike
    path = tmp_path / "t.csv"
    with pytest.raises(SerializeError):
        write_csv(path, ["n", "x"], [(1, 0.5), (2, cell)])
    assert not path.exists()
    with pytest.raises(SerializeError, match="dtype object"):
        write_csv(path, ["x"], ColumnTable(np.array([0.5, cell], dtype=object)))
    assert not path.exists()


def test_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(SerializeError, match="row width 1"):
        write_csv(path, ["a", "b"], [(1, 2), (3,), (4, 5)])
    assert not path.exists()


def test_csv_of_no_rows_is_the_header(tmp_path):
    write_csv(tmp_path / "t.csv", ["a", "b"], [])
    assert (tmp_path / "t.csv").read_bytes() == b"a,b\n"


MIXED_HEADER = ["i", "site", "x", "flag", "y"]
MIXED_TEXT = """\
i,site,x,flag,y
0,0:-1:0,0,true,-2.5
1,0:0:0,0.1,false,0
2,1:3:-4,-1e-300,true,3.14159265358979
"""


def test_csv_bytes_of_a_mixed_table(tmp_path, monkeypatch):
    # -0.0 folds into 0, ints and bools by their own rules, numpy scalars like
    # Python ones; the same bytes from rows, from columns, and across blocks
    monkeypatch.setattr(latframe.serialize, "BLOCK_ROWS", 2)
    rows = [(0, "0:-1:0", -0.0, True, np.float64(-2.5)),
            (np.int64(1), site_token(Site(0, 0, 0)), 0.1, np.bool_(False), np.float32(-0.0)),
            (2, "1:3:-4", -1e-300, True, np.float64(np.pi))]
    write_csv(tmp_path / "rows.csv", MIXED_HEADER, rows)
    assert (tmp_path / "rows.csv").read_bytes() == MIXED_TEXT.encode()
    table = ColumnTable(np.arange(3), np.array(["0:-1:0", "0:0:0", "1:3:-4"]),
                        np.array([-0.0, 0.1, -1e-300]), np.array([True, False, True]),
                        np.array([-2.5, -0.0, np.pi]))
    write_csv(tmp_path / "cols.csv", MIXED_HEADER, table)
    assert (tmp_path / "cols.csv").read_bytes() == MIXED_TEXT.encode()
    # a reader that drains the table into a row list gets the same bytes
    write_csv(tmp_path / "drained.csv", MIXED_HEADER, list(table))
    assert (tmp_path / "drained.csv").read_bytes() == MIXED_TEXT.encode()
    # a pair table from (n, 1) and (1, n) columns, expanded one block at a time
    ids = np.arange(3)
    pairs = ColumnTable(ids[:, None], ids[None, :], np.subtract.outer(ids, ids) * 0.5)
    assert len(pairs) == 9
    write_csv(tmp_path / "pairs.csv", ["i", "j", "x"], pairs)
    assert (tmp_path / "pairs.csv").read_text().split("\n")[1:5] == [
        "0,0,0", "0,1,-0.5", "0,2,-1", "1,0,0.5"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_csv_rejects_non_finite_cells(tmp_path, bad):
    for rows in ([(1, 0.5), (2, bad)], ColumnTable([1, 2], np.array([0.5, bad]))):
        with pytest.raises(SerializeError, match="non-finite"):
            write_csv(tmp_path / "t.csv", ["n", "x"], rows)
        assert not (tmp_path / "t.csv").exists()  # no half-written table


def test_json_text_deterministic_and_sorted():
    a = json_text({"b": 1, "a": 0.1, "nest": {"y": True, "x": None}})
    b = json_text({"nest": {"x": None, "y": True}, "a": 0.1, "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": 0.1, "b": 1, "nest": {"x": None, "y": True}}
    # floats go through the shared formatter
    assert '"a": 0.1' in a


def test_json_text_rejects_unknown_types():
    with pytest.raises(SerializeError):
        json_text({"x": object()})
    with pytest.raises(SerializeError):
        json_text({"x": float("nan")})


def test_site_token_round_trip():
    s = Site(1, -3, 12)
    assert site_token(s) == "1:-3:12"
    assert Site(*(int(part) for part in site_token(s).split(":"))) == s
