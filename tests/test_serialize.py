"""Deterministic text formats: floats, CSV, JSON, site tokens."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latframe.lattice import Site
from latframe.serialize import (
    SerializeError,
    fmt_float,
    json_text,
    read_csv,
    site_token,
    write_csv,
)


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
