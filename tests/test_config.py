"""INI schema: defaults, parsing, and rejection of malformed input."""

import math

import pytest

from latframe.config import (
    REFERENCE_CONFIG,
    ConfigError,
    RunConfig,
    load_config,
    make_lattice_params,
    make_magnetic_params,
    make_window,
    parse_config_text,
)


def test_defaults():
    cfg = RunConfig()
    assert cfg.alpha == pytest.approx(math.sqrt(math.pi))
    assert cfg.beta == pytest.approx(math.sqrt(math.pi))
    assert cfg.radius == 12.0
    assert cfg.level_max == 0
    assert cfg.shape == "ball"
    assert cfg.ell_b == 1.0 and cfg.eps_b == 1.0
    assert cfg.trunc is None and cfg.zeta is None and cfg.xi is None
    assert cfg.chain_lengths == (4, 6, 8)
    assert cfg.n_t == 21 and cfg.t_max == 2.0
    assert cfg.nodes == 40 and cfg.n_quadruples == 30
    assert parse_config_text("") == cfg


def test_reference_config_parses():
    cfg = parse_config_text(REFERENCE_CONFIG)
    # the reference file spells out every key; spot-check a few
    assert cfg.alpha > 0 and cfg.radius > 0
    assert cfg.chain_lengths == (4, 6, 8)
    lp = make_lattice_params(cfg)
    mp = make_magnetic_params(cfg)
    assert lp.alpha == cfg.alpha and mp.ell_b == cfg.ell_b
    w = make_window(cfg)
    assert len(w.sites) >= 1


def test_reference_config_shows_every_default():
    assert parse_config_text(REFERENCE_CONFIG) == RunConfig()


def test_section_scoped_overrides():
    cfg = parse_config_text(
        "[lattice]\nalpha = 1.0\nbeta = 1.25\nradius = 6.0\n"
        "[model]\nf0 = 0.5\nmu = 2.0\n"
    )
    assert cfg.alpha == 1.0 and cfg.beta == 1.25 and cfg.radius == 6.0
    assert cfg.f0 == 0.5 and cfg.mu == 2.0


def test_optional_keys_accept_none():
    cfg = parse_config_text("[magnetic]\ntrunc = none\n[certificate]\ng = none\n")
    assert cfg.trunc is None and cfg.g is None
    cfg2 = parse_config_text("[magnetic]\ntrunc = 80\n")
    assert cfg2.trunc == 80


def test_chain_shape_window():
    cfg = parse_config_text(
        "[lattice]\nalpha = 1.0\nbeta = 1.0\nradius = 30.0\nshape = chain\nchain_length = 6\n"
    )
    w = make_window(cfg)
    assert len(w.sites) == 6
    assert all(s.j == 0 for s in w.sites)


@pytest.mark.parametrize(
    "text,section,key",
    [
        ("[lattice]\nwidth = 3\n", "lattice", "width"),
        ("[nosuch]\nalpha = 1\n", "nosuch", ""),
        ("[lattice]\nalpha = fast\n", "lattice", "alpha"),
        ("[lattice]\nalpha = -2\n", "lattice", "alpha"),
        ("[lattice]\nradius = 0\n", "lattice", "radius"),
        ("[lattice]\nlevel_max = -1\n", "lattice", "level_max"),
        ("[magnetic]\nell_b = 0\n", "magnetic", "ell_b"),
        ("[model]\nmu = -1\n", "model", "mu"),
        ("[certificate]\np = 0\n", "certificate", "p"),
        ("[certificate]\ng = 0.5\n", "certificate", "g"),
        ("[dynamics]\nn_t = 1\n", "dynamics", "n_t"),
        ("[dynamics]\nchain_length = 0\n", "dynamics", "chain_length"),
        ("[kernel]\nnodes = 7\n", "kernel", "nodes"),
        ("[kernel]\nnodes = 8\n", "kernel", "nodes"),
        ("[kernel]\nn_quadruples = 0\n", "kernel", "n_quadruples"),
        ("[windows]\nradii = 3 2 1\n", "windows", "radii"),
        ("[windows]\nchain_lengths = 4 4\n", "windows", "chain_lengths"),
    ],
)
def test_rejection_carries_section_and_key(text, section, key):
    with pytest.raises(ConfigError) as info:
        parse_config_text(text)
    assert info.value.section == section
    if key:
        assert info.value.key == key


def test_cross_field_validation():
    with pytest.raises(ConfigError):
        parse_config_text("[model]\nzeta = 0.3\nxi = 0.2\n")
    with pytest.raises(ConfigError):
        parse_config_text("[lattice]\nlevel_max = 0\n[landau]\nlevel = 1\n")
    # consistent settings pass
    cfg = parse_config_text("[model]\nzeta = 0.1\nxi = 0.3\n")
    assert cfg.zeta == 0.1 and cfg.xi == 0.3


def test_default_section_keys_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("alpha = 1.0\n[lattice]\nbeta = 1.0\n")


def test_duplicate_section_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("[lattice]\nalpha = 1\n[lattice]\nbeta = 1\n")


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.ini")
    bad = tmp_path / "bad.ini"
    bad.write_bytes(b"[lattice]\nalpha = \xff\xfe1.0\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    good = tmp_path / "good.ini"
    good.write_text("[lattice]\nalpha = 1.5\n")
    assert load_config(good).alpha == 1.5
