"""INI schema: defaults, parsing, and rejection of malformed input."""

import math
from pathlib import Path

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


def test_readme_config_block_shows_every_default():
    # the README's reference block, REFERENCE_CONFIG and the schema move together
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    assert parse_config_text(block) == RunConfig()
    def keys(text):
        return [line.split("=")[0].strip() for line in text.splitlines()
                if "=" in line and not line.startswith("#")]

    assert keys(block) == keys(REFERENCE_CONFIG)


def test_section_scoped_overrides():
    cfg = parse_config_text(
        "[lattice]\nalpha = 1.0\nbeta = 1.25\nradius = 6.0\n"
        "[model]\nf0 = 0.5\nmu = 2.0\n"
    )
    assert cfg.alpha == 1.0 and cfg.beta == 1.25 and cfg.radius == 6.0
    assert cfg.f0 == 0.5 and cfg.mu == 2.0


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
        ("[dynamics]\nn_t = 1\n", "dynamics", "n_t"),
        ("[dynamics]\nchain_length = 0\n", "dynamics", "chain_length"),
        ("[kernel]\nnodes = 7\n", "kernel", "nodes"),
        ("[kernel]\nnodes = 8\n", "kernel", "nodes"),
        ("[kernel]\nn_quadruples = 0\n", "kernel", "n_quadruples"),
        ("[windows]\nradii = 3 2 1\n", "windows", "radii"),
        ("[windows]\nchain_lengths = 4 4\n", "windows", "chain_lengths"),
        # bounds and converge compare at least two nested windows
        ("[windows]\nradii = 3\n", "windows", "radii"),
        ("[windows]\nchain_lengths = 8\n", "windows", "chain_lengths"),
        ("[windows]\nchain_lengths =\n", "windows", "chain_lengths"),
        # one just-out-of-range value for every other bounded key
        ("[lattice]\nbeta = 0\n", "lattice", "beta"),
        ("[lattice]\nshape = balls\n", "lattice", "shape"),
        ("[lattice]\nchain_length = 0\n", "lattice", "chain_length"),
        ("[magnetic]\neps_b = 0\n", "magnetic", "eps_b"),
        ("[model]\nf0 = -0.001\n", "model", "f0"),
        ("[dynamics]\nt_max = 0\n", "dynamics", "t_max"),
        ("[kernel]\nc1 = 0\n", "kernel", "c1"),
        ("[kernel]\nsigma1 = 0\n", "kernel", "sigma1"),
        ("[kernel]\ndiam_max_ell = 0\n", "kernel", "diam_max_ell"),
        ("[run]\nseed = -1\n", "run", "seed"),
        ("[landau]\nlevel = -1\n", "landau", "level"),
    ],
)
def test_rejection_carries_section_and_key(text, section, key):
    with pytest.raises(ConfigError) as info:
        parse_config_text(text)
    assert info.value.section == section
    if key:
        assert info.value.key == key


# the rates and constants of the bounds are derived from the lattice alone
DERIVED_KEYS = [("lattice", "nu"), ("model", "zeta"), ("model", "xi"),
                ("certificate", "g"), ("certificate", "eps"), ("certificate", "theta")]


@pytest.mark.parametrize("section,key", DERIVED_KEYS)
def test_derived_quantities_are_not_config_keys(section, key):
    with pytest.raises(ConfigError) as info:
        parse_config_text(f"[{section}]\n{key} = 1.5\n")
    assert (info.value.section, info.value.key) == (section, key)
    assert "unknown key" in info.value.message


def test_landau_level_is_not_bounded_by_level_max():
    # landau reads level r on the level-0 points, so any level >= 0 is valid
    # whatever the lattice's level_max; a negative level is still refused
    cfg = parse_config_text("[lattice]\nlevel_max = 0\n[landau]\nlevel = 1\n")
    assert (cfg.level_max, cfg.level) == (0, 1)
    with pytest.raises(ConfigError) as info:
        parse_config_text("[landau]\nlevel = -1\n")
    assert (info.value.section, info.value.key) == ("landau", "level")


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
