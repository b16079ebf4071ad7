import numpy as np
import pytest

from revtone import ConfigError, make_round_sphere, parse_config
from revtone.config import RunConfig, build_evaluator, build_profile, build_symbol


FULL = """
# experiment configuration
profile.kind = ellipsoid
profile.aspect = 1.3

spectral.grid_size = 2000

run.command = converge
run.ells = 10, 20, 40
run.out_dir = results

symbol.kind = angular_ratio
symbol.expr = s^2

density.n = 500
"""


def test_defaults():
    cfg = parse_config("profile.kind = round_sphere\n")
    assert cfg.profile_kind == "round_sphere"
    assert cfg.grid_size == 4000
    assert cfg.command is None
    assert cfg.ells == ()
    assert cfg.out_dir == "out"
    assert cfg.density_n == 2000
    assert parse_config("") == RunConfig()


def test_full_config_parses():
    cfg = parse_config(FULL)
    assert cfg.profile_kind == "ellipsoid"
    assert cfg.profile_aspect == pytest.approx(1.3)
    assert cfg.grid_size == 2000
    assert cfg.command == "converge"
    assert cfg.ells == (10, 20, 40)
    assert cfg.out_dir == "results"
    assert cfg.symbol_kind == "angular_ratio"
    assert cfg.density_n == 500


def test_unknown_key_rejected_with_position():
    with pytest.raises(ConfigError) as err:
        parse_config("profile.kind = round_sphere\nprofile.radius = 2\n")
    msg = str(err.value)
    assert "line 2" in msg


@pytest.mark.parametrize("line", [
    "spectral.interp = cubic",
    "actions.fd_step = 1e-7",
    "actions.newton_tol = 1e-12",
    "actions.quad_nodes = 32",
])
def test_removed_interp_key_rejected(line):
    # knobs that had a single value in use are gone: spectral.interp
    # (only "cubic"), actions.fd_step (read by no command),
    # actions.newton_tol (the energy inversion runs to float resolution) and
    # actions.quad_nodes (every radial pass is converged at 256 nodes)
    with pytest.raises(ConfigError) as err:
        parse_config("profile.kind = round_sphere\n" + line + "\n")
    assert "unknown key" in str(err.value) and "line 2" in str(err.value)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        parse_config("plotting.style = fancy\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError):
        parse_config("profile.kind round_sphere\n")


@pytest.mark.parametrize("line", [
    "spectral.grid_size = 4",
    "spectral.grid_size = 499",
    "profile.aspect = -1",
    "profile.aspect = 0",
    "density.n = 4",
    "run.command = dance",
])
def test_out_of_range_values_rejected(line):
    with pytest.raises(ConfigError):
        parse_config("profile.kind = round_sphere\n" + line + "\n")


def test_ells_must_ascend():
    with pytest.raises(ConfigError):
        parse_config("run.ells = 10, 5\n")
    with pytest.raises(ConfigError):
        parse_config("run.ells = 0, 5\n")
    with pytest.raises(ConfigError):
        parse_config("run.ells = 3, three\n")
    for raw in ("10,,20", "10,", ",10"):  # an empty item is not dropped
        with pytest.raises(ConfigError) as err:
            parse_config(f"profile.kind = round_sphere\nrun.ells = {raw}\n")
        assert str(err.value).startswith("line 2, col 12: run.ells:")


def test_key_given_twice_is_rejected_at_its_second_line():
    with pytest.raises(ConfigError) as err:
        parse_config("run.command = density\nprofile.kind = round_sphere\n"
                     "run.command = validate\n")
    assert str(err.value).startswith("line 3, col 1: run.command given twice")


def test_custom_table_requires_path():
    with pytest.raises(ConfigError):
        parse_config("profile.kind = custom_table\n")


def test_symbol_needs_kind_and_exactly_one_source():
    with pytest.raises(ConfigError):
        parse_config("symbol.expr = s^2\n")
    # an empty value still makes a symbol block
    with pytest.raises(ConfigError, match="^symbol block needs symbol.kind$"):
        parse_config("symbol.expr =\n")
    with pytest.raises(ConfigError):
        parse_config("symbol.kind = angular_ratio\n")
    with pytest.raises(ConfigError):
        parse_config("symbol.kind = angular_ratio\nsymbol.expr = s\n"
                     "symbol.table_path = t.txt\n")
    # an empty expr is still a source, so it and a table are two
    with pytest.raises(ConfigError, match="^symbol needs exactly one of"):
        parse_config("symbol.kind = angular_ratio\nsymbol.expr =\nsymbol.table_path = t.txt\n")


def test_build_profile_and_evaluator():
    cfg = parse_config("profile.kind = round_sphere\n")
    p = build_profile(cfg)
    assert p.name == "round_sphere"
    ev = build_evaluator(cfg, p)
    assert ev.profile is p


def test_build_symbol_kinds():
    radial = parse_config("symbol.kind = radial_mult\nsymbol.expr = sin(r)\n")
    sym = build_symbol(radial, make_round_sphere())
    assert sym.kind == "radial_mult"
    assert sym.fn(np.pi / 2) == pytest.approx(1.0)

    angular = parse_config("symbol.kind = angular_ratio\nsymbol.expr = s^2\n")
    sym = build_symbol(angular, make_round_sphere())
    assert sym.kind == "angular_ratio"
    assert sym.fn(0.5) == pytest.approx(0.25)

    assert build_symbol(parse_config("profile.kind = round_sphere\n"), make_round_sphere()) is None


def test_symbol_table_loaded_from_file(tmp_path):
    xs = np.linspace(-1.0, 1.0, 41)
    path = tmp_path / "chi.txt"
    np.savetxt(path, np.column_stack([xs, xs ** 2]))
    cfg = parse_config(f"symbol.kind = angular_ratio\nsymbol.table_path = {path}\n")
    sym = build_symbol(cfg, make_round_sphere())
    assert sym.fn(0.3) == pytest.approx(0.09, abs=1e-4)


def test_symbol_table_rejects_short_or_unsorted(tmp_path):
    # on the sphere r runs over [0, pi] and s over [-1, 1]; a spline would extrapolate
    # a table short of either end
    x = np.linspace(0.0, 1.0, 21)
    s = np.linspace(-0.5, 0.5, 21)
    cases = [("radial_mult", np.array([[0.0, 0.0], [1.0, 1.0]]),
              "symbol table needs at least 4 rows, got 2"),
             ("radial_mult", np.array([[0.0, 0.0], [2.0, 1.0], [1.0, 1.0], [3.0, 0.0]]),
              "symbol table row 3: x = 1.0 does not increase past 2.0"),
             ("radial_mult", np.column_stack([x, np.cos(x) ** 2]),
              "symbol table {path!r} spans x in [0.0, 1.0], not the radial_mult domain "
              f"[0.0, {np.pi!r}]"),
             ("angular_ratio", np.column_stack([s, s * s]),
              "symbol table {path!r} spans x in [-0.5, 0.5], not the angular_ratio domain "
              "[-1.0, 1.0]")]
    for k, (kind, rows, message) in enumerate(cases):
        path = str(tmp_path / f"table{k}.txt")
        np.savetxt(path, rows)
        cfg = parse_config(f"symbol.kind = {kind}\nsymbol.table_path = {path}\n")
        with pytest.raises(ConfigError) as err:
            build_symbol(cfg, make_round_sphere())
        assert str(err.value) == message.format(path=path)
