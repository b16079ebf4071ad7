import copy
import csv
import filecmp
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from revtone import joint_slice, make_round_sphere
from revtone import actions, cli, surface
from revtone.cli import legendre_equator_norm, main

import oracles


def _write(path, text):
    with open(path, "w") as f:
        f.write(text)
    return str(path)


def _read_csv(path):
    with open(path) as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


# --- validate --------------------------------------------------------------

def test_validate_sphere_passes(tmp_path):
    cfg = _write(tmp_path / "run.cfg",
                 "profile.kind = round_sphere\nrun.command = validate\n"
                 f"run.out_dir = {tmp_path}\n")
    assert main(["--config", cfg]) == 0
    report = json.load(open(tmp_path / "validation.json"))
    assert report["passed"] is True


@pytest.mark.parametrize("aspect, warnings", [(0.2, 1), (1.3, 0)])
def test_validate_warns_when_meridian_has_no_plateau(tmp_path, capsys, aspect, warnings):
    cfg = _write(tmp_path / "run.cfg",
                 f"profile.kind = ellipsoid\nprofile.aspect = {aspect}\n"
                 f"run.command = validate\nrun.out_dir = {tmp_path}\n")
    assert main(["--config", cfg]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == warnings
    assert all(line.startswith("validate: warning: no plateau in the meridian") for line in err)


def test_validate_bad_aspect_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path / "run.cfg",
                 "profile.kind = ellipsoid\nprofile.aspect = -1\n"
                 f"run.command = validate\nrun.out_dir = {tmp_path}\n")
    assert main(["--config", cfg]) == 2
    assert "aspect" in capsys.readouterr().err


def test_validate_decreasing_table_names_row(tmp_path, capsys):
    rows = ["0.0 0.0", "0.5 0.4", "0.4 0.6", "1.0 0.0"]
    table = _write(tmp_path / "bad.dat", "\n".join(rows) + "\n")
    cfg = _write(tmp_path / "run.cfg",
                 "profile.kind = custom_table\n"
                 f"profile.table_path = {table}\n"
                 f"run.command = validate\nrun.out_dir = {tmp_path}\n")
    assert main(["--config", cfg]) == 2
    assert "row" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "density"])
def test_missing_profile_table_is_config_error(tmp_path, capsys, command):
    cfg = _write(tmp_path / "run.cfg",
                 "profile.kind = custom_table\n"
                 f"profile.table_path = {tmp_path / 'absent.dat'}\n"
                 f"run.command = {command}\nrun.out_dir = {tmp_path}\n")
    assert main(["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "cannot read profile table" in err and "Traceback" not in err


# --- density ---------------------------------------------------------------

def test_density_table_matches_closed_form(tmp_path):
    cfg = _write(tmp_path / "run.cfg",
                 "profile.kind = round_sphere\nrun.command = density\n"
                 f"run.out_dir = {tmp_path}\ndensity.n = 200\n")
    assert main(["--config", cfg]) == 0
    header, rows = _read_csv(tmp_path / "density.csv")
    assert header == ["c", "density_unnorm", "density_norm", "cdf"]
    assert len(rows) == 199
    for k, row in enumerate(rows, start=1):
        c, unnorm, norm, cdf_val = map(float, row)
        assert c == -1.0 + 2.0 * k / 200
        assert abs(unnorm * math.sqrt(1.0 - c * c) - 1.0) <= 1e-8
        assert norm == pytest.approx(oracles.arcsine_density(c), rel=1e-8)
        assert cdf_val == pytest.approx(oracles.arcsine_cdf(c), abs=1e-8)
    # interior grid stops at 1 - 2/N, so the last cdf entry carries the
    # arcsine tail ~ 2/(pi sqrt(N)); full mass is checked at c = 1 directly
    cdfs = [float(r[3]) for r in rows]
    assert all(b > a for a, b in zip(cdfs, cdfs[1:]))


def test_density_reruns_bit_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = _write(tmp_path / f"{name}.cfg",
                     "profile.kind = ellipsoid\nprofile.aspect = 1.3\n"
                     f"run.command = density\nrun.out_dir = {out}\ndensity.n = 50\n")
        assert main(["--config", cfg]) == 0
        outs.append(out / "density.csv")
    assert filecmp.cmp(outs[0], outs[1], shallow=False)


# --- spectrum --------------------------------------------------------------

def test_density_inverts_the_energy_only_to_build_k1(tmp_path, monkeypatch):
    # every density, and every sample of the density series, is a K1 lookup
    calls = []
    energy = actions.energy_K
    monkeypatch.setattr(actions, "energy_K",
                        lambda ev, c, I2: calls.extend(np.ravel(c)) or energy(ev, c, I2))
    cfg = _write(tmp_path / "run.cfg",
                 "profile.kind = ellipsoid\nprofile.aspect = 1.3\nrun.command = density\n"
                 f"run.out_dir = {tmp_path}\ndensity.n = 200\n")
    assert main(["--config", cfg]) == 0
    assert 0 < len(calls) <= 33


def test_density_warns_once_when_series_has_no_plateau(tmp_path, capsys, monkeypatch):
    text = "profile.kind = round_sphere\nrun.command = density\ndensity.n = 20\n"
    cfg = _write(tmp_path / "run.cfg", text)
    assert main(["--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert capsys.readouterr().err == ""
    series = actions.mu_series

    def unconverged(ev):
        out = copy.copy(series(ev))
        out.converged = False
        return out

    monkeypatch.setattr(actions, "mu_series", unconverged)
    assert main(["--config", cfg, "--out", str(tmp_path / "b")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "no plateau" in err[0]
    assert filecmp.cmp(tmp_path / "a" / "density.csv", tmp_path / "b" / "density.csv",
                       shallow=False)


def test_spectrum_slice_files(tmp_path):
    cfg = _write(tmp_path / "run.cfg",
                 "profile.kind = round_sphere\nspectral.grid_size = 2000\n"
                 "run.command = spectrum\nrun.ells = 1, 10\n"
                 f"run.out_dir = {tmp_path}\n")
    assert main(["--config", cfg]) == 0

    header, rows = _read_csv(tmp_path / "slice_1.csv")
    assert header == ["ell", "m", "n", "lambda", "restricted_norm", "ebk_residual"]
    assert len(rows) == 3
    zonal = next(r for r in rows if r[1] == "0")
    assert (zonal[0], zonal[2]) == ("1", "1")
    assert float(zonal[3]) == pytest.approx(math.sqrt(2.0), rel=1e-6)
    assert float(zonal[4]) <= 1e-10

    _, rows10 = _read_csv(tmp_path / "slice_10.csv")
    assert len(rows10) == 21
    for r in rows10:
        assert float(r[3]) ** 2 == pytest.approx(110.0, rel=1e-6)

    # written floats round-trip to the solver output exactly
    p = make_round_sphere()
    sl = joint_slice(p, 10, 2000)
    lams = {mode.m: mode.lam for mode in sl.modes}
    for r in rows10:
        assert float(r[3]) == lams[int(r[1])]


@pytest.mark.parametrize("command", ["density", "spectrum"])
def test_warns_once_when_k1_has_no_plateau(tmp_path, capsys, monkeypatch, command):
    text = (f"profile.kind = round_sphere\nrun.command = {command}\ndensity.n = 20\n"
            "spectral.grid_size = 500\nrun.ells = 1, 2\n")
    cfg = _write(tmp_path / "run.cfg", text)
    assert main(["--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert capsys.readouterr().err == ""
    chop = surface._chop
    monkeypatch.setattr(surface, "_chop", lambda coeffs, tol: (
        (len(coeffs), False) if tol == actions._K1_TOL else chop(coeffs, tol)))
    assert main(["--config", cfg, "--out", str(tmp_path / "b")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"{command}: warning: no plateau in the energy")
    assert sorted(os.listdir(tmp_path / "a")) == sorted(os.listdir(tmp_path / "b"))


def test_spectrum_partial_failure(tmp_path):
    cfg = _write(tmp_path / "run.cfg",
                 "profile.kind = round_sphere\nspectral.grid_size = 500\n"
                 "run.command = spectrum\nrun.ells = 10, 110\n"
                 f"run.out_dir = {tmp_path}\n")
    assert main(["--config", cfg]) == 3
    assert (tmp_path / "slice_10.csv").exists()
    errors = json.load(open(tmp_path / "errors.json"))
    assert set(errors) == {"110"}
    assert "ResolutionError" in errors["110"]


def test_spectrum_requires_ells(tmp_path, capsys):
    cfg = _write(tmp_path / "run.cfg",
                 "profile.kind = round_sphere\nrun.command = spectrum\n"
                 f"run.out_dir = {tmp_path}\n")
    assert main(["--config", cfg]) == 2
    assert "ells" in capsys.readouterr().err


# --- converge --------------------------------------------------------------

def test_converge_outputs(tmp_path):
    cfg = _write(tmp_path / "run.cfg",
                 "profile.kind = round_sphere\nspectral.grid_size = 2000\n"
                 "run.command = converge\nrun.ells = 10, 20, 40\n"
                 f"run.out_dir = {tmp_path}\n"
                 "symbol.kind = angular_ratio\nsymbol.expr = s^2\n")
    assert main(["--config", cfg]) == 0
    rep = json.load(open(tmp_path / "converge.json"))
    assert rep["profile"] == "round_sphere"
    assert rep["ells"] == [10, 20, 40]
    w1_mu = [row["w1_mu"] for row in rep["rows"]]
    w1_nu = [row["w1_nu"] for row in rep["rows"]]
    assert w1_mu[0] > w1_mu[1] > w1_mu[2]
    assert w1_nu[0] > w1_nu[1] > w1_nu[2]
    assert rep["fit"]["w1_exponent"] < -0.5
    header, rows = _read_csv(tmp_path / "converge.csv")
    assert header == ["ell", "M_ell", "M_ell_over_ell", "ks_mu", "w1_mu",
                      "ks_nu", "w1_nu"]
    assert [int(r[0]) for r in rows] == [10, 20, 40]
    for csv_row, json_row in zip(rows, rep["rows"]):
        assert float(csv_row[4]) == json_row["w1_mu"]


def test_converge_warns_once_per_series_without_plateau(tmp_path, capsys, monkeypatch):
    # the ellipsoid's cos r torus averages reach no plateau; K1 and the density do
    text = ("profile.kind = ellipsoid\nprofile.aspect = 1.3\nspectral.grid_size = 500\n"
            "run.command = converge\nrun.ells = 5, 10\n"
            "symbol.kind = radial_mult\nsymbol.expr = cos(r)\n")
    cfg = _write(tmp_path / "run.cfg", text)
    code = main(["--config", cfg, "--out", str(tmp_path / "a")])
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("converge: warning: no plateau in the nu series")
    monkeypatch.setattr(cli, "_warn_without_plateau", lambda *args: None)
    assert main(["--config", cfg, "--out", str(tmp_path / "b")]) == code == 0
    for name in ("converge.csv", "converge.json"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)
    monkeypatch.undo()
    sphere = _write(tmp_path / "sphere.cfg",
                    text.replace("ellipsoid", "round_sphere").replace("cos(r)", "cos(r)^2"))
    assert main(["--config", sphere, "--out", str(tmp_path / "c")]) == 0
    assert capsys.readouterr().err == ""


def test_converge_requires_ells(tmp_path, capsys):
    cfg = _write(tmp_path / "run.cfg",
                 "profile.kind = round_sphere\nrun.command = converge\n"
                 f"run.out_dir = {tmp_path}\n")
    assert main(["--config", cfg]) == 2
    assert "ells" in capsys.readouterr().err


@pytest.mark.parametrize("expr", [
    "__import__('os')", pytest.param("r+" * 5000 + "r", id="deep-sum"),
])
def test_bad_symbol_expression_is_config_error(tmp_path, capsys, expr):
    cfg = _write(tmp_path / "run.cfg",
                 "profile.kind = round_sphere\nrun.command = converge\nrun.ells = 10, 20\n"
                 f"run.out_dir = {tmp_path}\n"
                 f"symbol.kind = radial_mult\nsymbol.expr = {expr}\n")
    assert main(["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "position" in err and "Traceback" not in err
    assert not (tmp_path / "converge.json").exists()


def test_long_symbol_expression_is_config_error_in_a_fresh_process(tmp_path):
    # on the shallow stack of a fresh process 985 terms parse; their closures
    # then overflowed it inside the sweep (exit 3) unless the parser caps nesting
    cfg = _write(tmp_path / "run.cfg",
                 "profile.kind = round_sphere\nspectral.grid_size = 500\n"
                 "run.command = converge\nrun.ells = 10, 20\n"
                 f"run.out_dir = {tmp_path}\n"
                 "symbol.kind = radial_mult\nsymbol.expr = " + "r+" * 984 + "r\n")
    done = subprocess.run([sys.executable, "-m", "revtone", "--config", cfg],
                          capture_output=True, text=True)
    assert done.returncode == 2, done.stderr[-500:]
    assert "nested" in done.stderr and "Traceback" not in done.stderr
    assert not (tmp_path / "converge.json").exists()


def test_converge_partial_failure(tmp_path):
    cfg = _write(tmp_path / "run.cfg",
                 "profile.kind = round_sphere\nspectral.grid_size = 500\n"
                 "run.command = converge\nrun.ells = 10, 110\n"
                 f"run.out_dir = {tmp_path}\n")
    assert main(["--config", cfg]) == 3
    errors = json.load(open(tmp_path / "errors.json"))
    assert "ResolutionError" in errors["110"]
    rep = json.load(open(tmp_path / "converge.json"))
    assert any("error" in row for row in rep["rows"])


# --- verify-sphere ---------------------------------------------------------

def test_verify_sphere_passes(tmp_path):
    cfg = _write(tmp_path / "run.cfg",
                 "profile.kind = round_sphere\nspectral.grid_size = 2000\n"
                 "run.command = verify-sphere\n"
                 f"run.out_dir = {tmp_path}\n")
    assert main(["--config", cfg]) == 0
    rep = json.load(open(tmp_path / "verify.json"))
    assert rep["passed"] is True
    assert len(rep["checks"]) >= 4
    names = {ch["name"] for ch in rep["checks"]}
    assert {"action_identity", "eigenvalue_ladder"} <= names
    for ch in rep["checks"]:
        assert ch["passed"] and ch["residual"] <= ch["tolerance"]


def test_verify_sphere_coarse_grid_fails(tmp_path):
    cfg = _write(tmp_path / "run.cfg",
                 "profile.kind = round_sphere\nspectral.grid_size = 100\n"
                 "run.command = verify-sphere\n"
                 f"run.out_dir = {tmp_path}\n")
    assert subprocess.run(
        [sys.executable, "-m", "revtone", "--config", cfg],
        capture_output=True, text=True).returncode == 1
    rep = json.load(open(tmp_path / "verify.json"))
    assert rep["passed"] is False
    assert any(not ch["passed"] for ch in rep["checks"])


def test_legendre_norm_helper_matches_oracle():
    for (ell, m), value in oracles.EXACT_EQUATOR_NORMS.items():
        assert legendre_equator_norm(ell, m) == pytest.approx(value, rel=1e-12)
    assert legendre_equator_norm(15, 4) == pytest.approx(
        oracles.equator_norm(15, 4), rel=1e-12)


# --- top-level flags -------------------------------------------------------

def test_command_and_out_overrides(tmp_path):
    cfg = _write(tmp_path / "run.cfg",
                 "profile.kind = round_sphere\ndensity.n = 20\n")
    out = tmp_path / "override"
    assert main(["--config", cfg, "--command", "density", "--out", str(out)]) == 0
    assert (out / "density.csv").exists()


def test_unexpected_exception_is_numerical_failure(tmp_path, capsys, monkeypatch):
    # exit 1 is reserved for failed verifications
    def broken(cfg):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(cli._config, "build_profile", broken)
    cfg = _write(tmp_path / "run.cfg",
                 f"profile.kind = round_sphere\nrun.command = density\nrun.out_dir = {tmp_path}\n")
    assert main(["--config", cfg]) == 3
    assert "ZeroDivisionError" in capsys.readouterr().err


def test_missing_command_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path / "run.cfg", "profile.kind = round_sphere\n")
    assert main(["--config", cfg]) == 2
    assert "command" in capsys.readouterr().err
