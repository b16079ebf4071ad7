import csv
import filecmp
import json
import math
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from revtone import ConvergenceError, joint_slice, make_round_sphere
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


def _record(out):
    return json.loads((out / "run.json").read_text())


# --- validate --------------------------------------------------------------

def test_validate_sphere_passes(tmp_path):
    cfg = _write(tmp_path / "run.cfg",
                 "profile.kind = round_sphere\nrun.command = validate\n"
                 f"run.out_dir = {tmp_path}\n")
    assert main(["--config", cfg]) == 0
    record = _record(tmp_path)
    assert record["exit_code"] == 0 and record["report"]["passed"] is True


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
    # enough rows to pass the row count, so only the increase check can reject it
    rows = ["0.0 0.0", "0.5 0.4", "1.0 0.8", "1.5 1.0", "2.0 0.8", "1.9 0.7", "2.5 0.5", "3.0 0.0"]
    table = _write(tmp_path / "bad.dat", "\n".join(rows) + "\n")
    cfg = _write(tmp_path / "run.cfg",
                 "profile.kind = custom_table\n"
                 f"profile.table_path = {table}\n"
                 f"run.command = validate\nrun.out_dir = {tmp_path}\n")
    assert main(["--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "config error: profile table row 6: x = 1.9 does not increase past 2.0\n")


@pytest.mark.parametrize("command", ["validate", "density"])
def test_missing_profile_table_is_config_error(tmp_path, capsys, command):
    cfg = _write(tmp_path / "run.cfg",
                 "profile.kind = custom_table\n"
                 f"profile.table_path = {tmp_path / 'absent.dat'}\n"
                 f"run.command = {command}\nrun.out_dir = {tmp_path}\n")
    assert main(["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "cannot read profile table" in err and "Traceback" not in err


@pytest.mark.parametrize("table, row, command", [
    ("profile", "nan 0.8", "validate"), ("profile", "1 inf", "density"),
    ("symbol", "1 nan", "converge")])
def test_non_finite_table_row_is_config_error(tmp_path, capsys, table, row, command):
    rows = ["0 0", "0.5 0.4", row, "2 0.4", "2.5 0.3", "3 0.1", "3.1 0.04", "3.14159 0"]
    path = _write(tmp_path / "t.dat", "\n".join(rows) + "\n")
    source = (f"profile.kind = custom_table\nprofile.table_path = {path}\n" if table == "profile"
              else f"symbol.kind = radial_mult\nsymbol.table_path = {path}\nrun.ells = 10\n")
    cfg = _write(tmp_path / "run.cfg", source + f"run.command = {command}\n"
                 f"spectral.grid_size = 500\nrun.out_dir = {tmp_path}\n")
    assert main(["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"{table} table row 3" in err and "Traceback" not in err


def test_validate_failing_table_writes_every_check(tmp_path, capsys):
    # a(L) = 1e-3: only endpoint_zero fails; the writer creates the missing --out directory
    r = np.linspace(0.0, np.pi, 2001)
    x = r / np.pi
    table = tmp_path / "lifted.dat"
    np.savetxt(table, np.column_stack([r, np.sin(r) + 1e-3 * x * x * (3.0 - 2.0 * x)]))
    cfg = _write(tmp_path / "run.cfg", f"profile.kind = custom_table\n"
                 f"profile.table_path = {table}\nrun.command = validate\n")
    out = tmp_path / "new" / "dir"
    assert main(["--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().out == "validate custom_table: FAIL\n"
    report = _record(out)["report"]
    assert report["profile"] == "custom_table" and report["passed"] is False
    checks = {ch["name"]: ch for ch in report["checks"]}
    assert len(checks) == 6
    assert {name for name, ch in checks.items() if not ch["passed"]} == {"endpoint_zero"}
    assert checks["endpoint_zero"]["residual"] > checks["endpoint_zero"]["tolerance"]
    assert checks["interior_positive"]["tolerance"] is None


def test_validate_table_without_a_single_maximum_writes_the_error(tmp_path, capsys):
    # a = sin(r) (1 + 0.9 sin^2(2r)): a' changes sign three times, so r0 cannot be located
    # and the report ends after the four checks that need no r0; the spline's end slopes
    # also miss +-1 by 6.9e-10
    r = np.linspace(0.0, np.pi, 2001)
    table = tmp_path / "two_maxima.dat"
    np.savetxt(table, np.column_stack([r, np.sin(r) * (1.0 + 0.9 * np.sin(2.0 * r) ** 2)]))
    cfg = _write(tmp_path / "run.cfg", f"profile.kind = custom_table\n"
                 f"profile.table_path = {table}\nrun.command = validate\n")
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().out == "validate custom_table: FAIL\n"
    report = _record(tmp_path)["report"]
    assert report["profile"] == "custom_table" and report["passed"] is False
    checks = report["checks"]
    assert [ch["name"] for ch in checks] == ["endpoint_zero", "pole_slope", "interior_positive",
                                             "single_sign_change"]
    assert [ch["passed"] for ch in checks] == [True, False, True, False]
    assert checks[3]["residual"] == 3.0


@pytest.mark.parametrize("table, exit_code, failed", [
    ("sin", 0, set()), ("steep", 1, {"pole_slope"}),
    ("two_maxima", 1, {"pole_slope", "single_sign_change"})])
def test_validate_writes_one_schema(tmp_path, table, exit_code, failed):
    r = np.linspace(0.0, np.pi, 2001)
    a = {"sin": np.sin(r), "steep": 1.01 * np.sin(r),
         "two_maxima": np.sin(r) * (1.0 + 0.9 * np.sin(2.0 * r) ** 2)}[table]
    np.savetxt(tmp_path / "t.dat", np.column_stack([r, a]))
    cfg = _write(tmp_path / "run.cfg", f"profile.kind = custom_table\n"
                 f"profile.table_path = {tmp_path / 't.dat'}\nrun.command = validate\n")
    assert main(["--config", cfg, "--out", str(tmp_path)]) == exit_code
    report = _record(tmp_path)["report"]
    assert set(report) == {"profile", "passed", "checks"}
    assert {ch["name"] for ch in report["checks"] if not ch["passed"]} == failed


@pytest.mark.parametrize("kind", ["round_sphere", "ellipsoid", "custom_table"])
def test_validate_checks_the_profile_once(tmp_path, monkeypatch, kind):
    # make_custom's report is the one written; only the round sphere is checked by validate
    calls = []
    admit = surface._admit

    def counted(a, a1, a2, L, name, *args):
        calls.append(name)
        return admit(a, a1, a2, L, name, *args)

    monkeypatch.setattr(surface, "_admit", counted)
    r = np.linspace(0.0, np.pi, 2001)
    table = tmp_path / "sin.dat"
    np.savetxt(table, np.column_stack([r, np.sin(r)]))
    source = {"round_sphere": "", "ellipsoid": "profile.aspect = 1.3\n",
              "custom_table": f"profile.table_path = {table}\n"}[kind]
    cfg = _write(tmp_path / "run.cfg",
                 f"profile.kind = {kind}\n{source}run.command = validate\n")
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    report = _record(tmp_path)["report"]
    assert report["profile"] == calls[0] and report["passed"] is True


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


@pytest.mark.parametrize("text", [
    pytest.param("profile.kind = ellipsoid\nprofile.aspect = 1.3\nrun.command = density\n"
                 "density.n = 50\n", id="density"),
    pytest.param("profile.kind = ellipsoid\nprofile.aspect = 1.3\nrun.command = spectrum\n"
                 "spectral.grid_size = 500\nrun.ells = 2, 5\n", id="spectrum"),
    pytest.param("profile.kind = round_sphere\nrun.command = converge\nspectral.grid_size = 500\n"
                 "run.ells = 5, 10\nsymbol.kind = radial_mult\nsymbol.expr = cos(r)^2\n",
                 id="converge")])
def test_density_reruns_bit_identical(tmp_path, text):
    # every artifact of a rerun, byte for byte
    cfg = _write(tmp_path / "run.cfg", text)
    for name in ("a", "b"):
        assert main(["--config", cfg, "--out", str(tmp_path / name)]) == 0
    names = sorted(os.listdir(tmp_path / "a"))
    assert names and names == sorted(os.listdir(tmp_path / "b"))
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names,
                                               shallow=False)
    assert (match, mismatch, errors) == (names, [], [])


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
    # the density series, forced to reach no plateau, warns as it is built
    chop = surface._chop
    monkeypatch.setattr(surface, "_chop", lambda coeffs, tol: (
        (len(coeffs), False) if tol == actions._SERIES_TOL else chop(coeffs, tol)))
    assert main(["--config", cfg, "--out", str(tmp_path / "b")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("density: warning: no plateau in the density")
    # the warning, silenced at the fit, changes no artifact
    monkeypatch.setattr(surface, "warnings", SimpleNamespace(warn=lambda *args: None))
    assert main(["--config", cfg, "--out", str(tmp_path / "c")]) == 0
    assert capsys.readouterr().err == ""
    assert filecmp.cmp(tmp_path / "b" / "density.csv", tmp_path / "c" / "density.csv",
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
    modes = joint_slice(p, 10, 2000).modes
    assert [int(r[1]) for r in rows10] == modes.m.tolist()
    assert [float(r[3]) for r in rows10] == modes.lam.tolist()
    assert [float(r[4]) for r in rows10] == modes.norm.tolist()


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
    errors = _record(tmp_path)["failures"]
    assert set(errors) == {"110"}
    assert "ResolutionError" in errors["110"]
    # a successful rerun into the same directory leaves no stale failures
    _write(tmp_path / "run.cfg", (tmp_path / "run.cfg").read_text().replace("110", "20"))
    assert main(["--config", cfg]) == 0
    assert (tmp_path / "slice_20.csv").exists() and _record(tmp_path)["failures"] == {}
    # a failed ell leaves no slice of an earlier run under its name
    text = (tmp_path / "run.cfg").read_text().replace("10, 20", "10, 200")
    _write(tmp_path / "run.cfg", text.replace("500", "4000"))
    assert main(["--config", cfg]) == 0 and (tmp_path / "slice_200.csv").exists()
    _write(tmp_path / "run.cfg", text)
    assert main(["--config", cfg]) == 3
    assert set(_record(tmp_path)["failures"]) == {"200"}
    assert (tmp_path / "slice_10.csv").exists() and not (tmp_path / "slice_200.csv").exists()


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
    rep = json.loads((tmp_path / "converge.json").read_text())
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


@pytest.mark.parametrize("expr, scaled", [("1 + cos(r)^2", "1e-13*(1 + cos(r)^2)"),
                                           ("cos(r)", "1e13*cos(r)")])
def test_converge_symbol_scale_changes_no_measure(tmp_path, capsys, expr, scaled):
    # the nu limit is normalized: a constant factor on the symbol moves neither its
    # distances nor whether its total average vanishes (cos r: no limit at any scale)
    reps, codes = [], []
    for name, text in (("a", expr), ("b", scaled)):
        cfg = _write(tmp_path / "run.cfg",
                     "profile.kind = round_sphere\nspectral.grid_size = 1000\n"
                     "run.command = converge\nrun.ells = 10, 20\n"
                     f"symbol.kind = radial_mult\nsymbol.expr = {text}\n")
        codes.append(main(["--config", cfg, "--out", str(tmp_path / name)]))
        if codes[-1] == 0:
            reps.append(json.loads((tmp_path / name / "converge.json").read_text()))
        else:
            assert "numerical failure: SignedMeasureError: " in capsys.readouterr().err
    assert codes == ([0, 0] if expr.startswith("1 +") else [3, 3])
    if reps:
        for a, b in zip(reps[0]["rows"], reps[1]["rows"]):
            for key in ("ks_nu", "w1_nu"):
                assert b[key] == pytest.approx(a[key], rel=1e-12, abs=0.0)


def test_converge_warns_once_per_series_without_plateau(tmp_path, capsys, monkeypatch):
    # the ellipsoid's cos r torus averages reach no plateau; K1 and the density do
    text = ("profile.kind = ellipsoid\nprofile.aspect = 1.3\nspectral.grid_size = 500\n"
            "run.command = converge\nrun.ells = 5, 10\n"
            "symbol.kind = radial_mult\nsymbol.expr = cos(r)\n")
    cfg = _write(tmp_path / "run.cfg", text)
    code = main(["--config", cfg, "--out", str(tmp_path / "a")])
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("converge: warning: no plateau in the nu series")
    monkeypatch.setattr(surface, "warnings", SimpleNamespace(warn=lambda *args: None))
    assert main(["--config", cfg, "--out", str(tmp_path / "b")]) == code == 0
    assert capsys.readouterr().err == ""
    for name in ("converge.csv", "converge.json"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)
    monkeypatch.undo()
    sphere = _write(tmp_path / "sphere.cfg",
                    text.replace("ellipsoid", "round_sphere").replace("cos(r)", "cos(r)^2"))
    assert main(["--config", sphere, "--out", str(tmp_path / "c")]) == 0
    assert capsys.readouterr().err == ""


def test_warnings_precede_a_later_failure(tmp_path, capsys):
    # the density and nu series of ellipsoid 10 reach no plateau; both are reported as
    # they are built, before the vanishing average of s stops the run
    cfg = _write(tmp_path / "run.cfg",
                 "profile.kind = ellipsoid\nprofile.aspect = 10\nspectral.grid_size = 500\n"
                 "run.command = converge\nrun.ells = 5\n"
                 "symbol.kind = angular_ratio\nsymbol.expr = s\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    assert err[0] == "converge: warning: no plateau in the density series, tail 6.845e-07"
    assert err[1].startswith("converge: warning: no plateau in the nu series, tail ")
    assert err[2] == ("numerical failure: SignedMeasureError: total average 0.000e+00 "
                      "vanishes; no normalized limit density exists")


def test_other_warnings_keep_their_display(tmp_path, capsys, monkeypatch):
    # only a PlateauWarning becomes a `command: warning:` line
    density = cli.cmd_density

    def warn_then_run(cfg, profile):
        warnings.warn("unrelated", UserWarning)
        return density(cfg, profile)

    monkeypatch.setitem(cli._DISPATCH, "density", warn_then_run)
    cfg = _write(tmp_path / "run.cfg", "profile.kind = round_sphere\nrun.command = density\n"
                 f"density.n = 20\nrun.out_dir = {tmp_path}\n")
    with pytest.warns(UserWarning, match="unrelated"):
        assert main(["--config", cfg]) == 0
    assert capsys.readouterr().err == ""


def test_symbol_table_short_of_its_domain_is_config_error(tmp_path, capsys):
    # cos(r)^2 tabulated on [0, 1] only: the spline would extrapolate it over (1, pi]
    x = np.linspace(0.0, 1.0, 21)
    table = str(tmp_path / "cos2.txt")
    np.savetxt(table, np.column_stack([x, np.cos(x) ** 2]))
    cfg = _write(tmp_path / "run.cfg",
                 "profile.kind = round_sphere\nspectral.grid_size = 1000\n"
                 "run.command = converge\nrun.ells = 10, 20\n"
                 f"symbol.kind = radial_mult\nsymbol.table_path = {table}\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: symbol table {table!r} spans x in [0.0, 1.0], not the radial_mult "
        f"domain [0.0, {np.pi!r}]"]
    assert not (tmp_path / "out" / "converge.csv").exists()


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


def test_non_finite_series_sample_is_numerical_failure(tmp_path):
    # the torus averages of 1/(r - pi/2) are infinite; no nan may reach converge.csv, and
    # numpy's divide-by-zero warning from sampling the symbol must not reach stderr
    cfg = _write(tmp_path / "run.cfg",
                 "profile.kind = round_sphere\nspectral.grid_size = 500\n"
                 "run.command = converge\nrun.ells = 10, 20\n"
                 f"run.out_dir = {tmp_path}\n"
                 "symbol.kind = radial_mult\nsymbol.expr = 1/(r - pi/2)\n")
    done = subprocess.run([sys.executable, "-m", "revtone", "--config", cfg],
                          capture_output=True, text=True)
    assert done.returncode == 3
    lines = done.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("numerical failure: ConvergenceError: non-finite sample")
    assert not (tmp_path / "converge.csv").exists()


def test_converge_partial_failure(tmp_path):
    cfg = _write(tmp_path / "run.cfg",
                 "profile.kind = round_sphere\nspectral.grid_size = 500\n"
                 "run.command = converge\nrun.ells = 10, 110\n"
                 f"run.out_dir = {tmp_path}\n")
    assert main(["--config", cfg]) == 3
    errors = _record(tmp_path)["failures"]
    assert "ResolutionError" in errors["110"]
    rep = json.loads((tmp_path / "converge.json").read_text())
    assert any("error" in row for row in rep["rows"])
    _write(tmp_path / "run.cfg", (tmp_path / "run.cfg").read_text().replace("110", "20"))
    assert main(["--config", cfg]) == 0
    assert _record(tmp_path)["failures"] == {}
    # a run that fails as a whole leaves none of an earlier run's files
    text = (tmp_path / "run.cfg").read_text() + "symbol.kind = radial_mult\nsymbol.expr = cos(r)"
    _write(tmp_path / "run.cfg", text + "^2\n")
    assert main(["--config", cfg]) == 0
    _write(tmp_path / "run.cfg", text + "\n")
    assert main(["--config", cfg]) == 3
    assert not any((tmp_path / name).exists() for name in ("converge.json", "converge.csv"))


# --- verify-sphere ---------------------------------------------------------

def test_verify_sphere_passes(tmp_path):
    cfg = _write(tmp_path / "run.cfg",
                 "profile.kind = round_sphere\nspectral.grid_size = 2000\n"
                 "run.command = verify-sphere\n"
                 f"run.out_dir = {tmp_path}\n")
    assert main(["--config", cfg]) == 0
    rep = _record(tmp_path)
    assert rep["exit_code"] == 0
    assert len(rep["checks"]) >= 4
    names = {ch["name"] for ch in rep["checks"]}
    assert {"action_identity", "eigenvalue_ladder"} <= names
    for ch in rep["checks"]:
        assert ch["passed"] and ch["residual"] <= ch["tolerance"]


def test_verify_sphere_records_a_raising_check_as_failed(tmp_path, capsys, monkeypatch):
    def no_slice(p, ell, grid_size):
        raise ConvergenceError("no slice")

    monkeypatch.setattr(cli._spectral, "joint_slice", no_slice)
    cfg = _write(tmp_path / "run.cfg", "spectral.grid_size = 500\nrun.command = verify-sphere\n")
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[3:] == ["verify-sphere eigenvalue_ladder: FAIL",
                       "verify-sphere legendre_restricted_norms: FAIL"]
    checks = {ch["name"]: ch for ch in _record(tmp_path)["checks"]}
    for name in ("eigenvalue_ladder", "legendre_restricted_norms"):
        assert checks[name] == {"name": name, "passed": False, "residual": None,
                                "detail": "ConvergenceError: no slice", "tolerance": None}


def test_verify_sphere_coarse_grid_fails(tmp_path):
    cfg = _write(tmp_path / "run.cfg",
                 "profile.kind = round_sphere\nspectral.grid_size = 500\n"
                 "run.command = verify-sphere\n"
                 f"run.out_dir = {tmp_path}\n")
    assert subprocess.run(
        [sys.executable, "-m", "revtone", "--config", cfg],
        capture_output=True, text=True).returncode == 1
    rep = _record(tmp_path)
    assert rep["exit_code"] == 1
    failed = [ch for ch in rep["checks"] if not ch["passed"]]
    assert {ch["name"] for ch in failed} == {"eigenvalue_ladder", "legendre_restricted_norms"}
    assert all(ch["residual"] > ch["tolerance"] for ch in failed)


@pytest.mark.parametrize("command", ["spectrum", "converge", "verify-sphere"])
def test_grid_below_solver_minimum_is_config_error(tmp_path, capsys, command):
    cfg = _write(tmp_path / "run.cfg",
                 "profile.kind = round_sphere\nspectral.grid_size = 499\n"
                 f"run.command = {command}\nrun.ells = 10\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: line 2, col 22: spectral.grid_size: must be >= 500, got 499\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, table, exit_code", [
    ("validate", "sin", 0), ("validate", "steep", 1), ("density", "steep", 2),
    ("spectrum", "sin", 3), ("converge", "sin", 0), ("verify-sphere", "steep", 1)])
def test_every_command_writes_one_record(tmp_path, capsys, command, table, exit_code):
    # steep: a = 1.01 sin r, rejected (pole_slope); verify-sphere checks the round sphere
    r = np.linspace(0.0, np.pi, 2001)
    scale = {"sin": 1.0, "steep": 1.01}[table]
    np.savetxt(tmp_path / "t.dat", np.column_stack([r, scale * np.sin(r)]))
    cfg = _write(tmp_path / "run.cfg", f"profile.kind = custom_table\nprofile.table_path = "
                 f"{tmp_path / 't.dat'}\nspectral.grid_size = 500\nrun.ells = 10, 110\n"
                 f"run.command = {command}\n")
    if command == "converge":
        _write(tmp_path / "run.cfg", (tmp_path / "run.cfg").read_text().replace("110", "20"))
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == exit_code
    record = _record(tmp_path / "out")
    keys = {"command", "config", "exit_code", "failures", "report", "versions", "warnings"}
    assert set(record) == keys | ({"checks"} if command == "verify-sphere" else set())
    assert (record["command"], record["exit_code"]) == (command, exit_code)
    assert record["config"]["run.command"] == command and "run.out_dir" not in record["config"]
    assert record["report"]["passed"] == (table == "sin" or command == "verify-sphere")
    assert set(record["failures"]) == {"density": {"run"}, "spectrum": {"110"}}.get(command, set())
    assert all(record["versions"][lib] for lib in ("revtone", "numpy", "scipy", "python"))


@pytest.mark.parametrize("command, rerun", [
    ("validate", "profile.kind = custom_table\nprofile.table_path = {tmp_path}/absent.dat\n"),
    ("verify-sphere", "spectral.grid_size = 50\n")])
def test_a_rerun_stopped_by_its_config_leaves_no_passing_record(tmp_path, capsys, command, rerun):
    # the unreadable table stops the run once its config is read, grid 50 stops the parse
    out = tmp_path / "out"
    cfg = _write(tmp_path / "run.cfg", f"spectral.grid_size = 2000\nrun.command = {command}\n")
    assert main(["--config", cfg, "--out", str(out)]) == 0
    assert _record(out)["exit_code"] == 0
    rerun = rerun.format(tmp_path=tmp_path) + f"run.command = {command}\n"
    cfg = _write(tmp_path / "run.cfg", rerun)
    assert main(["--config", cfg, "--out", str(out)]) == 2
    assert os.listdir(out) == ["run.json"]
    record = _record(out)
    assert record["exit_code"] == 2 and not {"report", "checks"} & set(record)
    err = capsys.readouterr().err.removeprefix("config error: ")
    assert record["failures"] == {"run": f"ConfigError: {err.rstrip()}"}


def test_run_record_lists_the_plateau_warnings(tmp_path, capsys):
    # the nu series of cos r on the 1.3 ellipsoid reaches no plateau
    cfg = _write(tmp_path / "run.cfg",
                 "profile.kind = ellipsoid\nprofile.aspect = 1.3\nspectral.grid_size = 1000\n"
                 "run.command = converge\nrun.ells = 10, 20\n"
                 "symbol.kind = radial_mult\nsymbol.expr = cos(r)\n")
    for name in ("a", "b"):
        assert main(["--config", cfg, "--out", str(tmp_path / name)]) == 0
        warned = _record(tmp_path / name)["warnings"]
        assert len(warned) == 1 and warned[0].startswith("no plateau in the nu series, tail ")
        assert capsys.readouterr().err == f"converge: warning: {warned[0]}\n"
    assert filecmp.cmp(tmp_path / "a" / "run.json", tmp_path / "b" / "run.json", shallow=False)


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


def test_missing_config_file_is_config_error(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "absent.cfg"), "--command", "density"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["spectrum", "converge"])
def test_ells_are_required_after_the_command_override(tmp_path, capsys, command):
    # the config's own command needs no ells; the override's does, and nothing is written
    cfg = _write(tmp_path / "run.cfg", "run.command = density\ndensity.n = 20\n")
    assert main(["--config", cfg, "--command", command, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == \
        f"config error: run.ells is required for the {command} command\n"
    assert not (tmp_path / "o").exists()


def test_missing_command_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path / "run.cfg", "profile.kind = round_sphere\n")
    assert main(["--config", cfg]) == 2
    assert "command" in capsys.readouterr().err
