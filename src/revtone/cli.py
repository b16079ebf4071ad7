"""Command-line front end emitting CSV/JSON artifacts.

Commands: validate, density, spectrum, converge, verify-sphere.  A
config file supplies `section.key = value` parameters; --config, --out,
and --command override file values.  Exit codes: 0 success, 1
verification failure, 2 configuration error, 3 numerical failure or any
other unexpected error.

All writes go through one temp-file-and-rename, which also creates the
output directory, so partial outputs never land under their final names;
density, spectrum and converge first remove every file they would write, so
a failed run leaves no earlier run's artifact under those names.  All floats
are emitted via repr so identical configs reproduce artifacts byte for byte.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
import warnings
from dataclasses import replace
from functools import cache

import numpy as np

from . import actions as _actions
from . import config as _config
from . import measures as _measures
from . import spectral as _spectral
from .errors import ConfigError, ExprError, PlateauWarning, RejectedProfileError, RevtoneError
from .surface import CheckResult, ValidationReport, make_round_sphere

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# artifact emission

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _atomic_write(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _strip_nan(obj):
    if isinstance(obj, dict):
        return {k: _strip_nan(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strip_nan(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        val = float(obj)
        return val if math.isfinite(val) else None
    return obj


def _write_json(out_dir: str, name: str, obj):
    _atomic_write(os.path.join(out_dir, name),
                  json.dumps(_strip_nan(obj), indent=2, sort_keys=True) + "\n")


def _write_csv(out_dir: str, name: str, header: list, rows: list):
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    _atomic_write(os.path.join(out_dir, name), "\n".join(lines) + "\n")


def _write_errors(out_dir: str, failures: dict) -> int:
    """errors.json of the ells that failed, if any, and the exit code."""
    if failures:
        _write_json(out_dir, "errors.json", failures)
    return EXIT_NUMERICAL if failures else EXIT_OK


# ---------------------------------------------------------------------------
# commands

def cmd_validate(cfg: _config.RunConfig) -> int:
    try:
        report = _config.build_profile(cfg).report
    except RejectedProfileError as exc:
        report = exc.report
    _write_json(cfg.out_dir, "validation.json", report.as_dict())
    print(f"validate {report.profile_name}: {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_density(cfg: _config.RunConfig) -> int:
    ev = _config.build_evaluator(cfg, _config.build_profile(cfg))
    n = cfg.density_n
    lim = _measures.limit_measure_mu(ev)
    mass = lim.mass_constant
    cs = np.array([-1.0 + 2.0 * k / n for k in range(1, n)])
    unnorm = _actions.limit_density_unnorm(ev, cs)
    rows = [(c, f, f / mass, cdf) for c, f, cdf in zip(cs, unnorm, lim.cdf(cs))]
    _write_csv(cfg.out_dir, "density.csv", ["c", "density_unnorm", "density_norm", "cdf"], rows)
    print(f"density: {len(rows)} rows for {ev.profile.name}, mass constant {mass!r}")
    return EXIT_OK


def cmd_spectrum(cfg: _config.RunConfig) -> int:
    ev = _config.build_evaluator(cfg, _config.build_profile(cfg))
    failures = {}
    for ell in cfg.ells:
        try:
            t = _spectral.joint_slice(ev.profile, ell, cfg.grid_size).modes
            rows = list(zip(abs(t.m) + t.n, t.m, t.n, t.lam, t.norm, _spectral.ebk_residual(t, ev)))
            _write_csv(cfg.out_dir, f"slice_{ell}.csv",
                       ["ell", "m", "n", "lambda", "restricted_norm", "ebk_residual"], rows)
            print(f"spectrum: wrote slice_{ell}.csv ({len(rows)} modes)")
        except RevtoneError as exc:
            failures[str(ell)] = f"{type(exc).__name__}: {exc}"
            print(f"spectrum: ell = {ell} failed: {exc}", file=sys.stderr)
    return _write_errors(cfg.out_dir, failures)


def cmd_converge(cfg: _config.RunConfig) -> int:
    ev = _config.build_evaluator(cfg, _config.build_profile(cfg))
    sym = _config.build_symbol(cfg, ev.profile)
    report = _measures.convergence_sweep(ev, list(cfg.ells), sym, grid_size=cfg.grid_size)
    _write_json(cfg.out_dir, "converge.json", report.as_dict())
    cols = ["ell", "M_ell", "M_ell_over_ell", "ks_mu", "w1_mu", "ks_nu", "w1_nu"]
    rows = [tuple(row.get(c) for c in cols) for row in report.rows]
    _write_csv(cfg.out_dir, "converge.csv", cols, rows)
    failures = {str(r["ell"]): r["error"] for r in report.rows if "error" in r}
    if failures:
        print(f"converge: {len(failures)} of {len(report.rows)} ells failed", file=sys.stderr)
    else:
        print(f"converge: {len(report.rows)} ells, W1 fit exponent "
              f"{report.fit['w1_exponent']:.3f}")
    return _write_errors(cfg.out_dir, failures)


# ---------------------------------------------------------------------------
# round-sphere oracle suite

def legendre_equator_norm(ell: int, m: int) -> float:
    """Closed-form equator norm of the (ell, m) spherical harmonic.

    (2 ell + 1)/2 * (ell-m)!/(ell+m)! * P_ell^m(0)^2, evaluated in log
    space; zero for odd ell - m by parity.
    """
    m = abs(m)
    if (ell + m) % 2 == 1:
        return 0.0
    log_p = (m * math.log(2.0) - 0.5 * math.log(math.pi)
             + math.lgamma((ell + m + 1) / 2.0) - math.lgamma((ell - m) / 2.0 + 1.0))
    log_norm = (math.log((2.0 * ell + 1.0) / 2.0)
                + math.lgamma(ell - m + 1.0) - math.lgamma(ell + m + 1.0) + 2.0 * log_p)
    return math.exp(log_norm)


def _sphere_checks(cfg: _config.RunConfig):
    profile = make_round_sphere()
    ev = _config.build_evaluator(cfg, profile)
    grid = cfg.grid_size
    get_modes = cache(lambda ell: _spectral.joint_slice(profile, ell, grid).modes)

    def check_action_identity():
        ratios = [0.0] + [s * 0.1 * k for k in range(1, 10) for s in (1.0, -1.0)] + [0.99, -0.99]
        E = np.array([[0.5], [1.0], [3.0]])
        return float(np.max(np.abs(_actions.action_I2(ev, np.multiply(ratios, E), E) - E))), \
            1e-10, "max |I2(c, E) - E| over the c/E grid"

    def check_density_closed_form():
        cs = np.linspace(-0.999, 0.999, 401)
        vals = _actions.limit_density_unnorm(ev, cs) * np.sqrt(1.0 - cs * cs)
        return float(np.max(np.abs(vals - 1.0))), 1e-8, \
            "max |density_unnorm * sqrt(1 - c^2) - 1|, |c| <= 0.999"

    def check_mass_constant():
        return abs(_actions.normalization_M(ev) - math.pi), 1e-8, "|M - pi|"

    def check_eigenvalue_ladder():
        worst = abs(_spectral.radial_modes(profile, 0, 0, grid)[0].lam ** 2)
        for ell in range(1, 21):
            target = ell * (ell + 1.0)
            worst = max(worst, np.max(np.abs(get_modes(ell).lam ** 2 - target) / target))
        return worst, 1e-6, "max relative |lambda^2 - ell(ell+1)|, ell <= 20"

    def check_legendre_restricted_norms():
        worst = 0.0
        for ell in range(1, 21):
            t = get_modes(ell)
            worst = max(worst, np.abs(t.norm - [legendre_equator_norm(ell, m) for m in t.m]).max())
        return worst, 1e-5, "max |restricted norm - Legendre closed form|, ell <= 20"

    return [("action_identity", check_action_identity),
            ("density_closed_form", check_density_closed_form),
            ("mass_constant", check_mass_constant),
            ("eigenvalue_ladder", check_eigenvalue_ladder),
            ("legendre_restricted_norms", check_legendre_restricted_norms)]


def cmd_verify_sphere(cfg: _config.RunConfig) -> int:
    checks = []
    for name, fn in _sphere_checks(cfg):
        try:
            residual, tolerance, detail = fn()
            check = CheckResult(name, residual <= tolerance, residual, detail, tolerance)
        except RevtoneError as exc:
            check = CheckResult(name, False, None, f"{type(exc).__name__}: {exc}")
        checks.append(check)
        res = "" if check.residual is None else f" (residual {check.residual:.3e})"
        print(f"verify-sphere {name}: {'PASS' if check.passed else 'FAIL'}{res}")
    report = ValidationReport("round_sphere", tuple(checks))
    _write_json(cfg.out_dir, "verify.json",
                {**report.as_dict(), "grid_size": cfg.grid_size})
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------

_DISPATCH = {
    "validate": cmd_validate,
    "density": cmd_density,
    "spectrum": cmd_spectrum,
    "converge": cmd_converge,
    "verify-sphere": cmd_verify_sphere,
}
# the files density, spectrum and converge write, given run.ells
_OUTPUTS = {"density": lambda ells: ["density.csv"],
            "spectrum": lambda ells: [f"slice_{ell}.csv" for ell in ells] + ["errors.json"],
            "converge": lambda ells: ["converge.json", "converge.csv", "errors.json"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="revtone",
        description="Action-angle data, separated spectra, and equator measures "
                    "of convex surfaces of revolution.")
    parser.add_argument("--config", help="path to a section.key = value config file")
    parser.add_argument("--out", help="output directory (overrides run.out_dir)")
    parser.add_argument("--command", choices=_config.COMMANDS,
                        help="command to run (overrides run.command)")
    args = parser.parse_args(argv)

    try:
        cfg = _config.load_config(args.config) if args.config else _config.RunConfig()
        if args.out:
            cfg = replace(cfg, out_dir=args.out)
        if args.command:
            cfg = replace(cfg, command=args.command)
        if cfg.command is None:
            raise ConfigError("no command given (run.command or --command)")
        if cfg.command in ("spectrum", "converge") and not cfg.ells:
            raise ConfigError(f"run.ells is required for the {cfg.command} command")
        for name in _OUTPUTS.get(cfg.command, lambda ells: [])(cfg.ells):
            if os.path.exists(path := os.path.join(cfg.out_dir, name)):
                os.remove(path)
        with warnings.catch_warnings():  # a fit without a plateau: one line, when built
            warnings.simplefilter("always", PlateauWarning)
            show = warnings.showwarning
            warnings.showwarning = lambda message, category, *rest: (
                print(f"{cfg.command}: warning: {message}", file=sys.stderr)
                if issubclass(category, PlateauWarning) else show(message, category, *rest))
            return _DISPATCH[cfg.command](cfg)
    except (ConfigError, ExprError, RejectedProfileError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RevtoneError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception:
        # exit 1 means a verification failed, so a crash must not reach it
        traceback.print_exc()
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
