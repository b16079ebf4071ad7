"""Command-line front end emitting CSV/JSON artifacts.

Commands: validate, density, spectrum, converge, verify-sphere.  A
config file supplies `section.key = value` parameters; --config, --out,
and --command override file values.  Exit codes: 0 success, 1
verification failure, 2 configuration error, 3 numerical failure or any
other unexpected error.

Each run ends by writing run.json, its one record (`main`).  All writes go
through one temp-file-and-rename, which also creates the output directory,
so partial outputs never land under their final names; a run first removes
run.json and every file its config would write, so a failed run leaves no
earlier run's artifact under those names.  All floats are emitted via repr
so identical configs reproduce artifacts byte for byte.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
import warnings
from dataclasses import asdict, replace
from functools import cache

import numpy as np

from . import __version__
from . import actions as _actions
from . import config as _config
from . import measures as _measures
from . import spectral as _spectral
from .errors import ConfigError, ExprError, PlateauWarning, RejectedProfileError, RevtoneError
from .surface import CheckResult, make_round_sphere

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
    obj = obj.item() if isinstance(obj, np.generic) else obj
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _write_json(out_dir: str, name: str, obj):
    _atomic_write(os.path.join(out_dir, name),
                  json.dumps(_strip_nan(obj), indent=2, sort_keys=True) + "\n")


def _write_csv(out_dir: str, name: str, header: list, rows: list):
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    _atomic_write(os.path.join(out_dir, name), "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands: each takes the run's admitted profile and returns its part of run.json

def cmd_density(cfg: _config.RunConfig, profile) -> dict:
    ev = _config.build_evaluator(cfg, profile)
    n = cfg.density_n
    lim = _measures.limit_measure_mu(ev)
    mass = lim.mass_constant
    cs = np.array([-1.0 + 2.0 * k / n for k in range(1, n)])
    unnorm = _actions.limit_density_unnorm(ev, cs)
    rows = [(c, f, f / mass, cdf) for c, f, cdf in zip(cs, unnorm, lim.cdf(cs))]
    _write_csv(cfg.out_dir, "density.csv", ["c", "density_unnorm", "density_norm", "cdf"], rows)
    print(f"density: {len(rows)} rows for {profile.name}, mass constant {mass!r}")
    return {}


def cmd_spectrum(cfg: _config.RunConfig, profile) -> dict:
    ev = _config.build_evaluator(cfg, profile)
    failures = {}
    for ell in cfg.ells:
        try:
            t = _spectral.joint_slice(profile, ell, cfg.grid_size).modes
            rows = list(zip(abs(t.m) + t.n, t.m, t.n, t.lam, t.norm, _spectral.ebk_residual(t, ev)))
            _write_csv(cfg.out_dir, f"slice_{ell}.csv",
                       ["ell", "m", "n", "lambda", "restricted_norm", "ebk_residual"], rows)
            print(f"spectrum: wrote slice_{ell}.csv ({len(rows)} modes)")
        except RevtoneError as exc:
            failures[str(ell)] = f"{type(exc).__name__}: {exc}"
            print(f"spectrum: ell = {ell} failed: {exc}", file=sys.stderr)
    return {"failures": failures}


def cmd_converge(cfg: _config.RunConfig, profile) -> dict:
    ev = _config.build_evaluator(cfg, profile)
    sym = _config.build_symbol(cfg, profile)
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
    return {"failures": failures}


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


def _sphere_checks(cfg: _config.RunConfig, profile):
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

    return [check_action_identity, check_density_closed_form, check_mass_constant,
            check_eigenvalue_ladder, check_legendre_restricted_norms]


def cmd_verify_sphere(cfg: _config.RunConfig, profile) -> dict:
    checks = []
    for fn in _sphere_checks(cfg, profile):
        name = fn.__name__.removeprefix("check_")
        try:
            residual, tolerance, detail = fn()
            check = CheckResult(name, residual <= tolerance, residual, detail, tolerance)
        except RevtoneError as exc:
            check = CheckResult(name, False, None, f"{type(exc).__name__}: {exc}")
        checks.append(asdict(check))
        res = "" if check.residual is None else f" (residual {check.residual:.3e})"
        print(f"verify-sphere {name}: {'PASS' if check.passed else 'FAIL'}{res}")
    return {"checks": checks}


# ---------------------------------------------------------------------------

_DISPATCH = {"density": cmd_density, "spectrum": cmd_spectrum, "converge": cmd_converge,
             "verify-sphere": cmd_verify_sphere}
# the files density, spectrum and converge write besides run.json, given run.ells
_OUTPUTS = {"density": lambda ells: ["density.csv"],
            "spectrum": lambda ells: [f"slice_{ell}.csv" for ell in ells],
            "converge": lambda ells: ["converge.json", "converge.csv"]}


def _failure(exc: Exception) -> int:
    """Say on stderr why a run stopped, and return its exit code."""
    if isinstance(exc, (ConfigError, ExprError, RejectedProfileError)):
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if isinstance(exc, RevtoneError):
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
    else:  # exit 1 means a verification failed, so a crash must not reach it
        traceback.print_exc()
    return EXIT_NUMERICAL


def _run(cfg: _config.RunConfig, record: dict) -> dict:
    """The command's part of the record.  The profile's report enters `record` as soon as
    the profile is built or rejected, so a run that stops later still records it; only
    validate goes on from a rejection, as its FAIL."""
    try:
        profile = (make_round_sphere() if cfg.command == "verify-sphere"
                   else _config.build_profile(cfg))
        record["report"] = profile.report.as_dict()
    except RejectedProfileError as exc:
        record["report"] = exc.report.as_dict()
        if cfg.command != "validate":
            raise
    if cfg.command != "validate":
        return _DISPATCH[cfg.command](cfg, profile)
    report = record["report"]
    print(f"validate {report['profile']}: {'PASS' if report['passed'] else 'FAIL'}")
    return {}


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

    record = {"command": args.command, "config": None, "failures": {}, "warnings": []}
    out_dir = args.out
    try:
        scipy_version = _spectral.scipy_module("scipy.version", "scipy.version").version
        record["versions"] = {"revtone": __version__, "numpy": np.__version__,
                              "python": "%d.%d.%d" % sys.version_info[:3], "scipy": scipy_version}
        cfg = _config.load_config(args.config) if args.config else _config.RunConfig()
        if args.out:
            cfg = replace(cfg, out_dir=args.out)
        if args.command:
            cfg = replace(cfg, command=args.command)
        out_dir = cfg.out_dir
        # without run.out_dir, so the record does not depend on where it lands
        record.update(command=cfg.command, config={
            key: getattr(cfg, field) for key, (field, _) in _config.KEYS.items()
            if field != "out_dir"})
        if cfg.command is None:
            raise ConfigError("no command given (run.command or --command)")
        if cfg.command in ("spectrum", "converge") and not cfg.ells:
            raise ConfigError(f"run.ells is required for the {cfg.command} command")
        os.makedirs(out_dir, exist_ok=True)
        for name in ["run.json", *_OUTPUTS.get(cfg.command, lambda ells: [])(cfg.ells)]:
            if os.path.exists(path := os.path.join(out_dir, name)):
                os.remove(path)
        with warnings.catch_warnings():  # a fit without a plateau: one line, when built
            warnings.simplefilter("always", PlateauWarning)
            show = warnings.showwarning
            warnings.showwarning = lambda message, category, *rest: (
                (record["warnings"].append(str(message)),
                 print(f"{cfg.command}: warning: {message}", file=sys.stderr))
                if issubclass(category, PlateauWarning) else show(message, category, *rest))
            record.update(_run(cfg, record))
        checks = record["report"]["checks"] + record.get("checks", [])
        record["exit_code"] = (EXIT_NUMERICAL if record["failures"] else EXIT_OK
                               if all(ch["passed"] for ch in checks) else EXIT_VERIFY_FAILED)
    except Exception as exc:
        record.update(exit_code=_failure(exc), failures={"run": f"{type(exc).__name__}: {exc}"})
    # a run stopped by its config creates no directory, but leaves no earlier record
    if out_dir and os.path.isdir(out_dir):
        try:
            _write_json(out_dir, "run.json", record)
        except Exception as exc:
            return _failure(exc)
    return record["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
