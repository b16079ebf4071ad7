"""Command-line front end emitting CSV/JSON artifacts.

Commands: validate, density, spectrum, converge, verify-sphere.  A
config file supplies `section.key = value` parameters; --config, --out,
and --command override file values.  Exit codes: 0 success, 1
verification failure, 2 configuration error, 3 numerical failure or any
other unexpected error.

All writes go through a temp-file-and-rename so partial outputs never
land under their final names, and all floats are emitted via repr so
identical configs reproduce artifacts byte for byte.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from dataclasses import replace

import numpy as np

from . import actions as _actions
from . import config as _config
from . import measures as _measures
from . import spectral as _spectral
from .errors import ConfigError, ExprError, RejectedProfileError, RevtoneError
from .surface import load_profile_table, make_round_sphere, validate_profile

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


def _write_json(path: str, obj):
    _atomic_write(path, json.dumps(_strip_nan(obj), indent=2, sort_keys=True) + "\n")


def _write_csv(path: str, header: list, rows: list):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands

def cmd_validate(cfg: _config.RunConfig) -> int:
    out = os.path.join(cfg.out_dir, "validation.json")
    try:
        if cfg.profile.kind == "custom_table":
            profile = load_profile_table(cfg.profile.table_path, check=False)
        else:
            profile = _profile(cfg, "validate")
    except RejectedProfileError as exc:
        os.makedirs(cfg.out_dir, exist_ok=True)
        _write_json(out, {"profile": cfg.profile.kind, "passed": False, "error": str(exc)})
        print(f"validate: FAIL ({exc})")
        return EXIT_VERIFY_FAILED
    report = validate_profile(profile)
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_json(out, report.as_dict())
    status = "PASS" if report.passed else "FAIL"
    print(f"validate {profile.name}: {status}")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _warn_without_plateau(command: str, name: str, series):
    if series is not None and not series.converged:
        print(f"{command}: warning: no plateau in the {name} series, tail {series.tail:.3e}",
              file=sys.stderr)


def _profile(cfg: _config.RunConfig, command: str):
    profile = _config.build_profile(cfg)
    _warn_without_plateau(command, "meridian", profile.meridian)
    return profile


def cmd_density(cfg: _config.RunConfig) -> int:
    profile = _profile(cfg, "density")
    ev = _config.build_evaluator(cfg, profile)
    n = cfg.density_n
    _warn_without_plateau("density", "energy K1", _actions.k1_series(ev))
    lim = _measures.limit_measure_mu(ev)
    mass = lim.mass_constant
    _warn_without_plateau("density", "density", _actions.mu_series(ev))
    cs = np.array([-1.0 + 2.0 * k / n for k in range(1, n)])
    unnorm = _actions.limit_density_unnorm(ev, cs)
    rows = [(c, f, f / mass, cdf) for c, f, cdf in zip(cs, unnorm, lim.cdf(cs))]
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_csv(os.path.join(cfg.out_dir, "density.csv"),
               ["c", "density_unnorm", "density_norm", "cdf"], rows)
    print(f"density: {len(rows)} rows for {profile.name}, mass constant {mass!r}")
    return EXIT_OK


def cmd_spectrum(cfg: _config.RunConfig) -> int:
    if not cfg.ells:
        raise ConfigError("run.ells is required for the spectrum command")
    profile = _profile(cfg, "spectrum")
    ev = _config.build_evaluator(cfg, profile)
    _warn_without_plateau("spectrum", "energy K1", _actions.k1_series(ev))
    os.makedirs(cfg.out_dir, exist_ok=True)
    failures = {}
    for ell in cfg.ells:
        try:
            slice_ = _spectral.joint_slice(profile, ell, cfg.spectral.grid_size)
            rows = [(mode.ell, mode.m, mode.n, mode.lam, slice_.restricted_norms[mode.m], res)
                    for mode, res in zip(slice_.modes, _spectral.ebk_residual(slice_.modes, ev))]
            _write_csv(os.path.join(cfg.out_dir, f"slice_{ell}.csv"),
                       ["ell", "m", "n", "lambda", "restricted_norm", "ebk_residual"], rows)
            print(f"spectrum: wrote slice_{ell}.csv ({len(rows)} modes)")
        except RevtoneError as exc:
            failures[str(ell)] = f"{type(exc).__name__}: {exc}"
            print(f"spectrum: ell = {ell} failed: {exc}", file=sys.stderr)
    if failures:
        _write_json(os.path.join(cfg.out_dir, "errors.json"), failures)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_converge(cfg: _config.RunConfig) -> int:
    if not cfg.ells:
        raise ConfigError("run.ells is required for the converge command")
    profile = _profile(cfg, "converge")
    ev = _config.build_evaluator(cfg, profile)
    sym = _config.build_symbol(cfg)
    report = _measures.convergence_sweep(ev, list(cfg.ells), sym,
                                         grid_size=cfg.spectral.grid_size)
    _warn_without_plateau("converge", "energy K1", _actions.k1_series(ev))
    _warn_without_plateau("converge", "density", _actions.mu_series(ev))
    if sym is not None:
        _warn_without_plateau("converge", "nu", _actions.nu_series(ev, sym))
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_json(os.path.join(cfg.out_dir, "converge.json"), report.as_dict())
    cols = ["ell", "M_ell", "M_ell_over_ell", "ks_mu", "w1_mu", "ks_nu", "w1_nu"]
    rows = [tuple(row.get(c) for c in cols) for row in report.rows]
    _write_csv(os.path.join(cfg.out_dir, "converge.csv"), cols, rows)
    failures = {str(r["ell"]): r["error"] for r in report.rows if "error" in r}
    if failures:
        _write_json(os.path.join(cfg.out_dir, "errors.json"), failures)
        print(f"converge: {len(failures)} of {len(report.rows)} ells failed", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"converge: {len(report.rows)} ells, W1 fit exponent "
          f"{report.fit['w1_exponent']:.3f}")
    return EXIT_OK


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
    grid = cfg.spectral.grid_size
    slices = {}

    def get_slice(ell):
        if ell not in slices:
            slices[ell] = _spectral.joint_slice(profile, ell, grid)
        return slices[ell]

    def check_action_identity():
        ratios = [0.0] + [s * 0.1 * k for k in range(1, 10) for s in (1.0, -1.0)] + [0.99, -0.99]
        worst = 0.0
        for energy in (0.5, 1.0, 3.0):
            for ratio in ratios:
                worst = max(worst, abs(_actions.action_I2(ev, ratio * energy, energy) - energy))
        return worst, 1e-10, "max |I2(c, E) - E| over the c/E grid"

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
            for mode in get_slice(ell).modes:
                worst = max(worst, abs(mode.lam ** 2 - target) / target)
        return worst, 1e-6, "max relative |lambda^2 - ell(ell+1)|, ell <= 20"

    def check_legendre_restricted_norms():
        worst = 0.0
        for ell in range(1, 21):
            slice_ = get_slice(ell)
            for m, value in slice_.restricted_norms.items():
                worst = max(worst, abs(value - legendre_equator_norm(ell, m)))
        return worst, 1e-5, "max |restricted norm - Legendre closed form|, ell <= 20"

    return [("action_identity", check_action_identity),
            ("density_closed_form", check_density_closed_form),
            ("mass_constant", check_mass_constant),
            ("eigenvalue_ladder", check_eigenvalue_ladder),
            ("legendre_restricted_norms", check_legendre_restricted_norms)]


def cmd_verify_sphere(cfg: _config.RunConfig) -> int:
    results = []
    for name, fn in _sphere_checks(cfg):
        try:
            residual, tolerance, detail = fn()
            passed = residual <= tolerance
            entry = {"name": name, "passed": passed, "residual": residual,
                     "tolerance": tolerance, "detail": detail}
        except RevtoneError as exc:
            entry = {"name": name, "passed": False, "residual": None, "tolerance": None,
                     "detail": f"{type(exc).__name__}: {exc}"}
        results.append(entry)
        status = "PASS" if entry["passed"] else "FAIL"
        res = "" if entry["residual"] is None else f" (residual {entry['residual']:.3e})"
        print(f"verify-sphere {entry['name']}: {status}{res}")
    all_passed = all(e["passed"] for e in results)
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_json(os.path.join(cfg.out_dir, "verify.json"),
                {"profile": "round_sphere", "grid_size": cfg.spectral.grid_size,
                 "passed": all_passed, "checks": results})
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------

_DISPATCH = {
    "validate": cmd_validate,
    "density": cmd_density,
    "spectrum": cmd_spectrum,
    "converge": cmd_converge,
    "verify-sphere": cmd_verify_sphere,
}


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
