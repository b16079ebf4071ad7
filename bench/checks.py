"""Correctness checks on the artifacts of one revtone run.

Every check yields a deviation and a tolerance, or a plain pass/fail
(exit code, artifact present, row count).  A run's `err_ref` is
1 + max(deviation / tolerance): 1.0 is an exact match, 2.0 means some
output sits exactly at its tolerance, and above 2.0 a check fails.

- At seed 0 every workload is compared column by column with reference
  artifacts generated at the seed commit (refs/).
- At every seed they must satisfy seed-independent invariants: a
  symmetric density with cdf(0) = 1/2 and a monotone CDF, and 2 ell + 1
  correctly labeled modes per slice.
- sphere-converge is compared with closed forms at every seed: Legendre
  equator norms from the stable recurrence and the arcsine law, read
  from tests/oracles.py, which imports nothing from revtone.  At every
  seed the W1 decay fit in converge.json must be the fit of the w1_mu
  column of converge.csv.
"""
from __future__ import annotations

import importlib.util
import json
import math
import os
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
REF_DIR = BENCH / "refs"
ORACLES = BENCH.parent / "tests" / "oracles.py"

# Tolerances against the seed-0 references, per artifact kind and column:
# ("abs", t) bounds |x - ref|, ("rel", t) bounds |x - ref| / |ref|.  They
# sit far above rounding and far below any error that would change a
# result, so a faster algorithm passes and a wrong one does not.
REF_TOL = {
    "density": {"c": ("abs", 1e-15), "density_unnorm": ("rel", 1e-8),
                "density_norm": ("rel", 1e-8), "cdf": ("abs", 1e-8)},
    "slice": {"ell": ("abs", 0.5), "m": ("abs", 0.5), "n": ("abs", 0.5),
              "lambda": ("rel", 1e-8), "restricted_norm": ("abs", 1e-8),
              "ebk_residual": ("abs", 1e-7)},
    "converge": {"ell": ("abs", 0.5), "M_ell": ("rel", 1e-8), "M_ell_over_ell": ("rel", 1e-8),
                 "ks_mu": ("rel", 1e-8), "w1_mu": ("rel", 1e-8),
                 "ks_nu": ("rel", 1e-8), "w1_nu": ("rel", 1e-8)},
}
# seed-independent invariants
SYMMETRY_TOL = 1e-9      # relative |density(c) - density(-c)|, |cdf(c) + cdf(-c) - 1|
CDF_HALF_TOL = 1e-9      # |cdf(0) - 1/2|
MONOTONE_TOL = 1e-12     # largest decrease between neighbouring CDF values
MIRROR_TOL = 1e-12       # relative |lambda(m) - lambda(-m)|
FIT_TOL = 1e-9           # |fit in converge.json - least-squares fit of converge.csv|
# sphere closed forms at grid 4000.  The discretization error grows like
# ell^4: at the seed commit M_ell is off by 3.9e-5 (relative), ks_mu by
# 1.6e-6 and w1_mu by 3.4e-6 at ell = 200, against 1.4e-7, 1.2e-8 and
# 2.1e-8 at ell = 50.
SPHERE_TOL = {"M_ell": ("rel", 1e-4), "ks_mu": ("abs", 1e-5), "w1_mu": ("abs", 1e-5)}

_RATIO_CAP = 1e9


class Checks:
    """Pass/fail records of one run's checks."""

    def __init__(self):
        self.items = []   # (name, passed, deviation or None, tolerance or None)

    def flag(self, name: str, passed: bool):
        self.items.append((name, bool(passed), None, None))

    def measure(self, name: str, deviation: float, tol: float):
        passed = math.isfinite(deviation) and deviation <= tol
        self.items.append((name, passed, float(deviation), tol))

    @property
    def attempted(self) -> int:
        return len(self.items)

    @property
    def failed(self) -> int:
        return sum(1 for item in self.items if not item[1])

    def worst_ratio(self) -> float:
        worst = 0.0
        for _name, _passed, dev, tol in self.items:
            if dev is not None:
                ratio = dev / tol if math.isfinite(dev) else _RATIO_CAP
                worst = max(worst, min(ratio, _RATIO_CAP))
        return worst

    def failures(self) -> list:
        return [item for item in self.items if not item[1]]


def read_csv(path) -> tuple[list, list]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    rows = [[float(v) if v else math.nan for v in ln.split(",")] for ln in lines[1:]]
    return header, rows


def _deviation(x: float, ref: float, kind: str) -> float:
    d = abs(x - ref)
    if kind == "rel" and ref != 0.0:
        d /= abs(ref)
    return d if math.isfinite(d) else math.inf


def compare_to_reference(checks: Checks, label: str, path, ref_path, tol_spec: dict):
    header, rows = read_csv(path)
    ref_header, ref_rows = read_csv(ref_path)
    checks.flag(f"{label}:shape", header == ref_header and len(rows) == len(ref_rows))
    if header != ref_header or len(rows) != len(ref_rows):
        return
    for j, col in enumerate(header):
        kind, tol = tol_spec[col]
        dev = max((_deviation(r[j], q[j], kind) for r, q in zip(rows, ref_rows)), default=0.0)
        checks.measure(f"{label}:{col}", dev, tol)


def density_invariants(checks: Checks, path):
    header, rows = read_csv(path)
    col = {name: j for j, name in enumerate(header)}
    cs = [r[col["c"]] for r in rows]
    dens = [r[col["density_unnorm"]] for r in rows]
    cdf = [r[col["cdf"]] for r in rows]
    n = len(rows)
    sym = max((abs(dens[k] - dens[n - 1 - k]) / abs(dens[k]) for k in range(n)), default=0.0)
    checks.measure("density:symmetric", sym, SYMMETRY_TOL)
    csym = max((abs(cdf[k] + cdf[n - 1 - k] - 1.0) for k in range(n)), default=0.0)
    checks.measure("density:cdf_symmetric", csym, SYMMETRY_TOL)
    mirrored = all(abs(cs[k] + cs[n - 1 - k]) <= 1e-14 for k in range(n))
    zero = [k for k, c in enumerate(cs) if c == 0.0]
    checks.flag("density:grid_symmetric_with_zero", mirrored and len(zero) == 1)
    if zero:
        checks.measure("density:cdf_half", abs(cdf[zero[0]] - 0.5), CDF_HALF_TOL)
    drop = max((cdf[k] - cdf[k + 1] for k in range(n - 1)), default=0.0)
    checks.measure("density:cdf_monotone", max(drop, 0.0), MONOTONE_TOL)


def slice_invariants(checks: Checks, ell: int, path):
    header, rows = read_csv(path)
    col = {name: j for j, name in enumerate(header)}
    ms = sorted(int(r[col["m"]]) for r in rows)
    labels_ok = (ms == list(range(-ell, ell + 1))
                 and all(int(r[col["ell"]]) == ell
                         and int(r[col["n"]]) == ell - abs(int(r[col["m"]])) for r in rows))
    checks.flag(f"slice_{ell}:2ell+1_modes", labels_ok)
    lam = {int(r[col["m"]]): r[col["lambda"]] for r in rows}
    mirror = max((abs(lam[m] - lam.get(-m, math.nan)) / abs(lam[m])
                  for m in lam if m > 0), default=0.0)
    checks.measure(f"slice_{ell}:lambda_mirror", mirror, MIRROR_TOL)


def load_oracles():
    spec = importlib.util.spec_from_file_location("revtone_bench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ks_vs_cdf(atoms, cdf) -> float:
    worst = below = 0.0
    for c, w in atoms:
        target = cdf(c)
        worst = max(worst, abs(below - target), abs(below + w - target))
        below += w
    return worst


def _arcsine_integral(c: float) -> float:
    """Antiderivative of the arcsine CDF (asin c + pi/2) / pi."""
    return (c * math.asin(c) + math.sqrt(max(1.0 - c * c, 0.0))) / math.pi + 0.5 * c


def w1_vs_arcsine(atoms) -> float:
    """Exact L1 distance between an atomic CDF and the arcsine CDF on [-1, 1].

    On each segment the empirical CDF is a constant level L, which the
    increasing arcsine CDF crosses once, at -cos(pi L).
    """
    bounds, levels, below = [-1.0], [], 0.0
    for c, w in atoms:
        if c > bounds[-1]:
            bounds.append(c)
            levels.append(below)
        below += w
    bounds.append(1.0)
    levels.append(below)
    total = 0.0
    for lo, hi, level in zip(bounds[:-1], bounds[1:], levels):
        cross = min(max(-math.cos(math.pi * level), lo), hi)

        def excess(a, b):
            return _arcsine_integral(b) - _arcsine_integral(a) - level * (b - a)

        total += excess(cross, hi) - excess(lo, cross)
    return total


def sphere_oracle(checks: Checks, path, oracles):
    header, rows = read_csv(path)
    col = {name: j for j, name in enumerate(header)}
    dev = {name: 0.0 for name in SPHERE_TOL}
    for r in rows:
        ell = int(r[col["ell"]])
        atoms, mass = oracles.sphere_mu_atoms(ell)
        expect = {"M_ell": mass, "ks_mu": ks_vs_cdf(atoms, oracles.arcsine_cdf),
                  "w1_mu": w1_vs_arcsine(atoms)}
        for name, (kind, _tol) in SPHERE_TOL.items():
            dev[name] = max(dev[name], _deviation(r[col[name]], expect[name], kind))
    for name, (_kind, tol) in SPHERE_TOL.items():
        checks.measure(f"converge:{name}_vs_closed_form", dev[name], tol)


def fit_matches_rows(checks: Checks, json_path, csv_path):
    """converge.json's fit is the log-log least-squares line of w1_mu over ell."""
    header, rows = read_csv(csv_path)
    col = {name: j for j, name in enumerate(header)}
    x = np.log([r[col["ell"]] for r in rows])
    y = np.log([r[col["w1_mu"]] for r in rows])
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    r2 = 1.0 - ss_res / float(np.sum((y - np.mean(y)) ** 2))
    with open(json_path, "r", encoding="utf-8") as fh:
        fit = json.load(fh)["fit"]
    checks.measure("converge:fit_w1_exponent", abs(fit["w1_exponent"] - slope), FIT_TOL)
    checks.measure("converge:fit_w1_r2", abs(fit["w1_r2"] - r2), FIT_TOL)


def check_run(workload: str, p: dict, seed: int, out_dir, returncode: int,
              expected: list, oracles) -> Checks:
    """All checks on one run of workload `workload` with parameters `p`."""
    checks = Checks()
    checks.flag("exit_code_0", returncode == 0)
    present = {name: os.path.isfile(os.path.join(out_dir, name)) for name in expected}
    for name, ok in present.items():
        checks.flag(f"artifact:{name}", ok)
    if not all(present.values()):
        return checks
    try:
        _check_artifacts(checks, workload, p, seed, out_dir, oracles)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        checks.flag(f"artifacts_parse:{type(exc).__name__}", False)
    return checks


def _check_artifacts(checks, workload, p, seed, out_dir, oracles):
    ref_dir = REF_DIR / workload
    if p["command"] == "density":
        path = os.path.join(out_dir, "density.csv")
        density_invariants(checks, path)
        if seed == 0:
            compare_to_reference(checks, "density", path, ref_dir / "density.csv",
                                 REF_TOL["density"])
    elif p["command"] == "spectrum":
        for ell in p["ells"]:
            path = os.path.join(out_dir, f"slice_{ell}.csv")
            slice_invariants(checks, ell, path)
            if seed == 0:
                compare_to_reference(checks, f"slice_{ell}", path,
                                     ref_dir / f"slice_{ell}.csv", REF_TOL["slice"])
    else:
        path = os.path.join(out_dir, "converge.csv")
        sphere_oracle(checks, path, oracles)
        fit_matches_rows(checks, os.path.join(out_dir, "converge.json"), path)
        if seed == 0:
            compare_to_reference(checks, "converge", path, ref_dir / "converge.csv",
                                 REF_TOL["converge"])
