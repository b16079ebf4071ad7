"""Meridian profiles of convex surfaces of revolution.

A surface with metric dr^2 + a(r)^2 dtheta^2 on [0, L] is described by
its profile function a.  Admissible profiles vanish at both poles with
unit slope (+1 at r = 0, -1 at r = L), are positive in between, and have
a single nondegenerate maximum at r0; the circle r = r0 is the equator.

Profiles are immutable value objects: the callables a, a1, a2 must
accept scalars or ndarrays, and their values must depend on r alone (a
cache that does not change them, like the ellipsoid's last t(r), is fine).
"""
from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import Chebyshev

from .errors import (ConfigError, ConvergenceError, InvalidParameterError, PlateauWarning,
                     RejectedProfileError)
from .quadrature import gauss_legendre_rule

SLOPE_TOL = 1e-10
ZERO_TOL_FACTOR = 1e-12
N_VALIDATION_SAMPLES = 10_001


@dataclass(frozen=True)
class SurfaceProfile:
    """Profile a(r) with its first two derivatives and equator data."""

    a: Callable
    a1: Callable
    a2: Callable
    L: float
    r0: float
    a_r0: float
    name: str = "custom"
    # make_custom's validation of the profile, which every built-in profile carries
    report: "ValidationReport | None" = field(default=None, repr=False, compare=False)
    # a(L - r) = a(r) and r0 = L / 2, declared by the sphere and ellipsoid constructors only
    mirror: bool = False


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float | None  # None if the check raised
    detail: str = ""
    tolerance: float | None = None  # None if the check has no scalar bound


@dataclass(frozen=True)
class ValidationReport:
    profile_name: str
    checks: Sequence[CheckResult] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {"profile": self.profile_name, "passed": self.passed,
                "checks": [asdict(c) for c in self.checks]}


def find_root(fdf, lo, hi, x=None):
    """Zero of f in [lo, hi], where f changes sign, by safeguarded Newton steps;
    elementwise and in lockstep over arrays of brackets, a scalar for a scalar one.

    fdf(x, i) returns (f, f') at the iterates x of the elements with flat indices i:
    once at both finite ends (f' unread, its warnings silenced; an exact zero is the
    root, one sign raises InvalidParameterError), then once per step on the elements
    still iterating, from x (by default the midpoint).  hi = inf opens the bracket of
    an increasing f: lo is not evaluated, and x > max(lo, 0) doubles instead of
    bisecting until f > 0.  A Newton step that leaves the bracket or exceeds half the
    step before bisects.  An element stops once its Newton step or bracket is within
    2 eps s, s the largest of the starting finite |lo|, |hi| and every |x|, or at f's
    rounding floor: a Newton step within sqrt(eps) s followed by one not halving it.
    An open bracket collapsing with f > 0 throughout, or 200 steps, raise ConvergenceError."""
    lo, hi = np.broadcast_arrays(np.array(lo, float), np.array(hi, float))
    shape, lo, hi = lo.shape, lo.ravel(), hi.ravel()
    x = 0.5 * (lo + hi) if x is None else np.broadcast_to(np.array(x, float), shape).ravel()
    # an open bracket's lo is taken to have f < 0, and its hi f > 0
    flo, fhi, ends = np.full(lo.shape, -1.0), np.ones(lo.shape), np.flatnonzero(hi < np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = fdf(np.r_[lo[ends], hi[ends]], np.r_[ends, ends])[0] if ends.size else ()
    flo[ends], fhi[ends] = np.split(np.broadcast_to(np.asarray(f, float), (2 * ends.size,)), 2)
    root, active = np.where(flo == 0.0, lo, hi), (flo != 0.0) & (fhi != 0.0)
    bad = active & ((flo < 0.0) == (fhi < 0.0))
    if np.any(bad):
        raise InvalidParameterError(f"f has one sign on [{float(lo[bad][0])!r}, "
                                    f"{float(hi[bad][0])!r}]: {flo[bad][0]:.3e}, {fhi[bad][0]:.3e}")
    verified, (fx, d), newton_old = hi < np.inf, np.zeros((2, lo.size)), np.zeros(lo.size, bool)
    scale, step_old = np.maximum(np.abs(lo), np.abs(np.where(verified, hi, lo))), hi - lo
    for _ in range(200):
        i = np.flatnonzero(active)
        if not i.size:
            break
        fx[i], d[i] = fdf(x[i], i)
        below = (fx < 0.0) == (flo < 0.0)
        lo, hi = np.where(active & below, x, lo), np.where(active & ~below, x, hi)
        verified, scale = verified | (active & below), np.maximum(scale, np.abs(x))
        res, near = 2.0 * np.finfo(float).eps * scale, np.sqrt(np.finfo(float).eps) * scale
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(d != 0.0, fx / d, np.inf)
        newton = active & (np.abs(step) <= res)
        root, active = np.where(newton, x - step, root), active & ~newton
        stalled = np.abs(step) > 0.5 * np.abs(step_old)
        floor = active & newton_old & (np.abs(step_old) <= near) & stalled
        bisect = active & ~floor & (~((lo < x - step) & (x - step < hi)) | stalled)
        closed = bisect & (hi - lo <= res)
        if np.any(closed & ~verified):
            raise ConvergenceError("open bracket collapsed with f > 0 at every iterate")
        root, active = np.where(floor | closed, x, root), active & ~(floor | closed)
        step = np.where(bisect, x - np.where(hi < np.inf, 0.5 * (lo + hi), 2.0 * x), step)
        x, step_old, newton_old = np.where(active, x - step, x), step, ~bisect
    if np.any(active):
        raise ConvergenceError(f"root near x = {x[active][0]:.17g} not resolved in 200 steps")
    return root.reshape(shape)[()]


def _sign_changes(values: np.ndarray) -> list[int]:
    """Indices i where values[i] and values[i+1] have strictly opposite signs."""
    nz = np.flatnonzero(np.sign(values))
    return nz[:-1][np.sign(values[nz[:-1]]) != np.sign(values[nz[1:]])].tolist()


def _admit(a, a1, a2, L: float, name: str, r0: float | None = None,
           a_r0: float | None = None) -> tuple[float | None, float | None, ValidationReport]:
    """(r0, a(r0), report): the structural invariants of the convex profile a on [0, L].

    a and a' are sampled once, on a uniform grid of N_VALIDATION_SAMPLES points; the other
    checks are exact, at the poles and at r0.  Without r0 it is the root of a' in the bracket
    of its single sign change on that grid; with no single sign change r0 and a(r0) are None
    and the report ends after the four checks that need no r0.  Each check reports the
    residual actually measured so failures are diagnosable.
    """
    zero_tol = ZERO_TOL_FACTOR * L
    r_grid = np.linspace(0.0, L, N_VALIDATION_SAMPLES)
    a_int = np.asarray(a(r_grid[1:-1]), float)
    a1_grid = np.asarray(a1(r_grid), float)

    checks = []

    res = max(abs(float(a(0.0))), abs(float(a(L))))
    checks.append(CheckResult("endpoint_zero", res <= zero_tol, res,
                              f"|a| at poles vs tolerance {zero_tol:.3e}", zero_tol))

    res = max(abs(float(a1(0.0)) - 1.0), abs(float(a1(L)) + 1.0))
    checks.append(CheckResult("pole_slope", res <= SLOPE_TOL, res,
                              "a'(0) = +1 and a'(L) = -1", SLOPE_TOL))

    amin = float(np.min(a_int))
    checks.append(CheckResult("interior_positive", amin > 0.0, amin,
                              "min of a on interior sample grid"))

    changes = _sign_changes(a1_grid)
    ok = len(changes) == 1 and a1_grid[0] > 0.0
    checks.append(CheckResult("single_sign_change", ok, float(len(changes)),
                              "a' must change sign exactly once, + to -"))

    if r0 is None:
        if len(changes) != 1:
            return None, None, ValidationReport(name, tuple(checks))
        i = changes[0]
        r0 = find_root(lambda r, _: (a1(r), a2(r)), float(r_grid[i]), float(r_grid[i + 1]))
    r0 = float(r0)
    a_r0 = float(a(r0)) if a_r0 is None else a_r0

    slope_res = abs(float(a1(r0)))
    curv = float(a2(r0))
    ok = slope_res <= SLOPE_TOL and curv < 0.0
    checks.append(CheckResult("critical_point", ok, slope_res,
                              f"a'(r0) = 0 and a''(r0) = {curv:.6g} < 0", SLOPE_TOL))

    gap, tol = float(np.max(a_int)) - a_r0, max(zero_tol, 1e-12 * a_r0)
    checks.append(CheckResult("max_dominates", gap <= tol, gap,
                              "sampled a never exceeds a(r0)", tol))

    return r0, a_r0, ValidationReport(name, tuple(checks))


def validate_profile(p: SurfaceProfile) -> ValidationReport:
    """Check the structural invariants of a convex profile at its recorded r0 and a(r0)."""
    return _admit(p.a, p.a1, p.a2, p.L, p.name, p.r0, p.a_r0)[2]


def make_custom(a, a1, a2, L: float, name: str = "custom",
                r0: float | None = None) -> SurfaceProfile:
    """Build a profile from explicit callables for a, a', a''.

    r0 is located as the root of a' unless supplied.  The profile is
    validated in the same pass: a RejectedProfileError names the first
    violated invariant and carries the report.
    """
    if not (np.isfinite(L) and L > 0.0):
        raise InvalidParameterError(f"profile length must be positive, got {L}")
    r0, a_r0, report = _admit(a, a1, a2, float(L), name, r0)
    bad = next((c for c in report.checks if not c.passed), None)
    if bad is not None:
        raise RejectedProfileError(f"{bad.name}: {bad.detail} (residual {bad.residual:.3e})",
                                   report)
    return SurfaceProfile(a, a1, a2, float(L), r0, a_r0, name, report=report)


def make_round_sphere() -> SurfaceProfile:
    """Unit round sphere: a(r) = sin r on [0, pi], admitted by make_custom."""
    return replace(make_custom(np.sin, np.cos, lambda r: -np.sin(np.asarray(r, float)), np.pi,
                               "round_sphere", r0=np.pi / 2), mirror=True)


def _lobatto_coefficients(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients through values at cos(pi j / N), j = 0..N, by a DCT-I."""
    coeffs = np.fft.rfft(np.concatenate([values, values[-2:0:-1]])).real / (len(values) - 1)
    coeffs[[0, -1]] *= 0.5
    return coeffs


def _chop(coeffs: np.ndarray, tol: float) -> tuple[int, bool]:
    """(number of leading coefficients to keep, whether a plateau showed) by the rule of
    Aurentz & Trefethen, "Chopping a Chebyshev series" (ACM TOMS 43(4), 2017), at relative
    tolerance tol; without a plateau every coefficient is kept.  Not for the zero series,
    which `_ChebFit`'s floor takes first."""
    n = len(coeffs)
    env = np.maximum.accumulate(np.abs(coeffs)[::-1])[::-1]
    env = env / env[0]
    # first j (1-based) whose envelope is followed by a plateau
    for j in range(2, n + 1):
        j2 = round(1.25 * j + 5)
        if j2 > n:
            return n, False
        e1, e2 = env[j - 1], env[j2 - 1]
        if e1 == 0.0 or e2 / e1 > 3.0 * (1.0 - np.log(e1) / np.log(tol)):
            break
    # cut where the envelope, tilted to favour short series, is lowest
    j3 = int(np.count_nonzero(env >= tol ** (7.0 / 6.0)))
    if j3 < j2:
        j2 = j3 + 1
        env[j2 - 1] = tol ** (7.0 / 6.0)
    tilted = np.log10(env[:j2]) + np.linspace(0.0, -np.log10(tol) / 3.0, j2)
    return max(int(np.argmin(tilted)), 1), True


class _ChebFit:
    """Chebyshev fit through sample(js), the values at x_j = cos(pi j / 512) for an array of
    j, on nested Lobatto points N = 16, 32, ..., 512 (all samples reused, a level's new ones
    in one call), up to the first N with a coefficient plateau at relative tol or with none
    above `floor` (the zero series); x = 1 and -1 take `ends`, x < 0 is not sampled if even.
    `series` is the fit as a numpy Chebyshev on `domain`, mapped onto x in [-1, 1], and
    `coeffs` its coefficients.  `tail` is the largest coefficient cut or, with no plateau
    (`converged` False, the fit kept whole and a PlateauWarning naming it), the largest in
    its upper half.  A non-finite sample raises ConvergenceError."""

    def __init__(self, name: str, sample, ends: tuple, tol: float, even: bool = False,
                 domain: tuple = (-1.0, 1.0), floor: float = 0.0):
        g = np.full(513, np.nan)
        g[[0, 512]] = ends
        for n in (16, 32, 64, 128, 256, 512):
            idx = np.arange(0, 513, 512 // n)
            new = idx[np.isnan(g[idx]) & ~(even & (idx > 256))]
            with np.errstate(all="ignore"):  # a non-finite sample raises below
                g[new] = sample(new)
            bad = new[~np.isfinite(g[new])]
            if bad.size:
                raise ConvergenceError(f"non-finite sample {g[bad[0]]} at node {bad[0]} of 512")
            if even:
                g[257:512] = g[255:0:-1]
            coeffs = _lobatto_coefficients(g[idx])
            keep, self.converged = (1, True) if abs(coeffs).max() <= floor else _chop(coeffs, tol)
            if self.converged:
                break
        self.series, self.degree = Chebyshev(coeffs[:keep], domain), keep - 1
        self.coeffs = self.series.coef
        self.tail = float(np.max(np.abs(coeffs[keep if self.converged else len(coeffs) // 2:])))
        if not self.converged:
            warnings.warn(f"no plateau in the {name} series, tail {self.tail:.3e}", PlateauWarning)


class _EllipsoidMeridian(_ChebFit):
    """Arclength reparametrization of the meridian of x^2 + y^2 + z^2/q^2 = 1.

    With the ellipse parameter t in [0, pi] the distance from the axis is
    sin t and the speed is s(t) = sqrt(cos^2 t + q^2 sin^2 t).  t(r), the
    inverse of r(t) = integral of s, is a `_ChebFit` on [0, L] with
    ends t(L) = pi, t(0) = 0, stopped at the plateau of rounding noise: at
    aspect 1.3 it takes 63 root solves (one lockstep call per level) and
    keeps 42 terms, at 0.5 and 5 255 solves and about 160 terms.  Outside
    about [0.3, 14] no plateau appears: all 513 terms are kept, `converged`
    is False and the fit warns.  a, a', a'' follow from closed forms in t.
    """

    def __init__(self, aspect: float):
        self.q = float(aspect)
        self._gl, self._last = gauss_legendre_rule(96), (None, None)
        self.L = float(self._arclength(np.pi))
        self.r_equator = float(self._arclength(np.pi / 2))
        super().__init__("meridian", self._t_at_nodes, (np.pi, 0.0), np.finfo(float).eps,
                         domain=(0.0, self.L))

    def speed(self, t):
        ct, st = np.cos(t), np.sin(t)
        return np.sqrt(ct * ct + self.q * self.q * st * st)

    def _arclength(self, t):
        """r(t), elementwise: an (n x 96) Gauss-Legendre product reduced row by row."""
        x, w = self._gl
        half = 0.5 * np.asarray(t, float)
        speeds = self.speed(half.reshape(-1, 1) * (x + 1.0))
        return half * np.array([np.dot(w, row) for row in speeds]).reshape(half.shape)

    def _t_at_nodes(self, js: np.ndarray) -> np.ndarray:
        # r(t) has slope in [min(1, q), max(1, q)]; widened to stay a bracket at q = 1
        r = 0.5 * self.L * (1.0 + np.cos(np.pi * js / 512))
        lo = r / max(1.0, self.q) * (1.0 - 1e-8)
        hi = np.minimum(r / min(1.0, self.q) * (1.0 + 1e-8), np.pi)
        return find_root(lambda s, i: (self._arclength(s) - r[i], self.speed(s)), lo, hi)

    def t_of_r(self, r):
        r = np.asarray(r, float)
        # root solves ask for a, then a', at the same points, so the last t is kept (read
        # once); below 8 points a loop over floats is faster than the series on an array
        key, last = (r.shape, r.tobytes()), self._last
        if last[0] != key:
            t = (self.series(r) if r.size >= 8 else
                 np.reshape([self.series(v) for v in r.ravel()], r.shape))
            last = self._last = key, np.asarray(np.clip(t, 0.0, np.pi))
            last[1].setflags(write=False)
        return last[1][()]

    def a(self, r):
        return np.sin(self.t_of_r(r))

    def a1(self, r):
        t = self.t_of_r(r)
        return np.cos(t) / self.speed(t)

    def a2(self, r):
        t = self.t_of_r(r)
        return -self.q * self.q * np.sin(t) / self.speed(t) ** 4


def make_ellipsoid(aspect: float) -> SurfaceProfile:
    """Ellipsoid of revolution with unit equatorial radius and polar
    semi-axis `aspect`, parametrized by meridian arclength."""
    if not (np.isfinite(aspect) and aspect > 0.0):
        raise InvalidParameterError(f"aspect must be positive, got {aspect}")
    m = _EllipsoidMeridian(aspect)
    return replace(make_custom(m.a, m.a1, m.a2, m.L, name=f"ellipsoid_{aspect:g}",
                               r0=m.r_equator), mirror=True)


def read_table(path: str, what: str, min_rows: int):
    """Cubic spline through a two-column text table of x and y.

    `#` starts a comment and blank lines are skipped; x must strictly
    increase and every value be finite.  An unreadable file or a malformed
    table raises ConfigError naming `what` and, where there is one, the
    offending row.
    """
    from scipy.interpolate import CubicSpline

    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from None
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            x, y = map(float, text.split())
            if not np.isfinite((x, y)).all():
                raise ValueError
        except ValueError:
            raise ConfigError(f"{what} row {lineno}: expected two finite numbers, got {text!r}"
                              ) from None
        rows.append((x, y, lineno))
    if len(rows) < min_rows:
        raise ConfigError(f"{what} needs at least {min_rows} rows, got {len(rows)}")
    for (x0, _, _), (x1, _, lineno) in zip(rows, rows[1:]):
        if x1 <= x0:
            raise ConfigError(f"{what} row {lineno}: x = {x1!r} does not increase past {x0!r}")
    return CubicSpline([row[0] for row in rows], [row[1] for row in rows])


def load_profile_table(path: str) -> SurfaceProfile:
    """Profile from a two-column text table of r and a(r).

    Rows must have strictly increasing r starting at 0; a cubic spline
    supplies the derivatives.  Structural problems raise ConfigError
    naming the offending row; make_custom validates the profile.
    """
    spline = read_table(path, "profile table", 8)
    r = spline.x
    if abs(r[0]) > 1e-12 * max(r[-1], 1.0):
        raise ConfigError(f"profile table: first r must be 0, got {float(r[0])!r}")
    return make_custom(spline, spline.derivative(1), spline.derivative(2), float(r[-1]),
                       name="custom_table")
