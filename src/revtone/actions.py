"""Action variables and Liouville averages of the geodesic flow.

For a profile a(r) the geodesic flow separates: p_theta = c is conserved
and the radial motion at speed E = |xi|_g oscillates between turning
points where a(r) = |c|/E.  The second action is

    I2(c, E) = (1/pi) * integral sqrt(E^2 - c^2/a(r)^2) dr + |c|

over the oscillation interval; it is homogeneous of degree 1, strictly
increasing in E, and on the round sphere equals E identically.  The
energy function K(c, I2) inverts it, and frequencies are the partial
derivatives of K.  Everything downstream (limit densities, torus
averages of symbols) reduces to these quadratures.

The radicand E^2 - c^2/a(r)^2 vanishes linearly at the turning points.
Near them it is evaluated from a two-term Taylor model of a anchored at
the solved turning point, which avoids the catastrophic cancellation a
direct subtraction would suffer once a(r) rounds to |c|/E.

The energy inversion runs to float resolution, with no tolerance to set.
Turning points, limit series and symbol checks are memoized in the
evaluator that computed them, so they are freed along with it.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import (
    ConvergenceError,
    DegenerateTorusError,
    InvalidParameterError,
    OutsideMomentImageError,
    OutsideOpenIntervalError,
    SignedMeasureError,
)
from .quadrature import map_to_interval, tanh_sinh_rule
from .surface import SurfaceProfile, find_root

MIN_QUAD_NODES = 64
_EPS4 = 4.0 * np.finfo(float).eps
# relative momentum step of the finite-difference diagnostic di2_drho_fd
_FD_STEP = 1e-6
# sup-norm change between successive fits that ends a series build
_SERIES_TOL = 1e-10

_THETA_SAMPLES = 128


@dataclass(frozen=True, eq=False)
class ActionEvaluator:
    """Profile plus the node count of the action quadratures.

    Attributes
    ----------
    profile : the meridian profile
    quad_nodes : tanh-sinh node count, at least 64

    Every value memoized for this profile (turning points, limit series,
    symbol checks) lives in `_cache`, read and filled through `_cached`.
    """

    profile: SurfaceProfile
    quad_nodes: int = 256
    _cache: dict = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __post_init__(self):
        if int(self.quad_nodes) != self.quad_nodes or self.quad_nodes < MIN_QUAD_NODES:
            raise InvalidParameterError(
                f"quad_nodes must be an integer >= {MIN_QUAD_NODES}, got {self.quad_nodes}")


def _cached(ev: ActionEvaluator, key, build: Callable):
    """ev._cache[key], computed by build() on the first request.

    The lock guards only the dict, so concurrent first requests may both
    build; the first stored value wins and every caller gets it.
    """
    with ev._lock:
        hit = ev._cache.get(key)
    if hit is None:
        value = build()
        with ev._lock:
            hit = ev._cache.setdefault(key, value)
    return hit


# ---------------------------------------------------------------------------
# symbols

_SYMBOL_KINDS = ("radial_mult", "angular_ratio", "phase_space")


@dataclass(frozen=True, eq=False)
class SymbolFn:
    """Classical observable in one of three shapes.

    radial_mult:   multiplication by b(r)
    angular_ratio: function chi of the ratio p_theta / |xi|
    phase_space:   degree-0 homogeneous sigma(r, theta, rho, eta)
    """

    kind: str
    radial_part: Callable | None = None
    ratio_part: Callable | None = None
    full_part: Callable | None = None
    name: str = ""

    def __post_init__(self):
        if self.kind not in _SYMBOL_KINDS:
            raise InvalidParameterError(f"unknown symbol kind {self.kind!r}")
        needed = {"radial_mult": self.radial_part, "angular_ratio": self.ratio_part,
                  "phase_space": self.full_part}[self.kind]
        if needed is None:
            raise InvalidParameterError(f"symbol kind {self.kind!r} is missing its callable")


def radial_symbol(b: Callable, name: str = "") -> SymbolFn:
    return SymbolFn(kind="radial_mult", radial_part=b, name=name)


def angular_symbol(chi: Callable, name: str = "") -> SymbolFn:
    return SymbolFn(kind="angular_ratio", ratio_part=chi, name=name)


def phase_space_symbol(sigma: Callable, name: str = "") -> SymbolFn:
    return SymbolFn(kind="phase_space", full_part=sigma, name=name)


# ---------------------------------------------------------------------------
# turning points and the stable radicand

def _solve_turning_points(p: SurfaceProfile, ca: float) -> tuple[float, float]:
    def f(r):
        # a vanishes at the poles by contract; rounding there must not hide a root
        return float(p.a(r)) - ca if 0.0 < r < p.L else -ca

    def df(r):
        return float(p.a1(r))

    return find_root(f, df, 0.0, p.r0), find_root(f, df, p.r0, p.L)


def turning_points(ev: ActionEvaluator, c: float, E: float) -> tuple[float, float]:
    """Solve a(r) = |c|/E on both sides of the equator.

    c = 0 returns the full interval (0, L) by convention; tori with
    |c| >= E * a(r0) have no radial oscillation and are rejected.
    """
    if E <= 0.0 or not np.isfinite(E):
        raise InvalidParameterError(f"energy must be positive, got {E}")
    if c == 0.0:
        return 0.0, ev.profile.L
    ca = abs(c) / E
    if ca >= ev.profile.a_r0:
        raise DegenerateTorusError(
            f"|c|/E = {ca:.6g} >= a(r0) = {ev.profile.a_r0:.6g}: no oscillation interval")
    return _cached(ev, ("turning_points", ca), lambda: _solve_turning_points(ev.profile, ca))


class _Radicand:
    """F(r) = E^2 - c^2/a(r)^2, evaluated stably over [r1, r2].

    Within a switch width of either turning point, a(r) is replaced by
    the Taylor model |c|/E + a'(ri) d + a''(ri) d^2 / 2 anchored at the
    solved root, turning the difference a - |c|/E into a product with no
    cancellation.
    """

    def __init__(self, p: SurfaceProfile, c: float, E: float, r1: float, r2: float):
        self.p = p
        self.E = E
        self.ca = abs(c) / E
        self.r1, self.r2 = r1, r2
        self.s1 = float(p.a1(r1)), float(p.a2(r1))
        self.s2 = float(p.a1(r2)), float(p.a2(r2))
        self.w_switch = min(1e-5 * p.L, 0.49 * (r2 - r1))

    def __call__(self, r, d1, d2):
        E, ca = self.E, self.ca
        a = np.asarray(self.p.a(r), float)
        with np.errstate(invalid="ignore", divide="ignore"):
            F = (a - ca) * (a + ca) * (E / a) ** 2
        near1 = d1 < self.w_switch
        near2 = d2 < self.w_switch
        if np.any(near1):
            a1_, a2_ = self.s1
            s = d1[near1] * (a1_ + 0.5 * a2_ * d1[near1])
            F[near1] = s * (2.0 * ca + s) * (E / (ca + s)) ** 2
        if np.any(near2):
            a1_, a2_ = self.s2
            s = d2[near2] * (-a1_ + 0.5 * a2_ * d2[near2])
            F[near2] = s * (2.0 * ca + s) * (E / (ca + s)) ** 2
        return F


def _integrate_radial(ev: ActionEvaluator, c: float, E: float, g) -> float:
    """(1/pi) * integral of g(r, F(r)) over the oscillation interval."""
    x, w, sigma = tanh_sinh_rule(ev.quad_nodes)
    if c == 0.0:
        r, _, _, half = map_to_interval(0.0, ev.profile.L, x, sigma)
        F = np.full_like(r, E * E)
        return half * float(np.dot(w, g(r, F))) / np.pi
    r1, r2 = turning_points(ev, c, E)
    r, d1, d2, half = map_to_interval(r1, r2, x, sigma)
    F = _Radicand(ev.profile, c, E, r1, r2)(r, d1, d2)
    return half * float(np.dot(w, g(r, F))) / np.pi


def action_I2(ev: ActionEvaluator, c: float, E: float) -> float:
    """Second action at angular momentum c and energy E."""
    if E <= 0.0 or not np.isfinite(E):
        raise InvalidParameterError(f"energy must be positive, got {E}")
    ca = abs(c) / E
    if ca > ev.profile.a_r0:
        raise OutsideMomentImageError(
            f"|c| = {abs(c):.6g} exceeds E*a(r0) = {E * ev.profile.a_r0:.6g}")
    if ca == ev.profile.a_r0:
        return abs(c)

    def g(r, F):
        return np.sqrt(np.maximum(F, 0.0))

    return _integrate_radial(ev, c, E, g) + abs(c)


def _inv_sqrt_weight(F):
    out = np.zeros_like(F)
    good = F > 0.0
    out[good] = 1.0 / np.sqrt(F[good])
    return out


def dI2_dE(ev: ActionEvaluator, c: float, E: float) -> float:
    """Partial derivative of the action integral in E; always positive."""

    def g(r, F):
        return E * _inv_sqrt_weight(F)

    return _integrate_radial(ev, c, E, g)


def dI2_dc(ev: ActionEvaluator, c: float, E: float) -> float:
    """Partial derivative in c, including the (d/dc)|c| = sign(c) term."""
    if c == 0.0:
        return 0.0

    def g(r, F):
        a = np.asarray(ev.profile.a(r), float)
        return (-c / (a * a)) * _inv_sqrt_weight(F)

    return _integrate_radial(ev, c, E, g) + float(np.sign(c))


def energy_K(ev: ActionEvaluator, c: float, I2: float) -> float:
    """Invert I2(c, .) in E by bracketed Newton iteration.

    Monotonicity of the action in E makes the bracketing safe.  The
    iteration runs to float resolution: it stops once the action residual
    is within 4 eps * I2 or a step moves E by at most 4 eps * E, and
    raises ConvergenceError if neither happens within 100 steps.
    """
    if not np.isfinite(I2) or I2 <= 0.0:
        raise InvalidParameterError(f"action must be positive, got {I2}")
    if abs(c) > I2:
        raise OutsideMomentImageError(f"|c| = {abs(c):.6g} exceeds I2 = {I2:.6g}")
    p = ev.profile
    if c == 0.0:
        # the radicand is constant in r, so I2(0, E) = E L / pi exactly
        return np.pi * I2 / p.L
    if abs(c) == I2:
        return abs(c) / p.a_r0

    lo = abs(c) / p.a_r0 * (1.0 + 1e-14)
    hi = max(lo * 1.0000001, np.pi * I2 / p.L)
    for _ in range(200):
        if action_I2(ev, c, hi) > I2:
            break
        hi *= 2.0
    else:
        raise OutsideMomentImageError(f"failed to bracket energy for (c, I2) = ({c}, {I2})")

    E = min(max(np.pi * I2 / p.L, lo), hi)
    for _ in range(100):
        f = action_I2(ev, c, E) - I2
        if abs(f) <= _EPS4 * I2:
            return E
        if f > 0.0:
            hi = E
        else:
            lo = E
        step = f / max(dI2_dE(ev, c, E), 1e-300)
        E_new = E - step
        if not (lo < E_new < hi):
            E_new = 0.5 * (lo + hi)
        if abs(E_new - E) <= _EPS4 * E:
            return E_new
        E = E_new
    raise ConvergenceError(
        f"energy_K({c}, {I2}) not converged: residual {f:.3e} > {_EPS4 * I2:.3e}")


def frequencies(ev: ActionEvaluator, c: float) -> tuple[float, float]:
    """(omega1, omega2) on the unit-action torus I2 = 1.

    At the boundary |c| = 1 the oscillation degenerates; there both
    derivatives of K are pinned to the equatorial value a(r0)^(-2), with
    omega1 carrying the sign of c.
    """
    if abs(c) > 1.0:
        raise OutsideMomentImageError(f"|c| = {abs(c):.6g} exceeds I2 = 1")
    a0 = ev.profile.a_r0
    if abs(c) == 1.0:
        val = 1.0 / (a0 * a0)
        return float(np.sign(c)) * val, val
    E = energy_K(ev, c, 1.0)
    dE = dI2_dE(ev, c, E)
    dc = dI2_dc(ev, c, E)
    return -dc / dE, 1.0 / dE


def limit_density_unnorm(ev: ActionEvaluator, c: float) -> float:
    """Unnormalized limit density omega2 / sqrt(1 - c^2 / (K^2 a(r0)^2)).

    Defined on the open interval only; the inverse-square-root blow-up
    at the ends is genuine.
    """
    if abs(c) >= 1.0:
        raise OutsideOpenIntervalError(f"density needs |c| < 1, got {c}")
    E = energy_K(ev, c, 1.0)
    omega2 = 1.0 / dI2_dE(ev, c, E)
    u = abs(c) / (E * ev.profile.a_r0)
    if u >= 1.0:
        raise OutsideOpenIntervalError(f"c = {c} maps onto the equatorial circle")
    return omega2 / np.sqrt((1.0 - u) * (1.0 + u))


def equator_momentum(ev: ActionEvaluator, c: float) -> float:
    """Radial momentum rho over the equator on the torus I2 = 1."""
    E = energy_K(ev, c, 1.0)
    a0 = ev.profile.a_r0
    rad = (E - abs(c) / a0) * (E + abs(c) / a0)
    return float(np.sqrt(max(rad, 0.0)))


def di2_drho_fd(ev: ActionEvaluator, c: float) -> float:
    """Centered finite difference of I2 in rho through E(rho) at I2 = 1.

    rho parametrizes covectors over the equator via
    E(rho) = sqrt(rho^2 + c^2/a(r0)^2); the analytic value of the
    derivative is sqrt(1 - c^2/(E a(r0))^2) / omega2.
    """
    a0 = ev.profile.a_r0
    rho = equator_momentum(ev, c)
    if rho <= 0.0:
        raise DegenerateTorusError(f"no equator-transverse momentum at c = {c}")
    h = _FD_STEP * rho
    ca2 = (c / a0) ** 2
    E_plus = np.sqrt((rho + h) ** 2 + ca2)
    E_minus = np.sqrt((rho - h) ** 2 + ca2)
    return (action_I2(ev, c, E_plus) - action_I2(ev, c, E_minus)) / (2.0 * h)


# ---------------------------------------------------------------------------
# torus averages

def torus_average(ev: ActionEvaluator, sym: SymbolFn, c: float) -> float:
    """Average of a symbol over the Liouville torus with I2 = 1.

    The invariant radial measure is proportional to E/rho(r) dr; the
    prefactor omega2/pi normalizes it because (1/pi) * integral E/rho dr
    is exactly dI2/dE.
    """
    if abs(c) >= 1.0:
        raise DegenerateTorusError(f"torus average needs |c| < 1, got c = {c}")
    E = energy_K(ev, c, 1.0)

    if sym.kind == "angular_ratio":
        return float(sym.ratio_part(c / E))

    omega2 = 1.0 / dI2_dE(ev, c, E)
    if sym.kind == "radial_mult":
        b = sym.radial_part

        def g(r, F):
            return np.asarray(b(r), float) * E * _inv_sqrt_weight(F)

        return omega2 * _integrate_radial(ev, c, E, g)

    _cached(ev, ("homogeneous", sym), lambda: _check_homogeneous(sym, ev.profile.L, c, E))
    theta = 2.0 * np.pi * np.arange(_THETA_SAMPLES) / _THETA_SAMPLES
    sigma = sym.full_part
    total = 0.0
    for sign in (1.0, -1.0):
        def g(r, F, sign=sign):
            rho = np.sqrt(np.maximum(F, 0.0))
            vals = np.asarray(sigma(r[:, None], theta[None, :], sign * rho[:, None], c), float)
            return np.mean(vals, axis=1) * E * _inv_sqrt_weight(F)

        total += _integrate_radial(ev, c, E, g)
    return omega2 * 0.5 * total


def _check_homogeneous(sym: SymbolFn, L: float, c: float, E: float) -> bool:
    r = np.linspace(0.35 * L, 0.65 * L, 7)
    theta = np.linspace(0.0, 2.0 * np.pi, 5)[:-1]
    rho = 0.7 * E
    base = np.asarray(sym.full_part(r[:, None], theta[None, :], rho, c), float)
    scale = max(1.0, float(np.max(np.abs(base))))
    for t in (2.0, 5.0):
        scaled = np.asarray(sym.full_part(r[:, None], theta[None, :], t * rho, t * c), float)
        if float(np.max(np.abs(scaled - base))) > 1e-10 * scale:
            raise InvalidParameterError(
                "phase_space symbol is not homogeneous of degree 0 in (rho, eta)")
    return True


# ---------------------------------------------------------------------------
# densities integrated in the arcsine variable

class _SinSeries:
    """Chebyshev model of t -> f(sin t) * cos t on [-pi/2, pi/2].

    Stores the coefficients and the antiderivative, so cumulative
    integrals of f in the original variable c are closed-form.
    """

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = coeffs
        self._anti = _cheb.chebint(coeffs)
        self._lo = float(_cheb.chebval(-1.0, self._anti))
        self.total = (np.pi / 2.0) * (float(_cheb.chebval(1.0, self._anti)) - self._lo)

    def cumulative(self, c: float | np.ndarray) -> float | np.ndarray:
        u = np.arcsin(np.clip(c, -1.0, 1.0)) / (np.pi / 2.0)
        return (np.pi / 2.0) * (_cheb.chebval(u, self._anti) - self._lo)


def _build_sin_series(f) -> _SinSeries:
    """Adaptive Chebyshev fit of f(sin t) cos t, degrees 64..512."""

    def g(u):
        u = np.atleast_1d(np.asarray(u, float))
        t = 0.5 * np.pi * u
        return np.array([f(float(np.sin(ti))) * float(np.cos(ti)) for ti in t])

    probe = np.linspace(-0.999, 0.999, 501)
    prev_coeffs = None
    prev_vals = None
    for deg in (64, 128, 256, 512):
        coeffs = _cheb.chebinterpolate(g, deg)
        vals = _cheb.chebval(probe, coeffs)
        if prev_vals is not None:
            scale = max(1.0, float(np.max(np.abs(vals))))
            if float(np.max(np.abs(vals - prev_vals))) <= _SERIES_TOL * scale:
                return _SinSeries(coeffs)
        prev_coeffs, prev_vals = coeffs, vals
    return _SinSeries(prev_coeffs if prev_coeffs is not None else coeffs)


def _mu_series(ev: ActionEvaluator) -> _SinSeries:
    return _cached(ev, "mu_series",
                   lambda: _build_sin_series(lambda c: limit_density_unnorm(ev, c)))


def _nu_series(ev: ActionEvaluator, sym: SymbolFn) -> _SinSeries:
    # SymbolFn is eq=False: the key holds the symbol itself, compared by identity
    return _cached(ev, ("nu_series", sym),
                   lambda: _build_sin_series(lambda c: torus_average(ev, sym, c)))


def normalization_M(ev: ActionEvaluator) -> float:
    """Total mass of the unnormalized limit density over (-1, 1).

    Integrated after the substitution c = sin t, which absorbs the
    endpoint blow-up; pi exactly on the round sphere.
    """
    return _mu_series(ev).total


def limit_cdf(ev: ActionEvaluator, c: float | np.ndarray) -> float | np.ndarray:
    """CDF of the normalized limit density, elementwise over c in [-1, 1]."""
    outside = np.abs(c) > 1.0
    if np.any(outside):
        raise OutsideOpenIntervalError(
            f"cdf argument must lie in [-1, 1], got {np.asarray(c)[outside][0]}")
    series = _mu_series(ev)
    return np.clip(series.cumulative(c) / series.total, 0.0, 1.0)


def liouville_state(ev: ActionEvaluator, sym: SymbolFn) -> float:
    """Integral over c in (-1, 1) of the torus averages of sym.

    This is the total Liouville weight the convention assigns to the
    observable; for sym = 1 it equals 2.
    """
    return _nu_series(ev, sym).total


def nu_mass_and_cdf(ev: ActionEvaluator, sym: SymbolFn):
    """(omega, cdf) pair for the limit measure of a symbol.

    omega is the total torus-average mass; cdf is the normalized
    cumulative function, elementwise over arrays and not clipped to
    [0, 1].  A vanishing omega admits no normalization.
    """
    series = _nu_series(ev, sym)
    omega = series.total
    if abs(omega) < 1e-12:
        raise SignedMeasureError(
            f"total average {omega:.3e} vanishes; no normalized limit density exists")

    def cdf(c: float | np.ndarray) -> float | np.ndarray:
        return series.cumulative(c) / omega

    return omega, cdf
