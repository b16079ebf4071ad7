"""Action variables and Liouville averages of the geodesic flow.

For a profile a(r) the geodesic flow separates: p_theta = c is conserved
and the radial motion at speed E = |xi|_g oscillates between turning
points where a(r) = |c|/E.  The second action is

    I2(c, E) = (1/pi) * integral sqrt(E^2 - c^2/a(r)^2) dr + |c|

over the oscillation interval; it is homogeneous of degree 1, strictly
increasing in E, and on the round sphere equals E identically.  The
energy function K(c, I2) inverts it, and frequencies are the partial
derivatives of K.  By homogeneity K(c, I2) = I2 K1(|c| / I2); each
evaluator fits K1(s) = K(s, 1) on [0, 1] once, which frequencies, limit
densities, torus averages and EBK residuals read in place of point-wise
inversions (energy_K stays point-wise, as the oracle).  K1 and the limit
series of the density and torus averages are surface._ChebFit fits.

The radicand E^2 - c^2/a(r)^2 vanishes linearly at the turning points.
Near them it is evaluated from a two-term Taylor model of a anchored at
the solved turning point, which avoids the catastrophic cancellation a
direct subtraction would suffer once a(r) rounds to |c|/E.

The energy inversion runs to float resolution, with no tolerance to set.
Turning points, series and symbol checks are memoized in the evaluator
that computed them, so they are freed along with it.
"""
from __future__ import annotations

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
)
from .quadrature import map_to_interval, tanh_sinh_rule
from .surface import SurfaceProfile, _ChebFit, find_root

# tanh-sinh nodes of every radial pass: 512 or 1024 move K1 by at most 3.1e-15
# relative, while 128 loses digits (3.6e-11 at aspect 0.5)
_QUAD_NODES = 256
_EPS4 = 4.0 * np.finfo(float).eps
# relative momentum step of the finite-difference diagnostic di2_drho_fd
_FD_STEP = 1e-6
# relative coefficient plateaus that end a limit-series and the K1 build
_SERIES_TOL = 1e-10
_K1_TOL = 1e-14

_THETA_SAMPLES = 128


@dataclass(frozen=True, eq=False)
class ActionEvaluator:
    """A meridian profile and every value memoized for it (turning points,
    series, symbol checks), kept in `_cache` and read and filled through
    `_cached`."""

    profile: SurfaceProfile
    _cache: dict = field(default_factory=dict, repr=False)


def _cached(ev: ActionEvaluator, key, build: Callable):
    """ev._cache[key], computed by build() on the first request."""
    hit = ev._cache.get(key)
    if hit is None:
        hit = ev._cache[key] = build()
    return hit


# ---------------------------------------------------------------------------
# symbols

_SYMBOL_KINDS = ("radial_mult", "angular_ratio", "phase_space")


@dataclass(frozen=True, eq=False)
class SymbolFn:
    """Classical observable in one of three shapes; `fn` is its one callable.

    radial_mult:   multiplication by b(r); fn(r) = b(r)
    angular_ratio: function chi of the ratio p_theta / |xi|; fn(s) = chi(s)
    phase_space:   degree-0 homogeneous sigma; fn(r, theta, rho, eta) = sigma(r, theta, rho, eta)
    """

    kind: str
    fn: Callable
    name: str = ""

    def __post_init__(self):
        if self.kind not in _SYMBOL_KINDS:
            raise InvalidParameterError(f"unknown symbol kind {self.kind!r}")


def radial_symbol(b: Callable, name: str = "") -> SymbolFn:
    return SymbolFn("radial_mult", b, name)


def angular_symbol(chi: Callable, name: str = "") -> SymbolFn:
    return SymbolFn("angular_ratio", chi, name)


def phase_space_symbol(sigma: Callable, name: str = "") -> SymbolFn:
    return SymbolFn("phase_space", sigma, name)


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
        for d, (a1_, a2_), sign in ((d1, self.s1, 1.0), (d2, self.s2, -1.0)):
            near = d < self.w_switch
            if np.any(near):
                s = d[near] * (sign * a1_ + 0.5 * a2_ * d[near])
                F[near] = s * (2.0 * ca + s) * (E / (ca + s)) ** 2
        return F


def _integrate_radial(ev: ActionEvaluator, c: float, E: float, g) -> tuple:
    """(1/pi) * integral of each integrand in the tuple g(r, F(r)) over the
    oscillation interval, all from one radial pass."""
    x, w, sigma = tanh_sinh_rule(_QUAD_NODES)
    if c == 0.0:
        r, _, _, half = map_to_interval(0.0, ev.profile.L, x, sigma)
        F = np.full_like(r, E * E)
    else:
        r1, r2 = turning_points(ev, c, E)
        r, d1, d2, half = map_to_interval(r1, r2, x, sigma)
        F = _Radicand(ev.profile, c, E, r1, r2)(r, d1, d2)
    return tuple(half * float(np.dot(w, v)) / np.pi for v in g(r, F))


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
    return _action_and_slope(ev, c, E)[0]


def _inv_sqrt_weight(F):
    out = np.zeros_like(F)
    good = F > 0.0
    out[good] = 1.0 / np.sqrt(F[good])
    return out


def dI2_dE(ev: ActionEvaluator, c: float, E: float) -> float:
    """Partial derivative of the action integral in E; always positive."""
    return _action_and_slope(ev, c, E)[1]


def _action_and_slope(ev: ActionEvaluator, c: float, E: float) -> tuple[float, float]:
    """(action_I2, dI2_dE) at (c, E) from one radial pass, inside the moment image."""

    def g(r, F):
        return np.sqrt(np.maximum(F, 0.0)), E * _inv_sqrt_weight(F)

    action, slope = _integrate_radial(ev, c, E, g)
    return action + abs(c), slope


def dI2_dc(ev: ActionEvaluator, c: float, E: float) -> float:
    """Partial derivative in c, including the (d/dc)|c| = sign(c) term."""
    if c == 0.0:
        return 0.0

    def g(r, F):
        a = np.asarray(ev.profile.a(r), float)
        return ((-c / (a * a)) * _inv_sqrt_weight(F),)

    return _integrate_radial(ev, c, E, g)[0] + float(np.sign(c))


def energy_K(ev: ActionEvaluator, c: float, I2: float) -> float:
    """Invert I2(c, .) in E by bracketed Newton iteration.

    The bracket starts open upward, from the larger of pi I2 / L and a
    point just above |c|/a(r0); the first iterate whose action exceeds I2
    closes it.  A Newton step that
    leaves the bracket doubles E while it is open and bisects once it is
    closed; monotonicity of the action in E makes this safe.  Each iterate
    is one radial pass for the action and its slope.  The iteration runs
    to float resolution: it stops once the action residual is within
    4 eps * I2 or a step moves E by at most 4 eps * E, and raises
    ConvergenceError if neither happens within 100 steps.
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

    lo, hi = abs(c) / p.a_r0 * (1.0 + 1e-14), np.inf
    E = max(lo * 1.0000001, np.pi * I2 / p.L)
    for _ in range(100):
        action, slope = _action_and_slope(ev, c, E)
        f = action - I2
        if abs(f) <= _EPS4 * I2:
            return E
        if f > 0.0:
            hi = E
        else:
            lo = E
        E_new = E - f / max(slope, 1e-300)
        if not (lo < E_new < hi):
            E_new = 0.5 * (lo + hi) if hi < np.inf else 2.0 * E
        if abs(E_new - E) <= _EPS4 * E:
            return E_new
        E = E_new
    raise ConvergenceError(
        f"energy_K({c}, {I2}) not converged: residual {f:.3e} > {_EPS4 * I2:.3e}")


# ---------------------------------------------------------------------------
# the unit-torus energy K1

class _EnergySeries(_ChebFit):
    """K1(s) = energy_K(s, 1) in x = 2 s - 1, ends K1(0) = pi / L, K1(1) = 1 / a(r0)."""

    def __init__(self, ev: ActionEvaluator):
        p = ev.profile
        super().__init__(lambda j: energy_K(ev, float(np.cos(np.pi * j / 1024) ** 2), 1.0),
                         (1.0 / p.a_r0, np.pi / p.L), _K1_TOL)
        self.slope = 2.0 * _cheb.chebder(self.coeffs)


def k1_series(ev: ActionEvaluator) -> _EnergySeries:
    """K1 cached in ev, with its degree, tail and convergence."""
    return _cached(ev, "k1_series", lambda: _EnergySeries(ev))


def _unit_torus(ev: ActionEvaluator, s: float) -> tuple[float, float, float]:
    """(K1, K1', omega2 = K1 - s K1') at s = |c| < 1: from the K1 series, or from
    the point-wise inversion if the series reached no plateau."""
    series = k1_series(ev)
    if series.converged:
        x = 2.0 * s - 1.0
        K, slope = float(_cheb.chebval(x, series.coeffs)), float(_cheb.chebval(x, series.slope))
        return K, slope, K - s * slope
    E = energy_K(ev, s, 1.0)
    dE = dI2_dE(ev, s, E)
    return E, -dI2_dc(ev, s, E) / dE, 1.0 / dE


def frequencies(ev: ActionEvaluator, c: float) -> tuple[float, float]:
    """(omega1, omega2) on the unit-action torus I2 = 1.

    At the boundary |c| = 1 the oscillation degenerates; there both
    derivatives of K are pinned to the equatorial value a(r0)^(-2), with
    omega1 carrying the sign of c.
    """
    if abs(c) > 1.0:
        raise OutsideMomentImageError(f"|c| = {abs(c):.6g} exceeds I2 = 1")
    if abs(c) == 1.0:
        a0 = ev.profile.a_r0
        return float(np.sign(c)) / (a0 * a0), 1.0 / (a0 * a0)
    _, slope, omega2 = _unit_torus(ev, abs(c))
    return float(np.sign(c)) * slope, omega2


def limit_density_unnorm(ev: ActionEvaluator, c: float) -> float:
    """Unnormalized limit density omega2 / sqrt(1 - c^2 / (K^2 a(r0)^2)).

    Defined on the open interval only; the inverse-square-root blow-up
    at the ends is genuine.
    """
    if abs(c) >= 1.0:
        raise OutsideOpenIntervalError(f"density needs |c| < 1, got {c}")
    E, _, omega2 = _unit_torus(ev, abs(c))
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

    The invariant radial measure is proportional to dr / rho(r).  One
    radial pass integrates the symbol against it together with the
    measure itself, and the average is their ratio, so the constant
    symbol averages to exactly 1.  A phase-space symbol is averaged over
    the angle and both signs of rho inside that pass.
    """
    if abs(c) >= 1.0:
        raise DegenerateTorusError(f"torus average needs |c| < 1, got c = {c}")
    E = _unit_torus(ev, abs(c))[0]

    if sym.kind == "angular_ratio":
        return float(sym.fn(c / E))

    if sym.kind == "radial_mult":
        def symbol(r, rho):
            return np.asarray(sym.fn(r), float)
    else:
        _cached(ev, ("homogeneous", sym), lambda: _check_homogeneous(sym, ev.profile.L, c, E))
        theta = 2.0 * np.pi * np.arange(_THETA_SAMPLES)[None, :] / _THETA_SAMPLES

        def symbol(r, rho):
            up, down = (np.asarray(sym.fn(r[:, None], theta, sign * rho[:, None], c),
                                   float) for sign in (1.0, -1.0))
            return 0.5 * (np.mean(up, axis=1) + np.mean(down, axis=1))

    def g(r, F):
        weight = _inv_sqrt_weight(F)
        return symbol(r, np.sqrt(np.maximum(F, 0.0))) * weight, weight

    total, mass = _integrate_radial(ev, c, E, g)
    return total / mass


def _check_homogeneous(sym: SymbolFn, L: float, c: float, E: float) -> bool:
    r = np.linspace(0.35 * L, 0.65 * L, 7)
    theta = np.linspace(0.0, 2.0 * np.pi, 5)[:-1]
    rho = 0.7 * E
    base = np.asarray(sym.fn(r[:, None], theta[None, :], rho, c), float)
    scale = max(1.0, float(np.max(np.abs(base))))
    for t in (2.0, 5.0):
        scaled = np.asarray(sym.fn(r[:, None], theta[None, :], t * rho, t * c), float)
        if float(np.max(np.abs(scaled - base))) > 1e-10 * scale:
            raise InvalidParameterError(
                "phase_space symbol is not homogeneous of degree 0 in (rho, eta)")
    return True


# ---------------------------------------------------------------------------
# densities integrated in the arcsine variable

class _SinSeries(_ChebFit):
    """Fit of g(u) = f(c) sqrt((1 - c)(1 + c)), c = sin(pi u / 2), with g(+-1) = end;
    its antiderivative makes the CDF of f in c closed-form.  The
    weight takes the rounded c, to cancel the blow-up of f at that point."""

    def __init__(self, f, end: float, even: bool):
        def sample(j):
            # u_j = cos(pi j / 512) as a sine: exact at u = 0 and odd in u
            c = float(np.sin(0.5 * np.pi * np.sin(np.pi * (256 - j) / 512)))
            return f(c) * np.sqrt((1.0 - c) * (1.0 + c))

        super().__init__(sample, (end, end), _SERIES_TOL, even)
        self._anti = _cheb.chebint(self.coeffs)
        self._lo = float(_cheb.chebval(-1.0, self._anti))
        self.total = (np.pi / 2.0) * (float(_cheb.chebval(1.0, self._anti)) - self._lo)

    def cdf(self, c: float | np.ndarray) -> float | np.ndarray:
        """Integral of f from -1 to c over its total, elementwise over c in [-1, 1]."""
        outside = np.abs(c) > 1.0
        if np.any(outside):
            raise OutsideOpenIntervalError(
                f"cdf argument must lie in [-1, 1], got {np.asarray(c)[outside][0]}")
        u = np.arcsin(c) / (np.pi / 2.0)
        return (np.pi / 2.0) * (_cheb.chebval(u, self._anti) - self._lo) / self.total


def _mu_end(p: SurfaceProfile) -> float:
    # density * sqrt(1 - c^2) as |c| -> 1, from the harmonic oscillation about r0
    if not float(p.a2(p.r0)) < 0.0:
        raise DegenerateTorusError(f"a''(r0) = {float(p.a2(p.r0)):.6g} >= 0: degenerate equator")
    return (-float(p.a2(p.r0))) ** 0.25 / p.a_r0 ** 0.75


def mu_series(ev: ActionEvaluator) -> _SinSeries:
    """The limit density's series, cached in ev, with its degree, tail and convergence."""
    return _cached(ev, "mu_series", lambda: _SinSeries(
        lambda c: limit_density_unnorm(ev, c), _mu_end(ev.profile), even=True))


def nu_series(ev: ActionEvaluator, sym: SymbolFn) -> _SinSeries:
    """The torus averages' series, cached in ev by the SymbolFn's identity; bounded, so
    g(+-1) = 0.  A radial average depends on c only through |c|: c >= 0 is sampled."""
    return _cached(ev, ("nu_series", sym), lambda: _SinSeries(
        lambda c: torus_average(ev, sym, c), 0.0, even=sym.kind == "radial_mult"))


def normalization_M(ev: ActionEvaluator) -> float:
    """Total mass of the unnormalized limit density over (-1, 1).

    Integrated after the substitution c = sin t, which absorbs the
    endpoint blow-up; pi exactly on the round sphere.
    """
    return mu_series(ev).total


def liouville_state(ev: ActionEvaluator, sym: SymbolFn) -> float:
    """Integral over c in (-1, 1) of the torus averages of sym.

    This is the total Liouville weight the convention assigns to the
    observable; for sym = 1 it equals 2.
    """
    return nu_series(ev, sym).total

