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
densities, torus averages and EBK residuals read in place of inversions
(energy_K stays the oracle).  K1 and the limit series of the density and
torus averages are surface._ChebFit fits, sampled a level at a time and
read through their `series`, a numpy Chebyshev, its deriv and its integ:
passes, inversions and lookups are elementwise over arrays of c, a pass
is an (n x 257) node array with one lockstep turning-point solve, and
each row keeps the bits of a one-element pass.

The radicand E^2 - c^2/a(r)^2 vanishes linearly at the turning points.
Near them it is evaluated from a two-term Taylor model of a anchored at
the solved turning point, which avoids the catastrophic cancellation a
direct subtraction would suffer once a(r) rounds to |c|/E.

The energy inversion runs to float resolution, with no tolerance to set.
Series and symbol checks are memoized in the evaluator that computed
them, so they are freed along with it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
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
# relative momentum step of the finite-difference diagnostic di2_drho_fd
_FD_STEP = 1e-6
# relative coefficient plateaus that end a limit-series and the K1 build
_SERIES_TOL = 1e-10
_K1_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class ActionEvaluator:
    """A meridian profile and every value memoized for it (its series), kept in
    `_cache` and read and filled through `_cached`."""

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

# each kind's variable and its domain on a profile
SYMBOL_KINDS = {"radial_mult": ("r", lambda p: (0.0, p.L)),
                "angular_ratio": ("s", lambda p: (-p.a_r0, p.a_r0))}


@dataclass(frozen=True, eq=False)
class SymbolFn:
    """Classical observable in one of two shapes; `fn` is its one callable.

    radial_mult:   multiplication by b(r); fn(r) = b(r)
    angular_ratio: function chi of the ratio p_theta / |xi|; fn(s) = chi(s)
    """

    kind: str
    fn: Callable
    name: str = ""

    def __post_init__(self):
        if self.kind not in SYMBOL_KINDS:
            raise InvalidParameterError(f"unknown symbol kind {self.kind!r}")


def radial_symbol(b: Callable, name: str = "") -> SymbolFn:
    return SymbolFn("radial_mult", b, name)


def angular_symbol(chi: Callable, name: str = "") -> SymbolFn:
    return SymbolFn("angular_ratio", chi, name)


# ---------------------------------------------------------------------------
# turning points and the stable radicand

def turning_points(ev: ActionEvaluator, c, E):
    """(r1, r2) where a(r) = |c|/E on either side of the equator, elementwise over c and E
    from one lockstep root solve, floats for scalars.  c = 0 returns the full interval
    (0, L) by convention; tori with |c| >= E * a(r0) have no radial oscillation and are
    rejected."""
    p, (c, E) = ev.profile, np.broadcast_arrays(np.asarray(c, float), np.asarray(E, float))
    bad = ~((E > 0.0) & np.isfinite(E))
    if np.any(bad):
        raise InvalidParameterError(f"energy must be positive, got {E[bad][0]}")
    ca = (np.abs(c) / E).ravel()
    if np.any(ca >= p.a_r0):
        raise DegenerateTorusError(f"|c|/E = {np.max(ca):.6g} >= a(r0) = {p.a_r0:.6g}: "
                                   "no oscillation interval")
    n, ca2 = ca.size, np.tile(ca, 2)

    def fdf(r, i):
        # a vanishes at the poles by contract; rounding there must not hide a root
        return np.where((0.0 < r) & (r < p.L), p.a(r) - ca2[i], -ca2[i]), p.a1(r)

    r = find_root(fdf, np.repeat([0.0, p.r0], n), np.repeat([p.r0, p.L], n))
    return r[:n].reshape(c.shape)[()], r[n:].reshape(c.shape)[()]


def _radicand(p: SurfaceProfile, ca, E, r1, r2, r, d1, d2):
    """F(r) = E^2 - c^2/a(r)^2 on rows of nodes r over [r1, r2], evaluated stably;
    ca = |c|/E, E, r1 and r2 are columns, one entry per row.

    Within a switch width of either turning point, a(r) is replaced by
    the Taylor model |c|/E + a'(ri) d + a''(ri) d^2 / 2 anchored at the
    solved root, turning the difference a - |c|/E into a product with no
    cancellation.
    """
    a = np.asarray(p.a(r), float)
    with np.errstate(invalid="ignore", divide="ignore"):
        F = (a - ca) * (a + ca) * (E / a) ** 2
    w_switch = np.minimum(1e-5 * p.L, 0.49 * (r2 - r1))
    for d, ri, sign in ((d1, r1, 1.0), (d2, r2, -1.0)):
        near = d < w_switch
        if np.any(near):
            a1_, a2_, ca_, E_ = (np.broadcast_to(v, d.shape)[near]
                                 for v in (p.a1(ri), p.a2(ri), ca, E))
            s = d[near] * (sign * a1_ + 0.5 * a2_ * d[near])
            F[near] = s * (2.0 * ca_ + s) * (E_ / (ca_ + s)) ** 2
    return F


def _integrate_radial(ev: ActionEvaluator, c, E, g) -> tuple:
    """(1/pi) * integral of each integrand in the tuple g(r, F(r)) over the
    oscillation interval, elementwise over c and E, all from one radial pass: an
    (n x 257) node array, each row with its own turning points and radicand and
    reduced by its own dot product, so it has the bits of a one-element pass."""
    shape = np.broadcast(c, E).shape
    c, E = (np.broadcast_to(np.asarray(v, float), shape).reshape(-1, 1) for v in (c, E))
    p = ev.profile
    x, w, sigma = tanh_sinh_rule(_QUAD_NODES)
    r1, r2 = (v[:, None] for v in turning_points(ev, c[:, 0], E[:, 0]))
    r, d1, d2, half = map_to_interval(r1, r2, x, sigma)
    # c = 0: the radicand is E^2 over (0, L)
    F, t = np.broadcast_to(E * E, r.shape).copy(), c[:, 0] != 0.0
    F[t] = _radicand(p, np.abs(c[t]) / E[t], E[t], r1[t], r2[t], r[t], d1[t], d2[t])
    sums = (np.array([np.dot(w, row) for row in v]) for v in g(r, F))
    return tuple((half[:, 0] * s / np.pi).reshape(shape)[()] for s in sums)


def action_I2(ev: ActionEvaluator, c, E):
    """Second action at angular momentum c and energy E, elementwise, floats for scalars:
    |c| where |c|/E = a(r0), else one radial pass over the other elements."""
    c, E = np.broadcast_arrays(np.asarray(c, float), np.asarray(E, float))
    shape, c, E = c.shape, c.ravel(), E.ravel()
    bad = ~((E > 0.0) & np.isfinite(E))
    if np.any(bad):
        raise InvalidParameterError(f"energy must be positive, got {E[bad][0]}")
    ca, a0 = np.abs(c) / E, ev.profile.a_r0
    if np.any(ca > a0):
        i = np.flatnonzero(ca > a0)[0]
        raise OutsideMomentImageError(f"|c| = {abs(c[i]):.6g} exceeds E*a(r0) = {E[i] * a0:.6g}")
    out, inner = np.abs(c), ca != a0
    if inner.any():
        out[inner] = _action_and_slope(ev, c[inner], E[inner])[0]
    return out.reshape(shape)[()]


def _inv_sqrt_weight(F):
    out = np.zeros_like(F)
    good = F > 0.0
    out[good] = 1.0 / np.sqrt(F[good])
    return out


def dI2_dE(ev: ActionEvaluator, c, E):
    """Partial derivative of the action integral in E, elementwise; always positive."""
    return _action_and_slope(ev, c, E)[1]


def _action_and_slope(ev: ActionEvaluator, c, E):
    """(action_I2, dI2_dE) at (c, E) inside the moment image, elementwise, from one pass."""
    E_col = np.reshape(E, (-1, 1))

    def g(r, F):
        return np.sqrt(np.maximum(F, 0.0)), E_col * _inv_sqrt_weight(F)

    action, slope = _integrate_radial(ev, c, E, g)
    return action + np.abs(c), slope


def energy_K(ev: ActionEvaluator, c, I2: float):
    """Invert I2(c, .) in E by `surface.find_root`, elementwise over c, to float resolution:
    c = 0 and |c| = I2 are closed-form, and the action increases in E above |c|/a(r0), so
    each other bracket is open upward from there, starting at the larger of pi I2 / L and a
    point just above it.  The elements still iterating share one radial pass per step."""
    if not np.isfinite(I2) or I2 <= 0.0:
        raise InvalidParameterError(f"action must be positive, got {I2}")
    c = np.asarray(c, float)
    if np.any(np.abs(c) > I2):
        raise OutsideMomentImageError(f"|c| = {np.max(np.abs(c)):.6g} exceeds I2 = {I2:.6g}")
    p = ev.profile
    # c = 0: the radicand is constant in r, so I2(0, E) = E L / pi exactly
    out = np.where(c == 0.0, np.pi * I2 / p.L, np.abs(c) / p.a_r0).ravel()
    live = np.flatnonzero((c != 0.0) & (np.abs(c) != I2))
    cs = c.ravel()[live]

    def fdf(E, i):
        action, slope = _action_and_slope(ev, cs[i], E)
        return action - I2, slope

    lo = np.abs(cs) / p.a_r0 * (1.0 + 1e-14)
    out[live] = find_root(fdf, lo, np.inf, np.maximum(lo * 1.0000001, np.pi * I2 / p.L))
    return out.reshape(c.shape)[()]


# ---------------------------------------------------------------------------
# the unit-torus energy K1

def k1_series(ev: ActionEvaluator) -> _ChebFit:
    """K1(s) = energy_K(s, 1) on [0, 1], ends K1(0) = pi / L, K1(1) = 1 / a(r0), cached in
    ev, with its degree, tail and convergence."""
    p = ev.profile
    return _cached(ev, "k1_series", lambda: _ChebFit(
        "energy K1", lambda js: energy_K(ev, np.cos(np.pi * js / 1024) ** 2, 1.0),
        (1.0 / p.a_r0, np.pi / p.L), _K1_TOL, domain=(0.0, 1.0)))


def _unit_torus(ev: ActionEvaluator, s):
    """(K1, K1', omega2 = K1 - s K1') at s = |c| < 1, elementwise, from the K1 series,
    used whole if it reached no plateau (none has, aspect 0.2 to 50)."""
    series = k1_series(ev).series
    K, slope = series(s), series.deriv()(s)
    return K, slope, K - s * slope


def frequencies(ev: ActionEvaluator, c):
    """(omega1, omega2) on the unit-action torus I2 = 1, elementwise over c.

    At the boundary |c| = 1 the oscillation degenerates; there both
    derivatives of K are pinned to the equatorial value a(r0)^(-2), with
    omega1 carrying the sign of c.
    """
    s = np.abs(np.asarray(c, float))
    if np.any(s > 1.0):
        raise OutsideMomentImageError(f"|c| = {np.max(s):.6g} exceeds I2 = 1")
    inner, a0 = s != 1.0, ev.profile.a_r0
    slope, omega2 = np.full(s.shape, 1.0 / (a0 * a0)), np.full(s.shape, 1.0 / (a0 * a0))
    if inner.any():
        _, slope[inner], omega2[inner] = _unit_torus(ev, s[inner])
    return (np.sign(c) * slope)[()], omega2[()]


def limit_density_unnorm(ev: ActionEvaluator, c):
    """Unnormalized limit density omega2 / sqrt(1 - c^2 / (K^2 a(r0)^2)), elementwise.

    Defined on the open interval only; the inverse-square-root blow-up
    at the ends is genuine.
    """
    s = np.abs(c)
    if np.any(s >= 1.0):
        raise OutsideOpenIntervalError(f"density needs |c| < 1, got |c| = {np.max(s)}")
    E, _, omega2 = _unit_torus(ev, s)
    u = s / (E * ev.profile.a_r0)
    if np.any(u >= 1.0):
        raise OutsideOpenIntervalError(f"|c| = {np.max(s)} maps onto the equatorial circle")
    return (omega2 / np.sqrt((1.0 - u) * (1.0 + u)))[()]


def equator_momentum(ev: ActionEvaluator, c):
    """Radial momentum rho over the equator on the torus I2 = 1, elementwise over c."""
    E, ca = energy_K(ev, c, 1.0), np.abs(c) / ev.profile.a_r0
    return np.sqrt(np.maximum((E - ca) * (E + ca), 0.0))[()]


def di2_drho_fd(ev: ActionEvaluator, c):
    """Centered finite difference of I2 in rho through E(rho) at I2 = 1, elementwise over c.

    rho parametrizes covectors over the equator via
    E(rho) = sqrt(rho^2 + c^2/a(r0)^2); the analytic value of the
    derivative is sqrt(1 - c^2/(E a(r0))^2) / omega2.
    """
    c = np.asarray(c, float)
    rho = equator_momentum(ev, c)
    if np.any(rho <= 0.0):
        raise DegenerateTorusError(f"no equator-transverse momentum at c = {c[rho <= 0.0][0]}")
    h = _FD_STEP * rho
    E = np.sqrt(np.stack((rho + h, rho - h)) ** 2 + (c / ev.profile.a_r0) ** 2)
    I_plus, I_minus = action_I2(ev, c, E)
    return ((I_plus - I_minus) / (2.0 * h))[()]


# ---------------------------------------------------------------------------
# torus averages

def torus_average(ev: ActionEvaluator, sym: SymbolFn, c):
    """Average of a symbol over the Liouville torus with I2 = 1, elementwise over c.

    The invariant radial measure is proportional to dr / rho(r).  One
    radial pass integrates the symbol against it together with the
    measure itself, and the average is their ratio, so the constant
    symbol averages to exactly 1.
    """
    if np.any(np.abs(c) >= 1.0):
        raise DegenerateTorusError(f"torus average needs |c| < 1, got |c| = {np.max(np.abs(c))}")
    E = _unit_torus(ev, np.abs(c))[0]

    if sym.kind == "angular_ratio":
        return np.asarray(sym.fn(c / E), float)[()]

    def g(r, F):
        weight = _inv_sqrt_weight(F)
        return np.asarray(sym.fn(r), float) * weight, weight

    total, mass = _integrate_radial(ev, c, E, g)
    return total / mass


# ---------------------------------------------------------------------------
# densities integrated in the arcsine variable

class _SinSeries(_ChebFit):
    """Fit of g(u) = f(c) sqrt((1 - c)(1 + c)), c = sin(pi u / 2), with g(+-1) = end; its
    antiderivative makes the CDF of f in c closed-form.  The weight takes the rounded c, to
    cancel the blow-up of f there.  Coefficients all at most _SERIES_TOL scale: the zero series."""

    def __init__(self, name: str, f, end: float, even: bool, scale: float = 0.0):
        def sample(js):
            # u_j = cos(pi j / 512) as a sine: exact at u = 0 and odd in u
            c = np.sin(0.5 * np.pi * np.sin(np.pi * (256 - js) / 512))
            return f(c) * np.sqrt((1.0 - c) * (1.0 + c))

        super().__init__(name, sample, (end, end), _SERIES_TOL, even, floor=_SERIES_TOL * scale)
        self.scale = scale
        self._anti = self.series.integ()
        self._lo = float(self._anti(-1.0))
        self.total = (np.pi / 2.0) * (float(self._anti(1.0)) - self._lo)

    def cdf(self, c: float | np.ndarray) -> float | np.ndarray:
        """Integral of f from -1 to c over its total, elementwise over c in [-1, 1]."""
        outside = np.abs(c) > 1.0
        if np.any(outside):
            raise OutsideOpenIntervalError(
                f"cdf argument must lie in [-1, 1], got {np.asarray(c)[outside][0]}")
        u = np.arcsin(c) / (np.pi / 2.0)
        return (np.pi / 2.0) * (self._anti(u) - self._lo) / self.total

    def density(self, c: float | np.ndarray) -> float | np.ndarray:
        """f over its total, the derivative of cdf, elementwise over c in (-1, 1)."""
        u = np.arcsin(c) / (np.pi / 2.0)
        return self.series(u) / np.sqrt((1.0 - c) * (1.0 + c)) / self.total


def _mu_end(p: SurfaceProfile) -> float:
    # density * sqrt(1 - c^2) as |c| -> 1, from the harmonic oscillation about r0
    if not float(p.a2(p.r0)) < 0.0:
        raise DegenerateTorusError(f"a''(r0) = {float(p.a2(p.r0)):.6g} >= 0: degenerate equator")
    return (-float(p.a2(p.r0))) ** 0.25 / p.a_r0 ** 0.75


def mu_series(ev: ActionEvaluator) -> _SinSeries:
    """The limit density's series, cached in ev, with its degree, tail and convergence."""
    return _cached(ev, "mu_series", lambda: _SinSeries(
        "density", lambda c: limit_density_unnorm(ev, c), _mu_end(ev.profile), even=True))


def nu_series(ev: ActionEvaluator, sym: SymbolFn) -> _SinSeries:
    """The torus averages' series, cached in ev by the SymbolFn's identity; bounded, so g(+-1)
    = 0.  A radial average depends on c only through |c|: c >= 0 is sampled.  Its `scale` is
    max |b| over the finite samples of b at 513 points of its kind's domain (SYMBOL_KINDS)."""
    def build():
        with np.errstate(all="ignore"):  # a non-finite sample is left out of the scale
            b = np.abs(sym.fn(np.linspace(*SYMBOL_KINDS[sym.kind][1](ev.profile), 513)))
        return _SinSeries("nu", lambda c: torus_average(ev, sym, c), 0.0,
                          sym.kind == "radial_mult", np.max(b[np.isfinite(b)], initial=0.0))
    return _cached(ev, ("nu_series", sym), build)


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

