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
torus averages are surface._ChebFit fits, sampled a level at a time:
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
    """A meridian profile and every value memoized for it (series, symbol
    checks), kept in `_cache` and read and filled through `_cached`."""

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

def _turning_points(p: SurfaceProfile, c: np.ndarray, E: np.ndarray):
    """(r1, r2) where a(r) = |c|/E on either side of the equator, elementwise
    over 1-d arrays, from one lockstep root solve; c = 0 gives (0, L)."""
    bad = ~((E > 0.0) & np.isfinite(E))
    if np.any(bad):
        raise InvalidParameterError(f"energy must be positive, got {E[bad][0]}")
    ca = np.abs(c) / E
    if np.any(ca >= p.a_r0):
        raise DegenerateTorusError(f"|c|/E = {np.max(ca):.6g} >= a(r0) = {p.a_r0:.6g}: "
                                   "no oscillation interval")
    n, ca2 = ca.size, np.tile(ca, 2)

    def f(r):
        # a vanishes at the poles by contract; rounding there must not hide a root
        return np.where((0.0 < r) & (r < p.L), p.a(r) - ca2, -ca2)

    r = find_root(f, p.a1, np.repeat([0.0, p.r0], n), np.repeat([p.r0, p.L], n))
    return r[:n], r[n:]


def turning_points(ev: ActionEvaluator, c: float, E: float) -> tuple[float, float]:
    """Solve a(r) = |c|/E on both sides of the equator.

    c = 0 returns the full interval (0, L) by convention; tori with
    |c| >= E * a(r0) have no radial oscillation and are rejected.
    """
    r1, r2 = _turning_points(ev.profile, np.array([c], float), np.array([E], float))
    return float(r1[0]), float(r2[0])


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
    r1, r2 = (v[:, None] for v in _turning_points(p, c[:, 0], E[:, 0]))
    r, d1, d2, half = map_to_interval(r1, r2, x, sigma)
    # c = 0: the radicand is E^2 over (0, L)
    F, t = np.broadcast_to(E * E, r.shape).copy(), c[:, 0] != 0.0
    F[t] = _radicand(p, np.abs(c[t]) / E[t], E[t], r1[t], r2[t], r[t], d1[t], d2[t])
    sums = (np.array([np.dot(w, row) for row in v]) for v in g(r, F))
    return tuple((half[:, 0] * s / np.pi).reshape(shape)[()] for s in sums)


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


def dI2_dc(ev: ActionEvaluator, c, E):
    """Partial derivative in c, including the (d/dc)|c| = sign(c) term; elementwise."""
    c_col = np.reshape(c, (-1, 1))

    def g(r, F):
        a = np.asarray(ev.profile.a(r), float)
        return ((-c_col / (a * a)) * _inv_sqrt_weight(F),)

    return np.where(np.equal(c, 0.0), 0.0, _integrate_radial(ev, c, E, g)[0] + np.sign(c))[()]


def energy_K(ev: ActionEvaluator, c, I2: float):
    """Invert I2(c, .) in E by bracketed Newton iteration, elementwise over c.

    The bracket starts open upward, from the larger of pi I2 / L and a
    point just above |c|/a(r0); the first iterate whose action exceeds I2
    closes it.  A Newton step that leaves the bracket doubles E while it is
    open and bisects once it is closed; monotonicity of the action in E
    makes this safe.  Each iterate is one row of a radial pass for the
    action and its slope, which the elements still iterating share.  The
    iteration runs to float resolution: an element stops once its action
    residual is within 4 eps * I2 or a step moves E by at most 4 eps * E,
    and ConvergenceError is raised if one has not within 100 steps.
    """
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
    lo, hi = np.abs(cs) / p.a_r0 * (1.0 + 1e-14), np.full(live.size, np.inf)
    E = np.maximum(lo * 1.0000001, np.pi * I2 / p.L)
    for _ in range(100):
        if not live.size:
            return out.reshape(c.shape)[()]
        action, slope = _action_and_slope(ev, cs, E)
        f = np.broadcast_to(action - I2, E.shape)
        lo, hi = np.where(f > 0.0, lo, E), np.where(f > 0.0, E, hi)
        E_new = E - f / np.maximum(slope, 1e-300)
        E_new = np.where((lo < E_new) & (E_new < hi), E_new,
                         np.where(hi < np.inf, 0.5 * (lo + hi), 2.0 * E))
        done = np.abs(f) <= _EPS4 * I2
        stepped = ~done & (np.abs(E_new - E) <= _EPS4 * E)
        out[live[done]], out[live[stepped]] = E[done], E_new[stepped]
        keep = ~(done | stepped)
        live, cs, lo, hi, E = live[keep], cs[keep], lo[keep], hi[keep], E_new[keep]
    if not live.size:
        return out.reshape(c.shape)[()]
    raise ConvergenceError(f"energy_K({cs[0]}, {I2}) not converged: "
                           f"residual {f[keep][0]:.3e} > {_EPS4 * I2:.3e}")


# ---------------------------------------------------------------------------
# the unit-torus energy K1

class _EnergySeries(_ChebFit):
    """K1(s) = energy_K(s, 1) in x = 2 s - 1, ends K1(0) = pi / L, K1(1) = 1 / a(r0)."""

    def __init__(self, ev: ActionEvaluator):
        p = ev.profile
        super().__init__(lambda js: energy_K(ev, np.cos(np.pi * js / 1024) ** 2, 1.0),
                         (1.0 / p.a_r0, np.pi / p.L), _K1_TOL)
        self.slope = 2.0 * _cheb.chebder(self.coeffs)


def k1_series(ev: ActionEvaluator) -> _EnergySeries:
    """K1 cached in ev, with its degree, tail and convergence."""
    return _cached(ev, "k1_series", lambda: _EnergySeries(ev))


def _unit_torus(ev: ActionEvaluator, s):
    """(K1, K1', omega2 = K1 - s K1') at s = |c| < 1, elementwise: from the K1
    series, or from the point-wise inversion if the series reached no plateau."""
    series = k1_series(ev)
    if series.converged:
        K, slope = (_cheb.chebval(2.0 * s - 1.0, cs) for cs in (series.coeffs, series.slope))
        return K, slope, K - s * slope
    E = energy_K(ev, s, 1.0)
    dE = dI2_dE(ev, s, E)
    return E, -dI2_dc(ev, s, E) / dE, 1.0 / dE


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

def torus_average(ev: ActionEvaluator, sym: SymbolFn, c):
    """Average of a symbol over the Liouville torus with I2 = 1, elementwise over c.

    The invariant radial measure is proportional to dr / rho(r).  One
    radial pass integrates the symbol against it together with the
    measure itself, and the average is their ratio, so the constant
    symbol averages to exactly 1.  A phase-space symbol is averaged over
    the angle and both signs of rho inside that pass, one row at a time.
    """
    if np.any(np.abs(c) >= 1.0):
        raise DegenerateTorusError(f"torus average needs |c| < 1, got |c| = {np.max(np.abs(c))}")
    E = _unit_torus(ev, np.abs(c))[0]

    if sym.kind == "angular_ratio":
        return np.asarray(sym.fn(c / E), float)[()]

    if sym.kind == "radial_mult":
        def symbol(r, rho):
            return np.asarray(sym.fn(r), float)
    else:
        _cached(ev, ("homogeneous", sym), lambda: _check_homogeneous(
            sym, ev.profile.L, np.ravel(c)[0], np.ravel(E)[0]))
        theta = 2.0 * np.pi * np.arange(_THETA_SAMPLES)[None, :] / _THETA_SAMPLES

        def average(r, rho, c):
            up, down = (np.asarray(sym.fn(r[:, None], theta, sign * rho[:, None], c),
                                   float) for sign in (1.0, -1.0))
            return 0.5 * (np.mean(up, axis=1) + np.mean(down, axis=1))

        def symbol(r, rho):
            return np.array([average(*row) for row in zip(r, rho, np.ravel(c))])

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
        def sample(js):
            # u_j = cos(pi j / 512) as a sine: exact at u = 0 and odd in u
            c = np.sin(0.5 * np.pi * np.sin(np.pi * (256 - js) / 512))
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

