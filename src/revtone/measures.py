"""Empirical equator measures, their limits, and convergence sweeps.

Each joint multiplet at label ell induces a probability measure on
[-1, 1]: an atom at c = m/ell with weight proportional to the equator
norm of the (m, ell) eigenfunction.  Replacing norms by diagonal matrix
elements of a symbol gives the nu variant.  Both converge weak-* to
explicit densities computed from the classical action data, and this
module measures that convergence in Kolmogorov-Smirnov and
1-Wasserstein distance.

W1 is treated as primary: it metrizes weak-* convergence on a compact
interval, while KS stalls against limits with endpoint blow-up.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import actions as _actions
from . import spectral as _spectral
from .errors import (
    DegenerateMeasureError,
    InvalidParameterError,
    RevtoneError,
    SignedMeasureError,
)
from .quadrature import gauss_legendre_rule
from .surface import find_root

_SEGMENT_GL_NODES = 32


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Atomic measure on [-1, 1]: atoms at ascending `positions`, one per angular number,
    with `weights`.

    Weights are normalized to sum to 1 whenever the raw mass is
    nonzero; a negative raw mass (symbol negative on the allowed
    region) normalizes the same way.  `signed` is set only when the
    raw mass cancels to zero relative to the total variation, leaving
    nothing to normalize by; weights are then kept raw.  After
    normalization individual weights may still be negative and the
    cumulative function non-monotone, but CDF-based distances stay
    defined.
    """

    positions: np.ndarray
    weights: np.ndarray
    total_mass_raw: float
    signed: bool = False


@dataclass(frozen=True, eq=False)
class LimitMeasure:
    """Normalized limit density on (-1, 1), its CDF (the series' own `cdf`: elementwise,
    unclipped, exactly 0 at -1 and 1 at 1) and raw mass."""

    density: Callable
    cdf: Callable
    mass_constant: float


def empirical_mu(slice_: _spectral.JointSlice) -> EmpiricalMeasure:
    """Equator-norm measure of a multiplet; raw mass is the norm sum."""
    ms = np.array(sorted(slice_.restricted_norms.keys()))
    w = np.array([slice_.restricted_norms[int(m)] for m in ms])
    total = float(np.sum(w))
    if total <= 0.0:
        raise DegenerateMeasureError(
            f"all {len(w)} equator norms vanish at ell = {slice_.ell}")
    return EmpiricalMeasure(ms / slice_.ell, w / total, total)


def empirical_nu(slice_: _spectral.JointSlice) -> EmpiricalMeasure:
    """Matrix-element measure of a multiplet, from the elements of the symbol it was built with."""
    if slice_.elements is None:
        raise InvalidParameterError(f"the slice at ell = {slice_.ell} was built without a symbol")
    w, ms = slice_.elements, np.array([mode.m for mode in slice_.modes])
    total = float(np.sum(w))
    signed = abs(total) <= 1e-12 * max(float(np.sum(np.abs(w))), 1e-300)
    return EmpiricalMeasure(ms / slice_.ell, w if signed else w / total, total, signed)


def limit_measure_mu(ev: _actions.ActionEvaluator) -> LimitMeasure:
    """Weak-* limit of the equator-norm measures."""
    M, series = _actions.normalization_M(ev), _actions.mu_series(ev)
    return LimitMeasure(density=series.density, cdf=series.cdf, mass_constant=M)


def limit_measure_nu(ev: _actions.ActionEvaluator, sym: _actions.SymbolFn) -> LimitMeasure:
    """Weak-* limit of the matrix-element measures: normalized torus averages, which
    a vanishing total average leaves without a normalization."""
    omega = _actions.liouville_state(ev, sym)
    if abs(omega) < 1e-12:
        raise SignedMeasureError(
            f"total average {omega:.3e} vanishes; no normalized limit density exists")
    series = _actions.nu_series(ev, sym)
    return LimitMeasure(density=series.density, cdf=series.cdf, mass_constant=omega)


def _require_unsigned(emp: EmpiricalMeasure):
    if emp.signed:
        raise SignedMeasureError(
            "distances are undefined for signed measures; compare moments instead")


def ks_distance(emp: EmpiricalMeasure, lim: LimitMeasure) -> float:
    """Sup-distance between CDFs, checking both sides of every jump."""
    _require_unsigned(emp)
    cum = np.concatenate(([0.0], np.cumsum(emp.weights)))
    target = lim.cdf(emp.positions)
    return float(np.max(np.maximum(np.abs(cum[:-1] - target), np.abs(cum[1:] - target)),
                        initial=0.0))


def wasserstein1(emp: EmpiricalMeasure, lim: LimitMeasure) -> float:
    """L1 distance between CDFs over [-1, 1].

    The empirical CDF is a constant level between atoms, so the integral
    is a sum of segment integrals of |lim.cdf - level|.  A segment whose
    ends straddle its level is split at a crossing, which
    `surface.find_root` solves on lim.density in lockstep with every other
    straddling segment, clipped into its segment; a non-monotone cdf
    (sign-changing symbol) may hide an even number of extra crossings
    inside a piece, costing only local quadrature error.  Each piece
    then gets Gauss-Legendre quadrature, all in one cdf call.
    """
    _require_unsigned(emp)
    pos = emp.positions
    cum = np.concatenate(([0.0], np.cumsum(emp.weights)))
    # an atom opens a segment when it lies right of -1 and of every earlier atom
    opens = pos > np.maximum.accumulate(np.concatenate(([-1.0], pos)))[:-1]
    bounds = np.concatenate(([-1.0], pos[opens], [1.0]))
    lo, hi = bounds[:-1], bounds[1:]
    level = np.concatenate((cum[:-1][opens], cum[-1:]))
    f = lim.cdf(bounds)
    f_lo, f_hi = f[:-1] - level, f[1:] - level
    straddle = (f_lo != 0.0) & (f_hi != 0.0) & ((f_lo < 0.0) != (f_hi < 0.0))

    split = hi.copy()
    if straddle.any():
        a, b, s_level = lo[straddle], hi[straddle], level[straddle]
        cross = find_root(lambda c, i: (lim.cdf(c) - s_level[i], lim.density(c)), a, b)
        split[straddle] = np.clip(cross, a, b)
    # two pieces per segment, split at its crossing; the second is empty without one
    starts, ends = np.concatenate((lo, split)), np.concatenate((split, hi))
    keep = ends - starts > 1e-300
    starts, ends, levels = starts[keep], ends[keep], np.tile(level, 2)[keep]
    x, w = gauss_legendre_rule(_SEGMENT_GL_NODES)
    mid, half = 0.5 * (starts + ends), 0.5 * (ends - starts)
    vals = np.abs(lim.cdf(mid[:, None] + half[:, None] * x) - levels[:, None])
    return float(np.sum(half * (vals @ w)))


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Per-ell distances to the limit measures plus fitted W1 decay."""

    profile: str
    ells: list
    rows: list
    fit: dict
    fit_even: dict | None = None

    def as_dict(self) -> dict:
        out = {"profile": self.profile, "ells": list(self.ells), "rows": self.rows,
               "fit": self.fit}
        if self.fit_even is not None:
            out["fit_even"] = self.fit_even
        return out


def _fit_decay(ells, w1s) -> dict | None:
    pairs = [(l, w) for l, w in zip(ells, w1s) if w is not None and w > 0.0]
    if len(pairs) < 2:
        return None
    x = np.log([p[0] for p in pairs])
    y = np.log([p[1] for p in pairs])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return {"w1_exponent": float(slope), "w1_r2": r2}


def _sweep_row(ev, ell, sym, grid_size, lim_mu, lim_nu):
    slice_ = _spectral.joint_slice(ev.profile, ell, grid_size, sym)
    mu = empirical_mu(slice_)
    row = {
        "ell": ell,
        "M_ell": mu.total_mass_raw,
        "M_ell_over_ell": mu.total_mass_raw / ell,
        "ks_mu": ks_distance(mu, lim_mu),
        "w1_mu": wasserstein1(mu, lim_mu),
        "ks_nu": None,
        "w1_nu": None,
    }
    if sym is not None:
        nu = empirical_nu(slice_)
        if not nu.signed:
            row["ks_nu"] = ks_distance(nu, lim_nu)
            row["w1_nu"] = wasserstein1(nu, lim_nu)
    return row


def convergence_sweep(ev: _actions.ActionEvaluator, ells: list,
                      sym: _actions.SymbolFn | None = None, *,
                      grid_size: int) -> ConvergenceReport:
    """Distances of the empirical measures to their limits over ells, on
    the evaluator's profile.

    Rows for failing ells carry an `error` field and the sweep
    continues; fits use the surviving rows.
    """
    ells = [int(l) for l in ells]
    if any(b <= a for a, b in zip(ells, ells[1:])):
        raise InvalidParameterError("ells must be strictly ascending")
    lim_mu = limit_measure_mu(ev)
    lim_nu = limit_measure_nu(ev, sym) if sym is not None else None

    rows = []
    for ell in ells:
        try:
            rows.append(_sweep_row(ev, ell, sym, grid_size, lim_mu, lim_nu))
        except RevtoneError as exc:
            rows.append({"ell": ell, "error": f"{type(exc).__name__}: {exc}"})

    w1 = [row.get("w1_mu") for row in rows]
    fit = _fit_decay(ells, w1) or {"w1_exponent": float("nan"), "w1_r2": float("nan")}
    even = [(l, v) for l, v in zip(ells, w1) if l % 2 == 0]
    fit_even = _fit_decay([l for l, _ in even], [v for _, v in even]) if len(even) >= 2 else None
    return ConvergenceReport(profile=ev.profile.name, ells=ells, rows=rows, fit=fit,
                             fit_even=fit_even)
