"""Separated radial eigenproblems and equator data of joint eigenfunctions.

Joint eigenfunctions of the Laplacian and the rotation generator have
the form e^{i m theta} u(r) / sqrt(2 pi); u solves the radial problem

    -(1/a) (a u')' + (m^2 / a^2) u = lambda^2 u

with u -> 0 at the poles for m != 0 and zero flux for m = 0.  The
discretization is a flux-conservative second-order scheme on a uniform
grid pulled back from the poles by delta = L / (10 * grid_size), written
as a symmetric tridiagonal pencil with weight a(r) and solved by seeded
Rayleigh-quotient iteration (one dgtsv per step, each after the first at
the last quotient, stopped by a residual bound); bisection gives the first
coarse pair and the fallback.  What every m shares is built once per grid
size, from one sampling of the profile.  LAPACK: scipy's f2py module.

A mirror-symmetric profile (a(L - r) = a(r): the sphere and ellipsoids)
is sampled on [0, L/2] for a node set of even size, whose pencil splits
into two half-size sectors (Cantoni & Butler, Linear Algebra Appl. 13,
1976): mode n is mode n // 2 of the sector of parity n % 2, solved on the
half and mirrored with sign (-1)^n, so u(r0) is exactly 0 for odd n.

Eigenvalues carry an O(h^2) bias with a smooth coefficient, so every
headline number (lambda^2 and the equator value u(r0)) is Richardson
extrapolated from the requested grid and its half.  Modes are labeled
ell = |m| + n with n the interior node count, checked on every solve.  A
joint slice keeps no vectors: matrix elements are formed as modes are built.
"""
from __future__ import annotations

import math
import os
import random
import sys
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import machinery, util

import numpy as np

from . import actions as _actions
from .errors import ConvergenceError, InvalidParameterError, LabelingError, ResolutionError
from .surface import SurfaceProfile

MIN_GRID = 500
MIN_POINTS_PER_WAVELENGTH = 10.0
# grid entries below this fraction of the max count as pole underflow in sign counts
_NODE_FLOOR = 1e-8
# A step solves (T - rho) y = x, ||x|| = 1, and 1 / ||y|| bounds the residual of y / ||y||
# (Parlett, ch. 4): stop at _RQI_TOL of the quotient or at its rounding level _RQI_FLOOR *
# sum_i T_ii x_i^2 (the bound settles at 0.2-0.85 eps times that sum, while the m^2/a^2
# pole entries put eps * ||T|| at 3e-7), and bisect after _RQI_STEPS
_RQI_TOL, _RQI_FLOOR, _RQI_STEPS = 1e-13, 2.0 * np.finfo(float).eps, 8


@dataclass(frozen=True, eq=False)
class RadialMode:
    """One radial eigenfunction, integral u^2 a dr = 1; r and u are None in a joint slice."""

    m: int
    n: int
    ell: int
    lam: float
    r: np.ndarray | None
    u: np.ndarray | None
    u_at_r0: float


@dataclass(frozen=True, eq=False)
class JointSlice:
    """All 2 ell + 1 joint modes (|m| <= ell, n = ell - |m|) and their symbol's elements or None."""

    ell: int
    modes: list
    restricted_norms: dict
    elements: np.ndarray | None


# The node sets of a uniform grid, zonal (m = 0: all nodes) and interior (m != 0: poles
# dropped, their fluxes kept on the diagonal), with what every m shares: the pencil's m = 0
# diagonal (which _tridiagonal completes with m^2 / a), off-diagonal, a, sq = sqrt(a)
# (x = sq u), nodes r, weights at r0, the interpolation from the coarse grid's set and the
# coupling ec of the centre nodes (None unless split: then diag, off, a, sq, seed are halves).
_Grid = namedtuple("_Grid", "r h sets")
_Pencil = namedtuple("_Pencil", "diag off a sq r at_r0 seed ec")


def _lagrange(r: np.ndarray, x: float) -> tuple:
    """Start index and weights of cubic Lagrange interpolation at x from the 4 nearest r."""
    i = max(2, min(len(r) - 2, int(np.searchsorted(r, x)))) - 2
    rj = r[i:i + 4]
    return i, [math.prod((x - rk) / (rj[j] - rk) for k, rk in enumerate(rj) if k != j)
               for j in range(4)]


def _at_r0(u: np.ndarray, pen: _Pencil, n: int) -> float:
    """u(r0) of mode n from its vector on the whole node set: exactly 0 if odd on a split set."""
    i, (w0, w1, w2, w3) = pen.at_r0
    if n % 2 and pen.ec is not None:
        return 0.0
    return float(u[i] * w0 + u[i + 1] * w1 + u[i + 2] * w2 + u[i + 3] * w3)


def _grids(p: SurfaceProfile, grid_size: int) -> tuple:
    """The fine grid and the half-size grid of the Richardson pair, each sampling the
    profile once, at nodes and half-points (of the half [0, L/2] if the grid splits).  A
    half-point value serves both sides of its flux, so for m = 0 constants are annihilated
    exactly: lambda^2 = 0 to rounding."""
    if grid_size < MIN_GRID:
        raise InvalidParameterError(f"grid_size must be >= {MIN_GRID}, got {grid_size}")
    nodes = [np.linspace(p.L / (10.0 * n), p.L - p.L / (10.0 * n), n)
             for n in (grid_size, grid_size // 2)]
    grids = []
    for rs in nodes:
        h, split = float(rs[1] - rs[0]), p.mirror and len(rs) % 2 == 0
        a, ah = (np.asarray(p.a(x[:len(rs) // (1 + split)]), float)
                 for x in (rs, 0.5 * (rs[:-1] + rs[1:])))
        if split:  # mirrored about the centre half-point, the last sampled
            a, ah = np.concatenate((a, a[::-1])), np.concatenate((ah, ah[-2::-1]))
        ah = ah / (h * h)
        flux = np.append(ah, 0.0) + np.insert(ah, 0, 0.0)
        sets = []
        for cut, diag in ((slice(None), flux / a), (slice(1, -1), flux[1:-1])):
            r, r_c, sq = rs[cut], nodes[1][cut], np.sqrt(a[cut])
            j = np.clip(np.searchsorted(r_c, r) - 1, 0, len(r_c) - 2)  # np.interp's segments
            t = np.clip((r - r_c[j]) / (r_c[j + 1] - r_c[j]), 0.0, 1.0)
            off, k = -ah[cut] / (sq[:-1] * sq[1:]), len(r) // 2 if split else len(r)
            sets.append(_Pencil(diag[:k], off[:k - 1], a[cut][:k], sq[:k], r, _lagrange(r, p.r0),
                                (j[:k], j[:k] + 1, t[:k]), off[k - 1] if split else None))
        grids.append(_Grid(rs, h, tuple(sets)))
    return tuple(grids)


def _tridiagonal(g: _Grid, m: int, n: int) -> _Pencil:
    """The node set of m, with the diagonal of its standard-form pencil at m: on a split set,
    that of n's sector, whose last entry adds (-1)^n times the centre coupling."""
    pen = g.sets[m != 0]
    diag = (pen.diag + (m * m) / pen.a) / pen.a if m else pen.diag.copy()
    if pen.ec is not None:
        diag[-1] += -pen.ec if n % 2 else pen.ec
    return pen._replace(diag=diag)


def _lobe_and_nodes(u: np.ndarray) -> tuple:
    """The first entry above 1 % of max |u| and the sign changes above _NODE_FLOOR of it."""
    au = np.abs(u)
    top = au.max()
    s = np.signbit(u[au > _NODE_FLOOR * top])
    return u[np.argmax(au > 0.01 * top)], int(np.count_nonzero(s[1:] != s[:-1]))


def _pair(lam2: float, x: np.ndarray, pen: _Pencil, h: float, n: int) -> tuple:
    """(lambda^2, u, node count) of mode n from the unit vector x: u = x / sq, scaled to a
    u^2 = x^2 of trapezoid integral h (1 - (x_0^2 + x_-1^2) / 2) = 1 and a positive first
    lobe.  A split set's half x (integral h (2 - x_0^2)) is mirrored with sign (-1)^n."""
    u = x / pen.sq
    lobe, nodes = _lobe_and_nodes(u)
    if pen.ec is None:
        u *= math.copysign(1.0 / math.sqrt(h * (1.0 - 0.5 * (x[0] * x[0] + x[-1] * x[-1]))), lobe)
        return lam2, u, nodes
    u *= math.copysign(1.0 / math.sqrt(h * (2.0 - x[0] * x[0])), lobe)
    return lam2, np.concatenate((u, -u[::-1] if n % 2 else u[::-1])), 2 * nodes + n % 2


def _lapack():
    """scipy's f2py LAPACK module scipy.linalg._flapack, loaded on its own: the package
    __init__ of scipy.linalg imports numpy.f2py, numpy.testing and more, which takes
    longer than all the solves of a run.  It is registered in sys.modules, so a later
    import of scipy.linalg reuses it."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy_dirs = util.find_spec("scipy").submodule_search_locations
    spec = machinery.PathFinder.find_spec(name, [os.path.join(d, "linalg") for d in scipy_dirs])
    if spec is None:
        from scipy.linalg import lapack
        return lapack
    module = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


def eigh_tridiagonal(d, e, select_range):
    """Eigenpairs lo..hi (ascending) of the symmetric tridiagonal with diagonal d and
    off-diagonal e by the LAPACK calls of scipy.linalg.eigh_tridiagonal(d, e, select="i",
    select_range=(lo, hi), tol=1e-300): dstebz bisection to its 2 ulp floor, then dstein."""
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise ConvergenceError("non-finite entry in the tridiagonal pencil")
    lo, hi = select_range
    lapack = _lapack()
    m, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 1.0, lo + 1, hi + 1, 1e-300, "B")
    if info:
        raise ConvergenceError(f"LAPACK dstebz failed (info = {info})")
    w = w[:m]
    v, info = lapack.dstein(d, e, w, iblock, isplit)
    if info:
        raise ConvergenceError(f"LAPACK dstein failed (info = {info})")
    order = np.argsort(w)
    return w[order], v[:, order]


def _solve_indices(g: _Grid, m: int, idx_lo: int, idx_hi: int) -> list:
    """Eigenpairs idx_lo..idx_hi (ascending) on one grid by bisection, as (lambda^2, u, nodes),
    one call per sector of a split set."""
    step, pairs = 1 if g.sets[m != 0].ec is None else 2, {}
    for first in range(idx_lo, min(idx_lo + step, idx_hi + 1)):
        ns, pen = range(first, idx_hi + 1, step), _tridiagonal(g, m, first)
        vals, vecs = eigh_tridiagonal(pen.diag, pen.off, (first // step, ns[-1] // step))
        pairs.update((n, _pair(float(v), x, pen, g.h, n)) for n, v, x in zip(ns, vals, vecs.T))
    return [pairs[n] for n in range(idx_lo, idx_hi + 1)]


def _solve(g: _Grid, m: int, n: int, shift: float, u0: np.ndarray) -> tuple:
    """Eigenpair n on one grid from u0, as (lambda^2, u, nodes): Rayleigh-quotient steps at the
    given shift, then at each quotient; a shift that zeroes a pivot is an eigenvalue to rounding
    and moves off by the rounding floor.  Bisection unless the steps settle on n nodes."""
    dgtsv = _lapack().dgtsv
    pen = _tridiagonal(g, m, n)
    x = pen.sq * u0
    x /= np.sqrt(x @ x)
    for _ in range(_RQI_STEPS):
        y, info = dgtsv(pen.off, pen.diag - shift, pen.off, x, overwrite_d=1)[3:]
        if info:
            shift += _RQI_FLOOR * (pen.diag @ (x * x))
            continue
        xy, yy = x @ y, y @ y
        res, shift = 1.0 / math.sqrt(yy), shift + xy / yy
        x = y * res
        if res <= _RQI_TOL * abs(shift) or res <= _RQI_FLOOR * (pen.diag @ (x * x)):
            # lambda^2 by a product with T: a quotient carries the solve's rounding (5e-13 at 700)
            tx = pen.diag * x
            tx[:-1] += pen.off * x[1:]
            tx[1:] += pen.off * x[:-1]
            pair = _pair(float(x @ tx), x, pen, g.h, n)
            return pair if pair[2] == n else _solve_indices(g, m, n, n)[0]
    return _solve_indices(g, m, n, n)[0]


def _extrapolated(values: list) -> float:
    """The next value of a sequence by a polynomial through its last three values or fewer."""
    s = values[-3:]
    return sum(c * v for c, v in zip(((), (1.0,), (-1.0, 2.0), (1.0, -3.0, 3.0))[len(s)], s))


@lru_cache(maxsize=8)
def _gauss_start(size: int) -> np.ndarray:
    """size Gaussian draws of random.Random(0), drawn once per size; callers only read it."""
    rng = random.Random(0)
    return np.array([rng.gauss(0.0, 1.0) for _ in range(size)])


def _assemble(fine_grid: _Grid, coarse_grid: _Grid, jobs: list):
    """Richardson-extrapolated modes, with vectors, yielded for jobs (m, n, coarse pair or None)
    in order.  A missing coarse pair is solved from Gaussian draws of random.Random(0) at the
    coarse lambda^2 of the jobs before, extrapolated (quadratically, for prolate profiles); a fine
    one from the coarse u at the coarse lambda^2 plus the extrapolated O(h^2) fine - coarse bias."""
    start = _gauss_start(coarse_grid.sets[1].sq.size)
    coarse_l2, bias = [], []
    for m, n, pair in jobs:
        coarse_set, fine_set = coarse_grid.sets[m != 0], fine_grid.sets[m != 0]
        l2_c, u_c, _ = pair or _solve(coarse_grid, m, n, _extrapolated(coarse_l2), start)
        j, j1, t = fine_set.seed
        l2_f, u_f, nodes = _solve(fine_grid, m, n, l2_c + _extrapolated(bias),
                                  u_c[j] + t * (u_c[j1] - u_c[j]))
        coarse_l2.append(l2_c)
        bias.append(l2_f - l2_c)
        lam_f = np.sqrt(max(l2_f, 0.0))
        if lam_f > 0.0 and 2.0 * np.pi / (lam_f * fine_grid.h) < MIN_POINTS_PER_WAVELENGTH:
            raise ResolutionError(
                f"{2.0 * np.pi / (lam_f * fine_grid.h):.1f} points per wavelength at lambda = "
                f"{lam_f:.3g}; need {MIN_POINTS_PER_WAVELENGTH:g} (refine the grid)")
        if nodes != n:
            raise LabelingError(f"m = {m}, eigenindex {n}: counted {nodes} interior nodes "
                                f"at grid {len(fine_grid.r)} (refine the grid)")
        v0 = (4.0 * _at_r0(u_f, fine_set, n) - _at_r0(u_c, coarse_set, n)) / 3.0
        lam = float(np.sqrt(max((4.0 * l2_f - l2_c) / 3.0, 0.0)))
        yield RadialMode(m=m, n=n, ell=abs(m) + n, lam=lam, r=fine_set.r, u=u_f, u_at_r0=v0)


def radial_modes(p: SurfaceProfile, m: int, n_max: int, grid_size: int) -> list:
    """Lowest n_max + 1 radial modes for angular number m, in the order of their node
    count n = 0..n_max, which sign counting verifies: a mismatch raises LabelingError."""
    if n_max < 0:
        raise InvalidParameterError(f"n_max must be >= 0, got {n_max}")
    grids, m = _grids(p, grid_size), int(m)
    return list(_assemble(*grids, [(m, n, pair) for n, pair in
                                   enumerate(_solve_indices(grids[1], m, 0, n_max))]))


def _multiplet(p: SurfaceProfile, ell: int, grid_size: int):
    """The modes m = 0..ell, n = ell - m, of the multiplet at label ell, yielded with vectors."""
    grids = _grids(p, grid_size)
    return _assemble(*grids, [(0, ell, _solve_indices(grids[1], 0, ell, ell)[0])]
                     + [(m, ell - m, None) for m in range(1, ell + 1)])


def joint_slice(p: SurfaceProfile, ell: int, grid_size: int,
                sym: _actions.SymbolFn | None = None) -> JointSlice:
    """The multiplet at label ell: modes n = ell - |m|, |m| <= ell, without vectors, negative m
    mirroring positive m (the radial operator depends on m^2).  Elements of b(r): one dot per mode
    as it is assembled (trapezoid integral of b u^2 a, weights a b h of its node set, ends halved,
    from one sampling of a and b); of chi: one call on every ratio m / lambda."""
    if ell < 1:
        raise InvalidParameterError(f"ell must be >= 1, got {ell}")
    radial, half, dots = sym is not None and sym.kind == "radial_mult", [], []
    for mode in _multiplet(p, ell, grid_size):
        if radial and not half:  # m = 0 comes first, on all nodes
            r = mode.r
            w = np.asarray(p.a(r), float) * np.asarray(sym.fn(r), float) * (r[1] - r[0])
            weights = [np.concatenate(([0.5 * v[0]], v[1:-1], [0.5 * v[-1]])) for v in (w, w[1:-1])]
        if radial:
            dots.append(float(mode.u * mode.u @ weights[mode.m != 0]))
        half.append(replace(mode, r=None, u=None))
    modes = [replace(v, m=-v.m) for v in half[:0:-1]] + half
    elements = np.array(dots[:0:-1] + dots) if radial else None
    if sym is not None and not radial:
        m, lam = np.array([(mode.m, mode.lam) for mode in modes]).T
        if np.any(lam <= 0.0):
            raise InvalidParameterError("angular matrix element needs lambda > 0")
        elements = np.broadcast_to(np.asarray(sym.fn(m / lam), float), m.shape)
    return JointSlice(ell=ell, modes=modes, elements=elements,
                      restricted_norms={mode.m: restricted_norm(mode, p) for mode in modes})


def restricted_norm(mode: RadialMode, p: SurfaceProfile) -> float:
    """Squared L^2 norm of the joint eigenfunction over the equator: with the 1/sqrt(2 pi)
    angular factor the theta integral collapses, leaving a(r0) u(r0)^2."""
    return p.a_r0 * mode.u_at_r0 * mode.u_at_r0


def ebk_residual(modes, ev: _actions.ActionEvaluator) -> np.ndarray:
    """lambda minus the semiclassical K(m, ell + 1/2) = (ell + 1/2) K1(|m| / (ell + 1/2)),
    for each of a sequence of RadialModes, from one K1 lookup."""
    ell, m, lam = np.array([(mode.ell, mode.m, mode.lam) for mode in modes]).T
    return lam - (ell + 0.5) * _actions._unit_torus(ev, np.abs(m) / (ell + 0.5))[0]
