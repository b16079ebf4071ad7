"""Separated radial eigenproblems and equator data of joint eigenfunctions.

Joint eigenfunctions of the Laplacian and the rotation generator have
the form e^{i m theta} u(r) / sqrt(2 pi); u solves the radial problem

    -(1/a) (a u')' + (m^2 / a^2) u = lambda^2 u

with u -> 0 at the poles for m != 0 and zero flux for m = 0.  The
discretization is a flux-conservative second-order scheme on a uniform
grid pulled back from the poles by delta = L / (10 * grid_size), written
as a symmetric tridiagonal pencil with weight a(r) and solved by seeded
Rayleigh-quotient iteration; bisection gives the first coarse pairs and the fallback.
The profile is sampled once per grid size, at nodes and half-points, for all m.

Eigenvalues carry an O(h^2) bias with a smooth coefficient, so every
headline number (lambda^2 and the equator value u(r0)) is Richardson
extrapolated from the requested grid and its half.  Modes are labeled
ell = |m| + n with n the interior node count, checked by sign counting
on every solve.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from . import actions as _actions
from .errors import InvalidParameterError, LabelingError, ResolutionError
from .surface import SurfaceProfile

MIN_GRID = 500
MIN_POINTS_PER_WAVELENGTH = 10.0
# grid entries below this fraction of the max are treated as pole
# underflow when counting sign changes
_NODE_FLOOR = 1e-8
# Rayleigh-quotient steps stop when the quotient moves by <= _RQI_TOL of itself (4 eps
# is never met: the m^2/a^2 pole entries make ||T|| ~ 1e9), or bisect after _RQI_STEPS
_RQI_TOL, _RQI_STEPS = 1e-13, 8


@dataclass(frozen=True, eq=False)
class RadialMode:
    """One radial eigenfunction, normalized so that integral u^2 a dr = 1."""

    m: int
    n: int
    ell: int
    lam: float
    r: np.ndarray
    u: np.ndarray
    u_at_r0: float


@dataclass(frozen=True, eq=False)
class JointSlice:
    """All 2 ell + 1 joint modes with |m| <= ell and n = ell - |m|."""

    ell: int
    modes: list
    restricted_norms: dict
    profile: SurfaceProfile


# A uniform radial grid with the profile sampled once on it: a at the
# grid_size nodes, ah at the grid_size - 1 half-points between them.
_Grid = namedtuple("_Grid", "r h a ah")


def _grids(p: SurfaceProfile, grid_size: int) -> tuple:
    """The fine grid and the half-size grid of the Richardson pair."""
    if grid_size < MIN_GRID:
        raise InvalidParameterError(f"grid_size must be >= {MIN_GRID}, got {grid_size}")
    grids = []
    for n in (grid_size, grid_size // 2):
        delta = p.L / (10.0 * n)
        rs = np.linspace(delta, p.L - delta, n)
        grids.append(_Grid(rs, float(rs[1] - rs[0]), np.asarray(p.a(rs), float),
                           np.asarray(p.a(0.5 * (rs[:-1] + rs[1:])), float)))
    return tuple(grids)


def _tridiagonal(g: _Grid, m: int):
    """Symmetric standard-form tridiagonal of the weighted pencil.

    Half-grid profile values are computed once and reused on both sides
    of each flux, so for m = 0 the constant vector is annihilated
    exactly and lambda^2 = 0 is represented to rounding.  For m != 0 the
    pole nodes are dropped and the fluxes through them stay on the diagonal.
    """
    h2 = g.h * g.h
    ar, ah = (g.a, g.ah) if m == 0 else (g.a[1:-1], g.ah[1:-1])
    diag = np.zeros_like(ar)
    diag[:-1] += ah / h2
    diag[1:] += ah / h2
    if m != 0:
        diag += (m * m) / ar
        diag[0] += g.ah[0] / h2
        diag[-1] += g.ah[-1] / h2
    off = -ah / h2
    sq = np.sqrt(ar)
    return diag / ar, off / (sq[:-1] * sq[1:]), ar, sq


def _count_nodes(u: np.ndarray) -> int:
    big = np.abs(u) > _NODE_FLOOR * np.max(np.abs(u))
    s = np.sign(u[big])
    return int(np.count_nonzero(s[1:] * s[:-1] < 0))


def _normalized(u: np.ndarray, ar: np.ndarray, h: float) -> np.ndarray:
    u = u / np.sqrt(np.trapezoid(ar * u * u, dx=h))
    idx = int(np.argmax(np.abs(u) > 0.01 * np.max(np.abs(u))))
    return u if u[idx] > 0 else -u


def eigh_tridiagonal(d, e, **kwargs):
    """scipy.linalg.eigh_tridiagonal, imported on the first solve, not with revtone."""
    from scipy.linalg import eigh_tridiagonal as solve
    return solve(d, e, **kwargs)


def _solve_indices(g: _Grid, m: int, idx_lo: int, idx_hi: int) -> list:
    """Eigenpairs (lambda^2, u) idx_lo..idx_hi (ascending) on one grid, by bisection."""
    diag, off, ar, sq = _tridiagonal(g, m)
    # tol below LAPACK's floor of 2 ulp; scipy's default eps * ||T||_1 is about 3e-7
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(idx_lo, idx_hi), tol=1e-300)
    return [(float(v), _normalized(x / sq, ar, g.h)) for v, x in zip(vals, vecs.T)]


def _solve(g: _Grid, m: int, n: int, shift: float, u0: np.ndarray, fixed: int) -> tuple:
    """Eigenpair n on one grid from u0: `fixed` inverse steps at `shift`, then Rayleigh
    quotient steps (one dgtsv each); bisection unless they settle on n interior nodes."""
    from scipy.linalg.lapack import dgtsv
    diag, off, ar, sq = _tridiagonal(g, m)
    x, rho = sq * u0, shift
    for step in range(fixed + _RQI_STEPS):
        y, info = dgtsv(off, diag - rho, off, x)[3:]
        if info:
            break
        x = y / np.linalg.norm(y)
        if step >= fixed - 1:
            tx = diag * x
            tx[:-1] += off * x[1:]
            tx[1:] += off * x[:-1]
            last, rho = rho, float(x @ tx)
            if abs(rho - last) <= _RQI_TOL * abs(rho):
                u = _normalized(x / sq, ar, g.h)
                return (rho, u) if _count_nodes(u) == n else _solve_indices(g, m, n, n)[0]
    return _solve_indices(g, m, n, n)[0]


def _interp_at(r: np.ndarray, u: np.ndarray, x: float) -> float:
    """Cubic Lagrange interpolation from the four nearest grid points."""
    i = int(np.searchsorted(r, x))
    i = max(2, min(len(r) - 2, i))
    rj = r[i - 2:i + 2]
    val = 0.0
    for j in range(4):
        lj = 1.0
        for k in range(4):
            if k != j:
                lj *= (x - rj[k]) / (rj[j] - rj[k])
        val += u[i - 2 + j] * lj
    return float(val)


def _check_resolution(lam_max: float, h: float):
    if lam_max > 0.0 and 2.0 * np.pi / (lam_max * h) < MIN_POINTS_PER_WAVELENGTH:
        raise ResolutionError(
            f"{2.0 * np.pi / (lam_max * h):.1f} points per wavelength at lambda = "
            f"{lam_max:.3g}; need {MIN_POINTS_PER_WAVELENGTH:g} (refine the grid)")


def _assemble(p: SurfaceProfile, fine_grid: _Grid, coarse_grid: _Grid, m: int,
              n_lo: int, coarse: list):
    """Richardson-extrapolated modes n = n_lo, n_lo + 1, ..., fine solves seeded by `coarse`."""
    r_f, r_c = (fine_grid.r, coarse_grid.r) if m == 0 else (fine_grid.r[1:-1], coarse_grid.r[1:-1])
    fine = [_solve(fine_grid, m, n_lo + k, l2_c, np.interp(r_f, r_c, u_c), 1)
            for k, (l2_c, u_c) in enumerate(coarse)]
    lam_max = np.sqrt(max(fine[-1][0], 0.0))
    _check_resolution(lam_max, fine_grid.h)
    out = []
    for k, ((l2_f, u_f), (l2_c, u_c)) in enumerate(zip(fine, coarse)):
        n = n_lo + k
        nodes = _count_nodes(u_f)
        if nodes != n:
            raise LabelingError(
                f"m = {m}, eigenindex {n}: counted {nodes} interior nodes "
                f"at grid {len(fine_grid.r)} (refine the grid)")
        l2 = (4.0 * l2_f - l2_c) / 3.0
        v0 = (4.0 * _interp_at(r_f, u_f, p.r0) - _interp_at(r_c, u_c, p.r0)) / 3.0
        lam = float(np.sqrt(max(l2, 0.0)))
        out.append(RadialMode(m=m, n=n, ell=abs(m) + n, lam=lam, r=r_f, u=u_f, u_at_r0=v0))
    return out


def radial_modes(p: SurfaceProfile, m: int, n_max: int, grid_size: int) -> list:
    """Lowest n_max + 1 radial modes for angular number m.

    Eigenvalues ascend with the node count n = 0..n_max; each mode's
    node count is verified by sign counting, and a mismatch raises
    rather than mislabeling.
    """
    if n_max < 0:
        raise InvalidParameterError(f"n_max must be >= 0, got {n_max}")
    grids = _grids(p, grid_size)
    return _assemble(p, *grids, int(m), 0, _solve_indices(grids[1], int(m), 0, n_max))


def joint_slice(p: SurfaceProfile, ell: int, grid_size: int) -> JointSlice:
    """The full multiplet at label ell: modes with n = ell - |m|, |m| <= ell.

    The radial operator depends on m^2 only, so negative m reuses the
    positive-m solve, and every m reuses one sampling of the profile per
    grid size.
    """
    if ell < 1:
        raise InvalidParameterError(f"ell must be >= 1, got {ell}")
    grids = _grids(p, grid_size)
    start = np.random.default_rng(0).standard_normal(grids[1].r.size - 2)
    coarse = _solve_indices(grids[1], 0, ell, ell)
    by_m, shifts = {0: _assemble(p, *grids, 0, ell, coarse)[0]}, [coarse[0][0]] * 2
    for m in range(1, ell + 1):
        # the coarse lambda^2 of the last two m, extrapolated (m = 1 takes that of m = 0)
        pair = _solve(grids[1], m, ell - m, 2.0 * shifts[-1] - shifts[-2], start, 2)
        shifts.append(pair[0])
        by_m[m] = _assemble(p, *grids, m, ell - m, [pair])[0]
    modes = []
    norms = {}
    for m in range(-ell, ell + 1):
        mode = by_m[abs(m)] if m >= 0 else replace(by_m[-m], m=m)
        modes.append(mode)
        norms[m] = restricted_norm(mode, p)
    return JointSlice(ell=ell, modes=modes, restricted_norms=norms, profile=p)


def restricted_norm(mode: RadialMode, p: SurfaceProfile) -> float:
    """Squared L^2 norm of the joint eigenfunction over the equator.

    With the 1/sqrt(2 pi) angular factor the theta integral collapses
    and the norm is a(r0) * u(r0)^2.
    """
    return p.a_r0 * mode.u_at_r0 * mode.u_at_r0


def matrix_element_radial(mode: RadialMode, b, p: SurfaceProfile) -> float:
    """Diagonal matrix element of multiplication by b(r)."""
    ar = np.asarray(p.a(mode.r), float)
    br = np.asarray(b(mode.r), float)
    return float(np.trapezoid(br * mode.u * mode.u * ar, mode.r))


def radial_matrix_elements(slice_: JointSlice, b) -> list:
    """matrix_element_radial of each mode of a slice, in its order m = -ell..ell, from
    one sampling of a and b and one integral per |m| (the modes +-m share u)."""
    zonal = slice_.modes[slice_.ell]
    ar, br = np.asarray(slice_.profile.a(zonal.r), float), np.asarray(b(zonal.r), float)
    half = [float(np.trapezoid(br[k] * mode.u * mode.u * ar[k], mode.r)) for mode, k in
            zip(slice_.modes[slice_.ell:], [slice(None)] + [slice(1, -1)] * slice_.ell)]
    return half[:0:-1] + half


def matrix_element_angular(mode: RadialMode, chi) -> float:
    """Diagonal matrix element of chi applied to the momentum ratio m/lambda."""
    if mode.lam <= 0.0:
        raise InvalidParameterError("angular matrix element needs lambda > 0")
    return float(chi(mode.m / mode.lam))


def ebk_residual(modes, ev: _actions.ActionEvaluator):
    """lambda minus the semiclassical K(m, ell + 1/2) = (ell + 1/2) K1(|m| / (ell + 1/2)),
    for one RadialMode, or as an array for a sequence of them from one K1 lookup."""
    ell, m, lam = np.array([(mode.ell, mode.m, mode.lam) for mode in np.ravel(modes)]).T
    res = lam - (ell + 0.5) * _actions._unit_torus(ev, np.abs(m) / (ell + 0.5))[0]
    return res if np.ndim(modes) else float(res[0])
