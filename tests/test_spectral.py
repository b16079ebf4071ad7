import dataclasses
import functools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import revtone
from revtone import actions, cli, spectral
from revtone import (
    ConvergenceError,
    InvalidParameterError,
    LabelingError,
    ResolutionError,
    angular_symbol,
    ebk_residual,
    joint_slice,
    make_custom,
    make_ellipsoid,
    radial_modes,
    radial_symbol,
    restricted_norm,
)

import oracles


def _multiplet(p, ell, grid_size):
    """The modes m = 0..ell that joint_slice(p, ell, grid_size) is built from, with vectors."""
    return list(spectral._multiplet(p, ell, grid_size))


def _recount_sign_changes(u):
    live = np.abs(u) > 1e-8 * np.max(np.abs(u))
    signs = np.sign(u[live])
    return int(np.sum(signs[:-1] * signs[1:] < 0))


# --- eigenvalues -----------------------------------------------------------

def test_sphere_zonal_ladder(sphere):
    modes = radial_modes(sphere, 0, 2, 4000)
    assert abs(modes[0].lam ** 2) <= 1e-6
    assert modes[1].lam ** 2 == pytest.approx(2.0, rel=1e-6)
    assert modes[2].lam ** 2 == pytest.approx(6.0, rel=1e-6)


def test_sphere_m2_ladder(sphere):
    modes = radial_modes(sphere, 2, 1, 4000)
    assert modes[0].lam ** 2 == pytest.approx(6.0, rel=1e-6)
    assert modes[1].lam ** 2 == pytest.approx(12.0, rel=1e-6)


def test_spectrum_symmetric_in_m(sphere):
    plus = radial_modes(sphere, 5, 3, 2000)
    minus = radial_modes(sphere, -5, 3, 2000)
    for mp, mm in zip(plus, minus):
        assert abs(mp.lam - mm.lam) <= 1e-12
        assert mm.m == -5 and mp.ell == mm.ell


def test_eigenvalues_increase_with_n(ell13):
    modes = radial_modes(ell13, 3, 6, 2000)
    lams = [mode.lam for mode in modes]
    assert all(b > a for a, b in zip(lams, lams[1:]))


def test_grid_convergence_order(sphere):
    # second-order scheme plus extrapolation: successive changes under
    # grid doubling must shrink at least quadratically
    lams = [radial_modes(sphere, 3, 7, g)[7].lam for g in (500, 1000, 2000)]
    d1 = abs(lams[0] - lams[1])
    d2 = abs(lams[1] - lams[2])
    order = np.log2(d1 / d2)
    assert order >= 1.8


def test_mode_invariants(sphere, ell13, ell13_slices):
    modes = list(radial_modes(sphere, 2, 5, 2000)) + _multiplet(ell13, 25, 4000)
    # the slice keeps the multiplet's numbers, and no vectors
    for mode, ref in zip(ell13_slices[25].modes[25:], modes[6:]):
        assert (mode.m, mode.n, mode.lam, mode.u_at_r0) == (ref.m, ref.n, ref.lam, ref.u_at_r0)
        assert mode.r is None and mode.u is None
    for mode in modes:
        assert mode.lam >= 0.0
        assert mode.ell == abs(mode.m) + mode.n
        assert _recount_sign_changes(mode.u) == mode.n


def test_mode_normalization(sphere):
    for mode in radial_modes(sphere, 1, 3, 2000):
        h = mode.r[1] - mode.r[0]
        mass = np.trapezoid(np.sin(mode.r) * mode.u ** 2, dx=h)
        assert mass == pytest.approx(1.0, abs=1e-8)


def test_grid_size_validated(sphere):
    with pytest.raises(InvalidParameterError):
        radial_modes(sphere, 0, 2, 400)


def test_radial_modes_requires_non_negative_n_max(sphere):
    with pytest.raises(InvalidParameterError, match="n_max must be >= 0, got -1"):
        radial_modes(sphere, 0, -1, 1000)


def test_resolution_guard_fires(sphere):
    # lambda ~ 110 at grid 500 leaves fewer than 10 points per wavelength
    with pytest.raises(ResolutionError):
        radial_modes(sphere, 0, 110, 500)


# --- joint slices ----------------------------------------------------------

def test_sphere_ell1_multiplet(sphere, sphere_ev):
    sl = joint_slice(sphere, 1, 2000)
    assert sl.ell == 1 and len(sl.modes) == 3
    assert sorted(mode.m for mode in sl.modes) == [-1, 0, 1]
    for mode in sl.modes:
        assert mode.lam ** 2 == pytest.approx(2.0, rel=1e-6)
        assert mode.n == 1 - abs(mode.m)
    assert sl.restricted_norms[0] <= 1e-12
    assert sl.restricted_norms[1] == pytest.approx(0.75, abs=1e-6)
    assert sl.restricted_norms[-1] == pytest.approx(0.75, abs=1e-6)


def test_sphere_ell10_degenerate(sphere, sphere_ev):
    sl = joint_slice(sphere, 10, 4000)
    assert len(sl.modes) == 21
    for mode in sl.modes:
        assert mode.lam ** 2 == pytest.approx(110.0, rel=1e-6)


def test_ellipsoid_multiplet_splits(ell13_slices):
    sl = ell13_slices[25]
    lams = {mode.m: mode.lam for mode in sl.modes}
    assert len({round(v, 6) for v in lams.values()}) > 3
    for m in range(1, 26):
        assert abs(lams[m] - lams[-m]) <= 1e-12
        assert sl.restricted_norms[m] == sl.restricted_norms[-m]


def test_joint_slice_requires_positive_ell(sphere, sphere_ev):
    with pytest.raises(InvalidParameterError):
        joint_slice(sphere, 0, 2000)


def test_joint_slice_samples_profile_once_per_grid(sphere, sphere_ev):
    # nodes and half-points of [0, L/2] on the fine and the half-size grid, for all 26 m
    calls = []

    def a(r):
        if np.ndim(r) > 0:
            calls.append(np.size(r))
        return sphere.a(r)

    slice_ = joint_slice(dataclasses.replace(sphere, a=a), 25, 4000)
    assert len(slice_.modes) == 51
    assert sorted(calls) == [1000, 1000, 2000, 2000]


def test_joint_slice_deterministic(sphere, sphere_ev):
    a = joint_slice(sphere, 6, 1000)
    b = joint_slice(sphere, 6, 1000)
    for ma, mb in zip(a.modes, b.modes):
        assert ma.lam == mb.lam
    assert a.restricted_norms == b.restricted_norms
    for ma, mb in zip(_multiplet(sphere, 6, 1000), _multiplet(sphere, 6, 1000)):
        assert ma.lam == mb.lam
        assert np.array_equal(ma.u, mb.u)


def _count_bisections(monkeypatch):
    calls = []
    bisect = spectral.eigh_tridiagonal
    monkeypatch.setattr(spectral, "eigh_tridiagonal", lambda d, e, select_range: calls.append(
        len(d)) or bisect(d, e, select_range))
    return calls


@pytest.mark.parametrize("profile, ell, step", [("sphere", 200, 20), ("ell13", 100, 10)])
def test_fine_eigenvalues_match_tight_bisection(request, monkeypatch, profile, ell, step):
    # the fine-grid lambda^2 that joint_slice extrapolates from, against LAPACK
    # bisection run to its 2 ulp floor on the whole, unsplit pencil
    from scipy.linalg import eigh_tridiagonal
    p = request.getfixturevalue(profile)
    found = {}
    solve = spectral._solve

    def record(g, m, n, *args):
        pair = solve(g, m, n, *args)
        if len(g.r) == 4000:
            found[m] = pair[0]
        return pair

    monkeypatch.setattr(spectral, "_solve", record)
    joint_slice(p, ell, 4000)
    assert sorted(found) == list(range(ell + 1))
    for m in range(0, ell + 1, step):
        pen = oracles.full_radial_pencil(p, 4000, m)
        exact = eigh_tridiagonal(pen.diag, pen.off, eigvals_only=True, select="i",
                                 select_range=(ell - m, ell - m), tol=1e-300)[0]
        assert abs(found[m] - exact) <= 1e-13 * exact


def test_eigenvalues_steady_under_last_bit_of_profile(ell13, ell13_slices):
    # every profile value one ulp up: bisection to eps * ||T|| moved lambda^2 by
    # up to 1.3e-10 relative under changes this small
    nudged = dataclasses.replace(ell13, a=lambda r: np.nextafter(ell13.a(r), np.inf))
    for mode, moved in zip(ell13_slices[50].modes, joint_slice(nudged, 50, 4000).modes):
        assert abs(moved.lam ** 2 - mode.lam ** 2) <= 1e-13 * mode.lam ** 2


def test_bad_seed_falls_back_to_labelled_bisection(sphere, sphere_ev, monkeypatch):
    # from shift 0 and a vector without nodes, inverse iteration settles on
    # n = 0, so the m = 3, n = 7 solves must fall back to bisection
    good = joint_slice(sphere, 10, 2000)
    solve = spectral._solve

    def bad_seed(g, m, n, shift, u0):
        return solve(g, m, n, *((0.0, np.ones_like(u0)) if m == 3 else (shift, u0)))

    monkeypatch.setattr(spectral, "_solve", bad_seed)
    calls = _count_bisections(monkeypatch)
    modes = _multiplet(sphere, 10, 2000)
    assert len(calls) == 3  # m = 0 on the coarse grid, m = 3 on both grids
    for mode, ref in zip(modes, good.modes[10:]):
        assert (mode.m, mode.n, mode.ell) == (ref.m, ref.n, ref.ell)
        assert _recount_sign_changes(mode.u) == mode.n
        assert abs(mode.lam - ref.lam) <= 1e-12 * ref.lam


def test_solve_bisects_when_the_steps_do_not_settle(sphere, monkeypatch):
    # one Rayleigh-quotient step from a start without nodes cannot settle on n = 7, so the
    # solve returns the bisection pair
    fine, _ = spectral._grids(sphere, 4000)
    ref = spectral._solve_indices(fine, 3, 7, 7)[0]
    monkeypatch.setattr(spectral, "_RQI_STEPS", 1)
    calls = _count_bisections(monkeypatch)
    l2, u, nodes = spectral._solve(fine, 3, 7, 0.95 * ref[0], np.ones(fine.sets[1].sq.size))
    assert calls == [len(fine.sets[1].diag)]
    assert l2 == ref[0] and np.array_equal(u, ref[1]) and nodes == ref[2] == 7


def test_coarse_start_is_drawn_once_per_size(sphere, monkeypatch):
    # every coarse solve of a missing pair starts from the same Gaussian draws of
    # random.Random(0), drawn on the first slice of each coarse size only
    monkeypatch.setattr(spectral, "_gauss_start", functools.lru_cache(
        spectral._gauss_start.__wrapped__))
    for ell in (3, 4, 5):
        joint_slice(sphere, ell, 1000)
    joint_slice(sphere, 3, 2000)
    info = spectral._gauss_start.cache_info()
    assert (info.misses, info.hits) == (2, 2)
    rng = random.Random(0)
    assert np.array_equal(spectral._gauss_start(499), [rng.gauss(0.0, 1.0) for _ in range(499)])


def test_node_count_mismatch_raises_labeling_error(sphere, monkeypatch):
    # every count one off: the Rayleigh-quotient solves fall back to bisection,
    # and the bisection pairs then fail the label check
    count = spectral._lobe_and_nodes
    monkeypatch.setattr(spectral, "_lobe_and_nodes", lambda u: (count(u)[0], count(u)[1] + 1))
    with pytest.raises(LabelingError):
        radial_modes(sphere, 2, 3, 1000)


@pytest.mark.parametrize("profile", ["sphere", "ell13"])
def test_joint_slice_bisects_at_most_twice(request, monkeypatch, profile):
    # seeded Rayleigh-quotient solves leave bisection to m = 0 on the coarse grid
    p = request.getfixturevalue(profile)
    calls = _count_bisections(monkeypatch)
    joint_slice(p, 50, 4000)
    assert len(calls) <= 2


def test_small_eigenvalues_stop_without_bisection(sphere, ell13, monkeypatch):
    # lambda^2 from 2 to about 30: the quotient's rounding, 1e-12 to 1e-11 absolute, is
    # above 1e-13 of it, so only the rounding floor lets these solves stop
    calls = _count_bisections(monkeypatch)
    radial_modes(sphere, 0, 10, 4000)
    radial_modes(ell13, 3, 10, 4000)
    assert calls == [1000, 1000, 999, 999]  # the coarse grid of each, once per parity


@pytest.mark.parametrize("aspect, bound", [(0.5, 2), (1.3, 2), (5.0, 2), (10.0, 3)])
def test_ellipsoid_multiplets_seldom_bisect(monkeypatch, aspect, bound):
    # m = 0 on the coarse grid, and few fallbacks at ell = 25, 50 and 100: each coarse solve
    # starts from the same Gaussian draws, each fine one from its coarse vector.  At aspect 10
    # the coarse lambda^2(m) bends faster than the gap to the next n, so a shift extrapolated
    # linearly in m lands nearer a neighbour (15 fallbacks at ell 50)
    p = make_ellipsoid(aspect)
    calls = _count_bisections(monkeypatch)
    for ell in (25, 50, 100):
        calls.clear()
        modes = _multiplet(p, ell, 4000)
        assert len(calls) <= bound, (ell, calls)
        assert all(_recount_sign_changes(mode.u) == mode.n for mode in modes)


def test_sphere_multiplet_bisects_only_its_zonal_coarse_pair(sphere, monkeypatch):
    # at ell = 200 the fine m = 22 solve meets an exactly zero centre pivot; the moved shift
    # keeps it a Rayleigh-quotient solve
    bisected = []
    solve_indices = spectral._solve_indices
    monkeypatch.setattr(spectral, "_solve_indices", lambda g, m, lo, hi: bisected.append(
        (len(g.r), m)) or solve_indices(g, m, lo, hi))
    joint_slice(sphere, 200, 4000)
    assert bisected == [(2000, 0)]


def test_singular_pivot_moves_the_shift_instead_of_bisecting(sphere, monkeypatch):
    # dgtsv reporting a zero last pivot (info = N) on one step: the shift moves off by the
    # rounding floor and the step is taken again, without a fallback to bisection
    fine, coarse = spectral._grids(sphere, 4000)
    (l2_c, u_c, _), = spectral._solve_indices(coarse, 3, 7, 7)
    j, j1, t = fine.sets[1].seed
    u0 = u_c[j] + t * (u_c[j1] - u_c[j])
    l2_ref, u_ref, _ = spectral._solve(fine, 3, 7, l2_c, u0)
    lapack = spectral._lapack()
    failed = []

    def dgtsv(*args, **kwargs):
        out = lapack.dgtsv(*args, **kwargs)
        if failed:
            return out
        failed.append(len(args[1]))
        return (*out[:4], len(args[1]))

    monkeypatch.setattr(spectral, "_lapack", lambda: SimpleNamespace(
        dgtsv=dgtsv, dstebz=lapack.dstebz, dstein=lapack.dstein))
    monkeypatch.setattr(spectral, "_solve_indices", lambda *args: pytest.fail("bisected"))
    l2, u, nodes = spectral._solve(fine, 3, 7, l2_c, u0)
    assert failed == [1999] and nodes == 7
    assert abs(l2 - l2_ref) <= 1e-13 * l2_ref
    # each solve stops at a residual of 1e-13 lambda^2 = 1.1e-11, which leaves its vector off by
    # up to that over the gap of 20 to n = 6 and 8
    assert np.max(np.abs(u - u_ref)) <= 2e-12 * np.max(np.abs(u_ref))


def _lagrange_at(r, u, x):
    """u(x) by cubic Lagrange interpolation from the four nearest nodes, summed in a loop."""
    i = max(2, min(len(r) - 2, int(np.searchsorted(r, x))))
    val = 0.0
    for j in range(4):
        lj = 1.0
        for k in range(4):
            if k != j:
                lj *= (x - r[i - 2 + k]) / (r[i - 2 + j] - r[i - 2 + k])
        val += u[i - 2 + j] * lj
    return float(val)


@pytest.mark.parametrize("profile, ell", [("sphere", 50), ("sphere", 200), ("ell13", 25),
                                          ("ell13", 100)])
def test_rayleigh_quotient_pairs_match_tight_bisection(request, monkeypatch, profile, ell):
    # every pair the Rayleigh-quotient solves return, on both grids, against LAPACK
    # bisection to its 2 ulp floor with inverse-iteration vectors on the whole, unsplit pencil
    p = request.getfixturevalue(profile)
    pairs = []
    solve = spectral._solve

    def record(g, m, n, *args):
        pairs.append((g, m, n, solve(g, m, n, *args)))
        return pairs[-1][3]

    monkeypatch.setattr(spectral, "_solve", record)
    joint_slice(p, ell, 4000)
    assert len(pairs) == 2 * ell + 1  # coarse for m >= 1, fine for every m
    for g, m, n, (l2, u, nodes) in pairs:
        pen, node_set = oracles.full_radial_pencil(p, len(g.r), m), g.sets[m != 0]
        vals, vecs = spectral.eigh_tridiagonal(pen.diag, pen.off, select_range=(n, n))
        ref = vecs[:, 0] / pen.sq
        ref /= np.sqrt(np.trapezoid(pen.a * ref * ref, dx=g.h))
        ref = ref if ref @ u > 0 else -ref
        assert abs(l2 - vals[0]) <= 5e-13 * vals[0]
        assert spectral._at_r0(u, node_set, n) == (0.0 if n % 2 else _lagrange_at(pen.r, u, p.r0))
        assert abs(_lagrange_at(pen.r, u, p.r0) - _lagrange_at(pen.r, ref, p.r0)) <= 1e-11


def test_sphere_multiplet_dgtsv_budget(sphere, monkeypatch):
    # 826 calls at ell = 200 (about two per Rayleigh-quotient solve: coarse m >= 1, fine every
    # m), plus about 5 %, each on half a node set: zonal or interior, fine or coarse
    lapack = spectral._lapack()
    calls = []

    def dgtsv(*args, **kwargs):
        calls.append(len(args[1]))
        return lapack.dgtsv(*args, **kwargs)

    monkeypatch.setattr(spectral, "_lapack", lambda: SimpleNamespace(
        dgtsv=dgtsv, dstebz=lapack.dstebz, dstein=lapack.dstein))
    joint_slice(sphere, 200, 4000)
    assert len(calls) <= 866
    assert set(calls) <= {2000, 1999, 1000, 999}


@pytest.mark.parametrize("profile", ["sphere", "ell13"])
@pytest.mark.parametrize("ell", [25, 100, 200])
def test_split_pencils_keep_the_whole_pencils_eigenvalues(request, profile, ell):
    # bisection in the sector of n's parity against bisection on the whole, unsplit
    # pencil, both to LAPACK's 2 ulp floor, on the fine and the coarse grid.  A Sturm count
    # resolves lambda^2 only to about eps sum_i T_ii x_i^2 (7e-10 on the fine grid: the
    # two differ by 2^-32 = 3.6e-13 relative at ell = 25), so that floors the bound
    p = request.getfixturevalue(profile)
    for g in spectral._grids(p, 4000):
        assert all(node_set.ec is not None for node_set in g.sets)
        for m in range(0, ell + 1, max(1, ell // 25)):
            (l2, u, nodes), = spectral._solve_indices(g, m, ell - m, ell - m)
            pen = oracles.full_radial_pencil(p, len(g.r), m)
            vals, vecs = spectral.eigh_tridiagonal(pen.diag, pen.off, (ell - m, ell - m))
            floor = np.finfo(float).eps * (pen.diag @ vecs[:, 0] ** 2)
            assert nodes == ell - m
            assert abs(l2 - vals[0]) <= max(1e-13 * vals[0], floor)


@pytest.mark.parametrize("profile", ["sphere", "ell13"])
def test_split_slices_match_unsplit_ones(request, profile):
    # the constructor's profile splits by parity; its own a, a1, a2 through make_custom do
    # not.  At grid 2001 the fine grid has an odd node count and takes the whole pencil.
    # u(r0) carries rounding of up to 5e-12 on either path (the unsplit odd modes, whose
    # u(r0) is 0 in exact arithmetic, show it), so the norms a(r0) u(r0)^2, with |u(r0)|
    # up to 1.7, agree to 2e-11 absolute.  Negative m mirrors these modes in a slice
    p = request.getfixturevalue(profile)
    whole_profile = make_custom(p.a, p.a1, p.a2, p.L, r0=p.r0)
    assert p.mirror and not whole_profile.mirror
    for ell, grid in ((25, 4000), (100, 4000), (25, 2001), (100, 2001)):
        split, whole = _multiplet(p, ell, grid), _multiplet(whole_profile, ell, grid)
        for mode, ref in zip(split, whole):
            assert (mode.m, mode.n, mode.ell) == (ref.m, ref.n, ref.ell)
            assert _recount_sign_changes(mode.u) == mode.n
            assert abs(mode.lam - ref.lam) <= 1e-13 * ref.lam
            norm = restricted_norm(mode, p)
            assert abs(norm - restricted_norm(ref, whole_profile)) <= 2e-11
            if grid % 2 == 0 and mode.n % 2:
                assert norm == 0.0


# --- restricted norms and matrix elements ----------------------------------

def test_restricted_norm_closed_forms(sphere, sphere_ev):
    sl1 = joint_slice(sphere, 1, 4000)
    sl2 = joint_slice(sphere, 2, 4000)
    assert sl1.restricted_norms[0] == pytest.approx(
        oracles.EXACT_EQUATOR_NORMS[(1, 0)], abs=1e-8)
    assert sl1.restricted_norms[1] == pytest.approx(
        oracles.EXACT_EQUATOR_NORMS[(1, 1)], abs=1e-6)
    assert sl2.restricted_norms[0] == pytest.approx(
        oracles.EXACT_EQUATOR_NORMS[(2, 0)], abs=1e-6)
    assert sl2.restricted_norms[2] == pytest.approx(
        oracles.EXACT_EQUATOR_NORMS[(2, 2)], abs=1e-6)


def test_restricted_norm_parity_zeros(sphere, sphere_ev):
    # u is odd about the equator when ell - |m| is odd
    sl = joint_slice(sphere, 7, 2000)
    for mode in sl.modes:
        if (sl.ell - abs(mode.m)) % 2 == 1:
            assert restricted_norm(mode, sphere) <= 1e-12


def test_weyl_mass_doubles(sphere, sphere_ev):
    mass = {}
    for ell in (50, 100):
        sl = joint_slice(sphere, ell, 2000)
        mass[ell] = sum(sl.restricted_norms.values())
    assert mass[100] / mass[50] == pytest.approx(2.0, rel=0.10)


def test_matrix_element_radial_basics(sphere, sphere_ev):
    zonal = _multiplet(sphere, 1, 2000)[0]
    assert oracles.matrix_element_radial(zonal, lambda r: np.ones_like(r), sphere) \
        == pytest.approx(1.0, abs=1e-8)
    # integrand odd about the equator
    assert abs(oracles.matrix_element_radial(zonal, np.cos, sphere)) <= 1e-8


def test_gaussian_beam_avoids_polar_bump(sphere, sphere_ev):
    # mass of the m = ell mode concentrates at the equator, so a bump
    # supported near the pole sees almost none of it
    beam = _multiplet(sphere, 20, 2000)[20]

    def bump(r):
        return np.exp(-((r - np.pi / 8) / (np.pi / 16)) ** 2)

    assert oracles.matrix_element_radial(beam, bump, sphere) <= 1e-3


def test_radial_matrix_elements_match_per_mode(ell13, ell13_slices):
    samples = []

    def b(r):
        samples.append(np.size(r))
        return np.cos(r) ** 2

    # one dot with precomputed weights sums in another order than np.trapezoid, and takes h
    # once instead of each node gap: float64 rounding of sums of 4000 positive terms, which
    # typically stays near sqrt(4000) eps = 7e-15 relative (8e-16 measured)
    sl = joint_slice(ell13, 25, 4000, radial_symbol(b))
    assert samples == [4000]
    assert [mode.lam for mode in sl.modes] == [mode.lam for mode in ell13_slices[25].modes]
    modes = _multiplet(ell13, 25, 4000)
    for value, mode in zip(sl.elements, sl.modes):
        ref = oracles.matrix_element_radial(modes[abs(mode.m)], b, ell13)
        assert abs(value - ref) <= 1e-14 * abs(ref)


def test_angular_matrix_elements_need_positive_lambda(sphere, monkeypatch):
    multiplet = spectral._multiplet
    monkeypatch.setattr(spectral, "_multiplet", lambda *args: (
        dataclasses.replace(mode, lam=0.0) if mode.m == 0 else mode for mode in multiplet(*args)))
    with pytest.raises(InvalidParameterError, match="needs lambda > 0"):
        joint_slice(sphere, 2, 1000, angular_symbol(lambda s: s))


def test_angular_matrix_elements_values(sphere):
    calls = []

    def slice_(chi):
        return joint_slice(sphere, 10, 4000, angular_symbol(lambda s: calls.append(s) or chi(s)))

    beam, zonal = 20, 10
    assert slice_(lambda s: s).elements[beam] == pytest.approx(10 / np.sqrt(110), abs=1e-5)
    assert np.all(slice_(lambda s: 1.0).elements == 1.0)
    assert slice_(lambda s: s * s).elements[zonal] == 0.0
    # in the slice's order, each the ratio of its own mode, from one call of chi per slice
    sl = slice_(lambda s: s)
    assert np.array_equal(sl.elements, [mode.m / mode.lam for mode in sl.modes])
    assert len(calls) == 4


def test_joint_slice_keeps_no_vectors(sphere):
    # a slice's traced peak is its grids and one mode's vectors at a time: 26.4 MiB while
    # every mode's fine vector was kept, 2.0 MiB without; the warm-up slice draws the
    # coarse start vector of this grid size
    joint_slice(sphere, 2, 8000)
    tracemalloc.start()
    try:
        sl = joint_slice(sphere, 400, 8000, radial_symbol(np.cos))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sl.modes) == 801 and sl.elements.shape == (801,)
    assert all(mode.r is None and mode.u is None for mode in sl.modes)
    assert peak <= 4 * 2 ** 20, peak


# --- the Rayleigh-Ritz oracle on ellipsoids --------------------------------

@pytest.mark.parametrize("ell", [5, 25, 100])
def test_ritz_oracle_sphere_identity(ell):
    for m in (0, 1, ell // 2, ell):
        lam2, norm = oracles.ritz_modes(1.0, m, ell - m)
        assert lam2 == pytest.approx(ell * (ell + 1.0), rel=1e-12)
        assert norm == pytest.approx(oracles.equator_norm(ell, m), abs=1e-12)


@pytest.mark.parametrize("aspect", [0.5, 1.3, 5.0])
def test_ritz_oracle_converges(aspect):
    # what the oracle accepts at ell = 100 (n + 160, or n + 240 at aspect 5) agrees with
    # the largest basis it allows, n + 400
    for m in (0, 50, 100):
        lam2, norm = oracles.ritz_modes(aspect, m, 100 - m)
        ref_lam2, ref_norm = oracles._ritz(aspect, m, 100 - m, 500 - m)
        assert abs(lam2 - ref_lam2) <= 1e-12 * ref_lam2 and abs(norm - ref_norm) <= 1e-11


def test_ritz_oracle_raises_when_the_basis_does_not_settle(monkeypatch):
    monkeypatch.setattr(oracles, "_ritz", lambda q, m, n, K: (float(K), 0.0))
    with pytest.raises(ArithmeticError, match="at K = n \\+ 400"):
        oracles.ritz_modes.__wrapped__(2.0, 0, 3)


# max over every m of joint_slice's grid-4000 error against the oracle, doubled:
# lambda^2 relative and restricted norm absolute
_RITZ_BOUNDS = {
    (0.5, 25): (3.2e-8, 4.2e-8), (0.5, 50): (1.1e-7, 8.0e-7), (0.5, 100): (2.8e-7, 1.3e-5),
    (1.3, 25): (3.2e-8, 2.8e-8), (1.3, 50): (1.1e-7, 5.4e-7), (1.3, 100): (2.4e-7, 8.2e-6),
    (5.0, 25): (3.2e-8, 1.3e-8), (5.0, 50): (1.1e-7, 2.8e-7), (5.0, 100): (3.4e-7, 5.0e-6),
}


@pytest.mark.parametrize("aspect", [0.5, 1.3, 5.0])
def test_joint_slice_within_bounds_of_ritz_oracle(aspect, ell13, ell13_slices):
    p = ell13 if aspect == 1.3 else make_ellipsoid(aspect)
    for ell in (25, 50, 100):
        sl = ell13_slices[ell] if aspect == 1.3 else joint_slice(p, ell, 4000)
        bound_lam2, bound_norm = _RITZ_BOUNDS[aspect, ell]
        for m in (k * ell // 10 for k in range(11)):
            lam2, norm = oracles.ritz_modes(aspect, m, ell - m)
            assert abs(sl.modes[ell + m].lam ** 2 / lam2 - 1.0) <= bound_lam2, (ell, m)
            assert abs(sl.restricted_norms[m] - norm) <= bound_norm, (ell, m)


# --- semiclassical residuals -----------------------------------------------

def test_ebk_residual_sphere(sphere, sphere_ev):
    modes10 = radial_modes(sphere, 0, 10, 4000)
    res10 = ebk_residual(modes10[10:], sphere_ev)[0]
    assert res10 == pytest.approx(np.sqrt(110.0) - 10.5, abs=1e-5)
    modes100 = radial_modes(sphere, 0, 100, 4000)
    res100 = ebk_residual(modes100[100:], sphere_ev)[0]
    assert res100 == pytest.approx(np.sqrt(10100.0) - 100.5, abs=1e-4)


def test_ebk_residual_reads_k1_without_inversions(ell13_ev, ell13_slices, monkeypatch):
    actions.k1_series(ell13_ev)
    calls = []
    energy = actions.energy_K
    monkeypatch.setattr(actions, "energy_K",
                        lambda ev, c, I2: calls.append(c) or energy(ev, c, I2))
    residuals = ebk_residual(ell13_slices[25].modes, ell13_ev)
    assert calls == [] and np.max(np.abs(residuals)) <= 0.05


def test_ebk_residual_shrinks_on_ellipsoid(ell13, ell13_ev):
    res = {}
    for ell in (10, 20, 40):
        mode = radial_modes(ell13, 0, ell, 4000)[ell]
        res[ell] = abs(ebk_residual([mode], ell13_ev)[0])
    assert res[40] <= 0.05
    assert res[40] < res[20] < res[10]


# --- LAPACK ----------------------------------------------------------------

def test_solves_leave_the_scipy_linalg_package_unimported():
    # LAPACK is loaded from scipy's f2py module alone, and a later import of
    # scipy.linalg reuses that module; start vectors come from the standard library
    src = os.path.dirname(os.path.dirname(revtone.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, revtone\n"
            "from revtone import spectral\n"
            "revtone.radial_modes(revtone.make_round_sphere(), 0, 1, 500)\n"
            "revtone.joint_slice(revtone.make_ellipsoid(1.3), 5, 500)\n"
            "loaded = {'scipy.linalg', 'scipy._lib._array_api', 'numpy.f2py', 'numpy.random'}\n"
            "loaded &= set(sys.modules)\n"
            "assert not loaded, loaded\n"
            "import scipy.linalg\n"
            "assert scipy.linalg.lapack.dgtsv is spectral._lapack().dgtsv\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("profile, which, m, select_range",
                         [("sphere", 1, 0, (10, 10)), ("ell13", 0, 3, (4, 6))])
def test_eigh_tridiagonal_matches_scipy_bit_for_bit(request, profile, which, m, select_range):
    from scipy.linalg import eigh_tridiagonal
    grid = spectral._grids(request.getfixturevalue(profile), 2000)[which]
    diag, off = spectral._tridiagonal(grid, m, 0)[:2]
    vals, vecs = spectral.eigh_tridiagonal(diag, off, select_range=select_range)
    ref_vals, ref_vecs = eigh_tridiagonal(diag, off, select="i", select_range=select_range,
                                          tol=1e-300)
    assert vals.shape == (select_range[1] - select_range[0] + 1,)
    assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)


def test_public_lapack_module_when_the_extension_is_not_found(sphere, monkeypatch):
    import scipy.linalg
    good, good_modes = joint_slice(sphere, 6, 1000), _multiplet(sphere, 6, 1000)
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(spectral, "machinery",
                        SimpleNamespace(PathFinder=SimpleNamespace(find_spec=lambda *args: None)))
    assert spectral._lapack() is scipy.linalg.lapack
    sl = joint_slice(sphere, 6, 1000)
    for mode, ref in zip(_multiplet(sphere, 6, 1000), good_modes):
        assert (mode.m, mode.n, mode.lam, mode.u_at_r0) == (ref.m, ref.n, ref.lam, ref.u_at_r0)
        assert np.array_equal(mode.u, ref.u)
    assert sl.restricted_norms == good.restricted_norms


def test_lapack_failures_raise_convergence_error(tmp_path, capsys, monkeypatch):
    d, e = np.full(5, 2.0), np.full(4, -1.0)
    with pytest.raises(ConvergenceError):
        spectral.eigh_tridiagonal(np.where(np.arange(5) == 2, np.nan, d), e,
                                  select_range=(0, 0))
    failing = SimpleNamespace(dstebz=lambda *args: (0, np.zeros(5), np.zeros(5, np.int32),
                                                    np.zeros(5, np.int32), 1))
    monkeypatch.setattr(spectral, "_lapack", lambda: failing)
    with pytest.raises(ConvergenceError, match="dstebz"):
        spectral.eigh_tridiagonal(d, e, select_range=(0, 0))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("profile.kind = round_sphere\nspectral.grid_size = 500\n"
                   f"run.command = spectrum\nrun.ells = 2\nrun.out_dir = {tmp_path}\n")
    capsys.readouterr()
    assert cli.main(["--config", str(cfg)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "spectrum: ell = 2 failed: LAPACK dstebz failed (info = 1)"]
    assert "ConvergenceError" in json.loads((tmp_path / "errors.json").read_text())["2"]
