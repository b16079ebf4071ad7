import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revtone import (
    ActionEvaluator,
    ConvergenceError,
    DegenerateTorusError,
    InvalidParameterError,
    OutsideMomentImageError,
    OutsideOpenIntervalError,
    SymbolFn,
    action_I2,
    angular_symbol,
    dI2_dc,
    dI2_dE,
    di2_drho_fd,
    energy_K,
    frequencies,
    limit_density_unnorm,
    liouville_state,
    normalization_M,
    phase_space_symbol,
    radial_symbol,
    torus_average,
    turning_points,
)
from revtone import actions, surface
from revtone.actions import equator_momentum
from revtone.measures import limit_measure_mu, limit_measure_nu
from revtone.spectral import RadialMode, ebk_residual
from revtone.surface import make_ellipsoid, make_round_sphere

import oracles


# --- construction ----------------------------------------------------------

def test_symbol_constructors():
    assert radial_symbol(np.sin).kind == "radial_mult"
    assert angular_symbol(lambda s: s * s).kind == "angular_ratio"
    assert phase_space_symbol(lambda r, th, rho, eta: 1.0).kind == "phase_space"
    with pytest.raises(InvalidParameterError):
        SymbolFn("bogus", np.sin)


# --- turning points --------------------------------------------------------

def test_turning_points_sphere_closed_form(sphere_ev):
    r1, r2 = turning_points(sphere_ev, 0.5, 1.0)
    assert r1 == pytest.approx(np.pi / 6, abs=1e-12)
    assert r2 == pytest.approx(5 * np.pi / 6, abs=1e-12)
    assert turning_points(sphere_ev, 0.0, 1.0) == (0.0, np.pi)


def test_turning_points_ellipsoid_residual(ell13, ell13_ev):
    r1, r2 = turning_points(ell13_ev, 0.5, 1.0)
    assert 0.0 < r1 < ell13.r0 < r2 < ell13.L
    assert ell13.a(r1) == pytest.approx(0.5, abs=1e-12 * ell13.L)
    assert ell13.a(r2) == pytest.approx(0.5, abs=1e-12 * ell13.L)


@pytest.mark.parametrize("aspect", [0.5, 1.3, 5.0])
def test_turning_points_resolved_to_rounding(aspect):
    p = make_ellipsoid(aspect)
    ev = ActionEvaluator(p)
    eps = np.finfo(float).eps
    step = 1e-12 * p.L
    for ca in (1e-6, 0.05, 0.3, 0.7, 0.95, 0.999):
        r1, r2 = turning_points(ev, ca, 1.0)
        assert 0.0 < r1 < p.r0 < r2 < p.L
        for r, sign in ((r1, 1.0), (r2, -1.0)):
            # the root finder resolves r to 2 eps L; a itself rounds at a few eps
            bound = abs(float(p.a1(r))) * 2.0 * eps * p.L + 4.0 * eps
            assert abs(float(p.a(r)) - ca) <= bound
            # and the root is bracketed: a - ca changes sign 1e-12 L either side
            assert sign * (float(p.a(r - step)) - ca) < 0.0 < sign * (float(p.a(r + step)) - ca)


def test_turning_point_cache_frees_profile_with_evaluator():
    # memoized turning points live in the evaluator, not in a module-global
    # cache that would keep the profile alive
    p = make_ellipsoid(1.3)
    ev = ActionEvaluator(p)
    turning_points(ev, 0.5, 1.0)
    ref = weakref.ref(p)
    del p, ev
    gc.collect()
    assert ref() is None


def test_turning_points_degenerate_at_threshold(sphere_ev):
    with pytest.raises(DegenerateTorusError):
        turning_points(sphere_ev, 1.0, 1.0)
    with pytest.raises(DegenerateTorusError):
        turning_points(sphere_ev, 1.5, 1.0)


# --- the action and its derivatives ---------------------------------------

def test_action_sphere_identity(sphere_ev):
    assert action_I2(sphere_ev, 0.5, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert action_I2(sphere_ev, 0.0, 2.0) == pytest.approx(2.0, abs=1e-12)


def test_action_threshold_value(sphere_ev, ell13_ev):
    assert action_I2(sphere_ev, 0.7, 0.7) == 0.7
    c = 0.4 * ell13_ev.profile.a_r0
    assert action_I2(ell13_ev, c, 0.4) == abs(c)


def test_action_outside_image(sphere_ev):
    with pytest.raises(OutsideMomentImageError):
        action_I2(sphere_ev, 1.2, 1.0)


def test_dI2_dE_matches_finite_difference(ell13_ev):
    c, E = 0.3, 1.0
    h = 1e-5
    fd = (action_I2(ell13_ev, c, E + h) - action_I2(ell13_ev, c, E - h)) / (2 * h)
    val = dI2_dE(ell13_ev, c, E)
    assert val > 0.0
    assert val == pytest.approx(fd, rel=1e-6)


def test_one_radial_pass_gives_the_bits_of_two(ell13_ev):
    # action_I2 and dI2_dE share one pass; each matches its own single pass
    for c, E in ((0.0, 1.0), (0.3, 1.0), (-0.7, 2.5)):
        action = actions._integrate_radial(
            ell13_ev, c, E, lambda r, F: (np.sqrt(np.maximum(F, 0.0)),))[0] + abs(c)
        slope = actions._integrate_radial(
            ell13_ev, c, E, lambda r, F: (E * actions._inv_sqrt_weight(F),))[0]
        assert (action_I2(ell13_ev, c, E), dI2_dE(ell13_ev, c, E)) == (action, slope)


def test_dI2_dE_sphere_is_one(sphere_ev):
    for c, E in [(0.0, 1.0), (0.5, 1.0), (-0.8, 2.0), (0.3, 0.5)]:
        assert dI2_dE(sphere_ev, c, E) == pytest.approx(1.0, abs=1e-12)


def test_dI2_dc_sphere_vanishes(sphere_ev):
    assert dI2_dc(sphere_ev, 0.5, 1.0) == pytest.approx(0.0, abs=1e-10)
    assert dI2_dc(sphere_ev, 0.0, 1.0) == 0.0


def test_dI2_dc_matches_finite_difference(ell13_ev):
    c, E = 0.4, 1.0
    h = 1e-5
    fd = (action_I2(ell13_ev, c + h, E) - action_I2(ell13_ev, c - h, E)) / (2 * h)
    assert dI2_dc(ell13_ev, c, E) == pytest.approx(fd, rel=1e-6)


# --- energy inversion ------------------------------------------------------

def test_energy_sphere_identity(sphere_ev):
    assert energy_K(sphere_ev, 0.3, 2.0) == pytest.approx(2.0, abs=1e-10)


def test_energy_threshold(sphere_ev, ell13_ev):
    for ev in (sphere_ev, ell13_ev):
        a0 = ev.profile.a_r0
        assert energy_K(ev, 1.0, 1.0) == pytest.approx(1.0 / a0, abs=1e-14)


def test_energy_raises_when_newton_runs_out(sphere_ev, monkeypatch):
    # an action that stays above target keeps every Newton step small and
    # inside the bracket, so only the iteration cap can end the loop
    monkeypatch.setattr(actions, "_action_and_slope", lambda ev, c, E: (1.0 + 1e-6, 1.0))
    with pytest.raises(ConvergenceError):
        energy_K(sphere_ev, 0.5, 1.0)


def _count_passes(monkeypatch) -> list:
    # (c, E) of every row of every radial pass, recorded on the module attribute
    passes = []
    integrate = actions._integrate_radial

    def counted(ev, c, E, g):
        passes.extend(zip(*(np.ravel(v).tolist() for v in np.broadcast_arrays(c, E))))
        return integrate(ev, c, E, g)

    monkeypatch.setattr(actions, "_integrate_radial", counted)
    return passes


def test_energy_inversion_makes_one_pass_per_iterate(ell13, sphere, monkeypatch):
    # the bracket opens inside the Newton loop, so building K1 integrates
    # each iterate once, as one row of a lockstep pass; each inversion has
    # its own c; on the sphere the first iterate is the root
    passes = _count_passes(monkeypatch)
    for p, bound in ((ell13, 120), (sphere, 15)):
        passes.clear()
        actions.k1_series(ActionEvaluator(p))
        per_inversion = {}
        for c, E in passes:
            per_inversion.setdefault(c, []).append(E)
        assert len(passes) <= bound
        assert all(len(set(points)) == len(points) for points in per_inversion.values())
    assert len(passes) == len(per_inversion) == 15


def test_energy_inverse_consistency(sphere_ev, ell13_ev):
    for ev in (sphere_ev, ell13_ev):
        for c in (0.0, 0.25, -0.6, 0.9):
            for I2 in (1.0, 2.5):
                E = energy_K(ev, c, I2)
                assert action_I2(ev, c, E) == pytest.approx(I2, abs=1e-10)


@pytest.mark.parametrize("I2", [1.0, 25.5, 100.5])
def test_energy_inversion_reaches_float_resolution(ell13_ev, I2):
    # the inversion has no tolerance knob: it runs until the action
    # residual is at the rounding level of I2
    for q in (0.0, 0.25, -0.6, 0.9, 0.99):
        c = q * I2
        E = energy_K(ell13_ev, c, I2)
        assert abs(action_I2(ell13_ev, c, E) - I2) <= 4.0 * np.finfo(float).eps * I2


def test_energy_homogeneity(ell13_ev):
    base = energy_K(ell13_ev, 0.4, 1.0)
    for t in (0.5, 2.0, 10.0):
        assert energy_K(ell13_ev, 0.4 * t, t) == pytest.approx(t * base, abs=1e-9 * t)


def test_energy_outside_image(sphere_ev):
    with pytest.raises(OutsideMomentImageError):
        energy_K(sphere_ev, 1.5, 1.0)


# --- frequencies and the limit density -------------------------------------

def test_frequencies_sphere(sphere_ev):
    w1, w2 = frequencies(sphere_ev, 0.5)
    assert w2 == pytest.approx(1.0, abs=1e-10)
    assert w1 == pytest.approx(0.0, abs=1e-10)


def test_frequencies_endpoint_value(sphere_ev, ell13_ev):
    for ev in (sphere_ev, ell13_ev):
        a0 = ev.profile.a_r0
        for c in (1.0, -1.0):
            w1, w2 = frequencies(ev, c)
            assert w2 == pytest.approx(a0 ** -2, abs=1e-14)
            assert w1 == pytest.approx(np.sign(c) * a0 ** -2, abs=1e-14)
    with pytest.raises(OutsideMomentImageError):
        frequencies(sphere_ev, 1.01)


def test_frequencies_at_the_boundary_build_no_series(ell13, monkeypatch):
    def no_series(ev):
        raise AssertionError("K1 series built for |c| = 1")

    monkeypatch.setattr(actions, "k1_series", no_series)
    w = 1.0 / (ell13.a_r0 * ell13.a_r0)
    w1, w2 = frequencies(ActionEvaluator(ell13), np.array([1.0, -1.0]))
    assert list(w1) == [w, -w] and list(w2) == [w, w]


def test_limit_density_sphere_closed_form(sphere_ev):
    assert limit_density_unnorm(sphere_ev, 0.0) == pytest.approx(1.0, abs=1e-10)
    assert limit_density_unnorm(sphere_ev, 0.6) == pytest.approx(1.25, abs=1e-8)
    for c in np.linspace(-0.999, 0.999, 41):
        val = limit_density_unnorm(sphere_ev, float(c)) * np.sqrt(1 - c * c)
        assert val == pytest.approx(1.0, abs=1e-8)


def test_limit_density_open_interval_only(sphere_ev, ell13_ev):
    assert limit_density_unnorm(ell13_ev, 0.0) > 0.0
    for bad in (1.0, -1.0, 1.3):
        with pytest.raises(OutsideOpenIntervalError):
            limit_density_unnorm(sphere_ev, bad)


def test_density_endpoint_scaling_stabilizes(sphere_ev, ell13_ev):
    # density * sqrt(1 - c^2) approaches a finite positive limit at the ends
    for ev in (sphere_ev, ell13_ev):
        vals = []
        for k in range(2, 7):
            c = 1.0 - 10.0 ** -k
            vals.append(limit_density_unnorm(ev, c) * np.sqrt(1.0 - c * c))
        assert all(v > 0.0 for v in vals)
        assert abs(vals[-1] / vals[-2] - 1.0) <= 0.01


def test_normalization_sphere(sphere_ev):
    assert normalization_M(sphere_ev) == pytest.approx(np.pi, abs=1e-8)


def test_normalization_ellipsoid_node_doubling(ell13, ell13_ev, monkeypatch):
    # quadrature-convergence guard: the constant must not move when the
    # node count doubles
    M_256 = normalization_M(ell13_ev)
    monkeypatch.setattr(actions, "_QUAD_NODES", 512)
    M_512 = normalization_M(ActionEvaluator(ell13))
    assert M_256 > 0.0
    assert M_512 == pytest.approx(M_256, abs=1e-8 * max(1.0, M_256))


@pytest.mark.parametrize("aspect", [None, 0.5, 1.3, 5.0])
def test_series_endpoint_is_the_density_limit(aspect):
    # the series is never sampled at |c| = 1; it takes the closed-form limit
    p = make_round_sphere() if aspect is None else make_ellipsoid(aspect)
    c = 1.0 - 1e-6
    near = limit_density_unnorm(ActionEvaluator(p), c) * np.sqrt((1.0 - c) * (1.0 + c))
    assert actions._mu_end(p) == pytest.approx(near, rel=1e-5)


def test_series_rejects_a_flat_equator(sphere):
    flat = dataclasses.replace(sphere, a2=lambda r: 0.0 * np.asarray(r, float))
    with pytest.raises(DegenerateTorusError):
        normalization_M(ActionEvaluator(flat))


def test_mu_series_stops_early(ell13, monkeypatch):
    calls = []
    density = actions.limit_density_unnorm
    monkeypatch.setattr(actions, "limit_density_unnorm",
                        lambda ev, c: calls.extend(np.ravel(c)) or density(ev, c))
    ev = ActionEvaluator(ell13)
    normalization_M(ev)
    assert len(calls) <= 33
    assert actions.mu_series(ev).converged


@pytest.mark.parametrize("aspect, converged", [(0.5, True), (2.0, True), (10.0, False)])
def test_mu_series_records_its_plateau(aspect, converged):
    series = actions.mu_series(ActionEvaluator(make_ellipsoid(aspect)))
    scale = float(np.max(np.abs(series.coeffs)))
    assert series.converged is converged
    if converged:
        assert series.degree < 512
        assert 0.0 < series.tail <= 1e-10 * scale
    else:
        # the full 512-point fit is kept, and its upper half is far above the plateau
        assert series.degree == 512
        assert series.tail > 1e-8 * scale


def test_normalization_matches_gauss_legendre_in_t(ell13_ev):
    # an independent 100-node rule in t = arcsin c; like the series, it
    # weights f(c) by sqrt((1 - c)(1 + c)) of the rounded c, not by cos t
    x, w = np.polynomial.legendre.leggauss(100)
    c = np.sin(0.5 * np.pi * x)
    f = np.array([limit_density_unnorm(ell13_ev, float(ci)) for ci in c])
    ref = 0.5 * np.pi * float(np.dot(w, f * np.sqrt((1.0 - c) * (1.0 + c))))
    assert normalization_M(ell13_ev) == pytest.approx(ref, rel=1e-12)


def test_limit_cdf_sphere(sphere_ev):
    cdf = limit_measure_mu(sphere_ev).cdf
    assert cdf(0.0) == pytest.approx(0.5, abs=1e-10)
    assert cdf(0.5) == pytest.approx(2.0 / 3.0, abs=1e-8)
    assert cdf(-1.0) == pytest.approx(0.0, abs=1e-8)
    assert cdf(1.0) == pytest.approx(1.0, abs=1e-8)


def test_limit_cdf_rejects_any_point_outside(sphere_ev):
    cdf = limit_measure_mu(sphere_ev).cdf
    with pytest.raises(OutsideOpenIntervalError):
        cdf(np.array([0.0, 0.5, 1.0 + 1e-12]))
    with pytest.raises(OutsideOpenIntervalError):
        cdf(np.array([[0.0, -1.5], [0.2, 0.3]]))
    with pytest.raises(OutsideOpenIntervalError):
        cdf(1.5)
    # the nu CDF applies the same check
    cos2 = radial_symbol(lambda r: np.cos(r) ** 2, name="cos^2")
    with pytest.raises(OutsideOpenIntervalError):
        limit_measure_nu(sphere_ev, cos2).cdf([1.5, -3.0])


def test_limit_cdf_monotone(ell13_ev):
    grid = np.linspace(-1.0, 1.0, 81)
    cdf = limit_measure_mu(ell13_ev).cdf
    vals = [cdf(float(c)) for c in grid]
    assert vals[0] == pytest.approx(0.0, abs=1e-8)
    assert vals[-1] == pytest.approx(1.0, abs=1e-8)
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


# --- the unit-torus energy series K1 ---------------------------------------

def _mode(m, ell, lam):
    return RadialMode(m=m, n=ell - abs(m), ell=ell, lam=lam, r=None, u=None, u_at_r0=0.0)


def test_energy_homogeneity_behind_k1(ell13_ev):
    # K(c, I2) = I2 K1(|c| / I2): the identity the series rests on
    rng = np.random.default_rng(7)
    for I2, q in zip(rng.uniform(0.5, 150.0, 12), rng.uniform(-0.99, 0.99, 12)):
        c = q * I2
        unit = I2 * energy_K(ell13_ev, c / I2, 1.0)
        assert abs(energy_K(ell13_ev, c, I2) - unit) <= 1e-14 * unit


@pytest.mark.parametrize("aspect", [0.5, 1.3, 5.0])
def test_k1_series_matches_the_pointwise_oracle(aspect, ell13_ev):
    ev = ell13_ev if aspect == 1.3 else ActionEvaluator(make_ellipsoid(aspect))
    a0 = ev.profile.a_r0
    rng = np.random.default_rng(11)
    for c in rng.uniform(-1.0, 1.0, 40):
        s = abs(c)
        E = energy_K(ev, s, 1.0)
        dE, dc = dI2_dE(ev, c, E), dI2_dc(ev, c, E)
        assert actions._unit_torus(ev, s)[0] == pytest.approx(E, rel=1e-13, abs=0.0)
        u = s / (E * a0)
        density = (1.0 / dE) / np.sqrt((1.0 - u) * (1.0 + u))
        assert limit_density_unnorm(ev, c) == pytest.approx(density, rel=1e-10, abs=0.0)
        w1, w2 = frequencies(ev, c)
        assert w2 == pytest.approx(1.0 / dE, rel=1e-11, abs=0.0)
        # below |c| = 1/4 the oracle's dI2_dc cancels sign(c) against its integral
        # and keeps only about 1e-12 / |omega1| of its digits (4.9e-10 omega2 here
        # at aspect 5, where a finite difference of energy_K sides with the series)
        assert abs(w1 + dc / dE) <= (1e-11 * abs(w1) if s >= 0.25 else 1e-9 * w2)
    for m in range(-100, 101, 20):
        mode = _mode(m, 100, 100.0)
        pointwise = mode.lam - energy_K(ev, float(m), 100.5)
        assert abs(ebk_residual(mode, ev) - pointwise) <= 1e-12


def test_k1_series_converges_from_few_inversions(ell13, monkeypatch):
    calls = []
    energy = actions.energy_K
    monkeypatch.setattr(actions, "energy_K",
                        lambda ev, c, I2: calls.extend(np.ravel(c)) or energy(ev, c, I2))
    series = actions.k1_series(ActionEvaluator(ell13))
    assert series.converged and series.degree < 32
    assert 0.0 <= series.tail <= 1e-14 * float(np.max(np.abs(series.coeffs)))
    assert len(calls) <= 33


@pytest.mark.parametrize("aspect", [0.5, 1.3, 5.0])
def test_k1_series_has_the_bits_of_scalar_inversions(aspect, ell13_ev):
    # a level's inversions run in lockstep; each sample keeps its one-at-a-time bits
    ev = ell13_ev if aspect == 1.3 else ActionEvaluator(make_ellipsoid(aspect))
    p = ev.profile
    ref = surface._ChebFit(
        lambda js: [energy_K(ev, float(np.cos(np.pi * j / 1024) ** 2), 1.0) for j in js],
        (1.0 / p.a_r0, np.pi / p.L), actions._K1_TOL)
    assert actions.k1_series(ev).coeffs.tobytes() == ref.coeffs.tobytes()


def test_k1_without_plateau_answers_pointwise(ell13, monkeypatch):
    # no plateau for K1 (and only for K1): every value is the point-wise one
    chop = surface._chop
    monkeypatch.setattr(surface, "_chop", lambda coeffs, tol: (
        (len(coeffs), False) if tol == actions._K1_TOL else chop(coeffs, tol)))
    ev = ActionEvaluator(ell13)
    assert not actions.k1_series(ev).converged
    chi = angular_symbol(lambda x: x)
    for c in (0.0, 0.3, -0.55, 0.97):
        E = energy_K(ev, c, 1.0)
        dE, dc = dI2_dE(ev, c, E), dI2_dc(ev, c, E)
        u = abs(c) / (E * ell13.a_r0)
        assert frequencies(ev, c) == (-dc / dE, 1.0 / dE)
        assert limit_density_unnorm(ev, c) == (1.0 / dE) / np.sqrt((1.0 - u) * (1.0 + u))
        assert torus_average(ev, chi, c) == c / E
    mode = _mode(-7, 20, 20.0)
    assert ebk_residual(mode, ev) == mode.lam - 20.5 * energy_K(ev, 7 / 20.5, 1.0)


# --- torus averages --------------------------------------------------------

def test_torus_average_normalization(sphere_ev, ell13_ev):
    one = radial_symbol(lambda r: np.ones_like(np.asarray(r, float)), name="1")
    for ev in (sphere_ev, ell13_ev):
        for c in (0.0, 0.3, -0.7, 0.95):
            assert torus_average(ev, one, c) == pytest.approx(1.0, abs=1e-9)


def test_torus_average_takes_one_pass(sphere, ell13_ev, monkeypatch):
    # weight and symbol share one radial pass, both momentum signs included
    one = radial_symbol(lambda r: np.ones_like(np.asarray(r, float)), name="1")
    one_ps = phase_space_symbol(lambda r, th, rho, eta: np.ones(np.broadcast(r, th, rho).shape))
    cos_r = radial_symbol(np.cos, name="cos r")
    odd_ps = phase_space_symbol(lambda r, th, rho, eta: np.cos(r) * rho / np.hypot(rho, eta))
    passes = _count_passes(monkeypatch)
    for ev in (ActionEvaluator(sphere), ell13_ev):
        actions.k1_series(ev)
        for c in (0.0, 0.3, -0.7):
            for sym in (one, one_ps, cos_r, odd_ps):
                passes.clear()
                average = torus_average(ev, sym, c)
                assert len(passes) == 1
                if sym in (one, one_ps):
                    assert average == 1.0
    passes.clear()
    actions.nu_series(ell13_ev, cos_r)
    assert len(passes) == 256


def test_torus_average_angular_ratio(sphere_ev):
    chi = angular_symbol(lambda s: s, name="s")
    assert torus_average(sphere_ev, chi, 0.4) == pytest.approx(0.4, abs=1e-12)


def test_torus_average_degenerate(sphere_ev):
    with pytest.raises(DegenerateTorusError):
        torus_average(sphere_ev, angular_symbol(lambda s: s), 1.0)


def test_torus_average_matches_geodesic_flow_sphere(sphere, sphere_ev):
    # dual route for the same number: singular quadrature over the
    # oscillation interval vs a time average along an integrated geodesic
    for b, name in [(np.cos, "cos r"), (np.sin, "sin r")]:
        sym = radial_symbol(b, name=name)
        quad_route = torus_average(sphere_ev, sym, 0.5)
        flow_route = oracles.geodesic_radial_average(
            sphere.a, sphere.a1, 0.5, b, sphere.r0)
        assert quad_route == pytest.approx(flow_route, abs=1e-3)


def test_torus_average_matches_geodesic_flow_ellipsoid(ell13, ell13_ev):
    # T_c lives on the unit-action level, where the energy is K(c, 1);
    # the unit-speed geodesic tracing it has Clairaut constant c/K
    c = 0.3
    sym = radial_symbol(np.cos, name="cos r")
    quad_route = torus_average(ell13_ev, sym, c)
    c_unit_speed = c / energy_K(ell13_ev, c, 1.0)
    flow_route = oracles.geodesic_radial_average(
        ell13.a, ell13.a1, c_unit_speed, np.cos, ell13.r0)
    assert quad_route == pytest.approx(flow_route, abs=1e-3)


def test_phase_space_average_reduces_to_radial(sphere_ev):
    c = 0.4
    E = energy_K(sphere_ev, c, 1.0)

    def sigma(r, theta, rho, eta):
        return rho ** 2 / (rho ** 2 + eta ** 2)

    def b(r):
        rho_sq = E ** 2 - c ** 2 / np.sin(r) ** 2
        return rho_sq / (rho_sq + c ** 2)

    full = torus_average(sphere_ev, phase_space_symbol(sigma), c)
    radial = torus_average(sphere_ev, radial_symbol(b), c)
    assert full == pytest.approx(radial, abs=1e-9)


def test_phase_space_average_ignores_mean_zero_angle_factor(sphere_ev):
    c = 0.4

    def sigma(r, theta, rho, eta):
        return (rho ** 2 / (rho ** 2 + eta ** 2)) * (1.0 + 0.5 * np.cos(theta))

    def sigma_flat(r, theta, rho, eta):
        return rho ** 2 / (rho ** 2 + eta ** 2)

    with_angle = torus_average(sphere_ev, phase_space_symbol(sigma), c)
    flat = torus_average(sphere_ev, phase_space_symbol(sigma_flat), c)
    assert with_angle == pytest.approx(flat, abs=1e-9)


def test_phase_space_average_rejects_inhomogeneous(sphere_ev):
    sym = phase_space_symbol(lambda r, th, rho, eta: rho)
    with pytest.raises(InvalidParameterError):
        torus_average(sphere_ev, sym, 0.3)


def test_liouville_state_values(sphere_ev):
    one = radial_symbol(lambda r: np.ones_like(np.asarray(r, float)), name="1")
    assert liouville_state(sphere_ev, one) == pytest.approx(2.0, abs=1e-9)
    chi2 = angular_symbol(lambda s: s * s, name="s^2")
    assert liouville_state(sphere_ev, chi2) == pytest.approx(2.0 / 3.0, abs=1e-9)
    # the torus average of cos(r)^2 is (1 - c^2) / 2
    cos2 = radial_symbol(lambda r: np.cos(r) ** 2, name="cos(r)^2")
    assert liouville_state(sphere_ev, cos2) == pytest.approx(2.0 / 3.0, abs=1e-12)
    bump = radial_symbol(lambda r: 1.0 + np.sin(r), name="1+sin r")
    assert liouville_state(sphere_ev, bump) > 0.0


def test_radial_nu_series_samples_half_the_interval(sphere, monkeypatch):
    # a radial average depends on c only through |c|: mirrored samples are
    # bit-equal, so the even build equals the full one coefficient for coefficient
    ev = ActionEvaluator(sphere)
    sym = radial_symbol(np.sin, name="sin r")
    calls = []
    average = actions.torus_average
    monkeypatch.setattr(actions, "torus_average",
                        lambda ev, sym, c: calls.extend(np.ravel(c)) or average(ev, sym, c))
    even = actions.nu_series(ev, sym)
    assert len(calls) == 256 and min(calls) >= 0.0
    full = actions._SinSeries(lambda c: actions.torus_average(ev, sym, c), 0.0, even=False)
    assert len(calls) == 256 + 511
    assert np.array_equal(even.coeffs, full.coeffs)


# --- the equator derivative identity ---------------------------------------

def test_equator_momentum_sphere(sphere_ev):
    assert equator_momentum(sphere_ev, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert equator_momentum(sphere_ev, 0.6) == pytest.approx(0.8, abs=1e-10)


def test_derivative_identity_sample(sphere_ev):
    c = 0.3
    fd = di2_drho_fd(sphere_ev, c)
    E = energy_K(sphere_ev, c, 1.0)
    _, w2 = frequencies(sphere_ev, c)
    target = np.sqrt(1.0 - c ** 2 / (E * sphere_ev.profile.a_r0) ** 2) / w2
    assert fd == pytest.approx(target, rel=1e-6)


# --- properties ------------------------------------------------------------

@given(q=st.floats(-0.99, 0.99), E=st.floats(0.2, 5.0),
       t=st.sampled_from([0.5, 2.0, 10.0]))
def test_action_homogeneity(sphere_ev, q, E, t):
    c = q * E
    base = action_I2(sphere_ev, c, E)
    scaled = action_I2(sphere_ev, t * c, t * E)
    assert scaled == pytest.approx(t * base, abs=1e-9 * max(1.0, t * E))


@settings(max_examples=15)
@given(q=st.floats(-0.95, 0.95), E=st.floats(0.5, 3.0))
def test_action_monotone_in_energy(ell13_ev, q, E):
    assert dI2_dE(ell13_ev, q * E * ell13_ev.profile.a_r0, E) > 0.0


def test_evaluations_deterministic(sphere):
    ev1 = ActionEvaluator(sphere)
    ev2 = ActionEvaluator(sphere)
    assert action_I2(ev1, 0.37, 1.1) == action_I2(ev2, 0.37, 1.1)
    assert energy_K(ev1, 0.37, 1.0) == energy_K(ev2, 0.37, 1.0)
    assert frequencies(ev1, 0.37) == frequencies(ev2, 0.37)
