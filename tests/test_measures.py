import dataclasses

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from revtone import (
    ActionEvaluator,
    DegenerateMeasureError,
    InvalidParameterError,
    SignedMeasureError,
    angular_symbol,
    joint_slice,
    make_ellipsoid,
    make_round_sphere,
    radial_symbol,
)
from revtone.measures import (
    ConvergenceReport,
    EmpiricalMeasure,
    LimitMeasure,
    convergence_sweep,
    empirical_mu,
    empirical_nu,
    ks_distance,
    limit_measure_mu,
    limit_measure_nu,
    wasserstein1,
)
from revtone.spectral import JointSlice
from revtone.surface import find_root

import oracles

ONE = radial_symbol(lambda r: np.ones_like(r), name="one")
SQUARED = angular_symbol(lambda s: np.asarray(s) ** 2, name="s^2")
ARCSINE = LimitMeasure(density=oracles.arcsine_density,
                       cdf=np.vectorize(oracles.arcsine_cdf), mass_constant=np.pi)


def _measure(atoms):
    """A unit-mass EmpiricalMeasure from (position, weight) pairs in ascending order."""
    return EmpiricalMeasure(*np.transpose(atoms), total_mass_raw=1.0)


def _weights(emp):
    """A measure's weights keyed by position."""
    return dict(zip(emp.positions.tolist(), emp.weights.tolist()))


def _staircase(atoms):
    def cdf(c):
        return float(sum(w for pos, w in atoms if pos <= c))
    return cdf


# --- empirical measures ----------------------------------------------------

def test_mu_three_atoms(sphere, sphere_ev):
    mu = empirical_mu(joint_slice(sphere, 1, 2000))
    assert mu.total_mass_raw == pytest.approx(1.5, abs=1e-6)
    assert mu.positions.tolist() == [-1.0, 0.0, 1.0]
    weights = _weights(mu)
    assert weights[-1.0] == pytest.approx(0.5, abs=1e-6)
    assert weights[0.0] <= 1e-10
    assert weights[1.0] == pytest.approx(0.5, abs=1e-6)


def test_mu_central_weight_ell2(sphere, sphere_ev):
    mu = empirical_mu(joint_slice(sphere, 2, 2000))
    weights = _weights(mu)
    assert weights[0.0] == pytest.approx(
        oracles.EXACT_EQUATOR_NORMS[(2, 0)] / mu.total_mass_raw, abs=1e-6)


def test_mu_symmetric_and_normalized(sphere, sphere_ev, ell13_slices):
    for mu in (empirical_mu(joint_slice(sphere, 5, 1000)),
               empirical_mu(ell13_slices[25])):
        weights = _weights(mu)
        for c, w in weights.items():
            assert weights[-c] == w
        assert float(np.sum(mu.weights)) == pytest.approx(1.0, abs=1e-12)


def test_mu_rejects_dead_slice(sphere):
    dead = JointSlice(ell=1, modes=[], restricted_norms={-1: 0.0, 0: 0.0, 1: 0.0},
                      elements=None)
    with pytest.raises(DegenerateMeasureError):
        empirical_mu(dead)


def test_nu_uniform_for_unit_symbol(sphere, sphere_ev):
    nu = empirical_nu(joint_slice(sphere, 10, 2000, ONE))
    assert not nu.signed
    assert np.max(np.abs(nu.weights - 1.0 / 21.0)) <= 1e-8
    assert float(np.sum(nu.weights)) == pytest.approx(1.0, abs=1e-12)


def test_nu_angular_squared_ell1(sphere, sphere_ev):
    nu = empirical_nu(joint_slice(sphere, 1, 2000, SQUARED))
    weights = _weights(nu)
    assert weights[-1.0] == pytest.approx(0.5, abs=1e-6)
    assert weights[0.0] == 0.0
    assert weights[1.0] == pytest.approx(0.5, abs=1e-6)


def test_nu_positive_symbol_positive_weights(ell13):
    sym = radial_symbol(lambda r: 1.0 + 0.3 * np.sin(r), name="pos")
    nu = empirical_nu(joint_slice(ell13, 25, 4000, sym))
    assert not nu.signed
    assert np.all(nu.weights > 0.0)


def test_nu_needs_a_slice_built_with_a_symbol(sphere):
    with pytest.raises(InvalidParameterError, match="built without a symbol"):
        empirical_nu(joint_slice(sphere, 2, 1000))


def test_nu_odd_angular_symbol_is_signed(sphere, sphere_ev):
    odd = angular_symbol(lambda s: np.asarray(s) + 0.0, name="s")
    nu = empirical_nu(joint_slice(sphere, 4, 1000, odd))
    assert nu.signed
    assert abs(nu.total_mass_raw) <= 1e-15
    lim = limit_measure_mu(sphere_ev)
    with pytest.raises(SignedMeasureError):
        ks_distance(nu, lim)
    with pytest.raises(SignedMeasureError):
        wasserstein1(nu, lim)


# --- limit measures --------------------------------------------------------

def test_limit_mu_sphere_closed_form(sphere_ev):
    lim = limit_measure_mu(sphere_ev)
    assert lim.mass_constant == pytest.approx(np.pi, abs=1e-8)
    for c in (0.0, 0.5, -0.5, 0.9):
        assert lim.density(c) == pytest.approx(oracles.arcsine_density(c), rel=1e-8)
    assert lim.cdf(0.5) == pytest.approx(2.0 / 3.0, abs=1e-8)
    assert lim.cdf(-1.0) == pytest.approx(0.0, abs=1e-8)
    assert lim.cdf(1.0) == pytest.approx(1.0, abs=1e-8)


def test_limit_mu_ellipsoid_normalized(ell13_ev):
    lim = limit_measure_mu(ell13_ev)
    assert lim.cdf(1.0) == pytest.approx(1.0, abs=1e-8)
    grid = np.linspace(-1.0, 1.0, 41)
    vals = [lim.cdf(c) for c in grid]
    assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("ev_name", ["sphere_ev", "ell13_ev"])
def test_limit_cdfs_take_arrays(request, ev_name):
    ev = request.getfixturevalue(ev_name)
    grid = np.linspace(-1.0, 1.0, 41)
    for lim in (limit_measure_mu(ev), limit_measure_nu(ev, ONE)):
        scalar = np.array([lim.cdf(float(c)) for c in grid])
        assert np.array_equal(lim.cdf(grid), scalar)
        assert np.array_equal(lim.cdf(grid.reshape(41, 1)), scalar.reshape(41, 1))


@pytest.mark.parametrize("aspect", [None, 0.5, 1.3, 5.0])
def test_limit_cdfs_stay_in_unit_interval(aspect):
    # the series' CDF is not clipped: it must end exactly on 0 and 1 by itself
    ev = ActionEvaluator(make_round_sphere() if aspect is None else make_ellipsoid(aspect))
    ends = 1.0 - np.logspace(-16, -1, 61)
    grid = np.unique(np.concatenate((-ends, np.linspace(-1.0, 1.0, 20001), ends)))
    mu = limit_measure_mu(ev)
    for lim in (mu, limit_measure_nu(ev, ONE)):
        assert lim.cdf(-1.0) == 0.0 and lim.cdf(1.0) == 1.0
        vals = lim.cdf(grid)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
    # monotone to the last bit; the nu CDF may step back by an ulp between
    # neighbouring floats (0.999 and the next one up)
    assert np.all(np.diff(mu.cdf(grid)) >= 0.0)


def test_limit_nu_unit_symbol_uniform(sphere_ev):
    lim = limit_measure_nu(sphere_ev, ONE)
    for c in (-0.9, -0.3, 0.0, 0.4, 0.8):
        assert lim.density(c) == pytest.approx(0.5, abs=1e-8)


def test_limit_nu_angular_squared(sphere_ev):
    lim = limit_measure_nu(sphere_ev, SQUARED)
    assert lim.mass_constant == pytest.approx(2.0 / 3.0, abs=1e-8)
    for c in (-0.8, -0.25, 0.3, 0.7):
        assert lim.density(c) == pytest.approx(1.5 * c * c, abs=1e-6)


def test_limit_nu_vanishing_equator_symbol(sphere_ev):
    sym = radial_symbol(lambda r: np.cos(r) ** 2, name="cos^2")
    lim = limit_measure_nu(sphere_ev, sym)
    for c in (0.0, 0.5, -0.5, 0.9, -0.9):
        d = lim.density(c)
        assert np.isfinite(d) and d > 0.0


def test_limit_nu_zero_mass_raises(sphere_ev, plateau):
    # the torus averages of cos r are rounding noise, which has no plateau
    with plateau("nu"), pytest.raises(SignedMeasureError):
        limit_measure_nu(sphere_ev, radial_symbol(np.cos, name="cos"))
    with pytest.raises(SignedMeasureError):
        limit_measure_nu(sphere_ev, angular_symbol(lambda s: np.asarray(s) + 0.0))


# --- distances -------------------------------------------------------------

def test_ks_single_atom_vs_arcsine(sphere_ev):
    emp = _measure([(0.0, 1.0)])
    assert ks_distance(emp, limit_measure_mu(sphere_ev)) == pytest.approx(0.5, abs=1e-9)


def test_ks_quantile_atoms(sphere_ev):
    k = 10
    atoms = [(float(np.sin(np.pi * ((j - 0.5) / k - 0.5))), 1.0 / k)
             for j in range(1, k + 1)]
    assert ks_distance(_measure(atoms), limit_measure_mu(sphere_ev)) <= 1.0 / k


def test_w1_identical_staircase_is_zero(sphere, sphere_ev):
    mu = empirical_mu(joint_slice(sphere, 3, 1000))
    lim = LimitMeasure(density=lambda c: 0.0, cdf=np.vectorize(_staircase(_weights(mu).items())),
                       mass_constant=1.0)
    assert wasserstein1(mu, lim) == 0.0


def test_w1_separated_atoms(sphere_ev):
    emp = _measure([(0.0, 1.0)])
    step = LimitMeasure(density=lambda c: 0.0,
                        cdf=np.vectorize(lambda c: 1.0 if c >= 1.0 else 0.0),
                        mass_constant=1.0)
    assert wasserstein1(emp, step) == pytest.approx(1.0, abs=1e-12)


def test_w1_three_atom_anchor(sphere, sphere_ev):
    mu = empirical_mu(joint_slice(sphere, 1, 2000))
    w1 = wasserstein1(mu, limit_measure_mu(sphere_ev))
    assert w1 == pytest.approx(oracles.W1_SPHERE_ELL1_VS_ARCSINE, abs=1e-5)


def test_w1_reflection_invariance(sphere, sphere_ev):
    mu = empirical_mu(joint_slice(sphere, 6, 1000))
    reflected = sorted((-c, w) for c, w in _weights(mu).items())
    lim = LimitMeasure(density=lambda c: 0.0, cdf=np.vectorize(_staircase(reflected)),
                       mass_constant=1.0)
    assert wasserstein1(mu, lim) == 0.0


def test_distances_cdf_call_budget(sphere, sphere_ev):
    lim = limit_measure_mu(sphere_ev)
    calls = []

    def counted(c):
        calls.append(c)
        return lim.cdf(c)

    counting = dataclasses.replace(lim, cdf=counted)
    mu = empirical_mu(joint_slice(sphere, 50, 2000))
    assert wasserstein1(mu, counting) == wasserstein1(mu, lim)
    assert len(calls) <= 12
    calls.clear()
    assert ks_distance(mu, counting) == ks_distance(mu, lim)
    assert len(calls) == 1


@pytest.fixture(scope="module")
def sphere_slices(sphere):
    return {ell: joint_slice(sphere, ell, 4000) for ell in (25, 50, 100)}


def test_find_root_stops_at_the_cdf_rounding_floor(sphere_ev, sphere_slices):
    # at ell = 100 Newton reaches the CDF's rounding floor at c = -0.109 from one
    # side, with a step above 2 eps |c|; bisecting from the far end took 52 passes in all
    lim = limit_measure_mu(sphere_ev)
    mu = empirical_mu(sphere_slices[100])
    lo, hi, level, _, straddle = oracles.w1_segments(mu.positions, mu.weights, lim.cdf)
    lo, hi, level = lo[straddle], hi[straddle], level[straddle]
    passes = []

    def fdf(c, i):
        passes.append(c)
        return lim.cdf(c) - level[i], lim.density(c)

    roots = find_root(fdf, lo, hi)
    assert lo.size == 100 and len(passes) - 2 <= 10
    assert np.all((lo <= roots) & (roots <= hi))
    assert np.max(np.abs(lim.cdf(roots) - level)) <= 2.0 * np.finfo(float).eps
    i = int(np.argmin(np.abs(roots + 0.109)))
    assert abs(lim.cdf(roots[i]) - level[i]) <= np.spacing(level[i])


_CHI = angular_symbol(lambda s: np.asarray(s) ** 2 - 0.2, name="s^2 - 0.2")


@pytest.mark.parametrize("profile, what", [
    ("sphere", "mu"), ("sphere", "cos^2 r"), ("sphere", "chi"),
    ("ell13", "mu"), ("ell13", "cos r"), ("ell13", "chi")])
def test_w1_matches_the_bisection_reference(request, profile, what, plateau):
    # on the sphere cos r averages to 0 and has no limit, so cos^2 r stands in
    p, ev = request.getfixturevalue(profile), request.getfixturevalue(profile + "_ev")
    slices = request.getfixturevalue(profile + "_slices")
    syms = {"cos r": radial_symbol(np.cos, name="cos r"),
            "cos^2 r": radial_symbol(lambda r: np.cos(r) ** 2, name="cos^2 r"), "chi": _CHI}
    sym = syms.get(what)
    with plateau(*["nu"] if (profile, what) == ("ell13", "cos r") else []):
        lim = limit_measure_mu(ev) if sym is None else limit_measure_nu(ev, sym)
    for ell in (25, 50, 100):
        emp = (empirical_mu(slices[ell]) if sym is None
               else empirical_nu(joint_slice(p, ell, 4000, sym)))
        ref = oracles.bisection_w1(emp.positions, emp.weights, lim.cdf)
        assert wasserstein1(emp, lim) == pytest.approx(ref, rel=1e-13, abs=0.0)


def _ks_vs_arcsine(atoms):
    worst = below = 0.0
    for c, w in atoms:
        target = oracles.arcsine_cdf(c)
        worst = max(worst, abs(below - target), abs(below + w - target))
        below += w
    return worst


_POSITIONS = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                       st.floats(-1.0, 1.0))


@given(st.lists(st.tuples(_POSITIONS, st.floats(0.01, 1.0)), min_size=1, max_size=30))
@example([(0.0, 1.0)])
@example([(-1.0, 1.0)])
@example([(1.0, 1.0)])
@example([(-1.0, 0.5), (1.0, 0.5)])
@example([(0.25, 0.2), (-1.0, 0.1), (0.25, 0.3), (1.0, 0.2), (-1.0, 0.2)])
def test_distances_vs_exact_arcsine(raw):
    total = sum(w for _, w in raw)
    atoms = sorted((c, w / total) for c, w in raw)
    emp = _measure(atoms)
    assert abs(wasserstein1(emp, ARCSINE) - oracles.arcsine_w1(atoms)) <= 1e-5
    assert abs(ks_distance(emp, ARCSINE) - _ks_vs_arcsine(atoms)) <= 1e-14


def test_nu_distances_bounded_by_atom_gap(sphere, sphere_ev):
    nu = empirical_nu(joint_slice(sphere, 10, 2000, ONE))
    lim = limit_measure_nu(sphere_ev, ONE)
    assert ks_distance(nu, lim) <= 1.0 / 21.0 + 1e-9
    assert wasserstein1(nu, lim) <= 1.0 / 21.0 + 1e-9


def test_trace_identity_two_routes(sphere, sphere_ev):
    sl = joint_slice(sphere, 10, 2000, SQUARED)
    nu = empirical_nu(sl)

    def f(c):
        return c ** 4 - 0.3 * c + 0.2

    via_atoms = float(sum(w * f(c) for c, w in zip(nu.positions, nu.weights)))
    raw = [(mode.m, float(SQUARED.fn(mode.m / mode.lam))) for mode in sl.modes]
    total = sum(v for _, v in raw)
    via_trace = float(sum(v * f(m / sl.ell) for m, v in raw) / total)
    assert abs(via_atoms - via_trace) <= 1e-12


def test_polynomial_moments_tighten_under_doubling(sphere, sphere_ev):
    # fourth moment of the arcsine law is 3/8
    dist = {}
    for ell in (10, 20, 40, 80):
        mu = empirical_mu(joint_slice(sphere, ell, 2000))
        dist[ell] = abs(float(np.sum(mu.weights * mu.positions ** 4)) - 0.375)
    for ell in (10, 20, 40):
        assert dist[2 * ell] <= 1.05 * dist[ell]


# --- convergence sweeps ----------------------------------------------------

def test_sweep_report_schema(sphere, sphere_ev):
    rep = convergence_sweep(sphere_ev, [10, 20, 40], sym=ONE,
                            grid_size=2000)
    assert isinstance(rep, ConvergenceReport)
    assert rep.profile == sphere.name
    assert rep.ells == [10, 20, 40]
    for row in rep.rows:
        assert set(row) == {"ell", "M_ell", "M_ell_over_ell", "ks_mu", "w1_mu",
                            "ks_nu", "w1_nu"}
        assert row["M_ell"] > 0.0
        assert row["w1_nu"] is not None
    w1 = [row["w1_mu"] for row in rep.rows]
    assert w1[0] > w1[1] > w1[2]
    assert rep.fit["w1_exponent"] < -0.5
    assert rep.fit["w1_r2"] > 0.99
    assert rep.fit_even is not None
    out = rep.as_dict()
    assert set(out) == {"profile", "ells", "rows", "fit", "fit_even"}


def test_sweep_mass_grows_linearly(sphere, sphere_ev):
    rep = convergence_sweep(sphere_ev, [50, 100], grid_size=2000)
    m50, m100 = (row["M_ell"] for row in rep.rows)
    assert m100 / m50 == pytest.approx(2.0, rel=0.10)


def test_sweep_continues_past_failures(sphere, sphere_ev):
    rep = convergence_sweep(sphere_ev, [10, 20, 110], grid_size=500)
    by_ell = {row["ell"]: row for row in rep.rows}
    assert "error" in by_ell[110] and "ResolutionError" in by_ell[110]["error"]
    assert "error" not in by_ell[10] and "error" not in by_ell[20]
    assert np.isfinite(rep.fit["w1_exponent"])


def test_sweep_requires_ascending_ells(sphere, sphere_ev):
    with pytest.raises(InvalidParameterError):
        convergence_sweep(sphere_ev, [20, 10], grid_size=1000)
    with pytest.raises(InvalidParameterError):
        convergence_sweep(sphere_ev, [10, 10], grid_size=1000)


def test_sweep_no_even_subsequence(sphere, sphere_ev):
    rep = convergence_sweep(sphere_ev, [11, 21], grid_size=1000)
    assert rep.fit_even is None
    assert "fit_even" not in rep.as_dict()


def test_sweep_deterministic(sphere, sphere_ev):
    a = convergence_sweep(sphere_ev, [5, 10], sym=ONE, grid_size=1000)
    b = convergence_sweep(sphere_ev, [5, 10], sym=ONE, grid_size=1000)
    assert a.as_dict() == b.as_dict()
