import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revtone import (
    ConfigError,
    ConvergenceError,
    InvalidParameterError,
    RejectedProfileError,
    load_profile_table,
    make_custom,
    make_ellipsoid,
    make_round_sphere,
    validate_profile,
)
from revtone import surface
from revtone.quadrature import gauss_legendre_rule
from revtone.surface import _EllipsoidMeridian, find_root

import oracles


def test_round_sphere_geometry(sphere):
    assert sphere.a(np.pi / 2) == pytest.approx(1.0, abs=1e-15)
    assert sphere.a1(0.0) == pytest.approx(1.0, abs=1e-15)
    assert sphere.a2(np.pi / 2) == pytest.approx(-1.0, abs=1e-15)
    assert sphere.r0 == pytest.approx(np.pi / 2, abs=1e-13)


def test_round_sphere_validates(sphere):
    report = validate_profile(sphere)
    assert report.passed
    assert all(c.passed for c in report.checks)


def test_ellipsoid_unit_aspect_reduces_to_sphere(sphere):
    p = make_ellipsoid(1.0)
    r = np.linspace(1e-6, p.L - 1e-6, 1000)
    assert p.L == pytest.approx(np.pi, abs=1e-10)
    assert np.max(np.abs(p.a(r) - np.sin(r))) <= 1e-10
    assert np.max(np.abs(p.a1(r) - np.cos(r))) <= 1e-10
    assert np.max(np.abs(p.a2(r) + np.sin(r))) <= 1e-10


def test_ellipsoid_13_geometry(ell13):
    assert ell13.a_r0 == pytest.approx(1.0, abs=1e-10)
    # independent arclength of the meridian ellipse
    L_ref = oracles.ellipse_half_meridian_length(1.3)
    assert ell13.L == pytest.approx(L_ref, abs=1e-10)
    assert validate_profile(ell13).passed


@pytest.mark.parametrize("aspect", [0.5, 1.3, 5.0])
def test_ellipsoid_meridian_matches_arclength_oracle(aspect):
    m = _EllipsoidMeridian(aspect)
    assert m.L == pytest.approx(oracles.ellipse_half_meridian_length(aspect), abs=1e-13)
    r = np.random.default_rng(7).uniform(0.0, m.L, 25)
    t = m.t_of_r(r)
    back = np.array([oracles.ellipse_meridian_arclength(aspect, ti) for ti in t])
    assert np.max(np.abs(back - r)) <= 1e-13


@pytest.mark.parametrize("aspect, max_degree", [(0.5, 200), (1.3, 64), (5.0, 200)])
def test_ellipsoid_series_is_chopped(aspect, max_degree):
    # up to 513 Lobatto samples; the plateau rule keeps far fewer terms
    assert len(_EllipsoidMeridian(aspect).coeffs) - 1 <= max_degree


@pytest.mark.parametrize("aspect, converged",
                         [(0.2, False), (0.5, True), (1.3, True), (5.0, True), (20.0, False)])
def test_ellipsoid_meridian_records_its_plateau(aspect, converged, plateau):
    with plateau(*[] if converged else ["meridian"]):
        m = _EllipsoidMeridian(aspect)
    assert m.converged is converged
    assert (len(m.coeffs) < 513) is converged


def test_ellipsoid_meridian_stops_at_its_plateau(monkeypatch):
    # one root solve per sampled Lobatto node, nested up to the first plateau,
    # and the new nodes of a level solved in one lockstep call
    solves = []
    root = surface.find_root
    monkeypatch.setattr(surface, "find_root",
                        lambda fdf, lo, hi: solves.append(np.size(lo)) or root(fdf, lo, hi))
    m = _EllipsoidMeridian(1.3)
    assert m.converged and sum(solves) <= 65 and len(solves) <= 6
    assert m.degree == len(m.coeffs) - 1
    assert 0.0 <= m.tail <= 4.0 * np.finfo(float).eps * float(np.max(np.abs(m.coeffs)))


def test_find_root_needs_a_sign_change():
    assert find_root(lambda x, _: (x * x - 2.0, 2.0 * x), 0.0, 2.0) == pytest.approx(
        np.sqrt(2.0), abs=4e-16)
    with pytest.raises(InvalidParameterError):
        find_root(lambda x, _: (x * x + 1.0, 2.0 * x), -1.0, 2.0)


def test_find_root_stops_at_float_resolution():
    # f changes sign between two neighbouring floats and never vanishes
    x0 = 1.0 + 2.0 ** -40
    root = find_root(lambda x, _: (np.where(x <= x0, -1.0, 1.0), 0.0), 0.0, 2.0)
    assert abs(root - x0) <= 4.0 * np.spacing(2.0)


def _recorded(fdf):
    # fdf that records (x, i) of every call
    calls = []

    def recorded(x, i):
        calls.append((np.array(x), np.array(i)))
        return fdf(x, i)

    return recorded, calls


def test_find_root_evaluates_both_finite_ends_in_one_call():
    # x^2 - 4 on [1, 4] iterates; x on [-1, 0] has its root exactly at hi
    fdf, calls = _recorded(lambda x, i: (np.where(i == 0, x * x - 4.0, x),
                                         np.where(i == 0, 2.0 * x, 1.0)))
    roots = find_root(fdf, [1.0, -1.0], [4.0, 0.0])
    assert calls[0][0].tolist() == [1.0, -1.0, 4.0, 0.0] and calls[0][1].tolist() == [0, 1, 0, 1]
    assert roots[0] == pytest.approx(2.0, abs=4e-16) and roots[1] == 0.0
    assert len(calls) > 2 and all(i.tolist() == [0] for _, i in calls[1:])
    assert not any(np.isin(x, [1.0, 4.0]).any() for x, _ in calls[1:])


def test_find_root_asks_only_for_the_elements_still_iterating():
    # x - 1/2 stops at its first iterate, x^3 - 2 takes several more
    power, target = np.array([1.0, 3.0]), np.array([0.5, 2.0])
    fdf, calls = _recorded(lambda x, i: (x ** power[i] - target[i],
                                         power[i] * x ** (power[i] - 1.0)))
    roots = find_root(fdf, [0.0, 0.0], [1.0, 2.0])
    assert [i.tolist() for _, i in calls[:2]] == [[0, 1, 0, 1], [0, 1]]
    assert len(calls) > 3 and all(i.tolist() == [1] for _, i in calls[2:])
    assert roots[0] == 0.5 and roots[1] == pytest.approx(2.0 ** (1.0 / 3.0), rel=4e-16)


def test_find_root_opens_upward_from_x():
    # hi = inf: lo is never evaluated, and the bracket closes at the first f > 0
    fdf, calls = _recorded(lambda x, i: (x ** 3 - 1000.0, 3.0 * x * x))
    assert find_root(fdf, 0.0, np.inf, 1.0) == pytest.approx(10.0, rel=4e-16)
    assert calls[0][0].tolist() == [1.0] and not any(np.any(x == 0.0) for x, _ in calls)
    # f flat below 8: the Newton step is infinite, so x doubles until it finds a slope
    fdf, calls = _recorded(lambda x, i: (np.where(x < 8.0, -2.0, x - 10.0),
                                         np.where(x < 8.0, 0.0, 1.0)))
    assert find_root(fdf, 0.0, np.inf, 1.0) == 10.0
    assert [float(x[0]) for x, _ in calls] == [1.0, 2.0, 4.0, 8.0, 10.0]
    # the scale follows the iterates, so a root far above x is resolved to its own rounding
    assert find_root(lambda x, i: (np.log(x) - 10.0, 1.0 / x), 0.0, np.inf, 1.0) == (
        pytest.approx(np.exp(10.0), rel=4e-16))


def test_find_root_open_bracket_without_a_root_raises():
    # f > 0 at every iterate: the bracket collapses onto lo, which was never evaluated
    with pytest.raises(ConvergenceError, match="collapsed"):
        find_root(lambda x, i: (1.0 + x, 1.0), 0.0, np.inf, 1.0)
    # f < 0 and flat everywhere: x doubles until the step budget runs out
    with pytest.raises(ConvergenceError, match="200 steps"):
        find_root(lambda x, i: (-1.0, 0.0), 0.0, np.inf, 1.0)


def _arctan_cubic(z, k, e):
    # zero at z; arctan makes far Newton steps overshoot, so both safeguards fire
    return (lambda x: np.arctan(k * (x - z)) + e * (x - z) ** 3,
            lambda x: k / (1.0 + (k * (x - z)) ** 2) + 3.0 * e * (x - z) ** 2)


def _arctan_cubic_fdf(z, k, e):
    # the same as (f, f') of the elements i, as find_root asks for them
    def fdf(x, i):
        f, df = _arctan_cubic(z[i], k[i], e[i])
        return f(x), df(x)

    return fdf


@given(st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(0.0, 40.0), st.floats(0.0, 40.0),
                          st.floats(0.01, 1e4), st.sampled_from([0.0, 1e-3, 1.0])),
                min_size=1, max_size=12))
def test_lockstep_roots_have_the_bits_of_scalar_solves(brackets):
    z, left, right, k, e = (np.array(v) for v in zip(*brackets))
    lo, hi = z - left, z + right
    keep = lo < hi
    z, lo, hi, k, e = z[keep], lo[keep], hi[keep], k[keep], e[keep]
    roots = find_root(_arctan_cubic_fdf(z, k, e), lo, hi)
    for i in range(z.size):
        fi, dfi = _arctan_cubic(float(z[i]), float(k[i]), float(e[i]))
        one = find_root(_arctan_cubic_fdf(z[i:i + 1], k[i:i + 1], e[i:i + 1]),
                        float(lo[i]), float(hi[i]))
        scalar = oracles.scalar_find_root(lambda x: (float(fi(x)), float(dfi(x))),
                                          float(lo[i]), float(hi[i]))
        assert np.float64(roots[i]).tobytes() == np.float64(one).tobytes()
        assert np.float64(one).tobytes() == np.float64(scalar).tobytes()


@pytest.mark.parametrize("aspect", [0.2, 1.3, 5.0, 20.0])
def test_meridian_has_the_bits_of_scalar_root_solves(aspect, plateau):
    # the fit as built one node at a time: a scalar arclength quadrature and a
    # scalar safeguarded Newton solve per Lobatto node; at 0.2 and 20 neither has a plateau
    no_plateau = ["meridian"] if aspect in (0.2, 20.0) else []
    with plateau(*no_plateau):
        m = _EllipsoidMeridian(aspect)
    x, w = gauss_legendre_rule(96)

    def arclength(t):
        half = 0.5 * t
        return half * float(np.dot(w, m.speed(half * (x + 1.0))))

    def t_at_node(j):
        r = 0.5 * m.L * (1.0 + np.cos(np.pi * j / 512))
        lo = r / max(1.0, m.q) * (1.0 - 1e-8)
        hi = min(r / min(1.0, m.q) * (1.0 + 1e-8), np.pi)
        return oracles.scalar_find_root(lambda s: (arclength(s) - r, m.speed(s)), lo, hi)

    with plateau(*no_plateau):
        ref = surface._ChebFit("meridian", lambda js: [t_at_node(j) for j in js], (np.pi, 0.0),
                               np.finfo(float).eps)
    assert (m.L, m.r_equator) == (arclength(np.pi), arclength(np.pi / 2))
    assert m.coeffs.tobytes() == ref.coeffs.tobytes()


def test_ellipsoid_oblate_validates():
    assert validate_profile(make_ellipsoid(0.7)).passed


def test_ellipsoid_rejects_bad_aspect():
    with pytest.raises(InvalidParameterError):
        make_ellipsoid(-1.0)
    with pytest.raises(InvalidParameterError):
        make_ellipsoid(0.0)


@pytest.mark.parametrize("L", [0.0, -np.pi, np.nan, np.inf])
def test_make_custom_rejects_non_positive_length(L):
    with pytest.raises(InvalidParameterError, match="profile length must be positive"):
        make_custom(np.sin, np.cos, lambda r: -np.sin(r), L)


def test_make_custom_sphere_equivalent(sphere):
    p = make_custom(np.sin, np.cos, lambda r: -np.sin(r), np.pi)
    assert p.r0 == pytest.approx(sphere.r0, abs=1e-12)
    assert p.a_r0 == pytest.approx(1.0, abs=1e-12)
    r = np.linspace(0.0, np.pi, 101)
    assert np.allclose(p.a(r), sphere.a(r), atol=1e-15)


def test_make_custom_rejects_two_maxima():
    # a(r) = sin(r) (1 + 0.9 sin^2(2r)) has local maxima on both sides of pi/2
    def a(r):
        return np.sin(r) * (1.0 + 0.9 * np.sin(2 * r) ** 2)

    def a1(r):
        return np.cos(r) * (1.0 + 0.9 * np.sin(2 * r) ** 2) \
            + np.sin(r) * 1.8 * np.sin(2 * r) * 2 * np.cos(2 * r)

    def a2(r):
        h = 1e-6
        return (a1(r + h) - a1(r - h)) / (2 * h)

    with pytest.raises(RejectedProfileError) as err:
        make_custom(a, a1, a2, np.pi)
    # r0 cannot be located, so the report ends after the four checks that need none
    checks = err.value.report.checks
    assert [c.name for c in checks] == ["endpoint_zero", "pole_slope", "interior_positive",
                                        "single_sign_change"]
    assert [c.passed for c in checks] == [True, True, True, False]
    assert checks[3].residual == 3.0
    assert str(err.value) == ("single_sign_change: a' must change sign exactly once, + to - "
                              "(residual 3.000e+00)")


def test_make_custom_samples_a1_on_one_grid(monkeypatch):
    # locating r0 reuses the validation grid's sign change: one sampling, one decision
    shapes, counts = [], []
    sign_changes = surface._sign_changes
    monkeypatch.setattr(surface, "_sign_changes",
                        lambda values: counts.append(1) or sign_changes(values))

    def a1(r):
        shapes.append(np.shape(r))
        return np.cos(r)

    p = make_custom(np.sin, a1, lambda r: -np.sin(r), np.pi)
    assert p.r0 == pytest.approx(np.pi / 2, abs=1e-15) and p.report.passed
    # beyond the one grid only scalars and find_root's 1- and 2-point iterates
    assert [shape for shape in shapes if np.prod(shape) > 2] == [(surface.N_VALIDATION_SAMPLES,)]
    assert len(counts) == 1


def test_make_custom_asymmetric_bump_accepted():
    def a(r):
        return np.sin(r) + 0.05 * np.sin(2 * r) * np.sin(r)

    def a1(r):
        return np.cos(r) + 0.05 * (2 * np.cos(2 * r) * np.sin(r)
                                   + np.sin(2 * r) * np.cos(r))

    def a2(r):
        return -np.sin(r) + 0.05 * (-5 * np.sin(2 * r) * np.sin(r)
                                    + 4 * np.cos(2 * r) * np.cos(r))

    p = make_custom(a, a1, a2, np.pi)
    assert abs(p.r0 - np.pi / 2) > 1e-3
    assert p.a1(p.r0) == pytest.approx(0.0, abs=1e-10)


def test_validation_report_flags_oscillating_profile():
    # sin(2r) on [0, pi]: closes at both ends but fails convexity;
    # r0 is pinned by hand because automatic location needs a unique max
    with pytest.raises(RejectedProfileError) as err:
        make_custom(lambda r: np.sin(2 * r), lambda r: 2 * np.cos(2 * r),
                    lambda r: -4 * np.sin(2 * r), np.pi, r0=np.pi / 4)
    report = err.value.report
    assert not report.passed
    assert str(err.value).startswith(next(c.name for c in report.checks if not c.passed))
    failed = {c.name for c in report.checks if not c.passed}
    assert "single_sign_change" in failed


def test_max_dominates_on_dense_grid(ell13):
    r = np.linspace(1e-9, ell13.L - 1e-9, 10001)
    vals = ell13.a(r)
    assert np.all(vals <= ell13.a_r0 + 1e-12)


def test_profile_table_roundtrip(tmp_path, sphere):
    r = np.linspace(0.0, np.pi, 10001)
    path = tmp_path / "sphere.txt"
    np.savetxt(path, np.column_stack([r, np.sin(r)]))
    p = load_profile_table(str(path))
    probe = np.linspace(0.1, np.pi - 0.1, 200)
    assert np.max(np.abs(p.a(probe) - np.sin(probe))) <= 1e-10
    assert p.r0 == pytest.approx(np.pi / 2, abs=1e-6)
    assert validate_profile(p).passed


def test_profile_table_rejects_decreasing_r(tmp_path):
    # enough rows to pass the row count, so only the increase check can reject it
    path = tmp_path / "bad.txt"
    path.write_text("0.0 0.0\n0.5 0.4\n1.0 0.8\n1.5 1.0\n1.4 0.9\n2.0 0.8\n2.5 0.5\n3.0 0.0\n")
    with pytest.raises(ConfigError) as err:
        load_profile_table(str(path))
    assert str(err.value) == "profile table row 5: x = 1.4 does not increase past 1.5"


def test_read_table_skips_comment_and_blank_rows(tmp_path):
    r = np.linspace(0.0, np.pi, 9)
    rows = [f"{x!r} {y!r}" for x, y in zip(r.tolist(), np.sin(r).tolist())]
    plain, commented = tmp_path / "plain.txt", tmp_path / "commented.txt"
    plain.write_text("\n".join(rows) + "\n")
    commented.write_text("# r a(r)\n\n" + "\n".join(f"{row}  # node {i}\n   \n# skipped"
                                                      for i, row in enumerate(rows)) + "\n")
    ref, spline = (surface.read_table(str(path), "profile table", 8) for path in (plain, commented))
    assert np.array_equal(spline.x, ref.x) and np.array_equal(spline.c, ref.c)


@pytest.mark.parametrize("rows, message", [
    (["0 0", "0.5 0.4", "0.4 0.6", "1 0.8", "1.5 1", "2 0.8", "2.5 0.5", "3 0"],
     "profile table row 3: x = 0.4 does not increase past 0.5"),
    (["0 0", "0.5 0.4", "# a comment", "0.5 0.6", "1 0.8", "1.5 1", "2 0.8", "2.5 0.5", "3 0"],
     "profile table row 4: x = 0.5 does not increase past 0.5"),
    (["0.1 0", "0.5 0.4", "1 0.8", "1.5 1", "2 0.8", "2.5 0.5", "3 0.2", "3.1 0"],
     "profile table: first r must be 0, got 0.1"),
])
def test_profile_table_rejects_bad_abscissae(tmp_path, rows, message):
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ConfigError) as err:
        load_profile_table(str(path))
    assert str(err.value) == message


def test_profile_table_rejects_malformed_row(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.0 0.0\n0.5\n1.0 0.0\n")
    with pytest.raises(ConfigError):
        load_profile_table(str(path))


@pytest.mark.parametrize("row", ["nan 0.8", "1 inf", "0.7 -inf"])
def test_profile_table_rejects_non_finite_row(tmp_path, row):
    path = tmp_path / "bad.txt"
    path.write_text(f"0.0 0.0\n0.5 0.4\n{row}\n2.0 0.4\n")
    with pytest.raises(ConfigError, match="row 3"):
        surface.read_table(str(path), "profile table", 4)


def test_chebyshev_fit_rejects_non_finite_sample():
    with pytest.raises(ConvergenceError, match="non-finite sample"):
        surface._ChebFit("test", lambda js: np.where(js == 64, np.inf, 1.0), (1.0, 1.0), 1e-10)


def test_zero_series_is_a_one_term_plateau():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = surface._ChebFit("zero", lambda js: np.zeros(len(js)), (0.0, 0.0), 1e-10)
    assert fit.converged and fit.degree == 0 and fit.tail == 0.0
    assert make_round_sphere().report.passed


@settings(max_examples=8)
@given(aspect=st.floats(min_value=0.5, max_value=3.0))
def test_ellipsoid_profiles_validate(aspect):
    p = make_ellipsoid(aspect)
    assert validate_profile(p).passed
    assert p.a_r0 == pytest.approx(1.0, abs=1e-9)
