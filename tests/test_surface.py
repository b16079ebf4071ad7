import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revtone import (
    ConfigError,
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
    assert sphere.equator_length() == pytest.approx(2 * np.pi, abs=1e-14)
    assert sphere.a1(0.0) == pytest.approx(1.0, abs=1e-15)
    assert sphere.a2(np.pi / 2) == pytest.approx(-1.0, abs=1e-15)
    assert sphere.r0 == pytest.approx(np.pi / 2, abs=1e-13)


def test_round_sphere_validates(sphere):
    report = validate_profile(sphere)
    assert report.passed
    assert report.first_failure() is None


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
def test_ellipsoid_meridian_records_its_plateau(aspect, converged):
    m = _EllipsoidMeridian(aspect)
    assert m.converged is converged
    assert (len(m.coeffs) < 513) is converged


def test_ellipsoid_meridian_stops_at_its_plateau(monkeypatch):
    # one root solve per sampled Lobatto node, nested up to the first plateau,
    # and the new nodes of a level solved in one lockstep call
    solves = []
    root = surface.find_root
    monkeypatch.setattr(surface, "find_root",
                        lambda f, df, lo, hi: solves.append(np.size(lo)) or root(f, df, lo, hi))
    m = _EllipsoidMeridian(1.3)
    assert m.converged and sum(solves) <= 65 and len(solves) <= 6
    assert m.degree == len(m.coeffs) - 1
    assert 0.0 <= m.tail <= 4.0 * np.finfo(float).eps * float(np.max(np.abs(m.coeffs)))


def test_find_root_needs_a_sign_change():
    assert find_root(lambda x: x * x - 2.0, lambda x: 2.0 * x, 0.0, 2.0) == pytest.approx(
        np.sqrt(2.0), abs=4e-16)
    with pytest.raises(InvalidParameterError):
        find_root(lambda x: x * x + 1.0, lambda x: 2.0 * x, -1.0, 2.0)


def test_find_root_stops_at_float_resolution():
    # f changes sign between two neighbouring floats and never vanishes
    x0 = 1.0 + 2.0 ** -40
    root = find_root(lambda x: -1.0 if x <= x0 else 1.0, lambda x: 0.0, 0.0, 2.0)
    assert abs(root - x0) <= 4.0 * np.spacing(2.0)


def _arctan_cubic(z, k, e):
    # zero at z; arctan makes far Newton steps overshoot, so both safeguards fire
    return (lambda x: np.arctan(k * (x - z)) + e * (x - z) ** 3,
            lambda x: k / (1.0 + (k * (x - z)) ** 2) + 3.0 * e * (x - z) ** 2)


@given(st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(0.0, 40.0), st.floats(0.0, 40.0),
                          st.floats(0.01, 1e4), st.sampled_from([0.0, 1e-3, 1.0])),
                min_size=1, max_size=12))
def test_lockstep_roots_have_the_bits_of_scalar_solves(brackets):
    z, left, right, k, e = (np.array(v) for v in zip(*brackets))
    lo, hi = z - left, z + right
    keep = lo < hi
    z, lo, hi, k, e = z[keep], lo[keep], hi[keep], k[keep], e[keep]
    f, df = _arctan_cubic(z, k, e)
    roots = find_root(f, df, lo, hi)
    for i in range(z.size):
        fi, dfi = _arctan_cubic(float(z[i]), float(k[i]), float(e[i]))
        one = find_root(fi, dfi, float(lo[i]), float(hi[i]))
        scalar = oracles.scalar_find_root(lambda x: float(fi(x)), lambda x: float(dfi(x)),
                                          float(lo[i]), float(hi[i]))
        assert np.float64(roots[i]).tobytes() == np.float64(one).tobytes()
        assert np.float64(one).tobytes() == np.float64(scalar).tobytes()


@pytest.mark.parametrize("aspect", [0.2, 1.3, 5.0, 20.0])
def test_meridian_has_the_bits_of_scalar_root_solves(aspect):
    # the fit as built one node at a time: a scalar arclength quadrature and a
    # scalar safeguarded Newton solve per Lobatto node
    m = _EllipsoidMeridian(aspect)
    x, w = gauss_legendre_rule(96)

    def arclength(t):
        half = 0.5 * t
        return half * float(np.dot(w, m.speed(half * (x + 1.0))))

    def t_at_node(j):
        r = 0.5 * m.L * (1.0 + np.cos(np.pi * j / 512))
        lo = r / max(1.0, m.q) * (1.0 - 1e-8)
        hi = min(r / min(1.0, m.q) * (1.0 + 1e-8), np.pi)
        return oracles.scalar_find_root(lambda s: arclength(s) - r, m.speed, lo, hi)

    ref = surface._ChebFit(lambda js: [t_at_node(j) for j in js], (np.pi, 0.0),
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

    with pytest.raises(RejectedProfileError):
        make_custom(a, a1, a2, np.pi)


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
    report = validate_profile(
        make_custom(lambda r: np.sin(2 * r), lambda r: 2 * np.cos(2 * r),
                    lambda r: -4 * np.sin(2 * r), np.pi, r0=np.pi / 4,
                    check=False))
    assert not report.passed
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
    path = tmp_path / "bad.txt"
    path.write_text("0.0 0.0\n0.5 0.4\n0.4 0.5\n1.0 0.0\n")
    with pytest.raises(ConfigError) as err:
        load_profile_table(str(path))
    assert "row" in str(err.value)


def test_profile_table_rejects_malformed_row(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.0 0.0\n0.5\n1.0 0.0\n")
    with pytest.raises(ConfigError):
        load_profile_table(str(path))


@settings(max_examples=8)
@given(aspect=st.floats(min_value=0.5, max_value=3.0))
def test_ellipsoid_profiles_validate(aspect):
    p = make_ellipsoid(aspect)
    assert validate_profile(p).passed
    assert p.a_r0 == pytest.approx(1.0, abs=1e-9)
