import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from revtone.quadrature import gauss_legendre_rule, map_to_interval, tanh_sinh_rule


def _tanh_sinh_integral(f, lo, hi, n=256):
    x, w, sigma = tanh_sinh_rule(n)
    r, d_lo, d_hi, half = map_to_interval(lo, hi, x, sigma)
    return half * float(np.sum(w * f(r, d_lo, d_hi)))


def test_tanh_sinh_handles_inverse_sqrt_endpoints():
    # exact: int_0^1 x^(-1/2) dx = 2; the near-endpoint distance d_lo
    # keeps the integrand finite where r rounds to the endpoint
    val = _tanh_sinh_integral(lambda r, d_lo, d_hi: 1.0 / np.sqrt(d_lo), 0.0, 1.0)
    assert val == pytest.approx(2.0, abs=1e-13)


def test_tanh_sinh_handles_log_endpoint():
    val = _tanh_sinh_integral(lambda r, d_lo, d_hi: np.log(d_lo), 0.0, 1.0)
    assert val == pytest.approx(-1.0, abs=1e-13)


def test_tanh_sinh_double_sqrt_singularity():
    # int_0^1 1/sqrt(x(1-x)) dx = pi, singular at both ends
    val = _tanh_sinh_integral(
        lambda r, d_lo, d_hi: 1.0 / np.sqrt(d_lo * d_hi), 0.0, 1.0)
    assert val == pytest.approx(np.pi, abs=1e-13)


def test_tanh_sinh_weights_positive_and_cached():
    x1, w1, s1 = tanh_sinh_rule(128)
    x2, w2, s2 = tanh_sinh_rule(128)
    assert x1 is x2 and w1 is w2 and s1 is s2
    assert np.all(w1 > 0.0)
    # symmetric rule: 2 (n//2) + 1 nodes
    assert len(x1) == 129


def test_endpoint_distances_are_exact():
    x, w, sigma = tanh_sinh_rule(64)
    r, d_lo, d_hi, half = map_to_interval(2.0, 5.0, x, sigma)
    assert np.all(d_lo > 0.0) and np.all(d_hi > 0.0)
    assert np.allclose(d_lo + d_hi, 3.0, atol=1e-14)
    assert half == pytest.approx(1.5)


def test_gauss_legendre_polynomial_exactness():
    x, w = gauss_legendre_rule(16)
    assert np.dot(w, x ** 2) == pytest.approx(2.0 / 3.0, abs=1e-15)


@given(slope=st.floats(-5, 5), offset=st.floats(-5, 5),
       lo=st.floats(-3, 1), width=st.floats(0.1, 4))
def test_gauss_legendre_exact_on_affine(slope, offset, lo, width):
    hi = lo + width
    x, w = gauss_legendre_rule(64)
    half = 0.5 * (hi - lo)
    val = half * float(np.dot(w, slope * (0.5 * (hi + lo) + half * x) + offset))
    exact = slope * (hi ** 2 - lo ** 2) / 2 + offset * width
    assert val == pytest.approx(exact, abs=1e-10 * (1 + abs(exact)))
