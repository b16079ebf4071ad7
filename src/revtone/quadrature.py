"""Quadrature rules used by the action and measure integrals.

The workhorse is a tanh-sinh (double-exponential) rule on [-1, 1]: under
x = tanh(pi/2 * sinh(t)) the weights decay double-exponentially, which
absorbs inverse-square-root endpoint singularities.  Alongside each node
we keep its distance to the nearest endpoint computed without
cancellation, so integrands can be evaluated stably arbitrarily close to
the ends of the interval.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

# Truncation point of the double-exponential variable.  At t = 4 the
# weight is ~1e-18 even against a (1-x)^(-1/2) blow-up.
_T_MAX = 4.0


@lru_cache(maxsize=32)
def tanh_sinh_rule(n: int):
    """Nodes, weights and stable endpoint distances for [-1, 1].

    Parameters
    ----------
    n : requested node count; the rule uses 2*(n//2) + 1 symmetric nodes.

    Returns
    -------
    x : ndarray, nodes in (-1, 1)
    w : ndarray, weights (sum approximates integrals over [-1, 1])
    sigma : ndarray, 1 - |x| evaluated in a cancellation-free form
    """
    half_count = max(n // 2, 8)
    h = _T_MAX / half_count
    t = h * np.arange(-half_count, half_count + 1)
    u = 0.5 * np.pi * np.sinh(t)
    x = np.tanh(u)
    w = h * 0.5 * np.pi * np.cosh(t) / np.cosh(u) ** 2
    sigma = 2.0 / (1.0 + np.exp(2.0 * np.abs(u)))
    for arr in (x, w, sigma):
        arr.setflags(write=False)
    return x, w, sigma


def map_to_interval(lo: float, hi: float, x, sigma):
    """Map rule nodes to [lo, hi], returning exact distances to each end.

    Near an endpoint the distance half*(1 - |x|) is far more accurate
    than subtracting mapped coordinates, so both one-sided distances are
    derived from sigma.
    """
    half = 0.5 * (hi - lo)
    d_near = half * sigma
    neg = x < 0
    r = np.where(neg, lo + d_near, hi - d_near)
    d_lo = np.where(neg, d_near, (hi - lo) - d_near)
    d_hi = np.where(neg, (hi - lo) - d_near, d_near)
    return r, d_lo, d_hi, half


@lru_cache(maxsize=32)
def gauss_legendre_rule(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w
