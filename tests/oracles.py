"""Independent oracles the suite checks the package against.

Everything here is computed from scratch: normalized Legendre values
by stable recurrences, closed-form sphere identities, and time
averages along geodesics integrated with an off-the-shelf ODE
stepper.  Nothing imports from revtone, so a disagreement localizes
the defect to the package side.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp


def legendre_q0(ell: int, m: int) -> float:
    """Normalized associated Legendre value at the equator.

    Q(ell, m) = sqrt((2 ell + 1)/2 * (ell-m)!/(ell+m)!) * P_ell^m(0),
    built from the closed form at ell = m and the two-step recurrence
    in ell.  Every factor stays O(1), so the recurrence is stable far
    beyond the factorial overflow range of the unnormalized values.
    """
    m = abs(m)
    if (ell - m) % 2 == 1:
        return 0.0
    q2 = (2 * m + 1) / 2.0
    for k in range(1, m + 1):
        q2 *= (2 * k - 1) / (2 * k)
    q = math.sqrt(q2)
    l = m
    while l < ell:
        l += 2
        q = -math.sqrt((2 * l + 1) * (l + m - 1) * (l - m - 1)
                       / ((2 * l - 3) * (l + m) * (l - m))) * q
    return q


def equator_norm(ell: int, m: int) -> float:
    """Closed-form equator norm of the (ell, m) sphere harmonic."""
    return legendre_q0(ell, m) ** 2


# Hand-derived exact values: P_1^1(0) = -1, P_2^0(0) = -1/2, P_2^2(0) = 3.
EXACT_EQUATOR_NORMS = {
    (1, 0): 0.0,
    (1, 1): 3.0 / 4.0,
    (2, 0): 5.0 / 8.0,
    (2, 2): 15.0 / 16.0,
}


def sphere_mu_atoms(ell: int) -> tuple[list, float]:
    """Oracle atoms (m/ell, weight) and raw mass of the sphere multiplet."""
    ws = np.array([equator_norm(ell, m) for m in range(-ell, ell + 1)])
    total = float(ws.sum())
    atoms = [(m / ell, float(w / total))
             for m, w in zip(range(-ell, ell + 1), ws)]
    return atoms, total


def arcsine_cdf(c: float) -> float:
    c = min(max(float(c), -1.0), 1.0)
    return (math.asin(c) + math.pi / 2.0) / math.pi


def arcsine_density(c: float) -> float:
    return 1.0 / (math.pi * math.sqrt(1.0 - c * c))


def cube_cdf(c: float) -> float:
    """CDF of the density 3 c^2 / 2 on [-1, 1]."""
    c = min(max(float(c), -1.0), 1.0)
    return (c ** 3 + 1.0) / 2.0


def _arcsine_antiderivative(c: float) -> float:
    """Antiderivative of arcsine_cdf on [-1, 1]."""
    return (c * math.asin(c) + math.sqrt(max(1.0 - c * c, 0.0))) / math.pi + 0.5 * c


def arcsine_w1(atoms) -> float:
    """Exact W1 between atoms (c, w), sorted by c, and the arcsine law.

    Between atoms the empirical CDF is a constant level L, which the
    increasing arcsine CDF crosses once, at -cos(pi L); on either side
    of that crossing |F - L| integrates in closed form.
    """
    def excess(a, b, level):
        return _arcsine_antiderivative(b) - _arcsine_antiderivative(a) - level * (b - a)

    def segment(lo, hi, level):
        cross = min(max(-math.cos(math.pi * level), lo), hi)
        return excess(cross, hi, level) - excess(lo, cross, level)

    total, below, lo = 0.0, 0.0, -1.0
    for c, w in atoms:
        if c > lo:
            total += segment(lo, c, below)
            lo = c
        below += w
    return total + segment(lo, 1.0, below)


# W1 between the three-atom ell = 1 sphere measure (half weights at
# c = -1 and c = 1) and the arcsine law: the CDF gap is |asin(c)|/pi,
# integrating to 2 (pi/2 - 1)/pi.
W1_SPHERE_ELL1_VS_ARCSINE = 1.0 - 2.0 / math.pi


def geodesic_radial_average(a, a1, c: float, b, r_start: float,
                            periods_time: float = 80.0,
                            rtol: float = 1e-11) -> float:
    """Time average of b(r(t)) along the unit-speed geodesic with Clairaut
    constant c, taken over an exact whole number of radial periods.

    The flow of |xi|_g on the level E = 1 reads dr/dt = rho,
    drho/dt = c^2 a'(r)/a(r)^3 with rho^2 + c^2/a(r)^2 = 1.  A running
    integral of b rides along as a third state; upward crossings of
    r = r_start clip the average to full periods, so the only error
    left is the stepper's.
    """
    def rhs(t, y):
        r = y[0]
        ar = a(r)
        return [y[1], c * c * a1(r) / ar ** 3, b(r)]

    def upward_return(t, y):
        return y[0] - r_start
    upward_return.direction = 1.0

    rho0 = math.sqrt(max(1.0 - c * c / a(r_start) ** 2, 0.0))
    sol = solve_ivp(rhs, (0.0, periods_time), [r_start, rho0, 0.0],
                    method="DOP853", rtol=rtol, atol=1e-13,
                    events=upward_return, dense_output=False)
    times = sol.t_events[0]
    if len(times) < 2:
        raise RuntimeError(f"geodesic closed fewer than two periods by t = {periods_time}")
    t_last = times[-1]
    y_last = sol.y_events[0][-1]
    return float(y_last[2] / t_last)


def ellipse_meridian_arclength(aspect: float, t: float, n: int = 100) -> float:
    """Arclength of the meridian ellipse (sin t, aspect cos t) from t = 0
    to t, by Gauss-Legendre quadrature.

    100 nodes reach rounding level for aspects 0.5 to 5.  numpy's rule
    itself loses digits at higher orders: with 400 nodes the half
    meridian at aspect 5 is off by 2e-13.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    tau = 0.5 * t * (x + 1.0)
    ds = np.sqrt(np.cos(tau) ** 2 + aspect ** 2 * np.sin(tau) ** 2)
    return float(0.5 * t * np.dot(w, ds))


def ellipse_half_meridian_length(aspect: float, n: int = 100) -> float:
    """Arclength of half the meridian ellipse by Gauss-Legendre quadrature."""
    return ellipse_meridian_arclength(aspect, math.pi, n)


def scalar_find_root(f, df, lo: float, hi: float) -> float:
    """Safeguarded Newton iteration on one bracket, in Python floats.

    The stopping and safeguard rules of the package's root finder, one
    scalar at a time: a Newton step that leaves the bracket or exceeds
    half the step before it becomes a bisection, and the iteration stops
    once a Newton step or the bracket is within 2 eps max(|lo|, |hi|).
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0 or fhi == 0.0:
        return lo if flo == 0.0 else hi
    if (flo < 0.0) == (fhi < 0.0):
        raise ValueError(f"f has one sign on [{lo!r}, {hi!r}]")
    res = 2.0 * np.finfo(float).eps * max(abs(lo), abs(hi))
    x = 0.5 * (lo + hi)
    step_old = hi - lo
    for _ in range(200):
        fx = f(x)
        if (fx < 0.0) == (flo < 0.0):
            lo = x
        else:
            hi = x
        d = df(x)
        step = fx / d if d != 0.0 else math.inf
        if abs(step) <= res:
            return x - step
        if not (lo < x - step < hi) or abs(step) > 0.5 * abs(step_old):
            if hi - lo <= res:
                return x
            step = x - 0.5 * (lo + hi)
        x -= step
        step_old = step
    raise ArithmeticError(f"root in [{lo!r}, {hi!r}] not resolved in 200 steps")
