"""Independent oracles the suite checks the package against.

Everything here is computed from scratch: normalized Legendre values
by stable recurrences, closed-form sphere identities, and time
averages along geodesics integrated with an off-the-shelf ODE
stepper, and a Rayleigh-Ritz solve of the ellipsoid's radial problem in
an associated Legendre basis.  Nothing imports from revtone, so a
disagreement localizes the defect to the package side.
"""
from __future__ import annotations

import functools
import math
from types import SimpleNamespace

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh
from scipy.special import roots_legendre


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


def arcsine_density(c):
    """Density of the arcsine law, elementwise over c in (-1, 1)."""
    return 1.0 / (np.pi * np.sqrt(1.0 - np.square(c)))


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


def w1_segments(positions, weights, cdf):
    """(lo, hi, level, f_lo, straddle) of the segments between atoms at sorted
    positions, on which the empirical CDF is the constant level: f_lo is
    cdf(lo) - level, and straddle marks the ends of opposite strict sign."""
    pos = np.asarray(positions, float)
    cum = np.concatenate(([0.0], np.cumsum(weights)))
    opens = pos > np.maximum.accumulate(np.concatenate(([-1.0], pos)))[:-1]
    bounds = np.concatenate(([-1.0], pos[opens], [1.0]))
    level = np.concatenate((cum[:-1][opens], cum[-1:]))
    f = cdf(bounds)
    f_lo, f_hi = f[:-1] - level, f[1:] - level
    straddle = (f_lo != 0.0) & (f_hi != 0.0) & ((f_lo < 0.0) != (f_hi < 0.0))
    return bounds[:-1], bounds[1:], level, f_lo, straddle


def bisection_w1(positions, weights, cdf) -> float:
    """W1 between atoms at sorted positions and a limit CDF, with every crossing
    of a level found by 80 lockstep bisections.

    A segment of `w1_segments` that straddles its level is split at its
    crossing, and each of the two pieces gets 32-point Gauss-Legendre
    quadrature of |cdf - level|.  Nothing here uses the derivative of cdf.
    """
    lo, hi, level, f_lo, straddle = w1_segments(positions, weights, cdf)
    a, b = lo[straddle], hi[straddle]
    s_level, s_neg = level[straddle], f_lo[straddle] < 0.0
    live = np.ones(a.size, bool)
    for _ in range(80):
        mid = 0.5 * (a + b)
        live &= (mid > a) & (mid < b)
        if not live.any():
            break
        idx = np.flatnonzero(live)
        left = (cdf(mid[idx]) - s_level[idx] < 0.0) == s_neg[idx]
        a[idx[left]] = mid[idx[left]]
        b[idx[~left]] = mid[idx[~left]]
    split = hi.copy()
    split[straddle] = 0.5 * (a + b)
    starts, ends = np.concatenate((lo, split)), np.concatenate((split, hi))
    keep = ends - starts > 1e-300
    starts, ends, levels = starts[keep], ends[keep], np.tile(level, 2)[keep]
    x, w = np.polynomial.legendre.leggauss(32)
    mid, half = 0.5 * (starts + ends), 0.5 * (ends - starts)
    vals = np.abs(cdf(mid[:, None] + half[:, None] * x) - levels[:, None])
    return float(np.sum(half * (vals @ w)))


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


def full_radial_pencil(p, nodes: int, m: int) -> SimpleNamespace:
    """The radial pencil of angular number m in standard form, on the whole node set.

    This is the flux-conservative scheme of the package's spectral layer on
    `nodes` uniform nodes pulled back from the poles by L / (10 nodes),
    sampled over the whole meridian and never split by parity.  For m != 0
    the poles are dropped.  Returns the diagonal, off-diagonal, a, sqrt(a)
    and nodes r of that node set, and the spacing h.
    """
    rs = np.linspace(p.L / (10.0 * nodes), p.L - p.L / (10.0 * nodes), nodes)
    h = float(rs[1] - rs[0])
    a = np.asarray(p.a(rs), float)
    ah = np.asarray(p.a(0.5 * (rs[:-1] + rs[1:])), float) / (h * h)
    flux = np.append(ah, 0.0) + np.insert(ah, 0, 0.0)
    cut = slice(None) if m == 0 else slice(1, -1)
    sq = np.sqrt(a[cut])
    diag = flux / a if m == 0 else (flux[cut] + (m * m) / a[cut]) / a[cut]
    return SimpleNamespace(diag=diag, off=-ah[cut] / (sq[:-1] * sq[1:]), a=a[cut], sq=sq,
                           r=rs[cut], h=h)


def matrix_element_radial(mode, b, p) -> float:
    """Diagonal matrix element of multiplication by b(r) in one radial mode: the
    trapezoid integral of b u^2 a over the mode's nodes, sampling a and b there."""
    ar = np.asarray(p.a(mode.r), float)
    br = np.asarray(b(mode.r), float)
    return float(np.trapezoid(br * mode.u * mode.u * ar, mode.r))


def scalar_find_root(fdf, lo: float, hi: float) -> float:
    """Safeguarded Newton iteration on one bracket, in Python floats; fdf(x)
    returns (f, f').

    The stopping and safeguard rules of the package's root finder on a
    finite bracket, one scalar at a time: a Newton step that leaves the
    bracket or exceeds half the step before it becomes a bisection, and
    the iteration stops once a Newton step or the bracket is within
    2 eps max(|lo|, |hi|), or at x once a Newton step within
    sqrt(eps) max(|lo|, |hi|) is followed by a Newton step that does not
    halve it (f's rounding floor).
    """
    flo, fhi = fdf(lo)[0], fdf(hi)[0]
    if flo == 0.0 or fhi == 0.0:
        return lo if flo == 0.0 else hi
    if (flo < 0.0) == (fhi < 0.0):
        raise ValueError(f"f has one sign on [{lo!r}, {hi!r}]")
    scale = max(abs(lo), abs(hi))
    res, near = 2.0 * np.finfo(float).eps * scale, math.sqrt(np.finfo(float).eps) * scale
    x = 0.5 * (lo + hi)
    step_old, newton_old = hi - lo, False
    for _ in range(200):
        fx, d = fdf(x)
        if (fx < 0.0) == (flo < 0.0):
            lo = x
        else:
            hi = x
        step = fx / d if d != 0.0 else math.inf
        if abs(step) <= res:
            return x - step
        stalled = abs(step) > 0.5 * abs(step_old)
        if newton_old and abs(step_old) <= near and stalled:
            return x
        newton_old = (lo < x - step < hi) and not stalled
        if not newton_old:
            if hi - lo <= res:
                return x
            step = x - 0.5 * (lo + hi)
        x -= step
        step_old = step
    raise ArithmeticError(f"root in [{lo!r}, {hi!r}] not resolved in 200 steps")


def _legendre_basis(m: int, K: int, x: np.ndarray) -> tuple:
    """Orthonormal associated Legendre functions P_k^m(x), k = m .. m + K - 1, on [-1, 1]
    (rows), and (1 - x^2) times their derivatives, by the three-term recurrence in k."""
    P = np.zeros((K + 1, x.size))  # row 0 is P_{m-1}^m = 0
    P[1] = math.sqrt(0.5 * math.prod((2 * j + 1) / (2 * j) for j in range(1, m + 1))) \
        * (1.0 - x * x) ** (0.5 * m)
    for i, k in enumerate(range(m + 1, m + K), start=2):
        P[i] = (math.sqrt((4 * k * k - 1) / (k * k - m * m)) * x * P[i - 1]
                - math.sqrt((2 * k + 1) * ((k - 1) ** 2 - m * m)
                            / ((2 * k - 3) * (k * k - m * m))) * P[i - 2])
    k = np.arange(m, m + K)[:, None]
    D = -k * x * P[1:] + np.sqrt((2 * k + 1) * (k * k - m * m) / (2 * k - 1)) * P[:-1]
    return P[1:], D


@functools.lru_cache(maxsize=None)
def _gauss_legendre(N: int) -> tuple:
    """Gauss-Legendre nodes and weights: scipy's nodes refined by Newton steps on the
    three-term recurrence of P_N, with weights 2 / ((1 - x^2) P_N'(x)^2) from it.  Its
    moments of P_k^2 stay within 3e-14 of 1 up to a thousand nodes, where those of
    scipy's own weights are off by 7e-11."""
    x = roots_legendre(N)[0]
    for _ in range(3):
        p0, p1 = np.ones_like(x), x
        for k in range(2, N + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = N * (p0 - x * p1) / (1.0 - x * x)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def _ritz(q: float, m: int, n: int, K: int) -> tuple:
    """(lambda^2, u(r0)^2) of radial mode n of angular number m on the ellipsoid of aspect
    q from the basis of K functions P_k^m, with 2 (m + K) + 64 Gauss-Legendre nodes.  The
    problem is even in x: mode n lives on the P_k^m of parity (-1)^(k - m) = (-1)^n, whose
    integrands are even, taken twice over the positive nodes."""
    x, w = _gauss_legendre(2 * (m + K) + 64)
    x, w = x[x > 0.0], 2.0 * w[x > 0.0]
    one = 1.0 - x * x
    s = np.sqrt(x * x + q * q * one)
    P, D = (v[n % 2::2] for v in _legendre_basis(m, K, np.append(x, 0.0)))
    P, at_r0, D = P[:, :-1], P[:, -1], D[:, :-1]  # the last node is the equator x = 0
    A = (D * (w / (one * s))) @ D.T + (m * m) * ((P * (w * s / one)) @ P.T)
    B = (P * (w * s)) @ P.T
    lam2, v = eigh(A, B, subset_by_index=(n // 2, n // 2))
    return float(lam2[0]), float(v[:, 0] @ at_r0) ** 2


@functools.lru_cache(maxsize=None)
def ritz_modes(q: float, m: int, n: int) -> tuple:
    """(lambda^2, u(r0)^2) of radial mode n (n interior nodes) of angular number m on the
    ellipsoid x^2 + y^2 + z^2 / q^2 = 1, u normalized by integral u^2 a dr = 1.

    Rayleigh-Ritz in the ellipse parameter t, with x = cos t and speed
    s = sqrt(x^2 + q^2 (1 - x^2)): the weak form of -(1/a)(a u')' + m^2 u / a^2
    = lambda^2 u is A v = lambda^2 B v with
    A_ij = integral (1 - x^2) P_i' P_j' / s + m^2 s P_i P_j / (1 - x^2) dx and
    B_ij = integral s P_i P_j dx over [-1, 1], in the orthonormal associated
    Legendre functions P_k^m; u(r0) = sum_k v_k P_k^m(0) with v^T B v = 1.
    On the sphere A = k (k + 1) I.  The basis grows by 80 from n + 80 until
    lambda^2 agrees with the previous basis to 1e-12 relative and u(r0)^2
    to 1e-11; ArithmeticError if that has not happened by n + 400.  Results are
    memoized.
    """
    cur = _ritz(q, m, n, n + 80)
    for K in range(n + 160, n + 401, 80):
        prev, cur = cur, _ritz(q, m, n, K)
        if abs(cur[0] - prev[0]) <= 1e-12 * abs(cur[0]) and abs(cur[1] - prev[1]) <= 1e-11:
            return cur
    raise ArithmeticError(f"Ritz values at aspect {q}, m = {m}, n = {n} still move by "
                          f"{abs(cur[0] / prev[0] - 1.0):.1e} (lambda^2) and "
                          f"{abs(cur[1] - prev[1]):.1e} (u(r0)^2) at K = n + 400")
