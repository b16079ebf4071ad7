"""End-to-end acceptance gate.

Each test exercises one deliverable at its stated tolerance and appends
a PASS/FAIL line to the session summary printed after the run.
"""
import json
import subprocess
import sys
import time

import numpy as np

from revtone import (
    ActionEvaluator,
    spectral,
    action_I2,
    angular_symbol,
    dI2_dE,
    di2_drho_fd,
    energy_K,
    frequencies,
    joint_slice,
    limit_density_unnorm,
    normalization_M,
    radial_modes,
    radial_symbol,
    torus_average,
)
from revtone.measures import (
    EmpiricalMeasure,
    LimitMeasure,
    empirical_mu,
    empirical_nu,
    limit_measure_mu,
    limit_measure_nu,
    wasserstein1,
)

import oracles

RATIOS = [0.0] + [s * 0.1 * k for k in range(1, 10) for s in (1.0, -1.0)] \
    + [0.99, -0.99]


def _finish(log, idx, name, ok, detail):
    line = f"[acceptance {idx}/10] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    log.append(line)
    print(line)
    assert ok, line


def _arcsine_limit():
    return LimitMeasure(density=oracles.arcsine_density,
                        cdf=np.vectorize(oracles.arcsine_cdf), mass_constant=np.pi)


def test_01_action_identity_on_sphere(acceptance_log, sphere_ev):
    t0 = time.perf_counter()
    worst = 0.0
    for energy in (0.5, 1.0, 3.0):
        for u in RATIOS:
            worst = max(worst, abs(action_I2(sphere_ev, u * energy, energy) - energy))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt <= 5.0
    _finish(acceptance_log, 1, "sphere action identity",
            ok, f"max |I2 - E| = {worst:.2e}, {dt:.2f}s")


def test_02_sphere_limit_density_closed_form(acceptance_log, sphere_ev):
    t0 = time.perf_counter()
    worst = 0.0
    for c in np.linspace(-0.999, 0.999, 401):
        val = limit_density_unnorm(sphere_ev, float(c))
        worst = max(worst, abs(val * np.sqrt(1.0 - c * c) - 1.0))
    mass_err = abs(normalization_M(sphere_ev) - np.pi)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and mass_err <= 1e-8 and dt <= 5.0
    _finish(acceptance_log, 2, "sphere limit density",
            ok, f"density residual {worst:.2e}, |M - pi| = {mass_err:.2e}, {dt:.2f}s")


def test_03_equator_derivative_identity(acceptance_log, sphere_ev, ell13_ev):
    worst = 0.0
    for ev in (sphere_ev, ell13_ev):
        a0 = ev.profile.a_r0
        for c in np.linspace(-0.95, 0.95, 20):
            c = float(c)
            fd = di2_drho_fd(ev, c)
            energy = energy_K(ev, c, 1.0)
            omega2 = frequencies(ev, c)[1]
            target = np.sqrt(1.0 - (c / (energy * a0)) ** 2) / omega2
            worst = max(worst, abs(fd - target) / abs(target))
    ok = worst <= 1e-6
    _finish(acceptance_log, 3, "equator derivative identity",
            ok, f"max relative error {worst:.2e} over both profiles")


def test_04_sphere_eigenvalue_ladder(acceptance_log, sphere, sphere_ev):
    t0 = time.perf_counter()
    ground = abs(radial_modes(sphere, 0, 0, 8000)[0].lam ** 2)
    worst = 0.0
    for ell in range(1, 31):
        target = ell * (ell + 1.0)
        for mode in joint_slice(sphere, ell, 8000).modes:
            worst = max(worst, abs(mode.lam ** 2 - target) / target)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-6 and ground <= 1e-6 and dt <= 60.0
    _finish(acceptance_log, 4, "sphere eigenvalue ladder",
            ok, f"max relative error {worst:.2e}, ground {ground:.2e}, {dt:.1f}s")


def test_05_equator_norms_vs_legendre(acceptance_log, sphere, sphere_ev):
    worst = 0.0
    for ell in range(1, 21):
        modes = joint_slice(sphere, ell, 4000).modes
        for m, value in zip(modes.m.tolist(), modes.norm.tolist()):
            worst = max(worst, abs(value - oracles.equator_norm(ell, m)))
    ok = worst <= 1e-5
    _finish(acceptance_log, 5, "equator norms vs Legendre",
            ok, f"max |norm - closed form| = {worst:.2e}, ell <= 20")


def test_06_sphere_w1_decay_and_solver_agreement(acceptance_log, sphere, sphere_ev):
    t0 = time.perf_counter()
    lim = _arcsine_limit()
    w1_oracle = {}
    for ell in (25, 50, 100, 200, 400):
        atoms, _ = oracles.sphere_mu_atoms(ell)
        w1_oracle[ell] = wasserstein1(
            EmpiricalMeasure(*np.transpose(atoms), total_mass_raw=1.0), lim)
    seq = [w1_oracle[ell] for ell in (25, 50, 100, 200, 400)]
    decreasing = all(b < a for a, b in zip(seq, seq[1:]))

    max_gap = 0.0
    for ell in (25, 50, 100):
        mu = empirical_mu(joint_slice(sphere, ell, 4000))
        max_gap = max(max_gap, abs(wasserstein1(mu, lim) - w1_oracle[ell]))
    dt = time.perf_counter() - t0
    ok = decreasing and w1_oracle[400] <= 0.02 and max_gap <= 1e-4 and dt <= 600.0
    _finish(acceptance_log, 6, "sphere W1 decay and solver agreement", ok,
            f"W1(400) = {w1_oracle[400]:.4f}, decreasing = {decreasing}, "
            f"solver gap {max_gap:.2e}, {dt:.1f}s")


def test_07_ellipsoid_w1_decay_and_endpoint_frequency(acceptance_log, ell13_ev,
                                                      ell13_slices):
    lim = limit_measure_mu(ell13_ev)
    w1 = [wasserstein1(empirical_mu(ell13_slices[ell]), lim)
          for ell in (25, 50, 100)]
    decreasing = w1[0] > w1[1] > w1[2]
    a0 = ell13_ev.profile.a_r0
    freq_err = max(abs(frequencies(ell13_ev, 1.0)[1] - 1.0 / a0 ** 2),
                   abs(frequencies(ell13_ev, -1.0)[1] - 1.0 / a0 ** 2))
    ok = decreasing and freq_err <= 1e-6
    _finish(acceptance_log, 7, "ellipsoid W1 decay and endpoint frequency", ok,
            f"W1 = {w1[0]:.4f} > {w1[1]:.4f} > {w1[2]:.4f}, "
            f"endpoint omega2 error {freq_err:.2e}")


def test_08_symbol_measure_convergence(acceptance_log, sphere, sphere_ev,
                                       ell13, ell13_ev, plateau):
    squared = angular_symbol(lambda s: np.asarray(s) ** 2, name="s^2")
    nu200 = empirical_nu(joint_slice(sphere, 200, 4000, squared))
    w1_sphere = wasserstein1(nu200, limit_measure_nu(sphere_ev, squared))

    cos_r = radial_symbol(np.cos, name="cos r")
    with plateau("nu"):
        lim = limit_measure_nu(ell13_ev, cos_r)
    w1 = [wasserstein1(empirical_nu(joint_slice(ell13, ell, 4000, cos_r)), lim)
          for ell in (25, 50, 100)]
    decreasing = w1[0] > w1[1] > w1[2]
    ok = w1_sphere <= 1e-2 and decreasing
    _finish(acceptance_log, 8, "symbol measure convergence", ok,
            f"sphere s^2 W1(200) = {w1_sphere:.4f}, ellipsoid cos r "
            f"W1 = {w1[0]:.4f} > {w1[1]:.4f} > {w1[2]:.4f}")


def test_09_property_battery(acceptance_log, sphere, sphere_ev, ell13,
                             ell13_ev, ell13_slices):
    rng = np.random.default_rng(0)
    checks = []

    # monotonicity of the radial action in energy
    positive = 0
    for ev in (sphere_ev, ell13_ev):
        for _ in range(500):
            u = float(rng.uniform(-0.999, 0.999))
            energy = float(rng.uniform(0.3, 5.0))
            if dI2_dE(ev, u * energy, energy) > 0.0:
                positive += 1
    checks.append(("dI2_dE > 0", positive == 1000))

    # joint homogeneity of the action and the energy
    worst_h = 0.0
    for ev in (sphere_ev, ell13_ev):
        for u in (0.0, 0.3, -0.9):
            for energy in (0.7, 1.3):
                base_i2 = action_I2(ev, u * energy, energy)
                for t in (0.5, 2.0, 10.0):
                    worst_h = max(worst_h, abs(
                        action_I2(ev, t * u * energy, t * energy) - t * base_i2)
                        / max(1.0, t))
                base_k = energy_K(ev, u * energy, base_i2)
                for t in (0.5, 2.0, 10.0):
                    worst_h = max(worst_h, abs(
                        energy_K(ev, t * u * energy, t * base_i2) - t * base_k)
                        / max(1.0, t))
    checks.append(("homogeneity 1e-9", worst_h <= 1e-9))

    # torus average of the unit symbol
    one = radial_symbol(lambda r: np.ones_like(r), name="one")
    worst_t = max(abs(torus_average(ev, one, c) - 1.0)
                  for ev in (sphere_ev, ell13_ev)
                  for c in (0.0, 0.25, -0.6, 0.9))
    checks.append(("torus normalization 1e-9", worst_t <= 1e-9))

    # oscillation counts of every computed mode
    def nodes(u):
        live = np.abs(u) > 1e-8 * np.max(np.abs(u))
        signs = np.sign(u[live])
        return int(np.sum(signs[:-1] * signs[1:] < 0))

    counted = all(nodes(mode.u) == mode.n
                  for modes in (spectral._multiplet(sphere, 12, 2000),
                                spectral._multiplet(ell13, 25, 4000))
                  for mode in modes)
    checks.append(("node counts", counted))

    # m reflection symmetry
    sym_ok = True
    for sl in (joint_slice(sphere, 12, 2000), ell13_slices[50]):
        pos, neg = sl.modes[sl.modes.m > 0], sl.modes[sl.modes.m < 0][::-1]
        sym_ok &= np.array_equal(pos.m, np.arange(1, sl.ell + 1)) and np.array_equal(neg.m, -pos.m)
        sym_ok &= bool(np.all(np.abs(pos.lam - neg.lam) <= 1e-12))
        sym_ok &= bool(np.all(np.abs(pos.norm - neg.norm) <= 1e-12))
    checks.append(("m reflection 1e-12", sym_ok))

    # bit-identical reruns
    a = spectral._multiplet(sphere, 9, 1000)
    b = spectral._multiplet(sphere, 9, 1000)
    identical = all(ma.lam == mb.lam and np.array_equal(ma.u, mb.u)
                    for ma, mb in zip(a, b))
    identical &= action_I2(sphere_ev, 0.4, 1.3) == action_I2(sphere_ev, 0.4, 1.3)
    fresh = ActionEvaluator(sphere)
    identical &= action_I2(sphere_ev, 0.4, 1.3) == action_I2(fresh, 0.4, 1.3)
    checks.append(("determinism", identical))

    failed = [name for name, ok in checks if not ok]
    _finish(acceptance_log, 9, "property battery", not failed,
            "all six families hold" if not failed else f"failed: {failed}")


def test_10_verify_sphere_end_to_end(acceptance_log, tmp_path):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("profile.kind = round_sphere\nrun.command = verify-sphere\n"
                   f"run.out_dir = {tmp_path}\n")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "revtone", "--config", str(cfg)],
                          capture_output=True, text=True)
    dt = time.perf_counter() - t0
    report = json.loads((tmp_path / "verify.json").read_text())
    residuals_reported = all(ch["residual"] is not None for ch in report["checks"])
    ok = proc.returncode == 0 and dt <= 120.0 and report["passed"] \
        and residuals_reported
    _finish(acceptance_log, 10, "verify-sphere end to end", ok,
            f"exit {proc.returncode}, {len(report['checks'])} checks, {dt:.1f}s")
