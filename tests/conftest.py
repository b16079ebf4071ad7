"""Session fixtures.  Profile construction and evaluator caches are the
expensive parts (spectral slices, limit series, turning points), so
every test shares one instance per profile."""
from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from revtone import ActionEvaluator, joint_slice, make_ellipsoid, make_round_sphere

settings.register_profile(
    "suite", derandomize=True, deadline=None, max_examples=40,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture(scope="session")
def sphere():
    return make_round_sphere()


@pytest.fixture(scope="session")
def sphere_ev(sphere):
    return ActionEvaluator(sphere)


@pytest.fixture(scope="session")
def ell13():
    return make_ellipsoid(1.3)


@pytest.fixture(scope="session")
def ell13_ev(ell13):
    return ActionEvaluator(ell13)


@pytest.fixture(scope="session")
def ell13_slices(ell13, ell13_ev):
    """Ellipsoid multiplets shared by the convergence checks."""
    return {ell: joint_slice(ell13, ell, grid_size=4000)
            for ell in (25, 50, 100)}


_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    return _ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter):
    # surfaces the per-check verdicts even though pytest captures stdout
    if _ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance summary")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
