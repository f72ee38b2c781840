import numpy as np
import pytest

from evofam.assumptions import SamplePlan
from evofam.spectral import Grid, random_band_limited
from reference import heat_symbol, oscillating_symbol


@pytest.fixture(scope="session")
def grid():
    return Grid(1, 1024, 2.0 * np.pi)


@pytest.fixture(scope="session")
def small_grid():
    return Grid(1, 256, 2.0 * np.pi)


@pytest.fixture(scope="session")
def h1():
    return heat_symbol(horizon=1.0)


@pytest.fixture(scope="session")
def td1():
    return oscillating_symbol()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def band_vectors(grid):
    r = np.random.default_rng(7)
    return [random_band_limited(grid, r, band=4) for _ in range(4)]


@pytest.fixture(scope="session")
def thin_plan():
    """Reduced densities for behavioral module tests (acceptance uses defaults)."""
    return SamplePlan(time_samples=48, moduli_per_ray=16, pair_grid=20,
                      resolvent_pair_grid=10, resolvent_moduli=8,
                      tau_samples=8, kato_lambdas=6, kato_partitions=6)


@pytest.fixture(scope="session")
def td1_suite(grid, td1, band_vectors):
    """The full TD1 assumption suite at the default plan, shared by the
    acceptance criteria (measured once, asserted many times)."""
    from evofam import assumptions as asm

    theta = 3.0 * np.pi / 4.0
    plan = SamplePlan()
    return {
        "theta": theta,
        "plan": plan,
        "a1": asm.check_sector(td1, grid, theta, plan),
        "a2": asm.check_norm_equivalence(td1, grid, plan),
        "a3": asm.check_operator_lipschitz(td1, grid, plan),
        "kato": asm.check_kato_stability(td1, grid, plan),
        "cprime": asm.check_resolvent_lipschitz(td1, grid, theta, plan),
        "csemi": asm.check_semigroup_lipschitz(td1, grid, plan),
        "cd": asm.certify_cd_system(td1, grid, band_vectors, plan),
    }


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    lines = []
    for outcome in ("passed", "failed"):
        for report in terminalreporter.stats.get(outcome, []):
            name = getattr(report, "head_line", None) or report.nodeid
            if "test_acceptance" not in report.nodeid:
                continue
            label = report.nodeid.split("::")[-1]
            lines.append((label, outcome == "passed"))
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for label, ok in sorted(lines):
        terminalreporter.write_line(f"{'PASS' if ok else 'FAIL'}  {label}")
