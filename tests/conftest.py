import numpy as np
import pytest

from kvwave.mesh import Parameters, build_mesh, flux_coefficients

# pass/fail lines collected by the acceptance module, echoed after the run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def base_params():
    """Equal speeds, unit damping, interfaces at 1 and 2 on (0, 3)."""
    return Parameters(
        c1_sq=1.0, c2_sq=1.0, c3_sq=1.0, delta=1.0,
        alpha=1.0, beta=2.0, length=3.0, t_final=10000.0,
    )


@pytest.fixture(scope="session")
def base_mesh(base_params):
    return build_mesh(base_params, 20, 10, 20)


@pytest.fixture(scope="session")
def base_ell(base_mesh, base_params):
    return flux_coefficients(base_mesh, base_params)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
