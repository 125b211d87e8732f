"""Shared fixtures and the acceptance-criteria reporting hook."""
import numpy as np
import pytest

import graphsync as gs
from graphsync.errors import QuadratureError

ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


@pytest.fixture
def record_criterion():
    """Log one acceptance criterion outcome; printed in the terminal summary."""

    def _record(ident: str, passed: bool, detail: str) -> None:
        ACCEPTANCE_RESULTS.append((ident, passed, detail))
        print(f"[acceptance {ident}] {'PASS' if passed else 'FAIL'}: {detail}")

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for ident, passed, detail in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(
            f"{ident}: {'PASS' if passed else 'FAIL'} - {detail}"
        )


@pytest.fixture(scope="session")
def kuramoto():
    return gs.KuramotoQuadratic(kappa=1.0)


@pytest.fixture(scope="session")
def min1():
    return gs.MinPower(alpha=1.0)


@pytest.fixture(scope="session")
def min2():
    return gs.MinPower(alpha=2.0)


def random_interior_density(rng: np.random.Generator, n: int, floor: float = 0.05) -> np.ndarray:
    rho = rng.dirichlet(np.full(n, 5.0))
    while rho.min() < floor:
        rho = rng.dirichlet(np.full(n, 5.0))
    return rho


def composite_simpson(values, dx: float) -> float:
    """Plain composite Simpson on equispaced samples (odd count required)."""
    n = len(values)
    if n < 3 or n % 2 == 0:
        raise QuadratureError(f"composite Simpson needs an odd sample count >= 3, got {n}")
    acc = values[0] + values[-1] + 4.0 * sum(values[1:-1:2]) + 2.0 * sum(values[2:-2:2])
    return acc * dx / 3.0
