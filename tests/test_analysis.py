import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import graphsync as gs
from graphsync.analysis import (
    EdgeVerdict,
    PowerFit,
    detect_limit,
    edge_dichotomy_report,
    fit_power,
    fit_rate,
    trajectory_gap,
)
from graphsync.errors import DimensionError, DomainError
from graphsync.integrate import Trajectory


def gap_trajectory(times, gaps):
    """Single-density trajectory whose gap series is exactly ``gaps``."""
    times = np.asarray(times, dtype=float)
    states = (1.0 - np.asarray(gaps, dtype=float))[:, None]
    return Trajectory(times=times, states=states, n_density=1)


def test_trajectory_gap():
    traj = gap_trajectory([0.0, 1.0, 2.0], [0.5, 0.25, 0.125])
    t, g = trajectory_gap(traj)
    np.testing.assert_allclose(g, [0.5, 0.25, 0.125])


def test_detect_limit_constant_and_moving():
    const = Trajectory(
        times=np.linspace(0, 5, 6), states=np.tile([0.5, 0.5], (6, 1)), n_density=2
    )
    np.testing.assert_array_equal(detect_limit(const), [0.5, 0.5])

    moving = Trajectory(
        times=np.linspace(0, 20, 21),
        states=np.linspace(0, 1, 21)[:, None] * np.array([[0.1, -0.1]]) + np.array([[0.4, 0.6]]),
        n_density=2,
    )
    assert detect_limit(moving) is None


def test_fit_rate_exact_exponential():
    t = np.linspace(0.0, 10.0, 201)
    fit = fit_rate(gap_trajectory(t, np.exp(-2.0 * t)), "log_gap")
    assert fit.slope == pytest.approx(-2.0, abs=1e-6)
    assert fit.r_squared == pytest.approx(1.0)
    assert not fit.truncated


def test_fit_rate_inverse_transforms():
    t = np.linspace(0.0, 50.0, 501)
    inv = fit_rate(gap_trajectory(t, 1.0 / (1.0 + 3.0 * t)), "inverse_gap")
    assert inv.slope == pytest.approx(3.0, abs=1e-9)
    assert inv.r_squared == pytest.approx(1.0)

    invsq = fit_rate(gap_trajectory(t, (1.0 + 2.0 * t) ** -0.5), "inverse_sq_gap")
    assert invsq.slope == pytest.approx(2.0, abs=1e-9)


def test_fit_rate_window_truncation_warns():
    t = np.linspace(0.0, 10.0, 101)
    gaps = np.where(t <= 5.0, np.exp(-t), 1e-16)
    traj = gap_trajectory(t, gaps)
    with pytest.warns(UserWarning):
        fit = fit_rate(traj, "log_gap", window=(6.0, 10.0))
    assert fit.truncated
    assert fit.window[1] <= 5.0
    assert fit.slope == pytest.approx(-1.0, abs=1e-6)


@pytest.mark.parametrize("window", [("a", 5.0), "ab", "abc", (1.0,), (1.0, 2.0, 3.0), 5.0,
                                    (math.nan, 5.0), (0.0, math.nan), (True, 5.0), ("0", "5")])
def test_fits_admit_the_window(window):
    t = np.linspace(0.0, 10.0, 101)
    traj = gap_trajectory(t, np.exp(-t))
    with pytest.raises(DomainError, match="window"):
        fit_rate(traj, "log_gap", window=window)
    with pytest.raises(DomainError, match="window"):
        fit_power(traj, window=window)


def test_fits_keep_their_window_truncation():
    # Ends out of range, infinite ones included, are truncated as before.
    t = np.linspace(0.0, 10.0, 101)
    traj = gap_trajectory(t, np.exp(-t))
    assert fit_rate(traj, "log_gap", window=np.array([2.0, 8.0])).window == (2.0, 8.0)
    for window in ((-math.inf, math.inf), (2, 50)):
        with pytest.warns(UserWarning):
            fit = fit_rate(traj, "log_gap", window=window)
        assert fit.truncated and fit.window[1] == 10.0
        assert fit.slope == pytest.approx(-1.0, abs=1e-9)


def test_fit_rate_rejects_unknown_transform_and_dead_gap():
    traj = gap_trajectory([0.0, 1.0, 2.0], [0.5, 0.4, 0.3])
    with pytest.raises(DomainError):
        fit_rate(traj, "sqrt_gap")
    dead = gap_trajectory([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        fit_rate(dead, "log_gap")


def test_fit_power():
    t = np.linspace(1.0, 100.0, 500)
    pf = fit_power(gap_trajectory(t, 3.0 * t**-2.0))
    assert isinstance(pf, PowerFit)
    assert pf.power == pytest.approx(2.0, abs=1e-9)
    assert pf.r_squared == pytest.approx(1.0)


def test_edge_dichotomy_verdicts():
    g = gs.complete_graph(3)
    verdicts = {(v.i, v.j): v.verdict for v in edge_dichotomy_report(g, [0.5, 0.5, 0.0])}
    assert verdicts == {
        (1, 2): "ValuesEqual",
        (1, 3): "MinVanishes",
        (2, 3): "MinVanishes",
    }
    transient = edge_dichotomy_report(g, [0.5, 0.3, 0.2], tol=1e-6)
    assert all(v.verdict == "Violation" for v in transient)
    # both endpoints dead counts as the vanishing branch, not equality
    cyc = edge_dichotomy_report(gs.named_graph("cycle6"),
                                [0.74, 0.0, 0.0, 0.26, 0.0, 0.0], tol=1e-3)
    assert all(v.verdict == "MinVanishes" for v in cyc)


@pytest.mark.parametrize("rho, tol, error", [
    ([1.0, 0.0], 1e-6, DimensionError), ([1.0, 0.0, 0.0, 0.0], 1e-6, DimensionError),
    ([[1.0, 0.0, 0.0]], 1e-6, DimensionError), ([1.0, 0.0, 0.0], math.nan, DomainError),
    ([1.0, 0.0, 0.0], -1e-6, DomainError), ([1.0, 0.0, 0.0], math.inf, DomainError),
    ([1.0, 0.0, 0.0], True, DomainError), ([1.0, 0.0, 0.0], "1e-6", DomainError),
])
def test_edge_dichotomy_refuses_a_bad_density_or_tolerance(rho, tol, error):
    # A NaN tol would compare false everywhere and mark every edge a Violation.
    with pytest.raises(error):
        edge_dichotomy_report(gs.complete_graph(3), rho, tol=tol)


def per_edge_dichotomy(graph, rho, tol):
    """The former edge-by-edge dichotomy report, kept as the reference."""
    out = []
    for i, j in graph.edges.tolist():
        a, b = float(rho[i - 1]), float(rho[j - 1])
        mn, diff = min(a, b), abs(a - b)
        if mn < tol:
            verdict = "MinVanishes"
        elif diff < tol:
            verdict = "ValuesEqual"
        else:
            verdict = "Violation"
        out.append(EdgeVerdict(i=i, j=j, verdict=verdict, min_value=mn, abs_diff=diff))
    return tuple(out)


DENSITY_VALUES = st.sampled_from([0.0, -0.0, 1e-7, 1e-6, 0.25, 0.5, 0.5 + 1e-7])


@given(rho=st.lists(DENSITY_VALUES, min_size=4, max_size=4))
def test_edge_dichotomy_matches_per_edge_reference(rho):
    """Same verdicts, values, signed zeros and Python types as the per-edge loop."""
    g = gs.complete_graph(4)
    got = edge_dichotomy_report(g, rho)
    assert repr(got) == repr(per_edge_dichotomy(g, np.asarray(rho), 1e-6))
    assert all(type(v.i) is int and type(v.min_value) is float for v in got)
