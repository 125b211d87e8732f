import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphsync as gs
from graphsync.analysis import edge_dichotomy_report, fit_rate
from graphsync.errors import DimensionError, DomainError, SimplexViolationError

simplex4 = st.lists(
    st.floats(min_value=0.01, max_value=1.0), min_size=4, max_size=4
).map(lambda v: np.array(v) / np.sum(v))


def test_uniform_state_is_stationary():
    g = gs.complete_graph(3)
    out = gs.rhs_first_order(g, gs.MinPower(1.0), 1.0, [1 / 3, 1 / 3, 1 / 3])
    np.testing.assert_allclose(out, 0.0, atol=1e-15)


def test_two_point_hand_value():
    g = gs.complete_graph(2)
    out = gs.rhs_first_order(g, gs.MinPower(1.0), 1.0, [0.7, 0.3])
    np.testing.assert_allclose(out, [0.12, -0.12])


def test_cycle6_hand_value():
    g = gs.named_graph("cycle6")
    rho = np.array([0.3, 0.2, 0.1, 0.1, 0.1, 0.2])
    out = gs.rhs_first_order(g, gs.MinPower(1.0), 1.0, rho)
    assert out[0] == pytest.approx(0.2 * 0.1 + 0.2 * 0.1)


def test_rhs_matches_trajectory_difference_quotient():
    g = gs.complete_graph(2)
    spec = gs.IntegratorSpec(dt=1e-4, t_final=0.02, record_every=1)
    traj = gs.simulate_first_order(g, gs.MinPower(1.0), 1.0, [0.7, 0.3], spec)
    k = 100
    fd = (traj.states[k + 1] - traj.states[k - 1]) / (2e-4)
    rhs = gs.rhs_first_order(g, gs.MinPower(1.0), 1.0, traj.states[k])
    np.testing.assert_allclose(fd, rhs, rtol=1e-6)


@settings(max_examples=30, deadline=None)
@given(rho=simplex4)
def test_mass_flux_sums_to_zero(rho):
    for name in ("complete(4)", "square4"):
        out = gs.rhs_first_order(gs.named_graph(name), gs.MinPower(2.0), 1.3, rho)
        assert abs(float(np.sum(out))) < 1e-12


@pytest.fixture(scope="module")
def complete4_run():
    spec = gs.IntegratorSpec(dt=0.01, t_final=60.0, record_every=10)
    return gs.simulate_first_order(
        gs.complete_graph(4), gs.MinPower(1.0), 1.0, [0.5, 0.3, 0.15, 0.05], spec
    )


def test_exponential_concentration(complete4_run):
    fit = fit_rate(complete4_run, "log_gap")
    assert fit.slope < 0
    assert fit.r_squared > 0.999
    assert complete4_run.densities[-1][0] > 0.999999


def test_mass_conserved_along_trajectory(complete4_run):
    masses = complete4_run.densities.sum(axis=1)
    assert np.max(np.abs(masses - 1.0)) < 1e-8


def test_sum_of_squares_nondecreasing(complete4_run):
    ss = complete4_run.diagnostics["sum_sq"]
    assert np.min(np.diff(ss)) > -1e-10


def test_gap_nondecreasing_under_unique_max(complete4_run):
    gaps = complete4_run.diagnostics["max_gap"]
    assert gaps[0] == pytest.approx(0.2)
    assert np.all(gaps >= gaps[0] - 1e-8)


def test_equal_components_stay_equal():
    spec = gs.IntegratorSpec(dt=0.01, t_final=50.0, record_every=10)
    traj = gs.simulate_first_order(
        gs.complete_graph(3), gs.MinPower(1.0), 1.0, [0.4, 0.4, 0.2], spec
    )
    assert np.max(np.abs(traj.densities[:, 0] - traj.densities[:, 1])) < 1e-9
    np.testing.assert_allclose(traj.densities[-1], [0.5, 0.5, 0.0], atol=1e-6)


def test_square_graph_bipolar_limit():
    spec = gs.IntegratorSpec(dt=0.01, t_final=200.0, record_every=10)
    traj = gs.simulate_first_order(
        gs.named_graph("square4"), gs.MinPower(1.0), 1.0, [0.6, 0.1, 0.2, 0.1], spec
    )
    limit = gs.detect_limit(traj)
    assert limit is not None
    a, b, c, d = limit
    assert b < 1e-8 and d < 1e-8
    assert a > 0.6 and c > 0.2
    assert a + c == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("name", ["cycle6", "square4"])
def test_edge_dichotomy_at_long_times(name):
    g = gs.named_graph(name)
    rho0 = {
        "cycle6": [0.3, 0.2, 0.1, 0.1, 0.1, 0.2],
        "square4": [0.6, 0.1, 0.2, 0.1],
    }[name]
    spec = gs.IntegratorSpec(dt=0.01, t_final=500.0, record_every=100)
    traj = gs.simulate_first_order(g, gs.MinPower(1.0), 1.0, rho0, spec)
    verdicts = edge_dichotomy_report(g, traj.densities[-1], tol=1e-3)
    assert all(v.verdict in ("MinVanishes", "ValuesEqual") for v in verdicts)


def test_classify_equilibrium():
    one = gs.classify_equilibrium([1.0, 0.0, 0.0, 0.0])
    assert (one.m, one.support, one.is_member) == (1, (1,), True)

    two = gs.classify_equilibrium([0.5, 0.5, 0.0])
    assert (two.m, two.support, two.value, two.is_member) == (2, (1, 2), 0.5, True)

    off = gs.classify_equilibrium([0.6, 0.4, 0.0])
    assert off.m == 2 and not off.is_member


def test_max_gap():
    assert gs.max_gap([0.5, 0.3, 0.2]) == pytest.approx(0.2)
    assert gs.max_gap([0.5, 0.5, 0.0]) == pytest.approx(0.0)
    assert gs.max_gap([1.0, 0.0, 0.0]) == pytest.approx(1.0)
    with pytest.raises(DimensionError):
        gs.max_gap([1.0])
    # None reads as NaN in numpy, so a non-finite entry is refused as such.
    for bad in ("ab", [0.5, "x"], {"a": 1.0}, [0.5, None], [0.5, math.nan], [math.inf, 0.5],
                [0.5, 0.3, -math.inf]):
        with pytest.raises(DomainError):
            gs.max_gap(bad)


@pytest.mark.parametrize(
    "rho, tol",
    [([0.5, 0.5, 0.0], math.nan), ([0.5, 0.5, 0.0], -1e-3), ([0.5, 0.5, 0.0], math.inf),
     ([0.5, 0.5, 0.0], True), ([0.5, 0.5, 0.0], "1e-3"), ([0.5, None, 0.5], 1e-6),
     ([0.5, math.nan, 0.5], 1e-6), ([math.inf, 0.0], 1e-6), ("ab", 1e-6)],
)
def test_classify_equilibrium_refuses_a_non_finite_entry_or_a_bad_tolerance(rho, tol):
    # tol = nan once compared false everywhere and gave m = 0, no support.
    with pytest.raises(DomainError):
        gs.classify_equilibrium(rho, tol=tol)


def test_density_validation():
    with pytest.raises(SimplexViolationError):
        gs.density_state([0.5, 0.6])
    with pytest.raises(SimplexViolationError):
        gs.density_state([1.5, -0.5])
    for bad in ([math.nan, 0.5], [math.nan, 1.0], [math.inf, 0.5], [0.5, -math.inf]):
        with pytest.raises(SimplexViolationError):
            gs.density_state(bad)
    with pytest.raises(DimensionError):
        gs.rhs_first_order(gs.complete_graph(3), gs.MinPower(1.0), 1.0, [0.5, 0.5])


@pytest.mark.parametrize("kappa", ["1", None, math.nan, math.inf, -1.0, 0.0, True, False, -math.inf,
                                   -5e-324])
def test_first_order_coupling_refused_where_it_enters(kappa):
    # The quadratic potential's check, before any step: no UFuncTypeError, no NonFiniteStateError.
    g, rule, rho0 = gs.complete_graph(3), gs.MinPower(1.0), [0.5, 0.3, 0.2]
    with pytest.raises(DomainError):
        gs.simulate_first_order(g, rule, kappa, rho0, gs.IntegratorSpec(dt=0.01, t_final=0.1))
    with pytest.raises(DomainError):
        gs.rhs_first_order(g, rule, kappa, rho0)
