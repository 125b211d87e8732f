import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import graphsync as gs
from graphsync.errors import ConsistencyError, DomainError
from graphsync.graphs import CompleteGraph
from graphsync.hopf_cole import hopf_cole_field
from conftest import random_interior_density


def test_gradient_flow_data_maps_to_zero_xi(kuramoto):
    rho0 = np.array([0.5, 0.3, 0.2])
    st = gs.gradient_flow_init(rho0, kuramoto, sign=+1)
    hc = gs.to_hopf_cole(st, kuramoto)
    np.testing.assert_array_equal(hc.xi, 0.0)
    np.testing.assert_allclose(hc.xi_star, kuramoto.grad(rho0))


def test_split_hand_values(kuramoto):
    st = gs.PhaseState(rho=[0.7, 0.3], S=[1.0, 0.0])
    hc = gs.to_hopf_cole(st, kuramoto)
    np.testing.assert_allclose(hc.xi, [0.15, -0.15])
    np.testing.assert_allclose(hc.xi_star, [-0.85, -0.15])


def test_mirror_case(kuramoto):
    rho0 = np.array([0.6, 0.4])
    st = gs.PhaseState(rho=rho0, S=kuramoto.grad(rho0))
    hc = gs.to_hopf_cole(st, kuramoto)
    np.testing.assert_allclose(hc.xi, kuramoto.grad(rho0))
    np.testing.assert_array_equal(hc.xi_star, 0.0)


def test_round_trip_and_recovery(kuramoto):
    st = gs.PhaseState(rho=[0.7, 0.3], S=[1.0, 0.0])
    back = gs.from_hopf_cole(gs.to_hopf_cole(st, kuramoto), kuramoto)
    np.testing.assert_allclose(back.rho, st.rho, atol=1e-12)
    np.testing.assert_allclose(back.S, st.S, atol=1e-12)

    hc = gs.HopfColeState(rho=[0.7, 0.3], xi=[0.0, 0.0], xi_star=[-0.7, -0.3])
    ph = gs.from_hopf_cole(hc, kuramoto)
    np.testing.assert_allclose(ph.rho, [0.7, 0.3])
    np.testing.assert_allclose(ph.S, [0.7, 0.3])


def test_broken_relation_raises(kuramoto):
    hc = gs.HopfColeState(rho=[0.7, 0.3], xi=[0.1, 0.0], xi_star=[-0.7, -0.3])
    with pytest.raises(ConsistencyError):
        gs.from_hopf_cole(hc, kuramoto)


def test_zero_xi_is_a_structural_fixed_hyperplane(kuramoto, min2):
    g = gs.complete_graph(3)
    hc = gs.HopfColeState(rho=[0.5, 0.3, 0.2], xi=[0.0] * 3,
                          xi_star=kuramoto.grad([0.5, 0.3, 0.2]))
    _, dxi, _ = gs.rhs_hopf_cole(g, min2, kuramoto, hc)
    np.testing.assert_array_equal(dxi, 0.0)

    mirrored = gs.HopfColeState(rho=[0.5, 0.3, 0.2],
                                xi=kuramoto.grad([0.5, 0.3, 0.2]), xi_star=[0.0] * 3)
    _, _, dxs = gs.rhs_hopf_cole(g, min2, kuramoto, mirrored)
    np.testing.assert_array_equal(dxs, 0.0)


@st.composite
def split_cases(draw):
    """An edge-list graph on 2..7 vertices with unit, zero or other weights, or a
    sorted ``CompleteGraph`` on 2..12; a density with ties and zeros, and a vector."""
    n = draw(st.integers(2, 12))
    weight = st.sampled_from([1.0, 0.0, 0.5, 2.0]) | st.floats(1e-3, 10.0)
    if draw(st.booleans()):
        graph = CompleteGraph(n, draw(weight))
    else:
        n = min(n, 7)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        keep[0] = True
        graph = gs.build_graph(n, [(i, j, draw(weight)) for (i, j), k in zip(pairs, keep) if k])
    mass = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 1.0),
                         min_size=n, max_size=n))
    mass[0] = mass[0] or 1.0
    value = st.sampled_from([0.0, -0.5, 1.0]) | st.floats(-3.0, 3.0)
    return graph, np.array(mass) / sum(mass), np.array(draw(st.lists(value, min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(case=split_cases(), rule=st.sampled_from([gs.MinPower(a) for a in (0.5, 1.0, 2.0, 3.0)]),
       kappa=st.sampled_from([0.5, 1.0, 1.5]))
def test_zero_xi_stays_exactly_zero_on_both_backends(case, rule, kappa):
    graph, rho, v = case
    with np.errstate(invalid="ignore"):  # a zero weight on an infinite slope
        assume(graph.slope_is_finite(rule, rho))  # else block_rhs refuses the field
    field, n, zero = hopf_cole_field(graph, rule, gs.KuramotoQuadratic(kappa)), graph.n, np.zeros(graph.n)
    np.testing.assert_array_equal(field(np.concatenate([rho, zero, v]))[n : 2 * n], 0.0)
    np.testing.assert_array_equal(field(np.concatenate([rho, v, zero]))[2 * n :], 0.0)


def test_rhs_agrees_with_transformed_second_order(kuramoto, min2):
    g = gs.complete_graph(3)
    rng = np.random.default_rng(11)
    hess = -kuramoto.kappa * np.eye(3)
    for _ in range(5):
        rho = random_interior_density(rng, 3)
        S = rng.uniform(-1.0, 1.0, 3)
        st = gs.PhaseState(rho, S)
        drho, dS = gs.rhs_second_order(g, min2, kuramoto, st)
        hc = gs.to_hopf_cole(st, kuramoto)
        drho_hc, dxi, dxs = gs.rhs_hopf_cole(g, min2, kuramoto, hc)
        np.testing.assert_allclose(drho_hc, drho, atol=1e-12)
        np.testing.assert_allclose(dxi, 0.5 * (hess @ drho + dS), atol=1e-9)
        np.testing.assert_allclose(dxs, 0.5 * (hess @ drho - dS), atol=1e-9)
        # the pair sum must follow the density: d(xi + xi*) = HessF d rho
        np.testing.assert_allclose(dxi + dxs, hess @ drho, atol=1e-9)


def test_zero_preservation_and_first_order_match(kuramoto, min1):
    g = gs.complete_graph(4)
    rho0 = np.array([0.5, 0.3, 0.15, 0.05])
    hc0 = gs.HopfColeState(rho0, np.zeros(4), kuramoto.grad(rho0))
    spec = gs.IntegratorSpec(dt=1e-3, t_final=5.0, record_every=100)
    traj = gs.simulate_hopf_cole(g, min1, kuramoto, hc0, spec)
    assert float(traj.diagnostics["max_abs_xi"].max()) < 1e-8

    first = gs.simulate_first_order(
        g, min1, 1.0, rho0, spec, stop_on_convergence=False
    )
    assert np.max(np.abs(traj.densities - first.densities)) < 1e-5
    assert float(traj.diagnostics["rho_consistency"].max()) < 1e-8


def test_generic_start_matches_transformed_second_order(kuramoto, min2):
    g = gs.complete_graph(3)
    st0 = gs.PhaseState(rho=[0.4, 0.35, 0.25], S=[0.05, -0.03, 0.01])
    spec = gs.IntegratorSpec(dt=1e-3, t_final=5.0, record_every=100)
    second = gs.simulate_second_order(g, min2, kuramoto, st0, spec)
    hc = gs.simulate_hopf_cole(g, min2, kuramoto, gs.to_hopf_cole(st0, kuramoto), spec)
    S_second = second.states[:, 3:]
    grads = -kuramoto.kappa * second.densities
    xi_expected = 0.5 * (grads + S_second)
    assert np.max(np.abs(hc.states[:, 3:6] - xi_expected)) < 1e-5
    assert np.max(np.abs(hc.densities - second.densities)) < 1e-5


def test_initial_relation_enforced(kuramoto, min1):
    g = gs.complete_graph(2)
    bad = gs.HopfColeState(rho=[0.6, 0.4], xi=[0.5, 0.0], xi_star=[0.0, 0.0])
    spec = gs.IntegratorSpec(dt=0.01, t_final=1.0)
    with pytest.raises(ConsistencyError):
        gs.simulate_hopf_cole(g, min1, kuramoto, bad, spec)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["rho", "xi", "xi_star"])
def test_non_finite_entries_refused(field, bad):
    parts = {"rho": [0.6, 0.4], "xi": [0.0, 0.0], "xi_star": [-0.6, -0.4]}
    parts[field] = [parts[field][0], bad]
    with pytest.raises(DomainError):
        gs.HopfColeState(**parts)
