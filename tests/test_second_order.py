import numpy as np
import pytest

import graphsync as gs
from graphsync.errors import DimensionError, SimplexViolationError
from conftest import random_interior_density


def test_uniform_state_with_flat_potentials_is_stationary(kuramoto, min1):
    g = gs.complete_graph(2)
    st = gs.PhaseState(rho=[0.5, 0.5], S=[0.7, 0.7])
    drho, dS = gs.rhs_second_order(g, min1, kuramoto, st)
    np.testing.assert_allclose(drho, 0.0, atol=1e-15)
    np.testing.assert_allclose(dS, 0.0, atol=1e-15)


def test_gradient_flow_data_reduces_to_first_order_rhs(kuramoto, min1):
    g = gs.complete_graph(2)
    st = gs.PhaseState(rho=[0.7, 0.3], S=[0.7, 0.3])
    drho, dS = gs.rhs_second_order(g, min1, kuramoto, st)
    np.testing.assert_allclose(drho, [0.12, -0.12])
    np.testing.assert_allclose(dS, kuramoto.kappa * drho)


def test_two_point_reduction_is_exact(kuramoto, min1):
    g = gs.complete_graph(2)
    for r, s1, s2 in [(0.7, 1.0, 0.0), (0.35, -0.2, 0.4), (0.5, 0.3, -0.3)]:
        st = gs.PhaseState(rho=[r, 1 - r], S=[s1, s2])
        drho, dS = gs.rhs_second_order(g, min1, kuramoto, st)
        dr, dSdiff = gs.rhs_two_point(min1, 1.0, gs.TwoPointState(r=r, S=s1 - s2))
        assert abs(drho[0] - dr) < 1e-12
        assert abs((dS[0] - dS[1]) - dSdiff) < 1e-12


def test_hamiltonian_values(kuramoto, min1):
    g = gs.complete_graph(3)
    flat = gs.PhaseState(rho=[1 / 3] * 3, S=[2.0] * 3)
    assert gs.hamiltonian(g, min1, kuramoto, flat) == pytest.approx(0.0, abs=1e-15)

    g2 = gs.complete_graph(2)
    st = gs.PhaseState(rho=[0.7, 0.3], S=[1.0, 0.0])
    assert gs.hamiltonian(g2, min1, kuramoto, st) == pytest.approx(0.126)

    grad = gs.gradient_flow_init([0.5, 0.3, 0.2], kuramoto, sign=+1)
    assert gs.hamiltonian(g, min1, kuramoto, grad) == 0.0


def test_gradient_flow_init(kuramoto):
    st = gs.gradient_flow_init([0.5, 0.3, 0.2], kuramoto, sign=+1)
    np.testing.assert_allclose(st.S, [0.5, 0.3, 0.2])

    st2 = gs.gradient_flow_init([1.0, 0.0], gs.KuramotoQuadratic(2.0), sign=+1)
    np.testing.assert_allclose(st2.S, [2.0, 0.0])

    st3 = gs.gradient_flow_init([0.5, 0.3, 0.2], kuramoto, sign=-1)
    np.testing.assert_allclose(st3.S, [-0.5, -0.3, -0.2])
    for sign in (2, 0, True, "+1", None, 1.5):
        with pytest.raises(DimensionError):
            gs.gradient_flow_init([0.5, 0.5], kuramoto, sign=sign)


def test_canonical_structure_against_hamiltonian_differences(kuramoto, min2):
    g = gs.complete_graph(3)
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(10):
        rho = random_interior_density(rng, 3)
        if np.min(np.abs(np.diff(np.sort(rho)))) < 1e-3:
            continue
        S = rng.uniform(-1.0, 1.0, 3)
        st = gs.PhaseState(rho, S)
        drho, dS = gs.rhs_second_order(g, min2, kuramoto, st)

        def H(r, s):
            return gs.hamiltonian(g, min2, kuramoto, gs.PhaseState(r, s))

        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd_rho = (H(rho, S + e) - H(rho, S - e)) / (2 * h)
            fd_S = -(H(rho + e, S) - H(rho - e, S)) / (2 * h)
            scale = max(1.0, abs(fd_rho), abs(fd_S))
            assert abs(drho[j] - fd_rho) / scale < 1e-5
            assert abs(dS[j] - fd_S) / scale < 1e-5


def test_energy_conserved_without_density_crossings(kuramoto, min2):
    # r stays above 1/2 for this state, so the weight never switches branch
    # and RK4 conserves to near round-off.
    g = gs.complete_graph(2)
    st = gs.PhaseState(rho=[0.7, 0.3], S=[0.2, 0.0])
    spec = gs.IntegratorSpec(dt=1e-3, t_final=10.0, record_every=10)
    traj = gs.simulate_second_order(
        g, min2, kuramoto, st, spec, stop_when=lambda s: float(s.rho.min()) < 1e-3
    )
    h = traj.diagnostics["hamiltonian"]
    assert np.max(np.abs(h - h[0])) < 1e-12


@pytest.mark.parametrize("graph", ["complete(6)", "cycle6"])
def test_energy_observer_matches_hamiltonian(kuramoto, min2, graph):
    g = gs.load_graph(graph)
    st = gs.PhaseState(rho=[0.3224, 0.2108, 0.1071, 0.0713, 0.2518, 0.0366],
                       S=[0.1597, -1.1129, 0.5929, 0.4568, 0.8299, -0.2499])
    spec = gs.IntegratorSpec(dt=0.01, t_final=2.0, record_every=10)
    traj = gs.simulate_second_order(g, min2, kuramoto, st, spec)
    want = [gs.hamiltonian(g, min2, kuramoto, gs.PhaseState.from_vector(y)) for y in traj.states]
    assert traj.diagnostics["hamiltonian"].tolist() == want


def test_stop_when_sees_each_record_as_a_phase_state(kuramoto, min2):
    g = gs.complete_graph(3)
    st = gs.PhaseState(rho=[0.5, 0.3, 0.2], S=[0.1, -0.2, 0.05])
    spec = gs.IntegratorSpec(dt=0.01, t_final=1.0, record_every=10)
    seen = []
    traj = gs.simulate_second_order(g, min2, kuramoto, st, spec,
                                    stop_when=lambda s: seen.append(s) or len(seen) == 5)
    assert traj.stop_reason == "stop_condition" and len(traj.states) == len(seen) == 5
    for state, y in zip(seen, traj.states):
        assert type(state) is gs.PhaseState and state == gs.PhaseState.from_vector(y)
        assert state.rho.tolist() == y[:3].tolist() and state.S.tolist() == y[3:].tolist()


def test_mass_conserved(kuramoto, min2):
    g = gs.complete_graph(3)
    st = gs.PhaseState(rho=[0.5, 0.3, 0.2], S=[0.1, -0.2, 0.05])
    spec = gs.IntegratorSpec(dt=1e-3, t_final=5.0, record_every=50)
    traj = gs.simulate_second_order(g, min2, kuramoto, st, spec)
    np.testing.assert_allclose(traj.densities.sum(axis=1), 1.0, atol=1e-8)


def test_simplex_breach_raises(kuramoto, min1):
    g = gs.complete_graph(2)
    st = gs.PhaseState(rho=[1e-4, 1.0 - 1e-4], S=[-10.0, 0.0])
    spec = gs.IntegratorSpec(scheme="euler", dt=0.5, t_final=5.0, record_every=1)
    with pytest.raises(SimplexViolationError):
        gs.simulate_second_order(g, min1, kuramoto, st, spec)


def test_simplex_breach_carries_the_partial_trajectory(kuramoto):
    g, rule = gs.complete_graph(3), gs.MinPower(0.5)
    st = gs.PhaseState(rho=[0.98, 0.01, 0.01], S=[5.0, -5.0, 0.0])
    spec = gs.IntegratorSpec(dt=0.05, t_final=5.0)
    with pytest.raises(SimplexViolationError) as info:
        gs.simulate_second_order(g, rule, kuramoto, st, spec)
    partial = info.value.trajectory
    assert partial.stop_reason == "SimplexViolationError"
    np.testing.assert_array_equal(partial.states, [st.as_vector()])
    assert partial.diagnostics["hamiltonian"].tolist() == [gs.hamiltonian(g, rule, kuramoto, st)]


def test_synchronisation_from_energetic_start(kuramoto, min2):
    g = gs.complete_graph(6)
    rho0 = np.array([0.3224, 0.2108, 0.1071, 0.0713, 0.2518, 0.0366])
    S0 = np.array([0.1597, -1.1129, 0.5929, 0.4568, 0.8299, -0.2499])
    spec = gs.IntegratorSpec(dt=0.01, t_final=200.0, record_every=10)
    traj = gs.simulate_second_order(
        g, min2, kuramoto, gs.PhaseState(rho0, S0), spec,
        stop_when=lambda s: float(np.max(s.rho)) > 0.99
        and float(np.partition(s.rho, 4)[-2]) < 0.01,
    )
    assert traj.stop_reason == "stop_condition"
    assert traj.final_time < 200.0


def test_state_shape_validation(kuramoto, min1):
    with pytest.raises(DimensionError):
        gs.PhaseState(rho=[0.5, 0.5], S=[1.0])
    # A state with other than one entry per vertex is refused, not read by index.
    for n in (2, 4):
        st = gs.PhaseState(rho=np.full(n, 1.0 / n), S=np.zeros(n))
        with pytest.raises(DimensionError):
            gs.hamiltonian(gs.complete_graph(3), min1, kuramoto, st)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["rho", "S"])
def test_non_finite_entries_refused(field, bad):
    parts = {"rho": [0.5, 0.5], "S": [0.1, -0.1]}
    parts[field] = [parts[field][0], bad]
    with pytest.raises(DimensionError):
        gs.PhaseState(**parts)


def test_states_compare_by_value_and_are_not_hashable():
    # Like Graph: equal when the class and every block are equal; no hash.
    st = gs.PhaseState([0.5, 0.5], [0.1, -0.1])
    assert st == gs.PhaseState(np.array([0.5, 0.5]), (0.1, -0.1))
    assert st != gs.PhaseState([0.5, 0.5], [0.1, 0.1])
    assert st != gs.PhaseState([0.4, 0.3, 0.3], [0.1, -0.1, 0.0])  # another shape
    hc = gs.HopfColeState([0.5, 0.5], [0.0, 0.0], [0.1, -0.1])
    assert hc == gs.HopfColeState([0.5, 0.5], [0.0, 0.0], [0.1, -0.1])
    assert hc != gs.HopfColeState([0.5, 0.5], [0.0, 1e-3], [0.1, -0.1])
    # Another class is never equal, even with blocks of the same values.
    assert gs.HopfColeState([0.5, 0.5], [0.5, 0.5], [0.1, -0.1]) != gs.PhaseState(
        [0.5, 0.5], [0.1, -0.1])
    assert st != st.as_vector().tolist() and st != "state"
    for state in (st, hc):
        with pytest.raises(TypeError):
            hash(state)
