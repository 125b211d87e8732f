import math

import numpy as np
import pytest

import graphsync as gs
from graphsync.errors import (
    ConsistencyError,
    DimensionError,
    DomainError,
    GraphSyncError,
    NonFiniteStateError,
    SimplexViolationError,
)


def test_zero_field_constant_trajectory():
    spec = gs.IntegratorSpec(dt=0.1, t_final=1.0, record_every=2)
    traj = gs.integrate(lambda y: np.zeros_like(y), [0.3, 0.7], spec)
    np.testing.assert_array_equal(traj.states, np.tile([0.3, 0.7], (len(traj.times), 1)))
    assert traj.stop_reason == "t_final"


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_rk4_matches_closed_form_saturation(alpha):
    # dx/dt = (1 - x)^alpha from 0: closed-form solutions are the oracle.
    rhs = lambda y: (1.0 - y) ** alpha
    spec = gs.IntegratorSpec(scheme="rk4", dt=0.01, t_final=1.0, record_every=100)
    traj = gs.integrate(rhs, [0.0], spec)
    exact = gs.closed_form_gap(alpha, 1.0, 0.0, 1.0)
    assert abs(float(traj.final_state[0]) - exact) < 1e-8


def test_rk4_fourth_order_convergence():
    rhs = lambda y: (1.0 - y) ** 2
    exact = gs.closed_form_gap(2.0, 1.0, 0.0, 1.0)

    def err(dt):
        spec = gs.IntegratorSpec(scheme="rk4", dt=dt, t_final=1.0, record_every=10**6)
        return abs(float(gs.integrate(rhs, [0.0], spec).final_state[0]) - exact)

    ratio = err(0.02) / err(0.01)
    assert 16.0 * 0.8 <= ratio <= 16.0 * 1.2


def test_euler_is_first_order():
    rhs = lambda y: -y

    def err(dt):
        spec = gs.IntegratorSpec(scheme="euler", dt=dt, t_final=1.0, record_every=10**6)
        return abs(float(gs.integrate(rhs, [1.0], spec).final_state[0]) - np.exp(-1.0))

    ratio = err(0.02) / err(0.01)
    assert 1.7 <= ratio <= 2.3


def test_integrate_deterministic_bit_identical():
    rhs = lambda y: np.array([-y[1], y[0]])
    spec = gs.IntegratorSpec(dt=0.01, t_final=3.0, record_every=7)
    a = gs.integrate(rhs, [1.0, 0.0], spec)
    b = gs.integrate(rhs, [1.0, 0.0], spec)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_record_points_and_final_state():
    spec = gs.IntegratorSpec(dt=0.1, t_final=1.05, record_every=3)
    traj = gs.integrate(lambda y: np.zeros_like(y), [1.0], spec)
    # ceil(1.05/0.1) = 11 steps, the 11th shortened to end at t_final;
    # records at 0, 3, 6, 9 steps plus the final 11th
    np.testing.assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.05])
    assert np.all(np.diff(traj.times) > 0)


def test_observers_and_stop_condition():
    spec = gs.IntegratorSpec(dt=0.1, t_final=10.0, record_every=1)
    traj = gs.integrate(
        lambda y: np.ones_like(y),
        [0.0],
        spec,
        observers={"double": lambda y: 2.0 * float(y[0])},
        stop_when=lambda y: y[0] >= 0.5,
    )
    assert traj.stop_reason == "stop_condition"
    assert traj.final_time == pytest.approx(0.5)
    np.testing.assert_allclose(traj.diagnostics["double"], 2.0 * traj.states[:, 0])


def test_non_finite_state_carries_partial_trajectory():
    def rhs(y):
        with np.errstate(over="ignore"):
            return y**2

    spec = gs.IntegratorSpec(dt=0.5, t_final=50.0, record_every=1)
    with pytest.raises(NonFiniteStateError) as info:
        gs.integrate(rhs, [10.0], spec)
    partial = info.value.trajectory
    assert partial is not None and len(partial.times) >= 1
    assert partial.stop_reason == "nonfinite"


def _fail_after(t_fail, error):
    """A hook that raises ``error`` once the state (here, the time) passes t_fail."""

    def hook(y):
        if y[0] > t_fail:
            raise error("failed in the loop")
        return y

    return hook


# y = t, so each hook first fails on the state at t = 0.4: the step from it, or
# before it is recorded (post_step, observer), or once it is (stop_when).
@pytest.mark.parametrize(
    "place, records", [("step", 5), ("post_step", 4), ("observer", 4), ("stop_when", 5)]
)
@pytest.mark.parametrize("error", [SimplexViolationError, ConsistencyError, NonFiniteStateError])
def test_every_in_loop_error_carries_the_partial_trajectory(place, records, error):
    hook = _fail_after(0.35, error)
    kwargs = {
        "step": {},
        "post_step": {"post_step": hook},
        "observer": {"observers": {"t": lambda y: float(hook(y)[0])}},
        "stop_when": {"stop_when": lambda y: hook(y) is None},
    }[place]
    rhs = (lambda y: hook(y) * 0.0 + 1.0) if place == "step" else (lambda y: np.ones_like(y))
    spec = gs.IntegratorSpec(scheme="euler", dt=0.1, t_final=1.0)
    with pytest.raises(error) as info:
        gs.integrate(rhs, [0.0], spec, **kwargs)
    partial = info.value.trajectory
    want = "nonfinite" if error is NonFiniteStateError else error.__name__
    assert partial.stop_reason == want
    np.testing.assert_allclose(partial.times, 0.1 * np.arange(records))
    assert partial.states.shape == (records, 1)
    assert all(len(v) == records for v in partial.diagnostics.values())


def test_failure_at_the_first_record_leaves_an_empty_trajectory():
    def observer(y):
        raise ConsistencyError("bad start")

    spec = gs.IntegratorSpec(dt=0.1, t_final=1.0)
    with pytest.raises(ConsistencyError) as info:
        gs.integrate(lambda y: y, [1.0, 2.0], spec, {"check": observer})
    partial = info.value.trajectory
    assert partial.states.shape == (0, 2) and len(partial.diagnostics["check"]) == 0


def test_errors_carry_no_trajectory_outside_the_loop():
    assert GraphSyncError("x").trajectory is None
    assert NonFiniteStateError("x").trajectory is None
    assert NonFiniteStateError("x", trajectory="t").trajectory == "t"
    with pytest.raises(ZeroDivisionError) as info:  # not a package error: passed on untouched
        gs.integrate(lambda y: 1 // 0, [1.0], gs.IntegratorSpec(dt=0.1, t_final=1.0))
    assert not hasattr(info.value, "trajectory")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"scheme": "rk5"},
        {"dt": -0.1},
        {"dt": 2.0, "t_final": 1.0},
        {"record_every": 0},
        {"dt": math.nan},
        {"t_final": math.nan},
        {"t_final": math.inf},
        {"record_every": 2.5},
        {"record_every": math.inf},
        {"record_every": "2"},
        {"dt": "0.1"},
        {"t_final": None},
        {"dt": True},
        {"t_final": True},
        {"record_every": True},
        {"dt": -math.inf},
        {"dt": 0.0},
        {"dt": 0.1, "t_final": math.nextafter(0.1, 0.0)},
        {"record_every": math.nextafter(1.0, 0.0)},
        {"dt": 5e-324, "t_final": 1.0},  # t_final / dt overflows: no step count
        {"dt": 1e-300, "t_final": 1e300},
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(DomainError):
        gs.IntegratorSpec(**kwargs)


@pytest.mark.parametrize("dt, t_final, steps, last", [
    (0.01, 1.0, 100, (0.01, 1.0)), (0.3, 1.0, 4, (0.10000000000000009, 1.0)),
    (5e-324 * 2**52, 1.0, 2**1022, (5e-324 * 2**52, 1.0)),
])
def test_valid_specs_keep_their_step_counts(dt, t_final, steps, last):
    spec = gs.IntegratorSpec(dt=dt, t_final=t_final)
    assert (spec.n_steps, spec.final_step) == (steps, last)


def test_spec_takes_integral_numbers():
    spec = gs.IntegratorSpec(dt=1, t_final=np.float64(4.0), record_every=3.0)
    values = (spec.dt, spec.t_final, spec.record_every)
    assert values == (1.0, 4.0, 3)
    assert [type(v) for v in values] == [float, float, int]


def test_run_ends_exactly_at_t_final():
    # 0.3 does not divide 1.0: three full steps and a last one of 0.1.
    spec = gs.IntegratorSpec(scheme="euler", dt=0.3, t_final=1.0)
    traj = gs.integrate(lambda y: np.ones_like(y), [0.0], spec)
    assert traj.times.tolist() == [0.0, 0.3, 0.6, 0.8999999999999999, 1.0]
    assert traj.final_time == 1.0
    assert traj.final_state[0] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("dt, t_final", [(0.01, 1.0), (1e-3, 0.35), (0.1, 0.3), (5e-3, 7.5)])
def test_whole_step_horizons_keep_their_steps(dt, t_final):
    # t_final / dt within 1e-12 of an integer: every step is dt and record k lands at k * dt.
    spec = gs.IntegratorSpec(scheme="euler", dt=dt, t_final=t_final)
    steps = []
    gs.integrate(lambda y: steps.append(None) or np.ones_like(y), [0.0], spec)
    traj = gs.integrate(lambda y: np.ones_like(y), [0.0], spec)
    assert len(steps) == spec.n_steps
    assert traj.times.tolist() == [k * dt for k in range(spec.n_steps + 1)]
    assert spec.final_step == (dt, spec.n_steps * dt)


@pytest.mark.parametrize("on_floats, held", [(True, list), (False, np.ndarray)],
                         ids=["on_floats", "on_arrays"])
def test_hooks_take_the_state_as_the_run_holds_it_and_observers_an_array(on_floats, held):
    seen = {"rhs": [], "post_step": [], "stop_when": [], "observer": []}

    def hook(name, value):
        return lambda y: seen[name].append(type(y)) or value(y)

    ones = (lambda y: [1.0] * len(y)) if on_floats else np.ones_like
    spec = gs.IntegratorSpec(scheme="euler", dt=0.1, t_final=1.0, record_every=3)
    traj = gs.integrate(hook("rhs", ones), [0.0, 0.5], spec,
                        {"t": hook("observer", lambda y: float(y[0]))},
                        post_step=hook("post_step", lambda y: y),
                        stop_when=hook("stop_when", lambda y: False), on_floats=on_floats)
    records = len(traj.times)
    assert records == 5  # t = 0, 0.3, 0.6, 0.9 and the last step's 1.0
    assert seen == {"rhs": [held] * 10, "post_step": [held] * 10,
                    "stop_when": [held] * records, "observer": [np.ndarray] * records}
    np.testing.assert_allclose(traj.states, 0.1 * np.arange(11)[[0, 3, 6, 9, 10], None] + [0.0, 0.5])


def test_project_simplex_clip():
    out = gs.project_simplex_clip(np.array([0.5, 0.5, -1e-13]), tol=1e-9)
    np.testing.assert_array_equal(out, [0.5, 0.5, 0.0])

    unchanged = gs.project_simplex_clip(np.array([1 / 3, 1 / 3, 1 / 3]))
    np.testing.assert_array_equal(unchanged, [1 / 3, 1 / 3, 1 / 3])

    with pytest.raises(SimplexViolationError):
        gs.project_simplex_clip(np.array([0.5, 0.6]), tol=1e-9)
    with pytest.raises(SimplexViolationError):
        gs.project_simplex_clip(np.array([0.5, 0.5 + 1e-8, -1e-8]), tol=1e-9)
    # Entries that are not finite make a mass that is not finite, which is refused.
    # (inf + -inf warns in the sum; integrate's stepping loop silences that.)
    for bad in ([np.nan, 0.5, 0.5], [0.5, 0.5, np.nan], [np.inf, -np.inf, 1.0],
                [np.inf, 0.0, 0.0], [1.0, 0.0, -np.inf]):
        with pytest.raises(SimplexViolationError, match="density mass"), np.errstate(invalid="ignore"):
            gs.project_simplex_clip(np.array(bad))


_K3, _RULE, _KURAMOTO = gs.complete_graph(3), gs.MinPower(2.0), gs.KuramotoQuadratic(1.0)
_SPEC = gs.IntegratorSpec(dt=0.01, t_final=0.1)

#: Entry checks of the flows, the simplex check and Trajectory: the call and its error class.
ENTRY_CHECKS = {
    "simulate-density-length": (
        lambda: gs.simulate_first_order(_K3, _RULE, 1.0, [0.5, 0.5], _SPEC), DimensionError),
    "rhs-second-order-size": (
        lambda: gs.rhs_second_order(_K3, _RULE, _KURAMOTO, gs.PhaseState([0.5, 0.5], [0.1, -0.1])),
        DimensionError),
    "rhs-hopf-cole-size": (
        lambda: gs.rhs_hopf_cole(_K3, _RULE, _KURAMOTO,
                                 gs.HopfColeState([0.5, 0.5], [0.0, 0.0], [0.5, 0.5])),
        DimensionError),
    "density-2d": (lambda: gs.density_state([[0.5, 0.5], [0.5, 0.5]]), DimensionError),
    "density-one-entry": (lambda: gs.density_state([1.0]), DimensionError),
    "trajectory-lengths": (
        lambda: gs.Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((3, 2))), DomainError),
    "trajectory-times": (
        lambda: gs.Trajectory(times=np.array([0.0, 1.0, 1.0]), states=np.zeros((3, 2))),
        DomainError),
}


@pytest.mark.parametrize("call, error", ENTRY_CHECKS.values(), ids=ENTRY_CHECKS)
def test_entry_checks_raise_their_error_class(call, error):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
