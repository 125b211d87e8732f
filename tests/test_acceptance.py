"""Acceptance suite: every stock benchmark behaviour at its stated tolerance.

Each test asserts its criterion and logs one PASS/FAIL line (collected into
the terminal summary by conftest).  Run with ``pytest tests/test_acceptance.py -v``.
"""
import math
import time
import warnings

import numpy as np
import pytest

import graphsync as gs
from graphsync.analysis import fit_power, fit_rate
from graphsync.errors import NonFiniteStateError
from graphsync.two_point import entropy_theta_fn
from conftest import composite_simpson, random_interior_density

KAPPA = 1.0
BENCH_RHO0_6 = [0.3, 0.2, 0.1, 0.1, 0.1, 0.2]
BENCH_RHO0_4 = [0.5, 0.3, 0.15, 0.05]

LIMITS = {
    "cycle6": np.array([0.7398, 0.0, 0.0, 0.2602, 0.0, 0.0]),
    "lattice6": np.array([0.5274, 0.0, 0.0, 0.1958, 0.0, 0.2768]),
    "ribbon6": np.array([0.5948, 0.0, 0.0, 0.0, 0.0, 0.4052]),
}


def _run_limit_case(name):
    spec = gs.IntegratorSpec(scheme="rk4", dt=0.01, t_final=500.0, record_every=10)
    t0 = time.perf_counter()
    traj = gs.simulate_first_order(
        gs.named_graph(name), gs.MinPower(1.0), KAPPA, BENCH_RHO0_6, spec
    )
    elapsed = time.perf_counter() - t0
    limit = gs.detect_limit(traj)
    return limit, elapsed


@pytest.mark.parametrize("crit, name", [("01", "cycle6"), ("02", "lattice6"), ("03", "ribbon6")])
def test_criterion_1_to_3_six_vertex_limits(crit, name, record_criterion):
    limit, elapsed = _run_limit_case(name)
    assert limit is not None
    err = float(np.max(np.abs(limit - LIMITS[name])))
    detail = f"{name} limit max err {err:.2e} (tol 1e-3), runtime {elapsed:.2f}s"
    ok = err < 1e-3
    if crit == "01":
        ok = ok and elapsed < 5.0
    record_criterion(crit, ok, detail)
    assert err < 1e-3
    if crit == "01":
        assert elapsed < 5.0


def test_criterion_4_decay_rate_laws(record_criterion):
    g = gs.complete_graph(4)
    spec = gs.IntegratorSpec(scheme="rk4", dt=0.01, t_final=200.0, record_every=10)
    cases = [(1.0, "log_gap", -1), (2.0, "inverse_gap", +1), (3.0, "inverse_sq_gap", +1)]
    details = []
    ok = True
    for alpha, transform, sign in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            traj = gs.simulate_first_order(g, gs.MinPower(alpha), KAPPA, BENCH_RHO0_4, spec)
            fit = fit_rate(traj, transform)
        good = fit.r_squared > 0.999 and math.copysign(1, fit.slope) == sign
        ok = ok and good
        details.append(f"a={alpha:g}: {transform} r2={fit.r_squared:.5f} slope={fit.slope:+.3f}")
        assert fit.r_squared > 0.999
        assert math.copysign(1, fit.slope) == sign
    record_criterion("04", ok, "; ".join(details))


def test_criterion_5_equal_maxima_split_the_mass(record_criterion):
    spec = gs.IntegratorSpec(scheme="rk4", dt=0.01, t_final=200.0, record_every=10)
    traj = gs.simulate_first_order(
        gs.complete_graph(3), gs.MinPower(1.0), KAPPA, [0.4, 0.4, 0.2], spec
    )
    tie_dev = float(np.max(np.abs(traj.densities[:, 0] - traj.densities[:, 1])))
    limit_err = float(np.max(np.abs(traj.densities[-1] - [0.5, 0.5, 0.0])))
    ok = tie_dev < 1e-9 and limit_err < 1e-6
    record_criterion("05", ok, f"limit err {limit_err:.2e} (tol 1e-6), tie dev {tie_dev:.2e} (tol 1e-9)")
    assert limit_err < 1e-6
    assert tie_dev < 1e-9


def test_criterion_6_energy_conservation_on_random_states(record_criterion):
    rng = np.random.default_rng(0)
    pot = gs.KuramotoQuadratic(KAPPA)
    rule = gs.MinPower(2.0)
    worst = 0.0
    for n, count in [(2, 7), (3, 7), (6, 6)]:
        g = gs.complete_graph(n)
        for _ in range(count):
            rho = random_interior_density(rng, n)
            S = rng.uniform(-0.2, 0.2, n)
            spec = gs.IntegratorSpec(dt=1e-3, t_final=10.0, record_every=10)
            traj = gs.simulate_second_order(
                g, rule, pot, gs.PhaseState(rho, S), spec,
                stop_when=lambda s: float(s.rho.min()) < 1e-3,
            )
            h = traj.diagnostics["hamiltonian"]
            interior = np.min(traj.densities, axis=1) > 1e-3
            drift = float(np.max(np.abs(h[interior] - h[0])) / max(1.0, abs(h[0])))
            worst = max(worst, drift)
    ok = worst < 1e-6
    record_criterion("06", ok, f"20 random states, worst relative drift {worst:.2e} (tol 1e-6)")
    assert worst < 1e-6


def test_criterion_7_gradient_flow_reduction(record_criterion):
    g = gs.complete_graph(4)
    pot = gs.KuramotoQuadratic(KAPPA)
    rule = gs.MinPower(1.0)
    spec = gs.IntegratorSpec(dt=1e-3, t_final=10.0, record_every=10)
    second = gs.simulate_second_order(
        g, rule, pot, gs.gradient_flow_init(BENCH_RHO0_4, pot, sign=+1), spec
    )
    first = gs.simulate_first_order(
        g, rule, KAPPA, BENCH_RHO0_4, spec, stop_on_convergence=False
    )
    dev = float(np.max(np.abs(second.densities - first.densities)))
    ok = dev < 1e-6
    record_criterion("07", ok, f"second-vs-first sup deviation {dev:.2e} (tol 1e-6)")
    assert dev < 1e-6


def test_criterion_8_split_variables_preserve_zero_branch(record_criterion):
    g = gs.complete_graph(4)
    pot = gs.KuramotoQuadratic(KAPPA)
    rule = gs.MinPower(1.0)
    rho0 = np.array(BENCH_RHO0_4)
    spec = gs.IntegratorSpec(dt=1e-3, t_final=10.0, record_every=10)
    hc = gs.simulate_hopf_cole(
        g, rule, pot, gs.HopfColeState(rho0, np.zeros(4), pot.grad(rho0)), spec
    )
    first = gs.simulate_first_order(g, rule, KAPPA, rho0, spec, stop_on_convergence=False)
    max_xi = float(hc.diagnostics["max_abs_xi"].max())
    dev = float(np.max(np.abs(hc.densities - first.densities)))
    ok = max_xi < 1e-8 and dev < 1e-5
    record_criterion("08", ok, f"max|xi| {max_xi:.1e} (tol 1e-8), density dev {dev:.2e} (tol 1e-5)")
    assert max_xi < 1e-8
    assert dev < 1e-5


def test_criterion_9_canonical_structure(record_criterion):
    g = gs.complete_graph(3)
    pot = gs.KuramotoQuadratic(KAPPA)
    rule = gs.MinPower(2.0)
    rng = np.random.default_rng(1)
    h = 1e-5
    worst = 0.0
    checked = 0
    while checked < 50:
        rho = random_interior_density(rng, 3)
        if np.min(np.abs(np.diff(np.sort(rho)))) < 1e-3:
            continue
        S = rng.uniform(-1.0, 1.0, 3)
        st = gs.PhaseState(rho, S)
        drho, dS = gs.rhs_second_order(g, rule, pot, st)

        def H(r, s):
            return gs.hamiltonian(g, rule, pot, gs.PhaseState(r, s))

        fd_rho = np.zeros(3)
        fd_S = np.zeros(3)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd_rho[j] = (H(rho, S + e) - H(rho, S - e)) / (2 * h)
            fd_S[j] = -(H(rho + e, S) - H(rho - e, S)) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(fd_rho))), float(np.max(np.abs(fd_S))))
        err = max(np.max(np.abs(drho - fd_rho)), np.max(np.abs(dS - fd_S))) / scale
        worst = max(worst, float(err))
        checked += 1
    ok = worst < 1e-5
    record_criterion("09", ok, f"50 random states, worst relative error {worst:.2e} (tol 1e-5)")
    assert worst < 1e-5


SYNC_STARTS = {
    "fig7": (
        [0.3224, 0.2108, 0.1071, 0.0713, 0.2518, 0.0366],
        [0.1597, -1.1129, 0.5929, 0.4568, 0.8299, -0.2499],
    ),
    "fig8": (
        [0.1524, 0.0910, 0.0698, 0.1583, 0.3424, 0.1862],
        [-0.4890, -0.4542, -0.2708, -0.6929, 1.0627, 0.1228],
    ),
}


def test_criterion_10_second_order_synchronisation(record_criterion):
    g = gs.complete_graph(6)
    pot = gs.KuramotoQuadratic(KAPPA)
    rule = gs.MinPower(2.0)
    details = []
    ok = True
    for name, (rho0, s0) in SYNC_STARTS.items():
        rho0 = np.array(rho0)
        rho0 = rho0 / rho0.sum()  # published digits are rounded off the simplex
        spec = gs.IntegratorSpec(dt=0.01, t_final=200.0, record_every=10)
        traj = gs.simulate_second_order(
            g, rule, pot, gs.PhaseState(rho0, np.array(s0)), spec,
            stop_when=lambda s: float(np.max(s.rho)) > 0.99
            and float(np.partition(s.rho, 4)[-2]) < 0.01,
        )
        synced = traj.stop_reason == "stop_condition" and traj.final_time < 200.0
        top = float(np.max(traj.densities[-1]))
        second = float(np.partition(traj.densities[-1], 4)[-2])
        good = synced and top > 0.99 and second < 0.01
        ok = ok and good
        details.append(f"{name}: t_sync={traj.final_time:.2f} top={top:.4f} rest<{second:.1e}")
        assert good
    record_criterion("10", ok, "; ".join(details))


def _lagrangian_action(pot, r0, r1, samples=2001):
    fn = entropy_theta_fn(pot)
    t = np.linspace(0.0, 1.0, samples)
    r = gs.analytic_solution(fn, r0, r1, t)
    rdot = np.gradient(r, t[1] - t[0], edge_order=2)
    th = gs.entropy_induced_theta(pot, r)
    lagr = rdot**2 / (2.0 * th) + 0.5 * th * np.asarray(pot.grad_r(r)) ** 2
    return composite_simpson(lagr, t[1] - t[0])


def test_criterion_11_two_point_analytics(record_criterion):
    rng = np.random.default_rng(3)
    worst_action = 0.0
    worst_div = 0.0
    for pot in (gs.ShannonPotential(), gs.TsallisPotential(q=2.0)):
        fn = entropy_theta_fn(pot)
        for _ in range(5):
            r0, r1 = (float(v) for v in rng.uniform(0.1, 0.9, 2))
            a = gs.action(fn, r0, r1)
            quad = _lagrangian_action(pot, r0, r1)
            worst_action = max(worst_action, abs(a - quad) / max(abs(a), 1e-12))
            combo = a - 0.5 * gs.action(fn, r0, r0) - 0.5 * gs.action(fn, r1, r1)
            worst_div = max(worst_div, abs(gs.divergence(fn, r0, r1) - combo))

    fn = entropy_theta_fn(gs.ShannonPotential())
    h = 1e-3
    t = np.arange(0.0, 1.0 + 1e-12, h)
    path = gs.analytic_solution(fn, 0.25, 0.8, t)
    xs = np.array([gs.x_of_r(fn, float(r)) for r in path])
    resid = float(np.max(np.abs((xs[2:] - 2 * xs[1:-1] + xs[:-2]) / h**2 - xs[1:-1])))

    ok = worst_action < 1e-6 and worst_div < 1e-10 and resid < 1e-4
    record_criterion(
        "11",
        ok,
        f"action-vs-quadrature rel {worst_action:.2e} (tol 1e-6); "
        f"divergence identity {worst_div:.2e} (tol 1e-10); path residual {resid:.2e} (tol 1e-4)",
    )
    assert worst_action < 1e-6
    assert worst_div < 1e-10
    assert resid < 1e-4


def test_criterion_12_decay_trichotomy_at_positive_energy(record_criterion):
    details = []

    rule2 = gs.MinPower(2.0)
    st0 = gs.TwoPointState(0.55, 2.0)
    H0 = gs.hamiltonian_two_point(rule2, KAPPA, st0)
    want_rate = math.sqrt(2.0 * H0)
    spec = gs.IntegratorSpec(dt=1e-3, t_final=30.0, record_every=10)
    traj = gs.simulate_two_point(rule2, KAPPA, st0, spec)
    fit = fit_rate(traj, "log_gap")
    rate_err = abs(-fit.slope - want_rate) / want_rate
    ok2 = rate_err < 0.10
    details.append(f"a=2: rate {-fit.slope:.4f} vs sqrt(2H0)={want_rate:.4f} ({rate_err:.1%})")

    rule3 = gs.MinPower(3.0)
    st0 = gs.TwoPointState(0.55, 2.0)
    spec = gs.IntegratorSpec(dt=5e-3, t_final=300.0, record_every=20)
    traj = gs.simulate_two_point(rule3, KAPPA, st0, spec)
    pf = fit_power(traj, window=(30.0, 300.0))
    power_err = abs(pf.power - 2.0) / 2.0
    ok3 = power_err < 0.15
    details.append(f"a=3: power {pf.power:.3f} vs 2 ({power_err:.1%})")

    rule1 = gs.MinPower(1.0)
    spec = gs.IntegratorSpec(dt=1e-4, t_final=50.0, record_every=100)
    try:
        traj = gs.simulate_two_point(rule1, KAPPA, gs.TwoPointState(0.55, 2.0), spec)
        finite_time = traj.stop_reason == "stop_condition" and traj.final_time < 50.0
        details.append(f"a=1: boundary hit at t={traj.final_time:.2f}")
    except NonFiniteStateError as exc:
        finite_time = exc.trajectory.final_time < 50.0
        details.append(f"a=1: blow-up at t={exc.trajectory.final_time:.2f}")

    ok = ok2 and ok3 and finite_time
    record_criterion("12", ok, "; ".join(details))
    assert ok2 and ok3 and finite_time


def test_criterion_13_integrator_order(record_criterion):
    exact = gs.closed_form_gap(2.0, 1.0, 0.0, 1.0)

    def err(dt):
        spec = gs.IntegratorSpec(scheme="rk4", dt=dt, t_final=1.0, record_every=10**6)
        traj = gs.integrate(lambda y: (1.0 - y) ** 2, [0.0], spec)
        return abs(float(traj.final_state[0]) - exact)

    ratio = err(0.02) / err(0.01)
    ok = 16.0 * 0.8 <= ratio <= 16.0 * 1.2
    record_criterion("13", ok, f"error ratio under halving {ratio:.2f} (want 16 +/- 20%)")
    assert ok
