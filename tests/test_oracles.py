"""Independent oracles: scipy's DOP853 for the graph flows, mpmath for the
two-node analytics.  Neither is a dependency of graphsync, so each test
skips when its oracle is not installed."""
import numpy as np
import pytest

import graphsync as gs
from graphsync.first_order import first_order_field
from graphsync.hopf_cole import hopf_cole_field
from graphsync.second_order import second_order_field

#: Worst measured (2 vCPUs, numpy 2.4.6, scipy 1.17.1): first-order 1.0e-13,
#: second-order 4.6e-14, Hopf-Cole 4.3e-14.
TRAJECTORY_ATOL = 1e-11


def _against_dop853(traj, field, y0):
    integrate = pytest.importorskip("scipy.integrate")
    ref = integrate.solve_ivp(lambda t, y: field(y), (0.0, traj.final_time), y0,
                              method="DOP853", rtol=1e-12, atol=1e-14, t_eval=traj.times)
    assert ref.success
    return float(np.max(np.abs(ref.y.T - traj.states)))


# RK4 at dt = 1e-3 up to t = 1, recorded every 100 steps, on the same field.
SPEC = gs.IntegratorSpec(dt=1e-3, t_final=1.0, record_every=100)
KURAMOTO = gs.KuramotoQuadratic(kappa=1.0)
# rho and S ranked alike: no density tie is crossed, where theta's kink would cost RK4 its order.
PHASE = gs.PhaseState([0.4, 0.3, 0.2, 0.1], [0.2, 0.1, 0.0, -0.1])


def test_first_order_flow_matches_dop853():
    g, rule, rho0 = gs.named_graph("cycle6"), gs.MinPower(1.0), [0.3, 0.2, 0.1, 0.1, 0.1, 0.2]
    traj = gs.simulate_first_order(g, rule, 1.0, rho0, SPEC, stop_on_convergence=False)
    assert traj.final_time == 1.0
    assert _against_dop853(traj, first_order_field(g, rule, 1.0), rho0) <= TRAJECTORY_ATOL


def test_second_order_flow_matches_dop853():
    g, rule = gs.complete_graph(4), gs.MinPower(2.0)
    traj = gs.simulate_second_order(g, rule, KURAMOTO, PHASE, SPEC)
    field = second_order_field(g, rule, KURAMOTO)
    assert _against_dop853(traj, field, PHASE.as_vector()) <= TRAJECTORY_ATOL


def test_hopf_cole_flow_matches_dop853():
    g, rule = gs.complete_graph(4), gs.MinPower(2.0)
    hc = gs.to_hopf_cole(PHASE, KURAMOTO)
    traj = gs.simulate_hopf_cole(g, rule, KURAMOTO, hc, SPEC)
    field = hopf_cole_field(g, rule, KURAMOTO)
    assert _against_dop853(traj, field, hc.as_vector()) <= TRAJECTORY_ATOL


def _reduced_potentials(mp):
    """(potential, F(r) in mpmath) for each family."""
    q, a = mp.mpf("2.5"), mp.mpf("0.5")
    return {
        "shannon": (gs.ShannonPotential(),
                    lambda r: mp.log(2) + r * mp.log(r) + (1 - r) * mp.log(1 - r)),
        "tsallis": (gs.TsallisPotential(q=2.5),
                    lambda r: (r**q + (1 - r) ** q - mp.mpf(2) ** (1 - q)) / (q - 1)),
        "renyi": (gs.RenyiPotential(alpha=0.5),
                  lambda r: mp.log(2) - mp.log(r**a + (1 - r) ** a) / (1 - a)),
    }


# Relative bounds on x(r) and theta(r) at r in R_POINTS, each at least 10x the worst
# measured at 40 digits (2 vCPUs, numpy 2.4.6, mpmath 1.3.0):
#   shannon x 7.9e-13, theta 7.2e-15; tsallis (q = 2.5) x 1.0e-12, theta 2.9e-15;
#   renyi (alpha = 0.5) x 1.1e-13, theta 1.3e-14.
BOUNDS = {"shannon": (1e-11, 1e-13), "tsallis": (2e-11, 1e-13), "renyi": (1e-11, 2e-13)}
# |r - 1/2| >= 0.05: outside the series window, where theta's quotient loses digits.
R_POINTS = (0.1, 0.3, 0.45, 0.7, 0.9)


@pytest.mark.parametrize("family", sorted(BOUNDS))
def test_stretched_coordinate_and_induced_weight_match_mpmath(family):
    mp = pytest.importorskip("mpmath")
    x_bound, theta_bound = BOUNDS[family]
    with mp.workdps(40):
        pot, F = _reduced_potentials(mp)[family]
        theta_fn = gs.entropy_theta_fn(pot)
        for r in R_POINTS:
            R = mp.mpf(r)
            # The induced weight makes F = x^2 / 2, so x(r) = sign(r - 1/2) sqrt(2 F(r)).
            x = mp.sign(R - mp.mpf("0.5")) * mp.sqrt(2 * F(R))
            theta = 2 * F(R) / mp.diff(F, R) ** 2
            assert abs(gs.x_of_r(theta_fn, r) / x - 1) <= x_bound, r
            assert abs(gs.entropy_induced_theta(pot, r) / theta - 1) <= theta_bound, r


def _x_exact(mp, F, r):
    """The stretched coordinate of the induced weight, sign(r - 1/2) sqrt(2 F(r))."""
    R = mp.mpf(r)
    return mp.sign(R - mp.mpf("0.5")) * mp.sqrt(2 * F(R))


def _r_of_x_exact(mp, F, x):
    """The inverse of ``_x_exact`` by bisection on [0, 1], to the working precision."""
    lo, hi = mp.mpf(0), mp.mpf(1)
    for _ in range(140):  # 2**-140 lies below 40 digits
        mid = (lo + hi) / 2
        if _x_exact(mp, F, mid) < x:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# Each bound is at least 10x the worst measured at 40 digits (2 vCPUs, numpy 2.4.6,
# mpmath 1.3.0), over the three families of ``_reduced_potentials``:
#   action, relative:            2.0e-12 (tsallis q = 2.5)
#   analytic_solution, absolute: 1.1e-12 (renyi alpha = 0.5)
#   theta in the series window:  2.5e-13 (renyi alpha = 0.5)
ACTION_RTOL, PATH_ATOL, WINDOW_RTOL = 3e-11, 6e-11, 3e-12
ACTION_PAIRS = ((0.1, 0.9), (0.2, 0.4), (0.3, 0.8), (0.45, 0.55), (0.7, 0.15), (0.55, 0.95))
PATH_PAIRS = ((0.2, 0.9), (0.05, 0.6))


def _theta_exact(mp, F, r):
    """2 F / F'^2 at 40 digits; its limit 1 / F''(1/2) at r = 1/2."""
    R = mp.mpf(r)
    return 1 / mp.diff(F, R, 2) if R == mp.mpf("0.5") else 2 * F(R) / mp.diff(F, R) ** 2


def _worst_window_error(mp, offsets):
    """Worst relative error of ``entropy_induced_theta`` at r = 1/2 +- each offset."""
    worst = 0.0
    for pot, F in _reduced_potentials(mp).values():
        for r in [0.5 + d for d in offsets] + [0.5 - d for d in offsets]:
            err = abs(gs.entropy_induced_theta(pot, r) / _theta_exact(mp, F, r) - 1)
            worst = max(worst, float(err))
    return worst


@pytest.mark.parametrize("family", sorted(BOUNDS))
def test_action_matches_mpmath(family):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        pot, F = _reduced_potentials(mp)[family]
        c1, s1 = mp.cosh(1), mp.sinh(1)
        for r0, r1 in ACTION_PAIRS:
            x0, x1 = _x_exact(mp, F, r0), _x_exact(mp, F, r1)
            want = c1 / (2 * s1) * (x0 - x1) ** 2 + (c1 - 1) / s1 * x0 * x1
            got = gs.action(gs.entropy_theta_fn(pot), r0, r1)
            assert abs(got / want - 1) <= ACTION_RTOL, (r0, r1)


@pytest.mark.parametrize("family", sorted(BOUNDS))
def test_analytic_solution_matches_mpmath(family):
    mp = pytest.importorskip("mpmath")
    times = [k / 10 for k in range(11)]
    with mp.workdps(40):
        pot, F = _reduced_potentials(mp)[family]
        s1 = mp.sinh(1)
        for r0, r1 in PATH_PAIRS:
            x0, x1 = _x_exact(mp, F, r0), _x_exact(mp, F, r1)
            got = gs.analytic_solution(gs.entropy_theta_fn(pot), r0, r1, times)
            for t, r in zip(times, got):
                T = mp.mpf(t)
                want = _r_of_x_exact(mp, F, (mp.sinh(1 - T) * x0 + mp.sinh(T) * x1) / s1)
                assert abs(r - want) <= PATH_ATOL, (r0, r1, t)


def test_induced_weight_inside_the_series_window_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        assert _worst_window_error(mp, (0.0, 2e-5, 5e-5, 1e-4)) <= WINDOW_RTOL


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: just outside the series window the "
                   "quotient 2 F / F'^2 keeps only about 9 digits (2.2e-9 for renyi at 2e-4)")
def test_induced_weight_just_outside_the_series_window_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        assert _worst_window_error(mp, (1.01e-4, 2e-4, 5e-4)) <= 1e-12
