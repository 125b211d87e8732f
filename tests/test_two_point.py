import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphsync as gs
from graphsync.errors import (
    DegenerateDerivativeError,
    DomainError,
    InversionRangeError,
    NonFiniteStateError,
    QuadratureError,
    UnsupportedRegimeError,
)
from graphsync.two_point import _StretchMap, entropy_theta_fn, x_of_r_with_error


def test_rest_point():
    dr, dS = gs.rhs_two_point(gs.MinPower(1.0), 1.0, gs.TwoPointState(0.5, 0.0))
    assert dr == 0.0 and dS == 0.0


def test_canonical_hand_value():
    # dtheta/dr = -1 right of 1/2 for the plain min weight; the quadratic
    # term enters with the half factor that energy conservation fixes.
    dr, dS = gs.rhs_two_point(gs.MinPower(1.0), 1.0, gs.TwoPointState(0.7, 1.0))
    assert dr == pytest.approx(0.3)
    assert dS == pytest.approx(2 * 0.4 * 0.3 + 0.5 * (1.0 - 0.16))


def test_energy_constant_along_trajectory():
    spec = gs.IntegratorSpec(dt=1e-4, t_final=1.0, record_every=10)
    traj = gs.simulate_two_point(gs.MinPower(2.0), 1.0, gs.TwoPointState(0.3, 1.0), spec)
    assert np.all(traj.states[:, 0] > 0.05) and np.all(traj.states[:, 0] < 0.95)
    h = traj.diagnostics["hamiltonian"]
    assert np.max(np.abs(h - h[0])) < 1e-8


def test_positive_energy_keeps_r_increasing():
    rule = gs.MinPower(2.0)
    st = gs.TwoPointState(0.55, 2.0)
    assert gs.hamiltonian_two_point(rule, 1.0, st) > 0
    spec = gs.IntegratorSpec(dt=1e-3, t_final=5.0, record_every=10)
    traj = gs.simulate_two_point(rule, 1.0, st, spec)
    assert np.all(np.diff(traj.states[:, 0]) > 0)
    assert np.all(traj.states[:, 1] > 0)


def test_hamiltonian_two_point_values():
    assert gs.hamiltonian_two_point(gs.MinPower(1.0), 1.0, gs.TwoPointState(0.5, 0.0)) == 0.0
    assert gs.hamiltonian_two_point(
        gs.MinPower(1.0), 1.0, gs.TwoPointState(0.7, 1.0)
    ) == pytest.approx(0.126)
    # any real number is a coupling, numpy's included
    assert gs.hamiltonian_two_point(
        gs.MinPower(1.0), np.int64(1), gs.TwoPointState(0.7, 1.0)
    ) == pytest.approx(0.126)
    # the zero-energy branch: S = kappa (2r - 1)
    for r in [0.3, 0.6, 0.9]:
        st = gs.TwoPointState(r, 1.0 * (2 * r - 1))
        assert gs.hamiltonian_two_point(gs.MinPower(1.0), 1.0, st) == pytest.approx(0.0, abs=1e-15)
    # a reduced entropy potential is accepted in place of kappa
    pot = gs.TsallisPotential(q=2.0)
    st = gs.TwoPointState(0.6, 0.5)
    want = 0.5 * gs.MinPower(1.0).theta_r(0.6) * (0.25 - pot.grad_r(0.6) ** 2)
    assert gs.hamiltonian_two_point(gs.MinPower(1.0), pot, st) == pytest.approx(want)
    # S * S overflows to inf on floats, where S ** 2 would raise OverflowError.
    assert gs.hamiltonian_two_point(gs.MinPower(1.0), 1.0, gs.TwoPointState(0.9, 1e300)) == math.inf


def _seed_two_point(rule, kappa, r, S):
    """dr, dS and H by the numpy formulas the two-node flow first used, with
    the scale each is rounded against.  Kept as the reference."""
    pot = gs.KuramotoQuadratic(kappa)
    a = np.array(r)
    th = float(rule.theta(a, 1.0 - a))
    da, db = rule.partials(a, 1.0 - a)
    thp = float(da - db)
    fp, fpp, S = pot.grad_r(r), pot.hess_r(r), np.float64(S)
    with np.errstate(invalid="ignore"):  # dS is inf * 0 where theta' is infinite
        values = (S * th, th * fp * fpp + 0.5 * thp * (fp * fp - S * S), 0.5 * th * (S**2 - fp**2))
    scales = (abs(S * th), abs(th * fp * fpp) + abs(thp) * (fp * fp + S * S), th * (S * S + fp * fp))
    return [float(v) for v in values], thp, scales


TWO_NODE_RULES = [gs.MinPower(a) for a in (0.5, 1.0, 1.5, 2.0, 3.0)] + [gs.ArithmeticMean()]


@pytest.mark.parametrize("rule", TWO_NODE_RULES, ids=repr)
@settings(max_examples=100)
@given(
    r=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0])),
    S=st.floats(-5.0, 5.0),
    kappa=st.floats(0.1, 10.0),
)
def test_rhs_and_hamiltonian_match_the_seed_formulas(rule, r, S, kappa):
    want, thp, scales = _seed_two_point(rule, kappa, r, S)
    state = gs.TwoPointState(r, S)
    H = gs.hamiltonian_two_point(rule, kappa, state)
    if math.isfinite(thp):
        got = [*gs.rhs_two_point(rule, kappa, state), H]
        if isinstance(rule, gs.ArithmeticMean) or rule.alpha == 1.0:
            assert got[:2] == want[:2]
    else:
        with pytest.raises(DegenerateDerivativeError):
            gs.rhs_two_point(rule, kappa, state)
        got, want, scales = [H], want[2:], scales[2:]
    # theta and theta' agree within 1 ulp, so each result lies within a few
    # ulps of its scale; alpha = 1 and the arithmetic mean use no power.
    for g, w, scale in zip(got, want, scales):
        assert abs(g - w) <= 4 * np.finfo(float).eps * scale, (g, w)


class _CountingRule:
    def __init__(self, rule):
        self.rule, self.calls = rule, 0

    def theta_r(self, r):
        self.calls += 1
        return self.rule.theta_r(r)

    def dtheta_r(self, r):
        self.calls += 1
        return self.rule.dtheta_r(r)


@pytest.mark.parametrize("kappa", [0.0, -1.0, math.nan])
def test_bad_coupling_refused_before_any_step(kappa):
    rule = _CountingRule(gs.MinPower(2.0))
    state = gs.TwoPointState(0.55, 2.0)
    with pytest.raises(DomainError):
        gs.simulate_two_point(rule, kappa, state, gs.IntegratorSpec(dt=0.1, t_final=1.0))
    for fn in (gs.rhs_two_point, gs.hamiltonian_two_point):
        with pytest.raises(DomainError):
            fn(rule, kappa, state)
    assert rule.calls == 0


@pytest.mark.parametrize("alpha, r", [(0.5, 0.0), (0.5, 1.0), (1e-3, 5e-324), (1e-3, 1.0)])
def test_shallow_weight_slope_at_zero_mass_is_degenerate(alpha, r):
    # 0.0 ** -0.5 and 5e-324 ** -0.999 raise on floats; the slope reads inf.
    with pytest.raises(DegenerateDerivativeError):
        gs.rhs_two_point(gs.MinPower(alpha), 1.0, gs.TwoPointState(r, 1.0))


def test_rate_class_branches():
    assert gs.rate_class(1.0, 0.0).kind == "exponential"
    assert gs.rate_class(1.0, 0.0).rate is None
    assert gs.rate_class(2.0, 0.0) == gs.RateClass("algebraic", power=1.0)
    assert gs.rate_class(3.0, 0.0).power == pytest.approx(0.5)
    assert gs.rate_class(0.5, 0.0).kind == "finite_time_extinction"

    assert gs.rate_class(2.0, 0.5) == gs.RateClass("exponential", rate=1.0)
    assert gs.rate_class(1.5, 0.3).kind == "finite_time_extinction"
    assert gs.rate_class(3.0, 0.5) == gs.RateClass("algebraic", power=2.0)
    assert gs.rate_class(4.0, 0.1).power == pytest.approx(1.0)


def test_rate_class_bifurcates_exactly_at_zero_energy():
    # alpha in (1, 2): the two energy branches disagree about the family.
    assert gs.rate_class(1.5, 0.0).kind == "algebraic"
    assert gs.rate_class(1.5, 1e-300).kind == "finite_time_extinction"


def test_rate_class_rejects():
    with pytest.raises(UnsupportedRegimeError):
        gs.rate_class(2.0, -0.1)
    with pytest.raises(DomainError):
        gs.rate_class(0.0, 0.5)


def test_closed_form_gap():
    assert gs.closed_form_gap(1.0, 1.0, 0.0, 0.0) == 0.0
    assert gs.closed_form_gap(2.0, 1.0, 0.0, 1.0) == pytest.approx(0.5)
    assert gs.closed_form_gap(1.0, 2.0, 0.5, math.log(2.0) / 2.0) == pytest.approx(0.75)
    with pytest.raises(UnsupportedRegimeError):
        gs.closed_form_gap(0.5, 1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        gs.closed_form_gap(2.0, -1.0, 0.0, 1.0)


def test_fitted_families_flip_at_zero_energy():
    # Same quadratic weight, two energy branches: at H0 = 0 the gap decays
    # like 1/t (algebraic, power 1/(alpha-1) = 1); at H0 > 0 it decays
    # exponentially at rate sqrt(2 H0).  The fitted laws corroborate the
    # classifier's branch switch.
    from graphsync.analysis import fit_power, fit_rate

    rule = gs.MinPower(2.0)
    r0 = 0.55
    zero_energy = gs.TwoPointState(r0, 1.0 * (2 * r0 - 1))
    assert gs.hamiltonian_two_point(rule, 1.0, zero_energy) == pytest.approx(0.0, abs=1e-15)
    spec = gs.IntegratorSpec(dt=1e-3, t_final=80.0, record_every=100)
    traj0 = gs.simulate_two_point(rule, 1.0, zero_energy, spec)
    pf = fit_power(traj0, window=(40.0, 80.0))
    assert gs.rate_class(2.0, 0.0) == gs.RateClass("algebraic", power=1.0)
    assert abs(pf.power - 1.0) < 0.15

    energetic = gs.TwoPointState(r0, 2.0)
    H0 = gs.hamiltonian_two_point(rule, 1.0, energetic)
    traj1 = gs.simulate_two_point(
        rule, 1.0, energetic, gs.IntegratorSpec(dt=1e-3, t_final=25.0, record_every=100)
    )
    fit = fit_rate(traj1, "log_gap")
    assert fit.r_squared > 0.999
    assert -fit.slope == pytest.approx(gs.rate_class(2.0, H0).rate, rel=0.05)


@pytest.mark.filterwarnings("error")
def test_blow_up_for_shallow_weight_with_positive_energy():
    spec = gs.IntegratorSpec(dt=1e-4, t_final=50.0, record_every=100)
    try:
        traj = gs.simulate_two_point(gs.MinPower(1.0), 1.0, gs.TwoPointState(0.55, 2.0), spec)
        assert traj.stop_reason == "stop_condition"
        assert traj.final_time < 50.0
    except NonFiniteStateError as exc:
        assert exc.trajectory.final_time < 50.0


class _NanCarryingSlope:
    """MinPower(1.0) whose slope at r = NaN is NaN, as numpy arithmetic would give."""

    rule = gs.MinPower(1.0)

    def theta_r(self, r):
        return self.rule.theta_r(r)

    def dtheta_r(self, r):
        return self.rule.dtheta_r(r) + 0.0 * r


@pytest.mark.parametrize("rule", [gs.MinPower(1.0), _NanCarryingSlope()], ids=type)
def test_alpha1_blow_up_stops_with_the_partial_trajectory(rule):
    # An RK4 stage of this run turns r into NaN; the field answers with a
    # non-finite slope before any rule sees it, so integrate stops and
    # keeps what it recorded.
    spec = gs.IntegratorSpec(dt=1e-3, t_final=5.0, record_every=10)
    state = gs.TwoPointState(0.551123195510678, 1.9480270656605552)
    with pytest.raises(NonFiniteStateError) as info:
        gs.simulate_two_point(rule, 1.0, state, spec)
    traj = info.value.trajectory
    assert traj.stop_reason == "nonfinite"
    assert 0.5 < traj.final_time < 5.0
    assert np.all(np.isfinite(traj.states)) and np.all(np.isfinite(traj.diagnostics["hamiltonian"]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dt", [1e-3, 1e-4])
def test_alpha1_blow_ups_end_at_the_boundary_or_as_nonfinite_states(dt):
    # Starts around criterion 12's (0.55, 2.0): each run either reaches the
    # boundary or blows up, and neither way warns.
    rng = np.random.default_rng(5)
    spec = gs.IntegratorSpec(dt=dt, t_final=5.0, record_every=10)
    for _ in range(30):
        state = gs.TwoPointState(rng.uniform(0.54, 0.56), rng.uniform(1.9, 2.1))
        try:
            traj = gs.simulate_two_point(gs.MinPower(1.0), 1.0, state, spec)
        except NonFiniteStateError as exc:
            traj = exc.trajectory
            assert traj.stop_reason == "nonfinite"
        else:
            assert traj.stop_reason == "stop_condition"
        assert traj.final_time < 5.0


# ---------------------------------------------------------------------------
# Entropy-induced weights.
# ---------------------------------------------------------------------------

def test_shannon_induced_theta_value():
    sh = gs.ShannonPotential()
    th = gs.entropy_induced_theta(sh, 0.75)
    want = 2 * sh.value_r(0.75) / sh.grad_r(0.75) ** 2
    assert th == pytest.approx(want, rel=1e-14)
    assert th == pytest.approx(0.216764818, rel=1e-8)


def test_tsallis_q2_induced_theta_is_constant_quarter():
    ts = gs.TsallisPotential(q=2.0)
    grid = np.linspace(0.01, 0.99, 99)
    np.testing.assert_allclose(gs.entropy_induced_theta(ts, grid), 0.25, atol=1e-12)


@pytest.mark.parametrize(
    "pot",
    [gs.ShannonPotential(), gs.RenyiPotential(2.0), gs.RenyiPotential(0.5),
     gs.TsallisPotential(2.0), gs.TsallisPotential(3.0)],
    ids=repr,
)
def test_defining_identity_theta_fprime_sq_equals_2F(pot):
    for r in [0.05, 0.2, 0.4, 0.6, 0.75, 0.95]:
        th = gs.entropy_induced_theta(pot, r)
        assert th * pot.grad_r(r) ** 2 == pytest.approx(2 * pot.value_r(r), rel=1e-12)


def test_theta_midpoint_limit_values():
    # theta(1/2) = 1 / F''(1/2)
    assert gs.entropy_induced_theta(gs.ShannonPotential(), 0.5) == pytest.approx(0.25)
    assert gs.entropy_induced_theta(gs.RenyiPotential(2.0), 0.5) == pytest.approx(1 / 8)
    assert gs.entropy_induced_theta(gs.TsallisPotential(3.0), 0.5) == pytest.approx(1 / 3)


def test_theta_series_window_is_seamless():
    sh = gs.ShannonPotential()
    for d in [0.9e-4, 1.1e-4]:
        lo = gs.entropy_induced_theta(sh, 0.5 + d)
        assert lo == pytest.approx(0.25, rel=1e-6)
    # derivative is odd and near-linear through the window
    dp = gs.entropy_induced_theta_prime(sh, 0.5 + 1e-5)
    dm = gs.entropy_induced_theta_prime(sh, 0.5 - 1e-5)
    assert dp == pytest.approx(-dm, rel=1e-6)


def test_shannon_induced_theta_vanishes_at_boundary_tsallis_does_not():
    # Shannon: F stays bounded while dF/dr blows up, so theta -> 0, though
    # only at the 1/log(gap)^2 pace.
    sh = gs.ShannonPotential()
    seq = [gs.entropy_induced_theta(sh, 1 - g) for g in (1e-3, 1e-6, 1e-9, 1e-12)]
    assert all(a > b for a, b in zip(seq, seq[1:]))
    assert seq[-1] < 2e-3
    # Tsallis keeps both F and dF/dr finite and nonzero at the boundary, so
    # its weight does not vanish there (q = 3 induces the constant 1/3).
    ts = gs.TsallisPotential(q=3.0)
    assert gs.entropy_induced_theta(ts, 1 - 1e-9) == pytest.approx(1 / 3, rel=1e-6)


def test_induced_theta_domain_is_open_interval():
    with pytest.raises(DomainError):
        gs.entropy_induced_theta(gs.ShannonPotential(), 0.0)
    with pytest.raises(DomainError):
        gs.entropy_induced_theta(gs.ShannonPotential(), 1.0)


def test_induced_theta_prime_matches_difference_quotient():
    for pot in (gs.ShannonPotential(), gs.TsallisPotential(2.5), gs.RenyiPotential(2.0)):
        for r in [0.2, 0.4, 0.65, 0.9]:
            h = 1e-6
            fd = (gs.entropy_induced_theta(pot, r + h)
                  - gs.entropy_induced_theta(pot, r - h)) / (2 * h)
            assert gs.entropy_induced_theta_prime(pot, r) == pytest.approx(fd, rel=1e-5, abs=1e-9)


# ---------------------------------------------------------------------------
# Stretched coordinate, path, action, divergence.
# ---------------------------------------------------------------------------

def test_x_of_r_basics():
    assert gs.x_of_r(lambda r: 1.0, 0.5) == 0.0
    assert gs.x_of_r(lambda r: np.ones_like(np.asarray(r, dtype=float)), 0.9) == pytest.approx(0.4)
    with pytest.raises(DomainError):
        gs.x_of_r(lambda r: 1.0, 1.5)


def test_x_of_r_matches_sqrt_2F_for_shannon():
    sh = gs.ShannonPotential()
    fn = entropy_theta_fn(sh)
    for r in [0.1, 0.3, 0.75, 0.9]:
        x = gs.x_of_r(fn, r)
        want = math.copysign(math.sqrt(2 * sh.value_r(r)), r - 0.5)
        assert x == pytest.approx(want, abs=1e-8)


def test_x_of_r_error_estimate_is_small():
    res = x_of_r_with_error(entropy_theta_fn(gs.ShannonPotential()), 0.8)
    assert res.error_estimate < 1e-10


def test_x_strictly_increasing_and_inversion_is_identity():
    fn = entropy_theta_fn(gs.ShannonPotential())
    grid = np.linspace(0.06, 0.94, 45)
    xs = np.array([gs.x_of_r(fn, float(r)) for r in grid])
    assert np.all(np.diff(xs) > 0)
    m = _StretchMap(fn, 0.05, 0.95)
    back = m.invert(xs)
    np.testing.assert_allclose(back, grid, atol=1e-8)


def test_inversion_range_error():
    fn = entropy_theta_fn(gs.ShannonPotential())
    m = _StretchMap(fn, 0.4, 0.6)
    with pytest.raises(InversionRangeError):
        m.invert([5.0])


def test_quadrature_divergence_reported():
    # an interior zero of theta makes 1/sqrt(theta) non-integrable
    bad = lambda r: (r - 0.7) ** 2
    with pytest.raises(QuadratureError):
        gs.x_of_r(bad, 0.9)


def test_analytic_solution_endpoints_and_symmetry():
    fn = entropy_theta_fn(gs.ShannonPotential())
    assert gs.analytic_solution(fn, 0.5, 0.5, 0.37) == pytest.approx(0.5)
    assert gs.analytic_solution(fn, 0.3, 0.8, 0.0) == pytest.approx(0.3, abs=1e-10)
    assert gs.analytic_solution(fn, 0.3, 0.8, 1.0) == pytest.approx(0.8, abs=1e-10)
    with pytest.raises(DomainError):
        gs.analytic_solution(fn, 0.3, 0.8, 1.5)


def test_path_in_stretched_coordinates_solves_x_double_prime_equals_x():
    fn = entropy_theta_fn(gs.TsallisPotential(q=2.0))
    t = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    path = gs.analytic_solution(fn, 0.25, 0.85, t)
    # stride keeps the difference-quotient truncation below the tolerance
    xs = np.array([gs.x_of_r(fn, float(r)) for r in path[::25]])
    h = 0.025
    resid = (xs[2:] - 2 * xs[1:-1] + xs[:-2]) / h**2 - xs[1:-1]
    assert np.max(np.abs(resid)) < 1e-4


def test_action_zero_only_at_balanced_pair():
    fn = entropy_theta_fn(gs.ShannonPotential())
    assert gs.action(fn, 0.5, 0.5) == 0.0
    assert gs.action(fn, 0.5, 0.6) > 0
    assert gs.action(fn, 0.4, 0.4) > 0


def test_action_symmetry():
    fn = entropy_theta_fn(gs.ShannonPotential())
    assert gs.action(fn, 0.3, 0.8) == pytest.approx(gs.action(fn, 0.8, 0.3), rel=1e-12)


def test_action_against_lagrangian_quadrature_single_pair():
    pot = gs.TsallisPotential(q=2.0)
    fn = entropy_theta_fn(pot)
    t = np.linspace(0.0, 1.0, 2001)
    r = gs.analytic_solution(fn, 0.3, 0.8, t)
    rdot = np.gradient(r, t[1] - t[0], edge_order=2)
    th = gs.entropy_induced_theta(pot, r)
    lagr = rdot**2 / (2 * th) + 0.5 * th * pot.grad_r(r) ** 2
    from graphsync.quadrature import composite_simpson

    quad = composite_simpson(lagr, t[1] - t[0])
    assert gs.action(fn, 0.3, 0.8) == pytest.approx(quad, rel=1e-6)


def test_divergence_identity_and_symmetry():
    fn = entropy_theta_fn(gs.ShannonPotential())
    for r in [0.2, 0.5, 0.8]:
        assert gs.divergence(fn, r, r) == 0.0
    d = gs.divergence(fn, 0.3, 0.8)
    assert d == pytest.approx(gs.divergence(fn, 0.8, 0.3), rel=1e-12)
    combo = (gs.action(fn, 0.3, 0.8)
             - 0.5 * gs.action(fn, 0.3, 0.3)
             - 0.5 * gs.action(fn, 0.8, 0.8))
    assert abs(d - combo) < 1e-10


def test_two_point_state_validation():
    with pytest.raises(DomainError):
        gs.TwoPointState(1.2, 0.0)
