"""The trimmed weight kernels, edge-list operators, RK4 step, pair steppers, two-node
run and simplex clip, bit for bit.

Each reference below is the earlier, longer formula of the kernel, kept
verbatim: the rewrites drop numpy calls but must give the same bits, signed
zeros and the places of NaN included.  The Hopf-Cole field's reference spells
out its recombination of the second-order sums.  The inputs hold ties, exact and
negative zeros, tiny negatives, subnormals, NaN and infinities.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphsync as gs
from graphsync.errors import GraphSyncError, NonFiniteStateError, SimplexViolationError
from graphsync.hopf_cole import hopf_cole_field
from graphsync.integrate import _STEPPERS, _rk4_step, PAIR_STEPPERS, integrate, project_simplex_clip
from graphsync.two_point import _quadratic_rhs

ALPHAS = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
SPECIAL = [0.0, -0.0, -1e-9, -1e-12, 5e-324, -5e-324, 1e-300, 0.25, 0.5, 1.0,
           np.nan, np.inf, -np.inf]


# -- references ---------------------------------------------------------------

def phi_ref(alpha, m):
    if alpha == 1.0:
        return np.maximum(m, 0.0)
    return np.where(m > 0.0, np.power(np.maximum(m, 0.0), alpha), 0.0)


def dphi_ref(alpha, m):
    with np.errstate(divide="ignore"):
        d = alpha * np.power(np.maximum(m, 0.0), alpha - 1.0)
    return np.where(m >= 0.0, d, 0.0)


def tie_share_ref(d, a, b):
    return np.where(a < b, d, np.where(a > b, 0.0, 0.5 * d))


def theta_ref(alpha, a, b):
    return phi_ref(alpha, np.minimum(a, b))


def theta_and_slope_ref(alpha, a, b):
    m = np.minimum(a, b)
    return phi_ref(alpha, m), tie_share_ref(dphi_ref(alpha, m), a, b)


def _unit(graph):
    return bool(np.all(graph.weights == 1.0))


def coupling_ref(graph, rule, x):
    th = rule.theta(x[graph.tail], x[graph.head])
    return th if _unit(graph) else graph.pair_weight * th


def coupling_and_slope_ref(graph, rule, x):
    th, slope = rule.theta_and_slope(x[graph.tail], x[graph.head])
    if _unit(graph):
        return th, slope
    return graph.pair_weight * th, graph.pair_weight * slope


def diff_ref(graph, x):
    return x[graph.tail] - x[graph.head]


def scatter_ref(graph, v):
    return np.bincount(graph.tail, weights=v, minlength=graph.n)


def flux_ref(graph, rule, x, u):
    return scatter_ref(graph, coupling_ref(graph, rule, x) * diff_ref(graph, u))


def second_order_terms_ref(graph, rule, x, S, g):
    wth, wdth = coupling_and_slope_ref(graph, rule, x)
    dS, dg = diff_ref(graph, S), diff_ref(graph, g)
    return (scatter_ref(graph, wth * dS), scatter_ref(graph, (dg**2 - dS**2) * wdth),
            scatter_ref(graph, wth * dg))


def hopf_cole_field_ref(graph, rule, kappa, y):
    """The second-order sums at S = xi - xs and g = xi + xs: K(g - S, g + S) is
    4 K(xs, xi), and F(xi), F(xs) are (F(g) +- F(S)) / 2."""
    n = graph.n
    x, xi, xs = y[:n], y[n : 2 * n], y[2 * n :]
    f_S, kinetic, f_g = second_order_terms_ref(graph, rule, x, xi - xs, xi + xs)
    cross, half = 0.25 * kinetic, 0.5 * kappa
    return np.concatenate([f_S, cross - half * (f_g + f_S), half * (f_g - f_S) - cross])


def pair_energy_ref(graph, rule, x, S, g):
    wth, dS, dg = coupling_ref(graph, rule, x), diff_ref(graph, S), diff_ref(graph, g)
    return np.sum(wth * (dS**2 - dg**2))


def rk4_step_ref(rhs, y, dt):
    k1 = rhs(y)
    k2 = rhs(y + (0.5 * dt) * k1)
    k3 = rhs(y + (0.5 * dt) * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def simulate_two_point_ref(rule, kappa, state0, spec):
    """The two-node run on integrate's array steppers, with its array field."""
    rhs = _quadratic_rhs(rule, kappa)

    def field(y):
        r, S = y.tolist()
        if math.isnan(r):
            return np.full(2, math.nan)
        return np.array(rhs(min(max(r, 0.0), 1.0), S))

    def hit_boundary(y):
        return min(y[0], 1.0 - y[0]) <= 1e-12

    def energy(y):
        r, S = y.tolist()
        r = min(max(r, 0.0), 1.0)
        fp = -kappa * (2.0 * r - 1.0)
        return 0.5 * rule.theta_r(r) * (S * S - fp * fp)

    return integrate(field, [state0.r, state0.S], spec, {"hamiltonian": energy},
                     stop_when=hit_boundary, n_density=1)


def clip_ref(rho, tol=1e-9):
    rho = np.asarray(rho, dtype=float)
    s = float(rho.sum())
    # The old clip's `abs(s - 1.0) > tol` let a NaN mass through; the clip now refuses it.
    if not abs(s - 1.0) <= tol:
        raise SimplexViolationError(f"density mass {s!r} differs from 1 beyond tol={tol}")
    if np.any(rho < -tol):
        raise SimplexViolationError(
            f"density component {float(rho.min())!r} below -tol={-tol}"
        )
    negative = rho < 0.0
    if np.any(negative):
        rho = np.where(negative, 0.0, rho)
        s = float(rho.sum())
    if abs(s - 1.0) > 1e-15:
        rho = rho / s
    return rho


# -- helpers ------------------------------------------------------------------

def assert_same_bits(got, want):
    """Equal shapes, NaN in the same places, and identical bits everywhere else."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def vectors(n):
    entry = st.sampled_from(SPECIAL) | st.floats(-1e-9, 1.0)
    return st.lists(entry, min_size=n, max_size=n).map(np.array)


@st.composite
def pairs(draw):
    """Two arrays of one length, with ties forced on some entries."""
    k = draw(st.integers(1, 12))
    a, b = draw(vectors(k)), draw(vectors(k))
    tie = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    b[tie] = a[tie]
    return a, b


@st.composite
def graph_cases(draw):
    """A graph on 2..7 vertices with unit or non-unit weights, and four vectors on it."""
    n = draw(st.integers(2, 7))
    i, j = np.triu_indices(n, k=1)
    keep = draw(st.lists(st.booleans(), min_size=len(i), max_size=len(i)))
    keep[0] = True
    edges = [(a + 1, b + 1) for a, b, k in zip(i, j, keep) if k]
    weight = st.just(1.0) if draw(st.booleans()) else st.sampled_from([0.0, 0.5, 2.0, 1.7])
    ws = draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
    graph = gs.build_graph(n, [(a, b, w) for (a, b), w in zip(edges, ws)])
    x = draw(vectors(n))
    if draw(st.booleans()):  # ties between vertices
        x[draw(st.integers(0, n - 1))] = x[0]
    return graph, x, draw(vectors(n)), draw(vectors(n))


# -- tests --------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(case=pairs(), alpha=st.sampled_from(ALPHAS))
def test_weight_kernels_keep_their_bits(case, alpha):
    a, b = case
    rule = gs.MinPower(alpha)
    with np.errstate(all="ignore"):
        assert_same_bits(rule.phi(a), phi_ref(alpha, a))
        assert_same_bits(rule.dphi(a), dphi_ref(alpha, a))
        assert_same_bits(rule.theta(a, b), theta_ref(alpha, a, b))
        for got, want in zip(rule.theta_and_slope(a, b), theta_and_slope_ref(alpha, a, b)):
            assert_same_bits(got, want)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_weight_kernels_keep_their_bits_on_scalars(alpha):
    rule = gs.MinPower(alpha)
    for a in SPECIAL:
        for b in (a, 0.3, 0.0, -0.0):
            with np.errstate(all="ignore"):
                want_th, want_da = theta_and_slope_ref(alpha, np.asarray(a), np.asarray(b))
                th, da = rule.theta_and_slope(a, b)
                assert type(th) is float and type(da) is float
                assert_same_bits(th, want_th)
                assert_same_bits(da, want_da)
                assert_same_bits(rule.theta(a, b), theta_ref(alpha, np.asarray(a), np.asarray(b)))


@settings(max_examples=300, deadline=None)
@given(case=graph_cases(), alpha=st.sampled_from(ALPHAS), kappa=st.sampled_from([0.5, 1.0, 1.5]))
def test_edge_list_operators_keep_their_bits(case, alpha, kappa):
    graph, x, S, g = case
    rule = gs.MinPower(alpha)
    y = np.concatenate([x, S, g])
    with np.errstate(all="ignore"):
        assert_same_bits(graph.coupling(rule, x), coupling_ref(graph, rule, x))
        for got, want in zip(graph.coupling_and_slope(rule, x),
                             coupling_and_slope_ref(graph, rule, x)):
            assert_same_bits(got, want)
        assert_same_bits(graph.flux(rule, x, x), flux_ref(graph, rule, x, x))
        assert_same_bits(graph.flux(rule, x, S), flux_ref(graph, rule, x, S))
        for got, want in zip(graph.second_order_terms(rule, x, S, g),
                             second_order_terms_ref(graph, rule, x, S, g)):
            assert_same_bits(got, want)
        assert_same_bits(hopf_cole_field(graph, rule, gs.KuramotoQuadratic(kappa))(y),
                         hopf_cole_field_ref(graph, rule, kappa, y))
        assert_same_bits(graph.pair_energy(rule, x, S, g), pair_energy_ref(graph, rule, x, S, g))


@settings(max_examples=200, deadline=None)
@given(y=vectors(4), stages=st.lists(vectors(4), min_size=4, max_size=4),
       dt=st.sampled_from([0.01, 1e-3, 0.3, 1e300]))
def test_rk4_step_keeps_its_bits(y, stages, dt):
    def rhs_from(stages):
        stages = iter(stages)
        return lambda state: next(stages) * (1.0 + state)

    with np.errstate(all="ignore"):
        assert_same_bits(_rk4_step(rhs_from(stages), y, dt), rk4_step_ref(rhs_from(stages), y, dt))


@settings(max_examples=300, deadline=None)
@given(y=vectors(2), stages=st.lists(vectors(2), min_size=4, max_size=4),
       dt=st.sampled_from([0.01, 1e-3, 0.3, 1e300]), scheme=st.sampled_from(["euler", "rk4"]))
def test_pair_steppers_take_the_array_steps_bits(y, stages, dt, scheme):
    # The same stage values, as a function of the stage state, on arrays and on float pairs.
    array_stages, pair_stages, calls = iter(stages), iter(stages), []

    def pair_rhs(state):
        calls.append(state)
        a, b = next(pair_stages).tolist()
        return a * (1.0 + state[0]), b * (1.0 + state[1])

    with np.errstate(all="ignore"):
        want = _STEPPERS[scheme](lambda state: next(array_stages) * (1.0 + state), y, dt)
        got = PAIR_STEPPERS[scheme](pair_rhs, y, dt)
    assert type(got) is np.ndarray and got.dtype == float
    assert len(calls) == {"euler": 1, "rk4": 4}[scheme]
    assert all(type(r) is float and type(S) is float for r, S in calls)
    assert_same_bits(got, want)


def _run_bits(simulate, *args):
    """A run's records and stop reason as bytes, with its error's class and message."""
    try:
        traj, err = simulate(*args), None
    except GraphSyncError as exc:
        traj, err = exc.trajectory, (type(exc), str(exc))
    return (traj.times.tobytes(), traj.states.tobytes(),
            traj.diagnostics["hamiltonian"].tobytes(), traj.stop_reason, err)


_RNG = np.random.default_rng(12)
TWO_NODE_STARTS = [(float(_RNG.uniform(0.05, 0.95)), float(_RNG.uniform(-2.5, 2.5)))
                   for _ in range(3)] + [(0.55, 2.0), (0.551123195510678, 1.9480270656605552)]


@pytest.mark.parametrize("scheme", ["euler", "rk4"])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
def test_two_node_run_keeps_the_array_steppers_bits(alpha, scheme):
    spec = gs.IntegratorSpec(scheme=scheme, dt=1e-3, t_final=2.0, record_every=10)
    for r0, S0 in TWO_NODE_STARTS:
        args = (gs.MinPower(alpha), 1.0, gs.TwoPointState(r0, S0), spec)
        assert _run_bits(gs.simulate_two_point, *args) == _run_bits(simulate_two_point_ref, *args)


def test_two_node_blow_up_keeps_its_partial_trajectory_bits():
    spec = gs.IntegratorSpec(dt=1e-3, t_final=5.0, record_every=10)
    args = (gs.MinPower(1.0), 1.0, gs.TwoPointState(0.551123195510678, 1.9480270656605552), spec)
    got = _run_bits(gs.simulate_two_point, *args)
    assert got[3] == "nonfinite" and got[4][0] is NonFiniteStateError
    assert got == _run_bits(simulate_two_point_ref, *args)


def _outcome(fn, rho, tol):
    try:
        return fn(rho, tol), None
    except SimplexViolationError as exc:
        return None, str(exc)


@st.composite
def near_densities(draw):
    """Vectors around the simplex: a density, perhaps nudged by a tiny negative or
    an off-mass entry, or raw entries with NaN and infinities."""
    n = draw(st.integers(2, 7))
    if draw(st.booleans()):
        return draw(vectors(n))
    mass = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    mass[0] += 1.0
    rho = mass / mass.sum()
    k = draw(st.integers(0, n - 1))
    rho[k] = draw(st.sampled_from([rho[k], 0.0, -0.0, -1e-12, -1e-9, -2e-9, np.nan]))
    rho[0] += draw(st.sampled_from([0.0, 1e-16, -3e-16, 5e-10, 2e-9]))
    return rho


@settings(max_examples=500, deadline=None)
@given(rho=near_densities(), tol=st.sampled_from([1e-9, 1e-6]))
def test_simplex_clip_keeps_its_bits_decision_and_message(rho, tol):
    with np.errstate(all="ignore"):
        got, got_err = _outcome(project_simplex_clip, rho.copy(), tol)
        want, want_err = _outcome(clip_ref, rho.copy(), tol)
    assert got_err == want_err
    if want_err is None:
        assert_same_bits(got, want)
