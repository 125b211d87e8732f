"""The trimmed weight kernels, edge-list operators, RK4 step, generated float steps, two-node
run and simplex clip, and the graph flows' generated fields on floats, bit for bit.

Each reference below is the earlier, longer formula of the kernel, kept
verbatim but for phi and phi' at the stock alphas, which are products, square
roots and a quotient instead of ``np.power``, and the sums of squares, which
are ``np.add.reduce``'s instead of ``np.dot``: the rewrites drop numpy calls but
must give the same bits, signed zeros and the places of NaN included.  The
Hopf-Cole field's reference spells out its recombination of the second-order
sums.  The inputs hold ties, exact and negative zeros, tiny negatives,
subnormals, NaN and infinities.
"""
import functools
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphsync as gs
from graphsync import flows
from graphsync.errors import (ConsistencyError, DomainError, GraphSyncError,
                              NonFiniteStateError, SimplexViolationError)
from graphsync.first_order import first_order_field
from graphsync.graphs import FLOAT_ALPHAS, OPERATORS, _FieldTemplate
from graphsync.hopf_cole import hopf_cole_field
from graphsync.integrate import (_STEPPERS, FLOAT_MAX_N, _float_stepper, _rk4_step, clip_floats,
                                 density_floats, density_state, integrate, project_simplex_clip)
from graphsync.second_order import second_order_field
from graphsync.two_point import _quadratic_rhs

ALPHAS = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
SPECIAL = [0.0, -0.0, -1e-9, -1e-12, 5e-324, -5e-324, 1e-300, 0.25, 0.5, 1.0,
           np.nan, np.inf, -np.inf]


# -- references ---------------------------------------------------------------

#: phi and phi' of c = max(m, 0) at the stock alphas but 1.
STOCK_PHI = {0.5: np.sqrt, 1.5: lambda c: c * np.sqrt(c), 2.0: lambda c: c * c,
             3.0: lambda c: c * c * c}
STOCK_DPHI = {0.5: lambda c: 0.5 / np.sqrt(c), 1.5: lambda c: 1.5 * np.sqrt(c),
              2.0: lambda c: 2.0 * c, 3.0: lambda c: 3.0 * (c * c)}


def phi_ref(alpha, m):
    if alpha == 1.0:
        return np.maximum(m, 0.0)
    c = np.maximum(m, 0.0)
    return np.where(m > 0.0, STOCK_PHI[alpha](c) if alpha in STOCK_PHI else np.power(c, alpha), 0.0)


def dphi_ref(alpha, m):
    c = np.maximum(m, 0.0)
    with np.errstate(divide="ignore"):
        d = STOCK_DPHI[alpha](c) if alpha in STOCK_DPHI else alpha * np.power(c, alpha - 1.0)
    return np.where(m >= 0.0, d, 0.0)


def sum_sq_ref(v):
    return float(np.add.reduce(v * v))


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


#: Test-only fields whose derivatives are the operators' bare sums: F(x), and F(S), K and F(g).
BARE_FLUX = _FieldTemplate("flux", ("x",), ("{F}",)).at(1.0)
BARE_TERMS = _FieldTemplate("second_order_terms", ("x", "S", "g"),
                            ("{FS}", "{K}", "{Fg}")).at(1.0)


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


@st.composite
def step_cases(draw):
    """A state of 2..3 FLOAT_MAX_N entries, the lengths of the float runs' states, and the
    four stage values an rhs returns for it."""
    n = draw(st.integers(2, 3 * FLOAT_MAX_N))
    return draw(vectors(n)), draw(st.lists(vectors(n), min_size=4, max_size=4))


@settings(max_examples=300, deadline=None)
@given(case=step_cases(), dt=st.sampled_from([0.01, 1e-3, 0.3, 1e300]),
       scheme=st.sampled_from(["euler", "rk4"]))
def test_generated_steppers_take_the_array_steps_bits(case, dt, scheme):
    # The same stage values, as a function of the stage state, on arrays and on float lists.
    y, stages = case
    array_stages, float_stages, calls = iter(stages), iter(stages), []

    def float_rhs(state):
        calls.append(state)
        return [d * (1.0 + v) for d, v in zip(next(float_stages).tolist(), state)]

    with np.errstate(all="ignore"):
        want = _STEPPERS[scheme](lambda state: next(array_stages) * (1.0 + state), y, dt)
        got = _float_stepper(scheme, y.size)(float_rhs, y.tolist(), dt)
    assert type(got) is list and all(type(v) is float for v in got)
    assert len(calls) == {"euler": 1, "rk4": 4}[scheme]
    assert all(type(state) is list and all(type(v) is float for v in state) for state in calls)
    assert_same_bits(got, want)


def _run_bits(simulate, *args, **kwargs):
    """A run's records, diagnostics and stop reason as bytes, with its error's class and message."""
    try:
        traj, err = simulate(*args, **kwargs), None
    except GraphSyncError as exc:
        traj, err = exc.trajectory, (type(exc), str(exc))
    return (traj.times.tobytes(), traj.states.tobytes(),
            {name: series.tobytes() for name, series in traj.diagnostics.items()},
            traj.stop_reason, err)


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


# -- the first-order run on floats ---------------------------------------------

def simulate_first_order_ref(graph, rule, kappa, rho0, spec, stop_on_convergence=True):
    """The first-order run on integrate's array steppers, Graph.flux and project_simplex_clip."""
    def field(rho):
        return kappa * graph.flux(rule, rho, rho)

    def gap(rho):
        two = np.partition(rho, rho.size - 2)[-2:]
        return float(two[1] - two[0])

    def converged(rho):
        return float(np.max(np.abs(field(rho)))) < 1e-13

    observers = {"sum_sq": sum_sq_ref, "max_gap": gap}
    traj = integrate(field, rho0, spec, observers, post_step=project_simplex_clip, n_density=graph.n,
                     stop_when=converged if stop_on_convergence else None)
    if traj.stop_reason == "stop_condition":
        traj.stop_reason = "converged"
    return traj


@st.composite
def small_graphs(draw):
    """A graph on 2..FLOAT_MAX_N vertices with unit, other or zero weights; the other weights
    include 0.1, 1/3, a subnormal, a huge one and random ones, whose literals in a float
    kernel's source must round-trip."""
    n = draw(st.integers(2, FLOAT_MAX_N))
    i, j = np.triu_indices(n, k=1)
    keep = draw(st.lists(st.booleans(), min_size=len(i), max_size=len(i)))
    keep[0] = True
    edges = [(a + 1, b + 1) for a, b, k in zip(i, j, keep) if k]
    weight = st.just(1.0) if draw(st.booleans()) else (
        st.sampled_from([0.0, 0.5, 2.0, 1.7, 0.1, 1 / 3, 5e-324, 1e300]) | st.floats(0.0, 10.0))
    ws = draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
    return gs.build_graph(n, [(a, b, w) for (a, b), w in zip(edges, ws)])


@st.composite
def densities(draw, n):
    """A density on n vertices with exact and negative zeros, and ties."""
    entry = st.sampled_from([0.0, -0.0, 0.1, 0.25, 0.5]) | st.floats(0.0, 1.0)
    mass = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    if draw(st.booleans()):
        mass[draw(st.integers(0, n - 1))] = mass[draw(st.integers(0, n - 1))]
    if not np.add.reduce(mass) > 0.0:
        mass[0] = 1.0
    return mass / np.add.reduce(mass)


@st.composite
def first_order_runs(draw):
    graph = draw(small_graphs())
    dt = draw(st.sampled_from([0.01, 0.05, 0.3]))
    # Some horizons end on a shortened step.
    t_final = dt * draw(st.integers(1, 60)) + dt * draw(st.sampled_from([0.0, 0.37]))
    spec = gs.IntegratorSpec(scheme=draw(st.sampled_from(["euler", "rk4"])), dt=dt,
                             t_final=t_final, record_every=draw(st.sampled_from([1, 3])))
    # A large kappa overshoots the simplex or overflows: the run ends in an error.
    kappa = draw(st.sampled_from([0.5, 1.0, 4.0, 1e3, 1e200]))
    rule = gs.MinPower(draw(st.sampled_from(FLOAT_ALPHAS)))
    return graph, rule, kappa, draw(densities(graph.n)), spec


@settings(max_examples=300, deadline=None)
@given(case=first_order_runs(), stop=st.booleans())
def test_first_order_run_on_floats_keeps_the_array_runs_bits(case, stop):
    graph, rule, kappa, rho0, spec = case
    assert graph.on_floats(rule)
    with np.errstate(all="ignore"):
        want = _run_bits(simulate_first_order_ref, graph, rule, kappa, rho0, spec, stop)
    assert _run_bits(gs.simulate_first_order, graph, rule, kappa, rho0, spec,
                     stop_on_convergence=stop) == want


@pytest.mark.parametrize("name, rho0, scheme, kappa, error", [
    ("cycle6", [0.3, 0.25, 0.2, 0.1, 0.1, 0.05], "euler", 1e3, SimplexViolationError),
    ("complete(4)", [0.3 / 0.85, 0.25 / 0.85, 0.2 / 0.85, 0.1 / 0.85], "rk4", 1e200,
     NonFiniteStateError),
])
def test_first_order_run_on_floats_keeps_the_partial_trajectory_of_an_error(
        name, rho0, scheme, kappa, error):
    graph, rule = gs.named_graph(name), gs.MinPower(2.0)
    spec = gs.IntegratorSpec(scheme=scheme, dt=0.3, t_final=3.0)
    got = _run_bits(gs.simulate_first_order, graph, rule, kappa, rho0, spec)
    assert got[4][0] is error
    with np.errstate(all="ignore"):
        assert got == _run_bits(simulate_first_order_ref, graph, rule, kappa, rho0, spec)


#: The blocks of each graph flow's state, and its array field's reference on (graph, rule,
#: kappa, y).
FLOW_BLOCKS = {"first": 1, "second": 2, "hopf_cole": 3}
FIELD_REFS = {"first": lambda graph, rule, kappa, y: kappa * graph.flux(rule, y, y),
              "second": lambda *args: second_order_field_ref(*args),
              "hopf_cole": lambda *args: hopf_cole_field_ref(*args)}


@settings(max_examples=500, deadline=None)
@given(graph=small_graphs(), data=st.data(), alpha=st.sampled_from(FLOAT_ALPHAS),
       kappa=st.sampled_from([1e-300, 1e200, 1e300]) | st.floats(1e-3, 1e3),
       flow=st.sampled_from(sorted(FLOW_BLOCKS)))
def test_generated_fields_have_the_array_fields_bits(graph, data, alpha, kappa, flow):
    # Entries whose squares overflow, beside the ties, zeros, NaN and infinities; a huge kappa
    # overflows to inf and NaN as the array field does.
    entry = st.sampled_from(SPECIAL + [1e200, -1e160]) | st.floats(-1e-9, 1.0)
    size = FLOW_BLOCKS[flow] * graph.n
    y = np.array(data.draw(st.lists(entry, min_size=size, max_size=size)))
    if data.draw(st.booleans()):  # ties between vertices
        y[data.draw(st.integers(0, graph.n - 1))] = y[0]
    rule, model = gs.MinPower(alpha), kappa if flow == "first" else gs.KuramotoQuadratic(kappa)
    field, generated = (flows.FLOWS[flow].field(graph, rule, model, f) for f in (False, True))
    with np.errstate(all="ignore"):
        want = FIELD_REFS[flow](graph, rule, kappa, y)
        on_array, on_list = field(y), generated(y.tolist())
        if flow == "first":  # and the bare sum that the template is written around
            for floats, bare in [(True, y.tolist()), (False, y)]:
                assert_same_bits(graph.held(BARE_FLUX, rule, floats)(bare), graph.flux(rule, y, y))
    assert type(on_array) is np.ndarray and type(on_list) is list
    assert all(type(v) is float for v in on_list)
    assert_same_bits(on_array, want)
    assert_same_bits(on_list, want)


@settings(max_examples=500, deadline=None)
@given(rho=near_densities(), tol=st.sampled_from([1e-9, 1e-6]))
@example(rho=np.array([-0.0, -0.0]), tol=1e-9)  # the mass is 0.0, summed from 0.0
def test_float_clip_keeps_the_array_clips_bits_decision_and_message(rho, tol):
    with np.errstate(all="ignore"):
        want, want_err = _outcome(project_simplex_clip, rho.copy(), tol)
    got, got_err = _outcome(clip_floats, rho.tolist(), tol)
    assert got_err == want_err
    if want_err is None:
        assert type(got) is list
        assert_same_bits(got, want)


@settings(max_examples=500, deadline=None)
@given(data=st.data(), n=st.integers(2, FLOAT_MAX_N))
def test_add_reduce_sums_few_entries_left_to_right(data, n):
    # What the float clip's mass rests on; a numpy that sums otherwise fails here.
    rho = data.draw(vectors(n) | densities(n))
    with np.errstate(all="ignore"):
        assert_same_bits(functools.reduce(operator.add, rho.tolist(), 0.0), np.add.reduce(rho))


def test_add_reduce_sums_random_densities_left_to_right():
    rng = np.random.default_rng(22)
    for n in range(2, FLOAT_MAX_N + 1):
        rho = rng.dirichlet(np.ones(n), size=20000) * rng.uniform(0.5, 1.5, size=(20000, 1))
        left_to_right = [functools.reduce(operator.add, row, 0.0) for row in rho.tolist()]
        assert_same_bits(left_to_right, [np.add.reduce(row) for row in rho])


class _OwnPhi(gs.MinPower):
    """A MinPower subclass, which may give phi a form of its own."""


#: Graphs and rules whose runs step on arrays.
ON_ARRAYS = [
    (gs.complete_graph(FLOAT_MAX_N + 1), gs.MinPower(2.0)),
    (gs.named_graph("cycle6"), gs.MinPower(2.5)),
    (gs.named_graph("cycle6"), _OwnPhi(2.0)),
    (gs.named_graph("cycle6"), gs.ArithmeticMean()),
    (gs.graphs.CompleteGraph(4), gs.MinPower(1.0)),
]
ON_ARRAYS_IDS = ["n=8", "alpha=2.5", "subclass", "arithmetic_mean", "sorted"]


@pytest.mark.parametrize("graph, rule, on_floats", [(*case, False) for case in ON_ARRAYS] + [
    # The stock alphas but 2, whose phi and phi' are products, square roots and a quotient.
    (gs.named_graph("cycle6"), gs.MinPower(0.5), True),
    (gs.named_graph("cycle6"), gs.MinPower(1.0), True),
    (gs.named_graph("cycle6"), gs.MinPower(1.5), True),
    (gs.named_graph("cycle6"), gs.MinPower(3.0), True),
], ids=ON_ARRAYS_IDS + ["alpha=0.5", "alpha=1", "alpha=1.5", "alpha=3"])
def test_other_runs_stay_on_arrays(graph, rule, on_floats, monkeypatch):
    held = []

    def spy(*args, **kwargs):
        held.append(kwargs["on_floats"])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(flows, "integrate", spy)
    potential, spec = gs.KuramotoQuadratic(1.0), gs.IntegratorSpec(dt=0.01, t_final=0.02)
    rho0 = np.linspace(1.0, 2.0, graph.n) / np.add.reduce(np.linspace(1.0, 2.0, graph.n))
    phase = gs.gradient_flow_init(rho0, potential)
    gs.simulate_first_order(graph, rule, 1.0, rho0, spec)
    gs.simulate_second_order(graph, rule, potential, phase, spec)
    gs.simulate_hopf_cole(graph, rule, potential, gs.to_hopf_cole(phase, potential), spec)
    assert held == [on_floats] * 3
    assert graph.on_floats(rule) is on_floats


@pytest.mark.parametrize("graph, rule", ON_ARRAYS, ids=ON_ARRAYS_IDS)
def test_the_float_binding_is_refused_where_a_run_steps_on_arrays(graph, rule):
    named = f"not on a {type(graph).__name__} of {graph.n} vertices under {re.escape(repr(rule))};"
    for template in (BARE_FLUX, BARE_TERMS):
        with pytest.raises(DomainError, match=f"^a {template.operator} field on lists of floats: "
                                              f"{named}"):
            graph.held(template, rule, True)
    potential = gs.KuramotoQuadratic(1.0)
    for factory, model in [(first_order_field, 1.0), (second_order_field, potential),
                           (hopf_cole_field, potential)]:
        with pytest.raises(DomainError, match=named):
            factory(graph, rule, model, True)


@pytest.mark.parametrize("operator", OPERATORS)
def test_a_named_operator_is_held_on_arrays_only(operator):
    # A name binds the operator on arrays; on floats only a flow's field at its kappa is bound.
    graph, rule = gs.named_graph("cycle6"), gs.MinPower(2.0)
    assert graph.on_floats(rule)
    held = "^held binds one of flux, second_order_terms, pair_energy on arrays, or a flow's " \
           "FIELD at its kappa, got "
    with pytest.raises(DomainError, match=f"{held}'{operator}'$"):
        graph.held(operator, rule, True)
    with pytest.raises(DomainError, match=held + re.escape(repr(gs.first_order.FIELD))):
        graph.held(gs.first_order.FIELD, rule)  # a template without its kappa
    assert callable(graph.held(operator, rule))


def test_equal_edges_share_one_built_float_field():
    kernel, rule = gs.graphs._float_kernel, gs.MinPower(2.0)
    kernel.cache_clear()
    flux = gs.named_graph("cycle6").held(BARE_FLUX, rule, True)
    assert gs.named_graph("cycle6").held(BARE_FLUX, rule, True) is flux
    assert (kernel.cache_info().misses, kernel.cache_info().hits) == (1, 1)
    spec, rho0 = gs.IntegratorSpec(dt=0.01, t_final=0.05), [0.3, 0.25, 0.2, 0.1, 0.1, 0.05]
    for _ in range(2):  # a first-order run builds its field, and a second run shares it
        gs.simulate_first_order(gs.named_graph("cycle6"), rule, 1.0, rho0, spec)
    assert (kernel.cache_info().misses, kernel.cache_info().hits) == (2, 2)
    # A new alpha, a changed weight or the other operator builds a field of its own.
    heavier = gs.build_graph(6, [(1, 2, 1.0 + 2.0**-52)] + [(k, k % 6 + 1, 1.0) for k in range(2, 7)])
    others = {gs.named_graph("cycle6").held(BARE_FLUX, gs.MinPower(3.0), True),
              heavier.held(BARE_FLUX, rule, True),
              gs.named_graph("cycle6").held(BARE_TERMS, rule, True)}
    assert len(others | {flux}) == 4 and kernel.cache_info().misses == 5
    # The field's namespace holds sqrt, nan and inf, and no builtins.
    assert flux.__globals__ == {"__builtins__": {}, "sqrt": math.sqrt, "nan": math.nan,
                                "inf": math.inf, "field": flux}
    # The cache has a bound: 70 weights later it holds 64 fields.
    for k in range(70):
        gs.build_graph(3, [(1, 2, 1.0 + k), (2, 3, 1.0)]).held(BARE_FLUX, rule, True)
    assert kernel.cache_info().maxsize == kernel.cache_info().currsize == 64


def test_an_array_field_is_built_once_per_template_and_size_and_shared_across_runs():
    build, rule = gs.graphs._array_field, gs.MinPower(2.5)  # cycle6 at alpha 2.5 steps on arrays
    build.cache_clear()
    spec, rho0 = gs.IntegratorSpec(dt=0.01, t_final=0.05), [0.3, 0.25, 0.2, 0.1, 0.1, 0.05]
    for _ in range(2):  # a first-order run builds its field, and a second run shares the builder
        gs.simulate_first_order(gs.named_graph("cycle6"), rule, 1.0, rho0, spec)
    assert (build.cache_info().misses, build.cache_info().hits) == (1, 1)
    # Another graph of as many vertices shares it, each field over its own held operator.
    fields = [first_order_field(gs.named_graph(name), rule, 1.0) for name in ("cycle6", "lattice6")]
    assert fields[0] is not fields[1] and fields[0].__code__ is fields[1].__code__
    assert (build.cache_info().misses, build.cache_info().hits) == (1, 3)
    # Another kappa, vertex count or flow builds one of its own.
    potential = gs.KuramotoQuadratic(1.0)
    first_order_field(gs.named_graph("cycle6"), rule, 2.0)
    first_order_field(gs.named_graph("square4"), rule, 1.0)
    second_order_field(gs.named_graph("cycle6"), rule, potential)
    hopf_cole_field(gs.named_graph("cycle6"), rule, potential)
    assert (build.cache_info().misses, build.cache_info().hits) == (5, 3)
    # The builder's namespace holds asarray and concatenate, and no builtins.
    builder = build(gs.first_order.FIELD.at(1.0), 6)
    assert builder.__globals__ == {"__builtins__": {}, "asarray": np.asarray,
                                   "concatenate": np.concatenate, "build": builder}


@pytest.mark.parametrize("flow", sorted(FLOW_BLOCKS))
def test_equal_flow_edges_alpha_and_kappa_share_one_generated_field(flow):
    kernel, factory = gs.graphs._float_kernel, flows.FLOWS[flow].field
    model = (lambda kappa: kappa) if flow == "first" else gs.KuramotoQuadratic
    kernel.cache_clear()
    field = factory(gs.named_graph("ribbon6"), gs.MinPower(2.0), model(2.0), True)
    # Another graph of equal edges, and kappa as an int, share it.
    assert factory(gs.named_graph("ribbon6"), gs.MinPower(2.0), model(2), True) is field
    others = [factory(gs.named_graph("ribbon6"), gs.MinPower(2.0), model(2.0 + 2.0**-51), True),
              factory(gs.named_graph("ribbon6"), gs.MinPower(3.0), model(2.0), True),
              factory(gs.named_graph("cycle6"), gs.MinPower(2.0), model(2.0), True)]
    assert len({field, *others}) == 4
    assert (kernel.cache_info().misses, kernel.cache_info().hits) == (4, 1)
    # The other flows' fields on the same graph, alpha and kappa are functions of their own.
    for other in sorted(set(FLOW_BLOCKS) - {flow}):
        other_model = 2.0 if other == "first" else gs.KuramotoQuadratic(2.0)
        assert flows.FLOWS[other].field(gs.named_graph("ribbon6"), gs.MinPower(2.0), other_model,
                                        True) is not field


def test_a_generated_step_is_built_once_per_scheme_and_length():
    _float_stepper.cache_clear()
    step = _float_stepper("rk4", 12)
    assert _float_stepper("rk4", 12) is step
    assert len({step, _float_stepper("euler", 12), _float_stepper("rk4", 13)}) == 3
    assert (_float_stepper.cache_info().misses, _float_stepper.cache_info().hits) == (3, 1)
    assert step.__globals__ == {"__builtins__": {}, "step": step}


def test_a_run_on_floats_calls_neither_the_array_clip_nor_theta(monkeypatch):
    def refuse(*args):
        raise AssertionError("an array kernel called on the float path")

    monkeypatch.setattr(flows, "clip_array", refuse)
    monkeypatch.setattr(gs.MinPower, "theta", refuse)
    spec = gs.IntegratorSpec(dt=0.05, t_final=1.0, record_every=4)
    traj = gs.simulate_first_order(gs.named_graph("ribbon6"), gs.MinPower(1.0), 1.0,
                                   [0.3, 0.25, 0.2, 0.1, 0.1, 0.05], spec)
    assert traj.final_time == 1.0


def test_no_stock_alpha_calls_np_power(monkeypatch, tmp_path):
    # np.power's bits follow numpy's CPU dispatch; at the stock alphas nothing may call it.
    def refuse(*args, **kwargs):
        raise AssertionError("np.power called at a stock alpha")

    monkeypatch.setattr(np, "power", refuse)
    x, r = np.array(SPECIAL), [0.0, 1e-300, 0.25, 0.5, 0.75, 1.0]
    for alpha in FLOAT_ALPHAS:
        rule = gs.MinPower(alpha)
        with np.errstate(all="ignore"):
            rule.phi(x), rule.dphi(x), rule.theta(x, x[::-1]), rule.theta_and_slope(x, x[::-1])
        [(rule.theta_r(v), rule.dtheta_r(v)) for v in r]
    cfg = gs.experiments.REPRODUCE_TARGETS["fig3"]
    assert gs.experiments.run_experiment(cfg, tmp_path, check=True)["check_failures"] == []
    rule, potential, spec = gs.MinPower(3.0), gs.KuramotoQuadratic(1.0), gs.IntegratorSpec(t_final=0.5)
    for graph in (gs.complete_graph(6), gs.complete_graph(48)):  # on floats, and sorted
        rho0 = np.linspace(1.0, 2.0, graph.n) / np.add.reduce(np.linspace(1.0, 2.0, graph.n))
        traj = gs.simulate_second_order(graph, rule, potential, gs.gradient_flow_init(rho0, potential),
                                        spec)
        assert traj.final_time == 0.5


# -- the second-order and Hopf-Cole runs on floats -------------------------------

def second_order_field_ref(graph, rule, kappa, y):
    """The second-order field on arrays, from Graph.second_order_terms at g = -kappa rho."""
    n = graph.n
    x, S = y[:n], y[n:]
    drho, kinetic, g_flux = graph.second_order_terms(rule, x, S, -kappa * x)
    return np.concatenate([drho, 0.5 * kinetic - kappa * g_flux])


def simulate_second_order_ref(graph, rule, kappa, rho0, S0, spec):
    """The second-order run on integrate's array steppers, its array field and density_state."""
    n = graph.n

    def inside_simplex(y):
        density_state(y[:n], 1e-6)
        return y

    def energy(y):
        return 0.25 * float(graph.pair_energy(rule, y[:n], y[n:], -kappa * y[:n]))

    observers = {"hamiltonian": energy, "sum_sq": lambda y: sum_sq_ref(y[:n])}
    return integrate(lambda y: second_order_field_ref(graph, rule, kappa, y),
                     np.concatenate([rho0, S0]), spec, observers, post_step=inside_simplex,
                     n_density=n)


def simulate_hopf_cole_ref(graph, rule, kappa, rho0, xi0, xs0, spec):
    """The Hopf-Cole run on integrate's array steppers and its array field."""
    n = graph.n

    def carried_rho_deviation(y):
        dev = float(np.max(np.abs(-(y[n : 2 * n] + y[2 * n :]) / kappa - y[:n])))
        if dev > 1e-8:
            raise ConsistencyError(f"carried and recovered densities diverged by {dev:.3e}")
        return dev

    observers = {"max_abs_xi": lambda y: float(np.max(np.abs(y[n : 2 * n]))),
                 "rho_consistency": carried_rho_deviation}
    return integrate(lambda y: hopf_cole_field_ref(graph, rule, kappa, y),
                     np.concatenate([rho0, xi0, xs0]), spec, observers, n_density=n)


@pytest.mark.parametrize("alpha", FLOAT_ALPHAS)
@settings(max_examples=300, deadline=None)
@given(graph=small_graphs(), data=st.data(), kappa=st.sampled_from([0.5, 1.0, 1e200]))
def test_second_order_fields_on_floats_have_the_array_fields_bits(alpha, graph, data, kappa):
    # Entries whose squares overflow, beside the ties, zeros, NaN and infinities.
    entry = st.sampled_from(SPECIAL + [1e200, -1e160]) | st.floats(-1e-9, 1.0)
    n, rule, potential = graph.n, gs.MinPower(alpha), gs.KuramotoQuadratic(kappa)
    x, S, g = [np.array(data.draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(3)]
    if data.draw(st.booleans()):  # ties between vertices
        x[data.draw(st.integers(0, n - 1))] = x[0]
    with np.errstate(all="ignore"):
        want = graph.second_order_terms(rule, x, S, g)
        y = np.concatenate([x, S, g])
        on_list, on_array = (graph.held(BARE_TERMS, rule, True)(y.tolist()),
                             graph.held(BARE_TERMS, rule)(y))
        assert type(on_list) is list and all(type(v) is float for v in on_list)
        assert_same_bits(on_list, np.concatenate(want))
        assert_same_bits(on_array, np.concatenate(want))
        for factory, y, ref in [(second_order_field, np.concatenate([x, S]), second_order_field_ref),
                                (hopf_cole_field, np.concatenate([x, S, g]), hopf_cole_field_ref)]:
            field, float_field = (factory(graph, rule, potential, f) for f in (False, True))
            want = ref(graph, rule, kappa, y)
            on_array, on_list = field(y), float_field(y.tolist())
            assert type(on_array) is np.ndarray and type(on_list) is list
            assert all(type(v) is float for v in on_list)
            assert_same_bits(on_array, want)
            assert_same_bits(on_list, want)


@st.composite
def second_order_runs(draw, alpha):
    """A second-order or Hopf-Cole run on floats at ``alpha``: its graph, rule, kappa, rho0, a
    kick that moves S0 off the gradient-flow branch and xi0 off 0, and its spec."""
    graph = draw(small_graphs())
    dt = draw(st.sampled_from([0.01, 0.05, 0.3]))
    # Some horizons end on a shortened step.
    t_final = dt * draw(st.integers(1, 40)) + dt * draw(st.sampled_from([0.0, 0.37]))
    spec = gs.IntegratorSpec(scheme=draw(st.sampled_from(["euler", "rk4"])), dt=dt,
                             t_final=t_final, record_every=draw(st.sampled_from([1, 3])))
    # A large kappa or kick leaves the simplex or overflows: the run ends in an error.
    kappa = draw(st.sampled_from([0.5, 1.0, 4.0, 1e3, 1e200]))
    rule = gs.MinPower(alpha)
    value = st.sampled_from([0.0, -0.0, 0.1, -0.3]) | st.floats(-1.0, 1.0)
    kick = np.array(draw(st.lists(value, min_size=graph.n, max_size=graph.n)))
    return graph, rule, kappa, draw(densities(graph.n)), kick, spec


def _second_order_outcomes(graph, rule, kappa, rho0, kick, spec):
    """The second-order run from S0 = kappa rho0 + kick and the Hopf-Cole run from xi0 = kick,
    each as _run_bits gives it, on floats and by its array reference."""
    potential = gs.KuramotoQuadratic(kappa)
    S0, xi0 = kappa * rho0 + kick, kick
    xs0 = potential.grad(rho0) - xi0
    got = (_run_bits(gs.simulate_second_order, graph, rule, potential, gs.PhaseState(rho0, S0), spec),
           _run_bits(gs.simulate_hopf_cole, graph, rule, potential,
                     gs.HopfColeState(rho0, xi0, xs0), spec))
    with np.errstate(all="ignore"):
        want = (_run_bits(simulate_second_order_ref, graph, rule, kappa, rho0, S0, spec),
                _run_bits(simulate_hopf_cole_ref, graph, rule, kappa, rho0, xi0, xs0, spec))
    return got, want


@pytest.mark.parametrize("alpha", FLOAT_ALPHAS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_second_order_runs_on_floats_keep_the_array_runs_bits(alpha, data):
    case = data.draw(second_order_runs(alpha))
    graph, rule = case[:2]
    assert graph.on_floats(rule)
    got, want = _second_order_outcomes(*case)
    assert got == want


@pytest.mark.parametrize("name, kappa, kick, scheme, dt, errors", [
    ("cycle6", 100.0, 5.0, "euler", 0.3, (SimplexViolationError, None)),
    ("complete(4)", 1.0, 20.0, "rk4", 0.05, (None, ConsistencyError)),
    ("complete(2)", 1e100, 1.0, "euler", 0.01, (SimplexViolationError, NonFiniteStateError)),
], ids=["simplex", "consistency", "nonfinite"])
def test_second_order_runs_on_floats_keep_the_partial_trajectory_of_an_error(
        name, kappa, kick, scheme, dt, errors):
    graph, rule = gs.named_graph(name), gs.MinPower(2.0)
    rho0 = np.linspace(1.0, 2.0, graph.n) / np.add.reduce(np.linspace(1.0, 2.0, graph.n))
    kick = kick * np.linspace(-1.0, 1.0, graph.n)
    spec = gs.IntegratorSpec(scheme=scheme, dt=dt, t_final=3.0)
    got, want = _second_order_outcomes(graph, rule, kappa, rho0, kick, spec)
    assert [None if err is None else err[0] for *_, err in got] == list(errors)
    assert got == want


@pytest.mark.parametrize("dynamics", ["second", "hopf_cole"])
def test_a_second_order_run_on_floats_calls_neither_the_slope_kernel_nor_density_state(
        dynamics, monkeypatch):
    admitted = []

    def refuse(*args):
        raise AssertionError("an array kernel called on the float path")

    def counted(*args):
        admitted.append(args)
        return density_state(*args)

    monkeypatch.setattr(gs.MinPower, "theta_and_slope", refuse)
    monkeypatch.setattr(flows, "density_state", counted)
    monkeypatch.setattr(flows, "density_array", refuse)
    graph, rule, potential = gs.named_graph("ribbon6"), gs.MinPower(2.0), gs.KuramotoQuadratic(1.0)
    rho0 = np.array([0.3, 0.25, 0.2, 0.1, 0.1, 0.05])
    spec = gs.IntegratorSpec(dt=0.05, t_final=1.0, record_every=4)
    if dynamics == "second":
        traj = gs.simulate_second_order(graph, rule, potential, gs.PhaseState(rho0, rho0), spec)
    else:
        traj = gs.simulate_hopf_cole(graph, rule, potential,
                                     gs.HopfColeState(rho0, np.zeros(6), -rho0), spec)
    assert traj.final_time == 1.0
    assert len(admitted) == 1  # rho0, where the run admits it


@settings(max_examples=500, deadline=None)
@given(rho=near_densities(), tol=st.sampled_from([1e-9, 1e-6]))
def test_float_density_check_keeps_density_states_decision_and_message(rho, tol):
    with np.errstate(all="ignore"):
        want, want_err = _outcome(density_state, rho.copy(), tol)
    got, got_err = _outcome(density_floats, rho.tolist(), tol)
    assert got_err == want_err
    if want_err is None:
        assert type(got) is list
        assert_same_bits(got, want)
