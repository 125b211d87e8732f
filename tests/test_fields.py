"""The three graph vector fields and H against their reference formulas.

The oracles below spell out each flow edge by edge, with the dense Hessian
HessF = potential.hess(rho) and the rule's full partials, independently of
the coupling kernel and the Graph coupling/gather/scatter methods the fields
use.  The Hopf-Cole field has two: the second-order sums at (xi - xi*,
xi + xi*), which it matches bit for bit on unit weights, and the product form
K(xi*, xi), which rounds differently and is matched to 1e-14.
"""
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphsync as gs
from graphsync import first_order, hopf_cole, second_order
from graphsync.errors import DegenerateDerivativeError, DomainError, GraphSyncError
from graphsync.first_order import first_order_field
from graphsync.graphs import CompleteGraph
from graphsync.hopf_cole import hopf_cole_field
from graphsync.second_order import second_order_field
from conftest import random_interior_density

KAPPA = 1.5
RULES = [gs.MinPower(0.5), gs.MinPower(1.0), gs.MinPower(2.0), gs.MinPower(3.0), gs.ArithmeticMean()]
WEIGHTED = gs.graph_from_json(json.dumps({
    "n": 5,
    "edges": [[1, 2, 0.5], [2, 3, 2.0], [3, 4, 1.25], [4, 5, 0.3], [1, 5, 1.7], [2, 4, 0.9]],
}))


def oracle_first(graph, rule, kappa, rho):
    tail, head, w = graph.tail, graph.head, graph.pair_weight
    rt, rh = rho[tail], rho[head]
    flux = w * rule.theta(rt, rh) * (rt - rh)
    return kappa * np.bincount(tail, weights=flux, minlength=graph.n)


def oracle_second_sums(graph, rule, rho, S, g):
    """F(S), K(g - S, g + S) and F(g), edge by edge."""
    tail, head, w, n = graph.tail, graph.head, graph.pair_weight, graph.n
    rt, rh = rho[tail], rho[head]
    th = rule.theta(rt, rh)
    dS_edge, dg_edge = S[tail] - S[head], g[tail] - g[head]
    dth_tail, _ = rule.partials(rt, rh)
    return (np.bincount(tail, weights=w * th * dS_edge, minlength=n),
            np.bincount(tail, weights=w * (dg_edge**2 - dS_edge**2) * dth_tail, minlength=n),
            np.bincount(tail, weights=w * th * dg_edge, minlength=n))


def oracle_second(graph, rule, potential, y):
    n = graph.n
    rho, S = y[:n], y[n:]
    drho, kinetic, u = oracle_second_sums(graph, rule, rho, S, potential.grad(rho))
    return np.concatenate([drho, 0.5 * kinetic + potential.hess(rho) @ u])


def oracle_hopf_cole_rotated(graph, rule, potential, y):
    """The split flow as the second-order sums at S = xi - xi*, g = xi + xi*, where
    K(g - S, g + S) = 4 K(xi*, xi) and F(xi), F(xi*) = (F(g) +- F(S)) / 2."""
    n = graph.n
    rho, xi, xs = y[:n], y[n : 2 * n], y[2 * n :]
    f_S, kinetic, f_g = oracle_second_sums(graph, rule, rho, xi - xs, xi + xs)
    half_hess, cross = 0.5 * potential.hess(rho), 0.25 * kinetic
    return np.concatenate([f_S, cross + half_hess @ (f_g + f_S), -(half_hess @ (f_g - f_S)) - cross])


def oracle_hopf_cole(graph, rule, potential, y):
    tail, head, w, n = graph.tail, graph.head, graph.pair_weight, graph.n
    rho, xi, xs = y[:n], y[n : 2 * n], y[2 * n :]
    rt, rh = rho[tail], rho[head]
    th = rule.theta(rt, rh)
    S = xi - xs
    drho = np.bincount(tail, weights=w * th * (S[tail] - S[head]), minlength=n)
    hess = potential.hess(rho)
    dth_tail, _ = rule.partials(rt, rh)
    linear_xi = hess @ np.bincount(tail, weights=w * th * (xi[tail] - xi[head]), minlength=n)
    linear_xs = hess @ np.bincount(tail, weights=w * th * (xs[tail] - xs[head]), minlength=n)
    cross = np.bincount(
        tail, weights=w * (xs[head] - xs[tail]) * (xi[head] - xi[tail]) * dth_tail, minlength=n
    )
    return np.concatenate([drho, linear_xi + cross, -linear_xs - cross])


def oracle_hamiltonian(graph, rule, potential, rho, S):
    tail, head, w = graph.tail, graph.head, graph.pair_weight
    th = rule.theta(rho[tail], rho[head])
    g = potential.grad(rho)
    dS_edge, dg_edge = S[tail] - S[head], g[tail] - g[head]
    return 0.25 * float(np.sum(w * th * (dS_edge**2 - dg_edge**2)))


def _densities(n: int, seed: int):
    """A random interior density, and one with tied entries and a zero entry."""
    tied = np.full(n, 1.0 / (n - 1))
    tied[0], tied[1], tied[-1] = tied[0] + 0.05, tied[1] - 0.05, 0.0
    return [random_interior_density(np.random.default_rng(seed), n), tied]


def _check_fields(graph, rule, assert_match):
    pot = gs.KuramotoQuadratic(kappa=KAPPA)
    rng = np.random.default_rng(7)
    f1 = first_order_field(graph, rule, KAPPA)
    f2 = second_order_field(graph, rule, pot)
    f3 = hopf_cole_field(graph, rule, pot)
    for rho in _densities(graph.n, seed=graph.n):
        S = rng.normal(size=graph.n)
        xi = rng.normal(size=graph.n)
        y2 = np.concatenate([rho, S])
        y3 = np.concatenate([rho, xi, pot.grad(rho) - xi])
        with np.errstate(invalid="ignore"):
            assert_match(f1(rho), oracle_first(graph, rule, KAPPA, rho))
            assert_match(f2(y2), oracle_second(graph, rule, pot, y2))
            assert_match(f3(y3), oracle_hopf_cole_rotated(graph, rule, pot, y3))
            np.testing.assert_allclose(f3(y3), oracle_hopf_cole(graph, rule, pot, y3),
                                       rtol=0.0, atol=1e-14)
            assert_match(
                gs.hamiltonian(graph, rule, pot, gs.PhaseState(rho, S)),
                oracle_hamiltonian(graph, rule, pot, rho, S),
            )


@pytest.mark.parametrize("rule", RULES, ids=repr)
@pytest.mark.parametrize("name", ["complete(6)", "cycle6"])
def test_fields_match_reference_exactly_on_unit_weights(name, rule):
    _check_fields(gs.named_graph(name), rule, np.testing.assert_array_equal)


@pytest.mark.parametrize("rule", RULES, ids=repr)
def test_fields_match_reference_on_weighted_graph(rule):
    _check_fields(
        WEIGHTED, rule,
        lambda got, want: np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14),
    )


@st.composite
def weighted_graphs(draw):
    """A random graph on 2..7 vertices with unit or random weights (zeros included),
    a density on it that may hold zeros and ties, and two potential vectors."""
    n = draw(st.integers(2, 7))
    i, j = np.triu_indices(n, k=1)
    keep = draw(st.lists(st.booleans(), min_size=len(i), max_size=len(i)))
    if not any(keep):
        keep[0] = True
    pairs = [(a + 1, b + 1) for a, b, k in zip(i, j, keep) if k]
    if draw(st.booleans()):
        weights = [1.0] * len(pairs)
    else:
        weight = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))
        weights = draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs)))
    graph = gs.build_graph(n, [(a, b, w) for (a, b), w in zip(pairs, weights)])
    mass = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 1.0),
                         min_size=n, max_size=n))
    if sum(mass) == 0.0:
        mass[0] = 1.0
    rho = np.array(mass) / sum(mass)
    vec = st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)
    return graph, rho, np.array(draw(vec)), np.array(draw(vec))


@settings(max_examples=200, deadline=None)
@given(case=weighted_graphs(), rule=st.sampled_from(RULES))
# A subnormal first-order field, [1e-323, -1.5e-323, 1e-323], whose mass is 5e-324.
@example(case=(gs.build_graph(3, [(1, 2, 1.0), (2, 3, 1.0)]),
               np.array([0.5, float.fromhex("0x1.65c822ca709b4p-537"), 0.5]), np.zeros(3),
               np.zeros(3)), rule=gs.MinPower(2.0))
def test_coupling_methods_and_mass_on_random_weighted_graphs(case, rule):
    graph, rho, S, xi = case
    pot = gs.KuramotoQuadratic(kappa=KAPPA)
    tail, head, w = graph.tail, graph.head, graph.pair_weight
    unit = bool(np.all(graph.weights == 1.0))
    # The two methods are the rule on the gathered ends, times the weights:
    # bit for bit on unit weights, where the product by 1 is exact.
    th = rule.theta(rho[tail], rho[head])
    th2, slope = rule.theta_and_slope(rho[tail], rho[head])
    with np.errstate(invalid="raise"):  # a zero-weight edge, whose slope may be infinite, is left out
        wth, wslope = graph.coupling_and_slope(rule, rho)
        np.testing.assert_array_equal(wslope, slope if unit else w * slope)
    np.testing.assert_array_equal(graph.coupling(rule, rho), th if unit else w * th)
    np.testing.assert_array_equal(wth, th2 if unit else w * th2)
    # Each field's d rho is a scatter of an antisymmetric edge flux, so the
    # mass change is pure round-off: |sum d rho| <= (edges + n) eps sum|flux|,
    # twice the first-order bound for the two-level sum, plus (edges + n) 2^-1074
    # for the roundings below the normal range, each off by up to half of 2^-1074.
    eps, tiny = np.finfo(float).eps, 2.0**-1074
    fields = (
        (first_order_field(graph, rule, KAPPA), rho, KAPPA * rho),
        (second_order_field(graph, rule, pot), np.concatenate([rho, S]), S),
        (hopf_cole_field(graph, rule, pot), np.concatenate([rho, xi, pot.grad(rho) - xi]),
         xi - (pot.grad(rho) - xi)),
    )
    for field, y, carrier in fields:
        flux = np.abs(graph.coupling(rule, rho) * graph.diff(carrier))
        with np.errstate(invalid="ignore", divide="ignore"):
            drho = field(y)[: graph.n]
        assert abs(float(np.sum(drho))) <= (len(tail) + graph.n) * (eps * float(np.sum(flux)) + tiny)


class _ThetaOnly:
    """A rule that refuses to evaluate its slope."""

    def __init__(self, rule):
        self.theta = rule.theta

    def theta_and_slope(self, a, b):
        raise AssertionError("slope evaluated on a theta-only path")


@pytest.mark.parametrize("rule", RULES, ids=repr)
def test_theta_only_paths_never_evaluate_the_slope(rule):
    g, pot = gs.named_graph("cycle6"), gs.KuramotoQuadratic(kappa=KAPPA)
    rho = random_interior_density(np.random.default_rng(3), 6)
    spy = _ThetaOnly(rule)
    np.testing.assert_array_equal(first_order_field(g, spy, KAPPA)(rho),
                                  first_order_field(g, rule, KAPPA)(rho))
    state = gs.PhaseState(rho, np.linspace(-1.0, 1.0, 6))
    assert gs.hamiltonian(g, spy, pot, state) == gs.hamiltonian(g, rule, pot, state)


@pytest.mark.parametrize("alpha, degenerate", [(0.5, True), (1.0, False), (2.0, False)])
def test_both_rhs_helpers_share_the_degenerate_slope_check(alpha, degenerate):
    g, rule, pot = gs.complete_graph(3), gs.MinPower(alpha), gs.KuramotoQuadratic(kappa=1.0)
    state = gs.PhaseState([0.6, 0.4, 0.0], [0.1, 0.0, -0.1])
    helpers = [
        lambda: gs.rhs_second_order(g, rule, pot, state),
        lambda: gs.rhs_hopf_cole(g, rule, pot, gs.to_hopf_cole(state, pot)),
    ]
    for helper in helpers:
        if degenerate:
            with pytest.raises(DegenerateDerivativeError):
                helper()
        else:
            assert all(np.isfinite(part).all() for part in helper())


def test_zero_weight_edges_couple_nothing():
    # An infinite slope at a zero density on a zero-weight edge: 0 * inf stays out of the sums.
    rule, pot = gs.MinPower(0.5), gs.KuramotoQuadratic(kappa=1.0)
    state = gs.PhaseState([0.5, 0.5, 0.0], [0.1, 0.0, -0.1])
    split = gs.to_hopf_cole(state, pot)
    with_zero = gs.build_graph(3, [(1, 2, 1.0), (2, 3, 0.0)])
    without = gs.build_graph(3, [(1, 2, 1.0)])
    assert with_zero.edge_count == 2 and with_zero.neighbors(3) == (2,)
    assert gs.graph_from_json(with_zero.to_json()) == with_zero != without
    all_zero = [(i, j, 0.0) for i in range(1, 49) for j in range(i + 1, 49)]
    zero_graphs = (CompleteGraph(3, 0.0), gs.build_graph(48, all_zero), gs.build_graph(3, all_zero[:1]))
    assert type(zero_graphs[1]) is CompleteGraph
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = ((*gs.rhs_second_order(g, rule, pot, state), *gs.rhs_hopf_cole(g, rule, pot, split),
                      gs.rhs_first_order(g, rule, 1.0, state.rho)) for g in (with_zero, without))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want, strict=True))
        for graph in zero_graphs:
            rho = np.zeros(graph.n)
            rho[:2] = 0.5
            phase = gs.PhaseState(rho, np.linspace(-1.0, 1.0, graph.n))
            parts = (*gs.rhs_second_order(graph, rule, pot, phase), gs.rhs_first_order(graph, rule, 1.0, rho),
                     *gs.rhs_hopf_cole(graph, rule, pot, gs.to_hopf_cole(phase, pot)))
            assert all(np.all(part == 0.0) for part in parts)
            assert gs.hamiltonian(graph, rule, pot, phase) == 0.0


@pytest.mark.parametrize(
    "entry",
    [
        lambda pot: gs.gradient_flow_init([0.6, 0.4], pot),
        lambda pot: gs.to_hopf_cole(gs.PhaseState([0.6, 0.4], [0.1, -0.1]), pot),
        lambda pot: gs.from_hopf_cole(gs.HopfColeState([0.6, 0.4], [0.0, 0.0], [0.1, 0.1]), pot),
        lambda pot: gs.hamiltonian(gs.complete_graph(2), gs.MinPower(2.0), pot,
                                   gs.PhaseState([0.6, 0.4], [0.1, -0.1])),
    ],
    ids=["gradient_flow_init", "to_hopf_cole", "from_hopf_cole", "hamiltonian"],
)
def test_flow_starts_refuse_non_quadratic_potentials(entry):
    with pytest.raises(DomainError):
        entry(gs.ShannonPotential())


def test_graph_flows_refuse_non_quadratic_potentials():
    g, rule, pot = gs.complete_graph(2), gs.MinPower(2.0), gs.ShannonPotential()
    spec = gs.IntegratorSpec(dt=0.01, t_final=0.1)
    assert issubclass(DomainError, GraphSyncError)
    with pytest.raises(DomainError):
        gs.simulate_second_order(g, rule, pot, gs.PhaseState([0.6, 0.4], [0.1, -0.1]), spec)
    g0 = pot.grad([0.6, 0.4])
    with pytest.raises(DomainError):
        gs.simulate_hopf_cole(g, rule, pot, gs.HopfColeState([0.6, 0.4], [0.0, 0.0], [g0, g0]), spec)
    # A config is refused where it is built, before anything runs.
    for dynamics, initial in (("first", {}), ("second", {"s0": "gradflow"}), ("hopf_cole", {})):
        with pytest.raises(DomainError):
            gs.ExperimentConfig(
                name=f"shannon-{dynamics}", dynamics=dynamics, graph="complete(2)",
                theta={"kind": "min_power", "alpha": 2.0}, potential={"kind": "shannon"},
                rho0=(0.6, 0.4), integrator={"dt": 0.01, "t_final": 0.1}, **initial,
            )


def counting(factory, calls: list):
    """``factory`` whose fields count their evaluations in ``calls``."""
    def build(*args):
        field = factory(*args)

        def counted(y):
            calls.append(None)
            return field(y)

        return counted

    return build


@pytest.mark.parametrize("scheme, stages", [("rk4", 4), ("euler", 1)])
@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("t_final, reason", [(0.5, "t_final"), (200.0, "converged")])
def test_first_order_stop_adds_one_field_call_per_record(
        scheme, stages, record_every, t_final, reason, monkeypatch):
    calls = []
    monkeypatch.setattr(first_order, "first_order_field",
                        counting(first_order.first_order_field, calls))
    g, rule, rho0 = gs.named_graph("complete(4)"), gs.MinPower(1.0), [0.5, 0.3, 0.15, 0.05]
    spec = gs.IntegratorSpec(scheme=scheme, dt=0.05, t_final=t_final, record_every=record_every)
    traj = gs.simulate_first_order(g, rule, KAPPA, rho0, spec)
    assert traj.stop_reason == reason
    steps = round(traj.final_time / spec.dt)
    # The stages of every step, and the stop's evaluation at every record.
    assert len(calls) == stages * steps + len(traj.times)
    calls.clear()
    gs.simulate_first_order(g, rule, KAPPA, rho0, spec, stop_on_convergence=False)
    assert len(calls) == stages * spec.n_steps


@pytest.mark.parametrize("module, factory", [(second_order, "second_order_field"),
                                             (hopf_cole, "hopf_cole_field")], ids=["second", "hopf_cole"])
def test_other_flows_evaluate_their_field_at_the_stages_only(module, factory, monkeypatch):
    calls = []
    monkeypatch.setattr(module, factory, counting(getattr(module, factory), calls))
    g, rule, pot = gs.named_graph("cycle6"), gs.MinPower(2.0), gs.KuramotoQuadratic(KAPPA)
    state = gs.gradient_flow_init([0.3, 0.25, 0.2, 0.1, 0.1, 0.05], pot)
    spec = gs.IntegratorSpec(dt=0.01, t_final=0.2)
    if module is second_order:
        gs.simulate_second_order(g, rule, pot, state, spec)
    else:
        gs.simulate_hopf_cole(g, rule, pot, gs.to_hopf_cole(state, pot), spec)
    assert len(calls) == 4 * spec.n_steps
