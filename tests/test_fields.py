"""The three graph vector fields and H against their reference formulas.

The oracles below spell out each flow edge by edge, with the dense Hessian
HessF = potential.hess(rho) and the rule's full partials, independently of
the coupling kernel and the Graph coupling/gather/scatter methods the fields
use.
"""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphsync as gs
from graphsync.errors import DegenerateDerivativeError, DomainError, GraphSyncError
from graphsync.first_order import first_order_field
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


def oracle_second(graph, rule, potential, y):
    tail, head, w, n = graph.tail, graph.head, graph.pair_weight, graph.n
    rho, S = y[:n], y[n:]
    rt, rh = rho[tail], rho[head]
    th = rule.theta(rt, rh)
    dS_edge = S[tail] - S[head]
    drho = np.bincount(tail, weights=w * th * dS_edge, minlength=n)
    g = potential.grad(rho)
    dg_edge = g[tail] - g[head]
    dth_tail, _ = rule.partials(rt, rh)
    kinetic = 0.5 * np.bincount(tail, weights=w * (dg_edge**2 - dS_edge**2) * dth_tail, minlength=n)
    u = np.bincount(tail, weights=w * th * dg_edge, minlength=n)
    return np.concatenate([drho, kinetic + potential.hess(rho) @ u])


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
            assert_match(f3(y3), oracle_hopf_cole(graph, rule, pot, y3))
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
def test_coupling_methods_and_mass_on_random_weighted_graphs(case, rule):
    graph, rho, S, xi = case
    pot = gs.KuramotoQuadratic(kappa=KAPPA)
    tail, head, w = graph.tail, graph.head, graph.pair_weight
    unit = bool(np.all(graph.weights == 1.0))
    # The two methods are the rule on the gathered ends, times the weights:
    # bit for bit on unit weights, where the product by 1 is exact.
    th = rule.theta(rho[tail], rho[head])
    th2, slope = rule.theta_and_slope(rho[tail], rho[head])
    with np.errstate(invalid="ignore"):  # a zero weight on an infinite slope
        wth, wslope = graph.coupling_and_slope(rule, rho)
        np.testing.assert_array_equal(wslope, slope if unit else w * slope)
    np.testing.assert_array_equal(graph.coupling(rule, rho), th if unit else w * th)
    np.testing.assert_array_equal(wth, th2 if unit else w * th2)
    # Each field's d rho is a scatter of an antisymmetric edge flux, so the
    # mass change is pure round-off: |sum d rho| <= (edges + n) eps sum|flux|,
    # twice the first-order bound for the two-level sum.
    eps = np.finfo(float).eps
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
        assert abs(float(np.sum(drho))) <= (len(tail) + graph.n) * eps * float(np.sum(flux))


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


def test_graph_flows_refuse_non_quadratic_potentials(tmp_path):
    g, rule, pot = gs.complete_graph(2), gs.MinPower(2.0), gs.ShannonPotential()
    spec = gs.IntegratorSpec(dt=0.01, t_final=0.1)
    assert issubclass(DomainError, GraphSyncError)
    with pytest.raises(DomainError):
        gs.simulate_second_order(g, rule, pot, gs.PhaseState([0.6, 0.4], [0.1, -0.1]), spec)
    g0 = pot.grad([0.6, 0.4])
    with pytest.raises(DomainError):
        gs.simulate_hopf_cole(g, rule, pot, gs.HopfColeState([0.6, 0.4], [0.0, 0.0], [g0, g0]), spec)
    for dynamics in ("first", "second", "hopf_cole"):
        cfg = gs.ExperimentConfig(
            name=f"shannon-{dynamics}", dynamics=dynamics, graph="complete(2)",
            theta={"kind": "min_power", "alpha": 2.0}, potential={"kind": "shannon"},
            rho0=(0.6, 0.4), s0="gradflow", integrator={"dt": 0.01, "t_final": 0.1},
        )
        with pytest.raises(DomainError):
            gs.run_experiment(cfg, tmp_path)
