"""The sorted complete-graph operators against the edge list, and the implicit
complete graph's Graph contract.

``CompleteGraph(n, omega)`` is built directly here, so its sorted operators
run at every n, below ``SORTED_MIN_N`` too; the reference is the explicit
``Graph`` on all pairs with the same weight, whose operators are the per-edge
expressions.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphsync as gs
from graphsync import graphs
from graphsync.analysis import edge_dichotomy_report
from graphsync.errors import (DegenerateDerivativeError, GraphConstructionError,
                              NegativeWeightError, NonFiniteStateError)
from graphsync.first_order import first_order_field
from graphsync.graphs import SORTED_MIN_N, CompleteGraph, Graph
from graphsync.hopf_cole import hopf_cole_field
from graphsync.second_order import second_order_field

#: Agreement asked of the sorted operators, as a fraction of each evaluation's scale.
REL_TOL = 1e-12
KAPPA = 1.5
POT = gs.KuramotoQuadratic(KAPPA)


def edge_list(n: int, omega: float = 1.0) -> Graph:
    i, j = np.triu_indices(n, k=1)
    return Graph(n=n, edges=np.column_stack([i + 1, j + 1]), weights=np.full(len(i), omega))


def all_pairs(n: int, omega: float = 1.0) -> list:
    return [(i, j, omega) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


@st.composite
def complete_cases(draw):
    """n in 2..80, a MinPower rule, a unit or other common weight, a density-like
    x with ties, exact zeros and entries down to -1e-9, and three vectors with ties."""
    n = draw(st.integers(2, 80))
    alpha = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    omega = draw(st.sampled_from([1.0]) | st.floats(0.01, 10.0))
    entry = st.sampled_from([0.0, -1e-9, -1e-10, 0.1, 0.25, 0.5]) | st.floats(-1e-9, 1.0)
    x = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    value = st.sampled_from([0.0, 1.0, -0.5]) | st.floats(-3.0, 3.0)
    S, g, xi = (np.array(draw(st.lists(value, min_size=n, max_size=n))) for _ in range(3))
    return n, gs.MinPower(alpha), omega, x, S, g, xi


def assert_agree(got, want, scale):
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))
    finite = np.isfinite(want)
    np.testing.assert_allclose(got[finite], want[finite], rtol=0.0, atol=REL_TOL * scale)


@settings(max_examples=300, deadline=None)
@given(case=complete_cases())
def test_sorted_operators_match_the_edge_list(case):
    n, rule, omega, x, S, g, xi = case
    fast, ref = CompleteGraph(n, omega), edge_list(n, omega)
    big = lambda *v: max(float(np.max(np.abs(u))) for u in v) or 1.0
    dphi = rule.dphi(x)
    # Scale: the number of terms in a sum times the largest weight and the
    # largest factors; E sums over n^2 ordered pairs.
    theta = n * omega * max(float(np.max(rule.phi(x))), 1e-300)
    slope = n * omega * max(float(np.max(dphi[np.isfinite(dphi)], initial=0.0)), 1e-300)
    with np.errstate(invalid="ignore"):
        assert_agree(fast.flux(rule, x, S), ref.flux(rule, x, S), theta * big(S))
        for got, want, scale in zip(
            fast.second_order_terms(rule, x, S, g), ref.second_order_terms(rule, x, S, g),
            (theta * big(S), slope * 4 * big(S, g) ** 2, theta * big(g)),
        ):
            assert_agree(got, want, scale)
        # The Hopf-Cole field at (xi, xi*) = (xi, g) is the second-order sums at
        # S' = xi - g and g' = xi + g: K(g' - S', g' + S') / 4 and (kappa / 2) F.
        y, S2, g2 = np.concatenate([x, xi, g]), xi - g, xi + g
        hopf_cole = slope * big(S2, g2) ** 2 + KAPPA * theta * big(S2, g2)
        for got, want, scale in zip(
            np.split(hopf_cole_field(fast, rule, POT)(y), 3),
            np.split(hopf_cole_field(ref, rule, POT)(y), 3),
            (theta * big(S2), hopf_cole, hopf_cole),
        ):
            assert_agree(got, want, scale)
        assert_agree(fast.pair_energy(rule, x, S, g), ref.pair_energy(rule, x, S, g),
                     n * theta * 4 * big(S, g) ** 2)
    assert fast.slope_is_finite(rule, x) == ref.slope_is_finite(rule, x)


def test_a_large_common_offset_costs_no_accuracy():
    # The operators see differences only; an offset of 1e8 must not widen the
    # agreement beyond the scale of the spread.
    n, rule = 60, gs.MinPower(2.0)
    rng = np.random.default_rng(11)
    x = rng.dirichlet(np.full(n, 5.0))
    S, g = 1e8 + rng.normal(size=n), -1e8 + rng.normal(size=n)
    fast, ref = CompleteGraph(n), edge_list(n)
    spread = n * float(np.max(rule.phi(x))) * 8.0
    assert_agree(fast.flux(rule, x, S), ref.flux(rule, x, S), spread)
    for got, want in zip(fast.second_order_terms(rule, x, S, g), ref.second_order_terms(rule, x, S, g)):
        assert_agree(got, want, spread * n * 64.0)
    assert_agree(fast.pair_energy(rule, x, S, g), ref.pair_energy(rule, x, S, g), spread * n * 64.0)


def test_other_rules_use_the_edge_list():
    n, rule = 9, gs.ArithmeticMean()
    x = np.linspace(0.0, 0.2, n)
    S = np.cos(np.arange(n))
    fast, ref = CompleteGraph(n, 2.0), edge_list(n, 2.0)
    np.testing.assert_array_equal(fast.flux(rule, x, S), ref.flux(rule, x, S))
    for got, want in zip(fast.second_order_terms(rule, x, S, -x), ref.second_order_terms(rule, x, S, -x)):
        np.testing.assert_array_equal(got, want)
    assert fast.pair_energy(rule, x, S, -x) == ref.pair_energy(rule, x, S, -x)


def test_xi_zero_stays_exactly_zero_on_the_sorted_path():
    n, pot = SORTED_MIN_N, gs.KuramotoQuadratic(1.0)
    rho = np.random.default_rng(4).dirichlet(np.full(n, 5.0))
    hc0 = gs.HopfColeState(rho, np.zeros(n), pot.grad(rho))
    traj = gs.simulate_hopf_cole(gs.complete_graph(n), gs.MinPower(2.0), pot, hc0,
                                 gs.IntegratorSpec(dt=0.01, t_final=0.2))
    assert np.all(traj.states[:, n : 2 * n] == 0.0)


def test_degenerate_slope_refused_on_the_sorted_path():
    rule, pot = gs.MinPower(0.5), gs.KuramotoQuadratic(1.0)
    for g in (CompleteGraph(12), gs.complete_graph(SORTED_MIN_N)):
        rho = np.full(g.n, 1.0 / (g.n - 1))
        rho[3] = 0.0
        state = gs.PhaseState(rho, np.linspace(-1.0, 1.0, g.n))
        with pytest.raises(DegenerateDerivativeError):
            gs.rhs_second_order(g, rule, pot, state)
        with pytest.raises(DegenerateDerivativeError):
            gs.rhs_hopf_cole(g, rule, pot, gs.to_hopf_cole(state, pot))
    # A zero that is the strict maximum of x reaches no vertex: no refusal.
    assert CompleteGraph(3).slope_is_finite(rule, np.array([-1e-10, 0.0, -1e-10]))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(2, 80), alpha=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
       omega=st.sampled_from([0.0, 1.0, 1.5, 2.5]))
# A tie near overflow: omega (phi'/2) on each end is finite, omega phi' is not.
@example(data=None, n=2, alpha=2.0, omega=1.5)
def test_slope_verdict_matches_the_edge_list_without_a_sort(data, n, alpha, omega):
    if data is None:
        x = np.array([6e307, 6e307])
    else:
        entry = (st.sampled_from([0.0, -0.0, -1e-10, 0.1, 0.5, 6e307, 1e308])
                 | st.floats(-1e-9, 1.0) | st.floats(4e307, 1.5e308))
        x = np.array(data.draw(st.lists(entry, min_size=n, max_size=n)))
        if data.draw(st.booleans()):  # a tie at the maximum
            x[data.draw(st.integers(0, n - 1))] = np.max(x)
    rule, graph, ref = gs.MinPower(alpha), CompleteGraph(n, omega), edge_list(n, omega)
    with np.errstate(over="ignore"):
        want = ref.slope_is_finite(rule, x)
        with pytest.MonkeyPatch.context() as no_sort:
            no_sort.setattr(np, "argsort", None)  # a sort would fail here
            assert graph.slope_is_finite(rule, x) == want


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(2, 12), alpha=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
       omega=st.sampled_from([0.0, 1.0, 2.5]))
@example(data=None, n=3, alpha=0.5, omega=1.0)  # (0.0, -1e-10, NaN): the zero's edge to NaN
def test_slope_verdict_matches_the_edge_list_with_nan_entries(data, n, alpha, omega):
    # An edge with a NaN end has slope 0, so the NaN entries leave the strict-maximum rule.
    if data is None:
        x = np.array([0.0, -1e-10, np.nan])
    else:
        entry = st.sampled_from([0.0, -0.0, -1e-10, 0.1, 0.5, np.nan, np.inf, -np.inf])
        x = np.array(data.draw(st.lists(entry | st.floats(-1e-9, 1.0), min_size=n, max_size=n)))
        x[data.draw(st.integers(0, n - 1))] = np.nan
        if data.draw(st.booleans()):  # a tie at the largest entry that is not NaN
            x[data.draw(st.integers(0, n - 1))] = np.nanmax(x) if not np.isnan(x).all() else 0.0
    rule = gs.MinPower(alpha)
    with np.errstate(all="ignore"):
        assert CompleteGraph(n, omega).slope_is_finite(rule, x) == edge_list(n, omega).slope_is_finite(
            rule, x)


#: How many vectors each graph operator takes after the rule, x first.
OPERATOR_VECTORS = {"flux": 2, "second_order_terms": 3, "pair_energy": 3, "slope_is_finite": 1}

#: x, then u or S, then g, as lists.
LISTS = ([0.4, 0.3, 0.2, 0.1], [0.1, -0.2, 0.3, 0.05], [0.7, 0.1, -0.4, 0.2])


@pytest.mark.parametrize("rule", [gs.MinPower(2.0), gs.MinPower(3.0), gs.ArithmeticMean()], ids=repr)
@pytest.mark.parametrize("operator", list(OPERATOR_VECTORS))
@pytest.mark.parametrize("make", [CompleteGraph, edge_list], ids=["sorted", "edge_list"])
def test_every_operator_takes_a_list_as_its_array(make, operator, rule):
    call, vectors = getattr(make(4), operator), LISTS[: OPERATOR_VECTORS[operator]]
    want, got = call(rule, *map(np.array, vectors)), call(rule, *vectors)
    assert type(got) is type(want)
    if type(want) is tuple:
        assert all(type(v) is np.ndarray for v in got) and all(map(same_bits, got, want))
    else:
        assert same_bits(got, want)


@pytest.mark.parametrize("rule", [gs.MinPower(2.0), gs.ArithmeticMean()], ids=repr)
@pytest.mark.parametrize("make", [CompleteGraph, edge_list], ids=["sorted", "edge_list"])
def test_every_field_and_rhs_takes_a_list_as_its_array(make, rule):
    graph, (x, S, g) = make(4), LISTS
    for factory, y in [(first_order_field, x), (second_order_field, x + S),
                       (hopf_cole_field, x + S + g)]:
        model = KAPPA if factory is first_order_field else POT
        got = factory(graph, rule, model)(y)
        assert type(got) is np.ndarray and same_bits(got, factory(graph, rule, model)(np.array(y)))
    assert same_bits(gs.rhs_first_order(graph, rule, KAPPA, x),
                     first_order_field(graph, rule, KAPPA)(np.array(x)))
    for rhs, state in [(gs.rhs_second_order, gs.PhaseState(x, S)),
                       (gs.rhs_hopf_cole, gs.HopfColeState(x, S, g))]:
        assert all(type(v) is np.ndarray for v in rhs(graph, rule, POT, state))


@pytest.mark.parametrize("helper", ["second", "hopf_cole"])
def test_a_one_shot_rhs_on_the_sorted_path_sorts_once(helper, monkeypatch):
    n, rule = 64, gs.MinPower(2.0)
    graph, rho = gs.complete_graph(n), np.random.default_rng(8).dirichlet(np.full(n, 5.0))
    state = gs.gradient_flow_init(rho, POT)
    sorts, argsort = [], np.argsort

    def counted(*args, **kwargs):
        sorts.append(args)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    if helper == "second":
        gs.rhs_second_order(graph, rule, POT, state)
    else:
        gs.rhs_hopf_cole(graph, rule, POT, gs.to_hopf_cole(state, POT))
    assert len(sorts) == 1


def test_nonfinite_state_on_the_sorted_path_keeps_its_partial_trajectory():
    # MinPower(0.5) has an infinite slope at the zero vertex, so the first
    # second-order step is not finite; the start is the one record.
    n, rule, pot = 10, gs.MinPower(0.5), gs.KuramotoQuadratic(1.0)
    rho = np.full(n, 1.0 / (n - 1))
    rho[0] = 0.0
    state = gs.PhaseState(rho, np.linspace(-1.0, 1.0, n))
    spec = gs.IntegratorSpec(dt=0.01, t_final=0.1)
    trajectories = []
    for g in (CompleteGraph(n), edge_list(n)):
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteStateError) as info:
            gs.simulate_second_order(g, rule, pot, state, spec)
        traj = info.value.trajectory
        assert traj.stop_reason == "nonfinite"
        assert traj.times.tolist() == [0.0]
        trajectories.append(traj)
    np.testing.assert_array_equal(trajectories[0].states, trajectories[1].states)


# ---------------------------------------------------------------------------
# The implicit complete graph keeps the Graph contract.
# ---------------------------------------------------------------------------


def test_complete_graph_picks_the_sorted_backend_from_the_crossover_up():
    assert type(gs.complete_graph(SORTED_MIN_N - 1)) is Graph
    assert type(gs.complete_graph(SORTED_MIN_N)) is CompleteGraph
    for n in (SORTED_MIN_N - 1, SORTED_MIN_N):
        assert gs.complete_graph(n) == gs.build_graph(n, all_pairs(n))


def test_build_graph_recognises_a_uniform_complete_graph():
    n = SORTED_MIN_N
    g = gs.build_graph(n, all_pairs(n, 2.5))
    assert type(g) is CompleteGraph and g.omega == 2.5
    assert g == edge_list(n, 2.5)
    uneven = all_pairs(n, 2.5)
    uneven[0] = (1, 2, 1.0)
    assert type(gs.build_graph(n, uneven)) is Graph
    assert type(gs.build_graph(n, all_pairs(n)[1:])) is Graph


def test_edge_arrays_are_built_on_first_read():
    n = SORTED_MIN_N
    g, ref = gs.complete_graph(n), edge_list(n)
    assert g.edge_count == n * (n - 1) // 2
    assert repr(g) == f"CompleteGraph(n={n}, omega=1.0)"
    assert "tail" not in vars(g)
    assert len(g.tail) == 2 * g.edge_count
    for name in ("edges", "weights", "tail", "head", "pair_weight"):
        np.testing.assert_array_equal(getattr(g, name), getattr(ref, name))
    with pytest.raises(ValueError):
        g.edges[0, 0] = 2
    assert g.neighbors(3) == tuple(j for j in range(1, n + 1) if j != 3)
    assert g.degree(1) == n - 1
    assert gs.graph_from_json(g.to_json()) == g
    rho = np.zeros(n)
    rho[0] = 1.0
    verdicts = edge_dichotomy_report(g, rho)
    assert len(verdicts) == g.edge_count and all(v.verdict == "MinVanishes" for v in verdicts)


def test_large_complete_graph_allocates_no_edges():
    tracemalloc.start()
    try:
        g = gs.complete_graph(4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert g.edge_count == 4096 * 4095 // 2
    assert not {"edges", "weights", "tail", "head", "pair_weight"} & set(vars(g))


@pytest.mark.parametrize("n, omega", [
    (1, 1.0), (2.5, 1.0), (4, -1.0), (4, float("inf")), (4, float("nan")), (True, 1.0), ("4", 1.0),
    (None, 1.0), (float("inf"), 1.0), (np.float64(1.0), 1.0), (4, True), (4, "1"), (4, -float("inf")),
    (4, -5e-324),
])
def test_complete_graph_refuses_bad_input(n, omega):
    with pytest.raises(GraphConstructionError):
        CompleteGraph(n, omega)
    if n == 4 and omega in (-1.0, -5e-324):  # finite and below zero
        with pytest.raises(NegativeWeightError):
            CompleteGraph(n, omega)


# ---------------------------------------------------------------------------
# A run holds its rank order and the graph keeps none; no bit moves.
# ---------------------------------------------------------------------------


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def sorted_operators(graph, rule, x, S, g, xi):
    """Every sorted operator, in the order a flow and its observers call them."""
    return (graph.flux(rule, x, S), *graph.second_order_terms(rule, x, S, g),
            hopf_cole_field(graph, rule, POT)(np.concatenate([x, xi, g])),
            graph.pair_energy(rule, x, S, g), graph.slope_is_finite(rule, x))


def test_reused_ranks_give_the_bits_of_a_fresh_sort(monkeypatch):
    n, rule = 64, gs.MinPower(2.0)
    rng = np.random.default_rng(14)
    base = rng.dirichlet(np.full(n, 5.0))
    order = np.argsort(base)
    if order[0] < order[1]:  # the least two in falling index order, so that a tie between
        base[order[:2]] = base[order[1::-1]]  # them is ranked against the held order
        order = np.argsort(base)
    near = base + 1e-12 * rng.normal(size=n)           # most likely the same ranks
    swapped = base.copy()                               # two neighbouring ranks trade places
    swapped[order[[10, 11]]] = swapped[order[[11, 10]]]
    tied = base.copy()                                  # exact ties, one among the least two
    tied[order[[0, 20]]] = tied[order[[1, 21]]]
    signed_zero, with_nan = base.copy(), base.copy()  # 0.0 ties -0.0; NaN compares false
    signed_zero[:2] = 0.0, -0.0
    with_nan[7] = np.nan
    other = rng.dirichlet(np.full(n, 2.0))
    states = [base, near, base, tied, tied, swapped, swapped, signed_zero, with_nan, base,
              other, base, other, other, base]  # the last five interleave two states
    graph, kept, frames, rank_order = CompleteGraph(n, 1.5), 0, [], graphs._rank_order

    def noted(x, order=None):  # each frame a held operator takes, and whether it kept its last
        frame = rank_order(x, order)
        frames.append(frame is order)
        return frame

    monkeypatch.setattr(graphs, "_rank_order", noted)
    flux, terms, energy = (graph.held(op, rule) for op in ("flux", "second_order_terms",
                                                            "pair_energy"))
    hopf_cole = hopf_cole_field(graph, rule, POT)
    with np.errstate(invalid="ignore"):
        for x in states:
            S, g, xi = rng.normal(size=(3, n))
            frames.clear()
            got = (flux(x, S), *terms(x, S, g), hopf_cole(np.concatenate([x, xi, g])),
                   energy(x, S, g), graph.slope_is_finite(rule, x))
            assert frames == [frames[0]] * 4  # the four held operators see the same ranks
            kept += frames[0]
            with monkeypatch.context() as fresh:  # no held order, and every tie group searched for
                fresh.setattr(graphs, "_increasing", lambda xr: False)
                want = sorted_operators(CompleteGraph(n, 1.5), rule, x, S, g, xi)
            assert all(map(same_bits, got, want))
    assert 0 < kept < len(states)


@pytest.mark.parametrize("make", [CompleteGraph, edge_list], ids=["sorted", "edge_list"])
def test_runs_and_operator_calls_leave_the_graph_as_it_was(make):
    n, rule = 64, gs.MinPower(2.0)
    rho = np.random.default_rng(5).dirichlet(np.full(n, 5.0))
    phase = gs.gradient_flow_init(rho, POT)
    split, spec = gs.to_hopf_cole(phase, POT), gs.IntegratorSpec(dt=0.01, t_final=0.03)
    graph = make(n)
    before = dict(vars(graph))
    gs.simulate_first_order(graph, rule, KAPPA, rho, spec)
    gs.simulate_second_order(graph, rule, POT, phase, spec)
    gs.simulate_hopf_cole(graph, rule, POT, split, spec)
    gs.rhs_first_order(graph, rule, KAPPA, rho)
    gs.rhs_second_order(graph, rule, POT, phase)
    gs.rhs_hopf_cole(graph, rule, POT, split)
    gs.hamiltonian(graph, rule, POT, phase)
    assert vars(graph).keys() == before.keys()
    assert all(vars(graph)[name] is value for name, value in before.items())


def test_interleaved_runs_on_one_sorted_graph_give_the_bits_of_separate_graphs():
    # At each record a second-order run starts a first-order run from its density.
    n, rule = 64, gs.MinPower(2.0)
    rng = np.random.default_rng(21)
    phase = gs.PhaseState(rng.dirichlet(np.full(n, 5.0)), 0.05 * rng.normal(size=n))
    spec = gs.IntegratorSpec(dt=0.01, t_final=0.05)

    def runs(second_graph, first_graph):
        firsts = []

        def start_a_first_order_run(state):
            firsts.append(gs.simulate_first_order(first_graph(), rule, KAPPA, state.rho, spec))
            return False

        second = gs.simulate_second_order(second_graph, rule, POT, phase, spec,
                                          stop_when=start_a_first_order_run)
        return [second, *firsts]

    shared = CompleteGraph(n)
    together = runs(shared, lambda: shared)
    apart = runs(CompleteGraph(n), lambda: CompleteGraph(n))
    assert len(together) == len(apart) > 2
    for got, want in zip(together, apart):
        assert same_bits(got.states, want.states)
        assert got.diagnostics.keys() == want.diagnostics.keys()
        for name, series in want.diagnostics.items():
            assert same_bits(got.diagnostics[name], series)


def test_a_frame_that_x_has_left_gives_the_frozen_side_formula():
    # theta_ij = phi(x at the end of i, j ranked lower in the frame), whatever x's own order.
    n, rule, graph = 60, gs.MinPower(2.0), CompleteGraph(60)
    rng = np.random.default_rng(17)
    x0 = rng.dirichlet(np.full(n, 5.0))
    frame = np.argsort(x0, kind="stable")
    x = x0 + rng.normal(0.0, 2e-3, size=n)
    assert not graphs._increasing(x[frame])
    S, g = rng.normal(size=(2, n))
    rank = np.empty(n, dtype=int)
    rank[frame] = np.arange(n)
    theta = rule.phi(np.where(rank[:, None] < rank[None, :], x[:, None], x[None, :]))
    dS, dg = S[:, None] - S[None, :], g[:, None] - g[None, :]
    # The scale rule of test_sorted_operators_match_the_edge_list.
    scale = n * float(np.max(rule.phi(x)))
    big = lambda *v: max(float(np.max(np.abs(u))) for u in v)
    assert_agree(graph._flux(rule, x, S, frame), np.sum(theta * dS, axis=1), scale * big(S))
    assert_agree(graph._pair_energy(rule, x, S, g, frame), np.sum(theta * (dS**2 - dg**2)),
                 n * scale * 4 * big(S, g) ** 2)


@pytest.mark.parametrize("dynamics", ["first", "second"])
def test_complete_1024_runs_keep_their_bits_without_the_hint(dynamics, monkeypatch):
    n, rule, pot = 1024, gs.MinPower(2.0), gs.KuramotoQuadratic(1.0)
    rho = np.random.default_rng(9973).dirichlet(np.full(n, 5.0))
    spec = gs.IntegratorSpec(dt=0.01, t_final=0.04)

    def run():
        graph = gs.complete_graph(n)
        if dynamics == "first":
            return gs.simulate_first_order(graph, rule, 1.0, rho, spec)
        return gs.simulate_second_order(graph, rule, pot, gs.gradient_flow_init(rho, pot), spec)

    hinted = run()
    # Nothing is increasing any more: every rank is sorted afresh and every
    # tie group searched for, as before the order was reused.
    monkeypatch.setattr(graphs, "_increasing", lambda xr: False)
    fresh = run()
    assert same_bits(hinted.states, fresh.states)
    for name, series in fresh.diagnostics.items():
        assert same_bits(hinted.diagnostics[name], series)
