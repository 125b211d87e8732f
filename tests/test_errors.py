import math
import re
import sys
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

import graphsync as gs
from graphsync.analysis import edge_dichotomy_report
from graphsync.errors import (
    DimensionError, DomainError, GraphConstructionError, GraphSyncError, NegativeWeightError,
    SimplexViolationError, document, real, reals, vector,
)
from graphsync.experiments import REPRODUCE_TARGETS, ExperimentConfig
from graphsync.quadrature import adaptive_simpson


def in_unit(v) -> bool:
    return 0 <= v <= 1


@pytest.mark.parametrize("value", [0, 1, 0.5, np.float64(0.5), np.int64(1), Fraction(1, 2)])
def test_real_hands_back_an_admitted_number_as_it_is(value):
    assert real(value, "r", "in [0, 1]", in_unit) is value


@pytest.mark.parametrize(
    "value", [True, False, np.bool_(True), "0.5", None, [0.5], 0.5j, math.nan, math.inf, 1.5, -5e-324],
)
def test_real_refuses_a_bool_a_non_number_and_what_the_predicate_refuses(value):
    with pytest.raises(DomainError, match=re.escape(f"r must be in [0, 1], got {value!r}")):
        real(value, "r", "in [0, 1]", in_unit)


def test_real_raises_the_error_it_is_given():
    with pytest.raises(NegativeWeightError):
        real(-1.0, "omega", ">= 0", lambda w: w >= 0, NegativeWeightError)



def test_document_hands_back_a_mapping_with_its_keys():
    doc = {"kind": "x", "a": 1}
    assert document(doc, "a thing", ("kind",), ("a", "b")) is doc
    assert document({}, "a thing") == {}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"kind": "x", "c": 1}, "a thing has unknown keys ['c']"),
        ({"a": 1}, "a thing has missing keys ['kind']"),
        ({"a": 1, "kidn": "x"}, "a thing has unknown keys ['kidn'] and missing keys ['kind']"),
        (["kind", "x"], "a thing must be a mapping, got ['kind', 'x']"),
        (None, "a thing must be a mapping, got None"),
    ],
)
def test_document_refuses_unknown_and_missing_keys_and_a_non_mapping(doc, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        document(doc, "a thing", ("kind",), ("a", "b"))
    with pytest.raises(GraphConstructionError, match=re.escape(message)):
        document(doc, "a thing", ("kind",), ("a", "b"), GraphConstructionError)


_K4, _RULE, _KAPPA = gs.complete_graph(4), gs.MinPower(1.0), gs.KuramotoQuadratic(1.0)
_SPEC = gs.IntegratorSpec(dt=0.1, t_final=0.2)
_FIG1 = REPRODUCE_TARGETS["fig1"].to_dict()  # on complete(4)
_FLAT = [0.25] * 4
_NONFINITE = ("nan", "inf", "-inf")

#: Each vector entry point: the call on the bad input, its length n (None where it reads any
#: length >= 2), the name its message gives the input, its error class, the classes that
#: differ by case, and the cases it skips (a wrong length where it reads any length, a
#: single number where that stands for r).
VECTOR_ENTRIES = {
    "errors.vector": (lambda v: vector(v, "v", 4), 4, "v", DomainError, {}, ()),
    "density_state": (gs.density_state, None, "density", DimensionError,
                      dict.fromkeys(_NONFINITE, SimplexViolationError), ()),
    "gradient_flow_init": (lambda v: gs.gradient_flow_init(v, _KAPPA), None, "density",
                           DimensionError, dict.fromkeys(_NONFINITE, SimplexViolationError), ()),
    "rhs_first_order": (lambda v: gs.rhs_first_order(_K4, _RULE, 1.0, v), 4, "rho",
                        DimensionError, {}, ()),
    "max_gap": (gs.max_gap, None, "rho", DomainError, {"wrong-length": DimensionError}, ()),
    "classify_equilibrium": (gs.classify_equilibrium, 4, "rho", DomainError, {},
                             ("wrong-length",)),
    "simulate": (lambda v: gs.simulate_first_order(_K4, _RULE, 1.0, v, _SPEC), 4, "rho0",
                 DimensionError, {}, ()),
    "PhaseState": (lambda v: gs.PhaseState(_FLAT, v), 4, "S", DimensionError, {}, ()),
    "HopfColeState": (lambda v: gs.HopfColeState(_FLAT, [0.0] * 4, v), 4, "xi_star",
                      DomainError, {}, ()),
    "edge_dichotomy_report": (lambda v: edge_dichotomy_report(_K4, v), 4, "rho",
                              DimensionError, {}, ()),
    "two-node entropy": (gs.ShannonPotential().value, 2, "two-node density", DimensionError,
                         dict.fromkeys(_NONFINITE, DomainError),
                         ("one-string", "one-bool", "one-none", "one-nan")),
    "integrate": (lambda v: gs.integrate(lambda y: y, v, _SPEC), 4, "state0", DomainError, {},
                  ("wrong-length",)),
    "config initial data": (lambda v: ExperimentConfig.from_dict({**_FIG1, "rho0": v}), 4,
                            "rho0", DomainError, {}, ()),
    "config expect limit": (lambda v: ExperimentConfig.from_dict(
        {**_FIG1, "expect": {"limit": v}}), 4, "expect limit", DomainError, {}, ()),
    "closed_form_gap": (lambda v: gs.closed_form_gap(2.0, 1.0, 0.1, v), 4, "t", DomainError,
                        {}, ("wrong-length",)),
    "analytic_solution": (lambda v: gs.analytic_solution(
        gs.entropy_theta_fn(gs.ShannonPotential()), 0.3, 0.8, v), 4, "t", DomainError, {},
        ("wrong-length",)),
}

#: Each bad input, built for a length n (4 where n is None): first the vectors, then single
#: numbers.
VECTOR_CASES = {
    "string": lambda n: ["a"] + [0.25] * (n - 1),
    "bool": lambda n: [True] + [False] * (n - 1),
    "bool-and-float": lambda n: [True] + [0.5] * (n - 1),
    "none": lambda n: [None] + [0.25] * (n - 1),
    "nan": lambda n: [math.nan] + [0.25] * (n - 1),
    "inf": lambda n: [math.inf] + [0.25] * (n - 1),
    "-inf": lambda n: [0.25] * (n - 1) + [-math.inf],
    "2d-list": lambda n: [[0.25] * n],
    "2d-array": lambda n: np.full((2, n), 0.25),
    "ragged": lambda n: [[0.25], [0.25, 0.25]],
    "wrong-length": lambda n: [0.25] * (n + 1) if n else [1.0],
    "one-string": lambda n: "a",
    "one-bool": lambda n: True,
    "one-none": lambda n: None,
    "one-nan": lambda n: math.nan,
}


@pytest.mark.parametrize(
    "entry, case", [(entry, case) for entry, (*_, skip) in VECTOR_ENTRIES.items()
                    for case in VECTOR_CASES if case not in skip])
def test_a_bad_vector_raises_its_owners_error_naming_the_input(entry, case):
    # Never a bare numpy or Python error, and never a NaN passed through.
    call, n, name, error, by_case, _ = VECTOR_ENTRIES[entry]
    with pytest.raises(GraphSyncError) as info, np.errstate(invalid="ignore"):
        call(VECTOR_CASES[case](n if case == "wrong-length" else n or 4))
    assert type(info.value) is by_case.get(case, error)
    assert name in str(info.value)


_SIX, _SIXTY, _SQUARE = gs.named_graph("cycle6"), gs.complete_graph(60), gs.MinPower(2.0)
_OPERATOR_VECTORS = {"flux": 2, "second_order_terms": 3, "pair_energy": 3, "slope_is_finite": 1}
_RULES = (_SQUARE, gs.ArithmeticMean(), gs.EntropyInduced(gs.ShannonPotential()))


def _in_place(owner, method, good, k, *first):
    """``method`` of ``owner`` on ``first`` and then ``good``, with the input as ``good[k]``."""
    def call(bad):
        args = list(good)
        args[k] = bad
        return getattr(owner, method)(*first, *args)
    return call


#: Each entry point of real numbers, an operator's name or a weight rule: the call on the input
#: and the error it must raise.
REAL_ENTRIES = {
    **{f"{label}.{operator}[{k}]": (
        _in_place(graph, operator, [np.linspace(0.1, 0.9, graph.n)] * count, k, _SQUARE),
        DimensionError)
       for label, graph in (("cycle6", _SIX), ("complete(60)", _SIXTY))
       for operator, count in _OPERATOR_VECTORS.items() for k in range(count)},
    **{f"{type(rule).__name__}.{method}[{k}]": (_in_place(rule, method, [0.5, 0.5], k), DomainError)
       for rule in _RULES for method in ("theta", "partials", "theta_and_slope") for k in (0, 1)},
    "adaptive_simpson a": (lambda bad: adaptive_simpson(np.exp, bad, 2.0), DomainError),
    "adaptive_simpson b": (lambda bad: adaptive_simpson(np.exp, 0.0, bad), DomainError),
    "adaptive_simpson max_depth": (lambda bad: adaptive_simpson(np.exp, 0.0, 1.0, max_depth=bad),
                                   DomainError),
    "cycle6.held": (lambda bad: _SIX.held(bad, _SQUARE), DomainError),
    "complete(60).held": (lambda bad: _SIXTY.held(bad, _SQUARE), DomainError),
    "validate_rule": (gs.validate_rule, DomainError),
    "validate_rule grid_resolution": (partial(gs.validate_rule, _SQUARE), DomainError),
    "MinPower alpha": (lambda bad: gs.MinPower(bad).theta(0.5, 0.3), DomainError),
    "TwoPointState S": (partial(gs.TwoPointState, 0.5), DomainError),
    "simulate_first_order kappa": (
        lambda bad: gs.simulate_first_order(_K4, _RULE, bad, [0.4, 0.3, 0.2, 0.1], _SPEC),
        DomainError),
    "graph document edges": (lambda bad: gs.graph_from_json({"n": 3, "edges": bad}),
                             GraphConstructionError),
    "build_graph edges": (partial(gs.build_graph, 3), GraphConstructionError),
    "fit_rate transform": (lambda bad: gs.fit_rate(RUNS["first"](_SPEC), bad), DomainError),
}

#: What numpy or Python would read as a number or fail on with a bare error: an int beyond
#: the floats overflows where it is made one.
NOT_REALS = {"none": None, "bool": True, "string": "a", "ragged": [[0.25], [0.25, 0.25]],
             "huge": 10**400}


@pytest.mark.parametrize("case", NOT_REALS)
@pytest.mark.parametrize("entry", REAL_ENTRIES)
def test_an_input_that_is_no_real_number_raises_its_entrys_error(entry, case):
    # Never a value computed from it, and never a bare numpy or Python error.
    call, error = REAL_ENTRIES[entry]
    with pytest.raises(GraphSyncError) as info:
        call(NOT_REALS[case])
    assert type(info.value) is error


def test_vector_hands_back_a_float_vector():
    for value in ([1, 0.5], (np.int64(1), np.float32(0.5)), np.array([1, 2]), [Fraction(1, 2)] * 2):
        got = vector(value, "v")
        assert got.dtype == float and got.ndim == 1 and got.tolist() == [float(v) for v in value]
    array = np.array([0.5, 0.5])
    assert vector(array, "v", 2) is array  # no copy of an admitted float vector


#: One run of each graph flow and of the two-node flow, over a spec.
RUNS = {
    "first": lambda spec: gs.simulate_first_order(_K4, _RULE, 1.0, [0.4, 0.3, 0.2, 0.1], spec),
    "second": lambda spec: gs.simulate_second_order(
        _K4, gs.MinPower(2.0), _KAPPA, gs.PhaseState([0.4, 0.3, 0.2, 0.1], [0.1, 0.0, 0.0, -0.1]),
        spec),
    "hopf_cole": lambda spec: gs.simulate_hopf_cole(
        _K4, _RULE, _KAPPA, gs.HopfColeState(_FLAT, [0.0] * 4, _KAPPA.grad(_FLAT)), spec),
    "two_point": lambda spec: gs.simulate_two_point(
        gs.MinPower(2.0), 1.0, gs.TwoPointState(0.3, 0.1), spec),
}


@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS)
def test_a_run_admits_its_inputs_a_fixed_number_of_times(run, monkeypatch):
    # At entry, once per input: the per-step hooks and the observers admit nothing.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return vector(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("graphsync") and getattr(module, "vector", None) is vector:
            monkeypatch.setattr(module, "vector", counted)
    counts = []
    for steps in (10, 100):
        calls.clear()
        traj = run(gs.IntegratorSpec(dt=0.01, t_final=steps * 0.01))
        assert len(traj.times) == steps + 1
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


#: Runs on arrays: an edge list of more than FLOAT_MAX_N vertices, a non-stock alpha and a rule
#: that is no MinPower.
_ARRAY_RUNS = {"n=8": (gs.complete_graph(8), _SQUARE),
               "alpha=2.5": (_SIX, gs.MinPower(2.5)),
               "arithmetic_mean": (_SIX, gs.ArithmeticMean())}


@pytest.mark.parametrize("flow", ["first", "second", "hopf_cole"])
@pytest.mark.parametrize("case", _ARRAY_RUNS)
def test_an_array_runs_rule_and_operator_calls_admit_nothing_per_step(case, flow, monkeypatch):
    # The run admitted its state at entry; its held operators call the rules' private forms,
    # and its simplex check takes the density it admitted.  Only errors admits, at entry.
    graph, rule = _ARRAY_RUNS[case]
    assert not graph.on_floats(rule)
    calls = []

    def counted(caller, *args, **kwargs):
        calls.append(caller)
        return reals(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("graphsync.") and getattr(module, "reals", None) is reals:
            monkeypatch.setattr(module, "reals", partial(counted, name))
    rho0 = np.linspace(1.0, 2.0, graph.n) / np.add.reduce(np.linspace(1.0, 2.0, graph.n))
    phase = gs.gradient_flow_init(rho0, _KAPPA)
    run = {"first": lambda spec: gs.simulate_first_order(graph, rule, 1.0, rho0, spec),
           "second": lambda spec: gs.simulate_second_order(graph, rule, _KAPPA, phase, spec),
           "hopf_cole": lambda spec: gs.simulate_hopf_cole(
               graph, rule, _KAPPA, gs.to_hopf_cole(phase, _KAPPA), spec)}[flow]
    counts = []
    for steps in (10, 100):
        calls.clear()
        traj = run(gs.IntegratorSpec(dt=0.01, t_final=steps * 0.01))
        assert len(traj.times) == steps + 1
        counts.append(len(calls))
        assert set(calls) == {"graphsync.errors"}
    assert counts[0] == counts[1]


#: Each rule method and the quadrature on two inputs whose shapes, (2,) and (3,), do not
#: broadcast together.
_UNBROADCASTABLE = {
    **{f"{type(rule).__name__}.{method}": partial(getattr(rule, method), [0.1, 0.2], [0.1, 0.2, 0.3])
       for rule in _RULES[:2] for method in ("theta", "partials", "theta_and_slope")},
    "EntropyInduced.theta": partial(_RULES[2].theta, [0.4, 0.5], [0.6, 0.5, 0.4]),
    "adaptive_simpson": partial(adaptive_simpson, np.exp, [0.0, 1.0], [0.0, 1.0, 2.0]),
}


@pytest.mark.parametrize("entry", _UNBROADCASTABLE)
def test_two_inputs_whose_shapes_do_not_broadcast_together_are_a_dimension_error(entry):
    with pytest.raises(DimensionError, match=r"^a and b must have shapes that broadcast "
                                             r"together, got \(2,\) and \(3,\)$"):
        _UNBROADCASTABLE[entry]()


def test_two_inputs_whose_shapes_broadcast_together_are_admitted():
    assert _SQUARE.theta(0.5, [0.25, 0.5]).tolist() == [0.0625, 0.25]
    assert _SQUARE.theta([[0.25], [0.5]], [0.5, 1.0]).shape == (2, 2)
    assert adaptive_simpson(lambda x: x, [[0.0], [1.0]], [1.0, 2.0]).value.tolist() == [
        [0.5, 2.0], [0.0, 1.5]]


class _ThetaOnlyRule:
    """A rule with theta and nothing else."""

    theta = staticmethod(gs.MinPower(2.0).theta)


@pytest.mark.parametrize("flow, rule, missing", [
    ("first", "x", "theta"),
    ("second", "x", "theta_and_slope"),
    ("second", _ThetaOnlyRule(), "theta_and_slope"),
    ("hopf_cole", _ThetaOnlyRule(), "theta_and_slope"),
    ("two_point", "x", "theta_r, dtheta_r"),
    ("two_point", _ThetaOnlyRule(), "theta_r, dtheta_r"),
])
def test_a_run_refuses_a_rule_without_the_methods_its_flow_calls(flow, rule, missing):
    spec, rho = gs.IntegratorSpec(dt=0.01, t_final=0.1), [0.4, 0.3, 0.2, 0.1]
    run = {
        "first": lambda: gs.simulate_first_order(
            gs.named_graph("cycle6"), rule, 1.0, [1 / 6] * 6, spec),
        "second": lambda: gs.simulate_second_order(
            _K4, rule, _KAPPA, gs.PhaseState(rho, [0.1, 0.0, 0.0, -0.1]), spec),
        "hopf_cole": lambda: gs.simulate_hopf_cole(
            _K4, rule, _KAPPA, gs.HopfColeState(_FLAT, [0.0] * 4, _KAPPA.grad(_FLAT)), spec),
        "two_point": lambda: gs.simulate_two_point(rule, 1.0, gs.TwoPointState(0.3, 0.1), spec),
    }[flow]
    with pytest.raises(DomainError, match=f"needs a weight rule with {missing}, got") as info:
        run()
    assert info.value.trajectory is None  # refused at entry, before any step


def test_a_rule_with_theta_only_runs_the_first_order_flow():
    traj = gs.simulate_first_order(_K4, _ThetaOnlyRule(), 1.0, [0.4, 0.3, 0.2, 0.1],
                                   gs.IntegratorSpec(dt=0.01, t_final=0.1))
    assert traj.stop_reason == "t_final"


#: Each public entry that reaches a rule through a graph's kernel, on a graph: the call on a
#: rule, and whether it binds theta_and_slope, which a rule with theta only lacks.
_KERNEL_ENTRIES = {
    "flux": (lambda g, rule, x: g.flux(rule, x, x), False),
    "second_order_terms": (lambda g, rule, x: g.second_order_terms(rule, x, x, -x), True),
    "pair_energy": (lambda g, rule, x: g.pair_energy(rule, x, x, -x), False),
    "slope_is_finite": (lambda g, rule, x: g.slope_is_finite(rule, x), True),
    "held pair_energy": (lambda g, rule, x: g.held("pair_energy", rule), False),
    "held second_order_terms": (lambda g, rule, x: g.held("second_order_terms", rule), True),
    "rhs_first_order": (lambda g, rule, x: gs.rhs_first_order(g, rule, 1.0, x), False),
    "rhs_second_order": (lambda g, rule, x: gs.rhs_second_order(
        g, rule, _KAPPA, gs.PhaseState(x, 0.0 * x)), True),
    "rhs_hopf_cole": (lambda g, rule, x: gs.rhs_hopf_cole(
        g, rule, _KAPPA, gs.to_hopf_cole(gs.PhaseState(x, 0.0 * x), _KAPPA)), True),
    "hamiltonian": (lambda g, rule, x: gs.hamiltonian(
        g, rule, _KAPPA, gs.PhaseState(x, 0.0 * x)), False),
}


@pytest.mark.parametrize("rule", [None, _ThetaOnlyRule()], ids=["none", "theta-only"])
@pytest.mark.parametrize("graph", [_SIX, gs.complete_graph(50)], ids=["cycle6", "complete(50)"])
@pytest.mark.parametrize("entry", _KERNEL_ENTRIES)
def test_every_entry_refuses_a_non_rule_where_it_binds_the_rules_kernel(entry, graph, rule):
    # On either backend, a DomainError naming the method, never a bare AttributeError.
    call, binds_slope = _KERNEL_ENTRIES[entry]
    x = np.linspace(1.0, 2.0, graph.n)
    x /= np.add.reduce(x)
    if rule is not None and not binds_slope:
        call(graph, rule, x)  # theta is all it calls
        return
    missing = "theta_and_slope" if binds_slope else "theta"
    with pytest.raises(DomainError, match=f"needs a weight rule with {missing}, got"):
        call(graph, rule, x)


@pytest.mark.parametrize("rule", [None, _ThetaOnlyRule()], ids=["none", "theta-only"])
@pytest.mark.parametrize("entry, missing", [
    (lambda rule: gs.rhs_two_point(rule, 1.0, gs.TwoPointState(0.3, 0.1)), "theta_r, dtheta_r"),
    (lambda rule: gs.hamiltonian_two_point(rule, 1.0, gs.TwoPointState(0.3, 0.1)), "theta_r"),
], ids=["rhs_two_point", "hamiltonian_two_point"])
def test_the_two_node_entries_refuse_a_non_rule(entry, missing, rule):
    with pytest.raises(DomainError, match=f"needs a weight rule with {missing}, got"):
        entry(rule)
