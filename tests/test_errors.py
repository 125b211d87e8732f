import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

import graphsync as gs
from graphsync.analysis import edge_dichotomy_report
from graphsync.errors import (
    DimensionError, DomainError, GraphConstructionError, GraphSyncError, NegativeWeightError,
    SimplexViolationError, document, real, vector,
)
from graphsync.experiments import REPRODUCE_TARGETS, ExperimentConfig


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


class _ThetaOnlyRule:
    """A rule with theta and nothing else."""

    theta = staticmethod(gs.MinPower(2.0).theta)


@pytest.mark.parametrize("flow, rule, missing", [
    ("first", "x", "theta"),
    ("second", "x", "theta, theta_and_slope"),
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
