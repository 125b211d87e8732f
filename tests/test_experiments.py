import copy
import json
import math
import pickle
import re

import numpy as np
import pytest

import graphsync.experiments as experiments
from graphsync.cli import main
from graphsync.graphs import graph_from_json, named_graph
from graphsync.potentials import potential_from_config
from graphsync.errors import (
    ConsistencyError,
    DomainError,
    GraphConstructionError,
    NonFiniteStateError,
    SimplexViolationError,
    UnknownGraphNameError,
)
from graphsync.experiments import (
    ExperimentConfig,
    REPRODUCE_TARGETS,
    _resolve_spec,
    check_expectations,
    is_synchronised,
    run_experiment,
)


def test_reproduce_targets_cover_the_benchmarks():
    assert set(REPRODUCE_TARGETS) == {
        "fig1", "fig2", "fig3", "ex4.1", "ex4.2", "ex4.3", "fig7", "fig8",
    }


def test_config_round_trip():
    cfg = REPRODUCE_TARGETS["ex4.2"]
    doc = cfg.to_dict()
    again = ExperimentConfig.from_dict(doc)
    assert again.to_dict() == doc


def test_unknown_config_keys_rejected():
    with pytest.raises(DomainError):
        ExperimentConfig.from_dict({"name": "x", "dynamics": "first", "graph": "cycle6",
                                    "theta": {}, "potential": {}, "rho0": [0.5, 0.5],
                                    "surprise": 1})
    # Missing required keys, and documents that are no mapping.
    for doc in ({"name": "x"}, None, [], "ex4.2"):
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict(doc)
    # A mistyped key in a nested document is refused too, not read as its default.
    with pytest.raises(DomainError, match=re.escape("unknown keys ['alpah']")):
        _config(theta={"kind": "min_power", "alpah": 3})
    with pytest.raises(DomainError, match=re.escape("unknown keys ['kapa']")):
        _config(potential={"kind": "kuramoto", "kapa": 5})


FIG1 = REPRODUCE_TARGETS["fig1"].to_dict()  # on complete(4)


def _config(**blocks):
    return ExperimentConfig.from_dict({**FIG1, **blocks})


# Each document's owner, the entry point that reads it, and its error class; then a
# mistyped key, a missing required key and a document that is no mapping, each with
# the text its refusal must hold.
_DOCUMENT_CASES = {
    "config": (ExperimentConfig.from_dict, DomainError, [
        ({**FIG1, "power_fitt": True}, "a config has unknown keys ['power_fitt']"),
        ({k: v for k, v in FIG1.items() if k != "rho0"}, "a config has missing keys ['rho0']"),
        (["fig1"], "a config must be a mapping")]),
    "graph": (graph_from_json, GraphConstructionError, [
        ({"n": 3, "edges": [[1, 2, 1.0]], "weigths": 1}, "unknown keys ['weigths']"),
        ({"n": 3}, "a graph document has missing keys ['edges']"),
        ('[3, [[1, 2, 1.0]]]', "a graph document must be a mapping")]),
    "graph-in-config": (lambda doc: _config(graph=doc), GraphConstructionError, [
        ({"n": 4, "edges": [[1, 2, 1.0]], "weigths": 1}, "unknown keys ['weigths']"),
        ({"edges": [[1, 2, 1.0]]}, "missing keys ['n']")]),
    "theta": (lambda doc: _config(theta=doc), DomainError, [
        ({"kidn": "min_power"}, "a weight rule config has missing keys ['kind']"),
        ("min_power", "a weight rule config must be a mapping")]),
    "theta-min_power": (lambda doc: _config(theta=doc), DomainError, [
        ({"kind": "min_power", "alpah": 3}, "'min_power' config has unknown keys ['alpah']")]),
    "theta-arithmetic_mean": (lambda doc: _config(theta=doc), DomainError, [
        ({"kind": "arithmetic_mean", "alpha": 2}, "unknown keys ['alpha']")]),
    "theta-entropy_induced": (lambda doc: _config(theta=doc), DomainError, [
        ({"kind": "entropy_induced", "potenital": {"kind": "shannon"}},
         "unknown keys ['potenital'] and missing keys ['potential']"),
        ({"kind": "entropy_induced"}, "missing keys ['potential']")]),
    "theta-potential": (lambda doc: _config(theta={"kind": "entropy_induced", "potential": doc}),
                        DomainError, [
        ({"kind": "tsallis", "Q": 2.0}, "'tsallis' config has unknown keys ['Q']"),
        ({"kind": "tsallis"}, "'tsallis' config has missing keys ['q']"),
        ("tsallis", "a potential config must be a mapping")]),
    "potential": (lambda doc: _config(potential=doc), DomainError, [
        ({"kidn": "kuramoto"}, "a potential config has missing keys ['kind']"),
        (["kuramoto"], "a potential config must be a mapping")]),
    "potential-kuramoto": (lambda doc: _config(potential=doc), DomainError, [
        ({"kind": "kuramoto", "kapa": 5}, "'kuramoto' config has unknown keys ['kapa']")]),
    "potential-shannon": (potential_from_config, DomainError, [
        ({"kind": "shannon", "alpha": 2.0}, "'shannon' config has unknown keys ['alpha']")]),
    "potential-renyi": (potential_from_config, DomainError, [
        ({"kind": "renyi", "alpah": 2.0}, "unknown keys ['alpah']"),
        ({"kind": "renyi"}, "'renyi' config has missing keys ['alpha']")]),
    "potential-tsallis": (potential_from_config, DomainError, [
        ({"kind": "tsallis", "qq": 2.0}, "unknown keys ['qq']"),
        ({"kind": "tsallis"}, "missing keys ['q']")]),
    "integrator": (lambda doc: _config(integrator=doc), DomainError, [
        ({"dtt": 0.1}, "an integrator config has unknown keys ['dtt']"),
        ([["dt", 0.1]], "an integrator config must be a mapping")]),
    "expect": (lambda doc: _config(expect=doc), DomainError, [
        ({"limits": [1.0, 0.0, 0.0, 0.0]}, "expect has unknown keys ['limits']"),
        (["synchronised"], "expect must be a mapping")]),
    "expect-fit": (lambda doc: _config(expect={"fit": doc}), DomainError, [
        ({"transform": "log_gap", "slope": -1}, "expect fit has unknown keys ['slope']"),
        ({"min_r_squared": 0.9}, "expect fit has missing keys ['transform']"),
        ("log_gap", "expect fit must be a mapping")]),
}


@pytest.mark.parametrize(
    "owner, doc, message",
    [(owner, doc, message) for owner, (_, _, cases) in _DOCUMENT_CASES.items()
     for doc, message in cases],
    ids=[f"{owner}-" + ("mistyped" if "unknown" in message else
                        "missing" if "missing" in message else "not-a-mapping")
         for owner, (_, _, cases) in _DOCUMENT_CASES.items() for _, message in cases],
)
def test_each_document_refuses_a_wrong_key_with_its_own_error(owner, doc, message):
    build, error, _ = _DOCUMENT_CASES[owner]
    with pytest.raises(error, match=re.escape(message)):
        build(doc)


def test_is_synchronised():
    assert is_synchronised(np.array([0.995, 0.002, 0.001, 0.001, 0.0005, 0.0005]))
    assert not is_synchronised(np.array([0.95, 0.05, 0.0, 0.0, 0.0, 0.0]))
    assert not is_synchronised(np.array([0.988, 0.012, 0.0, 0.0, 0.0, 0.0]))


def test_run_experiment_writes_artifacts_and_meets_expectation(tmp_path):
    summary = run_experiment(REPRODUCE_TARGETS["ex4.2"], tmp_path, check=True)
    assert summary["check_failures"] == []
    assert summary["schema"] == 1
    assert summary["limit"] is not None
    np.testing.assert_allclose(
        summary["limit"], [0.5274, 0.0, 0.0, 0.1958, 0.0, 0.2768], atol=1e-3
    )
    assert summary["equilibrium"]["support"] == [1, 4, 6]
    assert summary["dichotomy"]["violations"] == 0

    on_disk = json.loads((tmp_path / "ex4.2" / "summary.json").read_text())
    assert on_disk == summary
    header = (tmp_path / "ex4.2" / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,rho_1,rho_2,rho_3,rho_4,rho_5,rho_6,sum_sq,max_gap"


def test_run_experiment_check_failure_raises(tmp_path):
    cfg = ExperimentConfig(
        name="wrong-limit",
        dynamics="first",
        graph="complete(3)",
        theta={"kind": "min_power", "alpha": 1.0},
        potential={"kind": "kuramoto", "kappa": 1.0},
        rho0=(0.5, 0.3, 0.2),
        integrator={"dt": 0.01, "t_final": 50.0, "record_every": 10},
        expect={"limit": [0.0, 1.0, 0.0], "limit_tol": 1e-3},
    )
    with pytest.raises(DomainError):
        run_experiment(cfg, tmp_path, check=True)
    summary = json.loads((tmp_path / "wrong-limit" / "summary.json").read_text())
    assert summary["check_failures"]


def test_check_expectations_reports_fit_problems():
    cfg = REPRODUCE_TARGETS["fig1"]
    failures = check_expectations(cfg, {"rate_fits": {"log_gap": {"slope": 2.0, "r_squared": 0.5}}})
    assert len(failures) == 2


def _config(**kwargs) -> ExperimentConfig:
    doc = dict(name="x", dynamics="first", graph="complete(3)",
               theta={"kind": "min_power", "alpha": 1.0},
               potential={"kind": "kuramoto", "kappa": 1.0}, rho0=[0.5, 0.3, 0.2])
    doc.update(kwargs)
    return ExperimentConfig(**doc)


_SHORT = {"integrator": {"dt": 0.01, "t_final": 1.0, "record_every": 10}}
_SECOND_ON_SIX = dict(dynamics="second", graph="complete(6)", s0="gradflow",
                      rho0=[0.3, 0.2, 0.15, 0.15, 0.1, 0.1])

#: Short runs that miss their expect block: the config and the failure it names.
UNMET = {
    "no-limit": (dict(expect={"limit": [1.0, 0.0, 0.0]}), "trajectory did not converge to a limit"),
    "missing-fit": (dict(expect={"fit": {"transform": "log_gap"}}), "missing fit 'log_gap'"),
    "not-synchronised": (dict(_SECOND_ON_SIX, expect={"synchronised": True}),
                         "run did not reach a synchronised state"),
    "horizon": (dict(_SECOND_ON_SIX, expect={"synchronised": True}),
                "horizon reached before synchronisation"),
    # All three edges of complete(3) still carry unequal mass at t = 1.
    "dichotomy": (dict(dichotomy_tol=1e-3, expect={"max_dichotomy_violations": 0}),
                  "dichotomy violations: 3"),
    "no-dichotomy-report": (dict(expect={"max_dichotomy_violations": 0}),
                            "dichotomy violations: None"),
}


@pytest.mark.parametrize("kwargs, message", UNMET.values(), ids=UNMET)
def test_check_names_each_unmet_expectation(tmp_path, kwargs, message):
    cfg = _config(**_SHORT, **kwargs)
    assert message in run_experiment(cfg, tmp_path)["check_failures"]
    with pytest.raises(DomainError, match=re.escape(message)):
        run_experiment(cfg, tmp_path, check=True)
    summary = json.loads((tmp_path / "x" / "summary.json").read_text())
    assert message in summary["check_failures"]


def test_power_fit_goes_into_the_summary(tmp_path):
    cfg = _config(power_fit=True, integrator={"dt": 0.01, "t_final": 20.0, "record_every": 10})
    fit = run_experiment(cfg, tmp_path)["power_fit"]
    assert set(fit) == {"power", "r_squared", "window"}
    assert all(map(math.isfinite, [fit["power"], fit["r_squared"], *fit["window"]]))
    assert 0.0 < fit["window"][0] < fit["window"][1] <= 20.0


def test_config_normalises_initial_data():
    # Each initial-data field on the flow that reads it.
    cfg = _config(rho0=["0.5", 0.3, np.float64(0.2)], fits=["log_gap"])
    assert cfg.rho0 == (0.5, 0.3, 0.2) and all(type(v) is float for v in cfg.rho0)
    assert _config(dynamics="second", s0="gradflow").s0 == "gradflow"
    hc = _config(dynamics="hopf_cole", xi0=np.zeros(3), xistar0=[1, 2, 3])
    assert hc.xi0 == (0.0, 0.0, 0.0) and hc.xistar0 == (1.0, 2.0, 3.0)
    assert cfg.fits == ("log_gap",)
    assert _config(dynamics="hopf_cole", xi0="zero", xistar0="from-rho").xistar0 == "from-rho"


@pytest.mark.parametrize(
    "kwargs",
    [{"rho0": ["a", "b"]}, {"rho0": 0.5}, {"rho0": None}, {"rho0": "gradflow"},
     {"dynamics": "second", "s0": "zero"}, {"dynamics": "hopf_cole", "xi0": [0.1, None]},
     {"dynamics": "hopf_cole", "xistar0": "gradflow"},
     # A dynamics with no flow, a flow's required data missing, and data or a
     # stop_on_sync that the named flow does not read.
     {"dynamics": "fourth"}, {"dynamics": None}, {"dynamics": ["first"]}, {"dynamics": "second"},
     {"dynamics": "second", "s0": None}, {"s0": (1, 2, 3)}, {"s0": "gradflow"}, {"xi0": "zero"},
     {"xistar0": [0.0, 0.0, 0.0]}, {"dynamics": "second", "s0": "gradflow", "xi0": "zero"},
     {"dynamics": "hopf_cole", "s0": (0.1, 0.2, 0.3)}, {"stop_on_sync": True},
     {"dynamics": "hopf_cole", "stop_on_sync": True},
     # Initial data that are not finite, one row per block.
     {"rho0": ["nan", 0.5, 0.5]}, {"rho0": [math.inf, 0.0, 0.0]},
     {"dynamics": "second", "s0": [math.inf, 0.0, 0.0]},
     {"dynamics": "hopf_cole", "xi0": [0.0, -math.inf, 0.0]},
     {"dynamics": "hopf_cole", "xistar0": [0.1, math.nan, 0.1]},
     # Integrator, theta and potential documents that the run could not build.
     {"integrator": {"dt": -1}}, {"integrator": {"step": 0.1}}, {"integrator": None},
     {"integrator": {"dt": 5e-324, "t_final": 1.0}}, {"integrator": {"dt": 1e-300, "t_final": 1e300}},
     {"theta": {"kind": "nope"}}, {"theta": {"kind": "min_power", "alpha": "two"}},
     {"theta": None}, {"potential": {"kind": "nope"}}, {"potential": {"kind": "renyi"}},
     # A bool is no number, in any document.
     {"potential": {"kind": "kuramoto", "kappa": True}}, {"theta": {"kind": "min_power", "alpha": True}},
     {"integrator": {"dt": True}}, {"integrator": {"record_every": True}},
     {"rho0": [True, False, False]}, {"dynamics": "second", "s0": [0.0, True, 0.0]}],
)
def test_config_refuses_bad_initial_data(kwargs):
    with pytest.raises(DomainError):
        _config(**kwargs)


@pytest.mark.parametrize(
    "kwargs, error",
    [({"graph": 42}, UnknownGraphNameError), ({"graph": "no-such-graph"}, UnknownGraphNameError),
     ({"graph": "missing/graph.json"}, UnknownGraphNameError),
     ({"graph": {"n": 3}}, GraphConstructionError),
     # Initial data with other than one entry per vertex, one row per block.
     ({"rho0": [0.5, 0.5]}, DomainError), ({"rho0": [0.4, 0.3, 0.2, 0.1]}, DomainError),
     ({"dynamics": "second", "s0": [0.1, -0.1]}, DomainError),
     ({"dynamics": "hopf_cole", "xi0": [0.0, 0.0]}, DomainError),
     ({"dynamics": "hopf_cole", "xistar0": [0.1, 0.2, 0.3, 0.4]}, DomainError)],
    ids=["graph-int", "graph-unknown-name", "graph-missing-file", "graph-document", "rho0-short",
         "rho0-long", "s0-short", "xi0-short", "xistar0-long"],
)
def test_config_refuses_a_run_it_could_not_build(kwargs, error):
    # Refused where the config is built, before anything runs.
    with pytest.raises(error):
        _config(**kwargs)


@pytest.mark.parametrize(
    "name", [1, None, "", ".", "..", "a/b", "../escape", "a\\b", "a\0b", ["x"]],
    ids=["int", "none", "empty", "dot", "dotdot", "slash", "parent-path", "backslash", "nul",
         "list"],
)
def test_config_refuses_a_name_that_is_not_one_path_component(name):
    # Refused at from_dict, before run_experiment could join it onto out_dir.
    with pytest.raises(DomainError, match="name must be one path component"):
        ExperimentConfig.from_dict({**_config().to_dict(), "name": name})


@pytest.mark.parametrize("flag", ["stop_on_sync", "power_fit"])
@pytest.mark.parametrize("value", ["no", 0, 1, None, np.bool_(True)])
def test_config_flags_must_be_bools(flag, value):
    # stop_on_sync on the flow that reads it.
    base = {"dynamics": "second", "s0": "gradflow"} if flag == "stop_on_sync" else {}
    with pytest.raises(DomainError, match=f"{flag} must be a bool"):
        ExperimentConfig.from_dict({**_config(**base).to_dict(), flag: value})
    assert getattr(_config(**base, **{flag: True}), flag) is True


def test_to_dict_writes_required_and_non_default_fields():
    assert _config().to_dict() == {
        "name": "x", "dynamics": "first", "graph": "complete(3)",
        "theta": {"kind": "min_power", "alpha": 1.0},
        "potential": {"kind": "kuramoto", "kappa": 1.0}, "rho0": [0.5, 0.3, 0.2],
    }
    doc = _config(dynamics="second", s0=(0.1, 0.2, 0.3), integrator={"dt": 0.1}, stop_on_sync=True,
                  fits=("log_gap",), power_fit=True, dichotomy_tol=1e-3, expect={}).to_dict()
    assert doc["s0"] == [0.1, 0.2, 0.3] and doc["fits"] == ["log_gap"]
    assert doc["integrator"] == {"dt": 0.1} and doc["expect"] == {}
    assert doc["stop_on_sync"] is doc["power_fit"] is True and doc["dichotomy_tol"] == 1e-3
    assert ExperimentConfig.from_dict(doc) == _config(**doc)


def test_resolve_spec_leaves_checks_to_the_spec():
    spec = _resolve_spec({"dt": 0.1, "t_final": 2, "record_every": 3.0})
    assert spec == experiments.IntegratorSpec(dt=0.1, t_final=2.0, record_every=3)
    assert _resolve_spec({}) == experiments.IntegratorSpec()
    for bad in ({"record_every": 2.7}, {"dt": "0.1"}, {"dt_max": 0.1}):
        with pytest.raises(DomainError):
            _resolve_spec(bad)


def test_run_resolves_its_graph_once(tmp_path, monkeypatch):
    doc = {"n": 3, "edges": [[1, 2, 1.0], [2, 3, 1.0], [1, 3, 1.0]]}
    calls = []
    load = experiments.load_graph
    monkeypatch.setattr(experiments, "load_graph", lambda spec: calls.append(spec) or load(spec))
    kwargs = dict(integrator={"dt": 0.01, "t_final": 1.0, "record_every": 10}, dichotomy_tol=1e-3)
    configs = [_config(name="doc", graph=doc, **kwargs),
               _config(name="named", graph="complete(3)", **kwargs)]
    # Loaded when the config is built, from its read-only copy; a run loads nothing.
    assert calls == [configs[0].graph, "complete(3)"] and configs[0].to_dict()["graph"] == doc
    from_doc, named = (run_experiment(cfg, tmp_path) for cfg in configs)
    assert len(calls) == 2
    assert {k: v for k, v in from_doc.items() if k not in ("name", "config")} == {
        k: v for k, v in named.items() if k not in ("name", "config")}
    assert (tmp_path / "doc" / "trajectory.csv").read_bytes() == (
        tmp_path / "named" / "trajectory.csv").read_bytes()
    with pytest.raises(GraphConstructionError):
        run_experiment(_config(graph={"n": 3}), tmp_path)


def test_run_failing_in_the_loop_writes_its_partial_run(tmp_path):
    # The first step of this second-order run leaves the simplex beyond the hard tolerance.
    cfg = ExperimentConfig(
        name="leaves", dynamics="second", graph="complete(3)",
        theta={"kind": "min_power", "alpha": 0.5}, potential={"kind": "kuramoto", "kappa": 1.0},
        rho0=(0.98, 0.01, 0.01), s0=(5.0, -5.0, 0.0), integrator={"dt": 0.05, "t_final": 5.0},
    )
    with pytest.raises(SimplexViolationError) as info:
        run_experiment(cfg, tmp_path)
    summary = json.loads((tmp_path / "leaves" / "summary.json").read_text())
    assert summary["stop_reason"] == "SimplexViolationError"
    assert summary["error"] == str(info.value)
    assert summary["final_time"] == 0.0 and summary["final_density"] == [0.98, 0.01, 0.01]
    rows = (tmp_path / "leaves" / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[0].startswith("t,rho_1")
    # A one-record run cannot support fig1's rate fit: the trajectory is still
    # written, and the run's own error is the one raised.
    fig1 = experiments.REPRODUCE_TARGETS["fig1"]
    cfg = ExperimentConfig.from_dict({**fig1.to_dict(), "integrator": {"dt": 50.0, "t_final": 100.0}})
    with pytest.raises(SimplexViolationError):
        run_experiment(cfg, tmp_path)
    assert len((tmp_path / "fig1" / "trajectory.csv").read_text().splitlines()) == 2


def _failing(dynamics, alpha, rho0, dt, t_final, graph="complete(3)", **initial) -> ExperimentConfig:
    return _config(name="fails", dynamics=dynamics, graph=graph,
                   theta={"kind": "min_power", "alpha": alpha}, rho0=rho0,
                   integrator={"dt": dt, "t_final": t_final}, **initial)


#: Runs that fail inside the integration loop: the config, the error it
#: raises, and the records in its partial trajectory.
FAILING_RUNS = {
    "second-nonfinite": (
        _failing("second", 0.5, (0.5, 0.5, 0.0), 0.01, 1.0, s0=(0.1, -0.1, 0.0)),
        NonFiniteStateError, 1),
    "hopf-cole-nonfinite": (
        _failing("hopf_cole", 0.5, (0.5, 0.5, 0.0), 0.01, 1.0, xi0=(0.1, -0.1, 0.0)),
        NonFiniteStateError, 1),
    # Passes the 1e-6 entry check of xi + xi*, fails the 1e-8 check at the first record.
    "hopf-cole-first-record": (
        _failing("hopf_cole", 2.0, (0.5, 0.3, 0.2), 0.01, 1.0, xi0="zero",
                 xistar0=tuple(1e-7 - v for v in (0.5, 0.3, 0.2))),
        ConsistencyError, 0),
    "second-leaves-simplex": (
        _failing("second", 0.5, (0.98, 0.01, 0.01), 0.05, 5.0, s0=(5.0, -5.0, 0.0)),
        SimplexViolationError, 1),
    "first-leaves-simplex": (
        _failing("first", 1.0, (0.5, 0.3, 0.15, 0.05), 50.0, 100.0, graph="complete(4)"),
        SimplexViolationError, 1),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cfg, error, records", FAILING_RUNS.values(), ids=FAILING_RUNS)
def test_every_failing_run_raises_its_own_error_after_writing_the_partial_run(
        tmp_path, cfg, error, records):
    with pytest.raises(error) as info:
        run_experiment(cfg, tmp_path)
    assert type(info.value) is error and len(info.value.trajectory.times) == records
    rows = (tmp_path / "fails" / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 1 + records and rows[0].startswith("t,rho_1,")
    summary_path = tmp_path / "fails" / "summary.json"
    assert summary_path.exists() == (records > 0)
    if records:
        summary = json.loads(summary_path.read_text())
        assert summary["stop_reason"] == info.value.trajectory.stop_reason
        assert summary["error"] == str(info.value)


def _simulate_argv(cfg: ExperimentConfig, out) -> list[str]:
    """The simulate-* command line of ``cfg``; floats travel as their repr."""
    vector = lambda values: ",".join(map(repr, values))
    argv = ["simulate-" + cfg.dynamics.replace("_", "-"), "--graph", cfg.graph,
            f"--alpha={cfg.theta['alpha']!r}", f"--rho0={vector(cfg.rho0)}",
            f"--dt={cfg.integrator['dt']!r}", f"--t-final={cfg.integrator['t_final']!r}",
            "--out", str(out)]
    for key in ("s0", "xi0", "xistar0"):
        if isinstance(getattr(cfg, key), tuple):
            argv.append(f"--{key}={vector(getattr(cfg, key))}")
    return argv


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cfg, error, records", FAILING_RUNS.values(), ids=FAILING_RUNS)
def test_every_failing_simulate_exits_2_after_writing_the_partial_csv(
        tmp_path, capsys, cfg, error, records):
    with pytest.raises(error) as info:
        run_experiment(cfg, tmp_path)
    capsys.readouterr()
    assert main(_simulate_argv(cfg, tmp_path / "run.csv")) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {info.value}\n"
    assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "fails" / "trajectory.csv").read_bytes()


@pytest.mark.parametrize(
    "kwargs",
    [{"expect": {"fit": {}}}, {"expect": {"limit": "abc"}},
     {"expect": {"limit": [0.5, 0.3, 0.2], "limit_tol": "a"}}, {"expect": [1, 2]},
     {"dichotomy_tol": "x"}, {"dichotomy_tol": 1e-3, "expect": {"max_dichotomy_violations": "a"}},
     {"fits": "log_gap"}, {"fits": ["log"]}, {"expect": {"limit": [1.0, 0.0]}},
     {"expect": {"fit": {"transform": "log_gap", "min_r_squared": "high"}}},
     {"expect": {"limits": [0.5, 0.3, 0.2]}},
     # Checks that could never fail: NaN compares false, so `err > nan` passes any run.
     {"expect": {"limit": [0.5, 0.3, 0.2], "limit_tol": math.nan}},
     {"expect": {"limit": [0.5, 0.3, 0.2], "limit_tol": math.inf}},
     {"expect": {"limit": [0.5, 0.3, 0.2], "limit_tol": -1e-3}},
     {"expect": {"limit": [math.nan, 0.3, 0.2]}}, {"expect": {"limit": [math.inf, 0.0, 0.0]}},
     {"expect": {"fit": {"transform": "log_gap", "min_r_squared": math.nan}}},
     {"expect": {"fit": {"transform": "log_gap", "slope_sign": math.nan}}},
     {"expect": {"fit": {"transform": "log_gap", "slope_sign": 2}}},
     {"expect": {"fit": {"transform": "log_gap", "slope_sign": "-1"}}},
     {"dichotomy_tol": 1e-3, "expect": {"max_dichotomy_violations": math.nan}},
     {"dichotomy_tol": 1e-3, "expect": {"max_dichotomy_violations": -1}},
     {"dichotomy_tol": math.nan}, {"dichotomy_tol": math.inf}, {"dichotomy_tol": -1.0},
     {"expect": {"synchronised": "no"}},
     json.loads('{"expect": {"limit": [0.5, 0.3, 0.2], "limit_tol": NaN}}'),
     {"dichotomy_tol": True}, {"expect": {"limit": [True, False, False]}},
     {"expect": {"limit": [0.5, 0.3, 0.2], "limit_tol": True}},
     {"expect": {"fit": {"transform": "log_gap", "slope_sign": True}}},
     {"expect": {"fit": {"transform": "log_gap", "min_r_squared": False}}}],
    ids=["fit-empty", "limit-text", "limit-tol-text", "expect-list", "dichotomy-tol-text",
         "violations-text", "fits-text", "fits-unknown", "limit-length", "r-squared-text",
         "expect-unknown-key", "limit-tol-nan", "limit-tol-inf", "limit-tol-negative",
         "limit-nan", "limit-inf", "r-squared-nan", "slope-sign-nan", "slope-sign-2",
         "slope-sign-text", "violations-nan", "violations-negative", "dichotomy-tol-nan",
         "dichotomy-tol-inf", "dichotomy-tol-negative", "synchronised-text", "json-nan-literal",
         "dichotomy-tol-bool", "limit-bool", "limit-tol-bool", "slope-sign-bool", "r-squared-bool"],
)
def test_config_refuses_malformed_checks(kwargs):
    # Refused where the field enters, before anything runs.
    with pytest.raises(DomainError):
        ExperimentConfig.from_dict({**_config().to_dict(), **kwargs})


def test_config_documents_are_copied_in_and_out():
    # A config's documents are read-only copies; a to_dict is plain and may be edited,
    # and neither an edit of it nor of the document passed in reaches the config.
    stock = REPRODUCE_TARGETS["fig1"]
    cfg = ExperimentConfig.from_dict(stock.to_dict())
    with pytest.raises(TypeError):
        cfg.integrator["dt"] = -1
    with pytest.raises(TypeError):
        cfg.expect["fit"]["min_r_squared"] = 0.0
    doc = stock.to_dict()
    doc["theta"]["alpha"] = 9.0
    doc["potential"]["kappa"] = 9.0
    doc["expect"]["fit"]["slope_sign"] = 1
    assert stock.integrator["dt"] == 0.01 and stock.expect["fit"]["min_r_squared"] == 0.999
    assert stock.theta["alpha"] == 1.0 and stock.potential["kappa"] == 1.0
    assert stock.expect["fit"]["slope_sign"] == -1
    graph = {"n": 3, "edges": [[1, 2, 1.0], [2, 3, 1.0], [1, 3, 1.0]]}
    cfg = _config(graph=graph)
    graph["edges"].pop()
    assert len(cfg.graph["edges"]) == 3
    edges = cfg.graph["edges"]
    for target, key, value in ((cfg.graph, "edges", []), (cfg.graph, "n", 4),
                               (edges, 0, (1, 2, 5.0)), (edges[0], 2, 5.0)):
        with pytest.raises(TypeError):
            target[key] = value
    with pytest.raises(AttributeError):  # a tuple has no append
        edges.append((1, 2, 1.0))
    assert cfg.to_dict()["graph"] == {"n": 3, "edges": [[1, 2, 1.0], [2, 3, 1.0], [1, 3, 1.0]]}


def test_configs_copy_and_pickle_by_value():
    stock = REPRODUCE_TARGETS["fig7"]
    for again in (copy.copy(stock), copy.deepcopy(stock), pickle.loads(pickle.dumps(stock))):
        assert again == stock and again.to_dict() == stock.to_dict()


@pytest.mark.parametrize("name", sorted(REPRODUCE_TARGETS))
def test_stock_targets_round_trip_through_plain_documents(name):
    stock = REPRODUCE_TARGETS[name]
    doc = stock.to_dict()
    assert ExperimentConfig.from_dict(doc) == stock

    def plain(value):
        if isinstance(value, dict):
            return all(isinstance(k, str) and plain(v) for k, v in value.items())
        if isinstance(value, list):
            return all(map(plain, value))
        return isinstance(value, (str, int, float, bool))

    assert type(doc) is dict and plain(doc)
    assert json.loads(json.dumps(doc)) == doc


def test_config_with_a_path_graph_runs_end_to_end(tmp_path):
    # The path is kept as its str, so the summary's JSON holds it and round-trips.
    graph_file = tmp_path / "square.json"
    graph_file.write_text(named_graph("square4").to_json())
    cfg = _config(graph=graph_file, rho0=[0.4, 0.3, 0.2, 0.1], **_SHORT)
    assert cfg.graph == str(graph_file)
    summary = run_experiment(cfg, tmp_path / "out")
    written = json.loads((tmp_path / "out" / "x" / "summary.json").read_text())
    assert written == summary and written["config"]["graph"] == str(graph_file)
    assert ExperimentConfig.from_dict(written["config"]) == cfg


def test_a_summary_that_fails_to_serialise_leaves_no_summary_file(tmp_path, monkeypatch):
    real_summarise = experiments.summarise
    monkeypatch.setattr(experiments, "summarise",
                        lambda *args: {**real_summarise(*args), "bad": object()})
    with pytest.raises(TypeError):
        run_experiment(_config(**_SHORT), tmp_path)
    assert not (tmp_path / "x" / "summary.json").exists()
