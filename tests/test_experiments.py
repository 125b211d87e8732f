import json

import numpy as np
import pytest

import graphsync.experiments as experiments
from graphsync.cli import main
from graphsync.errors import (
    ConsistencyError,
    DomainError,
    GraphConstructionError,
    NonFiniteStateError,
    SimplexViolationError,
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


def test_config_normalises_initial_data():
    cfg = _config(rho0=["0.5", 0.3, np.float64(0.2)], s0="gradflow",
                  xi0=np.zeros(3), xistar0=[1, 2, 3], fits=["log_gap"])
    assert cfg.rho0 == (0.5, 0.3, 0.2) and all(type(v) is float for v in cfg.rho0)
    assert cfg.s0 == "gradflow"
    assert cfg.xi0 == (0.0, 0.0, 0.0) and cfg.xistar0 == (1.0, 2.0, 3.0)
    assert cfg.fits == ("log_gap",)
    assert _config(xi0="zero", xistar0="from-rho").xistar0 == "from-rho"


@pytest.mark.parametrize(
    "kwargs",
    [{"rho0": ["a", "b"]}, {"rho0": 0.5}, {"rho0": None}, {"rho0": "gradflow"}, {"s0": "zero"},
     {"xi0": [0.1, None]}, {"xistar0": "gradflow"}],
)
def test_config_refuses_bad_initial_data(kwargs):
    with pytest.raises(DomainError):
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
    with pytest.raises(DomainError, match=f"{flag} must be a bool"):
        ExperimentConfig.from_dict({**_config().to_dict(), flag: value})
    assert getattr(_config(**{flag: True}), flag) is True


def test_to_dict_writes_required_and_non_default_fields():
    assert _config().to_dict() == {
        "name": "x", "dynamics": "first", "graph": "complete(3)",
        "theta": {"kind": "min_power", "alpha": 1.0},
        "potential": {"kind": "kuramoto", "kappa": 1.0}, "rho0": [0.5, 0.3, 0.2],
    }
    doc = _config(s0=(0.1, 0.2, 0.3), integrator={"dt": 0.1}, stop_on_sync=True,
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
    from_doc = run_experiment(_config(name="doc", graph=doc, **kwargs), tmp_path)
    named = run_experiment(_config(name="named", graph="complete(3)", **kwargs), tmp_path)
    assert calls == [doc, "complete(3)"]
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
     {"expect": {"limits": [0.5, 0.3, 0.2]}}],
    ids=["fit-empty", "limit-text", "limit-tol-text", "expect-list", "dichotomy-tol-text",
         "violations-text", "fits-text", "fits-unknown", "limit-length", "r-squared-text",
         "expect-unknown-key"],
)
def test_config_refuses_malformed_checks(kwargs):
    # Refused where the field enters, before anything runs.
    with pytest.raises(DomainError):
        ExperimentConfig.from_dict({**_config().to_dict(), **kwargs})
