"""The benchmark's own tests: smoke runs of every workload, the gate, the tracer.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import graphsync as gs  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from worker import run_pass  # noqa: E402

END_TO_END = ("setup_s", "wall_s", "item_p50_ms", "item_p90_ms", "peak_rss_mb")
PER_LAYER = (
    "graphs.build_s", "graphs.ordered_edges",
    "weights.theta_calls", "weights.theta_s", "weights.partials_calls", "weights.partials_s",
    "potentials.grad_s", "potentials.hess_calls", "potentials.hess_s",
    "first_order.field_calls", "first_order.field_self_s", "first_order.clip_calls", "first_order.clip_s",
    "second_order.field_calls", "second_order.field_self_s",
    "second_order.hamiltonian_calls", "second_order.hamiltonian_s",
    "hopf_cole.field_calls", "hopf_cole.field_self_s",
    "integrate.steps", "integrate.records", "integrate.rhs_per_step", "integrate.self_s",
    "integrate.self_us_per_step",
    "analysis.detect_limit_s", "analysis.fit_s", "analysis.dichotomy_s",
    "experiments.csv_s", "experiments.csv_bytes", "experiments.summary_s",
    "two_point.rhs_calls", "two_point.rhs_s", "two_point.hamiltonian_s",
    "two_point.solve_calls", "two_point.solve_s", "two_point.x_of_r_calls",
    "quadrature.simpson_calls", "quadrature.simpson_s", "quadrature.integrand_evals",
    "quadrature.evals_per_call",
    "trace.overhead_frac",
)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(*args, cwd=None, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, timeout=170, cwd=cwd
    )


def test_benchmark_json_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    assert set(END_TO_END) == set(bench.END_TO_END_UNITS)
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(PER_LAYER) <= set(per_layer)
    assert per_layer == {name: bench.per_layer_unit(name) for name in per_layer}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, report_line, last = proc.stdout.strip().splitlines()
    result, report = json.loads(last), json.loads(report_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["correct"] == (result["failed"] == 0)
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert report["failed_frac"] == {
        "value": result["failed"] / result["attempted"], "unit": "fraction", "samples": result["attempted"]
    }
    if trace:
        layers = {name: m["value"] for name, m in result["metrics"].items()}
        accounted = sum(layers[f"{layer}.self_s"] for layer in LAYERS) + layers["trace.unattributed_s"]
        assert accounted == pytest.approx(layers["trace.wall_s"], rel=1e-9)
        assert layers["integrate.steps"] > 0
    else:
        assert all(report["metrics"][name]["samples"] >= 1 for name in END_TO_END)
    assert result["correct"], report["failures"]


def test_gate_counts_a_wrong_reproduce_expectation(tmp_path):
    # fig1's gap decays exponentially: log_gap has a negative slope.
    wrong = dataclasses.replace(
        gs.REPRODUCE_TARGETS["fig1"],
        expect={"fit": {"transform": "log_gap", "min_r_squared": 0.999, "slope_sign": +1}},
    )
    right = gs.REPRODUCE_TARGETS["fig1"]
    result = run_pass([workloads.reproduce_item(right, tmp_path), workloads.reproduce_item(wrong, tmp_path)])
    assert len(result.latencies_s) == 2
    assert len(result.failures) == 1 and "slope sign" in result.failures[0]


def test_gate_counts_wrong_path_endpoints():
    fn = gs.entropy_theta_fn(gs.TsallisPotential(q=2.0))
    items = [
        workloads.pair_item("right", fn, 0.3, 0.8, (0.3, 0.8)),
        workloads.pair_item("wrong", fn, 0.3, 0.8, (0.3, 0.8 + 1e-8)),
    ]
    result = run_pass(items)
    assert [f.split(":")[0] for f in result.failures] == ["wrong"]
    assert "path endpoints off" in result.failures[0]


def test_reference_scaling():
    import time

    import reference

    def nap():
        time.sleep(0.25)
        return []

    with reference.Reference() as ref:
        result = run_pass([workloads.Item("a", lambda: []), workloads.Item("b", nap)], ref)
    # Boundary loads around each item, and timer loads inside the long one.
    assert len(result.references_s[0]) == 2 and len(result.references_s[1]) >= 3
    assert result.references_s[0][-1] == result.references_s[1][0]
    assert 0.2 < result.latencies_s[1] < 0.25 + reference.PERIOD_S
    nominal = reference.REFERENCE_S
    assert reference.scale([1.0, 1.0], [[nominal, 2 * nominal], [2 * nominal]]) == pytest.approx([2 / 3, 1 / 2])
    assert reference.scale_one(0.5, [nominal, 2 * nominal, 2 * nominal]) == pytest.approx(0.25)


def test_gate_counts_an_unexpected_error():
    def boom():
        raise ValueError("boom")

    result = run_pass([workloads.Item("ok", lambda: []), workloads.Item("err", boom)])
    assert result.failures == ["err: ValueError: boom"]


def test_workload_inputs_follow_the_seed():
    def states(seed):
        items = workloads.energy_sweep(seed, True, None)
        return [item.run.args[3].rho for item in items]

    assert all(np.array_equal(a, b) for a, b in zip(states(5), states(5)))
    assert not np.array_equal(states(5)[0], states(6)[0])


def test_tracer_restores_every_original():
    modules = [m for name, m in sys.modules.items() if name == "graphsync" or name.startswith("graphsync.")]
    before = [dict(vars(m)) for m in modules]
    methods = (gs.MinPower.theta, gs.MinPower.partials, gs.KuramotoQuadratic.hess, gs.Graph.__post_init__)
    integrate = sys.modules["graphsync.integrate"].integrate
    tracer = Tracer()
    tracer.install()
    try:
        assert sys.modules["graphsync.second_order"].integrate is not integrate
        assert gs.MinPower.theta is not methods[0]
        gs.simulate_first_order(
            gs.complete_graph(3), gs.MinPower(1.0), 1.0, [0.5, 0.3, 0.2],
            gs.IntegratorSpec(dt=0.01, t_final=0.1),
        )
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
    assert (gs.MinPower.theta, gs.MinPower.partials, gs.KuramotoQuadratic.hess, gs.Graph.__post_init__) == methods
    profile = tracer.profiles()[0]
    assert profile["first_order.field"][0] == 4 * 10 + 11  # rk4 stages plus the stop check at each record
    assert tracer.counts[0]["integrate.steps"] == 10


def test_fails_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _bench(
        "--workload", "reproduce", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / HERE.name / "run.py",
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.xfail(strict=True, reason=(
    "simulate_two_point raises DomainError('r must lie in [0, 1], got nan') instead of "
    "NonFiniteStateError when the alpha = 1 blow-up turns r into NaN inside an RK4 stage"
))
def test_alpha1_blowup_surfaces_as_nonfinite_state_error():
    spec = gs.IntegratorSpec(dt=1e-4, t_final=5.0, record_every=10)
    with pytest.raises(gs.NonFiniteStateError):
        gs.simulate_two_point(gs.MinPower(1.0), 1.0, gs.TwoPointState(0.54, 2.1), spec)


@pytest.mark.xfail(strict=True, reason=(
    "RK4 at criterion 6's dt = 1e-3 drifts H by more than 1e-6 when two densities cross "
    "the kink of min(a, b)**alpha; energy_sweep ranks S in the order of rho for that reason"
))
def test_kink_crossing_conserves_h_at_criterion_6_step():
    # Criterion 6's third unranked state at n = 2 from seed 1010; its densities cross.
    rng = np.random.default_rng(1010)
    for _ in range(3):
        rho = workloads.interior_density(rng, 2)
        S = rng.uniform(-0.2, 0.2, 2)
    spec = gs.IntegratorSpec(dt=1e-3, t_final=0.35, record_every=10)
    traj = gs.simulate_second_order(
        gs.complete_graph(2), gs.MinPower(2.0), gs.KuramotoQuadratic(1.0), gs.PhaseState(rho, S), spec,
        stop_when=lambda s: float(s.rho.min()) < workloads.INTERIOR,
    )
    interior = traj.densities.min(axis=1) > workloads.INTERIOR
    assert workloads.relative_drift(traj.diagnostics["hamiltonian"], interior) <= workloads.H_DRIFT_TOL
