"""Experiment runner and the bundled benchmark targets.

An experiment is a JSON-friendly config naming a graph, a coupling rule, a
potential, initial data and an integrator; running one writes a trajectory
CSV and a summary JSON into a per-experiment directory.  Summaries are
deterministic functions of the config: no clocks, no environment, sorted
keys, full-precision floats.

``REPRODUCE_TARGETS`` holds the stock experiments: three complete-graph
decay-rate runs (fig1, fig2, fig3), three six-vertex limit runs (ex4.1,
ex4.2, ex4.3), and two second-order synchronization runs (fig7, fig8),
each with its expected outcome attached for --check mode.
"""
from __future__ import annotations

import contextlib
import json
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from .analysis import detect_limit, edge_dichotomy_report, fit_power, fit_rate
from .errors import DomainError, GraphSyncError, NonFiniteStateError
from .first_order import classify_equilibrium, simulate_first_order
from .graphs import Graph, load_graph
from .hopf_cole import HopfColeState, simulate_hopf_cole
from .integrate import IntegratorSpec, Trajectory
from .potentials import potential_from_config, quadratic_kappa
from .second_order import PhaseState, gradient_flow_init, simulate_second_order
from .weights import rule_from_config

SUMMARY_SCHEMA = 1

#: Thresholds defining "synchronised": one dominant density, rest negligible.
SYNC_HI = 0.99
SYNC_LO = 0.01


#: The keyword each optional initial-data field takes in place of a vector.
_INITIAL_KEYWORDS = {"s0": "gradflow", "xi0": "zero", "xistar0": "from-rho"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one run, mirroring the JSON layout.

    Initial data become tuples of floats (an initial-data field may instead
    hold its keyword from ``_INITIAL_KEYWORDS``); anything else is a DomainError.
    """

    name: str
    dynamics: str                      # "first" | "second" | "hopf_cole"
    graph: str | dict
    theta: dict
    potential: dict
    rho0: tuple[float, ...]
    s0: Optional[tuple[float, ...] | str] = None       # vector or "gradflow"
    xi0: Optional[tuple[float, ...] | str] = None      # vector or "zero"
    xistar0: Optional[tuple[float, ...] | str] = None  # vector or "from-rho"
    integrator: dict = field(default_factory=dict)
    stop_on_sync: bool = False
    fits: tuple[str, ...] = ()
    power_fit: bool = False
    dichotomy_tol: Optional[float] = None
    expect: Optional[dict] = None

    def __post_init__(self):
        for key in ("rho0", *_INITIAL_KEYWORDS):
            value, keyword = getattr(self, key), _INITIAL_KEYWORDS.get(key)
            # None and the keyword stand for an optional field's default.
            if (value is None and keyword) or (isinstance(value, str) and value == keyword):
                continue
            try:
                object.__setattr__(self, key, tuple(float(v) for v in value))
            except (TypeError, ValueError):
                allowed = "numbers" if keyword is None else f"numbers or {keyword!r}"
                raise DomainError(f"{key} must be {allowed}, got {value!r}") from None
        object.__setattr__(self, "fits", tuple(self.fits))

    @classmethod
    def from_dict(cls, doc: Mapping) -> "ExperimentConfig":
        if not isinstance(doc, Mapping):
            raise DomainError(f"a config must be a mapping, got {doc!r}")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        missing = [f.name for f in fields(cls)
                   if f.default is MISSING and f.default_factory is MISSING and f.name not in doc]
        if missing:
            raise DomainError(f"missing config keys: {missing}")
        return cls(**doc)

    def to_dict(self) -> dict:
        """The required fields, and each optional field that differs from its default."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            default = f.default if f.default_factory is MISSING else f.default_factory()
            if default is MISSING or value != default:
                out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


def _resolve_spec(doc: dict) -> IntegratorSpec:
    unknown = set(doc) - {f.name for f in fields(IntegratorSpec)}
    if unknown:
        raise DomainError(f"unknown integrator keys: {sorted(unknown)}")
    return IntegratorSpec(**doc)


def is_synchronised(rho: np.ndarray) -> bool:
    top = float(np.max(rho))
    rest = float(np.partition(rho, rho.size - 2)[-2])
    return top > SYNC_HI and rest < SYNC_LO


def run_dynamics(cfg: ExperimentConfig, graph: Graph) -> tuple[Trajectory, dict]:
    """Execute the configured run on its resolved graph; returns the trajectory and run notes."""
    rule = rule_from_config(cfg.theta)
    potential = potential_from_config(cfg.potential)
    kappa = quadratic_kappa(potential)
    spec = _resolve_spec(cfg.integrator)
    rho0 = np.asarray(cfg.rho0, dtype=float)
    notes: dict = {}

    if cfg.dynamics == "first":
        traj = simulate_first_order(graph, rule, kappa, rho0, spec)
    elif cfg.dynamics == "second":
        if cfg.s0 == "gradflow":
            state0 = gradient_flow_init(rho0, potential, sign=+1)
        elif cfg.s0 is None:
            raise DomainError("second-order runs need s0 (vector or 'gradflow')")
        else:
            state0 = PhaseState(rho=rho0, S=np.asarray(cfg.s0, dtype=float))
        stop = (lambda st: is_synchronised(st.rho)) if cfg.stop_on_sync else None
        try:
            traj = simulate_second_order(graph, rule, potential, state0, spec, stop_when=stop)
        except NonFiniteStateError as exc:
            traj = exc.trajectory
            notes["error"] = str(exc)
    elif cfg.dynamics == "hopf_cole":
        if cfg.xi0 in (None, "zero"):
            xi0 = np.zeros_like(rho0)
        else:
            xi0 = np.asarray(cfg.xi0, dtype=float)
        if cfg.xistar0 in (None, "from-rho"):
            xistar0 = potential.grad(rho0) - xi0
        else:
            xistar0 = np.asarray(cfg.xistar0, dtype=float)
        traj = simulate_hopf_cole(graph, rule, potential, HopfColeState(rho0, xi0, xistar0), spec)
    else:
        raise DomainError(f"unknown dynamics {cfg.dynamics!r}")
    return traj, notes


#: CSV layout by dynamics: the state blocks, one column per vertex each, then
#: the (diagnostic, column) pairs.
_CSV_LAYOUT = {
    "first": (("rho",), (("sum_sq", "sum_sq"), ("max_gap", "max_gap"))),
    "second": (("rho", "S"), (("hamiltonian", "H"),)),
    "hopf_cole": (("rho", "xi", "xistar"), (("max_abs_xi", "max_abs_xi"),)),
}


def _csv_columns(cfg: ExperimentConfig, traj: Trajectory) -> tuple[list[str], np.ndarray]:
    blocks, diagnostics = _CSV_LAYOUT[cfg.dynamics]
    vertices = range(1, traj.n_density + 1)
    cols = ["t"] + [f"{b}_{j}" for b in blocks for j in vertices] + [c for _, c in diagnostics]
    series = [traj.diagnostics[name] for name, _ in diagnostics]
    return cols, np.column_stack([traj.times, traj.states, *series])


def write_trajectory_csv(path: Path, cfg: ExperimentConfig, traj: Trajectory) -> None:
    cols, data = _csv_columns(cfg, traj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in data:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _record(result, *skip: str) -> dict:
    """A result dataclass as a JSON object, less the ``skip`` fields; tuples become lists."""
    values = {f.name: getattr(result, f.name) for f in fields(result) if f.name not in skip}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}


def summarise(cfg: ExperimentConfig, traj: Trajectory, notes: dict, graph: Graph) -> dict:
    """Summary of a run of ``cfg`` on its resolved graph."""
    summary: dict = {
        "schema": SUMMARY_SCHEMA,
        "name": cfg.name,
        "config": cfg.to_dict(),
        "stop_reason": traj.stop_reason,
        "final_time": float(traj.final_time),
        "final_density": [float(v) for v in traj.densities[-1]],
    }
    summary.update(notes)

    limit = detect_limit(traj)
    summary["limit"] = None if limit is None else [float(v) for v in limit]
    if limit is not None:
        summary["equilibrium"] = _record(classify_equilibrium(limit, tol=1e-3))
    if cfg.fits:
        summary["rate_fits"] = {t: _record(fit_rate(traj, t), "transform") for t in cfg.fits}
    if cfg.power_fit:
        summary["power_fit"] = _record(fit_power(traj))

    if cfg.dynamics == "second":
        h = traj.diagnostics["hamiltonian"]
        summary["hamiltonian"] = {
            "initial": float(h[0]),
            "max_drift": float(np.max(np.abs(h - h[0]))),
        }
        summary["synchronised"] = bool(is_synchronised(traj.densities[-1]))

    if cfg.dichotomy_tol is not None:
        verdicts = edge_dichotomy_report(graph, traj.densities[-1], tol=cfg.dichotomy_tol)
        summary["dichotomy"] = {
            "edges": [_record(v) for v in verdicts],
            "violations": sum(1 for v in verdicts if v.verdict == "Violation"),
        }
    return summary


def check_expectations(cfg: ExperimentConfig, summary: dict) -> list[str]:
    """Compare a summary to the config's ``expect`` block; returns failures."""
    failures = []
    exp = cfg.expect or {}
    if "limit" in exp:
        tol = float(exp.get("limit_tol", 1e-3))
        want = np.asarray(exp["limit"], dtype=float)
        got = summary.get("limit")
        if got is None:
            failures.append("trajectory did not converge to a limit")
        else:
            err = float(np.max(np.abs(np.asarray(got) - want)))
            if err > tol:
                failures.append(f"limit off by {err:.3e} > {tol:g}")
    if "fit" in exp:
        want = exp["fit"]
        got = (summary.get("rate_fits") or {}).get(want["transform"])
        if got is None:
            failures.append(f"missing fit {want['transform']!r}")
        else:
            if got["r_squared"] < want.get("min_r_squared", 0.0):
                failures.append(
                    f"{want['transform']} r^2 {got['r_squared']:.6f} < "
                    f"{want.get('min_r_squared')}"
                )
            sign = want.get("slope_sign")
            if sign is not None and np.sign(got["slope"]) != sign:
                failures.append(f"{want['transform']} slope sign is {np.sign(got['slope'])}")
    if exp.get("synchronised"):
        if not summary.get("synchronised"):
            failures.append("run did not reach a synchronised state")
        if summary.get("stop_reason") == "t_final" and not summary.get("synchronised"):
            failures.append("horizon reached before synchronisation")
    if "max_dichotomy_violations" in exp:
        got = (summary.get("dichotomy") or {}).get("violations")
        if got is None or got > exp["max_dichotomy_violations"]:
            failures.append(f"dichotomy violations: {got}")
    return failures


def run_experiment(cfg: ExperimentConfig, out_dir, check: bool = False) -> dict:
    """Run, write artifacts under ``out_dir/<name>/``, return the summary.

    A GraphSyncError that carries a partial trajectory (one raised inside the
    integration loop) is re-raised after that run is written, with its stop
    reason and the error under ``"error"``; a summary the partial run cannot
    support, such as a rate fit over fewer than three records, is left out.
    In check mode any unmet expectation raises DomainError after the
    artifacts are written, so the CLI exits nonzero with the summary on disk.
    """
    graph = load_graph(cfg.graph)
    out = Path(out_dir) / cfg.name
    try:
        traj, notes = run_dynamics(cfg, graph)
    except GraphSyncError as exc:
        if exc.trajectory is not None:
            with contextlib.suppress(GraphSyncError):  # the run's own error is the one raised
                _write_run(out, cfg, exc.trajectory, {"error": str(exc)}, graph)
        raise
    summary = _write_run(out, cfg, traj, notes, graph)
    if check and summary["check_failures"]:
        raise DomainError(f"{cfg.name}: " + "; ".join(summary["check_failures"]))
    return summary


def _write_run(out: Path, cfg: ExperimentConfig, traj: Trajectory, notes: dict, graph: Graph) -> dict:
    """Write ``trajectory.csv`` and ``summary.json`` into ``out``; returns the summary."""
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(out / "trajectory.csv", cfg, traj)
    summary = summarise(cfg, traj, notes, graph)
    summary["check_failures"] = check_expectations(cfg, summary)
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def _target(name, dynamics, graph, alpha, rho0, t_final, **extra) -> ExperimentConfig:
    """A stock run: min-power weights, kappa = 1, RK4 at dt = 0.01, every 10th step recorded."""
    return ExperimentConfig(
        name=name,
        dynamics=dynamics,
        graph=graph,
        theta={"kind": "min_power", "alpha": alpha},
        potential={"kind": "kuramoto", "kappa": 1.0},
        rho0=rho0,
        integrator={"scheme": "rk4", "dt": 0.01, "t_final": t_final, "record_every": 10},
        **extra,
    )


def _rate_figure(name: str, alpha: float, transform: str, slope_sign: int) -> ExperimentConfig:
    return _target(
        name, "first", "complete(4)", alpha, (0.5, 0.3, 0.15, 0.05), 200.0,
        fits=(transform,),
        expect={"fit": {"transform": transform, "min_r_squared": 0.999,
                        "slope_sign": slope_sign}},
    )


def _limit_example(name: str, graph: str, limit: tuple[float, ...]) -> ExperimentConfig:
    return _target(
        name, "first", graph, 1.0, (0.3, 0.2, 0.1, 0.1, 0.1, 0.2), 500.0,
        dichotomy_tol=1e-3,
        expect={"limit": list(limit), "limit_tol": 1e-3,
                "max_dichotomy_violations": 0},
    )


def _sync_figure(name: str, rho0, s0) -> ExperimentConfig:
    # The published 4-decimal densities need not sum to exactly one
    # (fig8's sum to 1.0001); renormalise onto the simplex.
    mass = sum(rho0)
    return _target(
        name, "second", "complete(6)", 2.0, tuple(v / mass for v in rho0), 200.0,
        s0=s0, stop_on_sync=True, expect={"synchronised": True},
    )


REPRODUCE_TARGETS: dict[str, ExperimentConfig] = {
    "fig1": _rate_figure("fig1", 1.0, "log_gap", -1),
    "fig2": _rate_figure("fig2", 2.0, "inverse_gap", +1),
    "fig3": _rate_figure("fig3", 3.0, "inverse_sq_gap", +1),
    "ex4.1": _limit_example("ex4.1", "cycle6", (0.7398, 0.0, 0.0, 0.2602, 0.0, 0.0)),
    "ex4.2": _limit_example("ex4.2", "lattice6", (0.5274, 0.0, 0.0, 0.1958, 0.0, 0.2768)),
    "ex4.3": _limit_example("ex4.3", "ribbon6", (0.5948, 0.0, 0.0, 0.0, 0.0, 0.4052)),
    "fig7": _sync_figure(
        "fig7",
        (0.3224, 0.2108, 0.1071, 0.0713, 0.2518, 0.0366),
        (0.1597, -1.1129, 0.5929, 0.4568, 0.8299, -0.2499),
    ),
    "fig8": _sync_figure(
        "fig8",
        (0.1524, 0.0910, 0.0698, 0.1583, 0.3424, 0.1862),
        (-0.4890, -0.4542, -0.2708, -0.6929, 1.0627, 0.1228),
    ),
}
