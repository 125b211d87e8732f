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

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .analysis import detect_limit, edge_dichotomy_report, fit_power, fit_rate
from .errors import DomainError, NonFiniteStateError
from .first_order import classify_equilibrium, simulate_first_order
from .graphs import Graph, graph_from_json, load_graph
from .hopf_cole import HopfColeState, simulate_hopf_cole
from .integrate import IntegratorSpec, Trajectory
from .potentials import potential_from_config, quadratic_kappa
from .second_order import PhaseState, gradient_flow_init, simulate_second_order
from .weights import rule_from_config

SUMMARY_SCHEMA = 1

#: Thresholds defining "synchronised": one dominant density, rest negligible.
SYNC_HI = 0.99
SYNC_LO = 0.01


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one run, mirroring the JSON layout."""

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

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        doc = dict(doc)
        for key in ("rho0", "s0", "xi0", "xistar0"):
            if isinstance(doc.get(key), list):
                doc[key] = tuple(float(v) for v in doc[key])
        if isinstance(doc.get("fits"), list):
            doc["fits"] = tuple(doc["fits"])
        return cls(**doc)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "dynamics": self.dynamics,
            "graph": self.graph,
            "theta": self.theta,
            "potential": self.potential,
            "rho0": [float(v) for v in self.rho0],
            "integrator": dict(self.integrator),
        }
        for key in ("s0", "xi0", "xistar0"):
            val = getattr(self, key)
            if val is not None:
                out[key] = list(val) if not isinstance(val, str) else val
        if self.stop_on_sync:
            out["stop_on_sync"] = True
        if self.fits:
            out["fits"] = list(self.fits)
        if self.power_fit:
            out["power_fit"] = True
        if self.dichotomy_tol is not None:
            out["dichotomy_tol"] = self.dichotomy_tol
        if self.expect is not None:
            out["expect"] = self.expect
        return out


def _resolve_graph(spec) -> Graph:
    if isinstance(spec, Graph):
        return spec
    if isinstance(spec, dict):
        return graph_from_json(json.dumps(spec))
    return load_graph(spec)


def _resolve_spec(doc: dict) -> IntegratorSpec:
    return IntegratorSpec(
        scheme=doc.get("scheme", "rk4"),
        dt=float(doc.get("dt", 0.01)),
        t_final=float(doc.get("t_final", 10.0)),
        record_every=int(doc.get("record_every", 1)),
    )


def is_synchronised(rho: np.ndarray) -> bool:
    top = float(np.max(rho))
    rest = float(np.partition(rho, rho.size - 2)[-2])
    return top > SYNC_HI and rest < SYNC_LO


def run_dynamics(cfg: ExperimentConfig) -> tuple[Trajectory, dict]:
    """Execute the configured run; returns the trajectory and run notes."""
    graph = _resolve_graph(cfg.graph)
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
        g0 = np.asarray(potential.grad(rho0), dtype=float)
        if cfg.xi0 in (None, "zero"):
            xi0 = np.zeros_like(rho0)
        else:
            xi0 = np.asarray(cfg.xi0, dtype=float)
        if cfg.xistar0 in (None, "from-rho"):
            xistar0 = g0 - xi0
        else:
            xistar0 = np.asarray(cfg.xistar0, dtype=float)
        traj = simulate_hopf_cole(graph, rule, potential, HopfColeState(rho0, xi0, xistar0), spec)
    else:
        raise DomainError(f"unknown dynamics {cfg.dynamics!r}")
    return traj, notes


def _csv_columns(cfg: ExperimentConfig, traj: Trajectory) -> tuple[list[str], np.ndarray]:
    n = traj.n_density
    dim = traj.states.shape[1]
    cols = [f"rho_{j}" for j in range(1, n + 1)]
    if cfg.dynamics == "second":
        cols += [f"S_{j}" for j in range(1, n + 1)]
    elif cfg.dynamics == "hopf_cole":
        cols += [f"xi_{j}" for j in range(1, n + 1)]
        cols += [f"xistar_{j}" for j in range(1, n + 1)]
    else:
        cols += [f"state_{j}" for j in range(n + 1, dim + 1)]
    blocks = [traj.states]
    if cfg.dynamics == "first":
        cols += ["sum_sq", "max_gap"]
        blocks += [traj.diagnostics["sum_sq"][:, None], traj.diagnostics["max_gap"][:, None]]
    elif cfg.dynamics == "second":
        cols += ["H"]
        blocks += [traj.diagnostics["hamiltonian"][:, None]]
    elif cfg.dynamics == "hopf_cole":
        cols += ["max_abs_xi"]
        blocks += [traj.diagnostics["max_abs_xi"][:, None]]
    data = np.hstack([traj.times[:, None]] + blocks)
    return ["t"] + cols, data


def write_trajectory_csv(path: Path, cfg: ExperimentConfig, traj: Trajectory) -> None:
    cols, data = _csv_columns(cfg, traj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in data:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def summarise(cfg: ExperimentConfig, traj: Trajectory, notes: dict) -> dict:
    graph = _resolve_graph(cfg.graph)
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
        eq = classify_equilibrium(limit, tol=1e-3)
        summary["equilibrium"] = {
            "m": eq.m,
            "support": list(eq.support),
            "value": eq.value,
            "is_member": eq.is_member,
        }

    fits = {}
    for transform in cfg.fits:
        fit = fit_rate(traj, transform)
        fits[transform] = {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "r_squared": fit.r_squared,
            "window": list(fit.window),
            "truncated": fit.truncated,
        }
    if fits:
        summary["rate_fits"] = fits
    if cfg.power_fit:
        pf = fit_power(traj)
        summary["power_fit"] = {
            "power": pf.power,
            "r_squared": pf.r_squared,
            "window": list(pf.window),
        }

    if cfg.dynamics in ("second",) and "hamiltonian" in traj.diagnostics:
        h = traj.diagnostics["hamiltonian"]
        summary["hamiltonian"] = {
            "initial": float(h[0]),
            "max_drift": float(np.max(np.abs(h - h[0]))),
        }
    if cfg.dynamics == "second":
        rho_final = traj.densities[-1]
        summary["synchronised"] = bool(is_synchronised(rho_final))

    if cfg.dichotomy_tol is not None:
        verdicts = edge_dichotomy_report(graph, traj.densities[-1], tol=cfg.dichotomy_tol)
        summary["dichotomy"] = {
            "edges": [
                {"i": v.i, "j": v.j, "verdict": v.verdict,
                 "min_value": v.min_value, "abs_diff": v.abs_diff}
                for v in verdicts
            ],
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

    In check mode any unmet expectation raises DomainError after the
    artifacts are written, so the CLI exits nonzero with the summary on disk.
    """
    traj, notes = run_dynamics(cfg)
    out = Path(out_dir) / cfg.name
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(out / "trajectory.csv", cfg, traj)
    summary = summarise(cfg, traj, notes)
    failures = check_expectations(cfg, summary)
    summary["check_failures"] = failures
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if check and failures:
        raise DomainError(f"{cfg.name}: " + "; ".join(failures))
    return summary


def _rate_figure(name: str, alpha: float, transform: str, slope_sign: int) -> ExperimentConfig:
    return ExperimentConfig(
        name=name,
        dynamics="first",
        graph="complete(4)",
        theta={"kind": "min_power", "alpha": alpha},
        potential={"kind": "kuramoto", "kappa": 1.0},
        rho0=(0.5, 0.3, 0.15, 0.05),
        integrator={"scheme": "rk4", "dt": 0.01, "t_final": 200.0, "record_every": 10},
        fits=(transform,),
        expect={"fit": {"transform": transform, "min_r_squared": 0.999,
                        "slope_sign": slope_sign}},
    )


def _limit_example(name: str, graph: str, limit: tuple[float, ...]) -> ExperimentConfig:
    return ExperimentConfig(
        name=name,
        dynamics="first",
        graph=graph,
        theta={"kind": "min_power", "alpha": 1.0},
        potential={"kind": "kuramoto", "kappa": 1.0},
        rho0=(0.3, 0.2, 0.1, 0.1, 0.1, 0.2),
        integrator={"scheme": "rk4", "dt": 0.01, "t_final": 500.0, "record_every": 10},
        dichotomy_tol=1e-3,
        expect={"limit": list(limit), "limit_tol": 1e-3,
                "max_dichotomy_violations": 0},
    )


def _sync_figure(name: str, rho0, s0) -> ExperimentConfig:
    # The published 4-decimal densities need not sum to exactly one
    # (fig8's sum to 1.0001); renormalise onto the simplex.
    mass = sum(rho0)
    return ExperimentConfig(
        name=name,
        dynamics="second",
        graph="complete(6)",
        theta={"kind": "min_power", "alpha": 2.0},
        potential={"kind": "kuramoto", "kappa": 1.0},
        rho0=tuple(v / mass for v in rho0),
        s0=s0,
        integrator={"scheme": "rk4", "dt": 0.01, "t_final": 200.0, "record_every": 10},
        stop_on_sync=True,
        expect={"synchronised": True},
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
