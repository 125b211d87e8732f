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
import math
import os
from collections import namedtuple
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, Optional

import numpy as np

from .analysis import _TRANSFORMS, detect_limit, edge_dichotomy_report, fit_power, fit_rate
from .errors import DomainError, GraphSyncError, document, real, vector
from .first_order import classify_equilibrium
from .flows import FLOWS, is_synchronised  # is_synchronised: re-exported
from .graphs import load_graph
from .integrate import IntegratorSpec, Trajectory
from .potentials import _number, potential_from_config, quadratic_kappa
from .weights import rule_from_config

SUMMARY_SCHEMA = 1

#: The rate-fit transforms, and the keys ``check_expectations`` reads besides a fit's transform.
_FITS = tuple(sorted(_TRANSFORMS))
_EXPECT_KEYS = ("limit", "limit_tol", "fit", "synchronised", "max_dichotomy_violations")
_FIT_KEYS = ("min_r_squared", "slope_sign")


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one run, mirroring the JSON layout.

    Its run is built here, once, from read-only copies of its documents: a graph that
    does not load and a potential that is not quadratic are refused.  Initial data become
    tuples of finite floats, one per vertex (or keep their block's keyword from
    ``flows.FLOWS``); anything else is a DomainError, and so are initial data and a
    ``stop_on_sync`` that the flow does not read, ``fits``, ``dichotomy_tol`` and ``expect``
    that the summary and its checks could not read, a ``name`` that is not one path
    component (the run's directory under ``out_dir``) and non-bool flags.
    """

    name: str
    dynamics: str                      # a key of flows.FLOWS
    graph: str | os.PathLike | Mapping  # a path is kept as its str
    theta: Mapping
    potential: Mapping
    rho0: tuple[float, ...]
    s0: Optional[tuple[float, ...] | str] = None       # vector or "gradflow"
    xi0: Optional[tuple[float, ...] | str] = None      # vector or "zero"
    xistar0: Optional[tuple[float, ...] | str] = None  # vector or "from-rho"
    integrator: Mapping = field(default_factory=dict)
    stop_on_sync: bool = False
    fits: tuple[str, ...] = ()
    power_fit: bool = False
    dichotomy_tol: Optional[float] = None
    expect: Optional[Mapping] = None

    def __post_init__(self):
        for key in ("graph", "theta", "potential", "integrator", "expect"):  # read-only copies
            object.__setattr__(self, key, _copied(getattr(self, key)))
        if isinstance(self.graph, os.PathLike):  # a str goes into the summary's JSON
            object.__setattr__(self, "graph", os.fspath(self.graph))
        name = self.name  # the run's directory under out_dir
        _check(isinstance(name, str) and name not in ("", ".", "..")
               and not set(name) & set("/\\\0"),
               "name must be one path component, not . or .., without / or \\ or NUL", name)
        for flag, value in (("stop_on_sync", self.stop_on_sync), ("power_fit", self.power_fit)):
            _check(isinstance(value, bool), f"{flag} must be a bool", value)
        flow = FLOWS.get(self.dynamics) if isinstance(self.dynamics, str) else None
        _check(flow is not None, f"dynamics must be one of {sorted(FLOWS)}", self.dynamics)
        _check(flow.stop_on_sync or not self.stop_on_sync,
               f"stop_on_sync is not read by {self.dynamics} runs", self.stop_on_sync)
        for key in [k for other in FLOWS.values() for k in other.initial]:
            _check(key in flow.initial or getattr(self, key) is None,
                   f"{key} is not read by {self.dynamics} runs", getattr(self, key))
        graph, rule = load_graph(self.graph), rule_from_config(self.theta)
        potential, spec = potential_from_config(self.potential), _resolve_spec(self.integrator)
        quadratic_kappa(potential)  # every graph flow needs it; refused before a block resolves
        blocks = []
        for key, block in (("rho0", None), *flow.initial.items()):
            value, keyword = getattr(self, key), block and block.keyword
            # None stands for an optional block's keyword, its default.
            if (value is None and block and not block.required) or (
                    isinstance(value, str) and value == keyword):
                blocks.append(block.resolve(potential, *blocks))
                continue
            allowed = "numbers" if keyword is None else f"numbers or {keyword!r}"
            _check(not isinstance(value, str), f"{key} must be {allowed}", value)
            try:  # a numeric string entry is read as its number, as in the potential's document
                array = vector([_number(v) for v in value], key, graph.n)
            except TypeError:  # not iterable
                raise DomainError(f"{key} must be {allowed}, got {value!r}") from None
            except DomainError as exc:  # said of the entries as given, not as read
                raise DomainError(f"{str(exc).partition(', got ')[0]}, got {value!r}") from None
            object.__setattr__(self, key, tuple(array.tolist()))
            blocks.append(array)
        fits, tol = self.fits, self.dichotomy_tol
        _check(isinstance(fits, (list, tuple)) and all(t in _FITS for t in fits),
               f"fits must be a list of {list(_FITS)}", fits)
        object.__setattr__(self, "fits", tuple(fits))
        if tol is not None:
            real(tol, "dichotomy_tol", "finite and >= 0", lambda v: 0 <= v < math.inf)
        if self.expect is not None:
            _check_expect(self.expect, graph.n)
        # Not a field: fields, to_dict, ==, repr and dataclasses.replace leave it out.
        object.__setattr__(self, "_run", _Run(graph, rule, potential, blocks, spec))

    @classmethod
    def from_dict(cls, doc: Mapping) -> "ExperimentConfig":
        required = [f.name for f in fields(cls)
                    if f.default is MISSING and f.default_factory is MISSING]
        return cls(**document(doc, "a config", required, [f.name for f in fields(cls)]))

    def to_dict(self) -> dict:
        """The required fields, and each optional field that differs from its default."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            default = f.default if f.default_factory is MISSING else f.default_factory()
            if default is MISSING or value != default:
                out[f.name] = _copied(value, dict, list)
        return out

    def __reduce__(self):  # copies and pickles rebuild from the plain document
        return type(self).from_dict, (self.to_dict(),)


#: What a config builds for its run: the arguments of its flow's ``simulate``.
_Run = namedtuple("_Run", "graph rule potential blocks spec")


def _copied(doc, mapping=MappingProxyType, sequence=tuple):
    """A deep copy of a JSON-like document whose mappings are ``mapping``s and whose lists
    and tuples are ``sequence``s: read-only by default, and plain with ``dict, list``."""
    if isinstance(doc, Mapping):
        return mapping({key: _copied(value, mapping, sequence) for key, value in doc.items()})
    if isinstance(doc, (list, tuple)):
        return sequence(_copied(value, mapping, sequence) for value in doc)
    return doc


def _check(ok: bool, what: str, value) -> None:
    if not ok:
        raise DomainError(f"{what}, got {value!r}")


def _check_expect(exp, n: int) -> None:
    """Refuse an ``expect`` block that ``check_expectations`` could not read, or whose
    checks could never fail (a NaN bound, a negative tolerance)."""
    document(exp, "expect", (), _EXPECT_KEYS)
    vector(exp.get("limit", [0.0] * n), "expect limit", n)
    for key in ("limit_tol", "max_dichotomy_violations"):
        real(exp.get(key, 0), f"expect {key}", "finite and >= 0", lambda v: 0 <= v < math.inf)
    sync = exp.get("synchronised", False)
    _check(isinstance(sync, bool), "expect synchronised must be a bool", sync)
    fit = document(exp.get("fit", {"transform": _FITS[0]}), "expect fit", ("transform",), _FIT_KEYS)
    _check(fit["transform"] in _FITS, f"expect fit transform must be one of {list(_FITS)}",
           fit["transform"])
    real(fit.get("min_r_squared", 0), "expect fit min_r_squared", "finite", math.isfinite)
    if fit.get("slope_sign") is not None:
        real(fit["slope_sign"], "expect fit slope_sign", "-1, 0 or 1", lambda s: s in (-1, 0, 1))


def _resolve_spec(doc: dict) -> IntegratorSpec:
    return IntegratorSpec(**document(doc, "an integrator config",
                                     optional=[f.name for f in fields(IntegratorSpec)]))


def run_dynamics(cfg: ExperimentConfig) -> Trajectory:
    """Execute the run that the config built; in-loop errors propagate."""
    return FLOWS[cfg.dynamics].simulate(*cfg._run, cfg.stop_on_sync)


def run_and_write(cfg: ExperimentConfig, write: Callable) -> tuple:
    """The run's trajectory and ``write(trajectory, None)``.  The failure path of every
    front end: an in-loop error's partial run goes to ``write(partial, str(error))``,
    as far as the writer can take it, and then the run's own error is raised."""
    try:
        traj = run_dynamics(cfg)
    except GraphSyncError as exc:
        if exc.trajectory is not None:
            with contextlib.suppress(GraphSyncError):
                write(exc.trajectory, str(exc))
        raise
    return traj, write(traj, None)


def write_trajectory_csv(path: Path, cfg: ExperimentConfig, traj: Trajectory) -> None:
    """Time, the flow's state blocks (one column per vertex each), then its observers' columns."""
    flow = FLOWS[cfg.dynamics]
    vertices = range(1, traj.n_density + 1)
    written = [(name, column) for name, column, _ in flow.observers if column]
    cols = ["t"] + [f"{b}_{j}" for b in flow.blocks for j in vertices] + [c for _, c in written]
    series = [traj.diagnostics[name] for name, _ in written]
    data = np.column_stack([traj.times, traj.states, *series])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in data:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _record(result, *skip: str) -> dict:
    """A result dataclass as a JSON object, less the ``skip`` fields; tuples become lists."""
    return _copied({f.name: getattr(result, f.name) for f in fields(result) if f.name not in skip},
                   dict, list)


def summarise(cfg: ExperimentConfig, traj: Trajectory, error: Optional[str]) -> dict:
    """Summary of a run of ``cfg``, with a failed run's ``error``."""
    limit = detect_limit(traj)  # first: it refuses a trajectory with no records
    summary: dict = {
        "schema": SUMMARY_SCHEMA,
        "name": cfg.name,
        "config": cfg.to_dict(),
        "stop_reason": traj.stop_reason,
        "final_time": float(traj.final_time),
        "final_density": [float(v) for v in traj.densities[-1]],
    }
    if error is not None:
        summary["error"] = error
    summary["limit"] = None if limit is None else [float(v) for v in limit]
    if limit is not None:
        summary["equilibrium"] = _record(classify_equilibrium(limit, tol=1e-3))
    if cfg.fits:
        summary["rate_fits"] = {t: _record(fit_rate(traj, t), "transform") for t in cfg.fits}
    if cfg.power_fit:
        summary["power_fit"] = _record(fit_power(traj))
    summary.update(FLOWS[cfg.dynamics].summary(traj))
    if cfg.dichotomy_tol is not None:
        verdicts = edge_dichotomy_report(cfg._run.graph, traj.densities[-1], tol=cfg.dichotomy_tol)
        summary["dichotomy"] = {"edges": [_record(v) for v in verdicts],
                                "violations": sum(v.verdict == "Violation" for v in verdicts)}
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
                failures.append(f"{want['transform']} r^2 {got['r_squared']:.6f} < "
                                f"{want.get('min_r_squared')}")
            sign = want.get("slope_sign")
            if sign is not None and np.sign(got["slope"]) != sign:
                failures.append(f"{want['transform']} slope sign is {np.sign(got['slope'])}")
    if exp.get("synchronised") and not summary.get("synchronised"):
        failures.append("run did not reach a synchronised state")
        if summary.get("stop_reason") == "t_final":
            failures.append("horizon reached before synchronisation")
    if "max_dichotomy_violations" in exp:
        got = (summary.get("dichotomy") or {}).get("violations")
        if got is None or got > exp["max_dichotomy_violations"]:
            failures.append(f"dichotomy violations: {got}")
    return failures


def run_experiment(cfg: ExperimentConfig, out_dir, check: bool = False) -> dict:
    """Run, write artifacts under ``out_dir/<name>/``, return the summary.

    A run that fails inside the integration loop is written by
    ``run_and_write``: ``trajectory.csv`` holds its partial trajectory and,
    when there is at least one record, ``summary.json`` its stop reason and
    the error under ``"error"``; then the run's own error is raised.  In
    check mode any unmet expectation raises DomainError after the artifacts are written.
    """
    out = Path(out_dir) / cfg.name
    _, summary = run_and_write(cfg, lambda traj, error: _write_run(out, cfg, traj, error))
    if check and summary["check_failures"]:
        raise DomainError(f"{cfg.name}: " + "; ".join(summary["check_failures"]))
    return summary


def _write_run(out: Path, cfg: ExperimentConfig, traj: Trajectory, error: Optional[str]) -> dict:
    """Write ``trajectory.csv`` and ``summary.json`` into ``out``; returns the summary."""
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(out / "trajectory.csv", cfg, traj)
    summary = summarise(cfg, traj, error)
    summary["check_failures"] = check_expectations(cfg, summary)
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"  # a failed dump writes nothing
    (out / "summary.json").write_text(text, encoding="utf-8")
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
