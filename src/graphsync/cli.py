"""Command-line interface.

Subcommands: simulate-first, simulate-second, simulate-hopf-cole (trajectory
CSVs), two-point (closed-form analytics as JSON), reproduce (bundled
benchmark experiments with optional --check), and validate-rule.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .errors import DomainError, GraphSyncError
from .experiments import (
    _INITIAL_KEYWORDS,
    ExperimentConfig,
    REPRODUCE_TARGETS,
    run_and_write,
    run_experiment,
    write_trajectory_csv,
)
from .graphs import load_graph
from .integrate import IntegratorSpec
from .potentials import _KINDS, ENTROPY_KINDS, potential_from_config
from .two_point import (
    _action_from_x,
    _divergence_from_x,
    analytic_solution,
    entropy_induced_theta,
    entropy_theta_fn,
    x_of_r_with_error,
)
from .weights import rule_from_config, validate_rule

#: The simulate-* subcommands: dynamics, help, and the initial-data flags
#: beyond --rho0, each mapped to whether it is required; an optional one
#: defaults to its keyword in ``_INITIAL_KEYWORDS``.
_SIMULATE = (
    ("first", "first-order concentration flow", {}),
    ("second", "second-order Hamiltonian flow", {"s0": True}),
    ("hopf_cole", "flow in split (xi, xi*) variables", {"xi0": False, "xistar0": False}),
)


def _vector(text: str, keyword=None):
    """A comma-separated vector as a list of strings, or the keyword itself."""
    return text if text == keyword else text.split(",")


def _cmd_simulate(args) -> int:
    initial = {key: _vector(getattr(args, key), _INITIAL_KEYWORDS[key]) for key in args.initial}
    cfg = ExperimentConfig(
        name=args.command,
        dynamics=args.dynamics,
        graph=args.graph,
        theta={"kind": "min_power", "alpha": args.alpha},
        potential={"kind": "kuramoto", "kappa": args.kappa},
        rho0=_vector(args.rho0),
        integrator={f.name: getattr(args, f.name) for f in fields(IntegratorSpec)},
        **initial,
    )
    write = lambda traj, error: write_trajectory_csv(Path(args.out), cfg, traj)
    traj, _ = run_and_write(cfg, load_graph(cfg.graph), write)
    brief = {
        "out": args.out,
        "records": int(len(traj.times)),
        "final_time": traj.final_time,
        "stop_reason": traj.stop_reason,
    }
    print(json.dumps(brief, sort_keys=True))
    return 0


def _parse_entropy_potential(text: str):
    """``kind[:param]`` as an entropy potential, through potential_from_config."""
    kind, _, param = text.partition(":")
    cls, key = _KINDS.get(kind, (None, None))
    if cls not in ENTROPY_KINDS:
        raise DomainError(
            f"unknown two-point potential {text!r}; expected shannon, renyi:a or tsallis:q"
        )
    doc = {"kind": kind}
    if param and key:
        doc[key] = param
    return potential_from_config(doc)


def _cmd_two_point(args) -> int:
    potential = _parse_entropy_potential(args.potential)
    theta_fn = entropy_theta_fn(potential)
    r1 = args.r1 if args.r1 is not None else args.r0
    clipped = not (1e-8 <= min(args.r0, r1) and max(args.r0, r1) <= 1 - 1e-8)
    if args.operation == "theta":
        value, err = entropy_induced_theta(potential, args.r0), 0.0
    else:
        if args.r1 is None:
            raise GraphSyncError(f"two-point {args.operation} needs --r1")
        q0 = x_of_r_with_error(theta_fn, args.r0)
        q1 = x_of_r_with_error(theta_fn, args.r1)
        err = q0.error_estimate + q1.error_estimate
        if args.operation == "action":
            value = _action_from_x(q0.value, q1.value)
        elif args.operation == "divergence":
            value = _divergence_from_x(q0.value, q1.value)
        else:  # solve
            if args.t is None:
                raise GraphSyncError("two-point solve needs --t")
            value = analytic_solution(theta_fn, args.r0, args.r1, args.t)
    out = {"value": float(value), "quadrature_error_estimate": float(err)}
    if clipped:
        out["boundary_clipped"] = True
    print(json.dumps(out, sort_keys=True))
    return 0


def _cmd_reproduce(args) -> int:
    names = sorted(REPRODUCE_TARGETS) if args.target == "all" else [args.target]
    for name in names:
        if name not in REPRODUCE_TARGETS:
            raise GraphSyncError(
                f"unknown target {name!r}; choose from {sorted(REPRODUCE_TARGETS)} or 'all'"
            )
    status = 0
    for name in names:
        cfg = REPRODUCE_TARGETS[name]
        try:
            summary = run_experiment(cfg, args.out_dir, check=args.check)
        except GraphSyncError as exc:
            print(f"{name}: FAIL ({exc})")
            status = 1
            continue
        verdict = "PASS" if not summary["check_failures"] else "FAIL"
        print(f"{name}: {verdict} (artifacts in {args.out_dir}/{name})")
        if summary["check_failures"]:
            status = 1
    return status


def _cmd_validate_rule(args) -> int:
    rule = rule_from_config({"kind": args.kind, "alpha": args.alpha})
    report = validate_rule(rule, grid_resolution=args.resolution)
    print(json.dumps(asdict(report), sort_keys=True))
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphsync",
        description="Synchronization dynamics on weighted graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spec = IntegratorSpec()
    for dynamics, help_text, initial in _SIMULATE:
        p = sub.add_parser("simulate-" + dynamics.replace("_", "-"), help=help_text)
        p.add_argument("--graph", required=True, help="named topology or JSON file")
        p.add_argument("--alpha", type=float, default=1.0)
        p.add_argument("--kappa", type=float, default=1.0)
        p.add_argument("--rho0", required=True, help="comma-separated densities")
        for key, required in initial.items():
            keyword = _INITIAL_KEYWORDS[key]
            p.add_argument(f"--{key}", required=required, default=keyword,
                           help=f"comma-separated values or {keyword!r}")
        p.add_argument("--scheme", choices=["euler", "rk4"], default=spec.scheme)
        p.add_argument("--dt", type=float, default=spec.dt)
        p.add_argument("--t-final", type=float, default=spec.t_final)
        p.add_argument("--record-every", type=int, default=spec.record_every)
        p.add_argument("--out", required=True, help="trajectory CSV path")
        p.set_defaults(fn=_cmd_simulate, dynamics=dynamics, initial=tuple(initial))

    p = sub.add_parser("two-point", help="closed-form two-node analytics")
    p.add_argument("operation", choices=["solve", "action", "divergence", "theta"])
    p.add_argument("--potential", required=True, help="shannon | renyi:a | tsallis:q")
    p.add_argument("--r0", type=float, required=True)
    p.add_argument("--r1", type=float)
    p.add_argument("--t", type=float)
    p.set_defaults(fn=_cmd_two_point)

    p = sub.add_parser("reproduce", help="run a bundled benchmark experiment")
    p.add_argument("target", help="fig1 fig2 fig3 ex4.1 ex4.2 ex4.3 fig7 fig8, or 'all'")
    p.add_argument("--out-dir", default="experiments")
    p.add_argument("--check", action="store_true", help="exit nonzero on unmet expectations")
    p.set_defaults(fn=_cmd_reproduce)

    p = sub.add_parser("validate-rule", help="check weight-rule admissibility")
    p.add_argument("--kind", default="min_power")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--resolution", type=int, default=100)
    p.set_defaults(fn=_cmd_validate_rule)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except GraphSyncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
