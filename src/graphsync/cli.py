"""Command-line interface.

Subcommands: simulate-first, simulate-second, simulate-hopf-cole (trajectory
CSVs), two-point (closed-form analytics as JSON), reproduce (bundled
benchmark experiments with optional --check), and validate-rule.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .errors import DomainError, GraphSyncError
from .experiments import (
    ExperimentConfig,
    REPRODUCE_TARGETS,
    run_dynamics,
    run_experiment,
    write_trajectory_csv,
)
from .potentials import potential_from_config
from .two_point import (
    _action_from_x,
    _divergence_from_x,
    analytic_solution,
    entropy_induced_theta,
    entropy_theta_fn,
    x_of_r_with_error,
)
from .weights import MinPower, rule_from_config, validate_rule


def _csv_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise DomainError(f"expected comma-separated numbers, got {text!r}") from None


def _add_integrator_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scheme", choices=["euler", "rk4"], default="rk4")
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--t-final", type=float, default=10.0)
    p.add_argument("--record-every", type=int, default=1)


def _integrator_doc(args) -> dict:
    return {
        "scheme": args.scheme,
        "dt": args.dt,
        "t_final": args.t_final,
        "record_every": args.record_every,
    }


def _simulate(cfg: ExperimentConfig, out_path: str) -> int:
    traj, notes = run_dynamics(cfg)
    from pathlib import Path

    write_trajectory_csv(Path(out_path), cfg, traj)
    brief = {
        "out": out_path,
        "records": int(len(traj.times)),
        "final_time": traj.final_time,
        "stop_reason": traj.stop_reason,
    }
    brief.update(notes)
    print(json.dumps(brief, sort_keys=True))
    return 0


def _cmd_simulate_first(args) -> int:
    cfg = ExperimentConfig(
        name="simulate-first",
        dynamics="first",
        graph=args.graph,
        theta={"kind": "min_power", "alpha": args.alpha},
        potential={"kind": "kuramoto", "kappa": args.kappa},
        rho0=_csv_floats(args.rho0),
        integrator=_integrator_doc(args),
    )
    return _simulate(cfg, args.out)


def _cmd_simulate_second(args) -> int:
    s0 = "gradflow" if args.s0 == "gradflow" else _csv_floats(args.s0)
    cfg = ExperimentConfig(
        name="simulate-second",
        dynamics="second",
        graph=args.graph,
        theta={"kind": "min_power", "alpha": args.alpha},
        potential={"kind": "kuramoto", "kappa": args.kappa},
        rho0=_csv_floats(args.rho0),
        s0=s0,
        integrator=_integrator_doc(args),
    )
    return _simulate(cfg, args.out)


def _cmd_simulate_hopf_cole(args) -> int:
    xi0 = "zero" if args.xi0 == "zero" else _csv_floats(args.xi0)
    xistar0 = "from-rho" if args.xistar0 == "from-rho" else _csv_floats(args.xistar0)
    cfg = ExperimentConfig(
        name="simulate-hopf-cole",
        dynamics="hopf_cole",
        graph=args.graph,
        theta={"kind": "min_power", "alpha": args.alpha},
        potential={"kind": "kuramoto", "kappa": args.kappa},
        rho0=_csv_floats(args.rho0),
        xi0=xi0,
        xistar0=xistar0,
        integrator=_integrator_doc(args),
    )
    return _simulate(cfg, args.out)


# Two-node entropy potentials by CLI name, with the name of their parameter.
_ENTROPY_PARAMS = {"shannon": None, "renyi": "alpha", "tsallis": "q"}


def _parse_entropy_potential(text: str):
    """``kind[:param]`` as an entropy potential, through potential_from_config."""
    kind, _, param = text.partition(":")
    if kind not in _ENTROPY_PARAMS:
        raise DomainError(
            f"unknown two-point potential {text!r}; expected shannon, renyi:a or tsallis:q"
        )
    doc = {"kind": kind}
    if param and _ENTROPY_PARAMS[kind]:
        doc[_ENTROPY_PARAMS[kind]] = param
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
    if args.kind == "min_power":
        rule = MinPower(alpha=args.alpha)
    else:
        rule = rule_from_config({"kind": args.kind})
    report = validate_rule(rule, grid_resolution=args.resolution)
    print(json.dumps(asdict(report), sort_keys=True))
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphsync",
        description="Synchronization dynamics on weighted graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-first", help="first-order concentration flow")
    p.add_argument("--graph", required=True, help="named topology or JSON file")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--rho0", required=True, help="comma-separated densities")
    _add_integrator_args(p)
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.set_defaults(fn=_cmd_simulate_first)

    p = sub.add_parser("simulate-second", help="second-order Hamiltonian flow")
    p.add_argument("--graph", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--rho0", required=True)
    p.add_argument("--s0", required=True, help="comma-separated S or 'gradflow'")
    _add_integrator_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_simulate_second)

    p = sub.add_parser("simulate-hopf-cole", help="flow in split (xi, xi*) variables")
    p.add_argument("--graph", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--rho0", required=True)
    p.add_argument("--xi0", default="zero", help="'zero' or comma-separated values")
    p.add_argument("--xistar0", default="from-rho", help="'from-rho' or comma-separated")
    _add_integrator_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_simulate_hopf_cole)

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
