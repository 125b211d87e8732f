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

from .errors import GraphSyncError
from .experiments import (
    ExperimentConfig,
    REPRODUCE_TARGETS,
    run_and_write,
    run_experiment,
    write_trajectory_csv,
)
from .flows import FLOWS
from .integrate import IntegratorSpec
from .potentials import _KINDS, potential_from_config
from .two_point import (
    BOUNDARY_CLIP,
    _action_from_x,
    _divergence_from_x,
    _path,
    _x_pair,
    entropy_induced_theta,
    entropy_theta_fn,
)
from .weights import _KINDS as WEIGHT_KINDS, EntropyInduced, rule_from_config, validate_rule

def _vector(text: str, keyword=None):
    """A comma-separated vector as a list of strings, or the keyword itself."""
    return text if text == keyword else text.split(",")


def _cmd_simulate(args) -> int:
    cfg = ExperimentConfig(
        name=args.command,
        dynamics=args.dynamics,
        graph=args.graph,
        theta={"kind": "min_power", "alpha": args.alpha},
        potential={"kind": "kuramoto", "kappa": args.kappa},
        rho0=_vector(args.rho0),
        integrator={f.name: getattr(args, f.name) for f in fields(IntegratorSpec)},
        **{key: _vector(getattr(args, key), block.keyword)
           for key, block in FLOWS[args.dynamics].initial.items()},
    )
    write = lambda traj, error: write_trajectory_csv(Path(args.out), cfg, traj)
    traj, _ = run_and_write(cfg, write)
    print(json.dumps({"out": args.out, "records": int(len(traj.times)),
                      "final_time": traj.final_time, "stop_reason": traj.stop_reason},
                     sort_keys=True))
    return 0


def _parse_entropy_potential(text: str):
    """``kind[:param]`` as a potential document, through potential_from_config; text past the
    kind's parameters lands in "param", which no kind takes.  The analytics refuse a non-entropy."""
    readers = _KINDS.get(text.partition(":")[0], (None, {}))[1]
    return potential_from_config(dict(zip(["kind", *readers, "param"], text.split(":"))))


def _cmd_two_point(args) -> int:
    potential = _parse_entropy_potential(args.potential)
    theta_fn = entropy_theta_fn(potential)
    r1 = args.r1 if args.r1 is not None else args.r0
    clipped = not (BOUNDARY_CLIP <= min(args.r0, r1) and max(args.r0, r1) <= 1 - BOUNDARY_CLIP)
    if args.operation == "theta":
        value, err = entropy_induced_theta(potential, args.r0), 0.0
    elif args.r1 is None:
        raise GraphSyncError(f"two-point {args.operation} needs --r1")
    elif args.operation == "solve":
        if args.t is None:
            raise GraphSyncError("two-point solve needs --t")
        value, err = _path(theta_fn, args.r0, args.r1, args.t)
    else:
        x = _x_pair(theta_fn, args.r0, args.r1)
        (x0, x1), err = x.value.tolist(), sum(x.error_estimate.tolist())
        value = (_action_from_x if args.operation == "action" else _divergence_from_x)(x0, x1)
    out = {"value": float(value), "quadrature_error_estimate": float(err)}
    if clipped:
        out["boundary_clipped"] = True
    print(json.dumps(out, sort_keys=True))
    return 0


def _cmd_reproduce(args) -> int:
    if args.target not in (*REPRODUCE_TARGETS, "all"):
        raise GraphSyncError(
            f"unknown target {args.target!r}; choose from {sorted(REPRODUCE_TARGETS)} or 'all'")
    status = 0
    for name in sorted(REPRODUCE_TARGETS) if args.target == "all" else [args.target]:
        try:
            failures = run_experiment(REPRODUCE_TARGETS[name], args.out_dir)["check_failures"]
        except GraphSyncError as exc:
            print(f"{name}: FAIL ({exc})")
            status = 1
            continue
        detail = "; ".join([*failures, f"artifacts in {args.out_dir}/{name}"])
        print(f"{name}: {'FAIL' if failures else 'PASS'} ({detail})")
        if failures and args.check:
            status = 1
    return status


def _cmd_validate_rule(args) -> int:
    alpha = {} if args.alpha is None else {"alpha": args.alpha}
    rule = rule_from_config({"kind": args.kind, **alpha})
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
    for dynamics, flow in FLOWS.items():  # one simulate-* command per graph flow
        p = sub.add_parser("simulate-" + dynamics.replace("_", "-"), help=flow.help)
        p.add_argument("--graph", required=True, help="named topology or JSON file")
        p.add_argument("--alpha", type=float, default=1.0)
        p.add_argument("--kappa", type=float, default=1.0)
        p.add_argument("--rho0", required=True, help="comma-separated densities")
        for key, block in flow.initial.items():
            p.add_argument(f"--{key}", required=block.required, default=block.keyword,
                           help=f"comma-separated values or {block.keyword!r}")
        p.add_argument("--scheme", choices=["euler", "rk4"], default=spec.scheme)
        p.add_argument("--dt", type=float, default=spec.dt)
        p.add_argument("--t-final", type=float, default=spec.t_final)
        p.add_argument("--record-every", type=int, default=spec.record_every)
        p.add_argument("--out", required=True, help="trajectory CSV path")
        p.set_defaults(fn=_cmd_simulate, dynamics=dynamics)

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
    # The graph weights: the induced one lives on two nodes only (see two-point theta).
    graph_kinds = [kind for kind, (cls, _) in WEIGHT_KINDS.items() if cls is not EntropyInduced]
    p.add_argument("--kind", default="min_power", choices=graph_kinds)
    p.add_argument("--alpha", type=float, help="min_power's exponent (default 1)")
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
