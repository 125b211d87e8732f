"""Outside-in tracing of graphsync's layers.

The tracer replaces public module attributes and class methods of
``graphsync`` with timing wrappers and puts the originals back on
``uninstall``.  Nothing under ``src/`` is edited.  A function is replaced in
every ``graphsync`` module that holds it, so names imported with ``from ..
import`` (``integrate`` in each flow module, the analysis functions in
``experiments``, ``adaptive_simpson`` in ``two_point``) are traced too.

Each call records one span: name, start, end, parent span and run id.  Spans
are kept in flat arrays in memory and written out at the end.  A span's
self time is its duration minus the durations of its child spans, and a
layer's self time is the sum over its spans; the layer is the part of the
span name before the first dot.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

import graphsync.quadrature  # loaded by two_point; imported so patching can rely on it
from graphsync.errors import NonFiniteStateError
from graphsync.graphs import Graph
from graphsync.potentials import KuramotoQuadratic
from graphsync.weights import MinPower

LAYERS = (
    "graphs", "weights", "potentials", "first_order", "second_order", "hopf_cole",
    "integrate", "analysis", "experiments", "two_point", "quadrature",
)

#: (module, attribute, span name) for plain functions.
FUNCTIONS = (
    ("graphs", "complete_graph", "graphs.complete_graph"),
    ("graphs", "build_graph", "graphs.build_graph"),
    ("graphs", "named_graph", "graphs.named_graph"),
    ("graphs", "load_graph", "graphs.load_graph"),
    ("graphs", "graph_from_json", "graphs.graph_from_json"),
    ("first_order", "simulate_first_order", "first_order.simulate"),
    # Defined in integrate, but it is the first-order flow's simplex repair.
    ("integrate", "project_simplex_clip", "first_order.clip"),
    ("second_order", "simulate_second_order", "second_order.simulate"),
    ("second_order", "gradient_flow_init", "second_order.init"),
    ("second_order", "hamiltonian", "second_order.hamiltonian"),
    ("hopf_cole", "simulate_hopf_cole", "hopf_cole.simulate"),
    ("analysis", "detect_limit", "analysis.detect_limit"),
    ("analysis", "fit_rate", "analysis.fit"),
    ("analysis", "fit_power", "analysis.fit"),
    ("analysis", "edge_dichotomy_report", "analysis.dichotomy"),
    ("experiments", "run_experiment", "experiments.run"),
    ("experiments", "run_dynamics", "experiments.dynamics"),
    ("experiments", "summarise", "experiments.summary"),
    ("experiments", "check_expectations", "experiments.check"),
    ("two_point", "simulate_two_point", "two_point.simulate"),
    ("two_point", "rhs_two_point", "two_point.rhs"),
    ("two_point", "hamiltonian_two_point", "two_point.hamiltonian"),
    ("two_point", "analytic_solution", "two_point.solve"),
    ("two_point", "action", "two_point.action"),
    ("two_point", "divergence", "two_point.divergence"),
    ("two_point", "x_of_r", "two_point.x_of_r"),
)

#: (class, method, span name).
METHODS = (
    (MinPower, "theta", "weights.theta"),
    (MinPower, "partials", "weights.partials"),
    (KuramotoQuadratic, "grad", "potentials.grad"),
    (KuramotoQuadratic, "hess", "potentials.hess"),
)

#: Field factories whose returned closures are traced: (module, attribute, span name).
FACTORIES = (
    ("first_order", "first_order_field", "first_order.field"),
    ("second_order", "second_order_field", "second_order.field"),
    ("hopf_cole", "hopf_cole_field", "hopf_cole.field"),
)

_STAGES = {"euler": 1, "rk4": 4}


class Tracer:
    """Span recorder; ``install`` patches graphsync, ``uninstall`` restores it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.run_id = 0
        self.counts: dict[int, Counter] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, value: int = 1) -> None:
        self.counts.setdefault(self.run_id, Counter())[key] += value

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, result)`` may count."""
        nid = self._intern(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.run.append(self.run_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "graphsync" and not modname.startswith("graphsync."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _patch_method(self, cls, attr: str, replacement) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        mod = lambda short: sys.modules[f"graphsync.{short}"]
        for short, attr, name in FUNCTIONS:
            fn = getattr(mod(short), attr)
            self._replace_everywhere(fn, self.span(name, fn))
        for cls, attr, name in METHODS:
            self._patch_method(cls, attr, self.span(name, cls.__dict__[attr]))
        for short, attr, name in FACTORIES:
            factory = getattr(mod(short), attr)
            self._replace_everywhere(factory, self._traced_factory(factory, name))

        self._patch_method(
            Graph, "__post_init__",
            self.span("graphs.post_init", Graph.__dict__["__post_init__"],
                      after=lambda args, _: self.count("graphs.ordered_edges", len(args[0].tail))),
        )
        write_csv = mod("experiments").write_trajectory_csv
        self._replace_everywhere(write_csv, self.span(
            "experiments.csv", write_csv,
            after=lambda args, _: self.count("experiments.csv_bytes", os.path.getsize(args[0])),
        ))
        integrate = mod("integrate").integrate
        self._replace_everywhere(integrate, self._traced_integrate(integrate))
        simpson = mod("quadrature").adaptive_simpson
        self._replace_everywhere(simpson, self._traced_simpson(simpson))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _traced_factory(self, factory, name: str):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self.span(name, factory(*args, **kwargs))

        return traced_factory

    def _traced_integrate(self, integrate):
        """Span ``integrate.run``; count steps from the stepper's rhs calls, and records."""
        traced = self.span("integrate.run", integrate)

        @functools.wraps(integrate)
        def traced_integrate(rhs, state0, spec, *args, **kwargs):
            calls = [0]

            def stepping_rhs(y):
                calls[0] += 1
                return rhs(y)

            traj = None
            try:
                traj = traced(stepping_rhs, state0, spec, *args, **kwargs)
                return traj
            except NonFiniteStateError as exc:
                traj = exc.trajectory
                raise
            finally:
                self.count("integrate.steps", calls[0] // _STAGES[spec.scheme])
                if traj is not None:
                    self.count("integrate.records", len(traj.times))

        return traced_integrate

    def _traced_simpson(self, simpson):
        """Span ``quadrature.simpson``; count integrand evaluations."""
        traced = self.span("quadrature.simpson", simpson)

        @functools.wraps(simpson)
        def traced_simpson(f, *args, **kwargs):
            evals = [0]

            def counted(x):
                evals[0] += 1
                return f(x)

            try:
                return traced(counted, *args, **kwargs)
            finally:
                self.count("quadrature.integrand_evals", evals[0])

        return traced_simpson

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict:
        """The spans as numpy arrays; call only once recording has ended."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "run": np.frombuffer(self.run, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def profiles(self) -> dict:
        """Per run id, per span name: (call count, self time in seconds)."""
        spans = self.arrays()
        dur = spans["end"] - spans["start"]
        has_parent = spans["parent"] >= 0
        child = np.bincount(spans["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        k = len(self.names)
        runs = int(spans["run"].max()) + 1 if dur.size else 0
        key = spans["run"].astype(np.int64) * k + spans["name_id"]
        calls = np.bincount(key, minlength=runs * k).reshape(runs, k)
        self_s = np.bincount(key, weights=dur - child, minlength=runs * k).reshape(runs, k)
        return {
            run: {name: (int(calls[run, i]), float(self_s[run, i])) for i, name in enumerate(self.names)}
            for run in range(runs)
        }

    def write(self, path: Path, run_id: int) -> None:
        """Write one run's spans, with the span-name table, as an uncompressed .npz."""
        spans = self.arrays()
        keep = spans["run"] == run_id
        np.savez(path, names=np.array(self.names), **{key: value[keep] for key, value in spans.items()})


def layer_metrics(profile: dict, counts: Counter, wall_s: float) -> dict:
    """The per-layer metrics of one traced run, in seconds and counts."""
    calls = lambda name: profile.get(name, (0, 0.0))[0]
    self_s = lambda *names: sum(profile.get(n, (0, 0.0))[1] for n in names)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_, seconds) in profile.items():
        layer_self[name.split(".", 1)[0]] += seconds

    steps = counts["integrate.steps"]
    rhs_evals = (calls("first_order.field") + calls("second_order.field")
                 + calls("hopf_cole.field") + calls("two_point.rhs"))
    simpson_calls = calls("quadrature.simpson")
    out = {
        "graphs.build_s": layer_self["graphs"],
        "graphs.ordered_edges": counts["graphs.ordered_edges"],
        "weights.theta_calls": calls("weights.theta"),
        "weights.theta_s": self_s("weights.theta"),
        "weights.partials_calls": calls("weights.partials"),
        "weights.partials_s": self_s("weights.partials"),
        "potentials.grad_s": self_s("potentials.grad"),
        "potentials.hess_calls": calls("potentials.hess"),
        "potentials.hess_s": self_s("potentials.hess"),
        "first_order.field_calls": calls("first_order.field"),
        "first_order.field_self_s": self_s("first_order.field"),
        "first_order.clip_calls": calls("first_order.clip"),
        "first_order.clip_s": self_s("first_order.clip"),
        "second_order.field_calls": calls("second_order.field"),
        "second_order.field_self_s": self_s("second_order.field"),
        "second_order.hamiltonian_calls": calls("second_order.hamiltonian"),
        "second_order.hamiltonian_s": self_s("second_order.hamiltonian"),
        "hopf_cole.field_calls": calls("hopf_cole.field"),
        "hopf_cole.field_self_s": self_s("hopf_cole.field"),
        "integrate.steps": steps,
        "integrate.records": counts["integrate.records"],
        "integrate.rhs_per_step": rhs_evals / steps if steps else 0.0,
        "integrate.self_s": self_s("integrate.run"),
        "integrate.self_us_per_step": 1e6 * self_s("integrate.run") / steps if steps else 0.0,
        "analysis.detect_limit_s": self_s("analysis.detect_limit"),
        "analysis.fit_s": self_s("analysis.fit"),
        "analysis.dichotomy_s": self_s("analysis.dichotomy"),
        "experiments.csv_s": self_s("experiments.csv"),
        "experiments.csv_bytes": counts["experiments.csv_bytes"],
        "experiments.summary_s": self_s("experiments.summary"),
        "two_point.rhs_calls": calls("two_point.rhs"),
        "two_point.rhs_s": self_s("two_point.rhs"),
        "two_point.hamiltonian_s": self_s("two_point.hamiltonian"),
        "two_point.solve_calls": calls("two_point.solve"),
        "two_point.solve_s": self_s("two_point.solve"),
        "two_point.x_of_r_calls": calls("two_point.x_of_r"),
        "quadrature.simpson_calls": simpson_calls,
        "quadrature.simpson_s": self_s("quadrature.simpson"),
        "quadrature.integrand_evals": counts["quadrature.integrand_evals"],
        "quadrature.evals_per_call": (
            counts["quadrature.integrand_evals"] / simpson_calls if simpson_calls else 0.0
        ),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - sum(layer_self.values())
    return out
