"""Child process of the benchmark: one set-up probe, measured run or traced run.

    python3 perfbench/worker.py ROLE WORKLOAD SEED SECONDS SMOKE WORK_DIR

``run.py`` starts it from the root of a checkout with ``src`` on
``PYTHONPATH`` and the BLAS/OpenMP thread count fixed.  ROLE is ``import``
(import only, so later probes find compiled modules), ``setup`` (time the
import plus the building of the inputs), ``measure`` (checked passes with no
tracing) or ``trace`` (untraced passes, then traced set-up-plus-pass units).
The result is one JSON object on standard output.
"""
from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

#: A measured run makes at least this many passes.
MIN_PASSES = 2
#: Reference loads timed after each set-up probe, besides those inside it.
SETUP_REFERENCES = 9


@dataclass
class PassResult:
    wall_s: float
    latencies_s: list
    failures: list
    #: Per item, the reference loads timed around and inside it (``reference.py``).
    references_s: list = field(default_factory=list)


def run_pass(items, reference=None) -> PassResult:
    """Run every item once, in order; count each failed check or error.

    With a ``reference.Reference`` the reference load is timed before the
    first item, after each item and on its timer inside each item; the
    time spent in it is taken out of the item's latency.
    """
    latencies = []
    failures = []
    references = []
    clock = time.perf_counter
    if reference is not None:
        reference.sample()
    for item in items:
        if reference is not None:
            first, stolen = len(reference.samples) - 1, reference.stolen_s
        start = clock()
        try:
            problems = item.run()
        except Exception as exc:  # the gate: any unexpected error fails the item
            problems = [f"{type(exc).__name__}: {exc}"]
        latency = clock() - start
        if reference is not None:
            latency -= reference.stolen_s - stolen
            reference.sample()
            references.append(reference.samples[first:])
        latencies.append(latency)
        if problems:
            failures.append(f"{item.name}: " + "; ".join(problems))
    return PassResult(sum(latencies), latencies, failures, references)


def _timed_pass(items, reference=None) -> tuple:
    t0 = time.perf_counter()
    result = run_pass(items, reference)
    return time.perf_counter() - t0, result


def _repeat(step, seconds: float, at_least: int = 1) -> list:
    """Call ``step`` ``at_least`` times, then again while the next call should end in time.

    ``step`` returns ``(elapsed_s, PassResult)``; the list of those is returned.
    """
    runs = []
    t0 = time.perf_counter()
    while True:
        runs.append(step())
        typical = statistics.median(wall for wall, _ in runs)
        if len(runs) >= at_least and time.perf_counter() - t0 + typical > 1.1 * seconds:
            return runs


def _summary(runs: list) -> dict:
    passes = [result for _, result in runs]
    return {
        "passes": [
            {"wall_s": p.wall_s, "latencies_s": p.latencies_s, "references_s": p.references_s} for p in passes
        ],
        "attempted": sum(len(p.latencies_s) for p in passes),
        "failures": [f for p in passes for f in p.failures],
    }


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def setup_probe(build, t0: float) -> dict:
    """Set-up time since ``t0`` (the imports) plus the build of the inputs.

    The reference load samples the build on its timer, and its time there is
    taken out; more loads follow the build.
    """
    from reference import Reference

    with Reference() as reference:
        build()
        setup_s = time.perf_counter() - t0 - reference.stolen_s
    for _ in range(SETUP_REFERENCES):
        reference.sample()
    return {"setup_s": setup_s, "references_s": reference.samples}


def measure(items, seconds: float) -> dict:
    from reference import Reference

    with Reference() as reference:
        runs = _repeat(lambda: _timed_pass(items, reference), seconds, at_least=MIN_PASSES)
    out = _summary(runs)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def trace(build, items, seconds: float, spans_path: Path) -> dict:
    """A third of the time untraced passes, the rest traced set-up-plus-pass units.

    Per-layer numbers come from the unit with the median wall time, so that
    its layer self times and the remainder add up to its wall time exactly.
    """
    from tracer import Tracer, layer_metrics

    untraced = _repeat(lambda: _timed_pass(items), seconds / 3.0)
    tracer = Tracer()

    def unit():
        t0 = time.perf_counter()
        result = run_pass(build())
        wall = time.perf_counter() - t0
        tracer.run_id += 1
        return wall, result

    tracer.install()
    try:
        units = _repeat(unit, 2.0 * seconds / 3.0)
    finally:
        tracer.uninstall()
    order = sorted(range(len(units)), key=lambda i: units[i][0])
    mid = order[(len(order) - 1) // 2]
    metrics = layer_metrics(tracer.profiles()[mid], tracer.counts.get(mid, Counter()), units[mid][0])
    traced_wall = statistics.median(result.wall_s for _, result in units)
    untraced_wall = statistics.median(wall for wall, _ in untraced)
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    tracer.write(spans_path, mid)
    out = _summary(untraced + units)
    out["layers"] = metrics
    out["spans"] = {"file": spans_path.name, "count": len(tracer.start), "unit": mid, "units": len(units)}
    return out


def main(argv: list) -> int:
    role, workload, seed, seconds, smoke, work_dir = argv
    seed, seconds, smoke, work_dir = int(seed), float(seconds), smoke == "1", Path(work_dir)
    t0 = time.perf_counter()
    import workloads  # imports numpy and graphsync: part of set-up time

    if role == "import":
        out = {}
    else:
        build = lambda: workloads.WORKLOADS[workload](seed, smoke, work_dir)
        if role == "setup":
            out = setup_probe(build, t0)
        elif role == "measure":
            out = measure(build(), seconds)
        elif role == "trace":
            out = trace(build, build(), seconds, work_dir / f"spans-{workload}-seed{seed}.npz")
        else:
            raise SystemExit(f"unknown role {role!r}")
        out["env"] = _environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
