#!/usr/bin/env python3
"""The graphsync benchmark: one seeded, checked workload per call.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports graphsync from ``src``.
``--trace 0`` measures the end-to-end metrics with no tracing: the median of
several set-up probes, each in a fresh process, then checked passes for
``--seconds`` seconds in one more process.  ``--trace 1`` gives the per-layer
metrics from a traced run (see ``tracer.py``).  Every result is checked;
a failed check or an unexpected error counts as a failed item.

The end-to-end times are scaled by a reference load timed next to and
inside each item, so that a drift in the speed of a shared CPU cancels (see
``reference.py``); the report also gives them unscaled.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is the full report: every metric with its unit and sample count,
``failed_frac``, the failures, the seed and the environment.  The report is
also written to ``perfbench/_work/``, next to the span file of a traced run.

The command exits nonzero, printing no result, when a child process fails.
Workloads and metrics are described in ``NOTES.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = HERE / "_work"

WORKLOADS = ("reproduce", "energy_sweep", "complete_large", "two_node")
#: Seed kept out of tuning; a claimed gain must also hold on it.
HOLDOUT_SEED = 9973
#: Set-up probes per run; set-up time is their median.
SETUP_PROBES = 5
#: The whole command must end within 180 s.
DEADLINE_S = 170.0
#: One BLAS/OpenMP thread, at or below nproc, so both sides of a comparison run alike.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

_PER_LAYER_UNITS = {
    "graphs.ordered_edges": "count",
    "experiments.csv_bytes": "bytes",
    "integrate.steps": "count",
    "integrate.records": "count",
    "integrate.rhs_per_step": "calls/step",
    "integrate.self_us_per_step": "us/step",
    "quadrature.integrand_evals": "count",
    "quadrature.evals_per_call": "evals/call",
    "trace.overhead_frac": "fraction",
}


def per_layer_unit(name: str) -> str:
    if name in _PER_LAYER_UNITS:
        return _PER_LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _child(role: str, args, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), role, args.workload, str(args.seed),
        str(args.seconds), "1" if args.smoke else "0", str(WORK_DIR),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {role} step")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} step timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{role} step exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha(root: Path):
    """HEAD's commit when the checkout is a git work tree, else None."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _src_digest(root: Path) -> str:
    """SHA-256 over the package sources, naming the code when git is absent."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _quantile(values: list, q: float) -> float:
    """Linear-interpolation quantile, as numpy.percentile's default."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def end_to_end(args, deadline: float) -> tuple[dict, dict, dict]:
    """Set-up probes, then the measured passes; returns (metrics, samples, raw).

    ``raw`` also carries the metrics before scaling by the reference load
    (see ``reference.py``) under ``unscaled``.
    """
    _child("import", args, deadline)
    probes = 1 if args.smoke else SETUP_PROBES
    setups = [_child("setup", args, deadline) for _ in range(probes)]
    raw = _child("measure", args, deadline)
    setup_raw = [probe["setup_s"] for probe in setups]
    setup_s = [reference.scale_one(probe["setup_s"], probe["references_s"]) for probe in setups]
    latencies_raw = [p["latencies_s"] for p in raw["passes"]]
    latencies = [reference.scale(p["latencies_s"], p["references_s"]) for p in raw["passes"]]
    raw["unscaled"] = _times(setup_raw, latencies_raw)
    metrics = {**_times(setup_s, latencies), "peak_rss_mb": raw["peak_rss_mb"]}
    n_items = sum(len(p) for p in latencies)
    samples = {
        "setup_s": len(setups),
        "wall_s": len(latencies),
        "item_p50_ms": n_items,
        "item_p90_ms": n_items,
        "peak_rss_mb": 1,
    }
    return metrics, samples, raw


def _times(setups: list, latencies: list) -> dict:
    """Median set-up, median pass (sum of its items) and pooled item quantiles."""
    pooled_ms = [1e3 * t for pass_latencies in latencies for t in pass_latencies]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(p) for p in latencies),
        "item_p50_ms": _quantile(pooled_ms, 0.5),
        "item_p90_ms": _quantile(pooled_ms, 0.9),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (args.seconds > 0):
        parser.error("--seconds must be positive")

    # Exit through Python on SIGTERM, so subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "graphsync" / "__init__.py").is_file():
        print(f"run.py: no graphsync sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            raw = _child("trace", args, deadline)
            metrics = raw["layers"]
            units = {name: per_layer_unit(name) for name in metrics}
            samples = {}
        else:
            metrics, samples, raw = end_to_end(args, deadline)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    attempted = raw["attempted"]
    failed = len(raw["failures"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "metrics": {
            name: {"value": value, "unit": units[name], **({"samples": samples[name]} if name in samples else {})}
            for name, value in metrics.items()
        },
        "failed_frac": {"value": failed / attempted, "unit": "fraction", "samples": attempted},
        "failures": raw["failures"],
        "unscaled": raw.get("unscaled"),
        "reference_s": reference.REFERENCE_S,
        "passes": raw["passes"],
        "spans": raw.get("spans"),
        "env": {**raw["env"], "git_sha": _git_sha(ROOT), "src_sha256": _src_digest(ROOT)},
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (WORK_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n"
    )
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
