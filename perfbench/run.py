"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every pass of a workload is a fresh
interpreter (``child.py``) with one worker and one client, so each pass pays
import cost and cold caches as a CLI user does.

``--trace 0`` runs untraced passes one after another until S seconds are used
(at least ``MIN_PASSES``) and prints the end-to-end metrics, each the median
over the run's passes.  ``--trace 1`` runs the microbenchmarks in a process of
their own, one traced pass and then untraced passes for the tracing overhead,
and prints the per-layer metrics.
Every time is scaled to nominal machine speed by the child's
``speed_factor`` (see ``calibrate.py``).

The last line on stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A record with every per-pass sample is written
to ``.bench_out/`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MIN_PASSES = 3
RUN_LIMIT_S = 170  # every run ends well inside the 180 s a run may take

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
}
PER_LAYER = {
    "gf.add_ns.prime": "ns", "gf.add_ns.char2": "ns", "gf.add_ns.oddext": "ns",
    "gf.mul_ns.prime": "ns", "gf.mul_ns.char2": "ns", "gf.mul_ns.oddext": "ns",
    "gf.field_op_calls": "count",
    "polyring.mul_ns.q2": "ns", "polyring.mul_ns.q9": "ns",
    "polyring.divmod_ns.q2": "ns", "polyring.divmod_ns.q9": "ns",
    "polyring.mul_calls": "count", "polyring.divmod_calls": "count",
    "polyring.poly_new": "count",
    "polyring.factorize_s": "s", "polyring.factorize_calls": "count",
    "polyring.irreducibles_s": "s",
    "smith.snf_us.q2n4": "us", "smith.snf_us.q9n2": "us",
    "smith.snf_calls": "count",
    "census.count_calls": "count", "census.tuples_tried": "count",
    "census.keys": "count", "census.key_yield": "ratio",
    "census.self_s": "s",
    "oracle.chunks": "count", "oracle.matrices": "count",
    "oracle.classify_calls": "count", "oracle.classify_per_matrix": "ratio",
    "cli.calls": "count",
    "trace.overhead": "ratio", "trace.coverage": "ratio",
    "trace.spans": "count",
}
TIME_UNITS = ("s", "us", "ns")


def git_revision() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class Run:
    """The children of one run and the samples they report."""

    def __init__(self, workload: workloads.Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.children: list[dict] = []
        # Bytecode is cached as for an installed package, so set-up is import
        # time, not compile time, after the first pass in a checkout.
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def child(self, role: str) -> dict | None:
        """Run one child to completion; None if it crashed or timed out."""
        fields = ",".join(str(q) for q in self.workload.fields)
        argv = [sys.executable, os.path.join(HERE, "child.py"), role,
                self.workload.name, str(self.seed), fields]
        t0 = time.monotonic()
        record = {"role": role, "ok": False}
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(RUN_LIMIT_S - self.elapsed(), 1))
            if proc.returncode == 0:
                record = json.loads(proc.stdout.splitlines()[-1])
                record["ok"] = True
            else:
                record["stderr"] = proc.stderr[-2000:]
        except subprocess.TimeoutExpired:
            record["stderr"] = "timed out"
        record["child_s"] = time.monotonic() - t0
        self.children.append(record)
        if not record["ok"]:
            print(f"{role} child failed: {record['stderr']}", file=sys.stderr)
            return None
        return record

    def passes(self, minimum: int, deadline: float) -> list[dict]:
        """Untraced passes until the next one would overrun ``deadline``."""
        done = []
        while True:
            t0 = time.monotonic()
            self.child("pass")
            done.append(self.children[-1])
            took = time.monotonic() - t0
            if len(done) >= minimum and self.elapsed() + took > deadline:
                return [c for c in done if c["ok"]]

    def tally(self) -> tuple[int, int]:
        attempted = failed = 0
        for c in self.children:
            if c["role"] == "micro":
                continue
            if c["ok"]:
                attempted += c["pass"]["attempted"]
                failed += c["pass"]["failed"]
            else:
                attempted += self.workload.op_count
                failed += self.workload.op_count
        return attempted, failed


def end_to_end(run: Run, seconds: float) -> dict[str, float] | None:
    passes = run.passes(MIN_PASSES, seconds)
    if not passes:
        return None
    return {
        "wall_s": statistics.median(
            c["pass"]["wall_s"] * c["speed_factor"] for c in passes),
        "setup_s": statistics.median(
            c["setup_s"] * c["speed_factor"] for c in passes),
        "peak_rss_mb": statistics.median(c["rss_mb"] for c in passes),
        "items_per_s": statistics.median(
            c["pass"]["items"] / (c["pass"]["item_s"] * c["speed_factor"])
            for c in passes),
    }


def _scaled(child: dict) -> dict[str, float]:
    factor = child["speed_factor"]
    return {name: value * factor if PER_LAYER[name] in TIME_UNITS else value
            for name, value in child["metrics"].items()}


def per_layer(run: Run, seconds: float) -> dict[str, float] | None:
    micro = run.child("micro")
    traced = run.child("traced")
    passes = run.passes(1, seconds)
    if micro is None or traced is None or not passes:
        return None
    untraced = statistics.median(
        c["pass"]["wall_s"] * c["speed_factor"] for c in passes)
    metrics = dict(_scaled(micro), **_scaled(traced))
    metrics["trace.overhead"] = (
        traced["pass"]["wall_s"] * traced["speed_factor"] / untraced)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pencilcensus",
                                       "__init__.py")):
        print("run.py: no src/pencilcensus under the working tree; run it "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    run = Run(workloads.WORKLOADS[args.workload], args.seed)
    measure = per_layer if args.trace else end_to_end
    values = measure(run, args.seconds)
    if values is None:
        print("run.py: no pass completed, nothing to report", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    attempted, failed = run.tally()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    write_record(args, run, result)
    print(json.dumps(result))
    return 0


def latency_summary(run: Run) -> dict:
    """Pooled per-operation latency (ms at nominal speed) of the passes.

    p99 is given only when at least 30 samples lie beyond it.
    """
    samples = sorted(ms * c["speed_factor"] for c in run.children
                     if c["ok"] and c["role"] == "pass"
                     for ms in c["pass"]["latencies_ms"])
    summary = {"samples": len(samples)}
    if samples:
        summary["p50_ms"] = statistics.median(samples)
    if len(samples) >= 3000:
        summary["p99_ms"] = statistics.quantiles(samples, n=100)[98]
    return summary


def write_record(args, run: Run, result: dict) -> None:
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
        "run_s": run.elapsed(),
        "result": result,
        "latency": latency_summary(run),
        "children": run.children,
    }
    path = os.path.join(
        out_dir, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
