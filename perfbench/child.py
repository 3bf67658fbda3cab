"""One fresh interpreter of the benchmark: timed set-up, then one job.

    python3 perfbench/child.py ROLE WORKLOAD SEED FIELDS

ROLE is ``pass`` (one untraced workload pass), ``traced`` (one pass with
spans and counters) or ``micro`` (the microbenchmarks).  FIELDS is the
comma-separated list of field orders the workload uses.  The reference
``calibrate.SpeedProbe`` samples the machine's speed during the job, and
every time the job measures leaves its samples out.
Set-up is ``import pencilcensus`` plus ``field_new`` for each field, timed
from the top of this file, before any other module of the benchmark is
imported.
The last line on stdout is one JSON object.
"""

import sys
import time

_T0 = time.perf_counter()

import os  # noqa: E402  (loaded by interpreter start-up already)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import pencilcensus  # noqa: E402,F401
from pencilcensus import gf  # noqa: E402

for _spec in sys.argv[4].split(","):
    gf.parse_field_spec(_spec)
SETUP_S = time.perf_counter() - _T0

import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import calibrate  # noqa: E402
import micro  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".bench_out")


def main() -> None:
    role, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    pkg = workloads.package()
    out = {"role": role, "setup_s": SETUP_S}
    workload = workloads.WORKLOADS[name]
    kernel = "arith" if role == "micro" else workload.kernel
    with calibrate.SpeedProbe(kernel) as probe:
        if role == "micro":
            out["metrics"] = micro.run(pkg, seed, probe.clock)
        else:
            pins = workloads.load_pins()
            if role == "pass":
                result = workloads.run_pass(pkg, workload, seed, pins,
                                            probe.clock)
            else:
                with tracer.Tracer(pkg, probe.clock) as tr:
                    result = workloads.run_pass(pkg, workload, seed, pins,
                                                probe.clock)
    if role != "micro":
        out["pass"] = dataclasses.asdict(result)
    if role == "traced":
        out["metrics"], out["layers"] = tr.layer_metrics(result.wall_s)
        os.makedirs(OUT_DIR, exist_ok=True)
        tr.write(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.json.gz"))
    out["speed_factor"] = probe.factor()
    out["speed_slices"] = len(probe.slices)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
