"""Recompute ``pins.json``: the SHA-256 of every operation's output.

    python3 perfbench/pin.py

Pins record the outputs of the commit they were made at.  Outputs must stay
byte-identical from then on, so a change that alters a pin changes what the
program prints and must say so; it is not a way to make a failing run pass.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> None:
    pkg = workloads.package()
    pins: dict[str, str] = {}
    for workload in workloads.WORKLOADS.values():
        if workload.ops:
            result = workloads.run_batch(pkg, workload, 0, {})
            pins.update(result.digests)
    for stream in range(workloads.QUERY_STREAMS):
        pins.update(workloads.run_queries(pkg, stream, {}).digests)
        print(f"stream {stream} pinned", file=sys.stderr)
    with open(workloads.PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
