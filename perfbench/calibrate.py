"""Measure how fast the machine runs while a job runs, and take it out.

The benchmark shares its CPUs with other tenants.  Their load changes the
speed of the same code by up to about 1.6x, within seconds as well as over
minutes.  A process on the other CPU does not see the change, so the speed
is sampled in the job's own thread.  :class:`SpeedProbe` interrupts the job
every ``PERIOD_S`` of wall time with SIGALRM and times one slice of a fixed
reference kernel.  Its :meth:`SpeedProbe.clock` leaves the slices out.  The
benchmark multiplies every time it reports by :meth:`SpeedProbe.factor`, the
kernel's nominal slice time over its mean slice time.  That gives seconds at
the speed the machine had when the benchmark was defined.

Contention slows different code by different amounts, so each workload
names the kernel that resembles it.  The kernels use none of the package's
code, so a change to the package moves the reported times as it moves raw
time.  A kernel must never change: a new kernel or nominal time rescales
every reported time.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import statistics
import time

PERIOD_S = 0.05


class _Poly:
    __slots__ = ("c",)

    def __init__(self, c):
        n = len(c)
        while n and c[n - 1] == 0:
            n -= 1
        self.c = tuple(c[:n])


def _mul(a: _Poly, b: _Poly, p: int) -> _Poly:
    out = [0] * (len(a.c) + len(b.c) - 1)
    for i, x in enumerate(a.c):
        if x:
            for j, y in enumerate(b.c):
                if y:
                    out[i + j] = (out[i + j] + x * y) % p
    return _Poly(out)


def _mod(a: _Poly, b: _Poly, p: int) -> _Poly:
    rem = list(a.c)
    db = len(b.c) - 1
    inv = pow(b.c[-1], p - 2, p)
    for s in range(len(rem) - 1 - db, -1, -1):
        c = rem[s + db]
        if c:
            f = c * inv % p
            for i, y in enumerate(b.c):
                rem[s + i] = (rem[s + i] - f * y) % p
    return _Poly(rem)


def _arith_slice() -> None:
    p = 7
    tally: dict[str, int] = {}
    for r in range(300):
        a = _Poly([(r * 3 + i) % p for i in range(5)] + [1])
        b = _Poly([(r + i * 5) % p for i in range(3)] + [1])
        m = _mod(_mul(a, b, p), _Poly([r % p, 1, 1]), p)
        key = str(m.c)
        tally[key] = tally.get(key, 0) + 1


def _cli_slice() -> None:
    for _ in range(4):
        parser = argparse.ArgumentParser(prog="kernel")
        sub = parser.add_subparsers(dest="command", required=True)
        for name in ("count", "snf", "factor", "verify"):
            p = sub.add_parser(name, help=name)
            p.add_argument("--q", required=True)
            p.add_argument("--n", type=int)
            p.add_argument("--format", choices=("json", "csv"), default="json")
        args = parser.parse_args(["snf", "--q", "9", "--n", "3"])
        text = json.dumps({"q": args.q, "n": args.n,
                           "diagonal": [str(i) for i in range(20)]},
                          sort_keys=True, separators=(",", ":"))
        json.loads(text)
        re.findall(r"([+-]?)([^+-]+)", "x^3+[2]*x+1")


# name -> (one slice, its median seconds on a 2-vCPU x86-64 container with
# Python 3.11.7).  "arith" resembles the enumeration and census layers,
# "cli" the per-request work of argument parsing and JSON.
KERNELS = {
    "arith": (_arith_slice, 0.0058),
    "cli": (_cli_slice, 0.0044),
}


def slice_seconds(kernel: str) -> float:
    """Seconds one slice of the named reference kernel takes."""
    run = KERNELS[kernel][0]
    t0 = time.perf_counter()
    run()
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the kernel's speed in the calling thread while in a ``with``.

    Only the main thread of a process can use it, and only one at a time.
    """

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.slices: list[float] = []
        self.stolen_s = 0.0

    def clock(self) -> float:
        """``time.perf_counter`` minus the time spent in kernel slices."""
        while True:
            before = self.stolen_s
            now = time.perf_counter()
            if self.stolen_s == before:  # no slice ran between the reads
                return now - before

    def factor(self) -> float:
        """Multiply a time measured by :meth:`clock` by this factor."""
        return KERNELS[self.kernel][1] / statistics.mean(self.slices)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.slices.append(slice_seconds(self.kernel))
        self.stolen_s += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        # Stop the timer before the old handler returns, so no alarm can
        # reach the default action, which would end the process.
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.slices:
            self.slices.append(slice_seconds(self.kernel))
