"""Seeded microbenchmarks of field ops, ``Poly`` mul/divmod and per-pencil SNF.

Each figure is the median over ``REPEATS`` timed loops of the time per call,
loop overhead included.  Operands come from ``random.Random(seed)``, so a
seed fixes the inputs.  Run in a process of its own, so no cache is shared
with a workload pass.
"""

from __future__ import annotations

import random
import statistics
import time

REPEATS = 7
FIELD_KINDS = (("prime", 7), ("char2", 8), ("oddext", 9))


def _per_call_ns(clock, loop, calls: int) -> float:
    loop()  # warm-up: first calls may fill lazy tables
    samples = []
    for _ in range(REPEATS):
        t0 = clock()
        loop()
        samples.append((clock() - t0) * 1e9 / calls)
    return statistics.median(samples)


def _field_ops(clock, gf, rng, out: dict) -> None:
    for kind, q in FIELD_KINDS:
        f = gf.parse_field_spec(str(q))
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(20000)]
        for op in ("add", "mul"):
            fn = getattr(f, op)

            def loop(fn=fn):
                for a, b in pairs:
                    fn(a, b)

            out[f"gf.{op}_ns.{kind}"] = _per_call_ns(clock, loop, len(pairs))


def _poly_ops(clock, gf, polyring, rng, out: dict) -> None:
    Poly = polyring.Poly
    for q in (2, 9):
        f = gf.parse_field_spec(str(q))

        def rand_poly(nonzero: bool):
            while True:
                size = rng.randint(1, 5)
                p = Poly(f, [rng.randrange(q) for _ in range(size)])
                if p.coeffs or not nonzero:
                    return p

        pairs = [(rand_poly(False), rand_poly(True)) for _ in range(2000)]

        def mul_loop():
            for a, b in pairs:
                a * b

        def divmod_loop():
            for a, b in pairs:
                divmod(a, b)

        out[f"polyring.mul_ns.q{q}"] = _per_call_ns(clock, mul_loop,
                                                    len(pairs))
        out[f"polyring.divmod_ns.q{q}"] = _per_call_ns(clock, divmod_loop,
                                                       len(pairs))


def _pencil_snf(clock, gf, smith, rng, out: dict) -> None:
    for q, n in ((2, 4), (9, 2)):
        f = gf.parse_field_spec(str(q))
        mats = [gf.ScalarMatrix(n, n, [rng.randrange(q) for _ in range(n * n)])
                for _ in range(300)]

        def loop():
            for b in mats:
                smith.pencil_invariant_factors(f, b)

        out[f"smith.snf_us.q{q}n{n}"] = (
            _per_call_ns(clock, loop, len(mats)) / 1e3)


def run(pkg, seed: int, clock=time.perf_counter) -> dict[str, float]:
    rng = random.Random(f"micro-{seed}")
    out: dict[str, float] = {}
    _field_ops(clock, pkg.gf, rng, out)
    _poly_ops(clock, pkg.gf, pkg.polyring, rng, out)
    _pencil_snf(clock, pkg.gf, pkg.smith, rng, out)
    return out
