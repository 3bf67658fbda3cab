"""Workload definitions, seeded inputs and the output-correctness gate.

A workload is a fixed list of operations that one fresh interpreter runs
once per pass.  An operation is one ``verify`` case, one closed-form census
or one CLI request.  Every operation's output is checked here: a verdict must
be true, an enumeration must total q^(nk), and the SHA-256 of the output must
equal the digest pinned in ``pins.json``.  An operation that raises, exits or
misses a check is counted as failed.

The caller imports the package under test and passes its modules in, so
importing this module never imports the package, whose import is timed as
set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
import types
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")

# The queries workload maps a seed onto one of this many pinned streams.
QUERY_STREAMS = 64
QUERY_FIELDS = (2, 3, 4, 5, 7, 8, 9)
QUERY_SHAPES = tuple((q, k, n) for q in QUERY_FIELDS for k in range(1, 4)
                     for n in range(k, k + 5))
QUERY_TRIPLES = 4 * len(QUERY_SHAPES)


@dataclass(frozen=True)
class Op:
    """One operation of a batch workload."""

    op_id: str
    kind: str          # "verify" (through cli.main) or "census" (library call)
    q: int
    n: int
    k: int
    mode: str
    subspace: str | None = None

    def argv(self) -> list[str]:
        argv = ["verify", "--q", str(self.q), "--n", str(self.n),
                "--k", str(self.k), "--mode", self.mode, "--format", "json",
                "--workers", "1"]
        if self.subspace is not None:
            argv += ["--subspace", self.subspace]
        return argv

    @property
    def matrices(self) -> int:
        return self.q ** (self.n * self.k)


def verify_op(q, n, k, mode, subspace=None) -> Op:
    return Op(f"verify.{mode}.q{q}n{n}k{k}", "verify", q, n, k, mode, subspace)


def census_op(mode, q, n, k) -> Op:
    return Op(f"census.{mode}.q{q}n{n}k{k}", "census", q, n, k, mode)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fields: tuple[int, ...]
    ops: tuple[Op, ...] = ()
    kernel: str = "arith"  # the reference kernel of calibrate.py

    def plan(self, seed: int) -> list[Op]:
        """The pass's operations in a seeded order (caches are cold per pass,
        so the order decides which operation pays for each first fill)."""
        ops = list(self.ops)
        random.Random(f"{self.name}-{seed}").shuffle(ops)
        return ops

    @property
    def op_count(self) -> int:
        return len(self.ops) if self.ops else 3 * QUERY_TRIPLES


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "square-q3",
            "square pencil and fiber verify at q=3, n=k=3: the SNF, Poly and "
            "prime-field hot path, with a negligible closed form",
            (3,),
            (verify_op(3, 3, 3, "pencil"), verify_op(3, 3, 3, "fiber"))),
        Workload(
            "closed-form",
            "closed-form censuses with no enumeration: factorize and the "
            "irreducible sieve, GF(9) extension arithmetic in polyring",
            (5, 9),
            (census_op("pencil", 5, 4, 4), census_op("fiber", 5, 4, 4),
             census_op("pencil", 9, 3, 3))),
        Workload(
            "tall-mixed",
            "verify with n>k in pencil, pair, subspace and fiber modes: gf "
            "rank/rref/kernel paths and SNF over both extension kinds",
            (2, 3, 4, 9),
            (verify_op(2, 6, 2, "pencil"), verify_op(3, 4, 2, "pencil"),
             verify_op(9, 2, 2, "pencil"), verify_op(4, 3, 2, "pencil"),
             verify_op(2, 5, 3, "pair"),
             verify_op(2, 5, 3, "subspace", "[[1,0,0]]"),
             verify_op(9, 2, 2, "fiber"))),
        Workload(
            "queries",
            "seeded closed loop of snf/count/factor CLI requests, one client: "
            "per-request cost of the cli layer and mid-run cache misses",
            QUERY_FIELDS, kernel="cli"),
    )
}


def package() -> types.SimpleNamespace:
    """The package's modules, imported at the first call."""
    from pencilcensus import census, cli, gf, oracle, polyring, smith
    return types.SimpleNamespace(census=census, cli=cli, gf=gf, oracle=oracle,
                                 polyring=polyring, smith=smith)


# ---------------------------------------------------------------------------
# Output-correctness gate
# ---------------------------------------------------------------------------

def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_pins() -> dict[str, str]:
    with open(PINS_PATH) as fh:
        return json.load(fh)


def gate(pins: dict[str, str], key: str, text: str) -> bool:
    """True when ``text`` is byte-identical to the output pinned at ``key``."""
    return pins.get(key) == digest(text)


def _census_total_ok(op: Op, entries: dict) -> bool:
    # Subspace mode tallies only the maps with one fixed invariant subspace,
    # so only the other modes must cover the whole matrix space.
    if op.mode == "subspace":
        return True
    return sum(int(v) for v in entries.values()) == op.matrices


def check_op(op: Op, text: str) -> bool:
    """Checks that need no pin: a true verdict and a complete enumeration."""
    data = json.loads(text)
    if op.kind == "verify":
        if data.get("verdict") is not True:
            return False
        observed = {key: row["observed"] for key, row in data["rows"].items()
                    if row["observed"] is not None}
        return _census_total_ok(op, observed)
    return _census_total_ok(op, data["entries"])


# ---------------------------------------------------------------------------
# Running one pass
# ---------------------------------------------------------------------------

@dataclass
class PassResult:
    wall_s: float
    items: int          # matrices, census keys or requests
    item_s: float       # seconds the items were produced in
    attempted: int
    failed: int
    latencies_ms: list[float]
    digests: dict[str, str]


def call_cli(cli, argv: list[str], clock=time.perf_counter
              ) -> tuple[str, float]:
    """One in-process CLI request; returns stdout and seconds spent in main."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = clock()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        dt = clock() - t0
    if code not in (0, None):
        raise RuntimeError(f"exit code {code} for {argv}")
    return buf.getvalue(), dt


class _OracleClock:
    """Seconds spent inside ``oracle.run``, the base of the matrix rate."""

    def __init__(self, oracle, clock):
        self.oracle = oracle
        self.clock = clock
        self.seconds = 0.0

    def __enter__(self):
        inner = self.original = self.oracle.run
        clock = self.clock

        def timed_run(cfg):
            t0 = clock()
            try:
                return inner(cfg)
            finally:
                self.seconds += clock() - t0

        self.oracle.run = timed_run
        return self

    def __exit__(self, *exc):
        self.oracle.run = self.original


def run_batch(pkg, workload: Workload, seed: int, pins: dict[str, str],
              clock=time.perf_counter) -> PassResult:
    cli, census, gf = pkg.cli, pkg.census, pkg.gf
    plan = workload.plan(seed)
    failed = 0
    items = 0
    latencies = []
    digests = {}
    with _OracleClock(pkg.oracle, clock) as in_oracle:
        start = clock()
        for op in plan:
            t0 = clock()
            try:
                if op.kind == "verify":
                    text, _ = call_cli(cli, op.argv(), clock)
                    text = text.rstrip("\n")
                else:
                    build = getattr(census, f"{op.mode}_census")
                    report = build(gf.parse_field_spec(str(op.q)), op.n, op.k)
                    text = report.to_json()
                    items += len(report.entries)
                ok = check_op(op, text) and gate(pins, op.op_id, text)
                digests[op.op_id] = digest(text)
            except Exception:  # any crash of the program is a failed operation
                ok = False
            latencies.append((clock() - t0) * 1e3)
            failed += not ok
        wall = clock() - start
    if in_oracle.seconds:
        items = sum(op.matrices for op in plan)
        item_s = in_oracle.seconds
    else:
        item_s = wall
    return PassResult(wall, items, item_s, len(plan), failed, latencies,
                      digests)


def _request(cli, clock, transcript, latencies: list[float],
             argv: list[str]) -> str:
    text, dt = call_cli(cli, argv, clock)
    latencies.append(dt * 1e3)
    transcript.update(text.encode())
    return text


def query_stream(seed: int, triples: int = QUERY_TRIPLES):
    """The seeded inputs of the queries workload: (q, B) pairs.

    Each (q, k, n) shape comes equally often, so that streams differ in
    their matrices and their order, not in how much work they hold.
    """
    rng = random.Random(f"queries-{seed % QUERY_STREAMS}")
    shapes = [QUERY_SHAPES[i % len(QUERY_SHAPES)] for i in range(triples)]
    rng.shuffle(shapes)
    for q, k, n in shapes:
        yield q, [[rng.randrange(q) for _ in range(k)] for _ in range(n)]


def query_key(seed: int) -> str:
    return f"queries.stream{seed % QUERY_STREAMS}"


def run_queries(pkg, seed: int, pins: dict[str, str],
                clock=time.perf_counter,
                triples: int = QUERY_TRIPLES) -> PassResult:
    """Closed loop, one client: each request is built from the last reply."""
    cli = pkg.cli
    transcript = hashlib.sha256()
    latencies = []
    attempted = failed = 0
    start = clock()
    for q, rows in query_stream(seed, triples):
        n, k = len(rows), len(rows[0])
        attempted += 3
        done = len(latencies)
        try:
            text = _request(cli, clock, transcript, latencies, [
                "snf", "--q", str(q), "--pencil", "--format", "json",
                "--matrix", json.dumps(rows, separators=(",", ":"))])
            diagonal = json.loads(text)["diagonal"]
            _request(cli, clock, transcript, latencies, [
                "count", "--formula", "snf", "--q", str(q), "--n", str(n),
                "--k", str(k), "--tuple", "|".join(diagonal),
                "--format", "json"])
            _request(cli, clock, transcript, latencies, [
                "factor", "--q", str(q), "--poly", diagonal[-1],
                "--format", "json"])
        except Exception:  # a crash also fails the rest of the triple
            failed += 3 - (len(latencies) - done)
    wall = clock() - start
    key = query_key(seed)
    final = transcript.hexdigest()
    if pins.get(key) != final:
        failed = attempted
    return PassResult(wall, len(latencies), wall, attempted, failed,
                      latencies, {key: final})


def run_pass(pkg, workload: Workload, seed: int, pins: dict[str, str],
             clock=time.perf_counter) -> PassResult:
    """One pass, timed by ``clock`` (seconds, any origin)."""
    if workload.name == "queries":
        return run_queries(pkg, seed, pins, clock)
    return run_batch(pkg, workload, seed, pins, clock)
