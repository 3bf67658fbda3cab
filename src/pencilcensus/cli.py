"""Command-line interface.

Subcommands: count, enumerate, verify, snf, factor, selftest.  All numeric
output is exact; JSON output encodes big integers as decimal strings and is
byte-identical across repeated runs (key-sorted maps, fixed formatting).
Exit codes: 0 success, 1 verification or selftest failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from . import census, oracle
from .errors import PencilCensusError
from .gf import FieldCtx, ScalarMatrix, parse_field_spec, rank
from .polyring import Poly, factorize, parse_poly, poly_gcd
from .smith import (
    InvariantFactorTuple,
    PolyMatrix,
    det_divisor,
    pencil_invariant_factors,
    snf,
)

ENV_WORKERS = "PENCILCENSUS_WORKERS"
ENV_BUDGET = "PENCILCENSUS_BUDGET"

COUNT_SCHEMA = "count-result/v1"

FORMULAS = ("class", "snf", "subspace", "givenU", "reach", "gr", "grext",
            "nilext")


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    return int(raw) if raw else fallback


def _dump(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pencilcensus",
        description="Exact censuses of matrices over finite fields, keyed by "
                    "invariant factors of linear pencils.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, modes=False):
        p.add_argument("--q", required=True, metavar="FIELD",
                       help="field spec: a prime, a prime power, or p^m")
        p.add_argument("--format", choices=("json", "csv", "table"),
                       default="table")
        if modes:
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--k", type=int, required=True)
            p.add_argument("--mode", choices=oracle.MODES, default="pencil")
            p.add_argument("--subspace", metavar="JSON",
                           help="echelon basis rows for subspace mode, e.g. [[1,0]]")
            # Defaults come from the environment at each call, not here:
            # the parser is built once per process.
            p.add_argument("--workers", type=int)
            p.add_argument("--budget", type=int)

    p_count = sub.add_parser("count", help="evaluate one closed-form count")
    p_count.add_argument("--formula", choices=FORMULAS, required=True)
    p_count.add_argument("--n", type=int)
    p_count.add_argument("--k", type=int)
    p_count.add_argument("--d", type=int)
    p_count.add_argument("--r", type=int)
    p_count.add_argument("--tuple", dest="tuple_text", metavar="P1|P2|...",
                         help="invariant-factor tuple")
    p_count.add_argument("--poly", metavar="POLY",
                         help="monic polynomial, e.g. x^2+x+1")
    add_common(p_count)

    p_enum = sub.add_parser("enumerate", help="brute-force census")
    add_common(p_enum, modes=True)

    p_verify = sub.add_parser(
        "verify", help="diff the closed-form census against the enumeration")
    add_common(p_verify, modes=True)

    p_snf = sub.add_parser("snf", help="invariant factors of a matrix pencil "
                                       "or of a raw polynomial matrix")
    p_snf.add_argument("--matrix", required=True, metavar="JSON",
                       help="array of rows; ints with --pencil, else "
                            "polynomial strings")
    p_snf.add_argument("--pencil", action="store_true",
                       help="interpret the matrix as B and work on x*I - B")
    p_snf.add_argument("--n", type=int)
    p_snf.add_argument("--k", type=int)
    add_common(p_snf)

    p_factor = sub.add_parser("factor", help="factor a polynomial into "
                                             "monic irreducibles")
    p_factor.add_argument("--poly", required=True, metavar="POLY")
    add_common(p_factor)

    p_self = sub.add_parser("selftest", help="run the built-in invariant "
                                             "suites")
    p_self.add_argument("--seed", type=int, default=2024)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first :func:`main` call and then reused."""
    return build_parser()


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def _need(args, parser, names: list[str]) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ["--tuple" if n == "tuple_text" else "--" + n for n in missing]
        parser.error(f"--formula {args.formula} requires " + ", ".join(flags))


def _parse_tuple(text: str, f: FieldCtx, parser) -> InvariantFactorTuple:
    try:
        return InvariantFactorTuple.parse(text, f)
    except (ValueError, PencilCensusError) as exc:
        parser.error(f"bad --tuple: {exc}")


def cmd_count(args, parser) -> int:
    f = parse_field_spec(args.q)
    formula = args.formula
    params: dict = {"formula": formula, "q": f.q}
    if formula == "class":
        _need(args, parser, ["tuple_text"])
        ifs = _parse_tuple(args.tuple_text, f, parser)
        if args.n is not None and args.n != len(ifs):
            parser.error(f"--n {args.n} does not match a tuple of length {len(ifs)}")
        value = census.count_conjugacy_class(ifs)
        params.update(n=len(ifs), tuple=str(ifs))
    elif formula == "snf":
        _need(args, parser, ["n", "k", "tuple_text"])
        ifs = _parse_tuple(args.tuple_text, f, parser)
        value = census.count_invariant_factors(args.n, args.k, ifs)
        params.update(n=args.n, k=args.k, tuple=str(ifs))
    elif formula == "subspace":
        _need(args, parser, ["n", "k", "d", "tuple_text"])
        ifs = _parse_tuple(args.tuple_text, f, parser)
        value = census.count_with_subspace(args.n, args.k, args.d, ifs)
        params.update(n=args.n, k=args.k, d=args.d, tuple=str(ifs))
    elif formula == "givenU":
        _need(args, parser, ["n", "k", "d"])
        value = census.count_given_u(args.n, args.k, args.d, f.q)
        params.update(n=args.n, k=args.k, d=args.d)
    elif formula == "reach":
        _need(args, parser, ["n", "k", "r"])
        value = census.count_reachability(args.k, args.n, args.r, f.q)
        params.update(n=args.n, k=args.k, r=args.r)
    elif formula == "gr":
        _need(args, parser, ["poly"])
        poly = parse_poly(args.poly, f)
        value = census.count_char_poly_square(poly)
        params.update(poly=str(poly))
    elif formula == "grext":
        _need(args, parser, ["n", "k", "poly"])
        poly = parse_poly(args.poly, f)
        value = census.count_char_poly_rect(poly, args.n, args.k)
        params.update(n=args.n, k=args.k, poly=str(poly))
    else:  # nilext
        _need(args, parser, ["n", "k"])
        value = census.count_nilpotent_extendable(args.k, args.n, f.q)
        params.update(n=args.n, k=args.k)
    if args.format == "json":
        print(_dump({"schema": COUNT_SCHEMA, "parameters": params,
                     "value": str(value)}))
    elif args.format == "csv":
        parser.error("csv output is only available for censuses")
    else:
        print(value)
    return 0


# ---------------------------------------------------------------------------
# enumerate / verify
# ---------------------------------------------------------------------------

def _config_from_args(args, parser) -> oracle.EnumConfig:
    f = parse_field_spec(args.q)
    subspace = None
    if args.subspace is not None:
        try:
            rows = json.loads(args.subspace)
            subspace = tuple(tuple(int(v) for v in row) for row in rows)
        except (ValueError, TypeError):
            parser.error("--subspace must be a JSON array of rows")
    if args.mode == "subspace" and subspace is None:
        parser.error("--mode subspace requires --subspace")
    workers = _env_int(ENV_WORKERS, 1) if args.workers is None else args.workers
    budget = (_env_int(ENV_BUDGET, oracle.DEFAULT_BUDGET)
              if args.budget is None else args.budget)
    if workers < 1:
        parser.error(f"--workers must be at least 1, got {workers}")
    if budget < 0:
        parser.error(f"--budget must be nonnegative, got {budget}")
    return oracle.EnumConfig(p=f.p, m=f.m, n=args.n, k=args.k, mode=args.mode,
                             subspace=subspace, workers=workers, budget=budget)


def _print_census(report: census.CensusReport, fmt: str) -> None:
    if fmt == "json":
        print(report.to_json())
    elif fmt == "csv":
        print("key,count")
        for key in sorted(report.entries):
            print(f"{key},{report.entries[key]}")
    else:
        width = max((len(k) for k in report.entries), default=3)
        for key in sorted(report.entries):
            print(f"{key.ljust(width)}  {report.entries[key]}")
        print(f"{'total'.ljust(width)}  {report.total()}")


def cmd_enumerate(args, parser) -> int:
    cfg = _config_from_args(args, parser)
    report = oracle.run(cfg)
    _print_census(report, args.format)
    return 0


def _closed_report(cfg: oracle.EnumConfig) -> census.CensusReport:
    f = cfg.field()
    if cfg.mode == "pencil":
        return census.pencil_census(f, cfg.n, cfg.k)
    if cfg.mode == "pair":
        return census.pair_census(f, cfg.k, cfg.n)
    if cfg.mode == "fiber":
        return census.fiber_census(f, cfg.n, cfg.k)
    if cfg.mode == "subspace":
        return census.subspace_census(f, cfg.n, cfg.k, len(cfg.subspace))
    return census.nilext_census(f, cfg.n, cfg.k)


def cmd_verify(args, parser) -> int:
    if args.format == "csv":
        parser.error("csv output is only available for censuses")
    cfg = _config_from_args(args, parser)
    expected = _closed_report(cfg)
    observed = oracle.run(cfg)
    diff = oracle.verify(expected, observed)
    if args.format == "json":
        print(diff.to_json())
    else:
        print(f"mode={cfg.mode} q={cfg.q} n={cfg.n} k={cfg.k}: {diff.summary()}")
        for row in diff.mismatches():
            print(f"  {row.key}: expected {row.expected}, observed {row.observed}")
    return 0 if diff.verdict else 1


# ---------------------------------------------------------------------------
# snf / factor
# ---------------------------------------------------------------------------

def cmd_snf(args, parser) -> int:
    if args.format == "csv":
        parser.error("csv output is only available for censuses")
    f = parse_field_spec(args.q)
    try:
        grid = json.loads(args.matrix)
    except ValueError:
        parser.error("--matrix must be a JSON array of rows")
    if not grid or not all(isinstance(row, list) for row in grid):
        parser.error("--matrix must be a nonempty array of rows")
    nrows, ncols = len(grid), len(grid[0])
    if args.n is not None and args.n != nrows:
        parser.error(f"--n {args.n} does not match matrix with {nrows} rows")
    if args.k is not None and args.k != ncols:
        parser.error(f"--k {args.k} does not match matrix with {ncols} columns")
    if args.pencil:
        entries = [int(v) for row in grid for v in row]
        if any(not 0 <= v < f.q for v in entries):
            parser.error(f"matrix entries must lie in [0, {f.q})")
        diag = list(pencil_invariant_factors(
            f, ScalarMatrix(nrows, ncols, entries)))
    else:
        polys = [parse_poly(str(v), f) for row in grid for v in row]
        diag = list(snf(PolyMatrix(nrows, ncols, polys)).diagonal)
    if args.format == "json":
        print(_dump({"schema": "snf-result/v1",
                     "parameters": {"q": f.q, "n": nrows, "k": ncols,
                                    "pencil": bool(args.pencil)},
                     "diagonal": [str(p) for p in diag]}))
    else:
        print(" | ".join(str(p) for p in diag))
    return 0


def cmd_factor(args, parser) -> int:
    if args.format == "csv":
        parser.error("csv output is only available for censuses")
    f = parse_field_spec(args.q)
    try:
        poly = parse_poly(args.poly, f)
    except ValueError as exc:
        parser.error(str(exc))
    if poly.is_zero():
        parser.error("cannot factor the zero polynomial")
    result = factorize(poly)
    if args.format == "json":
        print(_dump({"schema": "factorization/v1",
                     "parameters": {"q": f.q, "poly": str(poly)},
                     "unit": str(result.unit),
                     "factors": [[str(g), e] for g, e in result.factors]}))
    else:
        pieces = [f"({g})" + (f"^{e}" if e > 1 else "")
                  for g, e in result.factors]
        if result.unit != 1 or not pieces:
            pieces.insert(0, str(result.unit))
        print("*".join(pieces))
    return 0


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def _selftest_suites(rng: random.Random):
    from .gf import field_new

    def field_axioms() -> bool:
        for q in (2, 3, 4, 5, 7, 8, 9):
            f = parse_field_spec(str(q))
            elems = list(f.elements())
            for a in elems:
                for b in elems:
                    if f.add(a, b) != f.add(b, a):
                        return False
                    if f.mul(a, b) != f.mul(b, a):
                        return False
                    if b and f.mul(f.div(a, b), b) != a:
                        return False
                    for c in elems:
                        if f.mul(a, f.add(b, c)) != f.add(f.mul(a, b),
                                                          f.mul(a, c)):
                            return False
        return True

    def factor_round_trip() -> bool:
        for q in (2, 3):
            f = field_new(q)
            for _ in range(200):
                coeffs = [rng.randrange(q) for _ in range(rng.randrange(1, 7))]
                poly = Poly(f, coeffs + [1])
                if factorize(poly).reconstruct(f) != poly:
                    return False
        return True

    def gcd_properties() -> bool:
        f = field_new(3)
        for _ in range(200):
            a = Poly(f, [rng.randrange(3) for _ in range(5)] + [1])
            b = Poly(f, [rng.randrange(3) for _ in range(4)] + [1])
            g = poly_gcd(a, b)
            if (a % g).coeffs or (b % g).coeffs:
                return False
        return True

    def snf_matches_minor_gcds() -> bool:
        for q, n, k in ((2, 3, 2), (3, 2, 2), (2, 4, 3)):
            f = parse_field_spec(str(q))
            for _ in range(60):
                b = ScalarMatrix(n, k, [rng.randrange(q) for _ in range(n * k)])
                ifs = pencil_invariant_factors(f, b)
                from .smith import pencil_matrix
                pencil = pencil_matrix(f, b)
                prev = Poly.one(f)
                for i, p in enumerate(ifs, start=1):
                    delta = det_divisor(pencil, i)
                    if (delta % prev).coeffs or delta != prev * p:
                        return False
                    prev = delta
        return True

    def rank_transpose() -> bool:
        f = field_new(2)
        for _ in range(100):
            m = ScalarMatrix(4, 3, [rng.randrange(2) for _ in range(12)])
            if rank(f, m) != rank(f, m.transpose()):
                return False
        return True

    def power_identity() -> bool:
        for q in (2, 3, 5):
            for d in range(9):
                for _ in range(100):
                    y = rng.randint(-10 ** 6, 10 ** 6)
                    if not census.check_q_identity(d, q, y):
                        return False
        return True

    return [
        ("field-axioms", field_axioms),
        ("factorization-round-trip", factor_round_trip),
        ("gcd-divides-both", gcd_properties),
        ("snf-vs-minor-gcds", snf_matches_minor_gcds),
        ("rank-transpose", rank_transpose),
        ("power-identity", power_identity),
    ]


def cmd_selftest(args, _parser) -> int:
    rng = random.Random(args.seed)
    ok = True
    for name, suite in _selftest_suites(rng):
        passed = suite()
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {name}")
    print("selftest:", "ok" if ok else "FAILED")
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    handlers = {
        "count": cmd_count,
        "enumerate": cmd_enumerate,
        "verify": cmd_verify,
        "snf": cmd_snf,
        "factor": cmd_factor,
        "selftest": cmd_selftest,
    }
    try:
        return handlers[args.command](args, parser)
    except (PencilCensusError, ValueError) as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
