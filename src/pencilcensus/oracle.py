"""Exhaustive enumeration oracles and the census comparison engine.

Each oracle walks the full matrix space in base-q index order (row-major
digit order, least significant digit first), tallies the classifying key of
every matrix, and produces a :class:`CensusReport` that can be diffed
exactly against the closed-form census.  The index space is split into
contiguous chunks; with more than one worker the chunks run in separate
processes, and since the merge is plain per-key addition, the report is
identical for every worker count.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

from .census import CensusReport, make_params
from .errors import (
    BadSubspaceError,
    BudgetExceededError,
    ExactnessError,
    ParamMismatchError,
    ShapeError,
)
from .gf import FieldCtx, ScalarMatrix, check_echelon_basis, field_new, rows_mul
from .smith import (
    char_poly,
    max_invariant_subspace,
    pencil_invariant_factors,
    reachability_rank,
)

DEFAULT_BUDGET = 1 << 24

MODES = ("pencil", "pair", "fiber", "subspace", "nilext")


@dataclass(frozen=True)
class EnumConfig:
    """Parameters of one enumeration run; immutable and picklable."""

    p: int
    m: int
    n: int
    k: int
    mode: str = "pencil"
    subspace: tuple[tuple[int, ...], ...] | None = None
    workers: int = 1
    chunk: int | None = None
    budget: int = DEFAULT_BUDGET

    @property
    def q(self) -> int:
        return self.p ** self.m

    def field(self) -> FieldCtx:
        return field_new(self.p, self.m)


def _digits_of(index: int, base: int, length: int) -> list[int]:
    digits = []
    for _ in range(length):
        index, d = divmod(index, base)
        digits.append(d)
    return digits


def _advance(digits: list[int], base: int) -> None:
    for i in range(len(digits)):
        d = digits[i] + 1
        if d < base:
            digits[i] = d
            return
        digits[i] = 0


def _chunks(total: int, workers: int, chunk: int | None) -> list[tuple[int, int]]:
    size = chunk if chunk else math.ceil(total / max(workers, 1))
    size = max(size, 1)
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


def _merge(parts) -> dict[str, int]:
    out: dict[str, int] = {}
    for part in parts:
        for key, v in part.items():
            out[key] = out.get(key, 0) + v
    return out


def _pool_size(workers: int, chunks: int) -> int:
    """Worker processes worth starting: never more than the CPUs or chunks."""
    return max(1, min(workers, os.cpu_count() or 1, chunks))


def _execute(cfg: EnumConfig, total: int, work: int,
             fn: Callable[[tuple], dict[str, int]]) -> dict[str, int]:
    if work > cfg.budget:
        raise BudgetExceededError(
            f"enumeration needs {work} evaluations, budget is {cfg.budget}")
    ranges = _chunks(total, cfg.workers, cfg.chunk)
    args = [(cfg, lo, hi) for lo, hi in ranges]
    size = _pool_size(cfg.workers, len(args))
    if size == 1:
        parts = [fn(a) for a in args]
    else:
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=size, mp_context=ctx) as pool:
            parts = list(pool.map(fn, args))
    return _merge(parts)


def _check_total(tally: dict[str, int], total: int) -> dict[str, int]:
    if sum(tally.values()) != total:
        raise ExactnessError(
            f"enumeration tallied {sum(tally.values())} of {total} matrices")
    return tally


# ---------------------------------------------------------------------------
# Per-chunk tally functions (top level so they pickle across workers)
# ---------------------------------------------------------------------------

def _pencil_chunk(args: tuple) -> dict[str, int]:
    cfg, lo, hi = args
    f = cfg.field()
    q, n, k = cfg.q, cfg.n, cfg.k
    tally: dict[str, int] = {}
    digits = _digits_of(lo, q, n * k)
    for _ in range(lo, hi):
        key = str(pencil_invariant_factors(f, ScalarMatrix(n, k, tuple(digits))))
        tally[key] = tally.get(key, 0) + 1
        _advance(digits, q)
    return tally


def _fiber_chunk(args: tuple) -> dict[str, int]:
    cfg, lo, hi = args
    f = cfg.field()
    q, n, k = cfg.q, cfg.n, cfg.k
    square = n == k
    tally: dict[str, int] = {}
    digits = _digits_of(lo, q, n * k)
    for _ in range(lo, hi):
        b = ScalarMatrix(n, k, tuple(digits))
        if square:
            key = str(char_poly(f, b))
        else:
            key = str(pencil_invariant_factors(f, b).product())
        tally[key] = tally.get(key, 0) + 1
        _advance(digits, q)
    return tally


def _pair_chunk(args: tuple) -> dict[str, int]:
    cfg, lo, hi = args
    f = cfg.field()
    q, n, k = cfg.q, cfg.n, cfg.k
    asize = k * k
    bsize = k * (n - k)
    tally: dict[str, int] = {}
    digits = _digits_of(lo, q, asize + bsize)
    for _ in range(lo, hi):
        a = ScalarMatrix(k, k, tuple(digits[:asize]))
        b = ScalarMatrix(k, n - k, tuple(digits[asize:]))
        key = str(reachability_rank(f, a, b))
        tally[key] = tally.get(key, 0) + 1
        _advance(digits, q)
    return tally


def _subspace_chunk(args: tuple) -> dict[str, int]:
    cfg, lo, hi = args
    f = cfg.field()
    q, n, k = cfg.q, cfg.n, cfg.k
    target = cfg.subspace
    tally: dict[str, int] = {}
    digits = _digits_of(lo, q, n * k)
    for _ in range(lo, hi):
        b = ScalarMatrix(n, k, tuple(digits))
        a_block = ScalarMatrix(k, k, b.entries[: k * k])
        c_block = ScalarMatrix(n - k, k, b.entries[k * k:])
        _, basis = max_invariant_subspace(f, a_block, c_block)
        if basis == target:
            key = str(pencil_invariant_factors(f, b))
            tally[key] = tally.get(key, 0) + 1
        _advance(digits, q)
    return tally


def _nilext_chunk(args: tuple) -> dict[str, int]:
    cfg, lo, hi = args
    f = cfg.field()
    q, n, k = cfg.q, cfg.n, cfg.k
    squarings = max(n - 1, 0).bit_length()
    ext_cols = n - k
    count = 0
    digits = _digits_of(lo, q, n * k)
    for _ in range(lo, hi):
        b = ScalarMatrix(n, k, tuple(digits))
        product = pencil_invariant_factors(f, b).product()
        wimmer = all(c == 0 for c in product.coeffs[:-1])
        found = _has_nilpotent_completion(f, b, ext_cols, squarings)
        if found != wimmer:
            raise ExactnessError(
                f"divisibility criterion disagrees with completion search at {b!r}")
        count += found
        _advance(digits, q)
    return {"extendable": count}


def _has_nilpotent_completion(f: FieldCtx, b: ScalarMatrix,
                              ext_cols: int, squarings: int) -> bool:
    q, n = f.q, b.rows
    base_rows = b.to_rows()
    ext_digits = [0] * (n * ext_cols)
    for _ in range(q ** (n * ext_cols)):
        rows = [base_rows[i] + ext_digits[i * ext_cols: (i + 1) * ext_cols]
                for i in range(n)]
        cur = rows
        for _ in range(squarings):
            cur = rows_mul(f, cur, cur)
        if all(v == 0 for row in cur for v in row):
            return True
        _advance(ext_digits, q)
    return False


# ---------------------------------------------------------------------------
# Public enumeration entry points
# ---------------------------------------------------------------------------

def _require_pencil_shape(cfg: EnumConfig) -> None:
    if not 1 <= cfg.k <= cfg.n:
        raise ShapeError(f"need 1 <= k <= n, got n={cfg.n}, k={cfg.k}")


def enumerate_pencils(cfg: EnumConfig) -> CensusReport:
    """Tally every n x k matrix by the invariant factors of its pencil."""
    _require_pencil_shape(cfg)
    total = cfg.q ** (cfg.n * cfg.k)
    tally = _check_total(_execute(cfg, total, total, _pencil_chunk), total)
    return CensusReport(make_params("pencil", cfg.field(), cfg.n, cfg.k),
                        tally, source="enumerated")


def enumerate_fibers(cfg: EnumConfig) -> CensusReport:
    """Tally every n x k matrix by the product of its invariant factors.

    For square matrices the product is the characteristic polynomial and is
    computed directly; otherwise it comes from the Smith form of the pencil.
    """
    _require_pencil_shape(cfg)
    total = cfg.q ** (cfg.n * cfg.k)
    tally = _check_total(_execute(cfg, total, total, _fiber_chunk), total)
    return CensusReport(make_params("fiber", cfg.field(), cfg.n, cfg.k),
                        tally, source="enumerated")


def enumerate_pairs(cfg: EnumConfig) -> CensusReport:
    """Tally every pair (A, B) in M_k x M_{k,n-k} by reachability rank."""
    if not 1 <= cfg.k < cfg.n:
        raise ShapeError(f"need 1 <= k < n, got n={cfg.n}, k={cfg.k}")
    total = cfg.q ** (cfg.k * cfg.n)
    tally = _check_total(_execute(cfg, total, total, _pair_chunk), total)
    return CensusReport(make_params("pair", cfg.field(), cfg.n, cfg.k),
                        tally, source="enumerated")


def enumerate_subspace_census(cfg: EnumConfig) -> CensusReport:
    """Tally, by invariant-factor tuple, the maps whose maximal invariant
    subspace equals the configured one."""
    _require_pencil_shape(cfg)
    if cfg.subspace is None:
        raise BadSubspaceError("subspace mode needs a fixed subspace basis")
    f = cfg.field()
    canonical = check_echelon_basis(f, cfg.subspace, cfg.k)
    cfg = replace(cfg, subspace=canonical)
    total = cfg.q ** (cfg.n * cfg.k)
    tally = _execute(cfg, total, total, _subspace_chunk)
    basis_text = ";".join(",".join(str(v) for v in row) for row in canonical)
    params = make_params("subspace", f, cfg.n, cfg.k,
                         d=len(canonical), subspace=basis_text)
    return CensusReport(params, tally, source="enumerated")


def enumerate_nilpotent_extendable(cfg: EnumConfig) -> int:
    """Count matrices with at least one nilpotent square completion.

    Every matrix is also classified by the divisibility criterion (invariant
    factor product divides x^n); the two classifications must agree matrix by
    matrix, or :class:`ExactnessError` is raised.
    """
    _require_pencil_shape(cfg)
    total = cfg.q ** (cfg.n * cfg.k)
    work = total * cfg.q ** (cfg.n * (cfg.n - cfg.k))
    tally = _execute(cfg, total, work, _nilext_chunk)
    return tally.get("extendable", 0)


def nilext_report(cfg: EnumConfig) -> CensusReport:
    count = enumerate_nilpotent_extendable(cfg)
    return CensusReport(make_params("nilext", cfg.field(), cfg.n, cfg.k),
                        {"extendable": count}, source="enumerated")


def run(cfg: EnumConfig) -> CensusReport:
    """Dispatch one enumeration by cfg.mode."""
    if cfg.mode == "pencil":
        return enumerate_pencils(cfg)
    if cfg.mode == "pair":
        return enumerate_pairs(cfg)
    if cfg.mode == "fiber":
        return enumerate_fibers(cfg)
    if cfg.mode == "subspace":
        return enumerate_subspace_census(cfg)
    if cfg.mode == "nilext":
        return nilext_report(cfg)
    raise ValueError(f"unknown mode {cfg.mode!r}; expected one of {MODES}")


# ---------------------------------------------------------------------------
# Diffing closed-form versus enumerated censuses
# ---------------------------------------------------------------------------

DIFF_SCHEMA = "diff-report/v1"

_REQUIRED_PARAMS = ("mode", "q", "n", "k")


@dataclass(frozen=True)
class DiffRow:
    key: str
    expected: int | None
    observed: int | None

    @property
    def match(self) -> bool:
        return self.expected == self.observed


@dataclass
class DiffReport:
    """Per-key comparison of two censuses; verdict is true only on identity."""

    parameters: dict
    rows: tuple[DiffRow, ...]

    @property
    def verdict(self) -> bool:
        return all(row.match for row in self.rows)

    def mismatches(self) -> list[DiffRow]:
        return [row for row in self.rows if not row.match]

    def summary(self) -> str:
        bad = self.mismatches()
        if not bad:
            return f"all {len(self.rows)} keys match"
        return f"{len(bad)} of {len(self.rows)} keys mismatch"

    def to_json_dict(self) -> dict:
        return {
            "schema": DIFF_SCHEMA,
            "parameters": self.parameters,
            "verdict": self.verdict,
            "rows": {
                row.key: {
                    "expected": None if row.expected is None else str(row.expected),
                    "observed": None if row.observed is None else str(row.observed),
                    "match": row.match,
                }
                for row in self.rows
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True,
                          separators=(",", ":"))


def verify(expected: CensusReport, observed: CensusReport) -> DiffReport:
    """Exact per-key diff of two reports over the same parameters."""
    for name in _REQUIRED_PARAMS:
        if name not in expected.parameters or name not in observed.parameters:
            raise ParamMismatchError(f"both reports must declare {name!r}")
    shared = set(expected.parameters) & set(observed.parameters)
    for name in sorted(shared):
        if expected.parameters[name] != observed.parameters[name]:
            raise ParamMismatchError(
                f"parameter {name!r} differs: "
                f"{expected.parameters[name]!r} vs {observed.parameters[name]!r}")
    keys = sorted(set(expected.entries) | set(observed.entries))
    rows = tuple(DiffRow(key, expected.entries.get(key),
                         observed.entries.get(key)) for key in keys)
    params = {name: expected.parameters[name] for name in _REQUIRED_PARAMS}
    return DiffReport(params, rows)
