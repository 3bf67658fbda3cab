"""Exhaustive enumeration oracles and the census comparison engine.

Each census mode is one entry of the mode table.  :func:`run` tallies the
classifying key of every n x k matrix by walking a weighted list of orbit
representatives (below), and produces a :class:`CensusReport` that can be
diffed exactly against the closed-form census from :func:`closed_form`.  The
list is split into even, contiguous runs of list positions; with more than
one worker the chunks run in separate processes, and since the merge is
plain per-key addition, the report is identical for every worker count.

Orbit reduction: write a matrix as B = [A; C], A the top k x k block and C
the (n-k) x k bottom block.  For g = [[P, R], [0, Q]] in GL_n,
g(x*I_{n,k} - B)P^-1 = x*I_{n,k} - gBP^-1, so every key is constant on the
orbits B -> gBP^-1 (if N completes B to a nilpotent operator, gNg^-1
completes gBP^-1).  The walk classifies one B per orbit, weighted by the
orbit's size, from a list built by recursion on the shape (n, k): at n = k
the similarity classes, which a graph search finds, and at k = 0 the n
empty rows.  At n > k, by g = diag(I, Q) and g = diag(P, I) every orbit meets
the C whose row space is U_0 = span(e_(k-r+1)..e_k), r its dimension, and
by g = [[I, R], [0, I]], [A; C] ~ [A + RC; C] with RC any matrix whose rows
lie in U_0, so it meets A = [X 0], X the first k-r columns of A, with
C = C_0, the basis of U_0 padded with zero rows.  The g that keep C_0 act on
X by X -> P*X*P11^-1, P block upper triangular with a (k-r, r) split and P11
its top left block: the action at shape (k, k-r), with P11, P12 and P22 as
its P, R and Q.  So the list at (n, k) takes [X 0; C_0] for each X of the
list at (k, k-r), weighted by X's weight times q^(kr) (the A of its coset),
prod_{i<r} (q^(n-k) - q^i) (the C with row space U_0) and the number of
row spaces U of dimension r, counted by listing them.
Pair mode's key, the reachability rank of (A^T, C^T), is k - dim M for M
below, which g maps to P*M, so the orbits keep it.  Subspace mode tallies
the maps whose maximal invariant subspace M, the kernel of C, CA, ...,
CA^(k-1), is the fixed S of dimension d.  M lies in ker C, so the walk takes
1 <= r <= k - d, or r = 0 alone when d = k, and tallies dim M = d, which
the orbits keep.  g = diag(T, I) keeps every key and maps M to T*M, and
GL_k moves S to every d-dimensional subspace, so each is M for as many maps
of each key: :func:`run` divides the tally by their number, counted by
listing them, and a remainder raises ExactnessError.

Nilext mode needs no scan where a completion is impossible: M lies in
ker C and A maps it into itself, so a nilpotent N completing B has
N v = A v on M, and A^(dim M) vanishes on M.  Where it does not, the
q^(n(n-k)) completions are not scanned.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import sys
from array import array
from collections import namedtuple
from functools import lru_cache
from typing import Callable, Iterator

from . import census
from .census import CensusReport, compact_json, make_params
from .errors import (
    BadSubspaceError,
    BudgetExceededError,
    ExactnessError,
    ParamMismatchError,
    ShapeError,
)
from .gf import (FieldCtx, _digits_of, check_echelon_basis, echelon_subspaces,
                 field_new, rows_mul)
from .polyring import coeffs_text
from .smith import (
    _krylov_rows,
    char_poly,
    max_invariant_subspace,
    pencil_invariant_factors,
    reachability_rank,
)

DEFAULT_BUDGET = 1 << 24

class EnumConfig(namedtuple("EnumConfig", "p m n k mode subspace workers budget",
                             defaults=("pencil", None, 1, DEFAULT_BUDGET))):
    """Parameters of one enumeration run; immutable and picklable.  The
    subspace, if any, is a tuple of echelon basis rows."""

    __slots__ = ()

    @property
    def q(self) -> int:
        return self.p ** self.m

    def field(self) -> FieldCtx:
        return field_new(self.p, self.m)


def _chunks(total: int, workers: int) -> list[tuple[int, int]]:
    """Cut range(total) into at most ``workers`` ranges of sizes within one."""
    parts = max(min(workers, total), 1)
    return [(total * i // parts, total * (i + 1) // parts)
            for i in range(parts)]


def _merge(parts) -> dict[str, int]:
    out: dict[str, int] = {}
    for part in parts:
        for key, v in part.items():
            out[key] = out.get(key, 0) + v
    return out


def _pool_size(workers: int, chunks: int) -> int:
    """Worker processes worth starting: never more than the CPUs or chunks."""
    return max(1, min(workers, os.cpu_count() or 1, chunks))


def _execute(cfg: EnumConfig, fn: Callable) -> dict[str, int]:
    # The parent lists the representatives here, afresh for each run and
    # before the pool forks, so the workers inherit the list from the cache.
    # A chunk keys an even run a <= i < b of the L list positions (an empty
    # list is cut as one), passed as its share lo = ceil(a*T/L) <= j < hi of
    # the T = q^(nk) matrices, so a wrapper that counts hi - lo per chunk
    # counts T per run; as L <= T, the chunk finds a = floor(lo*L/T).
    _representatives.cache_clear()
    length, total = len(_representatives(cfg)) or 1, cfg.q ** (cfg.n * cfg.k)
    args = [(cfg, -(-a * total // length), -(-b * total // length))
            for a, b in _chunks(length, cfg.workers)]
    size = _pool_size(cfg.workers, len(args))
    if size == 1:
        parts = [fn(a) for a in args]
    else:  # imported here, so a one-worker run never loads them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=size, mp_context=ctx) as pool:
            parts = list(pool.map(fn, args))
    return _merge(parts)


def _check_budget(cfg: EnumConfig, exponent: int) -> None:
    """Refuse a need of q^exponent evaluations.  q^exponent is at least
    2^bits, bits = exponent * floor(log2 q): a need past the budget by that
    bound is refused before any power of q is computed."""
    bits = exponent * (cfg.q.bit_length() - 1)
    if bits >= cfg.budget.bit_length() or cfg.q ** exponent > cfg.budget:
        need = cfg.q ** exponent if bits < 64 else f"2^{bits}"
        raise BudgetExceededError(f"enumeration needs at least {need} "
                                  f"evaluations, budget is {cfg.budget}")


# ---------------------------------------------------------------------------
# Per-matrix keys: one n x k matrix, a tuple of n row tuples, to the census
# key it is tallied under, or None when it is not tallied.
# ---------------------------------------------------------------------------

def _pencil_key(f: FieldCtx, cfg: EnumConfig, b: tuple) -> str:
    return str(pencil_invariant_factors(f, b))


def _fiber_key(f: FieldCtx, cfg: EnumConfig, b: tuple) -> str:
    """The product of the invariant factors: the characteristic polynomial,
    computed directly, when the matrix is square."""
    if cfg.n == cfg.k:
        return coeffs_text(f, char_poly(f, b))
    return coeffs_text(f, pencil_invariant_factors(f, b).product())


def _pair_key(f: FieldCtx, cfg: EnumConfig, b: tuple) -> str:
    """Reachability rank of (A^T, C^T), A the top k x k block and C the rest:
    transposing is a bijection onto the pairs (A, B) the pair census counts."""
    a_t, c_t = list(zip(*b[:cfg.k])), list(zip(*b[cfg.k:]))
    return str(reachability_rank(f, a_t, c_t))


def _subspace_key(f: FieldCtx, cfg: EnumConfig, b: tuple,
                  same: Callable = operator.eq) -> str | None:
    """Invariant factors of the maps whose maximal invariant subspace M is
    the configured S, or has ``same(M, S)``; A is the top k x k block."""
    basis = max_invariant_subspace(f, b[:cfg.k], b[cfg.k:])
    if not same(basis, cfg.subspace):
        return None
    return str(pencil_invariant_factors(f, b))


def _subspace_dim_key(f: FieldCtx, cfg: EnumConfig, b: tuple) -> str | None:
    """The walk's subspace key: the maximal invariant subspace has the
    configured one's dimension (module doc)."""
    return _subspace_key(f, cfg, b, lambda m, s: len(m) == len(s))


def _nilext_key(f: FieldCtx, cfg: EnumConfig, b: tuple) -> str | None:
    """"extendable" when a nilpotent square completion exists: none where
    the negative certificate holds, else what the completion scan finds.
    The result is checked against the divisibility criterion (the invariant
    factor product divides x^n) matrix by matrix; a disagreement raises
    ExactnessError."""
    product = pencil_invariant_factors(f, b).product()
    wimmer = not any(product[:-1])
    found = not _negative_certificate(f, cfg, b) and _has_nilpotent_completion(
        f, b, cfg.n - cfg.k, max(cfg.n - 1, 0).bit_length())
    if found != wimmer:
        raise ExactnessError(
            f"divisibility criterion disagrees with completion search at {b!r}")
    return "extendable" if found else None


def _negative_certificate(f: FieldCtx, cfg: EnumConfig, b: tuple) -> bool:
    """Whether A^(dim M) is nonzero on M, the maximal invariant subspace of
    B = [A; C]: then no nilpotent matrix completes B (module doc)."""
    a = b[:cfg.k]
    basis = max_invariant_subspace(f, a, b[cfg.k:])
    # by rows, the basis times (A^T)^i, i <= dim M: A^(dim M) M comes last
    stack = _krylov_rows(f, basis, list(zip(*a)), len(basis) + 1)
    return any(map(any, stack[-len(basis):]))


def _matrices(q: int, n: int, k: int) -> Iterator[tuple]:
    """The n x k matrices over GF(q) as row tuples, from the zero matrix."""
    return itertools.product(itertools.product(range(q), repeat=k), repeat=n)


def _has_nilpotent_completion(f: FieldCtx, b: tuple,
                              ext_cols: int, squarings: int) -> bool:
    """Whether some [B E] is nilpotent, trying E = 0 first."""
    for e in _matrices(f.q, len(b), ext_cols):
        cur = [row + ext for row, ext in zip(b, e)]
        for _ in range(squarings):
            cur = rows_mul(f, cur, cur)
        if all(v == 0 for row in cur for v in row):
            return True
    return False


def _walk(cfg: EnumConfig, key: Callable[..., str | None]) -> dict[str, int]:
    """Tally ``key`` over all q^(nk) matrices one by one, each a tuple of
    row tuples, from the zero matrix: the full enumeration that tests and
    ``selftest`` check the orbit walk against."""
    f = cfg.field()
    tally: dict[str, int] = {}
    for b in _matrices(cfg.q, cfg.n, cfg.k):
        name = key(f, cfg, b)
        if name is not None:
            tally[name] = tally.get(name, 0) + 1
    return tally


@lru_cache(maxsize=None)
def _similarity_classes(p: int, m: int, k: int) -> tuple[tuple[int, int], ...]:
    """One ``(leader, size)`` per similarity class of the k x k matrices
    over GF(p^m), in leader order: the least index of a matrix of the class
    and the number of matrices a graph search visits from it, counted visit
    by visit.  The search conjugates by C*T, T = I + E_(0,1) and C the cycle
    e_0 -> ... -> e_(k-1) -> e_0, and by C at q = 2, where
    <C*T, C> = <C, T>, or by scaling e_0 by the generator w at q > 2: orbits
    lie inside classes, so moves can split a class but never miscount one,
    and the tests check that these two reach whole classes.  Each move is built
    once as a permutation of the q^(k^2) indices, an ``array("I")``: the
    action is linear and each output row depends on one group of input rows
    (rows 0 and 1 under the transvection, each row alone otherwise), so an
    image index is the sum of one table entry per group: the groups'
    Cartesian sum.  ``table`` holds the sums so far as one int of
    itemsize-byte fields in the machine's byte order and writes the slice of
    each entry v of the next group as one add of v times the int with a 1 in
    every field; no field carries, as each sum is an index below q^(k^2),
    which ``_resolve`` keeps within a field.  The transvection's group of
    rows 0 and 1 has one slice per value j of row 1: the runs of row 0's
    images over digit 0, translated by j and joined, plus row 1's image in
    every field.  The search takes as leader the least matrix not yet
    visited and reads the list of its visits while it grows, appending each
    unseen image under the moves, written out, so its length is the class
    size.  The marks are a list of bools, which CPython indexes faster than
    a bytearray: 8 bytes per searched block, as much as the two move tables;
    one more slot, never set, ends the scan for the next leader."""
    f = field_new(p, m)
    q = f.q
    values = [_digits_of(v, q, k) for v in range(q ** k)]  # a row's values
    unit = [q ** j for j in range(k)]
    plus = [[f.add(a, b) for a in range(q)] for b in range(q)]  # [b][a]: a + b
    neg = [row.index(0) for row in plus]  # [b]: -b
    sums = [[[v * u for v in row] for row in plus] for u in unit]
    order = sys.byteorder

    def share(g, to):  # the image under g of each value of a row, as row to
        return [sum(map(operator.mul, g(v), unit)) * q ** (k * to)
                for v in values]

    def table(first, *groups):  # each sum of one entry per group, the
        # first fastest, as an array("I")
        out = array("I", first)
        for group in groups:
            low = int.from_bytes(out, order)
            ones = int.from_bytes(array("I", [1]) * len(out), order)
            size, out = len(out) * out.itemsize, array("I")
            for v in group:
                out.frombytes((low + v * ones).to_bytes(size, order))
        return out

    def turn(v):  # column j to j + 1 mod k
        return [v[-1], *v[:-1]]

    def cycle():  # entry (i, j) to (i+1, j+1), both mod k
        return table(*(share(turn, (i + 1) % k) for i in range(k)))

    def transvection():  # row 0 += row 1, column 1 -= column 0, then cycle()
        col = [share(lambda v: turn([v[0], plus[neg[v[0]]][v[1]], *v[2:]]),
                     (i + 1) % k) for i in range(k)]
        # col[0]'s runs over digit 0 as bytes, translated by each digit-0
        # value b: runs[b][t] holds col[0] at t + (a + b), a = 0..q-1
        runs = [{t: array("I", [col[0][t + y] for y in low]).tobytes()
                 for t in range(0, q ** k, q)} for low in sums[0]]
        # the runs that digits 1.. of row 0 + row 1 pick, per value of row 0,
        # for each value of row 1 whose digit 0 is 0
        pick = [operator.itemgetter(*table(*(sums[e][b] for e, b in
                                             enumerate(row) if e)))
                for row in values[::q]]
        ones = int.from_bytes(array("I", [1]) * q ** k, order)
        pairs = array("I")  # rows 0 and 1, one slice per value j of row 1:
        for j, row in enumerate(values):  # col[0] translated by j, + col[1][j]
            run = b"".join(pick[j // q](runs[row[0]]))
            low = int.from_bytes(run, order) + col[1][j] * ones
            pairs.frombytes(low.to_bytes(len(run), order))
        return table(pairs, *col[2:])

    def scale():  # row 0 *= w, column 0 *= w^-1, w a generator
        w = f.generator
        by = [[f.mul(w if j == 0 else 1, 1 if e else f.inv(w))
               for e in range(k)] for j in range(k)]
        return table(*(share(lambda v: list(map(f.mul, v, by[j])), j)
                       for j in range(k)))

    if k > 1:
        tv, other = transvection(), scale() if q > 2 else cycle()
    blocks = q ** (k * k)
    seen = [False] * (blocks + 1)  # seen[blocks] stays False: a sentinel
    classes = []
    leader = 0
    while leader < blocks:
        seen[leader] = True
        visits = [leader]  # grows while it is read: its length is the size
        visit = visits.append
        for x in visits if k > 1 else ():  # at k = 1 there is no move
            if not seen[y := tv[x]]:
                seen[y] = True
                visit(y)
            if not seen[y := other[x]]:
                seen[y] = True
                visit(y)
        classes.append((leader, len(visits)))
        leader = seen.index(False, leader)
    return tuple(classes)


def _tall_list(f: FieldCtx, n: int, k: int,
               ranks: range | None = None) -> list[tuple[tuple, int]]:
    """One ``(rows, weight)`` per orbit of the n x k matrices under
    B -> gBP^-1, built by the recursion of the module doc: one matrix of the
    orbit, a tuple of n row tuples, and the orbit's size.  With ``ranks``,
    only the orbits whose bottom block's row space dimension r is in it."""
    q = f.q
    if ranks is None:
        if k == 0:
            return [(((),) * n, 1)]
        if n == k:  # a leader's base-q^k digits index its rows, row 0 first
            return [(tuple(tuple(_digits_of(row, q, k))
                           for row in _digits_of(a, q ** k, k)), size)
                    for a, size in _similarity_classes(f.p, f.m, k)]
        ranks = range(min(n - k, k) + 1)
    out = []
    for r in ranks:
        c = k - r
        bottom = (tuple((0,) * i + (1,) + (0,) * (k - 1 - i)
                        for i in range(c, k)) + ((0,) * k,) * (n - k - r))
        weight = (q ** (k * r) * sum(1 for _ in echelon_subspaces(f, k, r))
                  * math.prod(q ** (n - k) - q ** i for i in range(r)))
        for x, w in _tall_list(f, k, c):
            out.append((tuple(row + (0,) * r for row in x) + bottom,
                        w * weight))
    return out


@lru_cache(maxsize=1)
def _representatives(cfg: EnumConfig) -> tuple[tuple[tuple, int], ...]:
    """``(rows, weight)`` per representative the walk classifies: the
    list of :func:`_tall_list` at cfg's shape, in subspace mode only at the
    row space dimensions r where dim M = d can hold (module doc)."""
    n, k, d = cfg.n, cfg.k, len(cfg.subspace or ())
    ranks = (None if cfg.subspace is None  # 1 <= r <= k - d, or r = 0 if d = k
             else range(d < k, min(n - k, k - d) + 1))
    return tuple(_tall_list(cfg.field(), n, k, ranks))


def _orbit_walk(args: tuple, key: Callable[..., str | None]) -> dict[str, int]:
    """Tally ``key`` over the orbits of the run of :func:`_representatives`
    that the share lo <= j < hi of the q^(nk) matrices stands for (see
    :func:`_execute`), classifying one representative per orbit, a tuple of
    row tuples."""
    cfg, lo, hi = args
    f = cfg.field()
    reps = _representatives(cfg)
    start, stop = (j * len(reps) // cfg.q ** (cfg.n * cfg.k) for j in (lo, hi))
    tally: dict[str, int] = {}
    for b, weight in reps[start:stop]:
        name = key(f, cfg, b)
        if name is not None:
            tally[name] = tally.get(name, 0) + weight
    return tally


# One chunk function per mode, a module global that :func:`run` looks up by
# name on each call: it pickles across worker processes, and a wrapper set on
# the module from outside sees every chunk of that mode.

def _pencil_chunk(args: tuple) -> dict[str, int]:
    return _orbit_walk(args, _pencil_key)


def _fiber_chunk(args: tuple) -> dict[str, int]:
    return _orbit_walk(args, _fiber_key)


def _pair_chunk(args: tuple) -> dict[str, int]:
    return _orbit_walk(args, _pair_key)


def _subspace_chunk(args: tuple) -> dict[str, int]:
    return _orbit_walk(args, _subspace_dim_key)


def _nilext_chunk(args: tuple) -> dict[str, int]:
    return _orbit_walk(args, _nilext_key)


# ---------------------------------------------------------------------------
# The mode table and the entry points
# ---------------------------------------------------------------------------

class Mode(namedtuple("Mode", "tall complete subspace closed_args search "
                      "completions",
                      defaults=(False, True, False, lambda cfg: (cfg.n, cfg.k),
                                lambda cfg: cfg.k * cfg.k, lambda cfg: 0))):
    """One census mode.  Its matrices are tallied by ``_<mode>_chunk`` and
    its closed form is ``census.<mode>_census(field, *closed_args(cfg))``.
    ``tall``: shape 1 <= k < n, else 1 <= k <= n; ``complete``: the tally
    covers all q^(nk) matrices; ``subspace``: needs cfg.subspace, a fixed
    echelon basis; ``search(cfg)``: the largest class search the walk runs
    has q^search blocks (GL_k, or GL_(k-1) in subspace mode with d < k,
    whose walk takes r >= 1 alone; an upper bound where no search runs);
    ``completions(cfg)``: nilext tries q^completions completions per
    block."""

    __slots__ = ()

    def cost(self, cfg: EnumConfig) -> int:
        """The budget charges q^cost evaluations: the blocks of the largest
        class search times the completions per block."""
        return self.search(cfg) + self.completions(cfg)


MODE_TABLE = {
    "pencil": Mode(),
    "pair": Mode(tall=True, closed_args=lambda cfg: (cfg.k, cfg.n)),
    "fiber": Mode(),
    "subspace": Mode(complete=False, subspace=True,
                     closed_args=lambda cfg: (cfg.n, cfg.k, len(cfg.subspace)),
                     search=lambda cfg: (
                         cfg.k - (len(cfg.subspace or ()) < cfg.k)) ** 2),
    "nilext": Mode(complete=False,
                   completions=lambda cfg: cfg.n * (cfg.n - cfg.k)),
}

MODES = tuple(MODE_TABLE)


def _resolve(cfg: EnumConfig,
             budget: bool = False) -> tuple[Mode, EnumConfig, dict]:
    """Check ``cfg`` against its mode's shape rule and, if ``budget``, its
    mode's cost against its budget and its class search against what a
    move table can index, before the field is built; return the
    mode, ``cfg`` with its subspace's canonical basis (or None), and the
    report parameters it adds."""
    mode = MODE_TABLE.get(cfg.mode)
    if mode is None:
        raise ValueError(f"unknown mode {cfg.mode!r}; expected one of {MODES}")
    if not 1 <= cfg.k <= cfg.n - mode.tall:
        raise ShapeError(f"need 1 <= k {'<' if mode.tall else '<='} n, "
                         f"got n={cfg.n}, k={cfg.k}")
    if budget:
        _check_budget(cfg, mode.cost(cfg))
        exponent, bits = mode.search(cfg), 8 * array("I").itemsize
        if cfg.q ** exponent > 1 << bits:  # a move table's entry
            raise BudgetExceededError(
                f"a class search over {cfg.q}^{exponent} blocks is past the "
                f"2^{bits} a move table indexes, whatever the budget")
    if not mode.subspace:
        return mode, cfg._replace(subspace=None), {}
    if cfg.subspace is None:
        raise BadSubspaceError(f"{cfg.mode} mode needs a fixed subspace basis")
    canonical = check_echelon_basis(cfg.field(), cfg.subspace, cfg.k)
    basis_text = ";".join(",".join(str(v) for v in row) for row in canonical)
    return mode, cfg._replace(subspace=canonical), {"d": len(canonical),
                                                    "subspace": basis_text}


def run(cfg: EnumConfig) -> CensusReport:
    """Tally every n x k matrix by the key of cfg.mode."""
    mode, cfg, extra = _resolve(cfg, budget=True)
    tally = _execute(cfg, globals()[f"_{cfg.mode}_chunk"])
    total = cfg.q ** (cfg.n * cfg.k)
    if mode.complete and sum(tally.values()) != total:
        raise ExactnessError(
            f"enumeration tallied {sum(tally.values())} of {total} matrices")
    if mode.subspace:  # the walk tallied every M of S's dimension
        spaces = sum(1 for _ in echelon_subspaces(cfg.field(), cfg.k,
                                                  len(cfg.subspace)))
        if any(v % spaces for v in tally.values()):
            raise ExactnessError(f"a subspace count is not shared by "
                                 f"{spaces} subspaces")
        tally = {key: v // spaces for key, v in tally.items()}
    return CensusReport(make_params(cfg.mode, cfg.field(), cfg.n, cfg.k,
                                    **extra), tally, source="enumerated")


def closed_form(cfg: EnumConfig) -> CensusReport:
    """The closed-form census that :func:`run` on ``cfg`` is checked against."""
    mode, cfg, _ = _resolve(cfg)
    build = getattr(census, f"{cfg.mode}_census")
    return build(cfg.field(), *mode.closed_args(cfg))


# ---------------------------------------------------------------------------
# Diffing closed-form versus enumerated censuses
# ---------------------------------------------------------------------------

DIFF_SCHEMA = "diff-report/v1"

_REQUIRED_PARAMS = ("mode", "q", "n", "k")


class DiffRow(namedtuple("DiffRow", "key expected observed")):
    """One key's closed-form and enumerated count; None where it is absent."""

    __slots__ = ()

    @property
    def match(self) -> bool:
        return self.expected == self.observed


class DiffReport(namedtuple("DiffReport", "parameters rows")):
    """Per-key comparison of two censuses; verdict is true only on identity."""

    __slots__ = ()

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
        return compact_json(self.to_json_dict())


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
