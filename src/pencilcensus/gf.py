"""Exact arithmetic in GF(p^m) and exact dense linear algebra over it.

Field elements are plain integers in ``[0, q)``.  For a prime field the value
is the residue itself; for an extension field it encodes the coefficient
vector of the polynomial-basis representation in base ``p`` (least
significant digit = constant coefficient): GF(p^m) is F_p[x]/(f), f the least
monic irreducible of degree m, found by :mod:`polyring` over the prime field,
which is built first and needs no modulus.  Every field keeps exp/log tables
of its least generator; prime fields add mod p, characteristic 2 adds by XOR
and odd-characteristic extensions add and subtract through Zech logarithms.
Elements carry no reference to their field: every operation takes the
:class:`FieldCtx` explicitly, which keeps mass enumeration over millions of
matrices cheap.  Mixing elements of different fields is a caller error
detected only by value-range checks.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable, Iterator, Sequence

from .errors import (
    BadSubspaceError,
    DivisionByZeroError,
    ExactnessError,
    FieldTooLargeError,
    NotPrimeError,
)

FIELD_SIZE_CAP = 1 << 16
DEGREE_CAP = 1 << 12  # largest degree parsed: more than the budget needs


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over F_p.

    Candidates are compared coefficient by coefficient from the highest
    degree down, and each is tested by :func:`polyring.is_irreducible` over
    the prime field.
    """
    from .polyring import is_irreducible
    prime = field_new(p)
    for desc in itertools.product(range(p), repeat=m):
        cand = tuple(reversed(desc)) + (1,)
        if is_irreducible(prime, cand):
            return cand
    raise ExactnessError(f"no irreducible of degree {m} over F_{p}")


def _digits_of(index: int, base: int, length: int) -> list[int]:
    """The ``length`` base-``base`` digits of ``index``, least first."""
    digits = []
    for _ in range(length):
        index, d = divmod(index, base)
        digits.append(d)
    return digits


# ---------------------------------------------------------------------------
# Field context
# ---------------------------------------------------------------------------

class FieldCtx:
    """Arithmetic context for GF(q), q = p^m.

    Immutable after construction; safe to share across workers.  Use
    :func:`field_new` rather than calling the constructor directly, so that
    contexts are cached one per (p, m).
    """

    __slots__ = ("p", "m", "q", "modulus", "generator", "_exp", "_log", "_zech",
                 "_zech_neg")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...] | None):
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = modulus
        self._build_log_tables()

    # -- construction helpers ------------------------------------------------

    def _build_log_tables(self) -> None:
        """exp, log, zech[n] = log(1 + g^n) and zech_neg[n] = log(1 - g^n) of
        the least generator g: the least g with g^((q-1)/r) != 1 for every
        prime r dividing q - 1.  -1 = g^((q-1)/2) in odd characteristic.
        Over an extension field the powers are coefficient tuples,
        multiplied and reduced mod the modulus by :mod:`polyring` over the
        prime field."""
        q, p, m = self.q, self.p, self.m
        if m == 1:
            one, element, value = 1, int, int  # an element is its residue

            def times(a, b):
                return a * b % p
        else:
            from .polyring import coeffs_divmod, coeffs_mul
            prime, one, places = field_new(p), (1,), [p ** i for i in range(m)]

            def element(v):  # the coefficient tuple of 0 < v < q
                digits = _digits_of(v, p, m)
                while not digits[-1]:
                    digits.pop()
                return tuple(digits)

            def value(c):
                return sum(map(operator.mul, c, places))

            def times(a, b):
                return coeffs_divmod(prime, coeffs_mul(prime, a, b),
                                     self.modulus)[1]

        def power(a, e):
            out = one
            while e:
                if e & 1:
                    out = times(out, a)
                a, e = times(a, a), e >> 1
            return out

        primes = [r for r in range(2, q) if (q - 1) % r == 0 and is_prime(r)]
        for g in range(1, q):
            if all(power(element(g), (q - 1) // r) != one for r in primes):
                break
        else:  # pragma: no cover - multiplicative group is always cyclic
            raise ExactnessError(f"no generator of GF({q})* found")
        exp = [0] * (2 * (q - 1))
        log = [0] * q
        acc, step = one, element(g)
        for i in range(q - 1):
            v = value(acc)
            exp[i] = exp[i + q - 1] = v
            log[v] = i
            acc = times(acc, step)
        self.generator = g
        self._exp = exp
        self._log = log
        ones = (v - v % p + (v + 1) % p for v in exp[:q - 1])  # 1 + g^n
        self._zech = [log[w] if w else -1 for w in ones]
        self._zech_neg = self._zech[(q - 1) // 2:] + self._zech[:(q - 1) // 2]

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if not a or not b:
            return a or b
        log = self._log
        n = self._zech[log[b] - log[a]]  # g^la + g^lb = g^la * (1 + g^(lb-la))
        return self._exp[log[a] + n] if n >= 0 else 0

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2 or not a:
            return a
        return self._exp[self._log[a] + (self.q - 1) // 2]  # -1 = g^((q-1)/2)

    def sub(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        if not a or not b:
            return a or self.neg(b)
        log = self._log
        n = self._zech_neg[log[b] - log[a]]  # g^la * (1 - g^(lb-la))
        return self._exp[log[a] + n] if n >= 0 else 0

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZeroError("zero has no multiplicative inverse")
        return self._exp[self.q - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def elements(self) -> range:
        return range(self.q)

    # -- plumbing ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"FieldCtx(q={self.q})"

    def __reduce__(self):
        return (field_new, (self.p, self.m))


_FIELD_CACHE: dict[tuple[int, int], FieldCtx] = {}


def _check_order(p: int, m: int) -> None:
    """Reject GF(p^m) unless m >= 1, p^m <= 2^16 and p is prime, in that
    order: a huge p or m is refused before p ** m or a primality test could
    take long (for p >= 2, m > 16 alone exceeds the cap)."""
    if m < 1:
        raise ValueError(f"extension degree must be >= 1, got {m}")
    if p >= 2 and (m >= FIELD_SIZE_CAP.bit_length() or p ** m > FIELD_SIZE_CAP):
        raise FieldTooLargeError(f"{p}^{m} exceeds the cap of 2^16")
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")


def field_new(p: int, m: int = 1) -> FieldCtx:
    """Return the (cached) field context for GF(p^m).

    For m > 1 the modulus is the lexicographically smallest monic
    irreducible of degree m over F_p, coefficients compared from the highest
    degree down.
    """
    key = (p, m)
    ctx = _FIELD_CACHE.get(key)
    if ctx is not None:
        return ctx
    _check_order(p, m)
    modulus = _smallest_irreducible(p, m) if m > 1 else None
    ctx = FieldCtx(p, m, modulus)
    _FIELD_CACHE[key] = ctx
    return ctx


def parse_field_order(text: str) -> tuple[int, int]:
    """The checked (p, m) of a field spec string: "p", "q" (a prime power)
    or "p^m", without building the field."""
    text = text.strip()
    if "^" in text:
        p_str, m_str = text.split("^", 1)
        p, m = int(p_str), int(m_str)
        _check_order(p, m)
        return p, m
    q = int(text)
    if q < 2:
        raise NotPrimeError(f"field order must be >= 2, got {q}")
    if q > FIELD_SIZE_CAP:  # before the trial division below
        raise FieldTooLargeError(f"{q} exceeds the cap of 2^16")
    p = 2
    while p * p <= q and q % p:
        p += 1
    if q % p:
        p = q
    m = 0
    rest = q
    while rest % p == 0:
        rest //= p
        m += 1
    if rest != 1:
        raise NotPrimeError(f"{q} is not a prime power")
    return p, m


def parse_field_spec(text: str) -> FieldCtx:
    """The field of a spec string, as read by :func:`parse_field_order`."""
    return field_new(*parse_field_order(text))


# ---------------------------------------------------------------------------
# Matrices over a field: lists of equal-length rows of plain ints.
# ---------------------------------------------------------------------------

def ScalarMatrix(rows: int, cols: int, entries: Sequence[int]) -> list[list[int]]:
    """The rows of a flat row-major matrix: kept only because the benchmark's
    micro layer (``perfbench/micro.py``) builds its SNF inputs with it."""
    return [list(entries[i * cols:(i + 1) * cols]) for i in range(rows)]


def rows_mul(field: FieldCtx, a: list[list[int]],
             b: list[list[int]]) -> list[list[int]]:
    """Row-list matrix product; no shape checks (internal hot path)."""
    mul, add = field.mul, field.add
    ncols = len(b[0]) if b else 0
    out = []
    for arow in a:
        acc = [0] * ncols
        for x, brow in zip(arow, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] = add(acc[j], mul(x, y))
        out.append(acc)
    return out


def rref_rows(field: FieldCtx, rows: Iterable[Sequence[int]],
              cols: int) -> list[list[int]]:
    """Reduced row-echelon form; returns only the nonzero (pivot) rows.

    Pivot search scans each column top to bottom and takes the first nonzero
    entry, which is all an exact field needs.  Zero rows are never pivots,
    so they are not copied.
    """
    work = [list(r) for r in rows if any(r)]
    mul, sub, inv = field.mul, field.sub, field.inv
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        prow = work[r]
        lead = prow[c]
        if lead != 1:
            lead_inv = inv(lead)
            for j in range(c, cols):
                prow[j] = mul(prow[j], lead_inv)
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                row = work[i]
                for j in range(c, cols):
                    if prow[j]:
                        row[j] = sub(row[j], mul(f, prow[j]))
        r += 1
        if r == len(work):
            break
    return work[:r]


def rank_rows(field: FieldCtx, rows: Iterable[Sequence[int]], cols: int) -> int:
    """Rank of a row list: the pivot count of :func:`rref_rows`."""
    return len(rref_rows(field, rows, cols))


def kernel_free_rows(field: FieldCtx, rows: Iterable[Sequence[int]],
                     cols: int) -> list[list[int]]:
    """A basis of the right null space from one reduction: per free column f
    of the reduced echelon form, the vector with 1 at f, 0 at the other free
    columns and minus column f's entry at each pivot."""
    red = rref_rows(field, rows, cols)
    pivots = [row.index(1) for row in red]  # each row's leading 1
    neg = field.neg
    vectors = []
    for f in range(cols):
        if f not in pivots:
            vec = [0] * cols
            vec[f] = 1
            for row, p in zip(red, pivots):
                if row[f]:
                    vec[p] = neg(row[f])
            vectors.append(vec)
    return vectors


def kernel_basis_rows(field: FieldCtx, rows: Iterable[Sequence[int]],
                      cols: int) -> tuple[tuple[int, ...], ...]:
    """Canonical (reduced-echelon) basis of the right null space."""
    return tuple(tuple(r) for r in rref_rows(
        field, kernel_free_rows(field, rows, cols), cols))


def echelon_subspaces(field: FieldCtx, k: int,
                      dim: int | None = None) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield every subspace of F_q^k as its canonical reduced-echelon basis.

    The zero subspace is the empty tuple.  Restrict to one dimension with
    ``dim``.
    """
    dims = range(k + 1) if dim is None else [dim]
    for d in dims:
        if d == 0:
            yield ()
            continue
        for pivots in itertools.combinations(range(k), d):
            pivot_set = set(pivots)
            free_slots = [(i, j) for i in range(d) for j in range(k)
                          if j > pivots[i] and j not in pivot_set]
            for fill in itertools.product(field.elements(), repeat=len(free_slots)):
                basis = [[0] * k for _ in range(d)]
                for i in range(d):
                    basis[i][pivots[i]] = 1
                for (i, j), v in zip(free_slots, fill):
                    basis[i][j] = v
                yield tuple(tuple(row) for row in basis)


def check_echelon_basis(field: FieldCtx, basis: Sequence[Sequence[int]],
                        k: int) -> tuple[tuple[int, ...], ...]:
    """Validate that ``basis`` is a canonical echelon basis inside F_q^k."""
    rows = [tuple(r) for r in basis]
    for row in rows:
        if len(row) != k:
            raise BadSubspaceError("basis vector length differs from k")
        if any(not (0 <= v < field.q) for v in row):
            raise BadSubspaceError("entry out of field range")
    canonical = tuple(tuple(r) for r in rref_rows(field, rows, k))
    if canonical != tuple(rows):
        raise BadSubspaceError("basis is not reduced-echelon / independent")
    return canonical
