"""Dense univariate polynomials over a finite field, as coefficient tuples.

A polynomial is the tuple of its coefficients in ascending degree order with
no trailing zeros, so the zero polynomial is the empty tuple and the degree
is the length less one.  Factorization is by trial division against a sieve
of monic irreducibles, grown one degree at a time up to half the degree of
the cofactor: the cofactor left over is irreducible.  That is exact,
deterministic and entirely sufficient at the degrees this package ever
sees.  The sieve builds each reducible monic once, in a product table that
the closed-form censuses read their keys from.

Canonical order for factor lists and the irreducible sieve: degree ascending,
then coefficient sequence lexicographic from the constant term up.

The ``coeffs_*`` functions are the one product, difference, division,
normalisation, Euclid loop and multiplicity of the package, and
:func:`coeffs_text` and :func:`parse_coeffs` its one renderer and parser:
:mod:`gf`, :mod:`smith`, :mod:`census`, :mod:`oracle` and :mod:`cli` all
read them.  :class:`Poly` only wraps them for the benchmark.
"""

from __future__ import annotations

import itertools
import re
from collections import namedtuple
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import DegreeTooLargeError, DivisionByZeroError, ZeroArgumentError
from .gf import DEGREE_CAP, FieldCtx

SIEVE_LEVEL_CAP = 1 << 24  # monics in one sieve level: the default budget


def coeffs_mul(field: FieldCtx, a: Sequence[int],
               b: Sequence[int]) -> tuple[int, ...]:
    """The coefficients of the product of two coefficient sequences without
    trailing zeros: the one multiply loop of the package.  Over a prime
    field it sums plain integer products and reduces each coefficient once
    mod p; over an extension field it adds through ``field.add`` and
    ``field.mul``."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    if field.m == 1:
        for i, ca in enumerate(a):
            if ca:
                j = i
                for cb in b:
                    out[j] += ca * cb
                    j += 1
        p = field.p
        return tuple([c % p for c in out])
    mul, add = field.mul, field.add
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                if cb:
                    c = cb if ca == 1 else mul(ca, cb)
                    out[j] = add(out[j], c) if out[j] else c
    return tuple(out)


def coeffs_submul(field: FieldCtx, a: Sequence[int], c: Sequence[int],
                  b: Sequence[int]) -> tuple[int, ...]:
    """The coefficients of a - c*b, each without trailing zeros, with the
    two branches of :func:`coeffs_mul`."""
    out = list(a) + [0] * (len(c) + len(b) - 1 - len(a))
    if field.m == 1:
        for i, ci in enumerate(c):
            if ci:
                for j, cb in enumerate(b, i):
                    out[j] -= ci * cb
        p = field.p
        out = [v % p for v in out]
    else:
        mul, sub = field.mul, field.sub
        for i, ci in enumerate(c):
            for j, cb in enumerate(b, i):
                out[j] = sub(out[j], mul(ci, cb))
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def coeffs_divmod(field: FieldCtx, a: Sequence[int], b: Sequence[int]
                  ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quotient and remainder of a by the nonzero b, each without trailing
    zeros: the one division loop of the package, with the two branches of
    :func:`coeffs_mul`; over a prime field each leading coefficient is
    reduced mod p as it is read, and the remainder once at the end."""
    db = len(b) - 1
    if len(a) <= db:
        return (), tuple(a)
    if not db and b[0] == 1:  # the divisor of most Smith form steps
        return tuple(a), ()
    quot, rem, lead_inv = [0] * (len(a) - db), list(a), field.inv(b[-1])
    if field.m == 1:
        p = field.p
        if not db:  # a unit divides without remainder
            return tuple([c * lead_inv % p for c in a]), ()
        for shift in range(len(a) - 1 - db, -1, -1):
            c = quot[shift] = rem[shift + db] * lead_inv % p
            if c:
                for j, cb in enumerate(b[:-1], shift):
                    rem[j] -= c * cb
        rem = [v % p for v in rem[:db]]
    else:
        mul, sub = field.mul, field.sub
        if not db:
            return tuple([mul(c, lead_inv) for c in a]), ()
        for shift in range(len(a) - 1 - db, -1, -1):
            c = quot[shift] = mul(rem[shift + db], lead_inv)
            if c:
                for j, cb in enumerate(b[:-1], shift):
                    rem[j] = sub(rem[j], mul(c, cb))
        del rem[db:]
    while rem and not rem[-1]:
        rem.pop()
    return tuple(quot), tuple(rem)


def coeffs_monic(field: FieldCtx, a: Sequence[int]) -> tuple[int, ...]:
    """a scaled to leading coefficient 1, () staying (): the one monic."""
    return coeffs_divmod(field, a, (a[-1],))[0] if a else ()


def coeffs_gcd(field: FieldCtx, a: Sequence[int],
               b: Sequence[int]) -> tuple[int, ...]:
    """The monic gcd of a and b, not both zero: the one Euclid loop."""
    while b:
        a, b = b, coeffs_divmod(field, a, b)[1]
    return coeffs_monic(field, a)


def coeffs_multiplicity(field: FieldCtx, g: Sequence[int], h: Sequence[int]
                        ) -> tuple[int, Sequence[int]]:
    """(e, h / g^e) for the largest e with g^e dividing h != 0, deg g >= 1."""
    e, (quot, rem) = 0, coeffs_divmod(field, h, g)
    while not rem:
        h, e, (quot, rem) = quot, e + 1, coeffs_divmod(field, quot, g)
    return e, h


class Poly:
    """A polynomial over a fixed field as its coefficient tuple, trailing
    zeros trimmed, with a product and a division with remainder: kept only
    because the benchmark's micro layer (``perfbench/micro.py``) multiplies
    and divides them and its tracer (``perfbench/tracer.py``'s
    ``COUNTERS``) counts ``__init__``, ``__mul__`` and ``__divmod__``.  The
    package itself works on bare coefficient tuples."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldCtx, coeffs: Sequence[int] = ()):
        n = len(coeffs)
        while n and coeffs[n - 1] == 0:
            n -= 1
        self.field = field
        self.coeffs = tuple(coeffs[:n])

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly(self.field,
                    coeffs_mul(self.field, self.coeffs, other.coeffs))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if not other.coeffs:
            raise DivisionByZeroError("polynomial division by zero")
        quot, rem = coeffs_divmod(self.field, self.coeffs, other.coeffs)
        return Poly(self.field, quot), Poly(self.field, rem)


def monic_tuples(field: FieldCtx, degree: int) -> Iterator[tuple[int, ...]]:
    """The coefficient tuples of all monic polynomials of the given degree,
    in canonical order."""
    return (tail + (1,) for tail in
            itertools.product(field.elements(), repeat=degree))


class _Sieve(tuple):
    """The monic irreducibles of degree <= d as coefficient tuples, in
    canonical order, with the product table that every bound of their field
    shares: ``products[p, i, e]`` holds the coefficients and text of
    p * g_i^e, g_i being the i-th irreducible, for each monic whose largest
    factor is g_i, of multiplicity e, with cofactor p."""

    def __new__(cls, polys, products):
        sieve = super().__new__(cls, polys)
        sieve.products = products
        return sieve

    def __getnewargs__(self):
        return tuple(self), self.products


@lru_cache(maxsize=None)
def irreducibles_up_to(field: FieldCtx, d: int) -> tuple[tuple[int, ...], ...]:
    """All monic irreducibles of degree <= d, as coefficient tuples, in
    canonical order.

    Grown one degree at a time.  Each reducible monic of degree d is built
    once, by one multiply of entries of the product table: as p * g^e, with
    g its largest irreducible factor, e the multiplicity of g and every
    factor of p before g (g^e itself as g^(e-1) * g).  The monics of degree
    d that this does not reach, taken in :func:`monic_tuples` order, are
    the irreducibles of degree d.  The table holds coefficient tuples and
    their texts.  Cached per (field, bound); the table lives in the cached
    results, so ``cache_clear`` drops it.
    """
    if d < 1:
        return _Sieve((), {})
    lower = irreducibles_up_to(field, d - 1)
    products = lower.products
    made = {}
    cofactors = [((1,), -1)] + [(p, j) for (_, j, _), (p, _)
                                 in products.items()]
    for p, j in cofactors:
        k = len(p) - 1
        for i in range(j + 1, len(lower)):
            g = lower[i]
            e, r = divmod(d - k, len(g) - 1)
            if not e:
                break  # irreducibles come in ascending degree
            if not r:
                a, b = ((p, products[(1,), i, e][0]) if k
                        else (products[(1,), i, e - 1][0], g))
                made[p, i, e] = coeffs_mul(field, a, b)
    reached = set(made.values())
    found = [c for c in monic_tuples(field, d) if c not in reached]
    made.update((((1,), i, 1), c) for i, c in enumerate(found, len(lower)))
    for key, c in made.items():
        products[key] = c, coeffs_text(field, c)
    return _Sieve(lower + tuple(found), products)


def is_irreducible(field: FieldCtx, coeffs: Sequence[int]) -> bool:
    """Whether the polynomial has degree >= 1 and no proper factor: read
    from :func:`factorize`, so it is refused past the same sieve cap."""
    if len(coeffs) < 2:
        return False
    return [e for _, e in factorize(field, coeffs).factors] == [1]


class Factorization(namedtuple("Factorization", "unit factors")):
    """Complete factorization ``unit * prod(f_i ** e_i)`` with canonical order:
    ``factors`` is a tuple of pairs (f_i, e_i), f_i a coefficient tuple."""

    __slots__ = ()

    def reconstruct(self, field: FieldCtx) -> tuple[int, ...]:
        out = (self.unit,)
        for f, e in self.factors:
            for _ in range(e):
                out = coeffs_mul(field, out, f)
        return out


def factorize(field: FieldCtx, coeffs: Sequence[int]) -> Factorization:
    """Factor a nonzero coefficient tuple into monic irreducibles by trial
    division, in canonical order: for a = 1, 2, ... while 2a <= deg h, h the
    cofactor left so far, divide h by the irreducibles of degree a, so the
    sieve stops at half the cofactor's degree.  A cofactor h != 1 left after
    that has no factor of at most half its degree, so it is irreducible; it
    is none of the irreducibles tried, so it sorts after every factor found.
    Before each level past the first, a cofactor that may need a level of
    more than ``SIEVE_LEVEL_CAP`` monics is refused."""
    if not coeffs:
        raise ZeroArgumentError("cannot factor the zero polynomial")
    unit = coeffs[-1]
    h = coeffs_monic(field, coeffs)
    factors: list[tuple[tuple[int, ...], int]] = []
    tried = 0
    a = 1
    while 2 * a <= len(h) - 1:
        half = (len(h) - 1) // 2
        if a > 1 and field.q ** half > SIEVE_LEVEL_CAP:
            raise DegreeTooLargeError(
                f"factoring may need the {field.q}^{half} monics of degree "
                f"{half}, past the {SIEVE_LEVEL_CAP} a sieve level may hold")
        sieve = irreducibles_up_to(field, a)
        for f in sieve[tried:]:
            if 2 * a > len(h) - 1:
                break
            e, h = coeffs_multiplicity(field, f, h)
            if e:
                factors.append((f, e))
        tried = len(sieve)
        a += 1
    if len(h) > 1:
        factors.append((h, 1))
    return Factorization(unit, tuple(factors))


# ---------------------------------------------------------------------------
# Text and JSON formats
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"^(?:\[(?P<bracket>\d+)\]|(?P<plain>\d+))?"
    r"(?:\*?(?P<var>x)(?:\^(?P<exp>\d+))?)?$")


# field -> {e * q + c: text of the term c*x^e}, filled as each term first
# appears
_TERMS: dict[FieldCtx, dict[int, str]] = {}


def coeffs_text(field: FieldCtx, coeffs: Sequence[int]) -> str:
    """The text of a coefficient sequence without trailing zeros in the CLI
    grammar, e.g. "x^3+2*x+1" or "[3]*x^2+[1]", joined from the field's
    table of term texts."""
    if not coeffs:
        return "0"
    terms = _TERMS.get(field)
    if terms is None:
        terms = _TERMS[field] = {}
    q = field.q
    out = []
    e = len(coeffs)
    for c in reversed(coeffs):
        e -= 1
        if c:
            term = terms.get(e * q + c)
            if term is None:
                term = terms[e * q + c] = _term_text(field.m > 1, c, e)
            out.append(term)
    return "+".join(out)


def _term_text(bracketed: bool, c: int, e: int) -> str:
    if bracketed:
        coef = f"[{c}]"
    elif c == 1 and e > 0:
        coef = ""
    else:
        coef = str(c)
    if e == 0:
        var = ""
    elif e == 1:
        var = "x"
    else:
        var = f"x^{e}"
    return f"{coef}*{var}" if coef and var else coef or var


def parse_coeffs(text: str, field: FieldCtx) -> tuple[int, ...]:
    """The coefficient tuple of a polynomial in the grammar produced by
    :func:`coeffs_text`.

    A leading or embedded '-' negates the following term's coefficient in
    the field, so "x^2-1" is accepted over prime fields.  A degree past
    ``DEGREE_CAP`` is refused before anything of that size is built.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial string")
    if s == "0":
        return ()
    pieces = re.findall(r"([+-]?)([^+-]+)", s)
    if "".join(sign + body for sign, body in pieces) != s:
        raise ValueError(f"cannot parse polynomial {text!r}")
    coeffs: dict[int, int] = {}
    for sign, body in pieces:
        m = _TERM_RE.match(body)
        if not m or (m.group("bracket") is None and m.group("plain") is None
                     and m.group("var") is None):
            raise ValueError(f"bad term {body!r} in polynomial {text!r}")
        raw = m.group("bracket") or m.group("plain")
        if raw is None:
            c = 1
        else:
            c = int(raw)
            if not 0 <= c < field.q:
                raise ValueError(
                    f"coefficient {c} out of range for GF({field.q})")
        if m.group("var") is None:
            e = 0
        elif m.group("exp") is None:
            e = 1
        else:
            e = int(m.group("exp"))
            if e > DEGREE_CAP:
                raise DegreeTooLargeError(
                    f"degree {e} in {text!r} is past the cap of {DEGREE_CAP}")
        if sign == "-":
            c = field.neg(c)
        coeffs[e] = field.add(coeffs.get(e, 0), c)
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    while out and not out[-1]:
        out.pop()
    return tuple(out)
