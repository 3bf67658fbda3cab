"""Dense univariate polynomials over a finite field.

Coefficients are stored in ascending degree order with no trailing zeros, so
the zero polynomial is the empty tuple and ``degree`` of zero is the
``NEG_INF`` sentinel.  Factorization is by trial division against a
multiplicative sieve of monic irreducibles, which is exact, deterministic and
entirely sufficient at the degrees this package ever sees.

Canonical order for factor lists and the irreducible sieve: degree ascending,
then coefficient sequence lexicographic from the constant term up.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import (
    BothZeroError,
    DivisionByZeroError,
    ExactnessError,
    NotIrreducibleError,
    ZeroArgumentError,
)
from .gf import FieldCtx, parse_field_spec

NEG_INF = float("-inf")


class Poly:
    """Immutable polynomial over a fixed field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldCtx, coeffs: Sequence[int] = ()):
        n = len(coeffs)
        while n and coeffs[n - 1] == 0:
            n -= 1
        self.field = field
        self.coeffs = tuple(coeffs[:n])

    @classmethod
    def zero(cls, field: FieldCtx) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: FieldCtx) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: FieldCtx) -> "Poly":
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field: FieldCtx, c: int) -> "Poly":
        return cls(field, (c,))

    # -- basic queries --------------------------------------------------------

    @property
    def degree(self):
        """Degree as an int; NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading(self) -> int:
        if not self.coeffs:
            raise ZeroArgumentError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        add = self.field.add
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return Poly(self.field, out)

    def __neg__(self) -> "Poly":
        neg = self.field.neg
        return Poly(self.field, [neg(c) for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        sub = self.field.sub
        a, b = self.coeffs, other.coeffs
        out = [0] * max(len(a), len(b))
        for i, c in enumerate(a):
            out[i] = c
        for i, c in enumerate(b):
            out[i] = sub(out[i], c)
        return Poly(self.field, out)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(self.field, ())
        field = self.field
        mul, add = field.mul, field.add
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] = add(out[i + j], mul(ca, cb))
        return Poly(field, out)

    def scale(self, c: int) -> "Poly":
        if c == 0:
            return Poly(self.field, ())
        if c == 1:
            return self
        mul = self.field.mul
        return Poly(self.field, [mul(c, v) for v in self.coeffs])

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative power")
        out = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if not other.coeffs:
            raise DivisionByZeroError("polynomial division by zero")
        a, b = self.coeffs, other.coeffs
        db = len(b) - 1
        if len(a) - 1 < db:
            return Poly(self.field, ()), self
        field = self.field
        mul, sub, inv = field.mul, field.sub, field.inv
        rem = list(a)
        quot = [0] * (len(a) - db)
        lead_inv = inv(b[-1])
        for shift in range(len(a) - 1 - db, -1, -1):
            c = rem[shift + db]
            if c:
                fac = mul(c, lead_inv)
                quot[shift] = fac
                for i, bc in enumerate(b):
                    if bc:
                        rem[shift + i] = sub(rem[shift + i], mul(fac, bc))
        return Poly(field, quot), Poly(field, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        """Unit-normalized copy (the zero polynomial stays zero)."""
        if not self.coeffs or self.coeffs[-1] == 1:
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    # -- identity -------------------------------------------------------------

    def sort_key(self) -> tuple:
        return (len(self.coeffs), self.coeffs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly)
                and self.coeffs == other.coeffs
                and self.field.p == other.field.p
                and self.field.m == other.field.m)

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.m, self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __str__(self) -> str:
        return poly_text(self)

    def __repr__(self) -> str:
        return f"Poly({poly_text(self)!r}, GF({self.field.q}))"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor via the Euclidean algorithm."""
    if a.is_zero() and b.is_zero():
        raise BothZeroError("gcd(0, 0) is undefined")
    while b.coeffs:
        a, b = b, a % b
    return a.monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return Poly.zero(a.field)
    return ((a * b) // poly_gcd(a, b)).monic()


def monic_polys(field: FieldCtx, degree: int) -> Iterator[Poly]:
    """All monic polynomials of the given degree, in canonical order."""
    if degree == 0:
        yield Poly.one(field)
        return
    for tail in itertools.product(field.elements(), repeat=degree):
        yield Poly(field, tail + (1,))


@lru_cache(maxsize=None)
def irreducibles_up_to(field: FieldCtx, d: int) -> tuple[Poly, ...]:
    """All monic irreducibles of degree <= d, in canonical order.

    Multiplicative sieve: a monic of degree d is reducible exactly when it is
    an irreducible of degree a <= d/2 times a monic of degree d - a, so every
    such product is marked and the unmarked monics of degree d, taken in
    :func:`monic_polys` order, are appended to the list for d - 1.  Cached
    per (field, bound).
    """
    if d < 1:
        return ()
    lower = irreducibles_up_to(field, d - 1)
    reducible = set()
    for g in lower:
        a = len(g.coeffs) - 1
        if 2 * a > d:
            break
        reducible.update((g * h).coeffs for h in monic_polys(field, d - a))
    return lower + tuple(cand for cand in monic_polys(field, d)
                         if cand.coeffs not in reducible)


def is_irreducible(f: Poly) -> bool:
    deg = f.degree
    if deg is NEG_INF or deg < 1:
        return False
    if not f.is_monic():
        f = f.monic()
    return all((f % g).coeffs for g in irreducibles_up_to(f.field, deg // 2))


def multiplicity(f: Poly, g: Poly) -> int:
    """Largest e such that f^e divides g; f must be monic irreducible."""
    if g.is_zero():
        raise ZeroArgumentError("multiplicity in the zero polynomial")
    if not f.is_monic() or not is_irreducible(f):
        raise NotIrreducibleError(f"{f} is not monic irreducible")
    return _multiplicity_unchecked(f, g)


def _multiplicity_unchecked(f: Poly, g: Poly) -> int:
    e = 0
    while True:
        quot, rem = divmod(g, f)
        if rem.coeffs:
            return e
        g = quot
        e += 1


@dataclass(frozen=True)
class Factorization:
    """Complete factorization ``unit * prod(f_i ** e_i)`` with canonical order."""

    unit: int
    factors: tuple[tuple[Poly, int], ...]

    def reconstruct(self, field: FieldCtx) -> Poly:
        out = Poly.constant(field, self.unit)
        for f, e in self.factors:
            out = out * f ** e
        return out


def factorize(g: Poly) -> Factorization:
    """Factor a nonzero polynomial into monic irreducibles by trial division."""
    if g.is_zero():
        raise ZeroArgumentError("cannot factor the zero polynomial")
    unit = g.leading()
    h = g.monic()
    factors: list[tuple[Poly, int]] = []
    deg = len(h.coeffs) - 1
    if deg:
        for f in irreducibles_up_to(g.field, deg):
            if len(f.coeffs) - 1 > len(h.coeffs) - 1:
                break
            e = 0
            while True:
                quot, rem = divmod(h, f)
                if rem.coeffs:
                    break
                h = quot
                e += 1
            if e:
                factors.append((f, e))
            if h.is_one():
                break
    if not h.is_one():
        raise ExactnessError("trial division left a nontrivial cofactor")
    return Factorization(unit, tuple(factors))


# ---------------------------------------------------------------------------
# Text and JSON formats
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"^(?:\[(?P<bracket>\d+)\]|(?P<plain>\d+))?"
    r"(?:\*?(?P<var>x)(?:\^(?P<exp>\d+))?)?$")


def poly_text(p: Poly) -> str:
    """Render in the CLI grammar, e.g. "x^3+2*x+1" or "[3]*x^2+[1]"."""
    if not p.coeffs:
        return "0"
    bracketed = p.field.m > 1
    terms = []
    for e in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[e]
        if not c:
            continue
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
        if coef and var:
            terms.append(f"{coef}*{var}")
        else:
            terms.append(coef or var)
    return "+".join(terms)


def parse_poly(text: str, field: FieldCtx) -> Poly:
    """Parse the polynomial grammar produced by :func:`poly_text`.

    A leading or embedded '-' negates the following term's coefficient in
    the field, so "x^2-1" is accepted over prime fields.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial string")
    if s == "0":
        return Poly.zero(field)
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
        if sign == "-":
            c = field.neg(c)
        coeffs[e] = field.add(coeffs.get(e, 0), c)
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return Poly(field, out)


def poly_to_json(p: Poly) -> dict:
    return {"field": p.field.spec_string, "coeffs": list(p.coeffs)}


def poly_from_json(data: dict) -> Poly:
    field = parse_field_spec(str(data["field"]))
    return Poly(field, [int(c) for c in data["coeffs"]])
