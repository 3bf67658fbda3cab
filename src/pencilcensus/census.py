"""Closed-form counting of matrices over finite fields, in exact integers.

Every count here is an exact nonnegative integer computed with unbounded
integer (or exact rational) arithmetic.  Partitions are plain tuples of
positive ints in weakly decreasing order; the empty tuple is the empty
partition.  Census results are collected into :class:`CensusReport` maps
whose keys are canonical strings, so that closed-form and enumerated reports
diff cleanly.

A count depends on an invariant-factor tuple only through its *type*: the
total degree d and the multiset of pairs (deg g, lambda_g) over the monic
irreducibles g dividing the tuple, lambda_g being the partition of exponents
of g in p_k, p_{k-1}, ...  The censuses therefore never factor anything: they
walk (irreducible, partition) pairs, build each tuple by multiplying the
irreducible powers into place, and evaluate each type's count once.
Factoring (:func:`exponent_profile`, :func:`chains_with_product`) serves
only the single counts that take a tuple or polynomial as input.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterator

from .errors import (
    DegreeMismatchError,
    DegreeTooLargeError,
    ExactnessError,
    NonMonicError,
    ShapeError,
)
from .gf import FieldCtx
from .polyring import (
    Poly,
    _multiplicity_unchecked,
    factorize,
    irreducibles_up_to,
)
from .smith import InvariantFactorTuple

CENSUS_SCHEMA = "census-report/v1"


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------

def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugate partition; an involution on partitions."""
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= i)
                 for i in range(1, parts[0] + 1))


def partitions(total: int, max_parts: int | None = None
               ) -> Iterator[tuple[int, ...]]:
    """All partitions of ``total`` with at most ``max_parts`` parts, descending."""
    limit = total if max_parts is None else max_parts

    def gen(remaining: int, max_part: int, slots: int):
        if remaining == 0:
            yield ()
            return
        if slots == 0 or max_part == 0:
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - first, first, slots - 1):
                yield (first,) + rest

    yield from gen(total, total, limit)


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------

def gl_order(n: int, q: int) -> int:
    """Order of the group of invertible n x n matrices; 1 for n = 0."""
    out = 1
    qn = q ** n
    for i in range(n):
        out *= qn - q ** i
    return out


def q_binomial(k: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of a k-dimensional space over F_q.

    Returns 0 for d outside [0, k], so sums over d stay total.
    """
    if d < 0 or d > k:
        return 0
    out = 1
    for i in range(1, d + 1):
        out, r = divmod(out * (q ** (k - d + i) - 1), q ** i - 1)
        if r:
            raise ExactnessError("partial Gaussian binomial must be integral")
    return out


def centralizer_factor(parts: tuple[int, ...], d: int, q: int) -> int:
    """Partition-indexed product in the denominator of the class-size formula.

    Depends on the irreducible block polynomial only through its degree d.
    """
    conj = conjugate(parts)
    out = 1
    h = 0
    for i, ci in enumerate(conj):
        h += ci
        mult = ci - (conj[i + 1] if i + 1 < len(conj) else 0)
        for j in range(1, mult + 1):
            out *= q ** (d * h) - q ** (d * (h - j))
    return out


def exponent_profile(ifs: InvariantFactorTuple) -> dict[Poly, tuple[int, ...]]:
    """Partition of prime-power exponents per irreducible divisor.

    For each monic irreducible f dividing the product of the invariant
    factors, the value is the weakly decreasing tuple of exponents of f in
    p_k, p_{k-1}, ..., truncated at the first zero.
    """
    product = ifs.product()
    profile: dict[Poly, tuple[int, ...]] = {}
    for f, _ in factorize(product).factors:
        parts = []
        for p in reversed(ifs.polys):
            e = _multiplicity_unchecked(f, p)
            if e == 0:
                break
            parts.append(e)
        profile[f] = tuple(parts)
    return profile


def _profile_blocks(ifs: InvariantFactorTuple
                    ) -> list[tuple[int, tuple[int, ...]]]:
    """The type of a tuple: (deg g, lambda_g) per irreducible divisor g."""
    return [(len(g.coeffs) - 1, parts)
            for g, parts in exponent_profile(ifs).items()]


def _exact_div(a: int, b: int) -> int:
    quot, rem = divmod(a, b)
    if rem:
        raise ExactnessError("count formula produced a non-integer")
    return quot


def _class_size(d: int, blocks, q: int) -> int:
    """Size of the similarity class of d x d matrices with the given type,
    one (deg g, lambda_g) pair per irreducible g."""
    den = 1
    for deg, parts in blocks:
        den *= centralizer_factor(parts, deg, q)
    return _exact_div(gl_order(d, q), den)


def _tail_product(n: int, lo: int, k: int, q: int) -> int:
    """Product of (q^n - q^i) for i = lo .. k."""
    out = 1
    qn = q ** n
    for i in range(lo, k + 1):
        out *= qn - q ** i
    return out


# ---------------------------------------------------------------------------
# Counting formulas
# ---------------------------------------------------------------------------

def count_conjugacy_class(ifs: InvariantFactorTuple) -> int:
    """Number of n x n matrices whose pencil has these n invariant factors.

    Zero unless the factor degrees sum to n.
    """
    n = len(ifs)
    if ifs.total_degree() != n:
        return 0
    return _class_size(n, _profile_blocks(ifs), ifs.field.q)


def count_with_subspace(n: int, k: int, d: int,
                        ifs: InvariantFactorTuple) -> int:
    """Maps from a k-dim subspace into the ambient n-dim space with a fixed
    d-dimensional maximal invariant subspace and the given invariant factors.

    The value is independent of which d-dimensional subspace is fixed.
    """
    if len(ifs) != k or not 0 <= d <= k <= n:
        raise ShapeError(f"need len(I) = k and 0 <= d <= k <= n, got {n},{k},{d}")
    if ifs.total_degree() != d:
        raise DegreeMismatchError(
            f"invariant factors have total degree {ifs.total_degree()}, not {d}")
    return _subspace_count(n, k, d, _profile_blocks(ifs), ifs.field.q)


def _subspace_count(n: int, k: int, d: int, blocks, q: int) -> int:
    return _class_size(d, blocks, q) * _tail_product(n, d + 1, k, q)


def count_invariant_factors(n: int, k: int, ifs: InvariantFactorTuple) -> int:
    """Number of n x k matrices whose pencil has the given invariant factors."""
    if len(ifs) != k or not 1 <= k <= n:
        raise ShapeError(f"need len(I) = k and 1 <= k <= n, got {n},{k}")
    d = ifs.total_degree()
    if d > k:
        return 0
    return _pencil_count(n, k, d, _profile_blocks(ifs), ifs.field.q)


def _pencil_count(n: int, k: int, d: int, blocks, q: int) -> int:
    return q_binomial(k, d, q) * _subspace_count(n, k, d, blocks, q)


def count_given_u(n: int, k: int, d: int, q: int) -> int:
    """Maps from a k-dim subspace into n-dim space whose maximal invariant
    subspace is one fixed d-dimensional subspace."""
    if not 0 <= d <= k <= n:
        raise ShapeError(f"need 0 <= d <= k <= n, got {n},{k},{d}")
    return q ** (d * d) * _tail_product(n, d + 1, k, q)


def count_reachability(k: int, n: int, r: int, q: int) -> int:
    """Pairs (A, B) in M_k x M_{k,n-k} whose reachability matrix has rank r."""
    if not 0 <= r <= k < n:
        raise ShapeError(f"need 0 <= r <= k < n, got k={k}, n={n}, r={r}")
    return (q_binomial(k, r, q) * q ** ((k - r) ** 2)
            * _tail_product(n, k - r + 1, k, q))


def _inverse_power_product(q: int, r: int) -> Fraction:
    out = Fraction(1)
    for i in range(1, r + 1):
        out *= 1 - Fraction(1, q ** i)
    return out


def count_char_poly_square(f: Poly) -> int:
    """Square matrices with characteristic polynomial f (deg f = matrix size)."""
    if not f.is_monic():
        raise NonMonicError("characteristic polynomial must be monic")
    blocks = [(len(g.coeffs) - 1, e) for g, e in factorize(f).factors]
    return _square_fiber(len(f.coeffs) - 1, blocks, f.field.q)


def _square_fiber(d: int, blocks, q: int) -> int:
    """Square d x d matrices whose characteristic polynomial has the given
    type, one (deg g, e) pair per irreducible power g^e."""
    value = Fraction(q ** (d * d - d)) * _inverse_power_product(q, d)
    for deg, e in blocks:
        value /= _inverse_power_product(q ** deg, e)
    if value.denominator != 1:
        raise ExactnessError("fiber count must be integral")
    return value.numerator


def count_char_poly_rect(f: Poly, n: int, k: int) -> int:
    """n x k matrices whose pencil has invariant-factor product f (deg f <= k)."""
    if not f.is_monic():
        raise NonMonicError("fiber polynomial must be monic")
    if not 1 <= k <= n:
        raise ShapeError(f"need 1 <= k <= n, got {n},{k}")
    d = len(f.coeffs) - 1
    if d > k:
        raise DegreeTooLargeError(f"deg f = {d} exceeds k = {k}")
    blocks = [(len(g.coeffs) - 1, e) for g, e in factorize(f).factors]
    return _fiber_count(n, k, d, blocks, f.field.q)


def _fiber_count(n: int, k: int, d: int, blocks, q: int) -> int:
    return (q_binomial(k, d, q) * _square_fiber(d, blocks, q)
            * _tail_product(n, d + 1, k, q))


def count_nilpotent_extendable(k: int, n: int, q: int) -> int:
    """Maps from a k-dim subspace into n-dim space that extend to a nilpotent
    operator on the whole space."""
    if not 1 <= k <= n:
        raise ShapeError(f"need 1 <= k <= n, got k={k}, n={n}")
    return q ** (n * (k - 1)) * (q ** n - q ** k + 1)


def check_q_identity(d: int, q: int, y: int) -> bool:
    """Exactness self-test of the binomial-style power expansion at integer y."""
    if d < 0:
        raise ShapeError("d must be nonnegative")
    rhs = 0
    for j in range(d + 1):
        term = q ** (j * j) * q_binomial(d, j, q)
        for i in range(j + 1, d + 1):
            term *= y - q ** i
        rhs += term
    return y ** d == rhs


# ---------------------------------------------------------------------------
# Enumerating all invariant-factor tuples
# ---------------------------------------------------------------------------

def chains_with_product(f: Poly, k: int) -> Iterator[InvariantFactorTuple]:
    """All k-tuples p_1 | p_2 | ... | p_k of monic polynomials with product f.

    Built from the factorization of f: a chain corresponds to one weakly
    increasing exponent sequence per irreducible divisor, i.e. a partition of
    its exponent into at most k parts.
    """
    field = f.field
    factored = factorize(f)
    per_factor: list[tuple[Poly, list[tuple[int, ...]]]] = []
    for g, e in factored.factors:
        seqs = [tuple([0] * (k - len(lam)) + sorted(lam))
                for lam in partitions(e, max_parts=k)]
        per_factor.append((g, seqs))
    one = Poly.one(field)
    for combo in itertools.product(*(seqs for _, seqs in per_factor)):
        polys = []
        for i in range(k):
            p = one
            for (g, _), seq in zip(per_factor, combo):
                if seq[i]:
                    p = p * g ** seq[i]
            polys.append(p)
        yield InvariantFactorTuple(polys)


def _types(field: FieldCtx, max_degree: int, slots: int
           ) -> Iterator[tuple[int, list[Poly], tuple]]:
    """Every chain p_1 | ... | p_slots of monic polynomials with total degree
    d <= max_degree, built from its type without factoring.

    Yields ``(d, [p_1, ..., p_slots], blocks)``; ``blocks`` holds one
    ``(deg g, lambda_g)`` pair per irreducible divisor g, in canonical order
    of g, and lambda_g (at most ``slots`` parts) gives the exponents of g in
    p_slots, p_slots-1, ...  With one slot every monic polynomial of degree
    <= max_degree comes out once.
    """
    irreducibles = irreducibles_up_to(field, max_degree)

    def walk(start, d, polys, blocks):
        yield d, polys, blocks
        for i in range(start, len(irreducibles)):
            g = irreducibles[i]
            deg = len(g.coeffs) - 1
            if d + deg > max_degree:
                break  # irreducibles come in ascending degree
            for e in range(1, (max_degree - d) // deg + 1):
                for lam in partitions(e, max_parts=slots):
                    chain = list(polys)
                    for j, part in enumerate(lam, start=1):
                        chain[-j] = chain[-j] * g ** part
                    yield from walk(i + 1, d + deg * e, chain,
                                    blocks + ((deg, lam),))

    yield from walk(0, 0, [Poly.one(field)] * slots, ())


def _census_entries(field: FieldCtx, max_degree: int, slots: int,
                    count) -> dict[str, int]:
    """Nonzero ``count(d, blocks)`` per chain key, evaluated once per type."""
    by_type: dict[tuple, int] = {}
    entries = {}
    for d, polys, blocks in _types(field, max_degree, slots):
        type_key = (d, tuple(sorted(blocks)))
        v = by_type.get(type_key)
        if v is None:
            v = by_type[type_key] = count(d, blocks)
        if v:
            # str(InvariantFactorTuple(polys)), minus its divisibility check:
            # the chain divides by construction.
            entries["|".join(str(p) for p in polys)] = v
    return entries


def invariant_factor_tuples(field: FieldCtx, k: int
                            ) -> Iterator[InvariantFactorTuple]:
    """All valid k-tuples of invariant factors with total degree <= k."""
    for _, polys, _ in _types(field, k, k):
        yield InvariantFactorTuple(polys)


# ---------------------------------------------------------------------------
# Census reports
# ---------------------------------------------------------------------------

@dataclass
class CensusReport:
    """Exact tally keyed by a canonical classifying string."""

    parameters: dict
    entries: dict[str, int] = dc_field(default_factory=dict)
    source: str = "closed-form"

    def total(self) -> int:
        return sum(self.entries.values())

    def to_json_dict(self) -> dict:
        return {
            "schema": CENSUS_SCHEMA,
            "source": self.source,
            "parameters": self.parameters,
            "entries": {key: str(v) for key, v in self.entries.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "CensusReport":
        data = json.loads(text)
        if data.get("schema") != CENSUS_SCHEMA:
            raise ValueError(f"not a census report: {data.get('schema')!r}")
        return cls(parameters=data["parameters"],
                   entries={key: int(v) for key, v in data["entries"].items()},
                   source=data["source"])


def make_params(mode: str, f: FieldCtx, n: int, k: int, **extra) -> dict:
    params = {"mode": mode, "q": f.q, "p": f.p, "m": f.m, "n": n, "k": k}
    params.update(extra)
    return params


def pencil_census(f: FieldCtx, n: int, k: int) -> CensusReport:
    """Closed-form census of n x k matrices by invariant-factor tuple."""
    if not 1 <= k <= n:
        raise ShapeError(f"need 1 <= k <= n, got {n},{k}")
    entries = _census_entries(
        f, k, k, lambda d, blocks: _pencil_count(n, k, d, blocks, f.q))
    return CensusReport(make_params("pencil", f, n, k), entries)


def pair_census(f: FieldCtx, k: int, n: int) -> CensusReport:
    """Closed-form census of matrix pairs by reachability rank."""
    entries = {str(r): count_reachability(k, n, r, f.q) for r in range(k + 1)}
    return CensusReport(make_params("pair", f, n, k), entries)


def fiber_census(f: FieldCtx, n: int, k: int) -> CensusReport:
    """Closed-form census of n x k matrices by invariant-factor product."""
    if not 1 <= k <= n:
        raise ShapeError(f"need 1 <= k <= n, got {n},{k}")

    def count(d, blocks):
        powers = [(deg, lam[0]) for deg, lam in blocks]
        return _fiber_count(n, k, d, powers, f.q)

    entries = _census_entries(f, k, 1, count)
    return CensusReport(make_params("fiber", f, n, k), entries)


def subspace_census(f: FieldCtx, n: int, k: int, d: int) -> CensusReport:
    """Closed-form census, per tuple, of maps whose maximal invariant
    subspace is a fixed d-dimensional one (the same for every such subspace)."""
    if not 0 <= d <= k <= n:
        raise ShapeError(f"need 0 <= d <= k <= n, got {n},{k},{d}")
    entries = _census_entries(
        f, d, k, lambda e, blocks:
        _subspace_count(n, k, d, blocks, f.q) if e == d else 0)
    return CensusReport(make_params("subspace", f, n, k, d=d), entries)


def nilext_census(f: FieldCtx, n: int, k: int) -> CensusReport:
    """Closed-form count of maps extendable to a nilpotent operator."""
    entries = {"extendable": count_nilpotent_extendable(k, n, f.q)}
    return CensusReport(make_params("nilext", f, n, k), entries)
