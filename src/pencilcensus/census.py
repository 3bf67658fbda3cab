"""Closed-form counting of matrices over finite fields, in exact integers.

Every count here is an exact nonnegative integer computed with unbounded
integer arithmetic.  Partitions are plain tuples of
positive ints in weakly decreasing order; the empty tuple is the empty
partition.  Census results are collected into :class:`CensusReport` maps
whose keys are canonical strings, so that closed-form and enumerated reports
diff cleanly.

A count depends on an invariant-factor tuple only through its *type*: the
total degree d and the multiset of pairs (deg g, lambda_g) over the monic
irreducibles g dividing the tuple, lambda_g being the partition of exponents
of g in p_k, p_{k-1}, ...  The censuses therefore never factor anything: they
walk (irreducible, partition) pairs, put each tuple together from the
irreducible powers, and evaluate each count once per type, its blocks in
the order they were built.  The walk is one plain recursive function that
writes each key as it visits the chain; it works on coefficient tuples and
multiplies nothing: the sieve of :func:`polyring.irreducibles_up_to` keeps
a product table, by (p, g, e), with the coefficient tuple and key text of
each p*g^e, and every census of the field reads its keys from it, so each
polynomial of a key is built and rendered once per field.
Factoring (:func:`exponent_profile`) serves only the single counts that take
a tuple or a polynomial's coefficient tuple as input; a polynomial f has the
type of the one-factor tuple (f).
"""

from __future__ import annotations

import json
from collections import namedtuple
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
    coeffs_multiplicity,
    coeffs_text,
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
    return _partitions(total, total, total if max_parts is None else max_parts)


def _partitions(remaining: int, max_part: int,
                slots: int) -> Iterator[tuple[int, ...]]:
    """The partitions of ``remaining`` into at most ``slots`` parts of at most
    ``max_part``, descending; a module function, so that no closure refers to
    itself and a call leaves no reference cycle behind."""
    if remaining == 0:
        yield ()
        return
    if slots == 0 or max_part == 0:
        return
    for first in range(min(remaining, max_part), 0, -1):
        for rest in _partitions(remaining - first, first, slots - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------

def _q_product(a: int, lo: int, hi: int, q: int) -> int:
    """Product of (q^a - q^i) for lo <= i < hi; 1 when the range is empty."""
    out = 1
    qa = q ** a
    for i in range(lo, hi):
        out *= qa - q ** i
    return out


def gl_order(n: int, q: int) -> int:
    """Order of the group of invertible n x n matrices; 1 for n = 0."""
    return _q_product(n, 0, n, q)


def q_binomial(k: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of a k-dimensional space over F_q.

    Returns 0 for d outside [0, k], so sums over d stay total.
    """
    if d < 0 or d > k:
        return 0
    return _exact_div(_q_product(k, 0, d, q), gl_order(d, q))


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
        out *= _q_product(h, h - mult, h, q ** d)
    return out


def exponent_profile(ifs: InvariantFactorTuple) -> dict[tuple, tuple]:
    """Partition of prime-power exponents per irreducible divisor.

    For each monic irreducible f dividing the last invariant factor p_k,
    which every other one divides, keyed by its coefficient tuple, the value
    is the weakly decreasing tuple of exponents of f in p_k, p_{k-1}, ...,
    truncated at the first zero.
    """
    field, chain = ifs.field, ifs.coeffs
    profile = {}
    for f, e in factorize(field, chain[-1]).factors:
        parts = [e]
        for p in reversed(chain[:-1]):
            e = coeffs_multiplicity(field, f, p)[0]
            if e == 0:
                break
            parts.append(e)
        profile[f] = tuple(parts)
    return profile


def _profile_blocks(ifs: InvariantFactorTuple
                    ) -> list[tuple[int, tuple[int, ...]]]:
    """The type of a tuple: (deg g, lambda_g) per irreducible divisor g."""
    return [(len(g) - 1, parts) for g, parts in exponent_profile(ifs).items()]


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


# ---------------------------------------------------------------------------
# Counting formulas
# ---------------------------------------------------------------------------

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
    return _class_size(d, blocks, q) * _q_product(n, d + 1, k + 1, q)


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
    return q ** (d * d) * _q_product(n, d + 1, k + 1, q)


def count_reachability(k: int, n: int, r: int, q: int) -> int:
    """Pairs (A, B) in M_k x M_{k,n-k} whose reachability matrix has rank r."""
    if not 0 <= r <= k < n:
        raise ShapeError(f"need 0 <= r <= k < n, got k={k}, n={n}, r={r}")
    return (q_binomial(k, r, q) * q ** ((k - r) ** 2)
            * _q_product(n, k - r + 1, k + 1, q))


def count_char_poly_square(field: FieldCtx, f: tuple[int, ...]) -> int:
    """Square matrices with characteristic polynomial f, a coefficient
    tuple: the fiber count at n = k = deg f, so 1 for f = 1 (the empty
    matrix)."""
    d = len(f) - 1
    return _char_poly_count(field, f, d, d, least_k=0)


def count_char_poly_rect(field: FieldCtx, f: tuple[int, ...], n: int,
                         k: int) -> int:
    """n x k matrices whose pencil has invariant-factor product f, a
    coefficient tuple (deg f <= k)."""
    return _char_poly_count(field, f, n, k, least_k=1)


def _char_poly_count(field: FieldCtx, f: tuple[int, ...], n: int, k: int,
                     least_k: int) -> int:
    if not f or f[-1] != 1:
        raise NonMonicError("fiber polynomial must be monic")
    if not least_k <= k <= n:
        raise ShapeError(f"need 1 <= k <= n, got {n},{k}")
    d = len(f) - 1
    if d > k:
        raise DegreeTooLargeError(f"deg f = {d} exceeds k = {k}")
    blocks = _profile_blocks(InvariantFactorTuple(field, [f]))
    return _fiber_count(n, k, d, blocks, field.q)


def _fiber_count(n: int, k: int, d: int, blocks, q: int) -> int:
    return (q_binomial(k, d, q) * _square_fiber(d, blocks, q)
            * _q_product(n, d + 1, k + 1, q))


def _square_fiber(d: int, blocks, q: int) -> int:
    """Square d x d matrices whose characteristic polynomial has the given
    type, g^e with e = sum(lambda_g) per (deg g, lambda_g) pair:
    |GL_d(q)| prod q^(deg e^2) over q^d prod |GL_e(q^deg)|."""
    num, den = gl_order(d, q), q ** d
    for deg, parts in blocks:
        e = sum(parts)
        num *= q ** (deg * e * e)
        den *= gl_order(e, q ** deg)
    return _exact_div(num, den)


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

def _census_entries(field: FieldCtx, max_degree: int, slots: int,
                    count) -> dict[str, int]:
    """Nonzero ``count(d, blocks)`` per key of every chain p_1 | ... |
    p_slots of monic polynomials of total degree d <= max_degree, built from
    its type, in :func:`_visit` order: ``blocks`` holds a ``(deg g,
    lambda_g)`` pair per irreducible divisor g, lambda_g (at most ``slots``
    parts) the exponents of g in p_slots, p_slots-1, ..."""
    sieve = irreducibles_up_to(field, max_degree)
    shapes = [tuple(partitions(e, max_parts=slots))
              for e in range(max_degree + 1)]
    entries: dict[str, int] = {}
    walk = (sieve.products, [len(g) - 1 for g in sieve], shapes, max_degree,
            count, {}, entries)
    _visit(walk, 0, 0, [(1,)] * slots, [coeffs_text(field, (1,))] * slots, ())
    return entries


def _visit(walk, start, d, polys, texts, blocks):
    """Key the chain ``polys`` of degree d, then, depth first, every chain
    beyond it by powers of g_start, g_start+1, ..., each p_j * g_i^e and
    its text read from ``products[p_j, i, e]`` (the factors of p_j all come
    before g_i).  ``count`` only multiplies over the blocks, so its cache
    takes them in the order they were built.  A module function, like
    :func:`_partitions`, so that no closure refers to itself."""
    products, degrees, shapes, max_degree, count, by_type, entries = walk
    key = d, blocks
    v = by_type.get(key)
    if v is None:
        v = by_type[key] = count(d, blocks)
    if v:
        # str(InvariantFactorTuple(polys)), minus its divisibility check:
        # the chain divides by construction.
        entries["|".join(texts)] = v
    for i in range(start, len(degrees)):
        deg = degrees[i]
        if d + deg > max_degree:
            break  # irreducibles come in ascending degree
        for e in range(1, (max_degree - d) // deg + 1):
            for lam in shapes[e]:
                chain, chain_texts = list(polys), list(texts)
                for j, part in enumerate(lam, start=1):
                    chain[-j], chain_texts[-j] = products[chain[-j], i, part]
                _visit(walk, i + 1, d + deg * e, chain, chain_texts,
                       blocks + ((deg, lam),))


# ---------------------------------------------------------------------------
# Census reports
# ---------------------------------------------------------------------------

_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def compact_json(data: dict) -> str:
    """Key-sorted JSON with no spaces: equal data gives identical bytes."""
    return _COMPACT.encode(data)


class CensusReport(namedtuple("CensusReport", "parameters entries source",
                               defaults=("closed-form",))):
    """Exact tally keyed by a canonical classifying string: ``entries`` maps
    each key to its count."""

    __slots__ = ()

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
        return compact_json(self.to_json_dict())


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
    entries = _census_entries(
        f, k, 1, lambda d, blocks: _fiber_count(n, k, d, blocks, f.q))
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
