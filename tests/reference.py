"""Reference enumerations and polynomial helpers that only the tests use."""

import itertools

from pencilcensus import census
from pencilcensus.census import _types, partitions
from pencilcensus.gf import parse_field_spec
from pencilcensus.polyring import Poly, poly_gcd
from pencilcensus.smith import InvariantFactorTuple


def chains_with_product(f, k):
    """All k-tuples p_1 | p_2 | ... | p_k of monic polynomials with product f.

    Built from the factorization of f: a chain corresponds to one weakly
    increasing exponent sequence per irreducible divisor, i.e. a partition of
    its exponent into at most k parts.  It factors through
    ``census.factorize``, so a test that memoises that name memoises this.
    """
    per_factor = []
    for g, e in census.factorize(f).factors:
        seqs = [tuple([0] * (k - len(lam)) + sorted(lam))
                for lam in partitions(e, max_parts=k)]
        per_factor.append((g, seqs))
    one = Poly.one(f.field)
    for combo in itertools.product(*(seqs for _, seqs in per_factor)):
        polys = []
        for i in range(k):
            p = one
            for (g, _), seq in zip(per_factor, combo):
                if seq[i]:
                    p = p * g ** seq[i]
            polys.append(p)
        yield InvariantFactorTuple(polys)


def invariant_factor_tuples(field, k):
    """All valid k-tuples of invariant factors with total degree <= k."""
    for _, polys, _ in _types(field, k, k):
        yield InvariantFactorTuple(polys)


def poly_lcm(a, b):
    if a.is_zero() or b.is_zero():
        return Poly.zero(a.field)
    return ((a * b) // poly_gcd(a, b)).monic()


def poly_to_json(p):
    return {"field": p.field.spec_string, "coeffs": list(p.coeffs)}


def poly_from_json(data):
    field = parse_field_spec(str(data["field"]))
    return Poly(field, [int(c) for c in data["coeffs"]])
