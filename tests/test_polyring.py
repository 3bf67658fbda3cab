import json
import random

import pytest

from pencilcensus.errors import (
    BothZeroError,
    DivisionByZeroError,
    NotIrreducibleError,
    ZeroArgumentError,
)
from pencilcensus.gf import field_new, parse_field_spec
from pencilcensus.polyring import (
    NEG_INF,
    Poly,
    factorize,
    irreducibles_up_to,
    is_irreducible,
    monic_polys,
    multiplicity,
    parse_poly,
    poly_from_json,
    poly_gcd,
    poly_lcm,
    poly_to_json,
)

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2)


def rand_poly(rng, f, max_deg, monic=False):
    deg = rng.randrange(max_deg + 1)
    coeffs = [rng.randrange(f.q) for _ in range(deg)]
    coeffs.append(1 if monic else rng.randrange(1, f.q))
    return Poly(f, coeffs)


def test_zero_polynomial_degree_sentinel():
    z = Poly.zero(F2)
    assert z.degree is NEG_INF
    assert z.degree < 0
    assert not z


def test_trailing_zeros_are_trimmed():
    assert Poly(F3, (1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly(F3, (0, 0)).coeffs == ()


def test_divmod_examples():
    a = parse_poly("x^2+1", F2)
    b = parse_poly("x+1", F2)
    quot, rem = divmod(a, b)
    assert str(quot) == "x+1" and rem.is_zero()  # x^2+1 = (x+1)^2 in char 2
    quot, rem = divmod(parse_poly("x", F2), parse_poly("x^2", F2))
    assert quot.is_zero() and str(rem) == "x"


def test_divmod_round_trip_random():
    rng = random.Random(5)
    for f in (F2, F3, F4):
        for _ in range(100):
            a = rand_poly(rng, f, 6)
            b = rand_poly(rng, f, 3)
            quot, rem = divmod(a, b)
            assert quot * b + rem == a
            assert rem.degree < b.degree


def test_division_by_zero():
    with pytest.raises(DivisionByZeroError):
        divmod(parse_poly("x", F2), Poly.zero(F2))


def test_gcd_examples():
    f = parse_poly("2*x^2+2", F3)
    assert poly_gcd(f, Poly.zero(F3)) == parse_poly("x^2+1", F3)  # monic form
    assert poly_gcd(parse_poly("x^2-1", F3), parse_poly("x-1", F3)) == \
        parse_poly("x+2", F3)
    with pytest.raises(BothZeroError):
        poly_gcd(Poly.zero(F2), Poly.zero(F2))


def test_gcd_divides_both_and_lcm_product():
    rng = random.Random(6)
    for _ in range(100):
        a = rand_poly(rng, F3, 5)
        b = rand_poly(rng, F3, 5)
        g = poly_gcd(a, b)
        assert (a % g).is_zero() and (b % g).is_zero()
        l = poly_lcm(a, b)
        assert (g * l).monic() == (a * b).monic()


def test_multiplicity_examples():
    x = parse_poly("x", F2)
    assert multiplicity(x, parse_poly("x^3+x^2", F2)) == 2
    assert multiplicity(parse_poly("x+1", F2), parse_poly("x^2+1", F2)) == 2
    assert multiplicity(x, Poly.one(F2)) == 0


def test_multiplicity_is_additive():
    rng = random.Random(9)
    x = parse_poly("x", F3)
    for _ in range(50):
        g = rand_poly(rng, F3, 4)
        h = rand_poly(rng, F3, 4)
        assert multiplicity(x, g * h) == multiplicity(x, g) + multiplicity(x, h)


def test_multiplicity_rejects_bad_arguments():
    with pytest.raises(NotIrreducibleError):
        multiplicity(parse_poly("x^2+1", F2), parse_poly("x", F2))
    with pytest.raises(ZeroArgumentError):
        multiplicity(parse_poly("x", F2), Poly.zero(F2))


def test_factorize_examples():
    out = factorize(parse_poly("x^2+x", F2))
    assert [(str(g), e) for g, e in out.factors] == [("x", 1), ("x+1", 1)]
    assert out.unit == 1
    out = factorize(parse_poly("x^2+x+1", F2))
    assert [(str(g), e) for g, e in out.factors] == [("x^2+x+1", 1)]
    out = factorize(parse_poly("x^4+x^2", F2))
    assert [(str(g), e) for g, e in out.factors] == [("x", 2), ("x+1", 2)]


def test_factorize_zero_rejected():
    with pytest.raises(ZeroArgumentError):
        factorize(Poly.zero(F2))


@pytest.mark.parametrize("f", [F2, F3])
def test_factorization_round_trip_exhaustive(f):
    for deg in range(0, 7):
        for g in monic_polys(f, deg):
            fact = factorize(g)
            assert fact.reconstruct(f) == g
            for p, e in fact.factors:
                assert p.is_monic() and e >= 1 and is_irreducible(p)
            # canonical order: degree, then coefficients from constant up
            keys = [p.sort_key() for p, _ in fact.factors]
            assert keys == sorted(keys)
            assert len(keys) == len(set(keys))


def test_factorization_respects_units():
    g = parse_poly("2*x^2+1", F3)
    fact = factorize(g)
    assert fact.unit == 2
    assert fact.reconstruct(F3) == g


def test_irreducibles_examples():
    assert [str(p) for p in irreducibles_up_to(F2, 1)] == ["x", "x+1"]
    assert [str(p) for p in irreducibles_up_to(F2, 2)] == \
        ["x", "x+1", "x^2+x+1"]
    assert [str(p) for p in irreducibles_up_to(F3, 1)] == ["x", "x+1", "x+2"]


def mobius(n):
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


@pytest.mark.parametrize("q", [2, 3, 4])
def test_irreducible_counts_match_necklace_formula(q):
    f = field_new(2, 2) if q == 4 else field_new(q)
    sieve = irreducibles_up_to(f, 6)
    for d in range(1, 7):
        expected = sum(mobius(e) * q ** (d // e)
                       for e in range(1, d + 1) if d % e == 0) // d
        assert sum(1 for p in sieve if p.degree == d) == expected


@pytest.mark.parametrize("q,top", [(2, 6), (3, 5), (4, 4), (5, 4), (7, 3),
                                   (8, 3), (9, 3)])
def test_sieve_equals_trial_division(q, top):
    # Reference: a monic is irreducible when no irreducible of at most half
    # its degree divides it; candidates in monic_polys order, degree by degree.
    f = parse_field_spec(str(q))
    trial = []
    for d in range(1, top + 1):
        trial += [cand for cand in monic_polys(f, d)
                  if all((cand % g).coeffs for g in trial
                         if 2 * g.degree <= d)]
    assert list(irreducibles_up_to(f, top)) == trial


def test_monic_polys_canonical_order():
    polys = list(monic_polys(F3, 2))
    assert len(polys) == 9
    keys = [p.sort_key() for p in polys]
    assert keys == sorted(keys)
    # constant coefficient is compared first: x^2+x before x^2+1
    assert [str(p) for p in polys[:3]] == ["x^2", "x^2+x", "x^2+2*x"]


def test_text_format_examples():
    assert str(parse_poly("x^3+2*x+1", F3)) == "x^3+2*x+1"
    assert str(Poly(F4, (1, 0, 3))) == "[3]*x^2+[1]"
    assert str(Poly.zero(F2)) == "0"
    assert str(Poly.one(F3)) == "1"
    assert parse_poly("x^2-1", F3) == parse_poly("x^2+2", F3)
    assert parse_poly("[3]*x^2+[1]", F4) == Poly(F4, (1, 0, 3))
    assert parse_poly("x^2+x", F4) == Poly(F4, (0, 1, 1))


def test_text_format_round_trip_random():
    rng = random.Random(12)
    for f in (F2, F3, F4, field_new(5)):
        for _ in range(60):
            p = rand_poly(rng, f, 5)
            assert parse_poly(str(p), f) == p


def test_parse_rejects_nonsense():
    for bad in ("", "y+1", "x^", "5*x", "x**2", "[4]*x"):
        with pytest.raises(ValueError):
            parse_poly(bad, F3)


def test_json_round_trip():
    p = parse_poly("x^3+2*x+1", F3)
    data = json.loads(json.dumps(poly_to_json(p)))
    assert poly_from_json(data) == p
    p4 = Poly(F4, (3, 2, 1))
    assert poly_from_json(poly_to_json(p4)) == p4
