import copy
import itertools
import json
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from pencilcensus import polyring
from pencilcensus.errors import (
    DegreeTooLargeError,
    DivisionByZeroError,
    ZeroArgumentError,
)
from pencilcensus.gf import DEGREE_CAP, field_new, parse_field_spec
from pencilcensus.polyring import (
    Poly,
    coeffs_divmod,
    coeffs_gcd,
    coeffs_monic,
    coeffs_multiplicity,
    coeffs_mul,
    coeffs_submul,
    coeffs_text,
    factorize,
    irreducibles_up_to,
    is_irreducible,
    parse_coeffs,
)

from reference import (factorize_full_sieve, poly_from_json, poly_lcm,
                       poly_to_json, schoolbook_divmod, schoolbook_mul,
                       schoolbook_submul, sort_key, trimmed)

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2)
F9 = field_new(3, 2)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def rand_poly(rng, f, max_deg, monic=False):
    """The coefficient tuple of a nonzero polynomial of degree <= max_deg."""
    deg = rng.randrange(max_deg + 1)
    coeffs = [rng.randrange(f.q) for _ in range(deg)]
    coeffs.append(1 if monic else rng.randrange(1, f.q))
    return tuple(coeffs)


def test_zero_polynomial_degree_sentinel():
    # the zero polynomial is the empty tuple, of degree len(()) - 1 = -1
    assert parse_coeffs("0", F2) == () and coeffs_text(F2, ()) == "0"
    assert coeffs_mul(F3, (), (1, 2)) == coeffs_mul(F3, (1, 2), ()) == ()
    assert coeffs_divmod(F3, (), (1, 2)) == ((), ())
    assert coeffs_monic(F3, ()) == ()


def test_trailing_zeros_are_trimmed():
    assert Poly(F3, (1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly(F3, (0, 0)).coeffs == ()


def test_divmod_examples():
    quot, rem = coeffs_divmod(F2, parse_coeffs("x^2+1", F2),
                              parse_coeffs("x+1", F2))
    assert coeffs_text(F2, quot) == "x+1" and rem == ()  # (x+1)^2 in char 2
    quot, rem = coeffs_divmod(F2, (0, 1), (0, 0, 1))
    assert quot == () and coeffs_text(F2, rem) == "x"


def test_divmod_round_trip_random():
    rng = random.Random(5)
    for f in (F2, F3, F4):
        for _ in range(100):
            a = rand_poly(rng, f, 6)
            b = rand_poly(rng, f, 3)
            quot, rem = coeffs_divmod(f, a, b)
            assert coeffs_submul(f, a, quot, b) == rem  # a = quot * b + rem
            assert len(rem) < len(b)


def test_division_by_zero():
    with pytest.raises(DivisionByZeroError):
        divmod(Poly(F2, (0, 1)), Poly(F2))


def test_gcd_examples():
    f = parse_coeffs("2*x^2+2", F3)
    assert coeffs_gcd(F3, f, ()) == parse_coeffs("x^2+1", F3)  # monic form
    assert coeffs_gcd(F3, parse_coeffs("x^2-1", F3),
                      parse_coeffs("x-1", F3)) == parse_coeffs("x+2", F3)


def test_gcd_divides_both_and_lcm_product():
    rng = random.Random(6)
    for _ in range(100):
        a = rand_poly(rng, F3, 5)
        b = rand_poly(rng, F3, 5)
        g = coeffs_gcd(F3, a, b)
        assert not coeffs_divmod(F3, a, g)[1]
        assert not coeffs_divmod(F3, b, g)[1]
        l = poly_lcm(F3, a, b)
        assert coeffs_mul(F3, g, l) == coeffs_monic(F3, coeffs_mul(F3, a, b))


def multiplicity(field, f, g):  # the e of (e, g / f^e), as exponent_profile
    return coeffs_multiplicity(field, f, g)[0]  # reads it


def test_multiplicity_examples():
    x = parse_coeffs("x", F2)
    assert multiplicity(F2, x, parse_coeffs("x^3+x^2", F2)) == 2
    assert multiplicity(F2, (1, 1), parse_coeffs("x^2+1", F2)) == 2
    assert multiplicity(F2, x, (1,)) == 0


def test_multiplicity_is_additive():
    rng = random.Random(9)
    x = parse_coeffs("x", F3)
    for _ in range(50):
        g = rand_poly(rng, F3, 4)
        h = rand_poly(rng, F3, 4)
        assert multiplicity(F3, x, coeffs_mul(F3, g, h)) == \
            multiplicity(F3, x, g) + multiplicity(F3, x, h)


def factor_texts(f, text):
    out = factorize(f, parse_coeffs(text, f))
    return out.unit, [(coeffs_text(f, g), e) for g, e in out.factors]


def test_factorize_examples():
    assert factor_texts(F2, "x^2+x") == (1, [("x", 1), ("x+1", 1)])
    assert factor_texts(F2, "x^2+x+1") == (1, [("x^2+x+1", 1)])
    assert factor_texts(F2, "x^4+x^2") == (1, [("x", 2), ("x+1", 2)])


def test_factorize_zero_rejected():
    with pytest.raises(ZeroArgumentError):
        factorize(F2, ())


@pytest.mark.parametrize("f", [F2, F3])
def test_factorization_round_trip_exhaustive(f):
    for deg in range(0, 7):
        for g in monic_tuples(f, deg):
            fact = factorize(f, g)
            assert fact.reconstruct(f) == g
            for p, e in fact.factors:
                assert p[-1] == 1 and e >= 1 and is_irreducible(f, p)
            # canonical order: degree, then coefficients from constant up
            keys = [(len(p), p) for p, _ in fact.factors]
            assert keys == sorted(keys)
            assert len(keys) == len(set(keys))


def monic_tuples(f, deg):
    """The coefficient tuples of the monics of degree deg, in canonical
    order."""
    return [tail + (1,) for tail in itertools.product(f.elements(),
                                                      repeat=deg)]


def factored_on_the_sieve(f, coeffs):
    """factorize(f, coeffs), once each factor is checked to be one of the
    sieve's coefficient tuples."""
    fact = factorize(f, coeffs)
    for g, _ in fact.factors:
        assert g in irreducibles_up_to(f, len(g) - 1)
    return fact


@pytest.mark.parametrize("q,top", [(2, 4), (3, 4), (4, 4), (9, 3)])
def test_factorize_equals_the_full_sieve(q, top):
    f = parse_field_spec(str(q))
    for deg in range(top + 1):
        for g in monic_tuples(f, deg):
            assert factored_on_the_sieve(f, g) == factorize_full_sieve(f, g)


@st.composite
def nonzero_polys(draw):
    """A field of GF(2), GF(3), GF(4) and GF(9) and a nonzero polynomial
    over it, monic or not, of degree 0 to 9 over GF(2), to 7 over GF(3)
    and GF(4) and to 4 over GF(9)."""
    f = draw(st.sampled_from((F2, F3, F4, F9)))
    top = {2: 9, 3: 7, 4: 7, 9: 4}[f.q]
    lower = draw(st.lists(st.integers(0, f.q - 1), max_size=top))
    return f, tuple(lower) + (draw(st.integers(1, f.q - 1)),)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(nonzero_polys())
@example((F2, (1,)))
@example((F9, (0, 0, 0, 0, 5)))
@example((F2, (1, 1, 0, 0, 0, 0, 0, 0, 0, 1)))
def test_factorize_equals_the_full_sieve_on_drawn_polynomials(case):
    f, coeffs = case
    assert factored_on_the_sieve(f, coeffs) == factorize_full_sieve(f, coeffs)


@pytest.mark.parametrize("q,text,half", [
    (2, "x^60+x+1", 30), (3, "x^32+x+2", 16), (9, "x^34+x+[3]", 17),
    (9, f"x^{DEGREE_CAP}+x+[3]", 2047), (65521, "x^4+7", 2)])
def test_a_factorization_past_the_sieve_cap_is_refused_after_its_linear_trials(
        monkeypatch, q, text, half):
    # no linear factor leaves a cofactor that may need a sieve level of
    # q^half > 2^24 monics: refused before any level past the first is built
    f = parse_field_spec(str(q))
    g = parse_coeffs(text, f)
    sieve = polyring.irreducibles_up_to
    degrees = []
    monkeypatch.setattr(polyring, "irreducibles_up_to",
                        lambda field, d: degrees.append(d) or sieve(field, d))
    with pytest.raises(DegreeTooLargeError, match=rf"{q}\^{half} monics"):
        factorize(f, g)
    assert max(degrees) == 1


@pytest.mark.parametrize("q,text,factors", [
    (2, "x^49+x^48", [("x", 48), ("x+1", 1)]),
    (3, "x^31+2*x^30", [("x", 30), ("x+2", 1)]),
    (3, "x^32+2", [("x+1", 1), ("x+2", 1), ("x^2+1", 1), ("x^2+x+2", 1),
                   ("x^2+2*x+2", 1), ("x^4+x^2+2", 1), ("x^4+2*x^2+2", 1),
                   ("x^8+x^4+2", 1), ("x^8+2*x^4+2", 1)]),
    (2, "x^50", [("x", 50)]),
    (9, f"x^{DEGREE_CAP}", [("[1]*x", DEGREE_CAP)]),
    (65521, "x^3", [("x", 3)]),
    (65521, "x^4", [("x", 4)]),
    (65521, "x^4+3", [("x+404", 1), ("x+12162", 1), ("x+53359", 1),
                      ("x+65117", 1)])])
def test_a_factorization_whose_cofactor_drops_under_the_sieve_cap_runs(
        q, text, factors):
    # the cap bounds the cofactor left before each level past the first:
    # these need no level of more than 2^24 monics, whatever their degree
    assert factor_texts(parse_field_spec(str(q)), text) == (1, factors)


def test_is_irreducible_is_refused_past_the_sieve_cap_as_factorize_is():
    # x^60+x+1 over GF(2) has no linear factor, so deciding it may need the
    # 2^30 monics of degree 30: refused after its linear trials, in a child
    # process killed after a few seconds, so that a sieve grown without the
    # cap fails on the timeout instead of hanging the suite
    script = ("from pencilcensus.errors import DegreeTooLargeError\n"
              "from pencilcensus.gf import field_new\n"
              "from pencilcensus.polyring import is_irreducible\n"
              "try:\n"
              "    is_irreducible(field_new(2), (1, 1) + (0,) * 58 + (1,))\n"
              "except DegreeTooLargeError as exc:\n"
              "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=5)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "2^30 monics" in proc.stdout
    assert is_irreducible(F2, (1, 1, 0, 0, 0, 0, 0, 1))  # x^7+x+1, uncapped
    assert not is_irreducible(F2, (1, 0, 1)) and not is_irreducible(F2, (1,))


def test_a_degree_past_the_cap_is_refused_before_it_is_built():
    assert len(parse_coeffs(f"x^{DEGREE_CAP}", F2)) == DEGREE_CAP + 1
    for text in (f"x^{DEGREE_CAP + 1}", "x^9999999999+1",
                 f"x^{DEGREE_CAP + 1}-x^{DEGREE_CAP + 1}"):
        with pytest.raises(DegreeTooLargeError) as exc:
            parse_coeffs(text, F3)
        assert isinstance(exc.value, ValueError)
        assert "past the cap of 4096" in str(exc.value)


def test_factorize_sieves_only_half_the_degree(monkeypatch):
    sieve = polyring.irreducibles_up_to
    degrees = []

    def recording(field, d):
        degrees.append(d)
        return sieve(field, d)

    monkeypatch.setattr(polyring, "irreducibles_up_to", recording)
    f = parse_field_spec("25")
    for text in ("x^4+1", "x^4+x+[2]", "x^4+[3]*x^3+x+[7]"):
        g = parse_coeffs(text, f)
        assert factorize(f, g).reconstruct(f) == g
    assert degrees and max(degrees) <= 2


def test_factorize_sieves_only_half_the_cofactor_degree(monkeypatch):
    # factors of degree 1, 2, 3 and 6: once the first three are out, the
    # cofactor has degree 6, so the sieve stops at degree 3, not 12 / 2
    sieve = polyring.irreducibles_up_to
    degrees = []

    def recording(field, d):
        degrees.append(d)
        return sieve(field, d)

    monkeypatch.setattr(polyring, "irreducibles_up_to", recording)
    f = parse_field_spec("9")
    unit, factors = factor_texts(f, "x^12+x+3")
    assert max(degrees) == 3
    assert unit == 1
    assert factors == [
        ("[1]*x+[5]", 1), ("[1]*x^2+[4]*x+[5]", 1),
        ("[1]*x^3+[6]*x^2+[1]*x+[8]", 1),
        ("[1]*x^6+[6]*x^5+[8]*x^4+[7]*x^3+[5]*x^2+[7]*x+[7]", 1)]


def test_factorization_respects_units():
    g = parse_coeffs("2*x^2+1", F3)
    fact = factorize(F3, g)
    assert fact.unit == 2
    assert fact.reconstruct(F3) == g


def test_irreducibles_examples():
    assert irreducibles_up_to(F2, 1) == ((0, 1), (1, 1))
    assert irreducibles_up_to(F2, 2) == ((0, 1), (1, 1), (1, 1, 1))
    assert [coeffs_text(F3, p) for p in irreducibles_up_to(F3, 1)] == \
        ["x", "x+1", "x+2"]


def test_a_sieve_copies_and_pickles_like_the_tuple_it_is():
    sieve = irreducibles_up_to(F3, 2)
    for twin in (copy.copy(sieve), copy.deepcopy(sieve),
                 pickle.loads(pickle.dumps(sieve))):
        assert twin == sieve and tuple(twin) == tuple(sieve)


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
        assert sum(1 for p in sieve if len(p) - 1 == d) == expected


@pytest.mark.parametrize("q,top", [(2, 6), (3, 5), (4, 4), (5, 4), (7, 3),
                                   (8, 3), (9, 3)])
def test_sieve_equals_trial_division(q, top, monkeypatch):
    # Reference: a monic is irreducible when no irreducible of at most half
    # its degree divides it; candidates in monic_tuples order, degree by
    # degree.
    f = parse_field_spec(str(q))
    trial = []
    for d in range(1, top + 1):
        trial += [cand for cand in monic_tuples(f, d)
                  if all(schoolbook_divmod(f, cand, g)[1] for g in trial
                         if 2 * (len(g) - 1) <= d)]
    # the sieve, run afresh, works on coefficient tuples alone: no Poly is
    # made or multiplied
    made = []
    init = Poly.__init__
    monkeypatch.setattr(Poly, "__init__",
                        lambda self, *a: made.append(1) or init(self, *a))
    monkeypatch.setattr(Poly, "__mul__", None)
    irreducibles_up_to.cache_clear()
    sieve = irreducibles_up_to(f, top)
    monkeypatch.undo()
    assert list(sieve) == trial
    assert made == []


@pytest.mark.parametrize("q,top,reducible", [
    (2, 6, 103), (3, 5, 283), (4, 4, 250), (5, 4, 575), (7, 3, 259),
    (8, 3, 380), (9, 3, 534)])
def test_the_sieve_builds_each_reducible_monic_once(q, top, reducible,
                                                    monkeypatch):
    # one product per reducible monic of degree 2..top: q^d less the
    # necklace count of irreducibles
    assert reducible == sum(
        q ** d - sum(mobius(e) * q ** (d // e)
                     for e in range(1, d + 1) if d % e == 0) // d
        for d in range(2, top + 1))
    f = parse_field_spec(str(q))
    made = []

    def counted(field, a, b):
        assert (1,) not in (a, b)
        made.append(coeffs_mul(field, a, b))
        return made[-1]

    monkeypatch.setattr(polyring, "coeffs_mul", counted)
    irreducibles_up_to.cache_clear()
    irreducibles_up_to(f, top)
    monkeypatch.undo()
    assert len(made) == len(set(made)) == reducible


def test_monic_polys_canonical_order():
    polys = list(polyring.monic_tuples(F3, 2))
    assert polys == monic_tuples(F3, 2) and len(polys) == 9
    keys = [sort_key(p) for p in polys]
    assert keys == sorted(keys)
    # constant coefficient is compared first: x^2+x before x^2+1
    assert [coeffs_text(F3, p) for p in polys[:3]] == \
        ["x^2", "x^2+x", "x^2+2*x"]


def test_text_format_examples():
    assert coeffs_text(F3, parse_coeffs("x^3+2*x+1", F3)) == "x^3+2*x+1"
    assert coeffs_text(F4, (1, 0, 3)) == "[3]*x^2+[1]"
    assert coeffs_text(F2, ()) == "0"
    assert coeffs_text(F3, (1,)) == "1"
    assert parse_coeffs("x^2-1", F3) == parse_coeffs("x^2+2", F3)
    assert parse_coeffs("[3]*x^2+[1]", F4) == (1, 0, 3)
    assert parse_coeffs("x^2+x", F4) == (0, 1, 1)


def test_text_format_round_trip_random():
    rng = random.Random(12)
    for f in (F2, F3, F4, field_new(5)):
        for _ in range(60):
            p = rand_poly(rng, f, 5)
            assert parse_coeffs(coeffs_text(f, p), f) == p


F5, F8 = field_new(5), field_new(2, 3)


@st.composite
def factor_pairs(draw):
    """A field of every kind and two polynomials of degree -inf to 5 over
    it, of independent lengths, so zero and constant factors come up."""
    f = draw(st.sampled_from((F2, F3, F5, F4, F8, F9)))
    coeffs = st.lists(st.integers(0, f.q - 1), max_size=6)
    return f, trimmed(draw(coeffs)), trimmed(draw(coeffs))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(factor_pairs())
@example((F2, (), (1, 1)))
@example((F9, (7, 0, 5), ()))
@example((F9, (8,), (3, 0, 0, 6, 2)))
@example((F5, (4, 4, 4), (2,)))
@example((F8, (0, 0, 0, 0, 1), (5, 3)))
def test_the_product_kernel_equals_the_schoolbook_product(case):
    f, a, b = case
    want = schoolbook_mul(f, a, b)
    assert coeffs_mul(f, a, b) == want
    assert (Poly(f, a) * Poly(f, b)).coeffs == want
    for p in (a, b, want):
        assert parse_coeffs(coeffs_text(f, p), f) == p


F25, F27 = field_new(5, 2), field_new(3, 3)


@st.composite
def division_triples(draw):
    """A field of every kind and three polynomials of degree -inf to 6 over
    it: a dividend, a nonzero divisor and a multiplier."""
    f = draw(st.sampled_from((F2, F3, F5, F4, F8, F9, F25, F27)))
    coeffs = st.lists(st.integers(0, f.q - 1), max_size=7)
    a, c = trimmed(draw(coeffs)), trimmed(draw(coeffs))
    b = tuple(draw(coeffs)) + (draw(st.integers(1, f.q - 1)),)
    return f, a, b, c


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(division_triples())
@example((F2, (), (1,), ()))
@example((F5, (1, 2), (3, 0, 4), (2,)))
@example((F5, (4, 0, 0, 1), (1, 1), (1, 4)))
@example((F9, (0, 0, 0, 5), (7, 0, 2), (8,)))
@example((F27, (3, 1, 4, 1, 5), (9, 26), (0, 0, 13)))
def test_the_division_kernels_equal_the_schoolbook_division(case):
    f, a, b, c = case
    quot, rem = coeffs_divmod(f, a, b)
    assert (quot, rem) == schoolbook_divmod(f, a, b)
    assert schoolbook_submul(f, a, quot, b) == rem  # a - q*b
    assert len(rem) < len(b)
    want = schoolbook_submul(f, a, c, b)
    assert coeffs_submul(f, a, c, b) == want
    assert coeffs_submul(f, a, quot, b) == rem
    assert all(t[-1] for t in (quot, rem, want) if t)  # no trailing zeros
    pq, pr = divmod(Poly(f, a), Poly(f, b))
    assert (pq.coeffs, pr.coeffs) == (quot, rem)


def test_parse_rejects_nonsense():
    for bad in ("", "y+1", "x^", "5*x", "x**2", "[4]*x"):
        with pytest.raises(ValueError):
            parse_coeffs(bad, F3)


def test_json_round_trip():
    p = parse_coeffs("x^3+2*x+1", F3)
    data = json.loads(json.dumps(poly_to_json(F3, p)))
    assert poly_from_json(data) == (F3, p)
    assert poly_from_json(poly_to_json(F4, (3, 2, 1))) == (F4, (3, 2, 1))
