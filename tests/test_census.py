import collections
import functools
import gc
import itertools
import json
import random

import pytest

from pencilcensus import census as census_mod
from pencilcensus import polyring
from pencilcensus.census import (
    centralizer_factor,
    check_q_identity,
    conjugate,
    count_char_poly_rect,
    count_char_poly_square,
    count_given_u,
    count_invariant_factors,
    count_nilpotent_extendable,
    count_reachability,
    count_with_subspace,
    exponent_profile,
    fiber_census,
    gl_order,
    nilext_census,
    pair_census,
    partitions,
    pencil_census,
    q_binomial,
    subspace_census,
)
from pencilcensus.errors import (
    DegreeMismatchError,
    DegreeTooLargeError,
    NonMonicError,
    ShapeError,
)
from pencilcensus.gf import field_new, parse_field_spec
from pencilcensus.polyring import (Poly, factorize, irreducibles_up_to,
                                   monic_polys, parse_poly)
from pencilcensus.smith import InvariantFactorTuple

from reference import (chains_with_product, invariant_factor_tuples,
                       report_from_json, schoolbook_pow,
                       types_by_remultiplying)

F2 = field_new(2)
F3 = field_new(3)


def ifs(text, f=F2):
    return InvariantFactorTuple.parse(text, f)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def test_conjugate_examples():
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((3,)) == (1, 1, 1)
    assert conjugate(()) == ()


def test_conjugate_is_an_involution():
    for total in range(8):
        for lam in partitions(total):
            assert conjugate(conjugate(lam)) == lam
            assert sum(conjugate(lam)) == total


def test_partition_generator_counts():
    # 1, 1, 2, 3, 5, 7, 11, 15 partitions of 0..7
    assert [sum(1 for _ in partitions(n)) for n in range(8)] == \
        [1, 1, 2, 3, 5, 7, 11, 15]
    assert list(partitions(4, max_parts=2)) == [(4,), (3, 1), (2, 2)]


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def test_centralizer_factor_examples():
    assert centralizer_factor((1, 1), 1, 2) == 6
    assert centralizer_factor((2,), 1, 2) == 2
    assert centralizer_factor((), 1, 2) == 1
    # degree enters only through d: doubling d squares every power of q
    assert centralizer_factor((1,), 2, 2) == 3  # q^2 - 1


def test_gl_order_examples():
    assert gl_order(0, 2) == 1
    assert gl_order(2, 2) == 6
    assert gl_order(1, 5) == 4


def brute_force_subspace_count(q, k, d):
    """Distinct d-dim subspaces of F_q^k via span closure (mod-q ints only)."""
    f = field_new(2, 2) if q == 4 else field_new(q)
    vectors = [v for v in itertools.product(range(q), repeat=k)
               if any(v)]
    spans = set()
    for gens in itertools.combinations(vectors, d):
        span = set()
        for coeffs in itertools.product(range(q), repeat=d):
            vec = (0,) * k
            for c, g in zip(coeffs, gens):
                vec = tuple(f.add(x, f.mul(c, y)) for x, y in zip(vec, g))
            span.add(vec)
        if len(span) == q ** d:
            spans.add(frozenset(span))
    return len(spans)


def test_q_binomial_examples():
    assert q_binomial(2, 1, 2) == 3
    assert q_binomial(7, 0, 3) == 1
    assert q_binomial(4, 2, 2) == 35
    assert q_binomial(4, 2, 2) == brute_force_subspace_count(2, 4, 2)
    assert q_binomial(3, 1, 3) == brute_force_subspace_count(3, 3, 1)
    assert q_binomial(3, 5, 2) == 0
    assert q_binomial(3, -1, 2) == 0


def test_q_binomial_symmetry():
    for k in range(7):
        for d in range(k + 1):
            for q in (2, 3, 4, 5):
                assert q_binomial(k, d, q) == q_binomial(k, k - d, q)


def test_exponent_profile_examples():
    x = parse_poly("x", F2)
    x1 = parse_poly("x+1", F2)
    assert exponent_profile(ifs("x|x")) == {x: (1, 1)}
    assert exponent_profile(ifs("1|x^2")) == {x: (2,)}
    assert exponent_profile(ifs("1|x^2+x")) == {x: (1,), x1: (1,)}


# ---------------------------------------------------------------------------
# similarity class sizes: independent 2x2 oracle with bare mod-2 arithmetic
# ---------------------------------------------------------------------------

def mat2_mul(a, b):
    return (
        (a[0] * b[0] + a[1] * b[2]) % 2, (a[0] * b[1] + a[1] * b[3]) % 2,
        (a[2] * b[0] + a[3] * b[2]) % 2, (a[2] * b[1] + a[3] * b[3]) % 2,
    )


def class_size(t):
    """The similarity-class size: the pencil count at n = k = len(t)."""
    return count_invariant_factors(len(t), len(t), t)


def test_class_size_examples_against_bare_enumeration():
    assert class_size(ifs("x|x")) == 1  # only the zero matrix

    nonzero_nilpotents = sum(
        1 for m in itertools.product(range(2), repeat=4)
        if any(m) and mat2_mul(m, m) == (0, 0, 0, 0))
    assert nonzero_nilpotents == 3
    assert class_size(ifs("1|x^2")) == nonzero_nilpotents

    # trace 1, determinant 1 <=> characteristic polynomial x^2+x+1
    irreducible_class = sum(
        1 for a, b, c, d in itertools.product(range(2), repeat=4)
        if (a + d) % 2 == 1 and (a * d - b * c) % 2 == 1)
    assert irreducible_class == 2
    assert class_size(ifs("1|x^2+x+1")) == irreducible_class


def test_class_size_zero_on_degree_mismatch():
    assert class_size(ifs("1|x")) == 0
    assert class_size(ifs("1|1")) == 0
    assert class_size(ifs("x|x^2")) == 0


def test_class_sizes_sum_to_whole_space():
    for f, n in ((F2, 2), (F2, 3), (F3, 2)):
        total = sum(class_size(t)
                    for t in invariant_factor_tuples(f, n))
        assert total == f.q ** (n * n)


# ---------------------------------------------------------------------------
# maps on a subspace
# ---------------------------------------------------------------------------

def test_count_with_subspace_examples():
    # d = 0 forces the all-ones tuple and counts maps with no invariant line
    assert count_with_subspace(3, 2, 0, ifs("1|1")) == (8 - 2) * (8 - 4)
    # k = n = d reduces to the similarity-class size
    t = ifs("x|x")
    assert count_with_subspace(2, 2, 2, t) == class_size(t)
    assert count_with_subspace(3, 2, 1, ifs("1|x")) == 4
    with pytest.raises(DegreeMismatchError):
        count_with_subspace(3, 2, 2, ifs("1|x"))
    with pytest.raises(ShapeError):
        count_with_subspace(2, 3, 1, ifs("1|x"))


def test_count_invariant_factors_examples():
    assert count_invariant_factors(5, 3, ifs("1|1|1")) == \
        (2 ** 5 - 2) * (2 ** 5 - 4) * (2 ** 5 - 8)
    # the class of x^2+x+1, counted bare above
    assert count_invariant_factors(2, 2, ifs("1|x^2+x+1")) == 2
    total = sum(count_invariant_factors(3, 2, t)
                for t in invariant_factor_tuples(F2, 2))
    assert total == 2 ** 6


def test_count_invariant_factors_zero_when_degree_exceeds_k():
    t = InvariantFactorTuple([parse_poly("x^3", F2), parse_poly("x^3", F2)])
    assert count_invariant_factors(6, 2, t) == 0


@pytest.mark.parametrize("q,n,k", [(2, 3, 2), (2, 4, 3), (3, 3, 2), (5, 2, 2)])
def test_completeness_over_all_tuples(q, n, k):
    f = field_new(q)
    assert sum(count_invariant_factors(n, k, t)
               for t in invariant_factor_tuples(f, k)) == q ** (n * k)


def test_factorization_of_census_into_subspace_choice():
    for t in invariant_factor_tuples(F2, 3):
        d = t.total_degree()
        assert count_invariant_factors(4, 3, t) == \
            q_binomial(3, d, 2) * count_with_subspace(4, 3, d, t)


def test_count_given_u_examples():
    assert count_given_u(2, 2, 2, 2) == 2 ** 4  # every operator qualifies
    assert count_given_u(3, 2, 0, 2) == count_with_subspace(3, 2, 0, ifs("1|1"))
    assert count_given_u(3, 2, 1, 2) == 8


def test_subspace_counts_sum_to_count_given_u():
    for n, k in ((3, 2), (4, 3)):
        for d in range(k + 1):
            total = 0
            for f_poly in monic_polys(F2, d):
                for t in chains_with_product(f_poly, k):
                    total += count_with_subspace(n, k, d, t)
            assert total == count_given_u(n, k, d, 2)


def test_count_reachability_examples():
    assert count_reachability(1, 2, 0, 2) == 2
    assert count_reachability(3, 5, 3, 2) == (32 - 2) * (32 - 4) * (32 - 8)
    for q, k, n in ((2, 2, 3), (3, 2, 3), (2, 3, 5)):
        assert sum(count_reachability(k, n, r, q)
                   for r in range(k + 1)) == q ** (k * n)
    with pytest.raises(ShapeError):
        count_reachability(2, 2, 1, 2)


# ---------------------------------------------------------------------------
# characteristic-polynomial fibers
# ---------------------------------------------------------------------------

def charpoly2(a, b, c, d, q):
    """(c1, c0) of x^2 + c1*x + c0 for a 2x2 matrix, bare mod-q ints."""
    return ((-(a + d)) % q, (a * d - b * c) % q)


def test_square_fibers_match_bare_2x2_enumeration():
    for q in (2, 3):
        f = field_new(q)
        tall = {}
        for a, b, c, d in itertools.product(range(q), repeat=4):
            key = charpoly2(a, b, c, d, q)
            tall[key] = tall.get(key, 0) + 1
        for (c1, c0), expected in tall.items():
            poly = Poly(f, (c0, c1, 1))
            assert count_char_poly_square(poly) == expected


def test_count_char_poly_square_examples():
    for q, n in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
        f = field_new(q)
        xn = Poly(f, (0,) * n + (1,))
        assert count_char_poly_square(xn) == q ** (n * n - n)
    with pytest.raises(NonMonicError):
        count_char_poly_square(parse_poly("2*x", F3))


def test_square_fibers_sum_to_whole_space():
    for q, n in ((2, 3), (3, 2)):
        f = field_new(q)
        assert sum(count_char_poly_square(p)
                   for p in monic_polys(f, n)) == q ** (n * n)


def test_count_char_poly_rect_examples():
    one = Poly.one(F2)
    assert count_char_poly_rect(one, 3, 2) == (8 - 2) * (8 - 4)
    assert count_char_poly_rect(one, 3, 2) == count_reachability(2, 3, 2, 2)
    x = parse_poly("x", F2)
    assert count_char_poly_rect(x, 3, 2) == 12
    f3poly = parse_poly("x^2+x+1", F2)
    assert count_char_poly_rect(f3poly, 2, 2) == count_char_poly_square(f3poly)
    with pytest.raises(DegreeTooLargeError):
        count_char_poly_rect(parse_poly("x^3", F2), 4, 2)


def test_rect_fiber_equals_sum_over_chains():
    for n, k in ((3, 2), (4, 3)):
        for d in range(k + 1):
            for f_poly in monic_polys(F2, d):
                total = sum(count_invariant_factors(n, k, t)
                            for t in chains_with_product(f_poly, k))
                assert total == count_char_poly_rect(f_poly, n, k)


def assert_pencil_census_sums(q, n, k):
    """The fiber, pair and nilext censuses sum the pencil census's keys:
    fiber[f] over the keys whose product is f (Reiner 1961; Gerstenhaber
    1961), pair[r] (for n > k) over the keys of total degree k - r, the
    dimension of the maximal invariant subspace, and nilext over the keys
    whose product is x^d."""
    f = parse_field_spec(str(q))
    fiber, pair, nilext = collections.Counter(), collections.Counter(), 0
    for key, size in pencil_census(f, n, k).entries.items():
        product = InvariantFactorTuple.parse(key, f).product()
        d = product.degree
        fiber[str(product)] += size
        pair[str(k - d)] += size
        if product == Poly(f, (0,) * d + (1,)):
            nilext += size
    assert fiber_census(f, n, k).entries == fiber
    if n > k:
        assert pair_census(f, k, n).entries == pair
    assert nilext_census(f, n, k).entries == {"extendable": nilext}


# Every side is a closed form, so the grids reach shapes whose enumeration
# the default budget refuses, such as (5, 7, 4).
SQUARE_IDENTITY_GRID = [(q, n) for q in (2, 3, 4, 5, 7, 9)
                        for n in range(1, (5 if q == 2 else 4 if q <= 5
                                           else 3) + 1)]
TALL_IDENTITY_GRID = [(q, k + extra, k) for q in (2, 3, 4, 5, 7, 8, 9)
                      for k in range(1, (4 if q <= 5 else 3) + 1)
                      for extra in (1, 3)]


@pytest.mark.parametrize("q,n", SQUARE_IDENTITY_GRID)
def test_square_fiber_is_the_sum_of_its_class_sizes(q, n):
    assert_pencil_census_sums(q, n, n)


@pytest.mark.parametrize("q,n,k", TALL_IDENTITY_GRID)
def test_tall_fiber_pair_and_nilext_are_sums_of_the_pencil_census(q, n, k):
    assert_pencil_census_sums(q, n, k)


# ---------------------------------------------------------------------------
# nilpotent extendability
# ---------------------------------------------------------------------------

def test_nilpotent_extendable_examples():
    # restrictions of nilpotent 2x2 matrices to a fixed line = distinct
    # first columns of nilpotent matrices, bare mod-2 arithmetic
    first_cols = {(m[0], m[2])
                  for m in itertools.product(range(2), repeat=4)
                  if mat2_mul(m, m) == (0, 0, 0, 0)}
    assert len(first_cols) == 3
    assert count_nilpotent_extendable(1, 2, 2) == 3
    assert count_nilpotent_extendable(2, 2, 2) == 2 ** 2  # q^(n(n-1))
    assert count_nilpotent_extendable(3, 3, 2) == 2 ** 6
    assert count_nilpotent_extendable(2, 3, 2) == 40


def test_nilpotent_extendable_equals_sum_of_power_fibers():
    for q, n, k in ((2, 2, 1), (2, 2, 2), (2, 3, 2), (2, 4, 3), (3, 3, 2)):
        f = field_new(q)
        total = sum(count_char_poly_rect(Poly(f, (0,) * l + (1,)), n, k)
                    for l in range(k + 1))
        assert total == count_nilpotent_extendable(k, n, q)


# ---------------------------------------------------------------------------
# the power-expansion identity
# ---------------------------------------------------------------------------

def test_q_identity_trivial_cases():
    assert check_q_identity(0, 2, 12345)
    assert check_q_identity(1, 3, -7)   # y = (y - q) + q


def test_q_identity_grid():
    rng = random.Random(41)
    for q in (2, 3, 5):
        for d in range(9):
            for _ in range(25):
                assert check_q_identity(d, q, rng.randint(-10 ** 6, 10 ** 6))


# ---------------------------------------------------------------------------
# reports and builders
# ---------------------------------------------------------------------------

def test_census_report_json_round_trip():
    report = pencil_census(F2, 3, 2)
    again = report_from_json(report.to_json())
    assert again.entries == report.entries
    assert again.parameters == report.parameters
    assert again.source == report.source


def test_census_report_json_is_sorted_and_stringly():
    report = pair_census(F2, 2, 3)
    data = json.loads(report.to_json())
    assert list(data["entries"]) == sorted(data["entries"])
    assert all(isinstance(v, str) for v in data["entries"].values())
    assert report.to_json() == pair_census(F2, 2, 3).to_json()


def test_report_schema_validation():
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as res
    schema = json.loads(
        res.files("pencilcensus.schemas").joinpath(
            "census_report.schema.json").read_text())
    for report in (pencil_census(F2, 3, 2), fiber_census(F3, 2, 2),
                   subspace_census(F2, 3, 2, 1)):
        jsonschema.validate(json.loads(report.to_json()), schema)


@pytest.mark.parametrize("q,k", [(2, 4), (3, 4), (4, 4), (5, 4),
                                 (7, 3), (8, 3), (9, 3)])
def test_type_built_censuses_match_per_tuple_reference(q, k, monkeypatch):
    # The reference factors each polynomial several times over (chains,
    # exponent profile, fiber); memoising the pure factorize only drops the
    # repeats.
    monkeypatch.setattr(census_mod, "factorize",
                        functools.lru_cache(maxsize=None)(factorize))
    f = parse_field_spec(str(q))
    shapes = ((k, k), (k + 1, k))  # square pencils drop every d < k key
    pencil = {n: {} for n, _ in shapes}
    fiber = {n: {} for n, _ in shapes}
    subspace = {(n, d): {} for n, _ in shapes for d in range(k + 1)}
    for d in range(k + 1):
        for poly in monic_polys(f, d):
            for n, _ in shapes:
                fiber[n][str(poly)] = count_char_poly_rect(poly, n, k)
            for t in chains_with_product(poly, k):
                for n, _ in shapes:
                    pencil[n][str(t)] = count_invariant_factors(n, k, t)
                    subspace[n, d][str(t)] = count_with_subspace(n, k, d, t)

    def nonzero(entries):
        return {key: v for key, v in entries.items() if v}

    def no_factoring(g):
        raise AssertionError(f"census factored {g}")

    monkeypatch.setattr(census_mod, "factorize", no_factoring)
    for n, _ in shapes:
        assert pencil_census(f, n, k).entries == nonzero(pencil[n])
        assert fiber_census(f, n, k).entries == nonzero(fiber[n])
        for d in range(k + 1):
            assert subspace_census(f, n, k, d).entries == \
                nonzero(subspace[n, d])


@pytest.mark.parametrize("q", [4, 9])
def test_the_per_tuple_reference_shares_no_product_with_the_walk(
        q, monkeypatch):
    # chains_with_product multiplies each p_i out with schoolbook_mul, so
    # with the factorizations memoised it yields the same chains with the
    # package's products removed
    monkeypatch.setattr(census_mod, "factorize",
                        functools.lru_cache(maxsize=None)(factorize))
    f = parse_field_spec(str(q))
    chains = [str(t) for t in invariant_factor_tuples(f, 3)]

    def no_product(*args):
        raise AssertionError("the reference called the package's product")

    for owner, name in ((polyring, "coeffs_mul"), (Poly, "__mul__"),
                        (Poly, "__pow__")):
        monkeypatch.setattr(owner, name, no_product)
    assert [str(t) for t in invariant_factor_tuples(f, 3)] == chains


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_the_type_walk_yields_what_remultiplying_yields(q):
    f = parse_field_spec(str(q))
    for max_degree in range(1, (3 if q >= 7 else 4) + 1):
        for slots in sorted({1, max_degree}):
            walked = list(census_mod._types(f, max_degree, slots))
            assert [(d, polys, blocks) for d, polys, _, blocks in walked] == \
                list(types_by_remultiplying(f, max_degree, slots)), \
                (max_degree, slots)
            for _, polys, texts, _ in walked:
                assert texts == [str(Poly(f, p)) for p in polys]


def test_the_closed_form_builds_each_power_and_key_text_once(monkeypatch):
    f = field_new(5)
    products = collections.Counter()
    calls = collections.Counter()
    multiply, render = polyring.coeffs_mul, polyring.coeffs_text

    def counted_mul(field, a, b):
        out = multiply(field, a, b)
        products[out] += 1
        calls["times one"] += (1,) in (a, b)
        return out

    def counted_text(field, coeffs):
        calls["text"] += 1
        return render(field, coeffs)

    # counted package-wide: the sieve's products and any the walk makes
    for module in (polyring, census_mod):
        for name, counted in (("coeffs_mul", counted_mul),
                              ("coeffs_text", counted_text)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    irreducibles_up_to.cache_clear()  # the sieve runs under the count too
    report = pencil_census(f, 4, 4)
    pencil_products, pencil_texts = products.copy(), calls["text"]
    fiber_census(f, 4, 4)  # reads the table the pencil census's sieve filled
    monkeypatch.undo()
    powers = {schoolbook_pow(f, g.coeffs, e) for g in irreducibles_up_to(f, 4)
              for e in range(1, 4 // g.degree + 1)}
    # every chain the walk passes, the d < 4 ones this square shape drops
    # included: each monic of degree <= 4 once
    chain_polys = {p for _, polys, _ in types_by_remultiplying(f, 4, 4)
                   for p in polys}
    assert (len(powers), len(chain_polys)) == (230, 781)
    assert len(report.entries) == 805
    # each reducible monic of degree <= 4, each power g^e with e >= 2 among
    # them, is built once, and never as a product by 1
    irreducibles = {g.coeffs for g in irreducibles_up_to(f, 4)}
    assert set(pencil_products) == chain_polys - irreducibles - {(1,)}
    assert len(pencil_products) == 575
    assert max(pencil_products.values()) == 1
    assert all(pencil_products[p] == 1 for p in powers - irreducibles)
    assert calls["times one"] == 0
    assert pencil_texts <= len(chain_polys)
    # the fiber census multiplies nothing and renders at most the text of 1
    assert products == pencil_products
    assert calls["text"] - pencil_texts <= 1


@pytest.mark.parametrize("q", [5, 9])
def test_a_sieve_grown_in_steps_or_cleared_leaves_no_stale_state(
        q, monkeypatch):
    f = parse_field_spec(str(q))

    def sieves():
        return [tuple(irreducibles_up_to(f, d)) for d in range(5)]

    def reports():
        return [report.to_json() for report in (
            pencil_census(f, 3, 3), fiber_census(f, 3, 3),
            *(subspace_census(f, 3, 3, d) for d in range(4)))]

    # each built at once in a cleared cache
    irreducibles_up_to.cache_clear()
    irreducibles_up_to(f, 4)
    at_once = sieves()
    irreducibles_up_to.cache_clear()
    at_once_reports = reports()
    table = dict(irreducibles_up_to(f, 3).products)
    # grown in steps, then a census below the top
    irreducibles_up_to.cache_clear()
    irreducibles_up_to(f, 2)
    irreducibles_up_to(f, 4)
    assert reports() == at_once_reports
    assert sieves() == at_once
    # cleared and run again: the products are built afresh, and the table
    # holds nothing of the degree 4 it was grown to before
    made = []
    multiply = polyring.coeffs_mul
    monkeypatch.setattr(polyring, "coeffs_mul",
                        lambda *args: made.append(1) or multiply(*args))
    irreducibles_up_to.cache_clear()
    assert reports() == at_once_reports
    monkeypatch.undo()
    assert [tuple(irreducibles_up_to(f, d)) for d in range(4)] == at_once[:4]
    assert irreducibles_up_to(f, 3).products == table
    assert len(made) == len(table) - len(at_once[3]) > 0


def test_a_closed_form_census_leaves_no_reference_cycle(monkeypatch):
    # nothing the walk or the sieve builds waits for the cycle collector to
    # be freed: not over an extension field, nor in a term table filled
    # afresh
    monkeypatch.setattr(polyring, "_TERMS", {})
    for q, n in ((5, 4), (9, 3)):
        f = parse_field_spec(str(q))
        irreducibles_up_to.cache_clear()
        gc.collect()
        gc.disable()
        try:
            pencil_census(f, n, n)
            fiber_census(f, n, n)
            for d in range(n + 1):
                subspace_census(f, n, n, d)
            assert gc.collect() == 0, q
        finally:
            gc.enable()


def test_closed_census_totals():
    assert pencil_census(F2, 3, 2).total() == 2 ** 6
    assert pair_census(F2, 2, 3).total() == 2 ** 6
    assert fiber_census(F2, 4, 3).total() == 2 ** 12
    for d in range(3):
        assert subspace_census(F2, 3, 2, d).total() == count_given_u(3, 2, d, 2)
