import itertools
import random

import pytest

from pencilcensus.errors import (
    BadSubspaceError,
    DivisionByZeroError,
    ExactnessError,
    FieldTooLargeError,
    NotPrimeError,
    ShapeError,
)
from pencilcensus.gf import (
    check_echelon_basis,
    echelon_subspaces,
    field_new,
    is_prime,
    kernel_free_rows,
    parse_field_order,
    parse_field_spec,
    rank_rows,
)

from reference import (digitwise_add, digitwise_neg, kernel_intersection,
                       log_tables_by_order_walk, mat_inv, mat_mul,
                       primitive_element,
                       smallest_irreducible_by_trial_division)

SMALL_ORDERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (11, 1), (13, 1), (2, 4)]


def test_prime_field_has_no_modulus():
    f = field_new(2, 1)
    assert (f.p, f.m, f.q) == (2, 1, 2)
    assert f.modulus is None


def test_gf4_modulus_is_the_unique_irreducible_quadratic():
    f = field_new(2, 2)
    assert f.modulus == (1, 1, 1)  # x^2 + x + 1, ascending coefficients


def test_gf8_modulus_smallest_from_top_coefficient_down():
    # degree-3 candidates over F_2 in (c2, c1, c0) order: x^3+x+1 beats x^3+x^2+1
    f = field_new(2, 3)
    assert f.modulus == (1, 1, 0, 1)


def test_composite_characteristic_rejected():
    with pytest.raises(NotPrimeError):
        field_new(4, 1)


def test_field_size_cap():
    with pytest.raises(FieldTooLargeError):
        field_new(2, 17)


def test_parse_field_spec():
    assert parse_field_spec("2").q == 2
    assert parse_field_spec("4").q == 4 and parse_field_spec("4").m == 2
    assert parse_field_spec("2^3").q == 8
    with pytest.raises(NotPrimeError):
        parse_field_spec("6")


def test_field_orders_are_checked_cap_first_without_building_the_field():
    assert parse_field_order("9") == (3, 2)
    assert parse_field_order("2^16") == (2, 16)
    # orders past the cap, some with a huge prime or exponent, and a
    # composite base: refused with no trial division and no p ** m
    for spec in ("100000000000000000039", "3^10000000", "2^17", "65537",
                 "4^10000000"):
        with pytest.raises(FieldTooLargeError):
            parse_field_order(spec)
    for spec in ("6", "4^2", "1^5", "0^3"):
        with pytest.raises(NotPrimeError):
            parse_field_order(spec)


def test_field_contexts_are_cached():
    assert field_new(3) is field_new(3)
    assert parse_field_spec("4") is field_new(2, 2)


def test_char2_examples():
    f = field_new(2)
    assert f.add(1, 1) == 0
    f4 = field_new(2, 2)
    # basis {1, x} mod x^2+x+1: x is encoded 2, x*x = x+1 is encoded 3
    assert f4.mul(2, 2) == 3
    assert field_new(5).inv(2) == 3


def test_inverse_of_zero_raises():
    for p, m in ((2, 1), (3, 1), (2, 2)):
        with pytest.raises(DivisionByZeroError):
            field_new(p, m).inv(0)


@pytest.mark.parametrize("p,m", SMALL_ORDERS)
def test_field_axioms_exhaustive(p, m):
    f = field_new(p, m)
    elems = list(f.elements())
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(a, b) == f.add(a, f.neg(b))
    if f.q <= 9:
        for a, b, c in itertools.product(elems, repeat=3):
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


# every extension field with q <= 2^10, characteristic 2 to 31
EXTENSIONS = [(p, m) for p in range(2, 32) if is_prime(p)
              for m in range(2, 11) if p ** m <= 2 ** 10]


@pytest.mark.parametrize("p,m", EXTENSIONS)
def test_modulus_equals_the_trial_division_reference(p, m):
    assert field_new(p, m).modulus == smallest_irreducible_by_trial_division(p, m)


@pytest.mark.parametrize("p,m", EXTENSIONS)
def test_log_tables_equal_the_order_walk(p, m):
    f = field_new(p, m)
    assert (f._exp, f._log) == log_tables_by_order_walk(f)


@pytest.mark.parametrize("p,m", EXTENSIONS + [(3, 10), (251, 2)])
def test_add_neg_sub_equal_the_digitwise_reference(p, m):
    f = field_new(p, m)
    if f.q <= 243:
        pairs = itertools.product(f.elements(), repeat=2)
    else:
        rng = random.Random(f.q)
        pairs = [(rng.randrange(f.q), rng.randrange(f.q))
                 for _ in range(20000)]
    for a, b in pairs:
        assert f.add(a, b) == digitwise_add(f, a, b), (a, b)
        assert f.neg(a) == digitwise_neg(f, a), a
        assert f.sub(a, b) == digitwise_add(f, a, digitwise_neg(f, b)), (a, b)


# odd-characteristic extensions subtract in one Zech step of their own
@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (3, 3)])
def test_odd_extension_sub_equals_add_of_the_negation(p, m):
    f = field_new(p, m)
    for a, b in itertools.product(f.elements(), repeat=2):
        assert f.sub(a, b) == f.add(a, f.neg(b)), (a, b)


def test_generator_is_the_least_primitive_element():
    for p, m in [(p, m) for p in range(2, 2 ** 10) if is_prime(p)
                 for m in range(1, 11) if p ** m <= 2 ** 10]:
        f = field_new(p, m)
        assert f.generator == primitive_element(f), (p, m)


def test_prime_field_inverse_from_the_log_tables():
    for p in (251, 65521):
        f = field_new(p)
        assert all(f.mul(a, f.inv(a)) == 1 for a in range(1, p)), p


def test_rank_examples():
    f = field_new(2)
    assert rank_rows(f, [[1, 0], [0, 1]], 2) == 2
    assert rank_rows(f, [[0, 0]] * 3, 2) == 0
    assert rank_rows(f, [[1, 1], [1, 1]], 2) == 1


def test_rank_equals_transpose_rank():
    rng = random.Random(7)
    for f in (field_new(2), field_new(3), field_new(2, 2)):
        for _ in range(40):
            m = [[rng.randrange(f.q) for _ in range(4)] for _ in range(3)]
            assert rank_rows(f, m, 4) == rank_rows(f, zip(*m), 3)


def test_kernel_intersection_examples():
    f2 = field_new(2)
    full = kernel_intersection(f2, [[[0, 0]]])
    assert full == ((1, 0), (0, 1))
    assert kernel_intersection(f2, [[[1, 0], [0, 1]]]) == ()
    f3 = field_new(3)
    assert kernel_intersection(f3, [[[1, 0]], [[0, 1]]]) == ()


def test_kernel_intersection_rank_nullity():
    rng = random.Random(11)
    f = field_new(3)
    k = 4
    for _ in range(30):
        mats = [[[rng.randrange(3) for _ in range(k)] for _ in range(2)]
                for _ in range(2)]
        stack = [row for m in mats for row in m]
        basis = kernel_intersection(f, mats)
        assert len(basis) == k - rank_rows(f, stack, k)
        # one reduction's free-variable basis: as many independent vectors,
        # each killed by the stack
        free = kernel_free_rows(f, stack, k)
        assert len(free) == len(basis) == rank_rows(f, free, k)
        for vec in free:
            col = mat_mul(f, stack, [[v] for v in vec])
            assert all(v == 0 for v, in col)
        # every basis vector is killed by every matrix
        for vec in basis:
            for m in mats:
                col = mat_mul(f, m, [[v] for v in vec])
                assert all(v == 0 for v, in col)


def test_kernel_intersection_rejects_mixed_widths():
    f = field_new(2)
    with pytest.raises(ShapeError):
        kernel_intersection(f, [[[0, 0]], [[0, 0, 0]]])


def brute_force_gl_count(f, n):
    count = 0
    for entries in itertools.product(f.elements(), repeat=n * n):
        if rank_rows(f, [entries[i:i + n] for i in range(0, n * n, n)], n) == n:
            count += 1
    return count


@pytest.mark.parametrize("q,n", [(2, 1), (5, 1), (2, 2), (3, 2), (4, 2),
                                 (5, 2), (2, 3), (3, 3), (2, 4)])
def test_invertible_matrix_count_matches_closed_form(q, n):
    # grid limited to q^(n^2) <= 2^16
    from pencilcensus.census import gl_order
    f = parse_field_spec(str(q))
    assert brute_force_gl_count(f, n) == gl_order(n, q)


def test_mat_inv_round_trip():
    rng = random.Random(3)
    for f in (field_new(2), field_new(5), field_new(2, 2)):
        done = 0
        while done < 10:
            m = [[rng.randrange(f.q) for _ in range(3)] for _ in range(3)]
            if rank_rows(f, m, 3) < 3:
                continue
            done += 1
            assert mat_mul(f, m, mat_inv(f, m)) == [[1, 0, 0], [0, 1, 0],
                                                    [0, 0, 1]]


def brute_force_subspace_count(f, k):
    """Count distinct subspaces of F_q^k by span closure, no echelon logic."""
    vectors = list(itertools.product(f.elements(), repeat=k))
    spans = set()
    for gens in itertools.product(vectors, repeat=min(k, 3)):
        span = {(0,) * k}
        frontier = True
        while frontier:
            frontier = False
            for v in list(span):
                for g in gens:
                    for c in f.elements():
                        w = tuple(f.add(v[i], f.mul(c, g[i])) for i in range(k))
                        if w not in span:
                            span.add(w)
                            frontier = True
        spans.add(frozenset(span))
    return len(spans)


def test_echelon_subspaces_are_exactly_the_subspaces():
    f = field_new(2)
    k = 3
    bases = list(echelon_subspaces(f, k))
    assert len(bases) == len(set(bases))
    assert len(bases) == brute_force_subspace_count(f, k)  # 16 for q=2, k=3
    for basis in bases:
        assert check_echelon_basis(f, basis, k) == basis


def test_echelon_subspaces_fixed_dimension():
    f = field_new(3)
    ones = list(echelon_subspaces(f, 2, dim=1))
    assert len(ones) == 4  # lines in F_3^2
    assert all(len(b) == 1 for b in ones)


def test_check_echelon_basis_rejects_bad_input():
    f = field_new(2)
    with pytest.raises(BadSubspaceError):
        check_echelon_basis(f, [(1, 1), (1, 0)], 2)  # not reduced
    with pytest.raises(BadSubspaceError):
        check_echelon_basis(f, [(0, 3)], 2)  # out of range
    with pytest.raises(BadSubspaceError):
        check_echelon_basis(f, [(1,)], 2)  # wrong length


def test_missing_irreducible_raises_exactness_error(monkeypatch):
    import pencilcensus.gf as gf
    import pencilcensus.polyring as polyring
    monkeypatch.setattr(polyring, "is_irreducible", lambda f: False)
    with pytest.raises(ExactnessError):
        gf._smallest_irreducible(2, 3)
