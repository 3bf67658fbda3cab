import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from pencilcensus import smith
from pencilcensus.errors import ExactnessError, OutOfRangeError, ShapeError
from pencilcensus.gf import field_new, parse_field_spec, rank_rows
from pencilcensus.polyring import (coeffs_divmod, coeffs_monic, coeffs_mul,
                                   coeffs_text, parse_coeffs)
from pencilcensus.smith import (
    InvariantFactorTuple,
    char_poly,
    det_divisor,
    max_invariant_subspace,
    pencil_invariant_factors,
    pencil_matrix,
    reachability_rank,
    snf,
)

from reference import mat_inv, mat_mul, trimmed

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2)
F5 = field_new(5)


def poly_grid(f, grid):
    """Rows of coefficient tuples parsed from rows of texts."""
    return [[parse_coeffs(str(e), f) for e in row] for row in grid]


def rand_matrix(rng, f, n, k):
    return [[rng.randrange(f.q) for _ in range(k)] for _ in range(n)]


def rows_of(entries, k):
    """The rows of k entries each of a row-major sequence."""
    return [entries[i:i + k] for i in range(0, len(entries), k)]


def all_matrices(f, n, k):
    for entries in itertools.product(f.elements(), repeat=n * k):
        yield rows_of(entries, k)


# ---------------------------------------------------------------------------
# snf and det_divisor
# ---------------------------------------------------------------------------

def snf_texts(f, rows):
    return [coeffs_text(f, c) for c in snf(f, rows)]


def test_snf_already_diagonal():
    m = poly_grid(F2, [["x", "0"], ["0", "x^2"]])
    assert snf_texts(F2, m) == ["x", "x^2"]


def test_snf_merges_coprime_diagonal():
    m = poly_grid(F2, [["x", "0"], ["0", "x+1"]])
    assert snf_texts(F2, m) == ["1", "x^2+x"]


def test_snf_zero_matrix():
    m = poly_grid(F2, [["0", "0", "0"], ["0", "0", "0"]])
    assert snf(F2, m) == ((), ())


def test_snf_rank_deficient_keeps_trailing_zeros():
    m = poly_grid(F2, [["x", "x"], ["x", "x"]])
    assert snf_texts(F2, m) == ["x", "0"]


def test_snf_normalizes_units():
    m = poly_grid(F3, [["2*x+1", "0"], ["0", "2"]])
    assert all(c[-1] == 1 for c in snf(F3, m))


def test_det_divisor_examples():
    m = poly_grid(F2, [["x", "x^2"]])
    assert coeffs_text(F2, det_divisor(F2, m, 1)) == "x"
    m = poly_grid(F2, [["x", "0"], ["0", "x+1"]])
    assert coeffs_text(F2, det_divisor(F2, m, 2)) == "x^2+x"
    assert det_divisor(F3, poly_grid(F3, [["x", "2*x"], ["1", "2"]]), 2) == ()
    with pytest.raises(OutOfRangeError):
        det_divisor(F2, m, 3)
    with pytest.raises(OutOfRangeError):
        det_divisor(F2, m, 0)


def test_snf_and_det_divisor_take_equal_length_rows():
    with pytest.raises(ShapeError, match="ragged"):
        snf(F2, poly_grid(F2, [["x", "1"], ["x"]]))
    with pytest.raises(ShapeError, match="ragged"):
        det_divisor(F2, poly_grid(F2, [["x"], ["x", "1"]]), 1)
    assert snf(F2, []) == ()
    assert snf(F2, [[], []]) == ()


def test_snf_and_det_divisor_leave_their_rows_unchanged():
    # the elimination swaps rows and columns to bring the unit at (1, 2) to
    # the pivot, then clears its row and column with nonzero quotients
    rows = poly_grid(F3, [["x^2", "x+1", "x"], ["x", "x^2+2", "2"]])
    before = [list(row) for row in rows]
    identities = [id(row) for row in rows]
    assert snf_texts(F3, rows) == ["1", "1"]
    for order in (1, 2):
        det_divisor(F3, rows, order)
    assert rows == before
    assert [id(row) for row in rows] == identities


def assert_snf_matches_minor_gcds(f, a):
    """The i-th determinantal divisor is the product of the first i Smith
    diagonal entries, each a coefficient tuple without trailing zeros."""
    prev = (1,)
    for i, c in enumerate(snf(f, a), start=1):
        assert type(c) is tuple and (not c or c[-1])
        delta = det_divisor(f, a, i)
        assert delta == coeffs_mul(f, prev, c), f"delta_{i} mismatch for {a!r}"
        prev = delta


@pytest.mark.parametrize("q,n,k", [(2, 2, 1), (2, 2, 2), (2, 3, 2), (3, 2, 2)])
def test_snf_matches_minor_gcds_exhaustive(q, n, k):
    f = field_new(q)
    for b in all_matrices(f, n, k):
        assert_snf_matches_minor_gcds(f, pencil_matrix(f, b))


def test_snf_matches_minor_gcds_random_larger():
    rng = random.Random(17)
    for q, n, k in ((2, 4, 3), (3, 3, 2), (5, 2, 2), (4, 3, 2), (8, 2, 2),
                    (9, 2, 2)):
        f = parse_field_spec(str(q))
        for _ in range(60):
            assert_snf_matches_minor_gcds(
                f, pencil_matrix(f, rand_matrix(rng, f, n, k)))


@st.composite
def poly_matrices(draw, fields=(3, 4, 9)):
    """Raw polynomial matrices up to 3 x 3, entries of degree at most 2, over
    one of ``fields``: by default an odd prime field, a characteristic-2
    extension and an odd extension.  The field and the rows of coefficient
    tuples."""
    f = parse_field_spec(str(draw(st.sampled_from(fields))))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    coeffs = st.lists(st.integers(0, f.q - 1), max_size=3)
    entries = draw(st.lists(coeffs, min_size=rows * cols,
                            max_size=rows * cols))
    return f, [[trimmed(c) for c in entries[i * cols:(i + 1) * cols]]
               for i in range(rows)]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(poly_matrices())
# rank deficient: rank 1 of 2, and rank 2 of 3 with a zero row and column
@example((F3, poly_grid(F3, [["x", "x+1"], ["2*x", "2*x+2"]])))
@example((F4, poly_grid(F4, [["0", "x", "[2]*x"],
                             ["0", "0", "0"],
                             ["x^2", "[3]", "x+[1]"]])))
def test_snf_matches_minor_gcds_on_raw_matrices(case):
    assert_snf_matches_minor_gcds(*case)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(poly_matrices((2, 5, 8, 25)))
# unimodular, L*U with L and U unit triangular: every division of the
# elimination and the sweep is by the unit 1
@example((F2, poly_grid(F2, [["1", "x", "1"], ["x", "x^2+1", "x^2"],
                             ["x+1", "x", "x^4+x^3+x"]])))
# the elimination leaves the diagonal x, x + 2 out of chain order, so the
# final sweep replaces it by gcd and lcm
@example((F5, poly_grid(F5, [["2*x", "0"], ["0", "3*x+1"]])))
def test_snf_of_coefficient_rows_matches_minor_gcds_on_more_fields(case):
    assert_snf_matches_minor_gcds(*case)


def test_divisibility_chain_on_general_matrices():
    rng = random.Random(23)
    for _ in range(60):
        rows = [[trimmed(rng.randrange(2) for _ in range(3))
                 for _ in range(3)] for _ in range(2)]
        diagonal = snf(F2, rows)
        nonzero = [c for c in diagonal if c]
        rank = len(nonzero)
        assert all(not c for c in diagonal[rank:])
        assert nonzero == list(diagonal[:rank])
        for a, b in zip(nonzero, nonzero[1:]):
            assert not coeffs_divmod(F2, b, a)[1]


# ---------------------------------------------------------------------------
# pencils
# ---------------------------------------------------------------------------

def tall_pencil(rng, f, n, k, bottom):
    """A random n x k matrix B = [A; C] whose bottom block C is shaped by
    `bottom`: "random", "full" (rank C = k, so no column reaches snf),
    "dependent" (rank C = 2 < k, each row after the first two a nonzero
    combination of them) or a tuple of the rows of B set to zero."""
    rows = rand_matrix(rng, f, n, k)
    if bottom == "full":
        while rank_rows(f, rows[k:], k) < k:
            rows[k:] = rand_matrix(rng, f, n - k, k)
    elif bottom == "dependent":
        while rank_rows(f, rows[k:k + 2], k) < 2:
            rows[k:k + 2] = rand_matrix(rng, f, 2, k)
        for i in range(k + 2, n):
            a, b = rng.randrange(1, f.q), rng.randrange(f.q)
            rows[i] = [f.add(f.mul(a, u), f.mul(b, v))
                       for u, v in zip(rows[k], rows[k + 1])]
    elif bottom != "random":
        rows = [[0] * k if i in bottom else row for i, row in enumerate(rows)]
    return rows


# 6-2-zero-rows zeroes row k - 1 of the top block, which the pencil keeps as
# x*e_(k-1), and rows 3 and 4 below it; full-rank leaves snf no column,
# dependent has 0 < rank C < k, and 8-3 has n - k > k
@pytest.mark.parametrize("q", [2, 3, 4, 9])
@pytest.mark.parametrize("n,k,bottom", [
    *(pytest.param(n, k, "random", id=f"{n}-{k}")
      for n, k in ((2, 2), (3, 3), (3, 2), (4, 2), (8, 3))),
    pytest.param(6, 2, (1, 3, 4), id="6-2-zero-rows"),
    pytest.param(5, 2, "full", id="5-2-full-rank"),
    pytest.param(7, 3, "full", id="7-3-full-rank"),
    pytest.param(6, 3, "dependent", id="6-3-dependent")])
def test_snf_of_the_pencil_rows_is_the_pencil_invariant_factors(q, n, k,
                                                                bottom):
    f = parse_field_spec(str(q))
    rng = random.Random(f"{q}-{n}-{k}-{bottom}")
    for _ in range(40):
        b = tall_pencil(rng, f, n, k, bottom)
        assert snf(f, pencil_matrix(f, b)) == \
            pencil_invariant_factors(f, b).coeffs


def record_snf_shapes(monkeypatch):
    """Patch smith.snf to append the shape of every matrix it receives."""
    shapes = []
    exact = smith.snf

    def recording(field, rows, **fresh):
        shapes.append((len(rows), len(rows[0]) if rows else 0))
        return exact(field, rows, **fresh)

    monkeypatch.setattr(smith, "snf", recording)
    return shapes


@pytest.mark.parametrize("n,k,bottom", [
    (4, 2, (2, 3)), (8, 3, "random"), (5, 2, "full"), (7, 3, "full"),
    (6, 3, "dependent")])
def test_a_tall_key_hands_snf_k_rows_and_k_minus_rank_c_columns(
        monkeypatch, n, k, bottom):
    shapes = record_snf_shapes(monkeypatch)
    rng = random.Random(f"{n}-{k}-{bottom}")
    for q in (2, 3, 4, 9):
        f = parse_field_spec(str(q))
        for _ in range(10):
            b = tall_pencil(rng, f, n, k, bottom)
            shapes.clear()
            pencil_invariant_factors(f, b)
            assert shapes == [(k, k - rank_rows(f, b[k:], k))]


def test_the_smith_stage_of_a_tall_key_does_not_grow_with_n(monkeypatch):
    shapes = record_snf_shapes(monkeypatch)
    n = 100_000
    for c_rows, rank_c in (([0, 0], 0), ([1, 1], 1), ([1, 0, 0, 1], 2)):
        entries = [1, 0, 0, 1] + c_rows * ((n - 2) * 2 // len(c_rows))
        shapes.clear()
        pencil_invariant_factors(F2, rows_of(entries, 2))
        assert shapes == [(2, 2 - rank_c)]


def test_pencil_examples():
    assert str(pencil_invariant_factors(F2, [[0, 0], [0, 0]])) == "x|x"
    assert str(pencil_invariant_factors(F2, [[1], [1]])) == "1"
    assert str(pencil_invariant_factors(F2, [[1], [0]])) == "x+1"
    with pytest.raises(ShapeError):
        pencil_invariant_factors(F2, [[0, 0, 0], [0, 0, 0]])


def test_a_pencil_short_of_full_column_rank_raises(monkeypatch):
    exact = smith.snf

    def one_short(field, rows, **fresh):
        return exact(field, rows, **fresh)[:-1] + ((),)

    monkeypatch.setattr(smith, "snf", one_short)
    with pytest.raises(ExactnessError, match="full column rank"):
        pencil_invariant_factors(F2, [[0, 0]] * 3)


def test_pencil_always_has_k_factors_of_bounded_degree():
    rng = random.Random(29)
    for q, n, k in ((2, 4, 2), (3, 3, 2), (2, 3, 3)):
        f = field_new(q)
        for _ in range(40):
            b = rand_matrix(rng, f, n, k)
            ifs = pencil_invariant_factors(f, b)
            assert len(ifs) == k
            assert ifs.total_degree() <= k
            pencil = pencil_matrix(f, b)
            assert 1 <= len(det_divisor(f, pencil, k)) <= k + 1


def test_square_pencil_product_is_characteristic_polynomial():
    for f, n in ((F2, 2), (F2, 3), (F3, 2)):
        for b in all_matrices(f, n, n):
            ifs = pencil_invariant_factors(f, b)
            assert ifs.product() == char_poly(f, b)


def test_char_poly_matches_cofactor_determinant():
    rng = random.Random(31)
    for f, n in ((F2, 4), (F3, 3), (field_new(2, 2), 3)):
        for _ in range(40):
            b = rand_matrix(rng, f, n, n)
            from pencilcensus.smith import _det
            direct = _det(f, pencil_matrix(f, b))
            assert char_poly(f, b) == coeffs_monic(f, direct)


def test_invariant_factors_survive_basis_change_fixing_subspace():
    # Change bases of the ambient space and the subspace, keeping the
    # subspace spanned by the first k vectors; the factors must not move.
    rng = random.Random(37)
    for f, n, k in ((F2, 4, 2), (F3, 3, 2)):
        for _ in range(25):
            b = rand_matrix(rng, f, n, k)
            while True:
                s = rand_matrix(rng, f, k, k)
                if rank_rows(f, s, k) == k:
                    break
            while True:
                y = rand_matrix(rng, f, n - k, n - k)
                if rank_rows(f, y, n - k) == n - k:
                    break
            x = rand_matrix(rng, f, k, n - k)
            top = [s[i] + x[i] for i in range(k)]
            bottom = [[0] * k + y[i] for i in range(n - k)]
            r = top + bottom
            b_new = mat_mul(f, mat_inv(f, r), mat_mul(f, b, s))
            assert pencil_invariant_factors(f, b_new) == \
                pencil_invariant_factors(f, b)


# ---------------------------------------------------------------------------
# invariant subspaces and reachability
# ---------------------------------------------------------------------------

def test_max_invariant_subspace_examples():
    a = [[1, 0], [1, 1]]
    assert max_invariant_subspace(F2, a, [[0, 0]]) == ((1, 0), (0, 1))
    assert max_invariant_subspace(F2, a, []) == ((1, 0), (0, 1))
    assert max_invariant_subspace(F2, [[0, 0], [0, 0]],
                                  [[1, 0], [0, 1]]) == ()
    with pytest.raises(ShapeError):
        max_invariant_subspace(F2, a, [[0, 0, 0]])


def test_invariant_subspace_dimension_equals_factor_degree_sum():
    f, n, k = F2, 3, 2
    for b in all_matrices(f, n, k):
        a_block, c_block = b[:k], b[k:]
        basis = max_invariant_subspace(f, a_block, c_block)
        assert len(basis) == pencil_invariant_factors(f, b).total_degree()
        # the basis really spans an invariant subspace: A maps it into
        # itself and C kills it
        for vec in basis:
            col = [[v] for v in vec]
            assert all(v == 0 for v, in mat_mul(f, c_block, col))
            image = [v for v, in mat_mul(f, a_block, col)]
            assert rank_rows(f, list(basis) + [image], k) == len(basis)


def test_reachability_examples():
    a = [[1, 0], [0, 1]]
    assert reachability_rank(F2, a, [[0], [0]]) == 0
    assert reachability_rank(F2, [[1]], [[1]]) == 1
    with pytest.raises(ShapeError):
        reachability_rank(F2, a, [[0], [0], [0]])


def reachability_rank_by_blocks(f, a, b):
    """Rank of [B, AB, ..., A^{k-1}B], concatenated column block by block."""
    blocks = [b]
    for _ in range(len(a) - 1):
        blocks.append(mat_mul(f, a, blocks[-1]))
    rows = [[v for block in blocks for v in block[i]] for i in range(len(a))]
    return rank_rows(f, rows, len(rows[0]))


def test_reachability_rank_matches_explicit_block_matrix():
    f, k, n = F2, 2, 4
    for a in all_matrices(f, k, k):
        for b in all_matrices(f, k, n - k):
            assert reachability_rank(f, a, b) == \
                reachability_rank_by_blocks(f, a, b)
    rng = random.Random(41)
    k, n = 3, 5
    for q in (3, 4, 9):
        f = parse_field_spec(str(q))
        for _ in range(200):
            a, b = rand_matrix(rng, f, k, k), rand_matrix(rng, f, k, n - k)
            assert reachability_rank(f, a, b) == \
                reachability_rank_by_blocks(f, a, b)


def test_reachability_rank_is_dual_to_invariant_subspace():
    f, k, n = F2, 2, 3
    for a in all_matrices(f, k, k):
        for b in all_matrices(f, k, n - k):
            basis = max_invariant_subspace(f, list(zip(*a)), list(zip(*b)))
            assert reachability_rank(f, a, b) == k - len(basis)


@pytest.mark.parametrize("call", [
    lambda b: pencil_matrix(F2, b),
    lambda b: pencil_invariant_factors(F2, b),
    lambda b: char_poly(F2, b),
    lambda b: max_invariant_subspace(F2, b, [[0, 0]]),
    lambda b: max_invariant_subspace(F2, [[1, 0], [0, 1]], b),
    lambda b: reachability_rank(F2, b, [[1], [0]]),
    lambda b: reachability_rank(F2, [[1, 0], [0, 1]], b),
], ids=["pencil_matrix", "pencil_invariant_factors", "char_poly",
        "max_invariant_subspace-a", "max_invariant_subspace-c",
        "reachability_rank-a", "reachability_rank-b"])
def test_a_scalar_matrix_with_ragged_rows_is_refused(call):
    with pytest.raises(ShapeError, match="ragged"):
        call([[1, 0], [1]])


# ---------------------------------------------------------------------------
# invariant factor tuples
# ---------------------------------------------------------------------------

def test_tuple_validation():
    x, x2 = (0, 1), (0, 0, 1)
    assert InvariantFactorTuple(F2, [x, x2]).coeffs == (x, x2)
    with pytest.raises(ValueError, match="does not divide"):
        InvariantFactorTuple(F2, [x2, x])  # chain violated
    with pytest.raises(ValueError, match="does not divide"):
        InvariantFactorTuple(F2, [(1, 1), (1, 1, 1)])
    with pytest.raises(ValueError, match="not monic"):
        InvariantFactorTuple(F3, [(1, 2)])
    with pytest.raises(ValueError, match="not monic"):
        InvariantFactorTuple(F3, [(), ()])
    with pytest.raises(ValueError):
        InvariantFactorTuple(F2, [])


def test_tuple_parse_round_trip():
    for text in ("1|x", "x|x", "1|x^2+x+1", "x+1|x^2+x"):
        ifs = InvariantFactorTuple.parse(text, F2)
        assert str(ifs) == text
        assert InvariantFactorTuple.parse(str(ifs), F2) == ifs


def test_only_pencil_keys_store_their_entry_texts():
    # a pencil key reads its entries' texts from its field's table, which
    # holds monics of degree <= k; a chain typed in or built from
    # coefficient tuples renders its text and stores nothing
    f = field_new(5)
    texts = smith._pencil_entries(f)[2]
    before = dict(texts)
    for chain in (InvariantFactorTuple.parse("1|x^2+3|x^5+3*x^3", f),
                  InvariantFactorTuple(f, [parse_coeffs("x^4+3", f)])):
        assert str(chain) == "|".join(coeffs_text(f, c) for c in chain.coeffs)
    assert texts == before
    rng = random.Random(5)
    for _ in range(200):
        key = pencil_invariant_factors(f, rand_matrix(rng, f, 4, 3))
        assert str(key) == "|".join(coeffs_text(f, c) for c in key.coeffs)
        assert all(texts[c] == coeffs_text(f, c) for c in key.coeffs)
    assert len(texts) > len(before)
    assert all(c[-1] == 1 and len(c) - 1 <= 3 for c in texts)
