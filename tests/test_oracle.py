import ast
import hashlib
import importlib.resources as res
import inspect
import itertools
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc

import pytest

from pencilcensus.census import (
    CensusReport,
    fiber_census,
    nilext_census,
    pair_census,
    pencil_census,
    subspace_census,
)
from pencilcensus import census as census_mod
from pencilcensus import oracle, smith
from pencilcensus.errors import (
    BadSubspaceError,
    BudgetExceededError,
    ExactnessError,
    ParamMismatchError,
    ShapeError,
)
from pencilcensus.gf import (_digits_of, echelon_subspaces, field_new,
                             parse_field_spec)
from pencilcensus.cli import build_parser, main as cli_main
from pencilcensus.oracle import (
    MODE_TABLE,
    MODES,
    EnumConfig,
    _chunks,
    _pool_size,
    _similarity_classes,
    _tall_list,
    _walk,
    closed_form,
    run,
    verify,
)
from pencilcensus.smith import reachability_rank

from reference import block_classes_by_group, similarity_classes_by_moves

F2 = field_new(2)


def cfg(q=2, n=3, k=2, **kw):
    f = parse_field_spec(str(q))
    return EnumConfig(p=f.p, m=f.m, n=n, k=k, **kw)


# ---------------------------------------------------------------------------
# pencil mode
# ---------------------------------------------------------------------------

def test_one_by_one_pencils():
    report = run(cfg(n=1, k=1))
    assert report.entries == {"x": 1, "x+1": 1}


def test_two_by_one_pencils():
    report = run(cfg(n=2, k=1))
    assert report.entries == {"1": 2, "x": 1, "x+1": 1}


def test_zero_matrix_is_the_only_x_x_pencil():
    report = run(cfg(n=2, k=2))
    assert report.entries["x|x"] == 1


def test_pencil_census_matches_closed_form():
    report = run(cfg(n=3, k=2))
    diff = verify(pencil_census(F2, 3, 2), report)
    assert diff.verdict
    assert report.total() == 2 ** 6


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        run(cfg(n=3, k=2, budget=10))


def test_shape_guard():
    with pytest.raises(ShapeError):
        run(cfg(n=2, k=3))


# ---------------------------------------------------------------------------
# pair mode
# ---------------------------------------------------------------------------

def test_pair_census_small():
    report = run(cfg(n=2, k=1, mode="pair"))
    assert report.entries == {"0": 2, "1": 2}


def test_pair_census_totals_and_reachable_value():
    report = run(cfg(n=3, k=2, mode="pair"))
    assert report.total() == 2 ** 6
    assert report.entries["2"] == (8 - 2) * (8 - 4)
    assert verify(pair_census(F2, 2, 3), report).verdict


@pytest.mark.parametrize("q,n,k", [(2, 3, 2), (3, 3, 1), (2, 4, 2), (4, 3, 2)])
def test_pair_census_equals_the_rank_of_every_pair(q, n, k):
    # every (A, B), A k x k and B k x (n-k), tallied by its own rank
    f = parse_field_spec(str(q))
    tally = {}
    for a in itertools.product(range(q), repeat=k * k):
        for b in itertools.product(range(q), repeat=k * (n - k)):
            rank = str(reachability_rank(
                f, [a[i:i + k] for i in range(0, k * k, k)],
                [b[i:i + n - k] for i in range(0, k * (n - k), n - k)]))
            tally[rank] = tally.get(rank, 0) + 1
    assert run(cfg(q=q, n=n, k=k, mode="pair")).entries == tally


def test_pair_mode_requires_k_below_n():
    with pytest.raises(ShapeError):
        run(cfg(n=2, k=2, mode="pair"))


# ---------------------------------------------------------------------------
# fiber mode
# ---------------------------------------------------------------------------

def test_fiber_census_square():
    report = run(cfg(n=2, k=2, mode="fiber"))
    assert report.entries["x^2"] == 4  # nilpotent 2x2 count
    assert report.total() == 2 ** 4
    assert verify(fiber_census(F2, 2, 2), report).verdict


def test_fiber_census_rectangular():
    report = run(cfg(n=3, k=2, mode="fiber"))
    assert report.entries["1"] == (8 - 2) * (8 - 4)  # reachable-pair product
    assert verify(fiber_census(F2, 3, 2), report).verdict


# ---------------------------------------------------------------------------
# subspace mode
# ---------------------------------------------------------------------------

def test_subspace_census_zero_subspace():
    report = run(cfg(n=3, k=2, mode="subspace", subspace=()))
    assert report.entries == {"1|1": (8 - 2) * (8 - 4)}


def test_subspace_census_full_space_recovers_class_census():
    full = tuple(tuple(row) for row in ((1, 0), (0, 1)))
    report = run(cfg(n=2, k=2, mode="subspace", subspace=full))
    assert report.entries == pencil_census(F2, 2, 2).entries


def test_subspace_census_line_example():
    report = run(cfg(n=3, k=2, mode="subspace", subspace=((1, 0),)))
    assert report.total() == 2 ** 1 * (8 - 4)
    assert verify(subspace_census(F2, 3, 2, 1), report).verdict


def test_subspace_totals_are_u_independent():
    totals = {}
    for basis in echelon_subspaces(F2, 2):
        report = run(cfg(n=3, k=2, mode="subspace", subspace=basis))
        totals.setdefault(len(basis), set()).add(
            tuple(sorted(report.entries.items())))
    for d, seen in totals.items():
        assert len(seen) == 1, f"dimension {d} censuses differ across subspaces"


def test_subspace_mode_validates_basis():
    with pytest.raises(BadSubspaceError):
        run(cfg(mode="subspace", subspace=None))
    with pytest.raises(BadSubspaceError):
        run(cfg(mode="subspace", subspace=((1, 1), (1, 0))))


# ---------------------------------------------------------------------------
# nilpotent completion mode
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,k,expected", [(2, 1, 3), (2, 2, 4), (3, 2, 40)])
def test_nilpotent_extendable_counts(n, k, expected):
    assert run(cfg(n=n, k=k, mode="nilext")).entries["extendable"] == expected


def test_nilext_report_matches_closed_form():
    report = run(cfg(n=3, k=2, mode="nilext"))
    assert verify(nilext_census(F2, 3, 2), report).verdict


# The completion scan tries E = 0 first, each completion once, and stops at
# the first nilpotent one.  It runs only where the negative certificate
# (A^(dim M) nonzero on M) leaves a completion possible, and there it finds
# one.  Pinned per shape: the representatives, the ones scanned (all of them
# positives), the most tries a scan needs and the tries in all, each try
# being ``squarings`` products whose first squares the completed matrix.  On
# these lists every positive is completed by E = 0, its first try.
@pytest.mark.parametrize("q,n,k,pins", [(2, 4, 2, (10, 5, 1, 5)),
                                        (3, 3, 2, (16, 4, 1, 4)),
                                        (2, 5, 3, (26, 9, 1, 9))])
def test_the_completion_scan_tries_the_zero_completion_first(q, n, k, pins,
                                                              monkeypatch):
    exact_scan, exact_mul = oracle._has_nilpotent_completion, oracle.rows_mul
    products, scans = [], []

    def scan(f, b, ext_cols, squarings):
        start = len(products)
        found = exact_scan(f, b, ext_cols, squarings)
        assert (len(products) - start) % squarings == 0
        scans.append((found, [tuple(map(tuple, m))
                              for m in products[start::squarings]]))
        return found

    monkeypatch.setattr(oracle, "rows_mul", lambda f, a, b:
                        products.append(a) or exact_mul(f, a, b))
    monkeypatch.setattr(oracle, "_has_nilpotent_completion", scan)
    small = cfg(q, n, k, mode="nilext")
    run(small)
    for found, tries in scans:
        assert found
        assert not any(v for row in tries[0] for v in row[k:])
        assert len(set(tries)) == len(tries)
        assert len({tuple(row[:k] for row in m) for m in tries}) == 1
    assert (len(oracle._representatives(small)), len(scans),
            max(len(tries) for _, tries in scans),
            sum(len(tries) for _, tries in scans)) == pins


def scanned_negatives(shapes):
    """The representatives of the nilext lists at ``shapes`` that no
    nilpotent matrix completes (by the divisibility criterion of
    ``_nilext_key``) yet made a ``rows_mul`` call, the scan's product, and
    how many such negatives there were."""
    calls, scanned, negatives = [], [], 0
    exact = oracle.rows_mul
    oracle.rows_mul = lambda *args: calls.append(1) or exact(*args)
    try:
        for q, n, k in shapes:
            small = cfg(q, n, k, mode="nilext")
            f = small.field()
            for b, _ in oracle._representatives(small):
                calls.clear()
                if oracle._nilext_key(f, small, b) is None:
                    negatives += 1
                    if calls:
                        scanned.append(b)
    finally:
        oracle.rows_mul = exact
    return scanned, negatives


NILEXT_SCAN_SHAPES = [(2, 4, 2), (3, 3, 2), (2, 5, 3), (2, 3, 1)]


def test_a_representative_with_a_negative_certificate_makes_no_rows_mul_call():
    assert scanned_negatives(NILEXT_SCAN_SHAPES) == ([], 35)


def test_nilext_budget_counts_completions():
    # the 16 blocks of the GL_2 search x 2^(n(n-k)) = 8 candidate
    # completions each: 128 evaluations exceed a budget of 100
    with pytest.raises(BudgetExceededError):
        run(cfg(n=3, k=2, mode="nilext", budget=100))


def test_a_completion_search_that_disagrees_with_divisibility_raises(
        monkeypatch):
    exact = oracle._has_nilpotent_completion
    monkeypatch.setattr(oracle, "_has_nilpotent_completion",
                        lambda *args: not exact(*args))
    with pytest.raises(ExactnessError, match="divisibility criterion"):
        run(cfg(n=3, k=2, mode="nilext"))


# The full walk takes one Smith form per matrix, q^(nk) of them, and up to
# q^(nk) * q^(n(n-k)) = q^(n^2) candidate completions.  The reduction is
# trivial at q = 2 with n - k = 1, so those shapes are left out.
NILEXT_GRID = [(q, n, k) for q in (2, 3, 4) for n in range(1, 5)
               for k in range(1, n + 1)
               if (n - k >= 2 or q > 2 or n == k)
               and q ** (n * k) <= 2 ** 12 and q ** (n * n) <= 2 ** 15]


@pytest.mark.parametrize("q,n,k", NILEXT_GRID)
def test_nilext_orbit_walk_equals_full_enumeration(q, n, k):
    small = cfg(q, n, k, mode="nilext")
    full = _walk(small, oracle._nilext_key)
    assert run(small).entries == full


@pytest.mark.parametrize("q,n,k", NILEXT_GRID)
def test_the_completion_scan_finds_none_wherever_the_certificate_says_none(
        q, n, k):
    small = cfg(q, n, k, mode="nilext")
    f = small.field()
    negatives = [b for b, _ in oracle._representatives(small)
                 if oracle._negative_certificate(f, small, b)]
    assert negatives  # the identity block, for one, is not nilpotent on M
    for b in negatives:
        assert not oracle._has_nilpotent_completion(
            f, b, n - k, max(n - 1, 0).bit_length()), b


def test_nilext_at_9_3_1_verifies_at_the_default_budget():
    # charged 9^7 of the default 2^24: each negative is decided by its
    # certificate, not by a scan of 9^6 completions
    small = cfg(9, 3, 1, mode="nilext")
    assert small.budget == oracle.DEFAULT_BUDGET
    assert verify(closed_form(small), run(small)).verdict


# ---------------------------------------------------------------------------
# dispatch, determinism, diffing
# ---------------------------------------------------------------------------

def test_run_dispatches_every_mode():
    assert run(cfg(mode="pencil")).parameters["mode"] == "pencil"
    assert run(cfg(mode="pair")).parameters["mode"] == "pair"
    assert run(cfg(mode="fiber")).parameters["mode"] == "fiber"
    assert run(cfg(mode="subspace", subspace=((1, 0),))).parameters["mode"] == \
        "subspace"
    assert run(cfg(mode="nilext")).parameters["mode"] == "nilext"
    with pytest.raises(ValueError):
        run(cfg(mode="bogus"))


def test_worker_count_does_not_change_the_report():
    serial = run(cfg(workers=1))
    for workers in (3, 4):
        parallel = run(cfg(workers=workers))
        assert serial.to_json() == parallel.to_json()


def test_chunk_size_does_not_change_the_report():
    # where they do not divide evenly, runs of list positions differ by at
    # most one: 64 positions cut into 21, 21 and 22
    assert [hi - lo for lo, hi in _chunks(64, 3)] == [21, 21, 22]
    assert run(cfg(workers=3)).to_json() == run(cfg()).to_json()


# Lists no longer than the worker count: the (2, 2, 1) list holds 3
# representatives, and subspace mode at n = k = 2 with d = 1 none, since
# its walk takes r >= 1, which needs n > k: one chunk, whose share is all 16
# matrices and whose run of the list is empty, and an empty report.
@pytest.mark.parametrize("mode,n,k,basis,length", [
    *((mode, 2, 1, None, 3) for mode in ("pencil", "fiber", "pair", "nilext")),
    ("subspace", 2, 1, ((1,),), 2), ("subspace", 2, 2, ((1, 0),), 0)])
def test_worker_count_past_the_list_length_does_not_change_the_report(
        mode, n, k, basis, length):
    small = cfg(2, n, k, mode=mode, subspace=basis)
    assert len(oracle._representatives(oracle._resolve(small)[1])) == length
    reports = {run(small._replace(workers=w)).to_json() for w in (1, 2, 3, 7)}
    assert len(reports) == 1
    if not length:
        chunks = []
        oracle._execute(oracle._resolve(small._replace(workers=7))[1],
                        lambda args: chunks.append(args[1:]) or {})
        assert chunks == [(0, 16)] and run(small).entries == {}


# ---------------------------------------------------------------------------
# orbit reduction: one representative per orbit, from the list by recursion
# ---------------------------------------------------------------------------

REDUCED_MODES = ("pencil", "fiber", "pair", "subspace")
TALL_GRID = [(q, n, k) for q in (2, 3, 4) for n in range(2, 13)
             for k in range(1, n) if q ** (n * k) <= 2 ** 12]


@pytest.mark.parametrize("q,n,k", TALL_GRID)
def test_orbit_reduction_equals_full_enumeration(q, n, k):
    f = cfg(q).field()
    for mode in REDUCED_MODES:
        bases = echelon_subspaces(f, k) if mode == "subspace" else [None]
        for basis in bases:
            small = cfg(q, n, k, mode=mode, subspace=basis)
            full = _walk(small, getattr(oracle, f"_{mode}_key"))
            assert run(small).entries == full, (mode, basis)


# subspace mode on fields past TALL_GRID's: GF(5) with the zero space, a
# line off the axes, an axis and the plane, and the odd-extension field GF(9)
# with every basis
@pytest.mark.parametrize("q,n,k,basis", [
    *((5, 3, 2, basis) for basis in ((), ((1, 2),), ((0, 1),),
                                     ((1, 0), (0, 1)))),
    *((9, n, 1, basis) for n in (3, 4)
      for basis in echelon_subspaces(field_new(3, 2), 1))])
def test_subspace_reduction_equals_full_enumeration_on_more_fields(q, n, k,
                                                                  basis):
    small = cfg(q, n, k, mode="subspace", subspace=basis)
    full = _walk(small, oracle._subspace_key)
    assert run(small).entries == full


def test_orbit_reduction_report_is_independent_of_workers():
    # 16 top blocks A split over 3 workers: chunks of 5, 5 and 6 blocks
    for mode in REDUCED_MODES:
        small = cfg(n=4, k=2, mode=mode, subspace=((1, 0),))
        assert run(small._replace(workers=3)).to_json() == run(small).to_json()


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_row_space_weights_count_every_bottom_block(q):
    f = parse_field_spec(str(q))
    for k in range(1, 4):
        for rows in range(1, 4):
            n = k + rows
            # the C != 0, each matrix once, with no GL_k search: rows of C
            # e_(k-r+1)..e_k, then zero rows, and A zero in its last r columns
            listed = _tall_list(f, n, k, range(1, min(rows, k) + 1))
            assert sum(w for _, w in listed) == q ** (n * k) - q ** (k * k)
            for b, _ in listed:
                c = b[k:]
                r = sum(1 for row in c if any(row))
                assert c == tuple(tuple(int(i < r and j == k - r + i)
                                        for j in range(k))
                                  for i in range(rows))
                assert not any(row[j] for row in b[:k]
                               for j in range(k - r, k))


def test_a_wrong_weight_fails_the_total_check(monkeypatch, capsys):
    # an off-by-one weight in the list at (2, 1), one level below the walk
    # at (3, 2), which stacks it for r = 1: pencil mode's total catches it,
    # and the closed form subspace mode's, whose walk takes r = 1 alone
    exact = _tall_list

    def off_by_one(f, n, k, ranks=None):
        (entries, weight), *rest = exact(f, n, k, ranks)
        return [(entries, weight + ((n, k) == (2, 1))), *rest]

    argv = ["verify", "--q", "2", "--n", "3", "--k", "2", "--mode", "subspace",
            "--subspace", "[[0,1]]", "--format", "json"]
    assert cli_main(argv) == 0
    monkeypatch.setattr(oracle, "_tall_list", off_by_one)
    with pytest.raises(ExactnessError, match="tallied"):
        run(cfg(n=3, k=2))
    capsys.readouterr()
    assert cli_main(argv) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] is False


def test_a_subspace_count_the_subspaces_do_not_share_raises(monkeypatch):
    # one more on the first weight of the walk's top level, which only
    # subspace mode builds with ``ranks``: at (3, 2) with d = 1 every other
    # weight is a multiple of the 3 lines of F_2^2
    exact = _tall_list

    def plus_one(f, n, k, ranks=None):
        (entries, weight), *rest = exact(f, n, k, ranks)
        return [(entries, weight + (ranks is not None)), *rest]

    monkeypatch.setattr(oracle, "_tall_list", plus_one)
    with pytest.raises(ExactnessError, match="not shared by 3 subspaces"):
        run(cfg(n=3, k=2, mode="subspace", subspace=((1, 1),)))


@pytest.mark.parametrize("n,mode,subspace,charge", [
    (3, "pencil", None, 16),  # the 16 blocks of the GL_2 search
    (2, "pencil", None, 16),
    (3, "subspace", ((1, 0),), 2),  # d = 1: r = 1 alone, GL_1 one level down
    (3, "nilext", None, 128),  # times 2^(n(n-k)) completions per block
], ids=["tall", "square", "subspace", "nilext"])
def test_budget_charges_the_largest_class_search(n, mode, subspace, charge):
    small = cfg(n=n, k=2, mode=mode, subspace=subspace)
    run(small._replace(budget=charge))
    with pytest.raises(BudgetExceededError, match=f"needs at least {charge} "):
        run(small._replace(budget=charge - 1))


# Every mode on shapes up to q = 4 and q^(k^2) <= 2^12, subspaces of every
# dimension: the budget's exponent, less nilext's n(n-k), is the j^2 of the
# largest GL_j search the walk runs, or no search runs, where the walk takes
# r >= 1 alone: at n = k with d < k (no representative at all), and at k = 1
# with d = 0 (the empty block, one level down).
@pytest.mark.parametrize("q", [2, 3, 4])
def test_the_budget_exponent_is_the_largest_class_search(q, monkeypatch):
    f = cfg(q).field()
    exact = _similarity_classes.__wrapped__
    searched = []
    monkeypatch.setattr(oracle, "_similarity_classes",
                        lambda p, m, k: searched.append(k) or exact(p, m, k))
    for k in (k for k in range(1, 4) if q ** (k * k) <= 2 ** 12):
        for n, mode in itertools.product(range(k, k + 3), MODES):
            if n == k and MODE_TABLE[mode].tall:
                continue
            bases = echelon_subspaces(f, k) if mode == "subspace" else [None]
            for basis in bases:
                _, small, _ = oracle._resolve(cfg(q, n, k, mode=mode,
                                                  subspace=basis), budget=True)
                searched.clear()
                oracle._representatives.cache_clear()
                oracle._representatives(small)
                exponent = MODE_TABLE[mode].cost(small)
                if mode == "nilext":
                    exponent -= n * (n - k)
                case = (n, k, mode, basis)
                if mode == "subspace" and len(basis) < k and k in (1, n):
                    assert searched == [], case
                else:
                    assert exponent == max(searched) ** 2, case


def test_a_search_past_what_a_move_table_indexes_is_refused_at_any_budget():
    # 2^36 blocks are within a budget of 10^11 but past the 2^32 indices of
    # an array("I") entry; the search itself is never run here, as its
    # tables would take tens of GB.  nilext's completions are not blocks.
    with pytest.raises(BudgetExceededError, match="past the 2\\^32"):
        oracle._resolve(cfg(2, 6, 6, budget=10 ** 11), budget=True)
    oracle._resolve(cfg(2, 5, 5, budget=10 ** 11), budget=True)
    oracle._resolve(cfg(2, 8, 5, mode="nilext", budget=1 << 49), budget=True)
    assert MODE_TABLE["nilext"].cost(cfg(2, 8, 5, mode="nilext")) == 49


def test_a_tall_shape_is_charged_its_class_search_alone():
    # the 5^9 blocks of the GL_3 search fit the default budget, whatever the
    # 63 row spaces of C; the shape takes seconds to run, so it is resolved
    oracle._resolve(cfg(5, 5, 3), budget=True)


def test_subspace_mode_is_charged_one_level_down(capsys):
    # d = 1 < k: the largest search is GL_3, 3^9 blocks, not GL_4's 3^16
    assert cli_main(["verify", "--q", "3", "--n", "5", "--k", "4", "--mode",
                     "subspace", "--subspace", "[[1,0,0,0]]"]) == 0
    assert "all 3 keys match" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# square shapes: one representative per similarity class, weighted
# ---------------------------------------------------------------------------

SQUARE_GRID = [(q, k) for q in (2, 3, 4, 5, 7, 8) for k in range(1, 5)
               if q ** (k * k) <= 2 ** 12]


def square_cases(k):
    identity = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    return (("pencil", None), ("fiber", None),
            ("subspace", identity), ("subspace", ()))


@pytest.mark.parametrize("q,k", SQUARE_GRID)
def test_similarity_classes_equal_full_enumeration(q, k):
    for mode, basis in square_cases(k):
        small = cfg(q, k, k, mode=mode, subspace=basis)
        full = _walk(small, getattr(oracle, f"_{mode}_key"))
        assert run(small).entries == full, (mode, basis)


# the odd-extension field GF(9), 6561 matrices, in pencil mode alone
@pytest.mark.parametrize("q,k", [(9, 2)])
def test_odd_extension_classes_equal_full_enumeration(q, k):
    small = cfg(q, k, k)
    full = _walk(small, oracle._pencil_key)
    assert run(small).entries == full


# prime, characteristic-2 extension and odd-extension fields, up to 2^16
# matrices: (2, 4), (3, 3), (4, 2) and (9, 2) among them
@pytest.mark.parametrize("q,k", [(q, k) for q in (2, 3, 4, 5, 7, 8, 9)
                                 for k in range(1, 5) if q ** (k * k) <= 2 ** 16])
def test_similarity_classes_equal_the_move_by_move_search(q, k):
    f = parse_field_spec(str(q))
    assert _similarity_classes(f.p, f.m, k) == \
        similarity_classes_by_moves(f.p, f.m, k)


# the k x (k-r) blocks X under X -> P*X*P11^-1, the P that fix
# U_0 = span(e_(k-r+1)..e_k): the list at shape (k, k-r), built by recursion,
# holds one X per orbit of the whole group, weighted by the orbit's size,
# wherever the group has at most 3^7 candidates
@pytest.mark.parametrize("q,k,r", [
    (q, k, r) for q in (2, 3, 4, 5, 9) for k in (2, 3, 4) for r in range(1, k)
    if q ** sum(i < k - r or j >= k - r for i in range(k)
                for j in range(k)) <= 3 ** 7])
def test_top_block_orbits_equal_those_of_the_whole_group(q, k, r):
    f = parse_field_spec(str(q))
    orbit = block_classes_by_group(f.p, f.m, k, r)
    found = [(orbit[sum(v * q ** i for i, v in
                        enumerate(itertools.chain.from_iterable(x)))], w)
             for x, w in _tall_list(f, k, k - r)]
    assert sorted(leader for (leader, _), _ in found) == \
        sorted(set(leader for leader, _ in orbit.values()))
    assert all(size == w for (_, size), w in found)


# Every GL_k search at a k with q^(k^2) <= 2^16, the leaves of every list.
PINNED_SEARCHES = [(p, m, k)
                   for p, m in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                (2, 3), (3, 2))
                   for k in range(1, 5) if p ** (m * k * k) <= 2 ** 16]


def test_similarity_classes_are_byte_identical_to_their_pinned_digest():
    # the SHA-256 of the (leader, size) tuples of every pinned search: the
    # tests above compare some of these searches with the references, this
    # pins them all, so a faster search returns the same tuples in order
    digest = hashlib.sha256()
    blocks = 0
    for shape in PINNED_SEARCHES:
        classes = _similarity_classes.__wrapped__(*shape)
        blocks += sum(size for _, size in classes)
        digest.update(repr((shape, classes)).encode())
    assert (len(PINNED_SEARCHES), blocks) == (17, 99805)
    assert digest.hexdigest() == \
        "8e0e338e108fc84f474857c6064c8327904ebec23288c3b4a62be702f9083faf"


def test_a_search_past_two_byte_indices_is_byte_identical_to_its_digest():
    # the 83,521 blocks of GL_2 over GF(17): indices past 2^16, so a move
    # table's entries need more than two bytes each, in the machine's order
    classes = _similarity_classes.__wrapped__(17, 1, 2)
    assert (len(classes), sum(size for _, size in classes)) == (306, 83521)
    assert hashlib.sha256(repr(((17, 1, 2), classes)).encode()).hexdigest() \
        == "7e2e55cf16e91855f43a740ad05a4080481b6c8cbc828e5214a4167032fed7bc"


# Orbits of the two moves lie inside similarity classes, and each class has
# one pencil key, so as many orbits as closed-form keys means the moves
# reach whole classes: at every pinned search and past two-byte indices.
@pytest.mark.parametrize("p,m,k", PINNED_SEARCHES + [(17, 1, 2)])
def test_the_two_moves_reach_whole_classes(p, m, k):
    assert len(_similarity_classes(p, m, k)) == \
        len(pencil_census(field_new(p, m), k, k).entries)


# The search holds one 8-byte list slot per block it searches, its visit
# mark, and one 4-byte array entry per block and move: about 17-20 bytes per
# block at its peak.  While a move table is built, its entries so far are one
# int and each next slice one bytes object; whole tables held as Python lists
# would take about 50 bytes per block.  Prime fields, characteristic 2 and an
# odd-characteristic extension.
@pytest.mark.parametrize("p,m,k", [(2, 1, 4), (3, 1, 3), (2, 4, 2),
                                   (3, 2, 2), (13, 1, 2), (17, 1, 2)])
def test_the_class_search_holds_at_most_32_bytes_per_block(p, m, k):
    field_new(p, m)  # the field's own tables are not the search's
    tracemalloc.start()
    try:
        _similarity_classes.__wrapped__(p, m, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * p ** (m * k * k)


def test_similarity_class_report_is_independent_of_workers(monkeypatch):
    # the 14 classes of 3 x 3 matrices over GF(2) on 3 workers: chunks of 4,
    # 5 and 5 classes
    for mode, basis in square_cases(3):
        small = cfg(2, 3, 3, mode=mode, subspace=basis)
        assert run(small._replace(workers=3)).to_json() == run(small).to_json()
    # with as many workers as representatives, each chunk keys one list
    # position and tallies its weight exactly; a square shape's
    # representatives are its classes, weighted by the class sizes
    monkeypatch.setattr(oracle, "_pool_size", lambda workers, n: 1)
    sizes = [size for _, size in _similarity_classes(2, 1, 2)]
    for n in (2, 3):
        small = cfg(2, n, 2)
        weights = [w for _, w in oracle._representatives(small)]
        assert n > 2 or weights == sizes
        parts = []
        oracle._execute(small._replace(workers=len(weights)), lambda args:
                        parts.append(oracle._pencil_chunk(args)) or {})
        assert oracle._merge(parts) == run(small).entries
        assert [sum(part.values()) for part in parts] == weights


# Tall shapes too: the chunks' shares of the q^(nk) matrices are contiguous
# and cover them, and the runs of list positions they stand for cover the
# list with lengths within one; at n = k the list holds the similarity
# classes in leader order.
@pytest.mark.parametrize("q,n,k", [pytest.param(2, 3, 3, id="2-3"),
                                   pytest.param(3, 3, 3, id="3-3"),
                                   pytest.param(2, 4, 4, id="2-4"),
                                   (2, 4, 2), (3, 3, 2)])
def test_square_chunks_hold_even_shares_of_the_classes(q, n, k, monkeypatch):
    small = cfg(q, n, k, workers=3)
    chunks = []
    monkeypatch.setattr(oracle, "_pool_size", lambda workers, n: 1)
    oracle._execute(small, lambda args: chunks.append(args[1:]) or {})
    reps = oracle._representatives(small)
    leaders = [_digits_of(a, q, k * k)
               for a, _ in _similarity_classes(small.p, small.m, k)]
    assert n > k or [b for b, _ in reps] == [
        tuple(tuple(d[i:i + k]) for i in range(0, k * k, k)) for d in leaders]
    total = q ** (n * k)
    runs = [hi * len(reps) // total - lo * len(reps) // total
            for lo, hi in chunks]
    assert chunks[0][0] == 0 and chunks[-1][1] == total
    assert all(hi == lo for (_, hi), (lo, _) in zip(chunks, chunks[1:]))
    assert len(runs) == 3 and sum(runs) == len(reps)
    assert max(runs) - min(runs) <= 1


def test_parent_searches_the_classes_before_the_pool_forks():
    # square: one search, GL_2; tall: GL_2 for r = 0 and GL_1 one level down,
    # in the list at (2, 1) for r = 1
    for n, searches in ((2, 1), (3, 2)):
        _similarity_classes.cache_clear()
        run(cfg(3, n, 2, workers=2))
        info = _similarity_classes.cache_info()
        assert (info.misses, info.currsize) == (searches, searches), n
        info = oracle._representatives.cache_info()
        assert (info.misses, info.currsize) == (1, 1), n


def test_the_subspace_list_is_built_once_per_run(monkeypatch):
    # subspace mode with d = 1 walks r = 1 alone: GL_1 searched by the parent
    # in the list at (2, 1), and the list built once; each of 3 chunks takes
    # it from the cache
    monkeypatch.setattr(oracle, "_pool_size", lambda workers, n: 1)
    _similarity_classes.cache_clear()
    run(cfg(3, 3, 2, mode="subspace", subspace=((1, 2),), workers=3))
    info = _similarity_classes.cache_info()
    assert (info.misses, info.hits) == (1, 0)
    info = oracle._representatives.cache_info()
    assert (info.misses, info.hits) == (1, 3)


@pytest.mark.parametrize("q,k", SQUARE_GRID + [(2, 4), (3, 3), (9, 2)])
def test_similarity_classes_partition_the_square_matrices(q, k):
    f = parse_field_spec(str(q))
    classes = _similarity_classes(f.p, f.m, k)
    assert sum(size for _, size in classes) == q ** (k * k)
    # Invariant factors are a complete similarity invariant, so one pencil
    # key per class means the search reached whole GL_k orbits.
    assert len(classes) == len(run(cfg(q, k, k)).entries)


def test_a_wrong_class_size_fails_the_total_check(monkeypatch):
    exact = _similarity_classes

    def off_by_one(p, m, k):
        (leader, size), *rest = exact(p, m, k)
        return ((leader, size + 1), *rest)

    monkeypatch.setattr(oracle, "_similarity_classes", off_by_one)
    for n in (2, 3):  # square, then tall
        with pytest.raises(ExactnessError, match="tallied"):
            run(cfg(n=n, k=2))


def test_a_wrong_class_size_one_level_down_fails_verify(monkeypatch, capsys):
    # subspace mode tallies only part of the matrices, so no total watches
    # its class sizes, here those of GL_1 in the list at (2, 1) that the walk
    # at (3, 2) stacks for r = 1: the closed form must
    exact = _similarity_classes

    def off_by_one(p, m, k):
        (leader, size), *rest = exact(p, m, k)
        return ((leader, size + 1), *rest)

    argv = ["verify", "--q", "2", "--n", "3", "--k", "2", "--mode", "subspace",
            "--subspace", "[[1,0]]", "--format", "json"]
    assert cli_main(argv) == 0
    monkeypatch.setattr(oracle, "_similarity_classes", off_by_one)
    capsys.readouterr()
    assert cli_main(argv) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] is False


# (q, n, k), then the keys classified: for each dimension r of the row
# space of C, one top block per orbit of A modulo the matrices with rows in
# U_0 = span(e_(k-r+1)..e_k), under the P that fix U_0.  At q = 2 that is
# 6 similarity classes (r = 0), 3 orbits of the 2 x 1 first columns (r = 1)
# and the zero block (r = 2), where one per class and row space was 6 x 5;
# at q = 3, 12 + 4 instead of 12 x 5.  Subspace mode with d = 1 walks r = 1
# alone: 3 (q = 2) and 4 (q = 3) orbits.
@pytest.mark.parametrize("q,n,k,classes,lines", [(2, 4, 2, 10, 3),
                                                 (3, 3, 2, 16, 4)])
def test_a_tall_walk_classifies_one_top_block_per_class(q, n, k, classes,
                                                         lines, monkeypatch):
    for mode in MODES:
        calls = []
        exact = getattr(oracle, f"_{mode}_key")
        monkeypatch.setattr(oracle, f"_{mode}_key", lambda *a, exact=exact,
                            calls=calls: calls.append(1) or exact(*a))
        run(cfg(q, n, k, mode=mode, subspace=((1, 0),)))
        assert len(calls) == (lines if mode == "subspace" else classes), mode


# No tall walk classifies more than one top block per similarity class
# times the row spaces of C, the walk before the R block of g was used.
@pytest.mark.parametrize("q,n,k", TALL_GRID)
def test_no_tall_walk_classifies_more_than_classes_times_row_spaces(
        q, n, k, monkeypatch):
    f = cfg(q).field()
    spaces = sum(1 for u in echelon_subspaces(f, k) if len(u) <= n - k)
    classes = _similarity_classes(f.p, f.m, k)
    for mode in REDUCED_MODES:
        basis = ((1,) + (0,) * (k - 1),) if mode == "subspace" else None
        calls = []
        exact = getattr(oracle, f"_{mode}_key")
        monkeypatch.setattr(oracle, f"_{mode}_key", lambda *a, exact=exact,
                            calls=calls: calls.append(1) or exact(*a))
        run(cfg(q, n, k, mode=mode, subspace=basis))
        assert len(calls) <= len(classes) * spaces, mode


def test_a_tall_key_drops_the_zero_rows_below_k(monkeypatch):
    # C_0 pads the r rows of its basis with n - k - r zero rows, which are
    # zero rows of the pencil and change no invariant factor, and its basis
    # rows are cleared by the kernel of C_0: at (2, 40, 2) every Smith form
    # gets the k rows of A's pencil, not 40
    exact = smith.snf
    rows = []
    monkeypatch.setattr(smith, "snf",
                        lambda field, m, **fresh: rows.append(len(m))
                        or exact(field, m, **fresh))
    small = cfg(2, 40, 2)
    assert verify(closed_form(small), run(small)).verdict
    assert set(rows) == {small.k}


@pytest.mark.parametrize("q,n,k,keys", [(3, 3, 3, 39), (9, 2, 2, 90)])
def test_each_pencil_key_calls_smith_snf_once(monkeypatch, q, n, k, keys):
    # perfbench's tracer counts Smith forms by patching smith.snf, so every
    # key, one per representative, reaches it through smith's module global
    exact = smith.snf
    calls = []
    monkeypatch.setattr(smith, "snf", lambda field, m, **fresh:
                        calls.append(m) or exact(field, m, **fresh))
    assert len(run(cfg(q, n, k, mode="pencil")).entries) == keys
    assert len(calls) == keys


def test_the_oracle_reads_from_census_only_the_report_and_the_builders():
    # The enumeration is independent of the closed form only while its
    # weights share no helper with it: a weight that reused
    # census._q_product, gl_order or q_binomial would cancel a mutant there
    # on both sides.  So oracle imports from census only the report's names,
    # and reads the module itself only in closed_form's getattr of a
    # "<mode>_census" builder.
    with open(oracle.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any("census" in a.name.split(".") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = {(a.name, a.asname) for a in node.names}
            if (node.module or "").split(".")[-1] == "census":
                assert names <= {("CensusReport", None),
                                 ("compact_json", None), ("make_params", None)}
            elif any("census" in (a.name, a.asname) for a in node.names):
                assert (node.level, node.module, names) == (
                    1, None, {("census", None)})
    reads = {id(node) for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "census"}
    closed = next(node for node in tree.body if isinstance(
        node, ast.FunctionDef) and node.name == "closed_form")
    builders = {id(node.args[0]) for node in ast.walk(closed)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "getattr"
                and isinstance(node.args[1], ast.JoinedStr)
                and node.args[1].values[-1].value == "_census"}
    assert reads and reads == builders


def _cli_choices(command, dest):
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    return next(a.choices for a in sub.choices[command]._actions
                if a.dest == dest)


@pytest.mark.parametrize("mode", MODES)
def test_mode_table_agrees_with_its_copies(mode):
    basis = ((1,),) if MODE_TABLE[mode].subspace else None
    small = cfg(n=2, k=1, mode=mode, subspace=basis)  # pair mode needs k < n
    assert verify(closed_form(small), run(small)).verdict
    assert run(small._replace(workers=2)).to_json() == run(small).to_json()
    for command in ("enumerate", "verify"):
        assert tuple(_cli_choices(command, "mode")) == MODES
    schema = json.loads(res.files("pencilcensus.schemas").joinpath(
        "census_report.schema.json").read_text())
    assert tuple(schema["properties"]["parameters"]["properties"]["mode"]
                 ["enum"]) == MODES


def test_pool_size_is_clamped_to_cpus_and_chunks():
    cpus = os.cpu_count() or 1
    assert _pool_size(10 ** 6, 10 ** 6) == cpus
    assert _pool_size(10 ** 6, 3) == min(3, cpus)
    assert _pool_size(4, 1) == 1
    assert _pool_size(1, 50) == 1


def _raises_exactness_error_under_optimize(patch, config):
    # runs ``patch``, then oracle.run on ``config``, in a python -O process
    code = (
        "import sys\n"
        "from pencilcensus import oracle\n"
        "from pencilcensus.errors import ExactnessError\n"
        "assert False, 'asserts are on'\n"
        f"{patch}\n"
        "try:\n"
        f"    oracle.run(oracle.EnumConfig({config}))\n"
        "except ExactnessError:\n"
        "    sys.exit(0)\n"
        "sys.exit(3)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_total_check_raises_under_optimize():
    # An enumeration that loses a matrix must fail even where asserts are off.
    _raises_exactness_error_under_optimize(
        "oracle._execute = lambda cfg, fn: "
        "{'1|x': cfg.q ** (cfg.n * cfg.k) - 1}",
        "p=2, m=1, n=2, k=2")


def test_share_check_raises_under_optimize():
    # So must a subspace count that its subspaces do not share: the first
    # weight of the top level one more, as in
    # test_a_subspace_count_the_subspaces_do_not_share_raises
    _raises_exactness_error_under_optimize(
        "exact = oracle._tall_list\n"
        "def plus_one(f, n, k, ranks=None):\n"
        "    (entries, weight), *rest = exact(f, n, k, ranks)\n"
        "    return [(entries, weight + (ranks is not None)), *rest]\n"
        "oracle._tall_list = plus_one",
        "p=2, m=1, n=3, k=2, mode='subspace', subspace=((1, 1),)")


def test_verify_identical_reports():
    a = pencil_census(F2, 3, 2)
    diff = verify(a, run(cfg()))
    assert diff.verdict and not diff.mismatches()
    assert diff.summary().startswith("all ")


def test_verify_flags_missing_and_extra_keys():
    base = pencil_census(F2, 3, 2)
    mutated = CensusReport(dict(base.parameters),
                           dict(base.entries), source="enumerated")
    mutated.entries.pop("x|x")
    mutated.entries["bogus"] = 5
    diff = verify(base, mutated)
    assert not diff.verdict
    bad_keys = {row.key for row in diff.mismatches()}
    assert bad_keys == {"x|x", "bogus"}


def test_verify_rejects_parameter_mismatch():
    with pytest.raises(ParamMismatchError):
        verify(pencil_census(F2, 3, 2), run(cfg(n=4, k=2)))
    with pytest.raises(ParamMismatchError):
        verify(pair_census(F2, 2, 3), run(cfg()))


def test_diff_report_json_shape():
    import json
    diff = verify(pencil_census(F2, 3, 2), run(cfg()))
    data = json.loads(diff.to_json())
    assert data["schema"] == "diff-report/v1"
    assert data["verdict"] is True
    assert set(data["rows"]) == set(pencil_census(F2, 3, 2).entries)


# ---------------------------------------------------------------------------
# committed mutants: each must fail a check on its smallest grid
# ---------------------------------------------------------------------------

def source_mutant(module, name, old, new):
    """``module.<name>`` compiled afresh from its source with ``old``, which
    must occur there once, replaced by ``new``.  It runs in a copy of the
    module's globals where its own name is the mutant, so a recursive
    function recurses into the mutant."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[name]


def fails_verify(small):
    try:
        return not verify(closed_form(small), run(small)).verdict
    except ExactnessError:
        return True


# Each mutant of the exact code, with the smallest grid it fails on
SOURCE_MUTANTS = [
    # the count cache keyed by d alone: each chain of degree 2 gets the
    # count of the first
    (census_mod, "_visit", "key = d, blocks", "key = d", cfg(2, 2, 2)),
    # the irreducible loop starting one past start: no key holds x
    (census_mod, "_visit", "range(start, len(degrees))",
     "range(start + 1, len(degrees))", cfg(2, 1, 1)),
    # the certificate raising A to dim M - 1: A = 0 on M = F^1 is refused
    (oracle, "_negative_certificate", "len(basis) + 1", "len(basis)",
     cfg(2, 1, 1, mode="nilext")),
    # the leader left unmarked before its visits: each orbit comes back to
    # it, so each class counts its leader twice, a fixed scalar one at once
    (oracle, "_similarity_classes", "seen[leader] = True", "pass",
     cfg(2, 2, 2)),
    # a k = 2 transvection slice without row 1's own image: the move's
    # orbits leave the classes
    (oracle, "_similarity_classes", " + col[1][j] * ones", "", cfg(2, 2, 2)),
]


def test_each_committed_mutant_fails(monkeypatch):
    for module, name, old, new, small in SOURCE_MUTANTS:
        assert not fails_verify(small)
        with monkeypatch.context() as patch:
            patch.setattr(module, name, source_mutant(module, name, old, new))
            assert fails_verify(small), (name, new)
    # a skipped certificate leaves every count right, since the scan then
    # decides the negatives too, but makes them call rows_mul
    assert scanned_negatives(NILEXT_SCAN_SHAPES) == ([], 35)
    monkeypatch.setattr(oracle, "_negative_certificate", lambda *args: False)
    assert not fails_verify(cfg(2, 4, 2, mode="nilext"))
    assert scanned_negatives(NILEXT_SCAN_SHAPES)[0]
