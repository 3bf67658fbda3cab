"""Acceptance suite: every closed-form census against brute-force enumeration.

Each test covers one exit criterion on its full stated grid, with exact
integer comparisons (zero tolerance), and prints one pass/fail line.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the lines and timings.
"""

import random
import time
from contextlib import contextmanager

from pencilcensus.census import (
    check_q_identity,
    count_char_poly_rect,
    count_char_poly_square,
    count_given_u,
    count_invariant_factors,
    count_nilpotent_extendable,
    count_with_subspace,
    fiber_census,
    pair_census,
    pencil_census,
)
from pencilcensus.gf import echelon_subspaces, parse_field_spec
from pencilcensus.oracle import (
    EnumConfig,
    run,
    verify,
)
from pencilcensus.polyring import (coeffs_divmod, coeffs_mul, coeffs_text,
                                   monic_tuples)
from pencilcensus.smith import InvariantFactorTuple, det_divisor, pencil_matrix, snf

from reference import invariant_factor_tuples

PENCIL_GRID = [(2, 2, 1), (2, 2, 2), (2, 3, 2), (2, 4, 3),
               (3, 2, 2), (3, 3, 2), (4, 3, 2), (5, 2, 2)]
# Characteristic-2 and odd-characteristic extension fields.
EXTENSION_GRID = [(8, 2, 2), (9, 2, 1), (9, 2, 2)]


def field(q):
    return parse_field_spec(str(q))


def config(q, n, k, **kw):
    f = field(q)
    return EnumConfig(p=f.p, m=f.m, n=n, k=k, **kw)


@contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label} "
          f"({time.perf_counter() - start:.1f}s)")


def test_criterion_1_pencil_census_equivalence():
    with criterion(1, "pencil censuses match the closed form on the full grid"):
        for q, n, k in PENCIL_GRID:
            observed = run(config(q, n, k))
            expected = pencil_census(field(q), n, k)
            diff = verify(expected, observed)
            assert diff.verdict, f"(q={q},n={n},k={k}): {diff.summary()}"
            assert observed.total() == q ** (n * k)


def test_criterion_1_extension_fields():
    with criterion(1, "pencil and fiber censuses match over GF(8) and GF(9)"):
        modes = (("pencil", pencil_census), ("fiber", fiber_census))
        for q, n, k in EXTENSION_GRID:
            for mode, closed_form in modes:
                observed = run(config(q, n, k, mode=mode))
                expected = closed_form(field(q), n, k)
                diff = verify(expected, observed)
                assert diff.verdict, \
                    f"{closed_form.__name__} (q={q},n={n},k={k}): " \
                    f"{diff.summary()}"
                assert observed.total() == q ** (n * k)


def test_criterion_2_conjugacy_class_sizes():
    with criterion(2, "similarity-class sizes match the square enumeration"):
        for q in (2, 3):
            for n in (2, 3):
                f = field(q)
                observed = run(config(q, n, n))
                expected = {}
                for ifs in invariant_factor_tuples(f, n):
                    size = count_invariant_factors(n, n, ifs)
                    if size:
                        expected[str(ifs)] = size
                assert expected == observed.entries, f"(q={q}, n={n})"
                assert sum(expected.values()) == q ** (n * n)


def test_criterion_3_fixed_subspace_counts():
    with criterion(3, "fixed-subspace censuses match per tuple and in total"):
        q = 2
        f = field(q)
        for n, k in ((3, 2), (4, 3)):
            per_dim_entries = {}
            for basis in echelon_subspaces(f, k):
                d = len(basis)
                observed = run(
                    config(q, n, k, mode="subspace", subspace=basis))
                for key, tally in observed.entries.items():
                    ifs = InvariantFactorTuple.parse(key, f)
                    assert tally == count_with_subspace(n, k, d, ifs), \
                        f"(n={n},k={k}) U={basis} tuple {key}"
                assert observed.total() == count_given_u(n, k, d, q), \
                    f"(n={n},k={k}) U={basis} total"
                frozen = tuple(sorted(observed.entries.items()))
                per_dim_entries.setdefault(d, set()).add(frozen)
            for d, censuses in per_dim_entries.items():
                assert len(censuses) == 1, \
                    f"(n={n},k={k}) censuses differ across {d}-dim subspaces"


def test_criterion_4_reachability_distribution():
    with criterion(4, "reachability-rank distribution matches the closed form"):
        grid = [(2, 1, 2), (2, 2, 3), (3, 1, 2), (3, 2, 3), (2, 3, 5)]
        for q, k, n in grid:
            observed = run(config(q, n, k, mode="pair"))
            expected = pair_census(field(q), k, n)
            assert verify(expected, observed).verdict, f"(q={q},k={k},n={n})"
            assert observed.total() == q ** (k * n)
            reachable = 1
            for i in range(1, k + 1):
                reachable *= q ** n - q ** i
            assert observed.entries[str(k)] == reachable


def test_criterion_5_square_char_poly_fibers():
    with criterion(5, "square characteristic-polynomial fibers match"):
        q = 2
        f = field(q)
        for n in (2, 3, 4):
            observed = run(config(q, n, n, mode="fiber"))
            monics = [coeffs_text(f, p) for p in monic_tuples(f, n)]
            assert len(monics) == 2 ** n
            assert set(observed.entries) <= set(monics)
            for p, text in zip(monic_tuples(f, n), monics):
                assert observed.entries.get(text, 0) == \
                    count_char_poly_square(f, p), f"n={n}, f={text}"
            xn = coeffs_text(f, (0,) * n + (1,))
            assert observed.entries[xn] == q ** (n * (n - 1))


def test_criterion_6_rectangular_fibers():
    with criterion(6, "rectangular fiber counts match the extended formula"):
        q = 2
        f = field(q)
        for n, k in ((3, 2), (4, 3)):
            observed = run(config(q, n, k, mode="fiber"))
            expected = fiber_census(f, n, k)
            assert verify(expected, observed).verdict, f"(n={n},k={k})"
            for d in range(k + 1):
                for p in monic_tuples(f, d):
                    text = coeffs_text(f, p)
                    assert observed.entries.get(text, 0) == \
                        count_char_poly_rect(f, p, n, k), \
                        f"(n={n},k={k}) f={text}"
            reachable = 1
            for i in range(1, k + 1):
                reachable *= q ** n - q ** i
            assert observed.entries["1"] == reachable


def test_criterion_7_nilpotent_extendability():
    with criterion(7, "nilpotent extendability counts agree on all routes"):
        q = 2
        f = field(q)
        expected_values = {(2, 1): 3, (2, 2): 4, (3, 2): 40}
        for (n, k), value in expected_values.items():
            # completion search (asserting the divisibility criterion per
            # matrix internally)
            searched = run(
                config(q, n, k, mode="nilext")).entries["extendable"]
            # sum of x-power fibers
            fiber_sum = sum(
                count_char_poly_rect(f, (0,) * l + (1,), n, k)
                for l in range(k + 1))
            closed = count_nilpotent_extendable(k, n, q)
            assert searched == fiber_sum == closed == value, f"(n={n},k={k})"


def test_criterion_8_power_expansion_identity():
    with criterion(8, "power-expansion identity holds on the random grid"):
        rng = random.Random(20240)
        for q in (2, 3, 5):
            for d in range(9):
                for _ in range(100):
                    y = rng.randint(-10 ** 6, 10 ** 6)
                    assert check_q_identity(d, q, y), f"d={d}, q={q}, y={y}"


def test_criterion_9_snf_against_minor_gcds():
    with criterion(9, "gcd-pivot diagonal equals determinantal-divisor "
                      "quotients"):
        rng = random.Random(90125)

        def check(f, b):
            pencil = pencil_matrix(f, b)
            diag = snf(f, pencil)
            prev = (1,)
            for i, p in enumerate(diag, start=1):
                assert p and p[-1] == 1
                delta = det_divisor(f, pencil, i)
                assert delta == coeffs_mul(f, prev, p), \
                    f"delta_{i} mismatch at {b!r}"
                prev = delta
            for a, b2 in zip(diag, diag[1:]):
                assert not coeffs_divmod(f, b2, a)[1]

        for q, n, k in PENCIL_GRID:
            f = field(q)
            total = q ** (n * k)
            assert total <= 2 ** 12  # exhaustive part of the criterion
            for index in range(total):
                entries = []
                v = index
                for _ in range(n * k):
                    v, digit = divmod(v, q)
                    entries.append(digit)
                check(f, [entries[i:i + k] for i in range(0, n * k, k)])
            for _ in range(1000):
                check(f, [[rng.randrange(q) for _ in range(k)]
                          for _ in range(n)])


def test_criterion_10_determinism_across_worker_counts():
    with criterion(10, "criterion-1 reports are byte-identical for 1 and 4 "
                       "workers"):
        for q, n, k in PENCIL_GRID:
            serial = run(config(q, n, k, workers=1))
            parallel = run(config(q, n, k, workers=4))
            assert serial.to_json() == parallel.to_json(), f"(q={q},n={n},k={k})"
