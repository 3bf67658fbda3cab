import argparse
import ast
import json
import math
import os
import random
import shlex
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pencilcensus import census, cli, gf, oracle
from pencilcensus.cli import FORMULAS, build_parser, main
from pencilcensus.gf import FieldCtx, parse_field_spec
from pencilcensus.polyring import (Factorization, Poly, coeffs_text,
                                   monic_tuples)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_count_reach_example(capsys):
    code, out = run_cli(capsys, "count", "--formula", "reach",
                        "--q", "2", "--k", "3", "--n", "5", "--r", "3")
    assert code == 0
    assert out.strip() == "20160"


def test_count_json_is_schema_valid_and_stable(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as res
    args = ("count", "--formula", "gr", "--q", "2", "--poly", "x^4",
            "--format", "json")
    code, out1 = run_cli(capsys, *args)
    assert code == 0
    data = json.loads(out1)
    assert data["value"] == str(2 ** 12)
    schema = json.loads(res.files("pencilcensus.schemas").joinpath(
        "count_result.schema.json").read_text())
    jsonschema.validate(data, schema)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_count_formula_flag_validation(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--formula", "reach", "--q", "2", "--k", "3"])
    assert exc.value.code == 2


# One valid value for every flag any formula needs.
FORMULA_FLAGS = {"n": "3", "k": "2", "d": "1", "r": "1", "tuple": "1|x",
                 "poly": "x^2"}


def test_formula_table_matches_the_choices_and_requires_its_flags(capsys):
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    choices = next(a.choices for a in sub.choices["count"]._actions
                   if a.dest == "formula")
    assert list(choices) == list(FORMULAS)
    for formula, (_, names) in FORMULAS.items():
        # "class" reads n off its tuple: see test_count_class_reads_n_off_the_tuple
        flags = [name for name in names
                 if name not in ("q", "field")
                 and (formula, name) != ("class", "n")]
        assert set(flags) <= set(FORMULA_FLAGS), formula
        argv = ["count", "--formula", formula, "--q", "2"]
        code, _ = run_cli(capsys, *argv, *(
            arg for flag in flags for arg in ("--" + flag, FORMULA_FLAGS[flag])))
        assert code == 0, formula
        for left_out in flags:
            rest = [arg for flag in flags if flag != left_out
                    for arg in ("--" + flag, FORMULA_FLAGS[flag])]
            with pytest.raises(SystemExit) as exc:
                main(argv + rest)
            assert exc.value.code == 2, (formula, left_out)


def test_count_refuses_each_flag_its_formula_does_not_take(capsys):
    for formula, (_, names) in FORMULAS.items():
        flags = [name for name in names
                 if name not in ("q", "field")
                 and (formula, name) != ("class", "n")]
        argv = ["count", "--formula", formula, "--q", "2", *(
            arg for flag in flags for arg in ("--" + flag, FORMULA_FLAGS[flag]))]
        for stray in set(FORMULA_FLAGS) - set(names):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--" + stray, FORMULA_FLAGS[stray]])
            assert exc.value.code == 2, (formula, stray)
            err = capsys.readouterr().err
            assert f"--formula {formula} does not take --{stray}" in err


def test_count_class_and_nilext(capsys):
    code, out = run_cli(capsys, "count", "--formula", "class", "--q", "2",
                        "--tuple", "1|x^2")
    assert (code, out.strip()) == (0, "3")
    code, out = run_cli(capsys, "count", "--formula", "nilext", "--q", "2",
                        "--n", "3", "--k", "2")
    assert (code, out.strip()) == (0, "40")


def test_count_class_reads_n_off_the_tuple(capsys):
    base = ("count", "--formula", "class", "--q", "2", "--tuple", "1|x^2")
    assert run_cli(capsys, *base) == (0, "3\n")
    assert run_cli(capsys, *base, "--n", "2") == (0, "3\n")
    _, out = run_cli(capsys, *base, "--format", "json")
    assert json.loads(out)["parameters"] == {
        "formula": "class", "q": 2, "tuple": "1|x^2", "n": 2}
    with pytest.raises(SystemExit) as exc:
        main([*base, "--n", "3"])
    assert exc.value.code == 2
    assert "does not match" in capsys.readouterr().err
    # a tuple of the wrong degree, or of a tall shape, counts nothing
    for text in ("1|x", "x|x^2", "1|1|x^2"):
        assert run_cli(capsys, "count", "--formula", "class", "--q", "2",
                       "--tuple", text) == (0, "0\n")


def test_every_formula_counts_at_most_q_to_its_digit_limit_exponent(
        capsys, monkeypatch):
    # N, the exponent the digit-limit refusal reads, bounds every count by
    # q^N; where a formula's keys split the whole space of q^N matrices
    # (class, snf, gr, grext, reach), the counts sum to exactly q^N
    exponents = []
    exact = cli._count_exponent
    monkeypatch.setattr(cli, "_count_exponent",
                        lambda given: exponents.append(exact(given))
                        or exponents[-1])

    def counts(q, formula, cases):
        """Each case's count, checked against q^N, and the set of those N."""
        values, exps = [], set()
        for flags in cases:
            argv = [arg for name, v in flags.items()
                    for arg in ("--" + name, str(v))]
            code, out = run_cli(capsys, "count", "--formula", formula,
                                "--q", str(q), *argv)
            assert code == 0, (formula, flags)
            value, exp = int(out), exponents.pop()
            assert value <= q ** exp, (q, formula, flags)
            values.append(value)
            exps.add(exp)
        return values, exps

    def partition(q, formula, cases):
        values, exps = counts(q, formula, cases)
        assert len(exps) == 1 and sum(values) == q ** exps.pop(), (q, formula)

    for q in (2, 3, 4):
        f = parse_field_spec(str(q))
        for n in (1, 2, 3) if q == 2 else (1, 2):
            partition(q, "class", [
                {"tuple": key} for key in census.pencil_census(f, n, n).entries])
        for d in (0, 1, 2, 3) if q == 2 else (0, 1, 2):
            partition(q, "gr", [{"poly": coeffs_text(f, p)}
                                for p in monic_tuples(f, d)])
        for n, k in ((3, 2), (2, 2), (4, 1)):
            shape = {"n": n, "k": k}
            partition(q, "snf", [
                {**shape, "tuple": key}
                for key in census.pencil_census(f, n, k).entries])
            partition(q, "grext", [
                {**shape, "poly": key}
                for key in census.fiber_census(f, n, k).entries])
            if n > k:
                partition(q, "reach", [{**shape, "r": r}
                                       for r in range(k + 1)])
            counts(q, "nilext", [shape])
            for d in range(k + 1):
                counts(q, "givenU", [{**shape, "d": d}])
                counts(q, "subspace", [
                    {**shape, "d": d, "tuple": key}
                    for key in census.subspace_census(f, n, k, d).entries])
    assert exponents == []


@pytest.mark.parametrize("formula,q,n,k,extra", [
    ("reach", "2", 3001, 3000, ["--r", "0"]),
    ("nilext", "65521", 2001, 2000, []),
])
def test_a_count_too_long_to_print_is_refused_before_it_is_computed(
        capsys, formula, q, n, k, extra):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["count", "--formula", formula, "--q", q, "--n", str(n),
              "--k", str(k), *extra])
    assert exc.value.code == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert f"n={n}" in err and f"k={k}" in err and "digit" in err


@pytest.mark.parametrize("formula,argv", [
    ("gr", ["--poly", "x^30+1"]),
    ("class", ["--tuple", "1|" * 29 + "x^30"]),
])
def test_a_square_count_too_long_to_print_names_its_exponent(capsys, formula,
                                                             argv):
    # n = k = 30, read off the polynomial's degree or the tuple's length
    with pytest.raises(SystemExit) as exc:
        main(["count", "--formula", formula, "--q", "65521", *argv])
    assert exc.value.code == 2
    assert "may reach q^900, 4335 digits" in capsys.readouterr().err


def test_a_count_within_the_digit_limit_still_prints(capsys):
    code, out = run_cli(capsys, "count", "--formula", "givenU", "--q", "2",
                        "--n", "200", "--k", "100", "--d", "100")
    assert (code, out.strip()) == (0, str(2 ** 10000))
    assert len(out.strip()) == 3011


# At q = 2, k = 1 a census may print counts near 2^n: within the limit for
# n <= (limit - 1) / log10(2), the bound every refusal uses.
DIGIT_LIMIT = sys.get_int_max_str_digits()
LAST_PRINTABLE_N = int((DIGIT_LIMIT - 1) / math.log10(2))


@pytest.mark.parametrize("argv", [
    ["enumerate"],
    ["enumerate", "--format", "csv"],
    ["enumerate", "--format", "json", "--mode", "fiber"],
    ["verify", "--format", "json"],
])
def test_a_census_too_long_to_print_is_refused_before_it_is_run(capsys,
                                                                argv):
    n = LAST_PRINTABLE_N + 1
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--q", "2", "--n", str(n), "--k", "1"])
    assert exc.value.code == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"q^{n}" in err and f"{DIGIT_LIMIT}-digit limit" in err


def test_verify_as_a_table_prints_no_count_so_it_is_not_refused(capsys):
    code, out = run_cli(capsys, "verify", "--q", "2",
                        "--n", str(LAST_PRINTABLE_N + 1), "--k", "1")
    assert code == 0
    assert out.endswith(": all 3 keys match\n")


def test_a_census_within_the_digit_limit_still_prints(capsys):
    code, out = run_cli(capsys, "enumerate", "--q", "2",
                        "--n", str(LAST_PRINTABLE_N), "--k", "1",
                        "--format", "csv")
    assert code == 0
    counts = [int(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert sum(counts) == 2 ** LAST_PRINTABLE_N


def test_snf_pencil_example(capsys):
    code, out = run_cli(capsys, "snf", "--q", "2", "--n", "2", "--k", "2",
                        "--matrix", "[[0,0],[0,0]]", "--pencil")
    assert code == 0
    assert out.strip() == "x | x"


def test_snf_raw_polynomial_matrix(capsys):
    code, out = run_cli(capsys, "snf", "--q", "2",
                        "--matrix", '[["x", "0"], ["0", "x+1"]]')
    assert code == 0
    assert out.strip() == "1 | x^2+x"


@pytest.mark.parametrize("q,argv", [
    ("2", ["--matrix", "[[0,1],[1,0],[1,1]]", "--pencil"]),
    ("4", ["--matrix", "[[2,0],[0,3]]", "--pencil"]),
    ("2", ["--matrix", '[["x", "0"], ["0", "x+1"]]']),
    ("4", ["--matrix", '[["[2]*x+[3]", "1"], ["x^2", 0]]']),
])
def test_snf_json_carries_the_table_diagonal_and_the_parameters(capsys, q,
                                                                argv):
    base = ("snf", "--q", q, *argv)
    code, table = run_cli(capsys, *base)
    assert code == 0
    code, out = run_cli(capsys, *base, "--format", "json")
    assert code == 0
    assert run_cli(capsys, *base, "--format", "json") == (0, out)
    data = json.loads(out)
    assert data["schema"] == "snf-result/v1"
    assert data["diagonal"] == table.rstrip("\n").split(" | ")
    rows = json.loads(argv[1])
    assert data["parameters"] == {"q": int(q), "n": len(rows),
                                  "k": len(rows[0]),
                                  "pencil": "--pencil" in argv}


@pytest.mark.parametrize("layout,argv", [
    ("snf_result", ["snf", "--q", "2", "--matrix", "[[0,1],[1,0],[1,1]]",
                    "--pencil"]),
    ("snf_result", ["snf", "--q", "4", "--matrix",
                    '[["[2]*x+[3]", "1"], ["x^2", 0]]']),
    ("snf_result", ["snf", "--q", "2", "--matrix", '[["x", "0"], ["0", "0"]]']),
    ("factorization", ["factor", "--q", "3", "--poly", "2*x^2+2"]),
    ("factorization", ["factor", "--q", "4", "--poly", "x^4+x^2"]),
    ("factorization", ["factor", "--q", "5", "--poly", "3"]),
])
def test_snf_and_factor_json_are_schema_valid_and_stable(capsys, layout,
                                                         argv):
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as res
    code, out1 = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    schema = json.loads(res.files("pencilcensus.schemas").joinpath(
        f"{layout}.schema.json").read_text())
    jsonschema.validate(json.loads(out1), schema)
    assert run_cli(capsys, *argv, "--format", "json") == (0, out1)


@pytest.mark.parametrize("q", ["2", "4", "9"])
@pytest.mark.parametrize("n,k", [(2, 2), (3, 3), (3, 2), (4, 1)])
def test_snf_of_a_pencil_prints_what_snf_of_its_polynomial_matrix_prints(
        capsys, q, n, k):
    f = parse_field_spec(q)
    rng = random.Random(f"snf-{q}-{n}-{k}")
    for _ in range(15):
        b = [[rng.randrange(f.q) for _ in range(k)] for _ in range(n)]
        pencil = [[coeffs_text(f, (f.neg(v), 1) if i == j
                               else (f.neg(v),) if v else ())
                   for j, v in enumerate(row)] for i, row in enumerate(b)]
        raw = run_cli(capsys, "snf", "--q", q, "--matrix", json.dumps(pencil))
        assert raw[0] == 0
        assert run_cli(capsys, "snf", "--q", q, "--pencil",
                       "--matrix", json.dumps(b)) == raw


def test_snf_dimension_cross_check(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["snf", "--q", "2", "--n", "3", "--k", "2",
              "--matrix", "[[0,0],[0,0]]", "--pencil"])
    assert exc.value.code == 2


def test_verify_pencil_exits_zero(capsys):
    code, out = run_cli(capsys, "verify", "--q", "2", "--n", "3", "--k", "2",
                        "--mode", "pencil")
    assert code == 0
    assert "all 9 keys match" in out


def test_verify_subspace_mode(capsys):
    code, out = run_cli(capsys, "verify", "--q", "2", "--n", "3", "--k", "2",
                        "--mode", "subspace", "--subspace", "[[1,0]]")
    assert code == 0
    assert "all" in out and "match" in out


def test_verify_json_output(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as res
    code, out = run_cli(capsys, "verify", "--q", "3", "--n", "2", "--k", "2",
                        "--mode", "fiber", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is True
    schema = json.loads(res.files("pencilcensus.schemas").joinpath(
        "diff_report.schema.json").read_text())
    jsonschema.validate(data, schema)


def test_enumerate_formats(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as res
    code, out = run_cli(capsys, "enumerate", "--q", "2", "--n", "2", "--k", "1",
                        "--mode", "pencil", "--format", "json")
    assert code == 0
    data = json.loads(out)
    schema = json.loads(res.files("pencilcensus.schemas").joinpath(
        "census_report.schema.json").read_text())
    jsonschema.validate(data, schema)
    assert data["entries"] == {"1": "2", "x": "1", "x+1": "1"}

    code, out = run_cli(capsys, "enumerate", "--q", "2", "--n", "2", "--k", "1",
                        "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["key,count", "1,2", "x,1", "x+1,1"]


def test_enumerate_json_identical_across_runs_and_workers(capsys):
    base = ("enumerate", "--q", "2", "--n", "3", "--k", "2", "--mode",
            "pencil", "--format", "json")
    _, out1 = run_cli(capsys, *base)
    _, out2 = run_cli(capsys, *base, "--workers", "2")
    assert out1 == out2


def test_enumerate_budget_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--q", "2", "--n", "3", "--k", "2",
              "--budget", "10"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["enumerate", "verify"])
@pytest.mark.parametrize("q,n,k", [
    pytest.param("2", n, k, id=f"{n}-{k}")
    for n, k in ((400, 200), (200, 100), (2000, 1000), (12, 12))
] + [("9", 4000, 2000), ("2^16", 300, 200)])
def test_an_over_budget_run_is_refused_at_once_and_legibly(capsys, command,
                                                           q, n, k):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main([command, "--q", q, "--n", str(n), "--k", str(k)])
    assert exc.value.code == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "budget" in err and len(err) < 200


# nilext's q^(n(n-k)) completions per matrix and a subspace basis over
# GF(2^16) are bounded before the power is taken or the field is built
@pytest.mark.parametrize("argv", [
    ["--q", "9", "--n", "3000", "--k", "1", "--mode", "nilext"],
    ["--q", "2^16", "--n", "300", "--k", "200", "--mode", "subspace",
     "--subspace", json.dumps([[1] + [0] * 199])],
], ids=["nilext", "subspace"])
def test_a_costly_mode_is_refused_at_once(capsys, argv):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", *argv])
    assert exc.value.code == 2
    assert time.perf_counter() - start < 1
    assert "needs at least 2^" in capsys.readouterr().err


def test_a_tall_shape_charged_little_runs_in_time_linear_in_its_size(capsys):
    # charged 2 evaluations; its 3 representatives have 100000 entries, at
    # most one of them nonzero, so their indices must not cost a power of q
    # per entry
    start = time.perf_counter()
    code, out = run_cli(capsys, "verify", "--q", "2", "--n", "100000",
                        "--k", "1")
    assert code == 0 and "all 3 keys match" in out
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("q", ["100000000000000000039", "3^10000000"])
def test_a_field_past_the_cap_is_refused_at_once(capsys, q):
    # a prime far past 2^16, and a prime power whose exponent is huge
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--q", q, "--n", "2", "--k", "1"])
    assert exc.value.code == 2
    assert time.perf_counter() - start < 1
    assert "cap" in capsys.readouterr().err


def test_verify_refuses_before_building_the_closed_form(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(oracle, "closed_form", built.append)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", "2", "--n", "3", "--k", "2", "--budget", "10"])
    assert exc.value.code == 2 and built == []


def test_an_off_by_one_q_product_fails_verify(capsys, monkeypatch):
    # each mode on the smallest shape where the product over lo + 1 <= i < hi
    # gives integral but wrong counts
    exact = census._q_product
    monkeypatch.setattr(census, "_q_product",
                        lambda a, lo, hi, q: exact(a, lo + 1, hi, q))
    for mode, n, k, extra in (("pencil", 2, 1, ()), ("fiber", 2, 1, ()),
                              ("pair", 2, 1, ()),
                              ("subspace", 2, 2, ("--subspace", "[[1,0]]"))):
        code, out = run_cli(capsys, "verify", "--q", "2", "--n", str(n),
                            "--k", str(k), "--mode", mode, *extra)
        assert code == 1 and "mismatch" in out, mode


def test_workers_and_budget_are_validated(capsys, monkeypatch):
    base = ["enumerate", "--q", "2", "--n", "2", "--k", "1"]
    for extra in (["--workers", "0"], ["--workers", "-3"], ["--budget", "-1"]):
        with pytest.raises(SystemExit) as exc:
            main(base + extra)
        assert exc.value.code == 2, extra
    monkeypatch.setenv("PENCILCENSUS_WORKERS", "0")
    with pytest.raises(SystemExit) as exc:
        main(base)
    assert exc.value.code == 2
    code, out = run_cli(capsys, *base, "--workers", "1")
    assert code == 0 and out.endswith("total  4\n")


def test_environment_errors_name_the_variable(capsys, monkeypatch):
    base = ["enumerate", "--q", "2", "--n", "2", "--k", "1"]
    for name, bad in (("PENCILCENSUS_WORKERS", "two"),
                      ("PENCILCENSUS_WORKERS", "0"),
                      ("PENCILCENSUS_BUDGET", "lots"),
                      ("PENCILCENSUS_BUDGET", "-5")):
        monkeypatch.setenv(name, bad)
        with pytest.raises(SystemExit) as exc:
            main(base)
        monkeypatch.delenv(name)
        err = capsys.readouterr().err.splitlines()[-1]
        assert exc.value.code == 2
        assert name in err and bad in err, err
        assert "--workers" not in err and "--budget" not in err, err


def test_env_overrides_budget(capsys, monkeypatch):
    monkeypatch.setenv("PENCILCENSUS_BUDGET", "10")
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--q", "2", "--n", "3", "--k", "2"])
    assert exc.value.code == 2


def test_factor_output(capsys):
    code, out = run_cli(capsys, "factor", "--q", "2", "--poly", "x^4+x^2")
    assert (code, out.strip()) == (0, "(x)^2*(x+1)^2")
    code, out = run_cli(capsys, "factor", "--q", "3", "--poly", "2*x^2+2",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["unit"] == "2"
    assert data["factors"] == [["x^2+1", 1]]


def test_round_trip_of_printed_polynomials(capsys):
    from pencilcensus.gf import field_new
    from pencilcensus.smith import InvariantFactorTuple
    code, out = run_cli(capsys, "snf", "--q", "3",
                        "--matrix", "[[1,2],[0,1],[1,1]]", "--pencil")
    assert code == 0
    reparsed = InvariantFactorTuple.parse(
        out.strip().replace(" | ", "|"), field_new(3))
    assert str(reparsed) == out.strip().replace(" | ", "|")


def test_verify_exits_one_on_mismatch(capsys, monkeypatch):
    import pencilcensus.cli as cli_mod
    from pencilcensus.census import pencil_census

    def broken(f, n, k):
        report = pencil_census(f, n, k)
        report.entries["x|x"] += 1
        return report

    monkeypatch.setattr(cli_mod.census, "pencil_census", broken)
    code = main(["verify", "--q", "2", "--n", "2", "--k", "2",
                 "--mode", "pencil"])
    out = capsys.readouterr().out
    assert code == 1
    assert "mismatch" in out and "x|x" in out


def test_usage_error_on_unknown_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--q", "2", "--n", "2", "--k", "1",
              "--mode", "bogus"])
    assert exc.value.code == 2


MALFORMED_ARGV = [
    ["count", "--formula", "nilext", "--q", "abc", "--n", "2", "--k", "1"],
    ["count", "--formula", "nilext", "--q", "6", "--n", "2", "--k", "1"],
    ["count", "--formula", "gr", "--q", "2", "--poly", "x+y"],
    ["count", "--formula", "reach", "--q", "2", "--n", "2", "--k", "2",
     "--r", "1"],
    # --subspace belongs to subspace mode only
    ["enumerate", "--q", "2", "--n", "2", "--k", "2", "--mode", "pencil",
     "--subspace", "[[1,0]]"],
    # csv is a census format: only enumerate offers it
    ["count", "--formula", "nilext", "--q", "2", "--n", "2", "--k", "1",
     "--format", "csv"],
    ["verify", "--q", "2", "--n", "2", "--k", "1", "--format", "csv"],
    ["snf", "--q", "2", "--matrix", "[[0]]", "--pencil", "--format", "csv"],
    ["factor", "--q", "2", "--poly", "x^2", "--format", "csv"],
    # matrix entries must be JSON integers: no floats, bools or strings
    ["enumerate", "--q", "2", "--n", "3", "--k", "2", "--mode", "subspace",
     "--subspace", "[[1.9,0]]"],
    ["enumerate", "--q", "2", "--n", "3", "--k", "2", "--mode", "subspace",
     "--subspace", "[[true,0]]"],
    ["enumerate", "--q", "2", "--n", "3", "--k", "2", "--mode", "subspace",
     "--subspace", '[["1",0]]'],
    ["snf", "--q", "3", "--pencil", "--matrix", '[["1",2],[1,0]]'],
    ["snf", "--q", "3", "--pencil", "--matrix", "[[1.5,2],[true,0]]"],
    # a grid must be an array of rows of one length
    ["snf", "--q", "2", "--matrix", "5"],
    ["snf", "--q", "2", "--pencil", "--matrix", "[[1,0],[1],[0,1,1]]"],
    ["snf", "--q", "2", "--matrix", '[["x","1"],["0"],["1","x","0"]]'],
    # ... and of at least one column
    ["snf", "--q", "3", "--matrix", "[[]]"],
    ["snf", "--q", "3", "--matrix", "[[],[]]"],
    ["snf", "--q", "3", "--pencil", "--matrix", "[[]]"],
    ["snf", "--q", "3", "--pencil", "--matrix", "[[],[]]"],
    # polynomial entries are JSON strings or integers, nothing nested
    ["snf", "--q", "2", "--matrix", "[[[1]]]"],
    ["snf", "--q", "4", "--matrix", "[[[3]]]"],
    ["snf", "--q", "2", "--matrix", "[[null]]"],
    ["snf", "--q", "2", "--matrix", '[[{"a":1}]]'],
]


def test_usage_error_on_malformed_inputs(capsys):
    for argv in MALFORMED_ARGV:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def readme_examples() -> list[list[str]]:
    """The argv of every ``$ pencilcensus ...`` example in the README."""
    with open(README) as fh:
        return [shlex.split(line)[2:] for line in fh
                if line.startswith("$ pencilcensus ")]


def test_the_readme_library_block_runs_and_prints_what_it_says():
    with open(README) as fh:
        section = fh.read().split("## Library", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(code, names)
    assert str(names["ifs"]) == "1|x+1"
    assert names["count_invariant_factors"](3, 2, names["ifs"]) == 12


FACTOR = ["factor", "--q", "2", "--poly", "x^2"]
EDGE_ARGV = [
    [], ["-h"], ["count", "-h"], ["count", "-h", "--formula", "x"],
    ["bogus", "--q", "2"], ["--", "count", "--formula", "reach"],
    FACTOR + ["--bogus", "1"],
    ["count", "--form", "snf", "--q", "2", "--tuple", "1|x"],
    FACTOR + ["--q", "3"],
    ["count", "--formula=snf", "--q=2", "--n", "2", "--k", "2",
     "--tuple", "1|x"],
    FACTOR + ["y"], FACTOR + ["--", "y"],
    ["factor", "--q", "3", "--poly", "-x+1"],
    ["factor", "--q", "3", "--poly=-x+1"],
    ["count"], ["selftest"], ["enumerate", "--q", "2", "--n", "2"],
    # the plain path must agree with argparse or leave the request to it
    FACTOR + ["--q", "2", "--q", "3"],
    ["snf", "--q", "2", "--pencil", "--matrix", "[[1]]", "--pencil"],
    ["snf", "--q", "2", "--matrix", "[[1]]", "--n", "-1"],
    ["snf", "--q", "2", "--matrix", "[[1]]", "--n", "abc"],
    ["snf", "--q", "2", "--matrix", "[[1]]", "--n", "2.5"],
    ["factor", "--q", "2", "--poly", ""],
    ["factor", "--q", "2", "--poly"],
    ["snf", "--q", "2", "--matrix", "[[1]]", "--format", "csv"],
]


def _parse_outcome(parse, argv, capsys):
    """The namespace ``parse`` returns, or its exit code, with what it
    printed."""
    try:
        result = vars(parse(list(argv)))
    except SystemExit as exc:
        result = exc.code
    return result, capsys.readouterr()


@pytest.mark.parametrize("argv", MALFORMED_ARGV + readme_examples()
                         + EDGE_ARGV, ids=" ".join)
def test_main_parses_as_the_top_level_parser_does(capsys, argv):
    assert (_parse_outcome(cli._parse, argv, capsys)
            == _parse_outcome(build_parser().parse_args, argv, capsys))


def test_the_readme_examples_are_found():
    assert [argv[0] for argv in readme_examples()] == [
        "count", "snf", "enumerate", "verify", "factor"]


# One plain request of each command: a command followed by valid
# ``--flag value`` pairs and ``--switch``es, each flag spelled out in full.
CENSUS_ARGS = ["--q", "2", "--n", "2", "--k", "1"]
PLAIN_ARGV = [
    ["count", "--formula", "reach", "--q", "2", "--k", "3", "--n", "5",
     "--r", "3"],
    ["enumerate", *CENSUS_ARGS], ["verify", *CENSUS_ARGS],
    ["snf", "--q", "2", "--pencil", "--matrix", "[[1]]"], FACTOR,
    ["selftest"],
]


def test_each_request_is_parsed_once(capsys, monkeypatch):
    # a plain request is read off the command table; only help and
    # requests argparse must judge reach an argparse parse
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    monkeypatch.setattr(cli, "_selftest_suites", lambda rng: [])
    for argv in PLAIN_ARGV:
        calls.clear()
        code, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert calls == [], argv
    for argv in (["factor", "-h"], FACTOR + ["--bogus", "1"],
                 ["count", "--form", "reach", "--q", "2"],
                 ["factor", "--q=2", "--poly", "x^2"]):
        calls.clear()
        _parse_outcome(cli._parse, argv, capsys)
        assert calls[0] == "pencilcensus", argv


# Values drawn for a flag of the hypothesis test below, by its type, and
# values that its type or choices refuse or that argparse reads as options.
GOOD_VALUES = {int: ["0", "2", "3"], None: ["2", "9", "x^2+1", "1|x", "[[1]]"]}
BAD_VALUES = ["-1", "2.5", "abc", "", "-x", "bogus", "--q", "-h", "--"]


@st.composite
def _request_argv(draw):
    """A command's required flags and a few more, in any order, with valid
    values; now and then a flag is left out, abbreviated, written with
    ``=``, given a bad value or none, or a switch is given a value."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    specs = cli.COMMANDS[command][1]
    picked = [flag for flag, spec in specs.items() if spec.get("required")]
    picked += draw(st.lists(st.sampled_from(list(specs)), max_size=4))
    argv = [command]
    for flag in draw(st.permutations(picked)):
        switch = specs[flag].get("action") == "store_true"
        value = draw(st.sampled_from(sorted(specs[flag].get("choices", ()))
                                     or GOOD_VALUES[specs[flag].get("type")]))
        fault = draw(st.sampled_from(
            [None] * 25 + ["omit", "abbreviate", "equals", "bad", "arity"]))
        if fault == "omit":
            continue
        if fault == "abbreviate":
            argv += [flag[:-1], value]
        elif fault == "equals":
            argv.append(f"{flag}={value}")
        elif fault == "bad":
            argv += [flag, draw(st.sampled_from(BAD_VALUES))]
        elif fault == "arity":
            argv += [flag, value] if switch else [flag]
        elif switch:
            argv.append(flag)
        else:
            argv += [flag, value]
    return argv


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_request_argv())
def test_drawn_requests_parse_as_the_top_level_parser_does(capsys, argv):
    assert (_parse_outcome(cli._parse, argv, capsys)
            == _parse_outcome(build_parser().parse_args, argv, capsys))


def test_a_polynomial_that_starts_with_a_minus_is_written_with_equals(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["factor", "--q", "3", "--poly", "-x+1"])
    assert exc.value.code == 2
    assert ("argument --poly: expected one argument"
            in capsys.readouterr().err)
    assert run_cli(capsys, "factor", "--q", "3", "--poly=-x+1") == (
        0, "2*(x+2)\n")


def test_selftest_passes(capsys):
    code, out = run_cli(capsys, "selftest", "--seed", "5")
    assert code == 0
    assert "selftest: ok" in out
    assert "FAIL" not in out


def test_a_failing_selftest_suite_is_named_and_exits_one(capsys,
                                                        monkeypatch):
    monkeypatch.setattr(census, "check_q_identity", lambda d, q, y: False)
    code, out = run_cli(capsys, "selftest")
    assert code == 1
    lines = out.splitlines()
    assert "FAIL power-identity" in lines
    assert lines[-1] == "selftest: FAILED"
    assert sum(line.startswith("FAIL") for line in lines) == 1


# One narrow patch per selftest suite that makes the suite return False.
SUITE_FAULTS = {
    "field-axioms": (FieldCtx, "div", lambda self, a, b: 0),
    "factorization-round-trip": (
        cli, "factorize",
        lambda field, coeffs: Factorization(coeffs[-1], ())),
    "gcd-divides-both": (cli, "coeffs_gcd", lambda field, a, b: (0, 1)),
    "snf-vs-minor-gcds": (cli, "det_divisor", lambda field, rows, order: ()),
    "rank-transpose": (cli, "rank_rows", lambda field, rows, cols: cols),
    "power-identity": (census, "check_q_identity", lambda d, q, y: False),
    "orbit-reduction-vs-full": (
        oracle, "run", lambda cfg: SimpleNamespace(entries={})),
}


def test_every_selftest_suite_has_a_fault():
    names = [name for name, _ in cli._selftest_suites(random.Random(0))]
    assert sorted(names) == sorted(SUITE_FAULTS)


@pytest.mark.parametrize("name", SUITE_FAULTS)
def test_each_selftest_suite_fails_under_its_fault(monkeypatch, name):
    target, attr, fault = SUITE_FAULTS[name]
    suite = dict(cli._selftest_suites(random.Random(2024)))[name]
    monkeypatch.setattr(target, attr, fault)
    assert suite() is False


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def test_selftest_passes_under_optimize():
    # the shipped checks raise errors, not asserts, so -O must keep them
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pencilcensus", "selftest"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "selftest: ok" in proc.stdout


@pytest.mark.parametrize("module", ["pencilcensus", "pencilcensus.cli"])
def test_import_loads_no_worker_pool_and_no_dataclasses(module):
    # a one-worker run needs neither; the pool is imported by the first run
    # with more than one worker
    heavy = ("dataclasses", "inspect", "multiprocessing", "concurrent.futures")
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}; print(*sorted(sys.modules))"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert module in proc.stdout.split()
    assert set(heavy).isdisjoint(proc.stdout.split())


def _fresh_cli(script, argv, **env):
    """Run ``script`` in a fresh interpreter with ``argv`` bound, after a
    counter has been put on ``argparse.ArgumentParser.__init__`` and before
    ``pencilcensus.cli`` is imported."""
    prelude = (
        "import argparse, contextlib, io\n"
        "inits = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = "
        "lambda self, *a, **k: inits.append(1) or init(self, *a, **k)\n"
        "from pencilcensus import cli\n"
        f"argv = {argv!r}\n")
    return subprocess.run(
        [sys.executable, "-c", prelude + script],
        env=dict(os.environ, PYTHONPATH=SRC, **env), capture_output=True,
        text=True, timeout=60)


def test_import_builds_no_parser():
    # neither the import nor one plain request of each command builds an
    # argparse parser: the request is read off the command table
    proc = _fresh_cli(
        "cli._selftest_suites = lambda rng: []\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(list(a)) for a in argv]\n"
        "print(codes, len(inits))\n", PLAIN_ARGV)
    assert (proc.stdout, proc.stderr) == (f"{[0] * len(PLAIN_ARGV)} 0\n", "")


def test_a_plain_request_loads_locale():
    # main loads what a parser's first use loaded, so perfbench's cli speed
    # kernel, which runs argparse, does not load it in a timed slice
    proc = _fresh_cli(
        "import sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(argv)\n"
        "print('locale' in sys.modules, len(inits))\n", FACTOR)
    assert (proc.stdout, proc.stderr) == ("True 0\n", "")


USAGE = ("usage: pencilcensus [-h] "
         "{count,enumerate,verify,snf,factor,selftest} ...\n")


@pytest.mark.parametrize("argv, env, stderr", [
    (["count", "--formula", "snf", "--q", "6", "--n", "2", "--k", "2",
      "--tuple", "1|x"], {}, "pencilcensus: error: 6 is not a prime power\n"),
    (["verify", *CENSUS_ARGS], {"PENCILCENSUS_WORKERS": "abc"},
     USAGE + "pencilcensus: error: PENCILCENSUS_WORKERS must be an integer, "
     "got 'abc'\n"),
])
def test_an_error_after_a_plain_read_builds_the_parser_once(argv, env,
                                                            stderr):
    # the refusal of a command, or of main, still prints with the top-level
    # parser, which is built for it and only for it
    proc = _fresh_cli(
        "builds = []\n"
        "build = cli.build_parser\n"
        "cli.build_parser = lambda: builds.append(1) or build()\n"
        "try:\n"
        "    cli.main(argv)\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, len(builds))\n", argv, **env)
    assert (proc.stdout, proc.stderr) == ("2 1\n", stderr)


def test_no_assert_in_the_package():
    # exactness checks must survive python -O, which strips asserts
    package = os.path.join(SRC, "pencilcensus")
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []


def test_no_module_but_polyring_names_poly():
    # the package's one polynomial type is the coefficient tuple; Poly is
    # polyring's shim for the benchmark, and no other module may use it
    package = os.path.join(SRC, "pencilcensus")
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "polyring.py":
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if "Poly" in (getattr(node, "id", None),
                                    getattr(node, "attr", None))
                      or isinstance(node, ast.alias)
                      and "Poly" in (node.name, node.asname)]
    assert found == []


def _bounded_cli(argv, memory_mb=256, timeout_s=20):
    """Run one CLI request in a fresh interpreter whose address space is
    capped at ``memory_mb`` with ``resource.setrlimit``, killed after
    ``timeout_s`` seconds; the cap binds that child alone.  Returns its exit
    code, stdout and stderr.  A request that would allocate past the cap
    ends in a ``MemoryError`` instead of exhausting the machine, and one
    that hangs fails with ``TimeoutExpired``."""
    limit = memory_mb << 20
    script = ("import resource, sys\n"
              f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
              "from pencilcensus.cli import main\n"
              f"sys.exit(main({argv!r}))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=timeout_s)
    return proc.returncode, proc.stdout, proc.stderr


def test_a_count_whose_factorization_needs_a_vast_sieve_exits_2():
    # x^60+x+1 has no linear factor, so its factorization may need the 2^30
    # monics of degree 30: refused after its linear trials, before the
    # sieve grows (test_polyring checks that no level past the first is
    # built)
    code, out, err = _bounded_cli(
        ["count", "--formula", "gr", "--q", "2", "--poly", "x^60+x+1"])
    assert (code, out) == (2, "")
    assert "2^30 monics" in err and "Traceback" not in err


HUGE = "x^9999999999"


@pytest.mark.parametrize("argv", [
    ["factor", "--q", "2", "--poly", HUGE],
    ["count", "--formula", "snf", "--q", "2", "--n", "2", "--k", "2",
     "--tuple", "1|" + HUGE],
    ["snf", "--q", "2", "--matrix", json.dumps([[HUGE]])],
])
def test_a_degree_past_the_cap_exits_2_before_it_is_allocated(argv):
    # each once asked for a dense list of 10^10 coefficients, about 80 GB
    code, out, err = _bounded_cli(argv)
    assert (code, out) == (2, "")
    assert err.endswith("is past the cap of 4096\n")
    assert "Traceback" not in err


DENSE_4096 = "+".join(f"x^{e}" for e in range(4096, 1, -1)) + "+x+1"


@pytest.mark.parametrize("argv,code", [
    # huge exponents
    (["count", "--formula", "gr", "--q", "3", "--poly", HUGE + "+1"], 2),
    (["count", "--formula", "grext", "--q", "4", "--n", "3", "--k", "2",
      "--poly", "x^4097"], 2),
    (["count", "--formula", "class", "--q", "2", "--tuple", "x|" + HUGE], 2),
    (["factor", "--q", "2", "--poly", "x^" + "9" * 5000], 2),
    (["snf", "--q", "5", "--matrix", '[["x^4097-1", "1"]]'], 2),
    # high-degree polynomials
    (["factor", "--q", "2", "--poly", DENSE_4096], 2),
    (["factor", "--q", "65521", "--poly", "x^4+7"], 2),
    (["count", "--formula", "gr", "--q", "2", "--poly", DENSE_4096], 2),
    (["count", "--formula", "class", "--q", "2", "--tuple",
      "x^60+x+1|x^120+x^2+1"], 0),
    # x^N
    (["factor", "--q", "2", "--poly", "x^50"], 0),
    (["factor", "--q", "9", "--poly", "x^4096"], 0),
    (["factor", "--q", "65521", "--poly", "x^4"], 0),
    (["count", "--formula", "gr", "--q", "2", "--poly", "x^49"], 0),
    (["count", "--formula", "class", "--q", "2", "--tuple", "x^25|x^50"], 0),
    (["snf", "--q", "3", "--matrix", '[["x^4096"]]'], 0),
])
def test_an_adversarial_request_ends_within_its_memory_and_time(argv, code):
    got, out, err = _bounded_cli(argv)
    assert got == code, err[-300:]
    assert "Traceback" not in err


@pytest.mark.xfail(raises=subprocess.TimeoutExpired, strict=True,
                   reason="the first trial level divides by all q linear "
                          "monics: about 100 s at q=65521 and degree 4096")
def test_a_high_degree_factorization_over_a_large_field_ends_in_time():
    # x^4096+x+1 is refused only once its 65,521 linear trials are done,
    # each a division of a polynomial of degree about 4096
    code, _, err = _bounded_cli(
        ["factor", "--q", "65521", "--poly", "x^4096+x+1"], timeout_s=5)
    assert code == 2 and "65521^2047 monics" in err


@pytest.mark.parametrize("argv", [
    ["count", "--formula", "snf", "--q", "3", "--n", "4", "--k", "3",
     "--tuple", "1|x+1|x^2+2*x+1", "--format", "json"],
    ["factor", "--q", "9", "--poly", "[2]*x^3+[5]*x+[1]", "--format", "json"],
    ["snf", "--q", "4", "--pencil", "--matrix", "[[1,2],[3,0],[1,1]]",
     "--format", "json"],
    ["count", "--formula", "gr", "--q", "3", "--poly", "x^3+2*x+1",
     "--format", "json"],
    ["count", "--formula", "grext", "--q", "9", "--n", "3", "--k", "2",
     "--poly", "x^2+[3]*x+[1]", "--format", "json"],
    ["snf", "--q", "3", "--matrix", '[["x^2+1", "x"], ["2*x", "x+2"]]'],
    ["verify", "--q", "3", "--n", "2", "--k", "2", "--mode", "fiber"],
    ["verify", "--q", "4", "--n", "3", "--k", "2", "--mode", "fiber"],
    ["verify", "--q", "2", "--n", "3", "--k", "2", "--mode", "nilext"],
    ["selftest"],
    ["factor", "--q", "2^7", "--poly", "x^5+[3]*x+[1]"],
])
def test_a_count_factor_or_snf_request_builds_no_poly(capsys, monkeypatch,
                                                      argv):
    # the second run builds its fields afresh, each extension field's
    # modulus search and log tables included, and fills a fresh sieve: the
    # irreducibles, the moduli and every request work on coefficient tuples
    first = run_cli(capsys, *argv)
    made = []
    init = Poly.__init__
    monkeypatch.setattr(Poly, "__init__",
                        lambda self, *a: made.append(1) or init(self, *a))
    monkeypatch.setattr(gf, "_FIELD_CACHE", {})
    assert run_cli(capsys, *argv) == first
    assert first[0] == 0 and made == []
