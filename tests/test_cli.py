import json

import pytest

from pencilcensus.cli import main


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


def test_count_class_and_nilext(capsys):
    code, out = run_cli(capsys, "count", "--formula", "class", "--q", "2",
                        "--tuple", "1|x^2")
    assert (code, out.strip()) == (0, "3")
    code, out = run_cli(capsys, "count", "--formula", "nilext", "--q", "2",
                        "--n", "3", "--k", "2")
    assert (code, out.strip()) == (0, "40")


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


def test_usage_error_on_malformed_inputs(capsys):
    for argv in (
        ["count", "--formula", "nilext", "--q", "abc", "--n", "2", "--k", "1"],
        ["count", "--formula", "nilext", "--q", "6", "--n", "2", "--k", "1"],
        ["count", "--formula", "gr", "--q", "2", "--poly", "x+y"],
        ["count", "--formula", "reach", "--q", "2", "--n", "2", "--k", "2",
         "--r", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_selftest_passes(capsys):
    code, out = run_cli(capsys, "selftest", "--seed", "5")
    assert code == 0
    assert "selftest: ok" in out
    assert "FAIL" not in out
