import os
import subprocess
import sys

import pytest

from pencilcensus.census import (
    CensusReport,
    fiber_census,
    nilext_census,
    pair_census,
    pencil_census,
    subspace_census,
)
from pencilcensus.errors import (
    BadSubspaceError,
    BudgetExceededError,
    ParamMismatchError,
    ShapeError,
)
from pencilcensus.gf import echelon_subspaces, field_new
from pencilcensus.oracle import (
    EnumConfig,
    _pool_size,
    enumerate_fibers,
    enumerate_nilpotent_extendable,
    enumerate_pairs,
    enumerate_pencils,
    enumerate_subspace_census,
    nilext_report,
    run,
    verify,
)

F2 = field_new(2)


def cfg(q=2, n=3, k=2, **kw):
    f = field_new(2, 2) if q == 4 else field_new(q)
    return EnumConfig(p=f.p, m=f.m, n=n, k=k, **kw)


# ---------------------------------------------------------------------------
# pencil mode
# ---------------------------------------------------------------------------

def test_one_by_one_pencils():
    report = enumerate_pencils(cfg(n=1, k=1))
    assert report.entries == {"x": 1, "x+1": 1}


def test_two_by_one_pencils():
    report = enumerate_pencils(cfg(n=2, k=1))
    assert report.entries == {"1": 2, "x": 1, "x+1": 1}


def test_zero_matrix_is_the_only_x_x_pencil():
    report = enumerate_pencils(cfg(n=2, k=2))
    assert report.entries["x|x"] == 1


def test_pencil_census_matches_closed_form():
    report = enumerate_pencils(cfg(n=3, k=2))
    diff = verify(pencil_census(F2, 3, 2), report)
    assert diff.verdict
    assert report.total() == 2 ** 6


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        enumerate_pencils(cfg(n=3, k=2, budget=10))


def test_shape_guard():
    with pytest.raises(ShapeError):
        enumerate_pencils(cfg(n=2, k=3))


# ---------------------------------------------------------------------------
# pair mode
# ---------------------------------------------------------------------------

def test_pair_census_small():
    report = enumerate_pairs(cfg(n=2, k=1, mode="pair"))
    assert report.entries == {"0": 2, "1": 2}


def test_pair_census_totals_and_reachable_value():
    report = enumerate_pairs(cfg(n=3, k=2, mode="pair"))
    assert report.total() == 2 ** 6
    assert report.entries["2"] == (8 - 2) * (8 - 4)
    assert verify(pair_census(F2, 2, 3), report).verdict


def test_pair_mode_requires_k_below_n():
    with pytest.raises(ShapeError):
        enumerate_pairs(cfg(n=2, k=2, mode="pair"))


# ---------------------------------------------------------------------------
# fiber mode
# ---------------------------------------------------------------------------

def test_fiber_census_square():
    report = enumerate_fibers(cfg(n=2, k=2, mode="fiber"))
    assert report.entries["x^2"] == 4  # nilpotent 2x2 count
    assert report.total() == 2 ** 4
    assert verify(fiber_census(F2, 2, 2), report).verdict


def test_fiber_census_rectangular():
    report = enumerate_fibers(cfg(n=3, k=2, mode="fiber"))
    assert report.entries["1"] == (8 - 2) * (8 - 4)  # reachable-pair product
    assert verify(fiber_census(F2, 3, 2), report).verdict


# ---------------------------------------------------------------------------
# subspace mode
# ---------------------------------------------------------------------------

def test_subspace_census_zero_subspace():
    report = enumerate_subspace_census(
        cfg(n=3, k=2, mode="subspace", subspace=()))
    assert report.entries == {"1|1": (8 - 2) * (8 - 4)}


def test_subspace_census_full_space_recovers_class_census():
    full = tuple(tuple(row) for row in ((1, 0), (0, 1)))
    report = enumerate_subspace_census(
        cfg(n=2, k=2, mode="subspace", subspace=full))
    assert report.entries == pencil_census(F2, 2, 2).entries


def test_subspace_census_line_example():
    report = enumerate_subspace_census(
        cfg(n=3, k=2, mode="subspace", subspace=((1, 0),)))
    assert report.total() == 2 ** 1 * (8 - 4)
    assert verify(subspace_census(F2, 3, 2, 1), report).verdict


def test_subspace_totals_are_u_independent():
    totals = {}
    for basis in echelon_subspaces(F2, 2):
        report = enumerate_subspace_census(
            cfg(n=3, k=2, mode="subspace", subspace=basis))
        totals.setdefault(len(basis), set()).add(
            tuple(sorted(report.entries.items())))
    for d, seen in totals.items():
        assert len(seen) == 1, f"dimension {d} censuses differ across subspaces"


def test_subspace_mode_validates_basis():
    with pytest.raises(BadSubspaceError):
        enumerate_subspace_census(cfg(mode="subspace", subspace=None))
    with pytest.raises(BadSubspaceError):
        enumerate_subspace_census(
            cfg(mode="subspace", subspace=((1, 1), (1, 0))))


# ---------------------------------------------------------------------------
# nilpotent completion mode
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,k,expected", [(2, 1, 3), (2, 2, 4), (3, 2, 40)])
def test_nilpotent_extendable_counts(n, k, expected):
    assert enumerate_nilpotent_extendable(cfg(n=n, k=k, mode="nilext")) == expected


def test_nilext_report_matches_closed_form():
    report = nilext_report(cfg(n=3, k=2, mode="nilext"))
    assert verify(nilext_census(F2, 3, 2), report).verdict


def test_nilext_budget_counts_completions():
    # 2^(nk) * 2^(n(n-k)) = 2^9 evaluations exceed a budget of 100
    with pytest.raises(BudgetExceededError):
        enumerate_nilpotent_extendable(cfg(n=3, k=2, mode="nilext", budget=100))


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
    serial = enumerate_pencils(cfg(workers=1))
    parallel = enumerate_pencils(cfg(workers=4))
    assert serial.to_json() == parallel.to_json()


def test_pool_size_is_clamped_to_cpus_and_chunks():
    cpus = os.cpu_count() or 1
    assert _pool_size(10 ** 6, 10 ** 6) == cpus
    assert _pool_size(10 ** 6, 3) == min(3, cpus)
    assert _pool_size(4, 1) == 1
    assert _pool_size(1, 50) == 1


def test_total_check_raises_under_optimize():
    # An enumeration that loses a matrix must fail even where asserts are off.
    code = (
        "import sys\n"
        "from pencilcensus import oracle\n"
        "from pencilcensus.errors import ExactnessError\n"
        "assert False, 'asserts are on'\n"
        "oracle._execute = lambda cfg, total, work, fn: {'1|x': total - 1}\n"
        "try:\n"
        "    oracle.enumerate_pencils(oracle.EnumConfig(p=2, m=1, n=2, k=2))\n"
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


def test_chunk_size_does_not_change_the_report():
    assert enumerate_pencils(cfg(chunk=7)).to_json() == \
        enumerate_pencils(cfg()).to_json()


def test_verify_identical_reports():
    a = pencil_census(F2, 3, 2)
    diff = verify(a, enumerate_pencils(cfg()))
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
        verify(pencil_census(F2, 3, 2), enumerate_pencils(cfg(n=4, k=2)))
    with pytest.raises(ParamMismatchError):
        verify(pair_census(F2, 2, 3), enumerate_pencils(cfg()))


def test_diff_report_json_shape():
    import json
    diff = verify(pencil_census(F2, 3, 2), enumerate_pencils(cfg()))
    data = json.loads(diff.to_json())
    assert data["schema"] == "diff-report/v1"
    assert data["verdict"] is True
    assert set(data["rows"]) == set(pencil_census(F2, 3, 2).entries)
