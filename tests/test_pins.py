"""The benchmark's operations, run once each, give the outputs it pins, and
its microbenchmarks run on the package's current API."""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path[:0] = [PERFBENCH]

import micro  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

PKG = workloads.package()
PINS = workloads.load_pins()
BATCHES = [w for w in workloads.WORKLOADS.values() if w.ops]


@pytest.mark.parametrize("workload", BATCHES, ids=lambda w: w.name)
def test_every_batch_op_matches_its_pin(workload):
    result = workloads.run_batch(PKG, workload, 0, PINS)
    assert (result.attempted, result.failed) == (len(workload.ops), 0)


@pytest.mark.parametrize("seed", range(4))
def test_a_query_stream_matches_its_pin(seed):
    result = workloads.run_queries(PKG, seed, PINS)
    assert result.failed == 0
    assert result.attempted == 3 * workloads.QUERY_TRIPLES


def test_every_micro_layer_runs_and_times_a_positive_figure():
    figures = micro.run(PKG, 0)
    kinds = [kind for kind, _ in micro.FIELD_KINDS]
    assert sorted(figures) == sorted(
        [f"gf.{op}_ns.{kind}" for op in ("add", "mul") for kind in kinds]
        + [f"polyring.{op}_ns.q{q}" for op in ("mul", "divmod")
           for q in (2, 9)]
        + ["smith.snf_us.q2n4", "smith.snf_us.q9n2"])
    assert all(v > 0 for v in figures.values()), figures


def test_every_traced_name_resolves_on_the_package():
    # the tracer patches these names from outside, so a rename in the
    # package would leave a span or a counter unmeasured
    for module, attr, _ in tracer.SPANS:
        assert callable(getattr(getattr(PKG, module), attr)), (module, attr)
    for module, cls, method, _ in tracer.COUNTERS:
        owner = getattr(getattr(PKG, module), cls)
        assert callable(getattr(owner, method)), (module, cls, method)
