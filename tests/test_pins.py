"""The benchmark's operations, run once each, give the outputs it pins."""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path[:0] = [PERFBENCH]

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
