"""Tests of the benchmark itself: metric names, the digest gate, tracing."""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

PKG = workloads.package()
cli, gf = PKG.cli, PKG.gf
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Small enough for a unit test, yet every traced layer is entered.
TINY = workloads.Workload("tiny", "test", (2, 4), (
    workloads.verify_op(2, 3, 2, "pencil"),
    workloads.verify_op(2, 3, 3, "fiber"),
    workloads.verify_op(2, 4, 2, "pair"),
    workloads.verify_op(2, 4, 2, "subspace", "[[1,0]]"),
    workloads.census_op("pencil", 4, 2, 2),
))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_are_well_formed_and_match_the_spec():
    spec = _spec()
    declared = {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}
    reported = dict(run.END_TO_END, **run.PER_LAYER)
    assert declared == reported
    for name in list(declared) + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_every_pinned_operation_has_a_pin():
    pins = workloads.load_pins()
    for workload in workloads.WORKLOADS.values():
        for op in workload.ops:
            assert op.op_id in pins
    for stream in range(workloads.QUERY_STREAMS):
        assert workloads.query_key(stream) in pins


def test_gate_rejects_a_tampered_report():
    pins = workloads.load_pins()
    op = workloads.verify_op(9, 2, 2, "fiber")
    text, _ = workloads.call_cli(cli, op.argv())
    text = text.rstrip("\n")
    assert workloads.check_op(op, text)
    assert workloads.gate(pins, op.op_id, text)
    data = json.loads(text)
    row = next(iter(data["rows"].values()))
    row["observed"] = str(int(row["observed"]) + 1)
    tampered = json.dumps(data, sort_keys=True, separators=(",", ":"))
    assert not workloads.gate(pins, op.op_id, tampered)
    assert not workloads.gate(pins, op.op_id, text + " ")


def test_check_op_rejects_a_false_verdict_and_a_short_total():
    op = workloads.verify_op(2, 2, 2, "pencil")
    text, _ = workloads.call_cli(cli, op.argv())
    data = json.loads(text)
    assert workloads.check_op(op, text)
    data["verdict"] = False
    assert not workloads.check_op(op, json.dumps(data))
    data["verdict"] = True
    row = next(iter(data["rows"].values()))
    row["observed"] = str(int(row["observed"]) - 1)
    assert not workloads.check_op(op, json.dumps(data))


def test_traced_pass_gives_the_untraced_digests_and_restores_originals():
    before = {(m, a): getattr(getattr(PKG, m), a) for m, a, _ in tracer.SPANS}
    before_add = gf.FieldCtx.add
    plain = workloads.run_batch(PKG, TINY, 5, {})
    with tracer.Tracer(PKG) as tr:
        traced = workloads.run_batch(PKG, TINY, 5, {})
    assert traced.digests == plain.digests
    assert all(getattr(getattr(PKG, m), a) is fn
               for (m, a), fn in before.items())
    assert gf.FieldCtx.add is before_add
    metrics, table = tr.layer_metrics(traced.wall_s)
    assert set(metrics) <= set(run.PER_LAYER)
    assert metrics["oracle.matrices"] == sum(op.matrices for op in TINY.ops
                                             if op.kind == "verify")
    assert metrics["cli.calls"] == 4
    assert metrics["smith.snf_calls"] > 0 and metrics["census.keys"] > 0
    assert 0.5 < metrics["trace.coverage"] <= 1.0
    assert all(v >= 0 for v in table["self_s"].values())


def test_traced_queries_give_the_untraced_transcript():
    plain = workloads.run_queries(PKG, 11, {}, triples=15)
    with tracer.Tracer(PKG):
        traced = workloads.run_queries(PKG, 11, {}, triples=15)
    assert plain.digests == traced.digests
    assert plain.attempted == 45 and len(plain.latencies_ms) == 45


def test_speed_probe_leaves_its_slices_out_of_the_clock():
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.SpeedProbe("arith") as probe:
        t0, c0 = time.perf_counter(), probe.clock()
        while time.perf_counter() - t0 < 0.3:
            pass
        wall, measured = time.perf_counter() - t0, probe.clock() - c0
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.slices) >= 2
    assert abs(wall - measured - probe.stolen_s) < 0.01
    assert probe.factor() > 0


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
