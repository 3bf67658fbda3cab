"""Spans and counters around the package's layer boundaries, from outside.

Each traced function is replaced, for the duration of a traced pass, by a
wrapper that records a span (parent span, name, start, end) in memory.  The
name is patched where its caller looks it up: ``oracle`` imported
``pencil_invariant_factors`` into its own namespace, so the oracle's calls
are traced through ``oracle.pencil_invariant_factors``, while ``snf`` is
traced through ``smith.snf`` because ``smith`` calls its own global.  Hot
arithmetic (field ops, ``Poly`` construction, multiply and divmod) is counted
instead of spanned.  Every original is restored by :meth:`Tracer.restore`.

A span's name starts with its layer: ``cli``, ``census``, ``oracle``,
``smith``, ``polyring`` or ``gf``.  A layer's self time is the time of its
spans minus the time of their direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import time

# (module, attribute, span name).  Several lookups may share one span name.
SPANS = (
    ("cli", "main", "cli.main"),
    ("census", "pencil_census", "census.pencil_census"),
    ("census", "fiber_census", "census.fiber_census"),
    ("census", "pair_census", "census.pair_census"),
    ("census", "subspace_census", "census.subspace_census"),
    ("census", "count_invariant_factors", "census.count"),
    ("census", "count_char_poly_rect", "census.count"),
    ("census", "count_char_poly_square", "census.count"),
    ("census", "count_with_subspace", "census.count"),
    ("census", "count_reachability", "census.count"),
    ("census", "factorize", "polyring.factorize"),
    ("cli", "factorize", "polyring.factorize"),
    ("polyring", "irreducibles_up_to", "polyring.irreducibles_up_to"),
    ("oracle", "run", "oracle.run"),
    ("oracle", "verify", "oracle.verify"),
    ("oracle", "_pencil_chunk", "oracle.chunk"),
    ("oracle", "_fiber_chunk", "oracle.chunk"),
    ("oracle", "_pair_chunk", "oracle.chunk"),
    ("oracle", "_subspace_chunk", "oracle.chunk"),
    ("oracle", "pencil_invariant_factors", "smith.pencil_invariant_factors"),
    ("oracle", "char_poly", "smith.char_poly"),
    ("oracle", "reachability_rank", "smith.reachability_rank"),
    ("oracle", "max_invariant_subspace", "smith.max_invariant_subspace"),
    ("cli", "pencil_invariant_factors", "smith.pencil_invariant_factors"),
    ("smith", "snf", "smith.snf"),
    ("cli", "snf", "smith.snf"),
    ("smith", "rank_rows", "gf.rank_rows"),
    ("smith", "kernel_basis_rows", "gf.kernel_basis_rows"),
    ("gf", "rref_rows", "gf.rref_rows"),
)

# (module, class, method, counter name).
COUNTERS = (
    ("gf", "FieldCtx", "add", "gf.field_op_calls"),
    ("gf", "FieldCtx", "sub", "gf.field_op_calls"),
    ("gf", "FieldCtx", "mul", "gf.field_op_calls"),
    ("gf", "FieldCtx", "neg", "gf.field_op_calls"),
    ("gf", "FieldCtx", "inv", "gf.field_op_calls"),
    ("polyring", "Poly", "__init__", "polyring.poly_new"),
    ("polyring", "Poly", "__mul__", "polyring.mul_calls"),
    ("polyring", "Poly", "__divmod__", "polyring.divmod_calls"),
)

LAYERS = ("cli", "census", "oracle", "smith", "polyring", "gf")
CLASSIFIERS = ("smith.pencil_invariant_factors", "smith.char_poly",
               "smith.reachability_rank", "smith.max_invariant_subspace")


class Tracer:
    """Installs the wrappers on ``pkg``, a namespace of the package modules."""

    def __init__(self, pkg, clock=time.perf_counter):
        self.pkg = pkg
        self.clock = clock
        self.names: list[str] = []
        self.spans: list[tuple[int, int, float, float] | None] = []
        self.matrices = 0
        self.census_keys = 0
        self._stack: list[int] = []
        self._counters: dict[str, itertools.count] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- installing ----------------------------------------------------------

    def install(self) -> "Tracer":
        for module, attr, name in SPANS:
            self._patch(getattr(self.pkg, module), attr,
                        self._span(getattr(getattr(self.pkg, module), attr),
                                   name))
        for module, cls_name, method, name in COUNTERS:
            cls = getattr(getattr(self.pkg, module), cls_name)
            counter = self._counters.setdefault(name, itertools.count())
            self._patch(cls, method, _counted(getattr(cls, method), counter))
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _span(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, self.clock
        on_args = on_result = None
        if name == "oracle.chunk":
            def on_args(args):
                _, lo, hi = args[0]
                self.matrices += hi - lo
        elif name.endswith("_census"):
            def on_result(report):
                self.census_keys += len(report.entries)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_args is not None:
                on_args(args)
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (stack[-1] if stack else -1, name_id, t0, t1)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # -- reading -------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        # next() on an itertools.count returns how many ticks came before.
        return {name: next(c) for name, c in self._counters.items()}

    def layer_metrics(self, traced_wall_s: float) -> tuple[dict, dict]:
        """Per-layer metrics (times in seconds) and the full layer table."""
        names, spans = self.names, self.spans
        n = len(spans)
        dur = [s[3] - s[2] for s in spans]
        child_s = [0.0] * n
        for s, d in zip(spans, dur):
            if s[0] >= 0:
                child_s[s[0]] += d
        name_s = dict.fromkeys(names, 0.0)
        name_calls = dict.fromkeys(names, 0)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        top_s = 0.0
        tuples_tried = classify_calls = 0
        for i, (parent, name_id, _, _) in enumerate(spans):
            name = names[name_id]
            parent_name = names[spans[parent][1]] if parent >= 0 else None
            name_calls[name] += 1
            if parent_name != name:
                name_s[name] += dur[i]
            layer_self[name.split(".", 1)[0]] += dur[i] - child_s[i]
            if parent < 0:
                top_s += dur[i]
            if name == "census.count" and parent_name and \
                    parent_name.endswith("_census"):
                tuples_tried += 1
            if name in CLASSIFIERS and parent_name == "oracle.chunk":
                classify_calls += 1
        counts = self.counts()
        snf_calls = name_calls["smith.snf"]
        table = {
            "spans": n,
            "span_s": name_s,
            "span_calls": name_calls,
            "self_s": layer_self,
            "counts": counts,
            "smith.snf_us":
                name_s["smith.snf"] / snf_calls * 1e6 if snf_calls else 0.0,
        }
        metrics = {
            "gf.field_op_calls": counts["gf.field_op_calls"],
            "polyring.mul_calls": counts["polyring.mul_calls"],
            "polyring.divmod_calls": counts["polyring.divmod_calls"],
            "polyring.poly_new": counts["polyring.poly_new"],
            "polyring.factorize_s": name_s["polyring.factorize"],
            "polyring.factorize_calls": name_calls["polyring.factorize"],
            "polyring.irreducibles_s": name_s["polyring.irreducibles_up_to"],
            "smith.snf_calls": snf_calls,
            "census.count_calls": name_calls["census.count"],
            "census.tuples_tried": tuples_tried,
            "census.keys": self.census_keys,
            "census.key_yield":
                self.census_keys / tuples_tried if tuples_tried else 0.0,
            "census.self_s": layer_self["census"],
            "oracle.chunks": name_calls["oracle.chunk"],
            "oracle.matrices": self.matrices,
            "oracle.classify_calls": classify_calls,
            "oracle.classify_per_matrix":
                classify_calls / self.matrices if self.matrices else 0.0,
            "cli.calls": name_calls["cli.main"],
            "trace.spans": n,
            "trace.coverage": top_s / traced_wall_s,
        }
        return metrics, table

    def write(self, path: str) -> None:
        """Write every span as [parent, name, start_s, end_s], gzipped."""
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh,
                      separators=(",", ":"))


def _counted(fn, counter):
    tick = counter.__next__

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tick()
        return fn(*args, **kwargs)

    return wrapper
