"""Op clock, span tracer and the wrappers that feed them.

Every workload times *ops*: one optimizer step, one ``Model.forward`` call, or
one sample -> JSONL -> encode -> hash round. The op clock runs in every run.
The traced run adds *spans* around calls into the package's public functions.
A span records its name, start, end, parent span, op id and phase, and stays
in memory until the run ends. Wrappers replace the module or class attribute
where the caller looks the name up (``neuralwalker.model.encode_batch``,
``neuralwalker.training.backward``, ``Graph.has_edges``), so the package
itself is untouched and restored when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

from neuralwalker import (autodiff, datasets, encoding, graphs, model, optim,
                          sampling, seqlayers, tensorio, training)

perf = time.perf_counter

SETUP, RUN = "setup", "run"
OP = "op"                      # name of the pseudo-span that brackets an op

AUTODIFF_OPS = ("matmul", "mul", "add", "expand", "conv1d_depthwise",
                "segment_mean", "scatter_add", "gather_rows", "softmax",
                "layernorm", "associative_scan", "zoh_phi")


@dataclass
class Op:
    """One timed op; ``group`` is the fit / evaluate call / round it belongs to."""

    t0: float
    t1: float = 0.0
    graphs: int = 0
    positions: int = 0
    group: int = 0
    failed: bool = False

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


class Recorder:
    """Op clock plus, when ``tracing``, the span and count store of one phase.

    Nothing is recorded while ``phase`` is None, so correctness reruns after
    the timed loop leave the figures alone.
    """

    def __init__(self, tracing: bool = False):
        self.tracing = tracing
        self.phase: str | None = None
        self.group = 0
        self.ops: list[Op] = []
        self.spans: list[list] = []          # [name, t0, t1, parent, op_id, phase]
        self.counts: dict[tuple[str, str], float] = {}
        self._stack: list[int] = []
        self._op: Op | None = None
        self._op_span = -1

    # --- op clock -----------------------------------------------------------

    def begin_op(self) -> None:
        if self.phase != RUN:
            return
        if self._op is not None:
            raise RuntimeError("op opened inside another op")
        t0 = perf()
        if self.tracing:
            self._op_span = self._open(OP, t0)
        self._op = Op(t0=t0, group=self.group)

    def end_op(self, failed: bool = False) -> Op | None:
        op = self._op
        if op is None:
            return None
        op.t1 = perf()
        if self.tracing and self._op_span in self._stack:
            self._close(self._op_span, op.t1)
        op.failed = failed
        self.ops.append(op)
        self._op = None
        return op

    def add_work(self, graphs: int, positions: int) -> None:
        if self._op is not None:
            self._op.graphs += graphs
            self._op.positions += positions

    # --- spans and counts ---------------------------------------------------

    def _open(self, name: str, t0: float) -> int:
        parent = self._stack[-1] if self._stack else -1
        op_id = len(self.ops) if self._op is not None or name == OP else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, t0, 0.0, parent, op_id, self.phase])
        return self._stack[-1]

    def _close(self, index: int, t1: float) -> None:
        """End span ``index`` and any span still open inside it (an op whose
        step raised is left open when the exception leaves its parent)."""
        while True:
            top = self._stack.pop()
            self.spans[top][2] = t1
            if top == index:
                return

    def count(self, name: str, value: float) -> None:
        key = (self.phase, name)
        self.counts[key] = self.counts.get(key, 0.0) + value

    def wrap(self, name: str, fn, counter=None):
        """``fn`` inside a span called ``name``; ``counter(rec, args, out)``
        adds counts after the span has closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not (self.tracing and self.phase):
                return fn(*args, **kwargs)
            index = self._open(name, perf())
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(index, perf())
            if counter is not None:
                counter(self, args, out)
            return out

        return traced


@contextmanager
def patched(replacements):
    """Apply ``(owner, attr, make)`` patches, ``owner.attr = make(old)``, and
    restore the originals on exit, last patch first."""
    saved = []
    try:
        for owner, attr, make in replacements:
            old = getattr(owner, attr)
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, make(old))
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


# =============================================================================
# The spans of the traced run
# =============================================================================

def _count_walks(rec: Recorder, batch) -> None:
    rec.count("sampling.walk_steps", float(batch.mask[:, 1:].sum()))
    rec.count("sampling.valid_positions", float(batch.mask.sum()))
    rec.count("sampling.allocated_positions", float(batch.mask.size))


def _count_queries(rec, args, out):
    rec.count("graphs.has_edges.queries", float(out.size))


def _count_sampled(rec, args, out):
    _count_walks(rec, out)


def _count_sampled_packed(rec, args, out):
    _count_walks(rec, out[0])


def _count_encoded(rec, args, out):
    rec.count("encoding.bytes_out", float(sum(a.nbytes for a in out)))


def _count_features(rec, args, out):
    rec.count("encoding.bytes_out", float(out.nbytes))


def _count_tensor_bytes(rec, args, out):
    rec.count("tensorio.bytes", float(len(out)))


def _count_tape(rec, args, out):
    rec.count("autodiff.tape_records", float(len(args[1].records)))


# (span name, [(owner, attribute), ...], counter). Owners are where the caller
# looks the name up: model.forward resolves encode_batch in neuralwalker.model,
# train_model resolves backward in neuralwalker.training, and so on.
SPANS = [
    ("graphs.disjoint_union", [(model, "disjoint_union")], None),
    ("graphs.has_edges", [(graphs.Graph, "has_edges")], _count_queries),
    ("sampling.sample_walks", [(sampling, "sample_walks")], _count_sampled),
    ("model.sample_walks_packed", [(model, "sample_walks_packed")], _count_sampled_packed),
    ("sampling.jsonl", [(sampling, "walks_to_jsonl"), (sampling, "walks_from_jsonl")], None),
    ("encoding.encode_batch", [(model, "encode_batch")], _count_encoded),
    ("encoding.walk_feature_matrix", [(encoding, "walk_feature_matrix")], _count_features),
    ("tensorio.dumps_tensor", [(tensorio, "dumps_tensor")], _count_tensor_bytes),
    ("tensorio.checkpoint", [(training, "save_checkpoint"), (training, "load_checkpoint")], None),
    ("autodiff.backward", [(training, "backward")], _count_tape),
    *[(f"autodiff.{name}", [(autodiff, name)], None) for name in AUTODIFF_OPS],
    ("seqlayers.conv", [(seqlayers.ConvLayer, "__call__")], None),
    ("seqlayers.selective", [(seqlayers.SelectiveLayer, "__call__")], None),
    ("model.forward", [(model.Model, "forward")], None),
    ("model.pack_graphs", [(model, "pack_graphs"), (training, "pack_graphs")], None),
    *[(f"model.{name}", [(model, name)], None)
      for name in ("embed_walks", "aggregate_nodes", "aggregate_edges", "local_mp_gin",
                   "global_mp_virtual_node", "global_mp_transformer")],
    ("optim.step", [(optim.AdamW, "step")], None),
    *[(f"training.{name}", [(training, name)], None)
      for name in ("train_model", "evaluate", "predict", "regression_loss")],
    ("datasets.make_dataset", [(datasets, "make_dataset")], None),
    ("oracle.triangle_count", [(datasets, "triangle_count")], None),
]

SPAN_NAMES = [name for name, _, _ in SPANS]

# (metric, unit, better): the counts, then the op remainder and the trace's own figures.
COUNTS = [
    ("graphs.has_edges.queries", "count", "lower"),
    ("sampling.walk_steps", "count", "higher"),
    ("sampling.valid_position_share", "share", "higher"),
    ("encoding.bytes_out", "B", "lower"),
    ("tensorio.bytes", "B", "lower"),
    ("autodiff.tape_records", "count", "lower"),
    ("other", "ms", "lower"),
    ("trace.op_ms", "ms", "lower"),
    ("trace.span_coverage", "share", "higher"),
    ("trace.overhead_share", "share", "lower"),
]


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric of the traced run as (name, unit, better)."""
    spec = []
    for name in SPAN_NAMES:
        spec += [(f"{name}.ms", "ms", "lower"), (f"{name}.self_ms", "ms", "lower"),
                 (f"{name}.calls", "count", "lower")]
    return spec + COUNTS


def span_patches(rec: Recorder) -> list:
    return [(owner, attr, lambda old, n=name, c=counter: rec.wrap(n, old, c))
            for name, targets, counter in SPANS for owner, attr in targets]


# =============================================================================
# From spans to per-layer metrics
# =============================================================================

def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def consistency_errors(rec: Recorder, tol: float = 1e-9) -> list[str]:
    """Tracer consistency check: every in-op span descends from its op's
    pseudo-span, and the self times inside each op add up to the op's
    duration. Because ``other`` is the op pseudo-span's own self time, the
    sum holds by construction for well-nested spans, so this catches nesting
    bugs in the tracer, not gaps in what the spans cover; that share is
    ``trace.span_coverage``."""
    spans = rec.spans
    own = self_times(spans)
    op_index = {}
    for i, s in enumerate(spans):
        if s[0] == OP:
            op_index[s[4]] = i
    total = {k: 0.0 for k in op_index}
    problems = []
    for i, s in enumerate(spans):
        if s[4] < 0:
            continue
        j = i
        while j >= 0 and spans[j][0] != OP:
            j = spans[j][3]
        if j != op_index.get(s[4]):
            problems.append(f"span {s[0]} of op {s[4]} is not nested in that op")
            continue
        total[s[4]] += own[i]
    for k, i in op_index.items():
        dur = spans[i][2] - spans[i][1]
        if abs(total[k] - dur) > tol + 1e-9 * dur:
            problems.append(f"op {k}: self times sum to {total[k]:.9f}s, op took {dur:.9f}s")
    return problems


def layer_metrics(rec: Recorder, n_setup: int, untraced_ops: list[Op]) -> dict[str, float]:
    """Per-layer figures of a traced phase.

    Spans and counts from the run phase are divided by the number of ops and
    those from set-up by the number of set-ups, so each figure is "per op"
    (or "per set-up" for work that only happens there). ``other`` is the
    mean part of an op that no span inside it covers.
    """
    n_ops = max(len(rec.ops), 1)
    per = {SETUP: max(n_setup, 1), RUN: n_ops}
    own = self_times(rec.spans)
    acc = {(name, phase): [0.0, 0.0, 0] for name in SPAN_NAMES for phase in per}
    other = 0.0
    for s, self_s in zip(rec.spans, own):
        if s[0] == OP:
            other += self_s
            continue
        a = acc[s[0], s[5]]
        a[0] += s[2] - s[1]
        a[1] += self_s
        a[2] += 1
    out = {}
    for name in SPAN_NAMES:
        totals = [[x / per[phase] for x in acc[name, phase]] for phase in per]
        ms, self_ms, calls = (sum(col) for col in zip(*totals))
        out[f"{name}.ms"] = 1e3 * ms
        out[f"{name}.self_ms"] = 1e3 * self_ms
        out[f"{name}.calls"] = calls

    def count(name: str) -> float:
        return sum(v / per[phase] for (phase, n), v in rec.counts.items() if n == name)

    for name in ("graphs.has_edges.queries", "sampling.walk_steps",
                 "encoding.bytes_out", "tensorio.bytes", "autodiff.tape_records"):
        out[name] = count(name)
    allocated = count("sampling.allocated_positions")
    out["sampling.valid_position_share"] = (
        count("sampling.valid_positions") / allocated if allocated else 0.0)
    out["other"] = 1e3 * other / n_ops
    out["trace.op_ms"] = 1e3 * sum(op.seconds for op in rec.ops) / n_ops
    # Share of op time that named spans cover.
    out["trace.span_coverage"] = 1.0 - out["other"] / out["trace.op_ms"] if rec.ops else 0.0
    # Throughput lost to tracing: 1 - (traced ops/s) / (untraced ops/s).
    out["trace.overhead_share"] = 1.0 - (median_op_s(untraced_ops) / median_op_s(rec.ops))
    return out


def median_op_s(ops: list[Op]) -> float:
    return statistics.median(op.seconds for op in ops)
