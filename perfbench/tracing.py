"""Spans and counters for the benchmark's traced run.

``Tracer.install`` replaces the library's public functions at their module
boundaries -- each binding a caller looks up at call time, including the
names one module imports from another -- with wrappers that record a span
per call (id, name, start, end, parent span) and counters at the same
boundaries.  ``Tracer.restore`` puts every original back.  Nothing under
src/ changes; the wrappers exist only in the traced process.

Spans stay in memory until ``dump`` writes them out after the run.  A
span's self time is its duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import gc
import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import sparsegt.attention as attention
import sparsegt.datasets as datasets
import sparsegt.graphs as graphs
import sparsegt.numerics as numerics
import sparsegt.pipeline as pipeline
import sparsegt.sampling as sampling

TAPE_OPS = ("gather_rows", "matmul", "batched_matmul", "masked_softmax",
            "layer_norm", "batch_norm", "normalize_rows", "add", "mul",
            "reshape", "relu", "softmax_cross_entropy", "bce_with_logits")
SAMPLE_STATS = ("rows_sampled", "uniform_fallbacks", "prefilter_truncated",
                "prefilter_kept_full")
PHASES = ("train_estimator", "train_final", "predict")

# span name -> metric name, for the spans whose total time is a metric
_TIMED = {
    "datasets.gen": "datasets.gen_s",
    "graphs.build_expander": "graphs.build_expander_s",
    "graphs.spectral_gap": "graphs.spectral_gap_s",
    "graphs.augment": "graphs.augment_s",
    "attention.forward_train": "attention.forward_train_s",
    "attention.forward_eval": "attention.forward_eval_s",
    "attention.sublayer": "attention.sublayer_s",
    "attention.pattern_geometry": "attention.pattern_geometry_s",
    "attention.state_dict": "attention.state_dict_s",
    "numerics.backward": "numerics.backward_s",
    "numerics.adamw_step": "numerics.adamw_step_s",
    "numerics.save_checkpoint": "numerics.save_checkpoint_s",
    **{f"numerics.op.{op}": f"numerics.op_s.{op}" for op in TAPE_OPS},
    **{f"numerics.op_backward.{op}": f"numerics.op_backward_s.{op}"
       for op in TAPE_OPS},
    "sampling.resample_epoch": "sampling.resample_epoch_s",
    "sampling.sample_batch": "sampling.sample_batch_s",
    "sampling.reservoir_sample": "sampling.reservoir_sample_s",
    "sampling.prefilter_topk": "sampling.prefilter_topk_s",
    "sampling.plan_geometries": "sampling.plan_geometries_s",
    "sampling.scores_from_padded": "sampling.scores_from_padded_s",
    "sampling.validate_scores": "sampling.validate_scores_s",
    "sampling.save_scores_npz": "sampling.save_scores_npz_s",
    "rngutil.derive": "rngutil.derive_s",
    **{f"pipeline.{p}": f"pipeline.{p}_s" for p in PHASES},
    "pipeline.save_history_csv": "pipeline.save_history_csv_s",
    "gc.pause": "gc.pause_s",
}
# span name -> metric name, for the spans whose call count is a metric
_CALLS = {
    "graphs.spectral_gap": "graphs.spectral_gap_calls",
    "numerics.backward": "numerics.backward_calls",
    "numerics.adamw_step": "numerics.adamw_step_calls",
    **{f"numerics.op.{op}": f"numerics.op_calls.{op}" for op in TAPE_OPS},
    "sampling.sample_batch": "sampling.sample_batch_calls",
    "sampling.reservoir_sample": "sampling.reservoir_sample_calls",
    "rngutil.derive": "rngutil.derive_calls",
    "gc.pause": "gc.collections",
}
_SELF = {f"pipeline.{p}": f"pipeline.{p}_self_s" for p in PHASES}
_COUNTERS = ("attention.padded_slots", "attention.live_slots",
             "numerics.gather_bytes", "numerics.scatter_bytes",
             *(f"sampling.{f}" for f in SAMPLE_STATS), "gc.collected_objects")


def metric_names() -> list:
    """Every per-layer metric ``Tracer.metrics`` reports, sorted."""
    names = [*_TIMED.values(), *_CALLS.values(), *_SELF.values(), *_COUNTERS,
             "attention.forward_calls", "attention.live_slot_ratio"]
    return sorted(names)


def unit_of(name: str) -> str:
    if name.endswith("_s") or "_s." in name:   # numerics.op_s.<op> too
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id or -1), in end order
        self.counts = defaultdict(int)
        self._open = []          # (id, name) of the spans being timed
        self._ids = itertools.count()
        self._saved = []         # (owner, attr, original) to put back
        self._gc_start = 0.0

    # -- recording ----------------------------------------------------------

    def _timed(self, name, fn, before=None, after=None):
        """``fn`` wrapped in a span; ``name`` may be a function of the call.

        ``before(args, kwargs)`` runs ahead of the span and returns a token
        that ``after(result, token)`` receives once the span has ended.
        """
        spans, open_, ids, clock = self.spans, self._open, self._ids, time.perf_counter
        dynamic = callable(name)

        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            label = name(args, kwargs) if dynamic else name
            sid = next(ids)
            parent = open_[-1][0] if open_ else -1
            open_.append((sid, label))
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans.append((sid, label, start, end, parent))
            if after is not None:
                after(out, token)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        sid = next(self._ids)
        parent = self._open[-1][0] if self._open else -1
        self._open.append((sid, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append((sid, name, start, end, parent))

    def _inside(self, name) -> bool:
        return any(label == name for _, label in self._open)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        end = time.perf_counter()
        parent = self._open[-1][0] if self._open else -1
        self.spans.append((next(self._ids), "gc.pause", self._gc_start, end, parent))
        self.counts["gc.collected_objects"] += info["collected"]

    # -- counters at the boundaries -----------------------------------------

    def _count_slots(self, args, kwargs):
        """Padded and live key slots of every estimator forward pass."""
        if not self._inside("pipeline.train_estimator"):
            return None
        geoms = args[2] if len(args) > 2 else kwargs["geoms"]
        for geom in geoms:
            self.counts["attention.padded_slots"] += geom.key_mask.size
            self.counts["attention.live_slots"] += int(np.count_nonzero(geom.key_mask))
        return None

    @staticmethod
    def _forward_name(args, kwargs):
        training = kwargs.get("training", args[4] if len(args) > 4 else False)
        return "attention.forward_train" if training else "attention.forward_eval"

    def _tape_op(self, op):
        """Times the op's backward closure and counts gather/scatter bytes."""
        bw_name = f"numerics.op_backward.{op}"
        counts, timed = self.counts, self._timed
        gather = op == "gather_rows"

        def after(out, _token):
            nbytes = out.data.nbytes
            if gather:
                counts["numerics.gather_bytes"] += nbytes
            if out._backward is None:
                return

            def scattered(_result, _token):
                counts["numerics.scatter_bytes"] += nbytes
            out._backward = timed(bw_name, out._backward,
                                  after=scattered if gather else None)
        return after

    def _stats_before(self, args, kwargs):
        stats = kwargs.get("stats")
        if stats is None:
            return None
        return {f: getattr(stats, f) for f in SAMPLE_STATS}

    def _stats_after(self, plan, before):
        for f in SAMPLE_STATS:
            self.counts[f"sampling.{f}"] += (getattr(plan.stats, f)
                                            - (before[f] if before else 0))

    def _boundaries(self):
        """(span name, bindings, hooks) for every wrapped public function."""
        yield "datasets.gen", [(datasets, "gen_dataset")], {}
        yield "graphs.build_expander", [(graphs, "build_expander")], {}
        yield "graphs.spectral_gap", [(graphs, "spectral_gap")], {}
        yield "graphs.augment", [(graphs, "augment")], {}
        yield (self._forward_name, [(attention.Network, "forward")],
               {"before": self._count_slots})
        yield "attention.sublayer", [(attention, "attention_sublayer")], {}
        yield ("attention.pattern_geometry",
               [(attention, "pattern_geometry"), (pipeline, "pattern_geometry")], {})
        yield "attention.state_dict", [(attention.Network, "state_dict")], {}
        yield "numerics.backward", [(numerics, "backward")], {}
        yield "numerics.adamw_step", [(numerics.AdamW, "step")], {}
        yield "numerics.save_checkpoint", [(numerics, "save_checkpoint")], {}
        for op in TAPE_OPS:
            yield f"numerics.op.{op}", [(numerics, op)], {"after": self._tape_op(op)}
        yield ("sampling.resample_epoch",
               [(sampling, "resample_epoch"), (pipeline, "resample_epoch")], {})
        yield ("sampling.sample_batch",
               [(sampling, "sample_batch"), (pipeline, "sample_batch")],
               {"before": self._stats_before, "after": self._stats_after})
        yield "sampling.reservoir_sample", [(sampling, "reservoir_sample")], {}
        yield "sampling.prefilter_topk", [(sampling, "prefilter_topk")], {}
        yield ("sampling.plan_geometries",
               [(sampling, "plan_geometries"), (pipeline, "plan_geometries")], {})
        yield ("sampling.scores_from_padded",
               [(sampling, "scores_from_padded"), (pipeline, "scores_from_padded")], {})
        yield ("sampling.validate_scores",
               [(sampling, "validate_scores"), (pipeline, "validate_scores")], {})
        yield ("sampling.save_scores_npz",
               [(sampling, "save_scores_npz"), (pipeline, "save_scores_npz")], {})
        yield "rngutil.derive", [(sampling, "derive"), (pipeline, "derive")], {}
        for p in PHASES:
            yield f"pipeline.{p}", [(pipeline, p)], {}
        yield "pipeline.save_history_csv", [(pipeline, "save_history_csv")], {}

    # -- install / restore --------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary that exists; a missing one reports zeros."""
        for name, bindings, hooks in self._boundaries():
            wrappers = {}
            for owner, attr in bindings:
                original = vars(owner).get(attr)
                if original is None:
                    continue
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._timed(name, original, **hooks)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrappers[id(original)])
        gc.callbacks.append(self._on_gc)

    def restore(self) -> None:
        """Put every original back and stop listening to the collector."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Every name of ``metric_names()`` with its value from the spans."""
        total = defaultdict(float)
        calls = defaultdict(int)
        children = defaultdict(float)
        for sid, name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                children[parent] += end - start
        own = defaultdict(float)
        for sid, name, start, end, parent in self.spans:
            if name in _SELF:
                own[name] += (end - start) - children[sid]
        out = {metric: total[span] for span, metric in _TIMED.items()}
        out.update({metric: calls[span] for span, metric in _CALLS.items()})
        out.update({metric: own[span] for span, metric in _SELF.items()})
        out.update({name: self.counts[name] for name in _COUNTERS})
        out["attention.forward_calls"] = (calls["attention.forward_train"]
                                          + calls["attention.forward_eval"])
        padded = self.counts["attention.padded_slots"]
        out["attention.live_slot_ratio"] = (
            self.counts["attention.live_slots"] / padded if padded else 0.0)
        return {name: out[name] for name in metric_names()}

    def dump(self, path) -> None:
        """Write the spans as JSON: names once, then (id, name, start, end, parent)."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = min((s[2] for s in self.spans), default=0.0)
        rows = [[sid, index[name], round(start - t0, 9), round(end - t0, 9), parent]
                for sid, name, start, end, parent in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "columns": ["id", "name", "start_s", "end_s",
                                                   "parent"], "spans": rows}, fh)
