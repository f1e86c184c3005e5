"""Per-layer spans recorded from outside the program.

The tracer rebinds the module attributes that callers look up at run time
(``splitmetric.trainer.sample_batch``, ``splitmetric.linkeval.cosine_knn``,
``splitmetric.cli.train`` and so on) to thin wrappers, and puts the
originals back on exit, so ``src/`` stays untouched.  Spans (name, start,
end, parent, counts) are kept in memory and summarised at the end: busy
time, calls and self time per span name and per layer, plus the counts the
wrappers take from each call's arguments and result.  Each installation of
the tracer is a segment (one pass of the workload, or one input build), and
the summaries are per round of passes and per build, so they do not grow
with the number of passes that fit in a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from splitmetric.losses import LOSS_KINDS

LAYERS = ("catalog", "embedstore", "synth", "splitgen", "losses", "linkeval", "trainer", "cli")
CLI_COMMANDS = ("synth", "split", "verify", "train", "eval", "mine", "dedup", "stats")
LOSS_BATCHES = (32, 128)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    counts: dict = field(default_factory=dict)


@dataclass(slots=True)
class Segment:
    """The spans recorded while the tracer was installed once."""

    group: str  # the pass's group, or Tracer.BUILD for an input build
    first: int  # index of its first span
    end: int = 0  # one past its last span


def _rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class RssSampler:
    """Peak resident set size of this process while the block runs."""

    def __init__(self, interval_s: float = 0.025) -> None:
        self.interval_s = interval_s
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _poll(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, _rss_bytes())
            self._stop.wait(self.interval_s)

    def __enter__(self) -> "RssSampler":
        self.peak = _rss_bytes()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, _rss_bytes())


# -- counts taken from each call, outside the span's own interval ----------

def _ids_scanned(args, result) -> dict:
    return {"ids_scanned": len(args[0])}


def _knn_cells(args, result) -> dict:
    return {"cells": args[0].n * args[1].n}


def _pairs(args, result) -> dict:
    return {"pairs": len(result.pairs)}


def _mined(args, result) -> dict:
    n = args[0].n
    return {"kept": sum(len(v) for v in result.negatives.values()), "ranked": n * (n - 1)}


def _emb_bytes_read(args, result) -> dict:
    return {"bytes": 12 + 4 * result.data.size}


def _emb_bytes_written(args, result) -> dict:
    return {"bytes": 12 + 4 * args[0].data.size}


def _batch_rows(args, result) -> dict:
    return {"rows": args[1].size}


def _loss_name(args) -> str:
    return f"losses.{args[0]}"


def _cli_name(args) -> str:
    return f"cli.{args[0][0]}"


# (module, attribute, span name or a function of the call's arguments giving
# it, counts).  Every binding a caller looks up is listed, so a function
# imported into two modules is wrapped in both.
BINDINGS = (
    ("splitmetric.synth", "generate", "synth.generate", None),
    ("splitmetric.cli", "generate", "synth.generate", None),
    ("splitmetric.splitgen", "generate_splits", "splitgen.generate_splits", None),
    ("splitmetric.cli", "generate_splits", "splitgen.generate_splits", None),
    ("splitmetric.splitgen", "verify_splits", "splitgen.verify_splits", None),
    ("splitmetric.cli", "verify_splits", "splitgen.verify_splits", None),
    ("splitmetric.cli", "load_assignment", "splitgen.load_assignment", None),
    ("splitmetric.cli", "save_assignment", "splitgen.save_assignment", None),
    ("splitmetric.cli", "load_catalog", "catalog.load_catalog", None),
    ("splitmetric.cli", "save_catalog", "catalog.save_catalog", None),
    ("splitmetric.cli", "dedup_merge", "catalog.dedup_merge", None),
    ("splitmetric.cli", "stats", "catalog.stats", None),
    ("splitmetric.embedstore", "cosine_knn", "embedstore.cosine_knn", _knn_cells),
    ("splitmetric.linkeval", "cosine_knn", "embedstore.cosine_knn", _knn_cells),
    ("splitmetric.cli", "read_embeddings", "embedstore.read_embeddings", _emb_bytes_read),
    ("splitmetric.cli", "write_embeddings", "embedstore.write_embeddings", _emb_bytes_written),
    ("splitmetric.linkeval", "sample_eval_pairs", "linkeval.sample_eval_pairs", _pairs),
    ("splitmetric.linkeval", "auroc", "linkeval.auroc", None),
    ("splitmetric.linkeval", "evaluate", "linkeval.evaluate", None),
    ("splitmetric.cli", "evaluate", "linkeval.evaluate", None),
    ("splitmetric.linkeval", "mine_hard_negatives", "linkeval.mine_hard_negatives", _mined),
    ("splitmetric.cli", "mine_hard_negatives", "linkeval.mine_hard_negatives", _mined),
    ("splitmetric.trainer", "sample_batch", "trainer.sample_batch", _ids_scanned),
    ("splitmetric.trainer", "train_step", "trainer.train_step", None),
    ("splitmetric.trainer", "forward", "trainer.forward", None),
    ("splitmetric.cli", "forward", "trainer.forward", None),
    ("splitmetric.trainer", "head_backward", "trainer.head_backward", None),
    ("splitmetric.trainer", "train", "trainer.train", None),
    ("splitmetric.cli", "train", "trainer.train", None),
    ("splitmetric.cli", "save_model", "trainer.save_model", None),
    ("splitmetric.cli", "load_model", "trainer.load_model", None),
    ("splitmetric.losses", "compute_loss", _loss_name, _batch_rows),
    ("splitmetric.trainer", "compute_loss", _loss_name, _batch_rows),
    ("splitmetric.cli", "main", _cli_name, None),
)


class Tracer:
    BUILD = "build"

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.segments: list[Segment] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _record(self, name, fn, args, kwargs, counts, rss: bool):
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(index)
        try:
            with RssSampler() if rss else nullcontext() as sampler:
                span.start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
        finally:
            self._stack.pop()
        if counts is not None:
            span.counts = counts(args, result)
        if rss:
            span.counts["peak_rss"] = sampler.peak
        return result

    def wrap(self, fn, name, counts=None):
        rss = name == "linkeval.mine_hard_negatives"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args)
            return self._record(span_name, fn, args, kwargs, counts, rss)

        return wrapper

    def _bind(self, module_name: str, attr: str, wrapped) -> None:
        module = importlib.import_module(module_name)
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapped)

    @contextmanager
    def installed(self, group: str = ""):
        """Rebind every traced name for the duration of the block, which is
        one segment; a pass's group can be set on the segment once known."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        segment = Segment(group, len(self.spans))
        try:
            for module_name, attr, name, counts in BINDINGS:
                original = getattr(importlib.import_module(module_name), attr)
                self._bind(module_name, attr, self.wrap(original, name, counts))
            # linkeval.evaluate is already the wrapped one here, so the
            # per-epoch val eval nests a linkeval.evaluate span in its own
            evaluate = importlib.import_module("splitmetric.linkeval").evaluate
            self._bind("splitmetric.trainer", "evaluate", self.wrap(evaluate, "trainer.val_eval"))
            yield segment
        finally:
            for module, attr, original in reversed(self._saved):
                setattr(module, attr, original)
            self._saved.clear()
            segment.end = len(self.spans)
            self.segments.append(segment)

    # -- summaries --------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def summary(self, segments) -> dict:
        """Span name or layer -> {"s", "self_s", "calls", counts}, per round:
        the mean over each group's segments, summed over the groups.

        A layer's busy time `s` counts its outermost spans only.
        """
        own = self.self_times()
        per_group = Counter(seg.group for seg in segments)
        table: dict = {}

        def add(key, values, weight):
            row = table.setdefault(key, {})
            for name, value in values.items():
                if name == "peak_rss":
                    row[name] = max(row.get(name, 0), value)
                else:
                    row[name] = row.get(name, 0) + weight * value

        for seg in segments:
            weight = 1 / per_group[seg.group]
            for i in range(seg.first, seg.end):
                span = self.spans[i]
                dt = span.end - span.start
                add(span.name, {"s": dt, "self_s": own[i], "calls": 1, **span.counts}, weight)
                layer = span.name.split(".", 1)[0]
                outer = span.parent < 0 or self.spans[span.parent].name.split(".", 1)[0] != layer
                add(layer, {"s": dt if outer else 0.0, "self_s": own[i]}, weight)
        return table

    def loss_latencies_ms(self, segments) -> dict:
        """(kind, batch rows) -> call durations in ms."""
        out: dict = {}
        for seg in segments:
            for span in self.spans[seg.first:seg.end]:
                if span.name.startswith("losses."):
                    key = (span.name.split(".", 1)[1], span.counts["rows"])
                    out.setdefault(key, []).append(1e3 * (span.end - span.start))
        return out

    def dump(self, path) -> None:
        """All spans as JSON lines: segment group, name, start, end, parent, counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for seg in self.segments:
                for s in self.spans[seg.first:seg.end]:
                    fh.write(json.dumps({"group": seg.group, "name": s.name, "start": s.start,
                                         "end": s.end, "parent": s.parent,
                                         "counts": s.counts}) + "\n")


SETUP_SPANS = ("synth.generate", "splitgen.generate_splits", "splitgen.verify_splits",
               "trainer.forward")


def per_layer_metrics(tracer: Tracer, overhead_s: float, untraced_s: float) -> dict:
    """The per-layer metrics a traced run reports, every name always present.

    Times and counts are per round of traced passes (one pass of each group),
    except the `setup.*` ones, which are per traced input build.
    """
    passes = [seg for seg in tracer.segments if seg.group not in ("", Tracer.BUILD)]
    builds = [seg for seg in tracer.segments if seg.group == Tracer.BUILD]
    rounds = tracer.summary(passes)
    per_build = tracer.summary(builds)

    def get(name, key, table=rounds):
        return table.get(name, {}).get(key, 0)

    m: dict = {}

    def put(key, value, unit):
        m[key] = {"value": float(value), "unit": unit}

    for layer in LAYERS:
        put(f"{layer}.s", get(layer, "s"), "s")
        put(f"{layer}.self_s", get(layer, "self_s"), "s")
    put("trainer.train.s", get("trainer.train", "s"), "s")
    put("trainer.train.self_s", get("trainer.train", "self_s"), "s")
    put("trainer.sample_batch.s", get("trainer.sample_batch", "s"), "s")
    put("trainer.sample_batch.calls", get("trainer.sample_batch", "calls"), "count")
    put("trainer.sample_batch.ids_scanned", get("trainer.sample_batch", "ids_scanned"), "count")
    put("trainer.train_step.self_s", get("trainer.train_step", "self_s"), "s")
    put("trainer.forward.s", get("trainer.forward", "s"), "s")
    put("trainer.head_backward.s", get("trainer.head_backward", "s"), "s")
    put("trainer.val_eval.s", get("trainer.val_eval", "s"), "s")
    latencies = tracer.loss_latencies_ms(passes)
    for kind in LOSS_KINDS:
        put(f"losses.{kind}.s", get(f"losses.{kind}", "s"), "s")
        put(f"losses.{kind}.calls", get(f"losses.{kind}", "calls"), "count")
        for rows in LOSS_BATCHES:
            ms = latencies.get((kind, rows), [0.0])
            put(f"losses.{kind}.b{rows}.p50_ms", np.percentile(ms, 50), "ms")
            put(f"losses.{kind}.b{rows}.p99_ms", np.percentile(ms, 99), "ms")
    put("embedstore.cosine_knn.s", get("embedstore.cosine_knn", "s"), "s")
    put("embedstore.cosine_knn.calls", get("embedstore.cosine_knn", "calls"), "count")
    put("embedstore.cosine_knn.cells", get("embedstore.cosine_knn", "cells"), "count")
    for op in ("read_embeddings", "write_embeddings"):
        put(f"embedstore.{op}.s", get(f"embedstore.{op}", "s"), "s")
        put(f"embedstore.{op}.bytes", get(f"embedstore.{op}", "bytes"), "count")
    mine = "linkeval.mine_hard_negatives"
    put(f"{mine}.s", get(mine, "s"), "s")
    put(f"{mine}.self_s", get(mine, "self_s"), "s")
    put(f"{mine}.peak_rss_mb", get(mine, "peak_rss") / 2**20, "MB")
    ranked = get(mine, "ranked")
    put(f"{mine}.kept_fraction", get(mine, "kept") / ranked if ranked else 0.0, "ratio")
    put("linkeval.evaluate.s", get("linkeval.evaluate", "s"), "s")
    put("linkeval.evaluate.self_s", get("linkeval.evaluate", "self_s"), "s")
    put("linkeval.sample_eval_pairs.s", get("linkeval.sample_eval_pairs", "s"), "s")
    put("linkeval.sample_eval_pairs.pairs", get("linkeval.sample_eval_pairs", "pairs"), "count")
    put("linkeval.auroc.s", get("linkeval.auroc", "s"), "s")
    put("synth.generate.s", get("synth.generate", "s"), "s")
    for op in ("generate_splits", "verify_splits"):
        put(f"splitgen.{op}.s", get(f"splitgen.{op}", "s"), "s")
    for op in ("load_catalog", "save_catalog", "dedup_merge"):
        put(f"catalog.{op}.s", get(f"catalog.{op}", "s"), "s")
    for command in CLI_COMMANDS:
        put(f"cli.{command}.s", get(f"cli.{command}", "s"), "s")
    roots = sum(s.end - s.start for seg in builds for s in tracer.spans[seg.first:seg.end]
                if s.parent < 0)
    put("setup.s", roots / len(builds) if builds else 0.0, "s")
    for name in SETUP_SPANS:
        put(f"setup.{name}.s", get(name, "s", per_build), "s")
    put("trace.spans", sum(row.get("calls", 0) for row in rounds.values()), "count")
    put("trace.overhead_s", overhead_s, "s")
    put("trace.overhead_ratio", overhead_s / untraced_s if untraced_s else 0.0, "ratio")
    return m
