"""Span tracer that times calls into the hnhn modules from outside.

`Tracer.install` swaps chosen functions and methods of the already imported
hnhn modules for wrappers. While the tracer is enabled each call records a
span (name, start, end, parent) in memory and may add to named counters;
while it is disabled a wrapper only forwards the call. `uninstall` puts the
originals back. The package's own code is not changed.

Every time a layer reports is self time: a span's duration minus the part
its child spans cover, so the self times of one phase add up to the time
that phase spent inside traced calls.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy as np

# Tape steps are attributed to the op that recorded them.
_BACKWARD_OF = {
    "autodiff.matmul": "autodiff.backward.matmul",
    "autodiff.segment_mean": "autodiff.backward.segment_mean",
}

# Layer metrics in the order BENCHMARK.json lists them; "_s" names are self
# times of the span of the same stem, the rest are counters.
LAYER_METRICS = {
    "data.ingest_s": "s",
    "data.features_s": "s",
    "data.hypergraph_s": "s",
    "data.tokens": "count",
    "hypergraph.read_s": "s",
    "hypergraph.build_s": "s",
    "hypergraph.prune_s": "s",
    "autodiff.read_tensor_s": "s",
    "hypergraph.tables_s": "s",
    "hypergraph.tables_calls": "count",
    "autodiff.segment_mean_s": "s",
    "autodiff.segment_mean_calls": "count",
    "autodiff.segment_mean_bytes": "B",
    "autodiff.matmul_s": "s",
    "autodiff.matmul_flops": "flop",
    "autodiff.elementwise_s": "s",
    "autodiff.xent_s": "s",
    "autodiff.backward_s": "s",
    "autodiff.backward.segment_mean_s": "s",
    "autodiff.backward.matmul_s": "s",
    "autodiff.backward.other_s": "s",
    "autodiff.tape_steps": "count",
    "model.init_s": "s",
    "model.forward_train_s": "s",
    "model.forward_eval_s": "s",
    "model.forward_calls": "count",
    "rng.random_s": "s",
    "rng.values_drawn": "count",
    "training.fit_s": "s",
    "training.fits": "count",
    "training.epochs": "count",
    "training.adam_s": "s",
    "training.cv_s": "s",
}


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _segment_bytes(counts, args, kwargs, result) -> None:
    x = _arg(args, kwargs, 0, "x")
    index = _arg(args, kwargs, 1, "index_lists")
    incidences = len(index.source_ids) if hasattr(index, "source_ids") else sum(map(len, index))
    counts["autodiff.segment_mean_calls"] += 1
    # Computed, not measured: one gather and one scatter of a float64 row
    # per incidence.
    counts["autodiff.segment_mean_bytes"] += 2 * 8 * incidences * x.shape[1]


def _matmul_flops(counts, args, kwargs, result) -> None:
    a = _arg(args, kwargs, 0, "a")
    b = _arg(args, kwargs, 1, "b")
    counts["autodiff.matmul_flops"] += 2 * a.shape[0] * a.shape[1] * b.shape[1]


def _fit_count(counts, args, kwargs, result) -> None:
    counts["training.fits"] += 1
    counts["training.epochs"] += _arg(args, kwargs, 4, "config").epochs


def _values_drawn(counts, args, kwargs, result) -> None:
    counts["rng.values_drawn"] += int(np.size(result))


def _calls(name: str):
    def count(counts, args, kwargs, result) -> None:
        counts[name] += 1
    return count


def _tokens(counts, args, kwargs, result) -> None:
    counts["data.tokens"] += len(result)


def _forward_name(args, kwargs) -> str:
    return "model.forward_train" if kwargs.get("training", False) else "model.forward_eval"


class Tracer:
    """In-memory span recorder plus counters, toggled by `enabled`."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(
        self,
        name: str | Callable[[tuple, dict], str] | None,
        fn: Callable,
        count: Callable | None = None,
    ) -> Callable:
        """Wrap fn: a span called `name` (None: counters only) per call."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if name is None:
                result = fn(*args, **kwargs)
            else:
                idx = tracer._open(name(args, kwargs) if callable(name) else name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def region(self, name: str):
        """A benchmark-level span (a phase or a round) around a block."""
        if not self.enabled:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- installation -------------------------------------------------------

    def _replace_everywhere(self, original, wrapped) -> None:
        """Rebind every hnhn module global that is `original`."""
        modules = [m for n, m in sys.modules.items() if n == "hnhn" or n.startswith("hnhn.")]
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, key, original))
                    setattr(module, key, wrapped)

    def _function(self, module, attr: str, name, count=None) -> None:
        original = getattr(module, attr)
        self._replace_everywhere(original, self.wrap(name, original, count))

    def _method(self, cls, attr: str, name, count=None) -> None:
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, count))

    def install(self) -> None:
        from hnhn import autodiff, data, hypergraph, model, rng, training

        self._function(data, "run_ingest", "data.ingest")
        self._function(data, "tfidf_features", "data.features")
        self._function(data, "bow_features", "data.features")
        self._function(data, "tokenize", None, _tokens)
        self._function(data, "build_cocitation_hypergraph", "data.hypergraph")
        self._function(data, "build_coauthorship_hypergraph", "data.hypergraph")
        self._function(hypergraph, "read_hypergraph", "hypergraph.read")
        self._function(hypergraph, "build_hypergraph", "hypergraph.build")
        self._function(hypergraph, "prune", "hypergraph.prune")
        self._function(
            hypergraph, "normalization_tables", "hypergraph.tables", _calls("hypergraph.tables_calls")
        )
        self._function(autodiff, "read_tensor", "autodiff.read_tensor")
        self._function(autodiff, "segment_mean_weighted", "autodiff.segment_mean", _segment_bytes)
        self._function(autodiff, "matmul", "autodiff.matmul", _matmul_flops)
        for op in ("add_bias", "relu", "dropout", "row_scale"):
            self._function(autodiff, op, "autodiff.elementwise")
        self._function(autodiff, "softmax_cross_entropy", "autodiff.xent")
        self._function(model, "init_model", "model.init")
        self._function(model, "forward", _forward_name, _calls("model.forward_calls"))
        self._function(training, "_train_loop", "training.fit", _fit_count)
        self._function(training, "adam_step", "training.adam")
        self._function(training, "cross_validate_alpha_beta", "training.cv")
        self._method(autodiff.Tape, "backward", "autodiff.backward")
        self._method(rng.CounterRng, "random", "rng.random", _values_drawn)

        tracer = self
        original_record = autodiff.Tape.__dict__["record"]

        def record(tape, step):
            if tracer.enabled:
                tracer.counts["autodiff.tape_steps"] += 1
                op = tracer.names[tracer._stack[-1]] if tracer._stack else ""
                step = tracer.wrap(_BACKWARD_OF.get(op, "autodiff.backward.other"), step)
            return original_record(tape, step)

        self._patched.append((autodiff.Tape, "record", original_record))
        autodiff.Tape.record = record

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def mark(self) -> tuple[int, dict[str, float]]:
        """Position to measure from: span count and a copy of the counters."""
        return len(self.names), dict(self.counts)

    def layer_totals(
        self, since: tuple[int, dict[str, float]], until: tuple[int, dict[str, float]] | None = None
    ) -> dict[str, float]:
        """Self time per span name and counter deltas between two marks."""
        first, counts_then = since
        last, counts_now = until if until is not None else self.mark()
        child = defaultdict(float)
        for i in range(first, last):
            if self.parents[i] >= first:
                child[self.parents[i]] += self.ends[i] - self.starts[i]
        totals: dict[str, float] = defaultdict(float)
        for i in range(first, last):
            totals[self.names[i] + "_s"] += self.ends[i] - self.starts[i] - child[i]
        for key, value in counts_now.items():
            totals[key] += value - counts_then.get(key, 0.0)
        return dict(totals)

    def write(self, path: Path, meta: dict) -> None:
        """Write every span as [name index, start, end, parent] plus meta."""
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        base = self.starts[0] if self.starts else 0.0
        spans = [
            [index[n], round(s - base, 9), round(e - base, 9), p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "names": names, "spans": spans}, fh, separators=(",", ":"))
