"""Benchmark-side tracing: spans around the program's public entry points.

:class:`Tracer` patches the public functions and methods listed in
``ENTRY_POINTS`` while a ``with tracer.active():`` block runs, and records
one span per call (name, start, end, parent) in memory.  Patches are undone
when the block exits, so untraced rounds run the program unchanged; the
program's own files are never edited.

:func:`ledger` folds spans into per-name call counts, inclusive time,
self time (a span's duration minus the part its child spans cover) and
call-latency percentiles, and
:func:`layer_metrics` turns a ledger into the benchmark's per-layer
metrics.
"""

from __future__ import annotations

import importlib
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from repro.dataplat.observability import get_metrics


def _world_rows(world) -> dict:
    rows = sum(t.num_rows for m in world.months for t in m.tables.values())
    return {"datagen.rows": rows}


def _sql_rows(table) -> dict:
    return {"sql.rows_out": table.num_rows}


def _lookup_rows(rows) -> dict:
    return {"serve.lookup_rows": len(rows)}


def _scored_rows(scores) -> dict:
    return {"serve.scored_rows": len(scores)}


def _tree_nodes(tree) -> dict:
    return {"ml.tree_nodes": tree.node_count}


#: (module, attribute, span name or None for no span, hook turning the
#: call's result into counter increments or None).  The ``features.build``
#: entries are the family builders ``WideTableBuilder.category`` calls on a
#: cache miss, so their call count is the number of blocks built.
ENTRY_POINTS = (
    ("repro.datagen.simulator", "TelcoSimulator.run", "datagen.simulate", _world_rows),
    ("repro.core.pipeline", "ChurnPipeline.run_window", "core.window", None),
    ("repro.features.widetable", "WideTableBuilder.fit_extractors", "features.fit_extractors", None),
    ("repro.features.widetable", "build_f1", "features.build", None),
    ("repro.features.widetable", "build_f2", "features.build", None),
    ("repro.features.widetable", "build_f3", "features.build", None),
    ("repro.features.graph_features", "GraphFeatureBuilder.build", "features.build", None),
    ("repro.features.topic_features", "TopicFeatureExtractor.transform", "features.build", None),
    ("repro.features.second_order", "SecondOrderSelector.transform", "features.build", None),
    ("repro.ml.lda", "LatentDirichletAllocation.fit_transform", "ml.lda_fit", None),
    ("repro.ml.lda", "LatentDirichletAllocation.transform", "ml.lda_transform", None),
    ("repro.ml.forest", "RandomForestClassifier.fit", "ml.forest_fit", None),
    ("repro.ml.tree", "DecisionTree.fit", None, _tree_nodes),
    ("repro.ml.forest", "RandomForestClassifier.predict_proba", "ml.forest_predict", None),
    ("repro.dataplat.sql.engine", "SQLEngine.query", "sql.query", _sql_rows),
    ("repro.dataplat.catalog", "Catalog.save", "catalog.save", None),
    ("repro.dataplat.catalog", "Catalog.scan", "catalog.scan", None),
    ("repro.dataplat.catalog", "Catalog.load", "catalog.scan", None),
    ("repro.serve.service", "ScoringService.score", "serve.score", _scored_rows),
    ("repro.serve.feature_store", "FeatureStore.lookup", "serve.lookup", _lookup_rows),
    ("repro.serve.feature_store", "FeatureStore.materialize", "serve.materialize", None),
)

#: Program counters (``repro.dataplat.observability`` registry) read as
#: deltas over a traced phase.
PROGRAM_COUNTERS = (
    "blockstore.bytes_written",
    "blockstore.fsyncs",
    "table_cache.hits",
    "table_cache.misses",
    "columnar.chunks_skipped",
    "columnar.partitions_pruned",
    "serve.store.hits",
    "serve.store.misses",
)


class Tracer:
    """In-memory span recorder over patched entry points."""

    def __init__(self, phase: str) -> None:
        self.phase = phase
        #: Finished spans: (id, name, start_s, end_s, parent id or None).
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counters: Counter = Counter()
        self.self_s: Counter = Counter()
        self._stack: list[list] = []
        self._t0 = time.perf_counter()

    def _wrap(self, fn, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
                tracer.counters.update(hook(result))
                return result
            frame = [len(tracer.spans) + len(tracer._stack), 0.0]
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.self_s[name] += duration - frame[1]
                tracer.counters[name + ".calls"] += 1
                tracer.spans.append(
                    (frame[0], name, start - tracer._t0, end - tracer._t0, parent)
                )
            if hook is not None:
                tracer.counters.update(hook(result))
            return result

        return traced

    @contextmanager
    def active(self):
        """Patch every entry point for the duration of the block."""
        patched = []
        before = get_metrics().snapshot()["counters"]
        try:
            for module, attr, name, hook in ENTRY_POINTS:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                if not isinstance(original, types.FunctionType):
                    raise TypeError(f"{module}.{attr} is not a plain function")
                setattr(owner, leaf, self._wrap(original, name, hook))
                patched.append((owner, leaf, original))
            yield self
        finally:
            for owner, leaf, original in reversed(patched):
                setattr(owner, leaf, original)
            after = get_metrics().snapshot()["counters"]
            for key in PROGRAM_COUNTERS:
                self.counters[key] += after.get(key, 0) - before.get(key, 0)

    def export(self) -> list[dict]:
        return [
            {
                "id": sid,
                "name": name,
                "phase": self.phase,
                "start_s": start,
                "end_s": end,
                "parent": parent,
            }
            for sid, name, start, end, parent in sorted(self.spans)
        ]


def ledger(tracer: Tracer, per: int = 1) -> dict:
    """Self time, inclusive time, calls and counters, divided by ``per``,
    and the median and 99th percentile of each span name's durations."""
    inclusive: Counter = Counter()
    durations: dict[str, list[float]] = defaultdict(list)
    for _sid, name, start, end, _parent in tracer.spans:
        inclusive[name] += end - start
        durations[name].append(end - start)
    return {
        "self_s": {k: v / per for k, v in sorted(tracer.self_s.items())},
        "inclusive_s": {k: v / per for k, v in sorted(inclusive.items())},
        "counters": {k: v / per for k, v in sorted(tracer.counters.items())},
        "latency_ms": {
            k: {q: float(np.percentile(v, int(q[1:]))) * 1e3 for q in ("p50", "p99")}
            for k, v in sorted(durations.items())
        },
    }


#: Per-layer metric → (kind, source).  ``self`` reads a span's self time,
#: ``incl`` its inclusive time, ``count`` a counter, ``probe`` a value the
#: workload measured on its own stores, ``ratio`` hits over hits plus
#: misses, ``memo`` the share of scored ids that needed no lookup, and
#: ``pct`` a percentile of one span name's durations (a call's latency).
LAYER_METRICS = {
    "datagen.simulate_s": ("self", "datagen.simulate"),
    "datagen.rows": ("count", "datagen.rows"),
    "features.fit_extractors_s": ("self", "features.fit_extractors"),
    "features.build_s": ("self", "features.build"),
    "features.blocks_built": ("count", "features.build.calls"),
    "ml.lda_fit_s": ("self", "ml.lda_fit"),
    "ml.lda_transform_s": ("self", "ml.lda_transform"),
    "ml.forest_fit_s": ("self", "ml.forest_fit"),
    "ml.tree_nodes": ("count", "ml.tree_nodes"),
    "ml.forest_predict_s": ("self", "ml.forest_predict"),
    "sql.query_s": ("self", "sql.query"),
    "sql.queries": ("count", "sql.query.calls"),
    "sql.rows_out": ("count", "sql.rows_out"),
    "sql.query_p50_ms": ("pct", ("sql.query", "p50")),
    "catalog.save_s": ("self", "catalog.save"),
    "catalog.saves": ("count", "catalog.save.calls"),
    "catalog.bytes_written": ("count", "blockstore.bytes_written"),
    "journal.fsyncs": ("count", "blockstore.fsyncs"),
    "blockstore.physical_mb": ("probe", "blockstore.physical_mb"),
    "catalog.scan_s": ("self", "catalog.scan"),
    "catalog.scans": ("count", "catalog.scan.calls"),
    "catalog.cache_hit_ratio": ("ratio", ("table_cache.hits", "table_cache.misses")),
    "catalog.chunks_skipped": ("count", "columnar.chunks_skipped"),
    "catalog.partitions_pruned": ("count", "columnar.partitions_pruned"),
    "catalog.bytes_decoded": ("probe", "catalog.bytes_decoded"),
    "serve.score_s": ("self", "serve.score"),
    "serve.calls": ("count", "serve.score.calls"),
    "serve.score_p50_ms": ("pct", ("serve.score", "p50")),
    "serve.score_p99_ms": ("pct", ("serve.score", "p99")),
    "serve.score_cache_hit_ratio": ("memo", None),
    "serve.lookup_s": ("self", "serve.lookup"),
    "serve.lookup_rows": ("count", "serve.lookup_rows"),
    "serve.row_cache_hit_ratio": ("ratio", ("serve.store.hits", "serve.store.misses")),
    "serve.materialize_s": ("self", "serve.materialize"),
    "serve.stale_scores": ("probe", "serve.stale_scores"),
    "core.window_s": ("incl", "core.window"),
    "core.windows": ("count", "core.window.calls"),
    "core.self_s": ("self", "core.window"),
}

def layer_metrics(led: dict, probes: dict) -> dict[str, float]:
    """Per-layer metrics from one :func:`ledger` and the workload's probes.

    ``probes`` holds values the workload measured on its own stores; a
    metric nothing in the phase touched reads 0.
    """
    self_s, inclusive = led["self_s"], led["inclusive_s"]
    counters = led["counters"]
    out: dict[str, float] = {}
    for metric, (kind, source) in LAYER_METRICS.items():
        if kind == "self":
            value = self_s.get(source, 0.0)
        elif kind == "incl":
            value = inclusive.get(source, 0.0)
        elif kind == "count":
            value = counters.get(source, 0.0)
        elif kind == "probe":
            value = float(probes.get(source, 0.0))
        elif kind == "pct":
            name, q = source
            value = led["latency_ms"].get(name, {}).get(q, 0.0)
        elif kind == "ratio":
            hits, misses = (counters.get(k, 0.0) for k in source)
            value = hits / (hits + misses) if hits + misses else 0.0
        else:
            scored = counters.get("serve.scored_rows", 0.0)
            looked_up = counters.get("serve.lookup_rows", 0.0)
            value = 1.0 - looked_up / scored if scored else 0.0
        out[metric] = value
    return out
