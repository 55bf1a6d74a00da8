"""The layers the traced run measures, and the per-layer metrics.

:data:`ENTRY_POINTS` lists each wrapped entry point with the attribute
its caller looks up: a module global for functions imported by name
(``repro.core.engine`` calls its own ``clean_batch``), the class
attribute for methods.  :func:`install` patches them in the child;
:func:`derive` turns the span tables the children wrote into the
``per_layer`` metrics of ``BENCHMARK.json``.

``_s`` metrics are self seconds (the span minus its wrapped children)
per op.  Counts of work repeat exactly from run to run (see
:func:`derive` for what ``serve-mixed`` counts per); only the request
counts of ``serve-mixed`` follow what its closed loop managed to send.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Sequence

import numpy as np

import spans
from plan import is_history_path
from stats import nearest_rank


def _clean(args, kwargs, result):
    report = result[1]
    return report.total_in, report.total_in - report.total_removed


def _length(args, kwargs, result):
    return len(result), 0.0


def _cluster(args, kwargs, result):
    return len(args[0]), len(result[0])


def _segment_bytes(args, kwargs, result):
    return result.stat().st_size, len(args[1].records)


def _history_request(args, kwargs, result):
    return float(is_history_path(args[1])), 0.0


#: (span name, "module[:Class]", attribute, value extractor or None)
ENTRY_POINTS = (
    ("trace.ingest", "repro.trace.log_store:MdtLogStore", "from_csv", None),
    ("trace.clean", "repro.core.engine", "clean_batch", _clean),
    ("trace.clean", "repro.core.engine", "clean_store", _clean),
    ("columnar.from_store", "repro.columnar.batch:RecordBatch", "from_store",
     None),
    ("core.pea", "repro.core.engine", "extract_pickup_events_batch", _length),
    ("cluster.zone", "repro.core.spots", "cluster_zone", _cluster),
    ("core.assign", "repro.core.engine", "assign_events_to_spots", None),
    ("core.tier2_spot", "repro.core.engine", "analyze_spot", None),
    ("core.disambiguate", "repro.core.engine:QueueAnalyticEngine",
     "disambiguate", None),
    ("stream.replay", "repro.service.replay:StreamReplayer", "run", None),
    ("stream.pea", "repro.stream.pea_stream:StreamingPea", "feed", None),
    ("stream.pea", "repro.stream.pea_stream:StreamingPea", "flush", None),
    ("stream.feed", "repro.stream.monitor:StreamingQueueMonitor", "feed",
     _length),
    ("stream.finish", "repro.stream.monitor:StreamingQueueMonitor", "finish",
     _length),
    ("service.apply", "repro.service.snapshot:SnapshotStore", "apply", None),
    ("history.absorb", "repro.history.writer:HistoryWriter", "absorb", None),
    ("history.write_day", "repro.history.segments:SegmentStore", "write_day",
     _segment_bytes),
    ("service.respond", "repro.service.http:QueueStateServer", "respond",
     _history_request),
    ("service.payload", "repro.service.snapshot:SnapshotStore",
     "spots_payload", None),
    ("service.payload", "repro.service.snapshot:SnapshotStore",
     "spot_slots_payload", None),
    ("service.payload", "repro.service.snapshot:SnapshotStore",
     "citywide_payload", None),
    ("history.query_patterns", "repro.history.query:HistoryQueryEngine",
     "patterns", None),
    ("history.query_citywide", "repro.history.query:HistoryQueryEngine",
     "citywide", None),
    ("history.query_spot_history", "repro.history.query:HistoryQueryEngine",
     "spot_history", None),
    ("history.read", "repro.history.segments:SegmentStore", "read_day", None),
    ("history.read", "repro.history.segments:SegmentStore", "read_all", None),
)

#: per_layer metric name -> unit, in report order.
METRICS = {
    "trace.ingest_s": "s",
    "trace.clean_s": "s",
    "trace.clean_calls": "count",
    "trace.clean_records_in": "count",
    "trace.clean_kept_ratio": "ratio",
    "columnar.from_store_s": "s",
    "core.pea_s": "s",
    "core.pea_events": "count",
    "cluster.zone_s": "s",
    "cluster.points": "count",
    "cluster.spots": "count",
    "core.assign_s": "s",
    "core.tier2_spot_s": "s",
    "core.disambiguate_self_s": "s",
    "batch.unattributed_s": "s",
    "stream.replay_self_s": "s",
    "stream.pea_s": "s",
    "stream.monitor_self_s": "s",
    "stream.records": "count",
    "stream.finalize_feeds": "count",
    "stream.finalize_p50_ms": "ms",
    "stream.finalize_p99_ms": "ms",
    "stream.finalized_slots": "count",
    "service.apply_s": "s",
    "service.versions": "count",
    "history.absorb_s": "s",
    "history.write_day_s": "s",
    "history.write_calls": "count",
    "history.bytes_written": "bytes",
    "service.requests": "count",
    "service.respond_live_s": "s",
    "service.respond_history_s": "s",
    "service.wire_p50_ms": "ms",
    "service.payload_s": "s",
    "service.cache_lookups": "count",
    "service.cache_hit_ratio": "ratio",
    "history.query_patterns_s": "s",
    "history.query_citywide_s": "s",
    "history.query_spot_history_s": "s",
    "history.read_s": "s",
    "service.window_versions": "count",
    "history.window_versions": "count",
    "service.replay_s": "s",
    "service.window_s": "s",
    "service.idle_ratio": "ratio",
    "service.history_p99_ms": "ms",
    "service.reads_per_s": "1/s",
    "overhead.setup_s": "s",
    "overhead.op_p99_ms": "ms",
    "overhead.peak_rss_mb": "MiB",
}


def install(recorder: spans.SpanRecorder) -> None:
    """Wrap every entry point of :data:`ENTRY_POINTS` (imports the
    program, so call it only in the child)."""
    for name, where, attr, values in ENTRY_POINTS:
        module, _, cls = where.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        recorder.patch(owner, attr, name, values)


class Spans:
    """The measured-op spans of one or more span files, with self time."""

    def __init__(self, paths: Sequence[str]):
        names: List[str] = []
        parts = []
        for path in paths:
            file_names, table = spans.load(path)
            remap = np.array(
                [_intern(names, name) for name in file_names] or [0],
                dtype=np.int64,
            )
            selfs = spans.self_times(
                table["id"], table["start"], table["end"], table["parent"],
                table["thread"],
            )
            keep = table["op"] >= 0
            parts.append({
                "name": remap[table["name"][keep]],
                "dur": (table["end"] - table["start"])[keep],
                "self": selfs[keep],
                "start": table["start"][keep],
                "a": table["a"][keep],
                "b": table["b"][keep],
            })
        self.names = names
        self.cols = {
            key: np.concatenate([part[key] for part in parts])
            for key in parts[0]
        } if parts else {}

    def select(self, name: str, key: str = "self") -> np.ndarray:
        if name not in self.names or not self.cols:
            return np.zeros(0)
        return self.cols[key][self.cols["name"] == self.names.index(name)]

    def total(self, name: str, key: str = "self") -> float:
        return float(self.select(name, key).sum())

    def count(self, name: str) -> int:
        return len(self.select(name))


def _intern(names: List[str], name: str) -> int:
    if name not in names:
        names.append(name)
    return names.index(name)


def derive(paths: Sequence[str], n_ops: int, windows: List[Dict] = None
           ) -> Dict:
    """Per-layer metrics from the span files of one traced phase.

    ``batch-day`` and ``live-replay`` give everything per op.  In
    ``serve-mixed`` the op is one request, but the replay's work and
    every count belong to the window, which covers a fixed stretch of
    the day while the number of requests in it varies; so request-path
    seconds are per request, and replay-path seconds and all counts are
    per window.

    Args:
        paths: span files the phase's children wrote (one per window
            for ``serve-mixed``).
        n_ops: measured ops in the phase (requests for ``serve-mixed``).
        windows: ``serve-mixed`` only, one dict per span file, measured
            by the runner: the window's client latencies
            (``latencies_s``), the ``/v1/metrics`` counters at both
            window edges and the versions published in the window.
    """
    s = Spans(paths)
    per_op = max(n_ops, 1)
    per_unit = len(windows) if windows else per_op
    out = {name: 0.0 for name in METRICS if not name.startswith("overhead.")}

    def seconds(name, per):
        return s.total(name) / per

    def summed(name, key, per):
        return float(s.select(name, key).sum()) / per

    clean_in = summed("trace.clean", "a", 1)
    feeds = s.select("stream.feed", "a")
    finishing = s.select("stream.feed", "dur")[feeds > 0] * 1000.0
    history = s.select("service.respond", "a") > 0
    respond = s.select("service.respond")
    out.update({
        "trace.ingest_s": seconds("trace.ingest", per_op),
        "trace.clean_s": seconds("trace.clean", per_op),
        "trace.clean_calls": s.count("trace.clean") / per_unit,
        "trace.clean_records_in": clean_in / per_unit,
        "trace.clean_kept_ratio": (
            summed("trace.clean", "b", 1) / clean_in if clean_in else 0.0
        ),
        "columnar.from_store_s": seconds("columnar.from_store", per_op),
        "core.pea_s": seconds("core.pea", per_op),
        "core.pea_events": summed("core.pea", "a", per_unit),
        "cluster.zone_s": seconds("cluster.zone", per_op),
        "cluster.points": summed("cluster.zone", "a", per_unit),
        "cluster.spots": summed("cluster.zone", "b", per_unit),
        "core.assign_s": seconds("core.assign", per_op),
        "core.tier2_spot_s": seconds("core.tier2_spot", per_op),
        "core.disambiguate_self_s": seconds("core.disambiguate", per_op),
        "batch.unattributed_s": seconds("op", per_op),
        "stream.replay_self_s": seconds("stream.replay", per_unit),
        "stream.pea_s": seconds("stream.pea", per_unit),
        "stream.monitor_self_s": (
            seconds("stream.feed", per_unit)
            + seconds("stream.finish", per_unit)
        ),
        "stream.records": s.count("stream.feed") / per_unit,
        "stream.finalize_feeds": len(finishing) / per_unit,
        "stream.finalized_slots": (
            float(feeds.sum()) + summed("stream.finish", "a", 1)
        ) / per_unit,
        "service.apply_s": seconds("service.apply", per_unit),
        "service.versions": s.count("service.apply") / per_unit,
        "history.absorb_s": seconds("history.absorb", per_unit),
        "history.write_day_s": seconds("history.write_day", per_unit),
        "history.write_calls": s.count("history.write_day") / per_unit,
        "history.bytes_written": summed("history.write_day", "a", per_unit),
        "service.respond_live_s": float(respond[~history].sum()) / per_op,
        "service.respond_history_s": float(respond[history].sum()) / per_op,
        "service.payload_s": seconds("service.payload", per_op),
        "history.query_patterns_s": seconds("history.query_patterns", per_op),
        "history.query_citywide_s": seconds("history.query_citywide", per_op),
        "history.query_spot_history_s": seconds(
            "history.query_spot_history", per_op
        ),
        "history.read_s": seconds("history.read", per_op),
    })
    if len(finishing):
        out["stream.finalize_p50_ms"] = nearest_rank(finishing.tolist(), 50)
        out["stream.finalize_p99_ms"] = nearest_rank(finishing.tolist(), 99)
    if windows:
        out.update(_serve_metrics(s, paths, windows))
    return out


def _serve_metrics(s: Spans, paths: Sequence[str], windows: List[Dict]
                   ) -> Dict:
    n = len(windows)
    wire = []
    for path, window in zip(paths, windows):
        # One keep-alive client per window: the server answers in
        # request order, so the i-th respond span of the window is the
        # i-th window request.
        one = Spans([path])
        order = np.argsort(one.select("service.respond", "start"),
                           kind="stable")
        respond = one.select("service.respond", "dur")[order]
        latencies = np.asarray(window["latencies_s"])
        paired = min(len(respond), len(latencies))
        wire.extend(((latencies[:paired] - respond[:paired]) * 1000.0)
                    .tolist())
    hits = misses = 0
    for window in windows:
        before, after = window["metrics_before"], window["metrics_after"]
        hits += after.get("http.cache_hits", 0) - before.get(
            "http.cache_hits", 0)
        misses += after.get("http.cache_misses", 0) - before.get(
            "http.cache_misses", 0)
    window_s = s.total("serve.window", "dur")
    out = {
        "service.requests": float(
            sum(len(w["latencies_s"]) for w in windows)
        ),
        "service.cache_lookups": float(hits + misses) / n,
        "service.cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "service.window_versions": windows[0]["window_versions"],
        "history.window_versions": windows[0]["history_window_versions"],
        "service.window_s": window_s / n,
        "service.idle_ratio": (
            s.total("serve.window") / window_s if window_s else 0.0
        ),
        "service.replay_s": (
            s.total("stream.feed", "dur") + s.total("stream.finish", "dur")
        ) / n,
    }
    if wire:
        out["service.wire_p50_ms"] = nearest_rank(wire, 50)
    return out
