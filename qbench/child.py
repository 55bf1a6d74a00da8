"""Host process of the program under test.

Started by the runner (``run.py``) as::

    python3 qbench/child.py WORKLOAD INPUTS WORK [--trace FILE]
        [--speed X --window S]

with the checkout's ``src`` on ``PYTHONPATH``.  It sets the workload up
(that interval is the workload's ``setup_s`` sample), announces
``{"event": "ready"}`` and then answers one JSON command per stdin line
with one JSON line on stdout.  Anything the program prints goes to
stderr, so stdout carries only the protocol.

With ``--trace FILE`` the layer entry points of :mod:`layers` are
wrapped before setup, and the spans are written to FILE on ``quit``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import layers
import program
import spans
from repro.conformance.canonical import DayBootstrap
from repro.conformance.invariants import (
    check_littles_law_batch,
    check_littles_law_streaming,
    check_wait_events,
)
from repro.conformance.oracles import (
    check_batch_recompute,
    check_streaming_labels,
)
from repro.core.reports import citywide_proportions
from repro.service import QueueService, ServiceConfig
from repro.service.replay import StreamReplayer
from repro.trace.log_store import MdtLogStore

#: Where the ``serve-mixed`` window starts, in seconds after midnight:
#: the morning peak, whose slot finalizations publish snapshots and
#: rewrite today's history segment inside the window.
WINDOW_FROM_S = 7 * 3600.0 + 14 * 60.0


class Channel:
    """The protocol stream: one JSON object per line, thread-safe."""

    def __init__(self):
        self._out = os.fdopen(os.dup(sys.stdout.fileno()), "w")
        os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
        self._lock = threading.Lock()

    def send(self, message: dict) -> None:
        with self._lock:
            self._out.write(json.dumps(message) + "\n")
            self._out.flush()


def peak_rss_mb() -> float:
    """This process's ``VmHWM`` in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


class Host:
    """Common command handling; subclasses set up and run one workload."""

    def __init__(self, args, channel: Channel, recorder):
        self.args = args
        self.channel = channel
        self.recorder = recorder
        self.meta = program.load_metadata(args.inputs)
        self.engine = program.build_engine(self.meta)
        self.grid = program.day_grid(self.meta)

    def op_span(self, op_id: int):
        if self.recorder is None:
            return nullcontext()
        self.recorder.op = op_id
        return self.recorder.span("op")

    def end_op(self) -> None:
        if self.recorder is not None:
            self.recorder.op = -1

    def quit(self, cmd) -> dict:
        reply = {"peak_rss_mb": peak_rss_mb()}
        if self.recorder is not None:
            self.recorder.dump(self.args.trace)
        return reply


class BatchHost(Host):
    """``batch-day``: the analyst's CSV -> labels job, one per op."""

    def setup(self) -> dict:
        self.csv = self.args.inputs / "day.csv"
        return {}

    def op(self, cmd) -> dict:
        with self.op_span(cmd["id"]):
            t0 = time.perf_counter()
            store = MdtLogStore.from_csv(self.csv)
            detection = self.engine.detect_spots(store)
            analyses = self.engine.disambiguate(store, detection, self.grid)
            citywide_proportions(analyses.values())
            elapsed = time.perf_counter() - t0
        self.end_op()
        self.analyses = analyses
        return {
            "ms": elapsed * 1000.0,
            "digest": program.batch_digest(detection, analyses),
            "records": len(store),
        }

    def check(self, cmd) -> dict:
        analyses = self.analyses
        problems = (
            check_batch_recompute(
                analyses, self.grid, self.engine.amplification
            )
            + check_wait_events(analyses)
            + check_littles_law_batch(analyses, self.grid)
        )
        return {"problems": problems[:10], "n_problems": len(problems)}


class ServiceHost(Host):
    """Shared set-up of the two workloads that run the live service."""

    speed = None

    def setup(self) -> dict:
        store = MdtLogStore.from_csv(self.args.inputs / "day.csv")
        self.service = QueueService.from_day(
            store,
            self.engine,
            ServiceConfig(
                speedup=self.speed,
                history_dir=str(self.args.work / "history"),
                history_day_of_week=self.meta["day_of_week"],
            ),
        )
        return {}

    def check(self, cmd) -> dict:
        monitor = self.service.monitor
        results = [
            result
            for bucket in self.service.store.export_state()["results"].values()
            for result in bucket.values()
        ]
        boot = DayBootstrap(
            bbox=self.engine.city_bbox,
            min_pts=self.engine.config.detection.min_pts,
            coverage=self.engine.config.observed_fraction,
            slot_seconds=self.engine.config.slot_seconds,
            assign_radius_m=monitor.assign_radius_m,
            grace_s=monitor.grace_s,
            grid=monitor.grid,
            spots=tuple(monitor.spots),
            thresholds=dict(monitor.thresholds),
        )
        problems = check_streaming_labels(
            results, boot
        ) + check_littles_law_streaming(results, monitor.grid)
        return {"problems": problems[:10], "n_problems": len(problems),
                "results": len(results)}


class LiveHost(ServiceHost):
    """``live-replay``: the whole cleaned day through the stream path,
    into a fresh monitor, snapshot and history state per op."""

    def setup(self) -> dict:
        super().setup()
        service = self.service
        self.fresh = (
            service.monitor.export_state(),
            service.store.export_state(),
            service.history_writer.export_state(),
        )
        return {"records": len(service.replayer.records)}

    def op(self, cmd) -> dict:
        service = self.service
        monitor, snapshot, history = self.fresh
        service.monitor.restore_state(monitor)
        service.store.restore_state(snapshot)
        service.history_writer.restore_state(history)
        with self.op_span(cmd["id"]):
            t0 = time.perf_counter()
            slots = service.warm()
            elapsed = time.perf_counter() - t0
        self.end_op()
        return {
            "ms": elapsed * 1000.0,
            "slots": slots,
            "version": service.store.version,
            "state_digest": program.streaming_digest(service.store),
            "history_digest": program.sha256_json(
                service.history_writer.store.digests()
            ),
        }


class ServeHost(ServiceHost):
    """``serve-mixed``: the HTTP service over a 28-day history while a
    paced replay publishes snapshots and rewrites today's segment."""

    def setup(self) -> dict:
        self.speed = self.args.speed
        super().setup()
        self.service.server.start()
        return {"port": self.service.server.port}

    def prefix(self, cmd) -> dict:
        """Feed the day up to the window flat out, without pacing."""
        records = self.service.replayer.records
        start = self.grid.start_ts
        cut = bisect.bisect_left(
            [r.ts for r in records], start + WINDOW_FROM_S
        )
        for record in records[:cut]:
            self.service.monitor.feed(record)
        self.rest = records[cut:]
        return {"version": self.service.store.version}

    def start(self, cmd) -> dict:
        """Start the paced replay; the window events follow from the
        replay thread as it crosses the window's edges."""
        service = self.service
        service.replayer = StreamReplayer(
            service.monitor,
            self._windowed(
                self.rest,
                self.grid.start_ts + WINDOW_FROM_S + self.args.window,
            ),
            speedup=self.speed,
            metrics=service.metrics,
        )
        service.start()
        return {}

    def _versions(self) -> dict:
        return {
            "version": self.service.store.version,
            "history_version": self.service.history_writer.store.version,
        }

    def _windowed(self, records, end_ts):
        recorder = self.recorder
        window = None
        if recorder is not None:
            recorder.op = 0
            window = recorder.span("serve.window")
            recorder.root = window.__enter__()
        self.channel.send({"event": "window-start", **self._versions()})
        i = 0
        while i < len(records) and records[i].ts < end_ts:
            yield records[i]
            i += 1
        if window is not None:
            window.__exit__(None, None, None)
            recorder.root = recorder.op = -1
        self.channel.send({"event": "window-end", **self._versions()})
        yield from records[i:]

    def quit(self, cmd) -> dict:
        self.service.stop()
        return super().quit(cmd)


HOSTS = {"batch-day": BatchHost, "live-replay": LiveHost,
         "serve-mixed": ServeHost}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(HOSTS))
    parser.add_argument("inputs", type=Path)
    parser.add_argument("work", type=Path)
    parser.add_argument("--speed", type=float, default=None,
                        help="serve-mixed: replay speed")
    parser.add_argument("--window", type=float, default=None,
                        help="serve-mixed: stream seconds in the window")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()
    channel = Channel()
    recorder = None
    if args.trace:
        recorder = spans.SpanRecorder()
        layers.install(recorder)
    host = HOSTS[args.workload](args, channel, recorder)
    channel.send({"event": "ready", **host.setup()})
    for line in sys.stdin:
        cmd = json.loads(line)
        try:
            reply = getattr(host, cmd["cmd"])(cmd)
        except Exception as exc:
            # A failed op is counted by the runner, not fatal here.
            traceback.print_exc()
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        channel.send(reply)
        if cmd["cmd"] == "quit":
            break


if __name__ == "__main__":
    main()
