"""Benchmark runner: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 qbench/run.py --workload batch-day --seed 7 --seconds 8 --trace 0

Workloads (see ``qbench/README.md`` for why each exists):

* ``batch-day`` — the analyst's ``taxiqueue analyze day.csv`` job: CSV
  ingest, tier 1, tier 2 and the citywide proportions, one op per fresh
  child process;
* ``live-replay`` — the stream path of ``taxiqueue serve`` at full
  speed: the whole cleaned day through ``StreamReplayer`` per op;
* ``serve-mixed`` — one closed-loop keep-alive client reading the live
  and history endpoints while a paced replay publishes snapshots.

The program runs in child processes (``child.py``) and sees only the
generated inputs (``gen.py``): the bench day, its taxis in an order
drawn from ``--seed``, and for ``serve-mixed`` a 28-day history.  With ``--trace 0`` the last stdout line
carries the end-to-end metrics; with ``--trace 1`` the workload runs
untraced and then traced, and the line carries the per-layer metrics
plus the tracing overhead (traced minus untraced) of each end-to-end
metric.  Exit 0 when every correctness check passed, 1 when one
failed, 2 when the benchmark could not run at all (no result line).
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import os
import platform
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import plan
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".qbench"

DEFAULT_SEED = 7

#: Nominal seconds per op, to turn ``--seconds`` into a fixed op count.
NOMINAL_OP_S = {"batch-day": 9.5, "live-replay": 1.9}
#: Fewest ops a median is taken over.
MIN_OPS = 4
#: ``live-replay`` spreads its ops over this many child processes (and
#: so takes this many ``setup_s`` samples).
LIVE_CHILDREN = 2
#: ``serve-mixed`` launches this many servers (``setup_s`` samples),
#: each serving one window over the same stretch of the day: the host's
#: speed drifts over tens of seconds, so two windows apart in time give
#: a steadier median than one window twice as long.
SERVE_LAUNCHES = 2
#: Replay speed of ``serve-mixed`` (stream seconds per wall second),
#: the default of ``taxiqueue serve``.
SERVE_SPEED = 600.0
#: Stream seconds of ``serve-mixed`` windows per ``--seconds``.  The
#: paced replay sleeps once per stream second and wakes late under the
#: client's load, so on a 2-core host it advances about 240 stream
#: seconds per wall second at 600x: with ``--seconds 8`` each of the two
#: windows replays 07:14 to 07:30, which finalizes one slot (one
#: snapshot publish, one rewrite of today's segment).
WINDOW_STREAM_PER_S = 240.0
#: Untimed requests before the window, so caches fill first.
WARMUP_REQUESTS = 200
#: Length of the request plan; the client cycles through it.
PLAN_LENGTH = 20000
#: Seeded input days kept in the cache (least recently used evicted).
CACHE_KEEP = 24
#: Longest wait for one child reply; keeps a run inside 180 s.
REPLY_TIMEOUT_S = 90.0

#: The gated end-to-end metrics (``BENCHMARK.json``), in report order.
END_TO_END = {
    "setup_s": "s",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    """The benchmark cannot run (missing program, failed generator)."""


# -- inputs ---------------------------------------------------------------------


def source_hash() -> str:
    """Hash of the program's sources and of the generator's own code."""
    digest = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + [HERE / "gen.py", HERE / "program.py"]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    # String hashing is randomized per process; a fixed seed keeps dict
    # and set layouts, and so their timings, the same in every child.
    env["PYTHONHASHSEED"] = "0"
    return env


def _generate(stage: str, dest: Path, **options) -> None:
    """Run one generator stage into ``dest`` (atomically), unless done."""
    if dest.is_dir():
        return
    tmp = dest.parent / f".{dest.name}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "gen.py"), "--stage", stage,
           "--out", str(tmp)]
    for name, value in options.items():
        cmd += [f"--{name}", str(value)]
    done = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    if done.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BenchError(f"input generator failed:\n{done.stderr[-2000:]}")
    tmp.rename(dest)


class Inputs(NamedTuple):
    day: Path
    """``day.csv`` (the bench day in the seed's taxi order), ``city.json``."""
    history: Path
    """``reference.json`` and the 28-day ``history/`` directory."""


def inputs_for(seed: int, history: bool) -> Inputs:
    """The cached inputs of ``seed``, generated on first use."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    cache = WORK / "inputs"
    base = cache / source_hash()
    base.mkdir(parents=True, exist_ok=True)
    os.utime(base)
    _generate("bench", base / "bench")
    day = base / f"s{seed}"
    _generate("order", day, seed=seed, bench=base / "bench")
    os.utime(day)
    if history:
        _generate("history", base / "history", bench=base / "bench")
    _evict(cache, keep=2)
    _evict(base, keep=CACHE_KEEP, pattern="s*")
    return Inputs(day, base / "history")


def _evict(directory: Path, keep: int, pattern: str = "*") -> None:
    """Remove all but the ``keep`` most recently used entries."""
    entries = sorted(
        (p for p in directory.glob(pattern) if p.is_dir()),
        key=lambda p: p.stat().st_mtime,
    )
    for path in entries[:-keep]:
        shutil.rmtree(path, ignore_errors=True)


# -- child processes ------------------------------------------------------------


class ChildError(Exception):
    pass


class Child:
    """One program process, driven over its line protocol."""

    def __init__(self, workload: str, inputs: Path, work: Path,
                 trace: Path = None, speed: float = None,
                 window_s: float = None):
        work.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), workload,
               str(inputs), str(work)]
        if speed is not None:
            cmd += ["--speed", repr(speed), "--window", repr(window_s)]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        self.log = open(work / "child.log", "ab")
        self.buffer = b""
        self.events = []
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.log, env=child_env(), cwd=ROOT,
        )
        self.ready = self._next_message(REPLY_TIMEOUT_S)
        self.setup_s = time.perf_counter() - t0

    def _next_message(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buffer:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise ChildError("child timed out")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise ChildError(
                    f"child exited (code {self.proc.poll()}); see "
                    f"{self.log.name}"
                )
            self.buffer += chunk
        line, _, self.buffer = self.buffer.partition(b"\n")
        return json.loads(line)

    def call(self, cmd: str, **fields) -> dict:
        """Send one command and wait for its reply; events that arrive
        meanwhile are queued for :meth:`event`."""
        self.proc.stdin.write(
            (json.dumps({"cmd": cmd, **fields}) + "\n").encode()
        )
        self.proc.stdin.flush()
        while True:
            message = self._next_message(REPLY_TIMEOUT_S)
            if "event" not in message:
                return message
            self.events.append(message)

    def event(self, timeout: float = 0.0):
        """The next asynchronous event, or None if none arrives in time."""
        if not self.events:
            fd = self.proc.stdout.fileno()
            if b"\n" not in self.buffer and not select.select(
                [fd], [], [], timeout
            )[0]:
                return None
            self.events.append(self._next_message(REPLY_TIMEOUT_S))
        return self.events.pop(0)

    def close(self) -> dict:
        """Ask the child to quit; returns its last reply (peak RSS)."""
        return self.call("quit")

    def stop(self) -> None:
        """Wait for the child to exit (killing it if it hangs)."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=15)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.log.close()


# -- workloads ------------------------------------------------------------------


class Phase:
    """Samples and checks of one (untraced or traced) pass."""

    def __init__(self):
        self.setup_s = []
        self.op_s = []
        self.rss_mb = []
        self.failed = 0
        self.problems = []
        self.span_files = []
        self.extra = {}

    @property
    def attempted(self) -> int:
        return len(self.op_s) + self.failed

    def metrics(self) -> dict:
        ms = [s * 1000.0 for s in self.op_s]
        return {
            "setup_s": stats.median(self.setup_s),
            "op_p50_ms": stats.nearest_rank(ms, 50, self.failed) or 0.0,
            "op_p99_ms": stats.nearest_rank(ms, 99, self.failed) or 0.0,
            "peak_rss_mb": stats.median(self.rss_mb),
        }

    def counts(self) -> dict:
        return {"setup_s": len(self.setup_s), "op_p50_ms": self.attempted,
                "op_p99_ms": self.attempted, "peak_rss_mb": len(self.rss_mb)}

    def report(self, workload: str) -> None:
        """Print every end-to-end metric, gated or not, with its unit
        and sample count."""
        values, counts = self.metrics(), self.counts()
        report("op_p50_ms", values["op_p50_ms"], "ms", counts["op_p50_ms"])
        for name, unit in END_TO_END.items():
            report(name, values[name], unit, counts[name])
        if workload == "serve-mixed":
            report("history_p99_ms", self.extra["history_p99_ms"], "ms",
                   self.extra["history_requests"])
            report("reads_per_s", self.extra["reads_per_s"], "1/s",
                   self.attempted)

    def record(self, reply: dict) -> bool:
        """Count an op reply; True when it succeeded."""
        if "error" in reply:
            self.failed += 1
            self.problems.append(reply["error"])
            return False
        self.op_s.append(reply["ms"] / 1000.0)
        return True

    def check(self, reply: dict, what: str) -> None:
        if "error" in reply:
            self.problems.append(f"{what}: {reply['error']}")
        elif reply["n_problems"]:
            self.problems.append(
                f"{what}: {reply['n_problems']} problems, e.g. "
                f"{reply['problems'][:3]}"
            )


def committed(workload: str):
    """The committed output digests of the bench day, which every seed
    shares (its taxi order does not change the program's output)."""
    return json.loads((HERE / "digests.json").read_text())[workload]


def run_batch_day(args, inputs: Inputs, work: Path, trace_dir) -> Phase:
    phase = Phase()
    n_ops = max(MIN_OPS, round(args.seconds / NOMINAL_OP_S["batch-day"]))
    digests = set()
    for op in range(n_ops):
        trace = trace_dir / f"batch-{op}.spans" if trace_dir else None
        child = Child("batch-day", inputs.day, work / f"c{op}",
                      trace=trace)
        try:
            phase.setup_s.append(child.setup_s)
            reply = child.call("op", id=op)
            if phase.record(reply):
                digests.add(reply["digest"])
            if op == n_ops - 1:
                phase.check(child.call("check"), "batch invariants")
            phase.rss_mb.append(child.close()["peak_rss_mb"])
        finally:
            child.stop()
        if trace:
            phase.span_files.append(trace)
    expected = committed("batch-day")
    if digests != {expected}:
        phase.problems.append(
            f"batch digests {sorted(digests)} != committed {expected}"
        )
    return phase


def run_live_replay(args, inputs: Inputs, work: Path, trace_dir) -> Phase:
    phase = Phase()
    n_ops = max(MIN_OPS, round(args.seconds / NOMINAL_OP_S["live-replay"]))
    per_child = math.ceil(n_ops / LIVE_CHILDREN)
    outputs = set()
    for c in range(LIVE_CHILDREN):
        trace = trace_dir / f"live-{c}.spans" if trace_dir else None
        child = Child("live-replay", inputs.day, work / f"c{c}",
                      trace=trace)
        try:
            phase.setup_s.append(child.setup_s)
            for k in range(per_child):
                reply = child.call("op", id=c * per_child + k)
                if phase.record(reply):
                    outputs.add((reply["state_digest"],
                                 reply["history_digest"], reply["slots"],
                                 reply["version"]))
            if c == LIVE_CHILDREN - 1:
                phase.check(child.call("check"), "streaming invariants")
            phase.rss_mb.append(child.close()["peak_rss_mb"])
        finally:
            child.stop()
        if trace:
            phase.span_files.append(trace)
    expected = committed("live-replay")
    expected = {(expected["state"], expected["history"])}
    if {output[:2] for output in outputs} != expected or len(outputs) != 1:
        phase.problems.append(
            f"replays' (state, history) digests {sorted(outputs)} != "
            f"committed {expected}"
        )
    return phase


class Client:
    """One keep-alive HTTP/1.1 connection, closed loop."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def get(self, path: str):
        """``(status, body, degraded, seconds)`` of one GET, timed from
        send to the last body byte."""
        t0 = time.perf_counter()
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        body = response.read()
        elapsed = time.perf_counter() - t0
        return (response.status, body,
                response.getheader("X-Degraded") is not None, elapsed)

    def close(self) -> None:
        self.conn.close()


def valid(status: int, body: bytes, degraded: bool) -> bool:
    """A read succeeded: 200 with a JSON body, or 304, never degraded."""
    if degraded or status not in (200, 304):
        return False
    if status == 304:
        return True
    try:
        json.loads(body)
    except ValueError:
        return False
    return True


def run_serve_mixed(args, inputs: Inputs, work: Path, trace_dir) -> Phase:
    phase = Phase()
    reference = json.loads((inputs.history / "reference.json").read_text())
    if reference["batch_digest"] != committed("batch-day"):
        phase.problems.append(
            f"history built from batch digest {reference['batch_digest']}"
        )
    requests = plan.request_plan(
        args.seed, PLAN_LENGTH, reference["spot_ids"],
        reference["history_days"] + [reference["today"]],
    )
    windows = []
    for launch in range(SERVE_LAUNCHES):
        run_dir = work / f"c{launch}"
        shutil.copytree(inputs.history / "history", run_dir / "history")
        trace = trace_dir / f"serve-{launch}.spans" if trace_dir else None
        child = Child("serve-mixed", inputs.day, run_dir, trace=trace,
                      speed=SERVE_SPEED,
                      window_s=WINDOW_STREAM_PER_S * args.seconds
                      / SERVE_LAUNCHES)
        try:
            phase.setup_s.append(child.setup_s)
            windows.append(_serve_window(phase, child, requests, reference))
            phase.rss_mb.append(child.close()["peak_rss_mb"])
        finally:
            child.stop()
        if trace:
            phase.span_files.append(trace)
    versions = {(w["window_versions"], w["history_window_versions"])
                for w in windows}
    if len(versions) != 1:
        phase.problems.append(
            f"windows over the same stretch published {versions} versions"
        )
    latencies = [s for w in windows for s in w["latencies_s"]]
    history_ms = [s * 1000.0 for w in windows for s in w["history_s"]]
    phase.op_s = latencies
    phase.extra.update({
        "windows": windows,
        "history_p99_ms": stats.nearest_rank(history_ms, 99) or 0.0,
        "history_requests": len(history_ms),
        "reads_per_s": len(latencies) / sum(w["window_s"] for w in windows),
    })
    return phase


def _serve_window(phase: Phase, child: Child, requests, reference) -> dict:
    """Warm up, then read in closed loop for one window of the replay."""
    client = Client(child.ready["port"])
    try:
        child.call("prefix")
        for path in requests[:WARMUP_REQUESTS]:
            if not valid(*client.get(path)[:3]):
                phase.problems.append(f"warm-up read failed: {path}")
        metrics_before = json.loads(client.get("/v1/metrics")[1])
        child.call("start")
        start = child.event(REPLY_TIMEOUT_S)
        t0 = time.perf_counter()
        latencies, history = [], []
        end = None
        i = WARMUP_REQUESTS
        while end is None:
            path = requests[i % len(requests)]
            i += 1
            status, body, degraded, elapsed = client.get(path)
            if valid(status, body, degraded):
                latencies.append(elapsed)
                if plan.is_history_path(path):
                    history.append(elapsed)
            else:
                phase.failed += 1
                phase.problems.append(f"{path}: status {status}")
            end = child.event()
        window_s = time.perf_counter() - t0
        metrics_after = json.loads(client.get("/v1/metrics")[1])
        spots = json.loads(client.get("/v1/spots")[1])
    finally:
        client.close()
    served = sorted(
        f["properties"]["spot_id"] for f in spots["collection"]["features"]
    )
    if served != reference["spot_ids"]:
        phase.problems.append(
            f"/v1/spots serves {served}, batch found {reference['spot_ids']}"
        )
    return {
        "latencies_s": latencies,
        "history_s": history,
        "window_s": window_s,
        "metrics_before": metrics_before["counters"],
        "metrics_after": metrics_after["counters"],
        "window_versions": end["version"] - start["version"],
        "history_window_versions": (
            end["history_version"] - start["history_version"]
        ),
    }


RUNNERS = {
    "batch-day": run_batch_day,
    "live-replay": run_live_replay,
    "serve-mixed": run_serve_mixed,
}


# -- run stamp ------------------------------------------------------------------


def steal_ticks() -> int:
    """Cumulative steal ticks of all CPUs (``/proc/stat``)."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def stamp(steal_before: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": os.getloadavg(),
        "steal_ticks": steal_ticks() - steal_before,
    }


# -- main -----------------------------------------------------------------------


def run_phase(args, inputs: Inputs, trace_dir=None) -> Phase:
    work = WORK / "runs" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return RUNNERS[args.workload](args, inputs, work, trace_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(name: str, value: float, unit: str, samples: int) -> None:
    print(f"  {name:<32} {value:>14.4f} {unit:<6} n={samples}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(RUNNERS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    steal_before = steal_ticks()
    try:
        inputs = inputs_for(args.seed, args.workload == "serve-mixed")
        untraced = run_phase(args, inputs)
        phases = [untraced]
        if args.trace:
            trace_dir = WORK / "trace" / f"{args.workload}-s{args.seed}"
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
            phases.append(run_phase(args, inputs, trace_dir))
    except (BenchError, ChildError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    plain = untraced.metrics()
    print(f"{args.workload}, seed {args.seed} (untraced; op_p50_ms, "
          f"history_p99_ms and reads_per_s are reported, not gated):")
    untraced.report(args.workload)
    if args.trace:
        metrics = per_layer(args, untraced, phases[1])
    else:
        metrics = {name: {"value": plain[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    problems = [p for phase in phases for p in phase.problems]
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")
    print("# stamp " + json.dumps(stamp(steal_before)))
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": sum(phase.attempted for phase in phases),
        "failed": sum(phase.failed for phase in phases),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def per_layer(args, untraced: Phase, traced: Phase) -> dict:
    import layers

    values = layers.derive(
        [str(p) for p in traced.span_files], traced.attempted,
        traced.extra.get("windows"),
    )
    if args.workload == "serve-mixed":
        values["service.history_p99_ms"] = untraced.extra["history_p99_ms"]
        values["service.reads_per_s"] = untraced.extra["reads_per_s"]
    plain, with_spans = untraced.metrics(), traced.metrics()
    for name in END_TO_END:
        values[f"overhead.{name}"] = with_spans[name] - plain[name]
    print("per-layer (traced run; _s = self seconds per op):")
    for name, unit in layers.METRICS.items():
        report(name, values[name], unit, traced.attempted)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in layers.METRICS.items()}


if __name__ == "__main__":
    sys.exit(main())
