"""Generate the benchmark's inputs.

Runs in its own process with the checkout's ``src`` on ``PYTHONPATH``
and is never timed; the runner (``run.py``) caches each stage's output
by a hash of the program's sources (and by seed, for the ``order``
stage).  Each stage writes a fresh directory that the runner renames
into place when the stage succeeds:

* ``bench``: the bench day of ``benchmarks/conftest.py`` (simulation
  seed 7: 500 taxis, 30 queue spots, 15 decoys, 281,099 records) as
  ``day.csv`` plus its ``city.json`` metadata;
* ``order``: the bench day with its taxis in a seeded order.  An
  operator's export has no fixed taxi order, and the program's output
  does not depend on it, so every seed carries the same work and yields
  the same labels from different input bytes;
* ``history`` (``serve-mixed`` only): the batch tiers over the bench
  day give the reference spot set and the day's slot results, which a
  :class:`~repro.history.HistoryWriter` writes 28 times with the grid
  shifted back 1..28 days; the store is then compacted once.

Usage::

    python3 qbench/gen.py --stage bench --out DIR
    python3 qbench/gen.py --stage order --seed 3 --bench DIR --out DIR
    python3 qbench/gen.py --stage history --bench DIR --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
from itertools import groupby
from pathlib import Path

import program
from repro.core.types import TimeSlotGrid
from repro.history import HistoryWriter, SegmentStore, compact_store
from repro.sim.city import City
from repro.sim.config import SimulationConfig
from repro.sim.fleet import simulate_day
from repro.stream.monitor import SlotResult
from repro.trace.log_store import MdtLogStore

#: Simulation seed of the bench day (``benchmarks/conftest.py``).
BENCH_SEED = 7


def stage_bench(out: Path) -> None:
    city = City.generate(
        seed=BENCH_SEED, n_queue_spots=program.SPOTS,
        n_decoys=program.DECOYS,
    )
    config = SimulationConfig(
        seed=BENCH_SEED,
        fleet_size=program.FLEET,
        n_queue_spots=program.SPOTS,
        n_decoy_landmarks=program.DECOYS,
        day_of_week=0,
        day_index=0,
    )
    output = simulate_day(config, city=city)
    output.store.to_csv(out / "day.csv")
    (out / "city.json").write_text(
        json.dumps(program.city_metadata(output), indent=1) + "\n"
    )


def stage_order(seed: int, bench: Path, out: Path) -> None:
    """Rewrite the bench day with its taxis' blocks in a seeded order
    (each taxi's own records keep their order)."""
    with open(bench / "day.csv", encoding="utf-8") as fh:
        header = fh.readline()
        blocks = [
            list(lines)
            for _, lines in groupby(fh, key=lambda line: line.split(",", 2)[1])
        ]
    random.Random(seed).shuffle(blocks)
    with open(out / "day.csv", "w", encoding="utf-8") as fh:
        fh.write(header)
        for block in blocks:
            fh.writelines(block)
    shutil.copy(bench / "city.json", out / "city.json")


def stage_history(bench: Path, out: Path) -> None:
    meta = program.load_metadata(bench)
    engine = program.build_engine(meta)
    grid = program.day_grid(meta)
    store = MdtLogStore.from_csv(bench / "day.csv")
    detection = engine.detect_spots(store)
    analyses = engine.disambiguate(store, detection, grid)
    results = [
        SlotResult(spot_id, features.slot, features, label)
        for spot_id, analysis in sorted(analyses.items())
        for features, label in zip(analysis.features, analysis.labels)
    ]
    segments = SegmentStore(out / "history")
    for back in range(1, program.HISTORY_DAYS + 1):
        shifted = TimeSlotGrid(
            grid.start_ts - back * 86400.0,
            grid.end_ts - back * 86400.0,
            grid.slot_seconds,
        )
        HistoryWriter(
            segments,
            detection.spots,
            shifted,
            day_of_week=(meta["day_of_week"] - back) % 7,
        ).absorb(results)
    compact_store(segments)
    reference = {
        "spot_ids": sorted(spot.spot_id for spot in detection.spots),
        "batch_digest": program.batch_digest(detection, analyses),
        "history_days": segments.days(),
        "today": int(grid.start_ts // 86400),
    }
    (out / "reference.json").write_text(
        json.dumps(reference, indent=1) + "\n"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stage", choices=("bench", "order", "history"),
                        required=True)
    parser.add_argument("--seed", type=int, help="order stage: the seed")
    parser.add_argument("--bench", type=Path,
                        help="the bench stage's directory")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(parents=True)
    if args.stage == "bench":
        stage_bench(args.out)
    elif args.stage == "order":
        stage_order(args.seed, args.bench, args.out)
    else:
        stage_history(args.bench, args.out)


if __name__ == "__main__":
    main()
