"""Program-side helpers shared by the input generator and the child.

Everything here imports the program under test (``repro``), so only
processes started with the checkout's ``src`` on ``PYTHONPATH`` import
this module; the runner (``run.py``) never does.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.conformance.canonical import batch_snapshot, canonical_json, streaming_state
from repro.core.engine import EngineConfig, QueueAnalyticEngine
from repro.core.types import TimeSlotGrid
from repro.geo.bbox import BBox
from repro.geo.point import LocalProjection
from repro.geo.zones import Zone, ZonePartition

#: Bench-day scale: the same as ``benchmarks/conftest.py``.
FLEET = 500
SPOTS = 30
DECOYS = 15

#: Days of history written before the bench day for ``serve-mixed``.
HISTORY_DAYS = 28


def city_metadata(output) -> dict:
    """The JSON-able city metadata of a simulated day's output."""
    city = output.city
    return {
        "bbox": _box(city.bbox),
        "zones": [{"name": z.name, "bbox": _box(z.bbox)} for z in city.zones],
        "water": [_box(w) for w in city.water],
        "observed_fraction": output.config.observed_fraction,
        "day_of_week": output.config.day_of_week,
        "day_start": output.ground_truth.grid.start_ts,
        "slot_seconds": output.ground_truth.grid.slot_seconds,
    }


def _box(bbox: BBox) -> list:
    return [bbox.west, bbox.south, bbox.east, bbox.north]


def load_metadata(inputs: Path) -> dict:
    return json.loads((inputs / "city.json").read_text())


def build_engine(meta: dict) -> QueueAnalyticEngine:
    """The engine the bench day is analyzed with."""
    bbox = BBox(*meta["bbox"])
    zones = ZonePartition(
        [Zone(z["name"], BBox(*z["bbox"])) for z in meta["zones"]]
    )
    return QueueAnalyticEngine(
        zones=zones,
        projection=LocalProjection(*bbox.center),
        config=EngineConfig(observed_fraction=meta["observed_fraction"]),
        city_bbox=bbox,
        inaccessible=[BBox(*w) for w in meta["water"]],
    )


def day_grid(meta: dict) -> TimeSlotGrid:
    return TimeSlotGrid.for_day(meta["day_start"], meta["slot_seconds"])


def sha256_json(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def batch_digest(detection, analyses) -> str:
    """SHA-256 of the canonical batch snapshot (spots, thresholds, labels)."""
    return sha256_json(batch_snapshot(detection, analyses))


def streaming_digest(snapshot_store) -> str:
    """SHA-256 of the canonical streaming serving state."""
    return sha256_json(streaming_state(snapshot_store))
