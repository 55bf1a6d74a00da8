"""Fuzz-ish CSV ingest tests: garbage in, accounting out — never a crash.

A deployed feed delivers truncated lines, NaN coordinates, out-of-order
timestamps and state codes nobody documented.  Every layer of CSV
ingest (record parsing, lenient store loads, and the columnar CSV path
``taxiqueue detect`` runs, end to end) must either raise a clean
``ValueError`` (strict mode) or count the line as skipped.
"""

from __future__ import annotations

import pytest

from repro.columnar import RecordBatch
from repro.core.engine import EngineConfig, QueueAnalyticEngine
from repro.core.spots import SpotDetectionParams
from repro.geo.bbox import BBox
from repro.geo.point import LocalProjection
from repro.geo.zones import four_zone_partition
from repro.trace.log_store import MdtLogStore
from repro.trace.record import MdtRecord

CITY_BBOX = BBox(103.60, 1.20, 104.00, 1.50)

HEADER = MdtRecord.CSV_HEADER


def row(
    time="01/08/2008 08:00:00",
    taxi="SH0001A",
    lon=103.80,
    lat=1.35,
    speed=10.0,
    state="FREE",
) -> str:
    return f"{time},{taxi},{lon},{lat},{speed},{state}"


def write_csv(path, lines) -> None:
    path.write_text("\n".join([HEADER, *lines]) + "\n")


def make_engine() -> QueueAnalyticEngine:
    lon, lat = CITY_BBOX.center
    return QueueAnalyticEngine(
        zones=four_zone_partition(CITY_BBOX),
        projection=LocalProjection(lon, lat),
        config=EngineConfig(
            detection=SpotDetectionParams(min_pts=2, eps_m=500.0)
        ),
        city_bbox=CITY_BBOX,
    )


class TestRecordParsing:
    @pytest.mark.parametrize(
        "bad",
        [
            "01/08/2008 08:00:00,SH0001A,103.8",  # truncated
            row(lon="nan"),
            row(lat="inf"),
            row(lon="-inf"),
            row(speed="nan"),
            row(taxi=""),  # empty taxi id
            row(state="WARP"),  # unknown state code
            row(time="2008-08-01 08:00"),  # wrong timestamp format
            row(lon="east"),  # non-numeric coordinate
            row() + ",EXTRA",  # wrong arity
        ],
    )
    def test_malformed_rows_raise_value_error(self, bad):
        with pytest.raises(ValueError):
            MdtRecord.from_csv_row(bad)

    def test_well_formed_row_round_trips(self):
        record = MdtRecord.from_csv_row(row())
        assert MdtRecord.from_csv_row(record.to_csv_row()) == record


class TestLenientStoreLoad:
    def test_strict_mode_raises_on_garbage(self, tmp_path):
        path = tmp_path / "day.csv"
        write_csv(path, [row(), row(lon="nan")])
        with pytest.raises(ValueError):
            MdtLogStore.from_csv(path, on_error="raise")

    def test_skip_mode_counts_and_continues(self, tmp_path):
        path = tmp_path / "day.csv"
        write_csv(
            path,
            [
                row(),
                row(lon="nan"),
                "01/08/2008 08:00:10,SH0001A",  # truncated
                row(time="01/08/2008 08:00:20", state="WARP"),
                row(time="01/08/2008 08:00:30"),
            ],
        )
        store = MdtLogStore.from_csv(path, on_error="skip")
        assert len(store) == 2
        assert store.skipped_lines == 3

    def test_out_of_order_timestamps_are_sorted_per_taxi(self, tmp_path):
        path = tmp_path / "day.csv"
        write_csv(
            path,
            [
                row(time="01/08/2008 09:00:00"),
                row(time="01/08/2008 08:00:00"),
                row(time="01/08/2008 08:30:00"),
            ],
        )
        store = MdtLogStore.from_csv(path)
        timestamps = [r.ts for r in store.records_of("SH0001A")]
        assert timestamps == sorted(timestamps)


class TestCorruptedCsvEndToEnd:
    """A corrupted day through the columnar CSV path of ``detect``."""

    def _corrupted_day(self, tmp_path):
        lines = []
        # Two clusters of pickup activity in different zones: enough
        # FREE->POB transitions for PEA, spread over four taxis.
        for i, (lon, lat) in enumerate(
            [
                (103.650, 1.250),
                (103.950, 1.450),
                (103.651, 1.251),
                (103.951, 1.451),
            ]
        ):
            taxi = f"T{i:03d}"
            for m in range(6):
                base = f"01/08/2008 {8 + m}:00:{i:02d}"
                lines.append(row(time=base, taxi=taxi, lon=lon, lat=lat,
                                 speed=0.0, state="FREE"))
                lines.append(
                    row(time=f"01/08/2008 {8 + m}:10:{i:02d}", taxi=taxi,
                        lon=lon, lat=lat, speed=0.0, state="POB")
                )
        # Interleave garbage a real feed produces.
        lines.insert(3, "01/08/2008 08:00:00,T000")  # truncated
        lines.insert(7, row(lon="nan"))  # NaN coordinate
        lines.insert(11, row(state="WARP"))  # unknown state
        lines.insert(13, row(time="99/99/9999 99:99:99"))  # bad timestamp
        path = tmp_path / "corrupted.csv"
        write_csv(path, lines)
        return path

    def test_never_crashes_and_counts_garbage(self, tmp_path):
        path = self._corrupted_day(tmp_path)
        expected = make_engine().detect_spots(
            MdtLogStore.from_csv(path, on_error="skip")
        )

        batch = RecordBatch.from_csv(path, on_error="skip")
        detection = make_engine().detect_spots(batch)
        assert len(expected.spots) == 2  # the garbage didn't kill clustering
        assert detection.spots == expected.spots
        assert detection.noise_count == expected.noise_count
        # Truncated, NaN, unknown-state and bad-timestamp lines are all
        # accounted, none raised.
        assert batch.skipped_lines == 4
        # One pickup event per taxi survived the garbage.
        assert len(detection.pickup_events) == 4
