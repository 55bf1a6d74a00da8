"""The columnar data plane: round-trips, parity, CSV ingest.

Three layers of guarantees:

1. **Lossless adapters** — a Hypothesis property pins
   ``RecordBatch.from_rows(rows).to_rows() == rows`` bit-for-bit
   (``array('d')`` stores exact IEEE doubles), plus pickle and store
   adapters round-tripping.
2. **Row/column parity** — the cleaning and PEA kernels reached
   through the column adapters produce the same records, events and
   accounting as through the row adapters.
3. **Conformance pin** — the engine's columnar tier 1 is compared
   byte-for-byte against the pre-refactor row path
   (``clean_store`` + ``detect_queue_spots``) on the golden day.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import RecordBatch
from repro.geo.bbox import BBox
from repro.core.pea import (
    extract_all_pickup_events,
    extract_pickup_events_batch,
    extract_pickup_events_with_stats,
    pickup_spans,
)
from repro.core.spots import detect_queue_spots
from repro.states.states import STATES_BY_CODE, TaxiState
from repro.trace.cleaning import clean_batch, clean_store
from repro.trace.log_store import MdtLogStore
from repro.trace.partition import partition_batch_by_taxi
from repro.trace.record import MdtRecord, parse_timestamp

from tests._golden import golden_engine, pipeline_snapshot

GOLDEN_CSV = Path(__file__).parent / "data" / "golden_day.csv"

#: Finite doubles only: a NaN field would break record equality itself,
#: and the ingest layer rejects non-finite values before they ever
#: reach a batch — NaN-freedom is an invariant of the data plane.
_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)

_records = st.builds(
    MdtRecord,
    ts=_finite,
    taxi_id=st.text(min_size=1, max_size=8),
    lon=_finite,
    lat=_finite,
    speed=_finite,
    state=st.sampled_from(list(TaxiState)),
)


#: Cleaning inputs: a city, a water body inside it, and points in the
#: city, in the water and outside the city.
_CITY = BBox(103.6, 1.24, 104.0, 1.47)
_WATER = [BBox(103.60, 1.24, 103.70, 1.26)]
_POINTS = [(103.8, 1.33), (103.65, 1.25), (120.0, 1.33), (103.8, 1.5)]

#: One taxi step: seconds since its previous record (0 repeats the
#: timestamp), state (any, so illegal transitions occur), point, speed,
#: and whether to re-transmit the previous record instead.
_clean_step = st.tuples(
    st.integers(min_value=0, max_value=30),
    st.sampled_from(list(TaxiState)),
    st.sampled_from(_POINTS),
    st.sampled_from([0.0, 5.0, 40.0]),
    st.booleans(),
)


@pytest.fixture(scope="module")
def golden_store() -> MdtLogStore:
    return MdtLogStore.from_csv(GOLDEN_CSV)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_records, max_size=60))
    def test_from_rows_to_rows_identity(self, rows):
        batch = RecordBatch.from_rows(rows)
        assert batch.to_rows() == rows
        assert len(batch) == len(rows)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_records, max_size=60))
    def test_pickle_round_trip(self, rows):
        batch = RecordBatch.from_rows(rows)
        clone = pickle.loads(pickle.dumps(batch))
        assert clone == batch
        assert clone.to_rows() == rows

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_records, max_size=60))
    def test_state_codes_survive_interning(self, rows):
        batch = RecordBatch.from_rows(rows)
        for i, record in enumerate(rows):
            assert STATES_BY_CODE[batch.state[i]] is record.state
            assert batch.taxi_id_at(i) == record.taxi_id
        # Interning stores each distinct id exactly once.
        assert sorted(batch.taxi_table) == sorted(
            {r.taxi_id for r in rows}
        )

    def test_store_adapters_round_trip(self, golden_store):
        batch = golden_store.to_batch()
        back = MdtLogStore.from_batch(batch)
        assert list(back.iter_records()) == list(
            golden_store.iter_records()
        )


class TestPrimitives:
    def _batch(self):
        rows = [
            MdtRecord(
                float(10 - i), f"T{i % 3}", 103.8 + i, 1.3, float(i),
                TaxiState.FREE,
            )
            for i in range(10)
        ]
        return RecordBatch.from_rows(rows), rows

    def test_slice_and_take(self):
        batch, rows = self._batch()
        assert batch.slice(2, 5).to_rows() == rows[2:5]
        assert batch.take([7, 1, 4]).to_rows() == [
            rows[7], rows[1], rows[4]
        ]

    def test_filter_mask(self):
        batch, rows = self._batch()
        mask = [i % 2 == 0 for i in range(len(rows))]
        assert batch.filter_mask(mask).to_rows() == [
            r for r, keep in zip(rows, mask) if keep
        ]
        with pytest.raises(ValueError):
            batch.filter_mask([True])

    def test_sorted_by_ts_is_stable(self):
        rows = [
            MdtRecord(1.0, "B", 0.0, 0.0, 0.0, TaxiState.FREE),
            MdtRecord(1.0, "A", 0.0, 0.0, 0.0, TaxiState.FREE),
            MdtRecord(0.0, "C", 0.0, 0.0, 0.0, TaxiState.FREE),
        ]
        ordered = RecordBatch.from_rows(rows).sorted_by_ts().to_rows()
        assert ordered == [rows[2], rows[0], rows[1]]

    def test_partition_fallback_matches_store_order(self, golden_store):
        grouped = RecordBatch.from_store(golden_store)
        # Reversing breaks the canonical grouped order, forcing the
        # argsort fallback.  The store path is the parity reference:
        # both are stable over the same (reversed) insertion order, so
        # ts-tied rows must come out in the same order from each.
        reversed_rows = grouped.to_rows()[::-1]
        slow = partition_batch_by_taxi(
            RecordBatch.from_rows(reversed_rows)
        )
        store = MdtLogStore(reversed_rows)
        assert [taxi for taxi, _ in slow] == store.taxi_ids
        for taxi_id, sub in slow:
            assert sub.to_rows() == store.records_of(taxi_id)


class TestParity:
    def test_clean_parity_on_golden_day(self, golden_store):
        row_cleaned, row_report = clean_store(golden_store)
        col_cleaned, col_report = clean_batch(
            RecordBatch.from_store(golden_store)
        )
        assert col_cleaned.to_rows() == list(row_cleaned.iter_records())
        assert col_report == row_report

    def test_clean_parity_with_bbox_filters(self, golden_store):
        from repro.geo.bbox import BBox

        records = list(golden_store.iter_records())
        bbox = BBox.from_points((r.lon, r.lat) for r in records)
        lon, lat = bbox.center
        water = [BBox(lon, lat, bbox.east, bbox.north)]
        shrunk = BBox(bbox.west, bbox.south, lon, bbox.north)
        row_cleaned, row_report = clean_store(
            golden_store, city_bbox=shrunk, inaccessible=water
        )
        col_cleaned, col_report = clean_batch(
            RecordBatch.from_store(golden_store),
            city_bbox=shrunk,
            inaccessible=water,
        )
        assert row_report.gps_error > 0
        assert col_cleaned.to_rows() == list(row_cleaned.iter_records())
        assert col_report == row_report

    @settings(max_examples=150, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(["A", "B", "C"]),
            st.lists(_clean_step, max_size=30),
        ),
        st.randoms(),
    )
    def test_clean_parity_on_random_taxis(self, steps, rnd):
        per_taxi = []
        for taxi, taxi_steps in steps.items():
            records, ts = [], 0.0
            for dt, state, (lon, lat), speed, resend in taxi_steps:
                if resend and records:
                    records.append(records[-1])
                    continue
                ts += dt
                records.append(MdtRecord(ts, taxi, lon, lat, speed, state))
            per_taxi.append(records)
        # Interleave the taxis at random, each one's records in order.
        rows = []
        while any(per_taxi):
            rows.append(rnd.choice([r for r in per_taxi if r]).pop(0))

        row_cleaned, row_report = clean_store(
            MdtLogStore(rows), city_bbox=_CITY, inaccessible=_WATER
        )
        col_cleaned, col_report = clean_batch(
            RecordBatch.from_rows(rows), city_bbox=_CITY, inaccessible=_WATER
        )
        assert col_cleaned.to_rows() == list(row_cleaned.iter_records())
        assert col_report == row_report

    def test_per_taxi_clean_parity(self, golden_store):
        for taxi_id in golden_store.taxi_ids:
            records = golden_store.records_of(taxi_id)
            survivors, row_report = clean_store(MdtLogStore(records))
            cleaned, col_report = clean_batch(RecordBatch.from_rows(records))
            assert cleaned.to_rows() == list(survivors.iter_records())
            assert col_report == row_report

    def test_pea_parity_on_golden_day(self, golden_store):
        cleaned, _ = clean_store(golden_store)
        row_events = extract_all_pickup_events(cleaned)
        col_events = extract_pickup_events_batch(
            RecordBatch.from_store(cleaned)
        )
        assert len(col_events) == len(row_events)
        for col, row in zip(col_events, row_events):
            assert col.taxi_id == row.taxi_id
            assert list(col) == list(row)

    def test_pea_stats_parity_per_taxi(self, golden_store):
        cleaned, _ = clean_store(golden_store)
        for trajectory in cleaned.iter_trajectories():
            row_events, row_stats = extract_pickup_events_with_stats(
                trajectory
            )
            batch = RecordBatch.from_rows(trajectory.records)
            _, col_stats = pickup_spans(batch.speed, batch.state)
            col_events = extract_pickup_events_batch(batch)
            assert col_stats == row_stats
            assert [list(e) for e in col_events] == [
                list(e) for e in row_events
            ]

    def test_streaming_feed_batch_matches_feed(self, golden_store):
        from tests._golden import (
            snapshot_state,
            streaming_bootstrap,
            streaming_stack,
        )

        engine = golden_engine(golden_store)
        bootstrap = streaming_bootstrap(engine, golden_store)
        by_record, snap_a = streaming_stack(bootstrap)
        by_batch, snap_b = streaming_stack(bootstrap)
        for record in bootstrap["records"]:
            by_record.feed(record)
        by_record.finish()
        by_batch.feed_batch(RecordBatch.from_rows(bootstrap["records"]))
        by_batch.finish()
        assert snapshot_state(snap_a) == snapshot_state(snap_b)


class TestConformancePin:
    def test_columnar_tier1_matches_row_reference(self, golden_store):
        """Engine tier 1 (columnar) vs the pre-refactor row path."""
        engine = golden_engine(golden_store)
        columnar = engine.detect_spots(golden_store)
        row_cleaned, _ = clean_store(
            golden_store, city_bbox=engine.city_bbox
        )
        row = detect_queue_spots(
            row_cleaned,
            engine.zones,
            engine.projection,
            engine.config.detection,
        )
        assert [asdict(s) for s in columnar.spots] == [
            asdict(s) for s in row.spots
        ]
        assert columnar.noise_count == row.noise_count
        assert dict(columnar.per_zone_counts) == dict(
            row.per_zone_counts
        )
        assert len(columnar.pickup_events) == len(row.pickup_events)
        for col, ref in zip(columnar.pickup_events, row.pickup_events):
            assert col.taxi_id == ref.taxi_id
            assert list(col) == list(ref)

    def test_full_pipeline_snapshot_identical_from_batch(
        self, golden_store
    ):
        """detect_spots(batch) == detect_spots(store), end to end."""
        via_store = pipeline_snapshot(
            golden_engine(golden_store), golden_store
        )
        engine = golden_engine(golden_store)
        detection = engine.detect_spots(
            RecordBatch.from_store(golden_store)
        )
        analyses = engine.disambiguate(golden_store, detection)
        assert via_store["spots"] == [
            asdict(spot) for spot in detection.spots
        ]
        assert via_store["labels"] == {
            spot_id: [
                {
                    "slot": label.slot,
                    "label": label.label.value,
                    "routine": label.routine,
                }
                for label in analysis.labels
            ]
            for spot_id, analysis in analyses.items()
        }


class TestCsvIngest:
    MALFORMED = [
        "01/08/2008 19:04:51,SH0001A,103.8,1.3",  # truncated
        "01/08/2008 19:04:52,,103.8,1.3,5.0,FREE",  # empty taxi id
        "01/08/2008 19:04:53,SH0001A,nope,1.3,5.0,FREE",  # bad float
        "01/08/2008 19:04:54,SH0001A,inf,1.3,5.0,FREE",  # non-finite
        "99/99/2008 19:04:55,SH0001A,103.8,1.3,5.0,FREE",  # bad ts
        "01/08/2008 19:04:56,SH0001A,103.8,1.3,5.0,WARP",  # bad state
    ]

    def _write_csv(self, tmp_path, lines):
        path = tmp_path / "day.csv"
        path.write_text(
            MdtRecord.CSV_HEADER + "\n" + "".join(
                line + "\n" for line in lines
            ),
            encoding="utf-8",
        )
        return path

    def test_malformed_accounting_matches_store(self, tmp_path):
        good = [
            "01/08/2008 19:04:51,SH0001A,103.799900,1.337950,54.0,POB",
            "01/08/2008 19:05:51,SH0002B,103.810000,1.340000,0.0,FREE",
        ]
        lines = good + self.MALFORMED + good + self.MALFORMED
        path = self._write_csv(tmp_path, lines)
        store = MdtLogStore.from_csv(path, on_error="skip")
        batch = RecordBatch.from_csv(path, on_error="skip")
        assert batch.skipped_lines == store.skipped_lines == 12
        assert sorted(batch.to_rows(), key=lambda r: (r.taxi_id, r.ts)) \
            == list(store.iter_records())

    @pytest.mark.parametrize("bad", MALFORMED)
    def test_raise_mode_matches_store(self, tmp_path, bad):
        path = self._write_csv(tmp_path, [bad])
        with pytest.raises(ValueError):
            MdtLogStore.from_csv(path)
        with pytest.raises(ValueError):
            RecordBatch.from_csv(path)

    def test_golden_csv_parses_identically(self, golden_store, tmp_path):
        batch = RecordBatch.from_csv(GOLDEN_CSV)
        assert batch.skipped_lines == 0
        assert sorted(
            batch.to_rows(), key=lambda r: (r.taxi_id, r.ts)
        ) == list(golden_store.iter_records())
        out = tmp_path / "round.csv"
        batch.to_csv(out)
        assert RecordBatch.from_csv(out) == batch


class TestParseTimestamp:
    def test_rejects_non_finite_posix_value(self, monkeypatch):
        """A parse that yields inf/NaN must raise, not propagate."""
        import repro.trace.record as record_mod

        class _Inf:
            def replace(self, **_kw):
                return self

            def timestamp(self):
                return math.inf

        class _FakeDatetime:
            @staticmethod
            def strptime(_text, _fmt):
                return _Inf()

        monkeypatch.setattr(record_mod, "datetime", _FakeDatetime)
        with pytest.raises(ValueError, match="non-finite"):
            parse_timestamp("01/08/2008 19:04:51")

    def test_accepts_normal_timestamp(self):
        assert parse_timestamp("01/01/1970 00:00:00") == 0.0
