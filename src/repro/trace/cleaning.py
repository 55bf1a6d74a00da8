"""MDT log preprocessing (paper section 6.1.1).

The paper identifies three error classes in raw MDT logs, jointly ~2.8% of
all records, and removes them before analysis:

1. *Improper/missing taxi states* — state sequences that violate the
   transition diagram of Fig. 3 (e.g. a spurious FREE between two PAYMENT
   records, caused by a clock-synchronisation bug; or skipped intermediate
   states such as ARRIVED/STC that drivers never pressed).
2. *Record duplication* — GPRS re-transmissions between the MDT and the
   backend produce byte-identical records.
3. *GPS coordinate errors* — points outside the city or inside inaccessible
   zones (urban-canyon multipath).

:func:`clean_taxi` applies the three filters to one taxi's ordered field
sequences and returns the surviving row indices.  It is the only
implementation of the rules; the data planes reach it through short
adapters: :func:`clean_store` passes record fields, :func:`clean_batch`
column slices.  Both return the cleaned data and a
:class:`CleaningReport` with per-class counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from repro.geo.bbox import BBox
from repro.states.machine import TRANSITION_CODE_MATRIX
from repro.states.states import STATE_CODES
from repro.trace.log_store import MdtLogStore

if TYPE_CHECKING:  # cycle-free: columnar.batch imports trace.record
    from repro.columnar import RecordBatch


@dataclass
class CleaningReport:
    """Counts of removed records per section-6.1.1 error class."""

    total_in: int = 0
    improper_state: int = 0
    duplicate: int = 0
    gps_error: int = 0
    malformed_line: int = 0
    """Raw CSV lines that never became records (truncated, non-numeric
    or non-finite fields, unknown state codes).  Counted separately from
    ``total_in``, which only sees parsed records."""

    @property
    def total_removed(self) -> int:
        """Records removed across all three error classes."""
        return self.improper_state + self.duplicate + self.gps_error

    @property
    def removed_fraction(self) -> float:
        """Fraction of input records removed (the paper reports ~2.8%)."""
        if self.total_in == 0:
            return 0.0
        return self.total_removed / self.total_in

    def merge(self, other: "CleaningReport") -> None:
        """Accumulate another report into this one."""
        self.total_in += other.total_in
        self.improper_state += other.improper_state
        self.duplicate += other.duplicate
        self.gps_error += other.gps_error
        self.malformed_line += other.malformed_line


def clean_taxi(
    ts: Sequence[float],
    lon: Sequence[float],
    lat: Sequence[float],
    speed: Sequence[float],
    state: Sequence[int],
    report: CleaningReport,
    city_bbox: Optional[BBox] = None,
    inaccessible: Sequence[BBox] = (),
) -> List[int]:
    """The section-6.1.1 filters over one taxi's time-ordered fields.

    The one cleaning kernel: :func:`clean_store` (rows) and
    :func:`clean_batch` (columns) both call it with their field
    sequences.  ``state`` holds state codes (see
    :data:`~repro.states.states.STATES_BY_CODE`).

    A row is a duplicate — a GPRS re-transmission — when it repeats the
    full payload (timestamp, state, coordinates, speed) of the previous
    non-duplicate row.  The filters run in the order duplicates ->
    state validity -> GPS, so a duplicated erroneous record is counted
    once (as a duplicate).

    State validity is checked against the *state chain*, not the kept
    rows: a row removed for a GPS error still carries a genuine state,
    so it advances the chain.  Only rows removed as improper states
    leave the chain untouched.  Without this, one GPS outlier on a
    state-change record (say the BREAK of a power-up sequence) would
    make every subsequent record look mis-ordered and cascade-delete
    the rest of the taxi's day.

    Args:
        ts, lon, lat, speed, state: the taxi's aligned field sequences.
        report: accumulates the per-class counts.
        city_bbox: if given, points outside it are GPS errors.
        inaccessible: bboxes (e.g. water bodies) whose interior points
            are GPS errors.

    Returns:
        The indices of the surviving rows, ascending.
    """
    report.total_in += len(ts)
    kept: List[int] = []
    prev = -1  # index of the last non-duplicate row
    chain = -1  # state code of the chain, -1 = none yet
    for i in range(len(ts)):
        if (
            prev >= 0
            and ts[i] == ts[prev]
            and state[i] == state[prev]
            and lon[i] == lon[prev]
            and lat[i] == lat[prev]
            and speed[i] == speed[prev]
        ):
            report.duplicate += 1
            continue
        prev = i

        if chain >= 0 and not TRANSITION_CODE_MATRIX[chain][state[i]]:
            report.improper_state += 1
            continue
        chain = state[i]

        if city_bbox is not None and not city_bbox.contains(lon[i], lat[i]):
            report.gps_error += 1
            continue
        if any(zone.contains(lon[i], lat[i]) for zone in inaccessible):
            report.gps_error += 1
            continue
        kept.append(i)
    return kept


def clean_batch(
    batch: RecordBatch,
    city_bbox: Optional[BBox] = None,
    inaccessible: Iterable[BBox] = (),
) -> Tuple[RecordBatch, CleaningReport]:
    """Clean a whole batch (columnar sibling of :func:`clean_store`).

    Rows are partitioned per taxi (stable argsort, or a linear pass for
    already-grouped batches), each taxi's column slices go through
    :func:`clean_taxi`, and the survivors are re-packed grouped by taxi
    in sorted-id order — exactly the record order :func:`clean_store`'s
    output store yields.

    Returns:
        ``(cleaned_batch, report)``.
    """
    from repro.columnar import RecordBatch
    from repro.trace.partition import partition_batch_by_taxi

    report = CleaningReport()
    inaccessible = list(inaccessible)
    parts: List[RecordBatch] = []
    for _, sub in partition_batch_by_taxi(batch):
        kept = clean_taxi(
            sub.ts, sub.lon, sub.lat, sub.speed, sub.state,
            report, city_bbox, inaccessible,
        )
        parts.append(sub if len(kept) == len(sub) else sub.take(kept))
    return RecordBatch.concat(parts), report


def clean_store(
    store: MdtLogStore,
    city_bbox: Optional[BBox] = None,
    inaccessible: Iterable[BBox] = (),
) -> Tuple[MdtLogStore, CleaningReport]:
    """Clean every taxi's records in a store (:func:`clean_taxi` on the
    records' fields).

    Returns:
        ``(cleaned_store, report)`` where the report aggregates counts over
        all taxis.
    """
    report = CleaningReport()
    cleaned = MdtLogStore()
    inaccessible = list(inaccessible)
    for taxi_id in store.taxi_ids:
        records = store.records_of(taxi_id)
        kept = clean_taxi(
            [r.ts for r in records],
            [r.lon for r in records],
            [r.lat for r in records],
            [r.speed for r in records],
            [STATE_CODES[r.state] for r in records],
            report,
            city_bbox,
            inaccessible,
        )
        cleaned.extend(records[i] for i in kept)
    return cleaned, report
