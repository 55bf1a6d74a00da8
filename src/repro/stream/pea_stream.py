"""Incremental PEA: Algorithm 1 as a streaming operator.

:class:`StreamingPea` keeps the two PEA flags and the open candidate per
taxi and is fed records one at a time (per taxi, in time order).  A
completed candidate that passes the section-4.2 state constraints is
returned as a :class:`PickupEvent`.

The scan keeps Algorithm 1's flags incrementally, one record at a time;
each candidate it closes is judged by the batch PEA's own
:func:`~repro.core.pea.state_rejection`.  A property test streams random
record sequences through this operator and both batch adapters and
requires the same events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.pea import DEFAULT_SPEED_THRESHOLD_KMH, state_rejection
from repro.states.states import (
    NON_OPERATIONAL_STATES,
    STATE_CODES,
    TaxiState,
)
from repro.trace.record import MdtRecord


@dataclass(frozen=True)
class PickupEvent:
    """A completed slow-pickup event (an owned copy of its records).

    Duck-type compatible with :class:`~repro.trace.trajectory.
    SubTrajectory` where the analytics need it (iteration, ``taxi_id``,
    ``centroid``, ``first``/``last``), so the batch WTE/feature code
    consumes it unchanged.
    """

    taxi_id: str
    records: Tuple[MdtRecord, ...]

    def __iter__(self) -> Iterator[MdtRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def first(self) -> MdtRecord:
        return self.records[0]

    @property
    def last(self) -> MdtRecord:
        return self.records[-1]

    def states(self) -> List[TaxiState]:
        return [r.state for r in self.records]

    def centroid(self) -> Tuple[float, float]:
        n = len(self.records)
        return (
            sum(r.lon for r in self.records) / n,
            sum(r.lat for r in self.records) / n,
        )


class _TaxiScanState:
    __slots__ = ("phi1", "candidate", "prev")

    def __init__(self) -> None:
        self.phi1 = False
        self.candidate: Optional[List[MdtRecord]] = None
        self.prev: Optional[MdtRecord] = None


class StreamingPea:
    """Feed MDT records, collect completed pickup events.

    Args:
        speed_threshold_kmh: PEA's eta_sp (10 km/h in the paper).
        apply_state_filters: the three section-4.2 constraints.
    """

    def __init__(
        self,
        speed_threshold_kmh: float = DEFAULT_SPEED_THRESHOLD_KMH,
        apply_state_filters: bool = True,
    ):
        if speed_threshold_kmh <= 0:
            raise ValueError("speed threshold must be positive")
        self.speed_threshold = speed_threshold_kmh
        self.apply_state_filters = apply_state_filters
        self._taxis: Dict[str, _TaxiScanState] = {}

    def feed(self, record: MdtRecord) -> Optional[PickupEvent]:
        """Process one record; returns a completed event, if any.

        Records must arrive per taxi in time order (cross-taxi
        interleaving is fine).
        """
        state = self._taxis.setdefault(record.taxi_id, _TaxiScanState())
        event: Optional[PickupEvent] = None

        if record.state in NON_OPERATIONAL_STATES:
            state.phi1 = False
            state.candidate = None
            state.prev = record
            return None

        low = record.speed <= self.speed_threshold
        if low:
            if state.candidate is not None:
                state.candidate.append(record)
            elif state.phi1:
                # Second consecutive low-speed record opens the candidate
                # with its predecessor, exactly as the batch PEA does.
                state.candidate = [state.prev, record]
            else:
                state.phi1 = True
        else:
            if state.candidate is not None:
                event = self._event(record.taxi_id, state.candidate)
            state.phi1 = False
            state.candidate = None
        state.prev = record
        return event

    def flush(self) -> List[PickupEvent]:
        """Finalize all still-open candidates (end of stream/day)."""
        events: List[PickupEvent] = []
        for taxi_id, state in self._taxis.items():
            if state.candidate is not None:
                event = self._event(taxi_id, state.candidate)
                if event is not None:
                    events.append(event)
            state.phi1 = False
            state.candidate = None
        return events

    def export_state(self) -> dict:
        """Picklable per-taxi scan state for checkpoint/restore."""
        return {
            taxi_id: (
                state.phi1,
                None if state.candidate is None else list(state.candidate),
                state.prev,
            )
            for taxi_id, state in self._taxis.items()
        }

    def restore_state(self, state: dict) -> None:
        """Restore a state exported by :meth:`export_state`."""
        self._taxis = {}
        for taxi_id, (phi1, candidate, prev) in state.items():
            scan = _TaxiScanState()
            scan.phi1 = phi1
            scan.candidate = None if candidate is None else list(candidate)
            scan.prev = prev
            self._taxis[taxi_id] = scan

    def _event(
        self, taxi_id: str, records: List[MdtRecord]
    ) -> Optional[PickupEvent]:
        """The closed candidate as an event, None when a constraint
        rejects it."""
        if self.apply_state_filters:
            codes = [STATE_CODES[r.state] for r in records]
            if state_rejection(codes, 0, len(codes) - 1) is not None:
                return None
        return PickupEvent(taxi_id=taxi_id, records=tuple(records))
