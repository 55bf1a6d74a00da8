"""Algorithm 1 — the Pickup Extraction Algorithm (PEA).

PEA scans one taxi's trajectory and extracts *slow pickup events*:
sub-trajectories with at least two consecutive low-speed records (the taxi
inching forward in a waiting line) whose taxi states show a genuine pickup.

The algorithm keeps two flags while scanning:

* ``phi1`` — the previous record was low-speed;
* ``phi2`` — a candidate sub-trajectory R_k is currently open (at least
  two consecutive low-speed records seen).

Records with a non-operational state (BREAK/OFFLINE/POWEROFF) reset the
scan (the paper's TAG1).  When speed rises back above the threshold with a
candidate open, the candidate is kept unless one of the three state
constraints of section 4.2 rejects it:

1. it starts occupied and ends unoccupied (a passenger-alight event);
2. it starts FREE and ends ONCALL (the taxi left for a booking elsewhere);
3. its state never changes (a traffic jam or red light).

Two deliberate clarifications of the published pseudocode, documented in
DESIGN.md: the candidate state is fully reset after a keep decision (the
paper resets it only on the discard paths, which would leak state), and a
candidate still open at the end of the trajectory is finalized with the
same constraints (the paper leaves end-of-input unspecified).

:func:`pickup_spans` (the scan) and :func:`state_rejection` (the three
constraints) are the one implementation of each, over plain speed and
state-code sequences.  The row adapter passes record fields, the column
adapter column slices, and the streaming operator
(:mod:`repro.stream.pea_stream`) judges each candidate it closes with
:func:`state_rejection`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.columnar import RecordBatch
from repro.states.states import (
    STATE_CODES,
    TaxiState,
    OCCUPIED_CODES,
    UNOCCUPIED_CODES,
    NON_OPERATIONAL_CODES,
)
from repro.trace.trajectory import SubTrajectory, Trajectory

#: The paper's speed threshold eta_sp: 10 km/h (section 6.1.2).
DEFAULT_SPEED_THRESHOLD_KMH = 10.0

_FREE = STATE_CODES[TaxiState.FREE]
_ONCALL = STATE_CODES[TaxiState.ONCALL]


@dataclass(frozen=True)
class PeaStats:
    """Bookkeeping of one PEA run (useful for ablations and tests)."""

    candidates: int = 0
    kept: int = 0
    rejected_alight: int = 0
    rejected_oncall_leave: int = 0
    rejected_no_transition: int = 0


def state_rejection(
    state: Sequence[int], start: int, end: int
) -> Optional[str]:
    """The section-4.2 constraint that rejects candidate ``R(start, end)``.

    Args:
        state: state codes (see :data:`~repro.states.states.
            STATES_BY_CODE`); the candidate spans ``state[start..end]``.

    Returns:
        The :class:`PeaStats` counter of the violated constraint —
        ``"rejected_alight"``, ``"rejected_oncall_leave"`` or
        ``"rejected_no_transition"`` — or None when the candidate is a
        genuine pickup.
    """
    first = state[start]
    last = state[end]
    if first in OCCUPIED_CODES and last in UNOCCUPIED_CODES:
        return "rejected_alight"
    if first == _FREE and last == _ONCALL:
        return "rejected_oncall_leave"
    for j in range(start + 1, end + 1):
        if state[j] != first:
            return None
    return "rejected_no_transition"


def pickup_spans(
    speed: Sequence[float],
    state: Sequence[int],
    speed_threshold_kmh: float = DEFAULT_SPEED_THRESHOLD_KMH,
    apply_state_filters: bool = True,
) -> Tuple[List[Tuple[int, int]], PeaStats]:
    """Algorithm 1 over one taxi's time-ordered speeds and state codes.

    Args:
        speed: speeds in km/h.
        state: state codes, aligned with ``speed``.
        speed_threshold_kmh: eta_sp; records at or below it are low-speed.
        apply_state_filters: disable to ablate the three state-transition
            constraints (bench ``ablation_state_filters``).

    Returns:
        ``(spans, stats)``: the inclusive ``(start, end)`` index spans of
        the kept pickup events in temporal order, and the run's
        :class:`PeaStats`.
    """
    if speed_threshold_kmh <= 0:
        raise ValueError("speed threshold must be positive")
    candidates: List[Tuple[int, int]] = []
    phi1 = False
    phi2 = False
    start = -1  # index of p_{i-1} when the candidate opened
    for i, (sp, code) in enumerate(zip(speed, state)):
        if code in NON_OPERATIONAL_CODES:
            # TAG1: drop any open candidate and restart the scan.
            phi1 = False
            phi2 = False
            continue
        if sp <= speed_threshold_kmh:
            if not phi1:
                phi1 = True
            elif not phi2:
                start = i - 1
                phi2 = True
            # with phi1 and phi2 the record simply extends the candidate
        else:
            if phi2:
                candidates.append((start, i - 1))
            phi1 = False
            phi2 = False
    if phi2:
        candidates.append((start, len(state) - 1))

    spans: List[Tuple[int, int]] = []
    rejected = {
        "rejected_alight": 0,
        "rejected_oncall_leave": 0,
        "rejected_no_transition": 0,
    }
    for s, e in candidates:
        reason = state_rejection(state, s, e) if apply_state_filters else None
        if reason is None:
            spans.append((s, e))
        else:
            rejected[reason] += 1
    return spans, PeaStats(
        candidates=len(candidates), kept=len(spans), **rejected
    )


def extract_pickup_events(
    trajectory: Trajectory,
    speed_threshold_kmh: float = DEFAULT_SPEED_THRESHOLD_KMH,
    apply_state_filters: bool = True,
) -> List[SubTrajectory]:
    """Run PEA over one taxi's trajectory.

    Args:
        trajectory: the taxi's full (cleaned) trajectory.
        speed_threshold_kmh: eta_sp; records at or below it are low-speed.
        apply_state_filters: disable to ablate the three state-transition
            constraints (bench ``ablation_state_filters``).

    Returns:
        The sub-trajectory set omega of slow pickup events, in temporal
        order.
    """
    events, _ = extract_pickup_events_with_stats(
        trajectory, speed_threshold_kmh, apply_state_filters
    )
    return events


def extract_pickup_events_with_stats(
    trajectory: Trajectory,
    speed_threshold_kmh: float = DEFAULT_SPEED_THRESHOLD_KMH,
    apply_state_filters: bool = True,
) -> Tuple[List[SubTrajectory], PeaStats]:
    """Like :func:`extract_pickup_events` but also returns :class:`PeaStats`."""
    records = trajectory.records
    spans, stats = pickup_spans(
        [r.speed for r in records],
        [STATE_CODES[r.state] for r in records],
        speed_threshold_kmh,
        apply_state_filters,
    )
    return [trajectory.sub(s, e) for s, e in spans], stats


def extract_pickup_events_batch(
    batch: RecordBatch,
    speed_threshold_kmh: float = DEFAULT_SPEED_THRESHOLD_KMH,
    apply_state_filters: bool = True,
) -> List[SubTrajectory]:
    """Run PEA over every taxi in a batch (columnar sibling of
    :func:`extract_all_pickup_events`).

    Each taxi's speed and state columns go through
    :func:`pickup_spans`; a :class:`Trajectory` is materialized only
    for taxis that keep at least one event, so rejected candidates and
    event-free taxis never allocate record objects.  Taxis are visited
    in sorted-id order, so the event list is identical to the store
    path's.
    """
    from repro.trace.partition import partition_batch_by_taxi

    events: List[SubTrajectory] = []
    for taxi_id, sub in partition_batch_by_taxi(batch):
        spans, _ = pickup_spans(
            sub.speed, sub.state, speed_threshold_kmh, apply_state_filters
        )
        if spans:
            trajectory = Trajectory(taxi_id, sub.to_rows())
            events.extend(trajectory.sub(s, e) for s, e in spans)
    return events


def extract_all_pickup_events(
    store,
    speed_threshold_kmh: float = DEFAULT_SPEED_THRESHOLD_KMH,
    apply_state_filters: bool = True,
) -> List[SubTrajectory]:
    """Run PEA over every taxi in a log store (the multi-taxi set W).

    Args:
        store: an :class:`~repro.trace.log_store.MdtLogStore`.

    Returns:
        The union of all taxis' pickup-event sub-trajectories.
    """
    events: List[SubTrajectory] = []
    for trajectory in store.iter_trajectories():
        events.extend(
            extract_pickup_events(
                trajectory, speed_threshold_kmh, apply_state_filters
            )
        )
    return events
