"""Property-based tests of the WTE wait-interval invariants.

For arbitrary state sequences, wait intervals are never negative, never
span a PAYMENT reset, and start and end on records of the segment.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wte import extract_wait_event
from repro.states.states import TaxiState
from repro.trace.record import MdtRecord
from repro.trace.trajectory import Trajectory

DAY0 = 1_200_000_000.0  # an arbitrary fixed day origin


@st.composite
def segments(draw) -> Trajectory:
    """One taxi's contiguous record segment with increasing timestamps."""
    n = draw(st.integers(min_value=1, max_value=30))
    ts = DAY0
    records = []
    for _ in range(n):
        ts += draw(st.floats(min_value=0.5, max_value=600.0))
        records.append(
            MdtRecord(
                ts=ts,
                taxi_id="W",
                lon=103.8,
                lat=1.35,
                speed=draw(st.floats(min_value=0, max_value=90)),
                state=draw(st.sampled_from(list(TaxiState))),
            )
        )
    return Trajectory("W", records)


class TestWteInvariants:
    @given(segments())
    @settings(max_examples=150, deadline=None)
    def test_wait_never_negative(self, trajectory):
        event = extract_wait_event(trajectory.sub(0, len(trajectory) - 1))
        if event is not None:
            assert event.wait_s >= 0
            assert event.start_state in (
                TaxiState.FREE,
                TaxiState.ONCALL,
                TaxiState.ARRIVED,
            )

    @given(segments())
    @settings(max_examples=150, deadline=None)
    def test_wait_never_spans_payment_reset(self, trajectory):
        # A PAYMENT record resets the wait-start; a returned interval
        # must therefore contain no PAYMENT strictly inside it.
        sub = trajectory.sub(0, len(trajectory) - 1)
        event = extract_wait_event(sub)
        if event is None:
            return
        inside = [
            r
            for r in sub
            if event.start_ts < r.ts < event.end_ts
            and r.state is TaxiState.PAYMENT
        ]
        assert inside == []

    @given(segments())
    @settings(max_examples=100, deadline=None)
    def test_endpoints_come_from_the_segment(self, trajectory):
        sub = trajectory.sub(0, len(trajectory) - 1)
        event = extract_wait_event(sub)
        if event is None:
            return
        timestamps = {r.ts for r in sub}
        assert event.start_ts in timestamps
        assert event.end_ts in timestamps
