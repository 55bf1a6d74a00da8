"""A single MDT log record (paper Table 2).

The paper selects six fields from the raw MDT log: timestamp, taxi ID,
longitude, latitude, instantaneous speed and taxi state.  The sample record
reads::

    01/08/2008 19:04:51  SH0001A  103.7999  1.33795  54  POB

Timestamps are stored internally as POSIX seconds (float) for cheap
arithmetic; the paper's ``dd/mm/yyyy HH:MM:SS`` text form is supported for
CSV round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from math import isfinite
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from repro.states.states import (
    STATE_CODES,
    STATES_BY_CODE,
    TaxiState,
    parse_state,
)

#: The timestamp format used in the paper's sample log line.
TIMESTAMP_FORMAT = "%d/%m/%Y %H:%M:%S"


def parse_timestamp(text: str) -> float:
    """Parse a ``dd/mm/yyyy HH:MM:SS`` timestamp into POSIX seconds (UTC).

    Raises:
        ValueError: when the text does not match the format, or when it
            parses but yields a non-finite POSIX value — a NaN or
            infinite timestamp would silently poison every downstream
            time-slot and duration computation, so it is rejected here
            with the same error class as a syntactically bad field.
    """
    dt = datetime.strptime(text.strip(), TIMESTAMP_FORMAT)
    ts = dt.replace(tzinfo=timezone.utc).timestamp()
    if not isfinite(ts):
        raise ValueError(f"non-finite POSIX timestamp from {text!r}")
    return ts


def format_timestamp(ts: float) -> str:
    """Format POSIX seconds as ``dd/mm/yyyy HH:MM:SS`` (UTC)."""
    dt = datetime.fromtimestamp(ts, tz=timezone.utc)
    return dt.strftime(TIMESTAMP_FORMAT)


@dataclass(frozen=True, slots=True)
class MdtRecord:
    """One event-driven MDT log record with the six selected fields.

    Attributes:
        ts: POSIX timestamp in seconds.
        taxi_id: operator-assigned vehicle identifier, e.g. ``"SH0001A"``.
        lon: GPS longitude in degrees.
        lat: GPS latitude in degrees.
        speed: instantaneous speed in km/h.
        state: one of the 11 :class:`~repro.states.states.TaxiState` values.
    """

    ts: float
    taxi_id: str
    lon: float
    lat: float
    speed: float
    state: TaxiState

    CSV_HEADER = "timestamp,taxi_id,longitude,latitude,speed,state"

    def to_csv_row(self) -> str:
        """Serialize to one CSV line in the paper's field order."""
        return (
            f"{format_timestamp(self.ts)},{self.taxi_id},"
            f"{self.lon:.6f},{self.lat:.6f},{self.speed:.1f},"
            f"{self.state.value}"
        )

    @classmethod
    def from_csv_row(cls, row: str) -> "MdtRecord":
        """Parse one CSV line produced by :meth:`to_csv_row`.

        Raises:
            ValueError: on a malformed line (see :func:`parse_csv_lines`).
        """
        fields = next(parse_csv_lines((row,)), None)
        if fields is None:
            raise ValueError(f"empty CSV line: {row!r}")
        ts, taxi_id, lon, lat, speed, code = fields
        return cls(ts, taxi_id, lon, lat, speed, STATES_BY_CODE[code])

    @classmethod
    def from_fields(cls, fields: Sequence[str]) -> "MdtRecord":
        """Build a record from already-split string fields."""
        return cls.from_csv_row(",".join(fields))

    def replace_ts(self, ts: float) -> "MdtRecord":
        """Copy with a different timestamp (used by the noise injector)."""
        return MdtRecord(ts, self.taxi_id, self.lon, self.lat, self.speed, self.state)


def parse_csv_lines(
    lines: Iterable[str], on_error: str = "raise"
) -> Iterator[Optional[Tuple[float, str, float, float, float, int]]]:
    """Parse log CSV lines (no header) into
    ``(ts, taxi_id, lon, lat, speed, state_code)`` tuples.

    The one line parser behind every CSV reader.  Blank lines are
    skipped.  A line is malformed on wrong arity, an empty taxi id,
    non-numeric or non-finite coordinates and speeds (a NaN longitude
    would poison every distance computation downstream), a bad or
    non-finite timestamp, or an unknown state.  Repeated timestamp and
    state texts hit memo caches that live as long as the iteration, so
    ``strptime`` runs once per distinct text.

    Args:
        lines: the CSV lines.
        on_error: ``"raise"`` raises on the first malformed line;
            ``"skip"`` yields None in its place.

    Raises:
        ValueError: on a malformed line in raise mode.
    """
    ts_cache: Dict[str, float] = {}
    state_cache: Dict[str, int] = {}
    for line in lines:
        if not line.strip():
            continue
        try:
            parts = line.rstrip("\n").split(",")
            if len(parts) != 6:
                raise ValueError(
                    f"expected 6 fields, got {len(parts)}: {line!r}"
                )
            ts_text, taxi_id, lon_text, lat_text, speed_text, state = parts
            lon = float(lon_text)
            lat = float(lat_text)
            speed = float(speed_text)
            if not (isfinite(lon) and isfinite(lat) and isfinite(speed)):
                raise ValueError(f"non-finite coordinate or speed: {line!r}")
            if not taxi_id:
                raise ValueError(f"empty taxi id: {line!r}")
            ts = ts_cache.get(ts_text)
            if ts is None:
                ts = parse_timestamp(ts_text)
                ts_cache[ts_text] = ts
            code = state_cache.get(state)
            if code is None:
                code = STATE_CODES[parse_state(state)]
                state_cache[state] = code
        except ValueError:
            if on_error == "raise":
                raise
            yield None
            continue
        yield (ts, taxi_id, lon, lat, speed, code)
