"""The seeded request plan of the ``serve-mixed`` workload.

The mix is frozen here rather than read from ``repro.load`` so that a
change to the program's own load profiles cannot change the offered
work.  The weights mirror ``repro.load``'s ``mixed`` profile: live
snapshot endpoints plus the ``/v1/history/*`` queries.
"""

from __future__ import annotations

import random
from typing import List, Sequence

#: (route family, relative weight); order is part of the plan's identity.
MIX = (
    ("citywide", 0.15),
    ("healthz", 0.05),
    ("history_citywide", 0.10),
    ("history_patterns", 0.05),
    ("metrics", 0.05),
    ("slots", 0.15),
    ("spot_history", 0.15),
    ("spots", 0.30),
)

def is_history_path(path: str) -> bool:
    """True for a ``/v1/history/*`` or ``/v1/spots/{id}/history`` path."""
    route = path.partition("?")[0]
    return route.startswith("/v1/history/") or route.endswith("/history")


def _path(family: str, rng: random.Random, spot_ids, epoch_days) -> str:
    if family == "spots":
        return "/v1/spots"
    if family == "citywide":
        return "/v1/citywide"
    if family == "metrics":
        return "/v1/metrics"
    if family == "healthz":
        return "/v1/healthz"
    if family == "history_patterns":
        return "/v1/history/patterns"
    if family == "history_citywide":
        day = rng.choice(epoch_days)
        return f"/v1/history/citywide?start_day={day}&end_day={day}"
    spot_id = rng.choice(spot_ids)
    if family == "slots":
        return f"/v1/spots/{spot_id}/slots"
    page = rng.randint(1, 5)
    return f"/v1/spots/{spot_id}/history?page={page}&per_page=100"


def request_plan(
    seed: int,
    n: int,
    spot_ids: Sequence[str],
    epoch_days: Sequence[int],
) -> List[str]:
    """``n`` request paths: a pure function of the arguments.

    ``spot_ids`` and ``epoch_days`` are sorted first so their order in
    the caller cannot leak into the plan.

    Raises:
        ValueError: without spot ids or history days to sample from.
    """
    if not spot_ids or not epoch_days:
        raise ValueError("the plan needs spot ids and history days")
    rng = random.Random(seed)
    spot_ids = sorted(spot_ids)
    epoch_days = sorted(epoch_days)
    families = [family for family, _ in MIX]
    weights = [weight for _, weight in MIX]
    return [
        _path(rng.choices(families, weights=weights)[0], rng, spot_ids,
              epoch_days)
        for _ in range(n)
    ]


def plan_bytes(
    seed: int,
    n: int,
    spot_ids: Sequence[str],
    epoch_days: Sequence[int],
) -> bytes:
    """The plan as one newline-joined byte string."""
    return "\n".join(request_plan(seed, n, spot_ids, epoch_days)).encode()
