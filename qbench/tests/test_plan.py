from collections import Counter

import pytest

from plan import MIX, is_history_path, plan_bytes, request_plan

SPOTS = [f"QS{i:03d}" for i in range(1, 30)]
DAYS = list(range(14000, 14029))


def test_same_seed_gives_byte_identical_plans():
    assert plan_bytes(7, 2000, SPOTS, DAYS) == plan_bytes(7, 2000, SPOTS, DAYS)


def test_caller_order_does_not_leak_into_the_plan():
    assert plan_bytes(7, 500, SPOTS, DAYS) == plan_bytes(
        7, 500, list(reversed(SPOTS)), list(reversed(DAYS))
    )


def test_other_seed_gives_another_plan():
    assert plan_bytes(7, 500, SPOTS, DAYS) != plan_bytes(8, 500, SPOTS, DAYS)


def test_mix_follows_the_weights():
    paths = request_plan(3, 20000, SPOTS, DAYS)
    history = sum(is_history_path(p) for p in paths) / len(paths)
    weight = dict(MIX)
    expected = sum(
        weight[f] for f in ("history_citywide", "history_patterns",
                            "spot_history")
    ) / sum(weight.values())
    assert history == pytest.approx(expected, abs=0.02)
    counts = Counter(p.partition("?")[0] for p in paths)
    assert counts["/v1/spots"] / len(paths) == pytest.approx(0.30, abs=0.02)


def test_every_path_targets_a_known_spot_or_day():
    for path in request_plan(5, 3000, SPOTS, DAYS):
        route, _, query = path.partition("?")
        parts = route.strip("/").split("/")
        if parts[:2] == ["v1", "spots"] and len(parts) == 4:
            assert parts[2] in SPOTS
        if "start_day=" in query:
            assert int(query.split("start_day=")[1].split("&")[0]) in DAYS


def test_history_paths():
    assert is_history_path("/v1/history/patterns")
    assert is_history_path("/v1/history/citywide?start_day=1&end_day=1")
    assert is_history_path("/v1/spots/QS001/history?page=2&per_page=100")
    assert not is_history_path("/v1/spots/QS001/slots")
    assert not is_history_path("/v1/spots")


def test_plan_needs_spots_and_days():
    with pytest.raises(ValueError):
        request_plan(1, 10, [], DAYS)
