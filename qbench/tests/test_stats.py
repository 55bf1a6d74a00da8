import pytest

from stats import nearest_rank, quartile_spread


def test_nearest_rank_picks_the_ceil_rank():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert nearest_rank(values, 50) == 3.0
    assert nearest_rank(values, 20) == 1.0
    assert nearest_rank(values, 21) == 2.0
    assert nearest_rank(values, 99) == 5.0
    assert nearest_rank(values, 100) == 5.0


def test_even_count_median_is_the_lower_middle():
    assert nearest_rank([4.0, 1.0, 3.0, 2.0], 50) == 2.0


def test_p99_of_a_hundred_is_the_99th():
    values = list(range(1, 101))
    assert nearest_rank(values, 99) == 99


def test_failed_ops_sort_after_every_success():
    # 3 successes + 1 failure: p50 is the 2nd op, p75 the 3rd, and the
    # 4th (p99) is the failure, whose latency is undefined.
    values = [10.0, 30.0, 20.0]
    assert nearest_rank(values, 50, failed=1) == 20.0
    assert nearest_rank(values, 75, failed=1) == 30.0
    assert nearest_rank(values, 99, failed=1) is None


def test_failures_shift_the_median_up():
    assert nearest_rank([1.0, 2.0, 3.0], 50) == 2.0
    assert nearest_rank([1.0, 2.0, 3.0], 50, failed=2) == 3.0
    assert nearest_rank([1.0, 2.0, 3.0], 50, failed=4) is None


def test_no_ops_or_bad_percent_raise():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 101)
    assert nearest_rank([], 50, failed=1) is None


def test_quartile_spread_is_relative_to_the_median():
    assert quartile_spread([10.0] * 10) == 0.0
    spread = quartile_spread([9.0, 10.0, 10.0, 11.0])
    assert spread == pytest.approx((10.75 - 9.25) / 10.0)
