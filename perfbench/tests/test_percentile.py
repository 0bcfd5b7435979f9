"""The percentile rule: a quantile needs ten samples beyond it."""

import pytest

from run import percentile


def test_p90_needs_ten_samples_beyond():
    xs = [float(i) for i in range(1, 101)]
    assert percentile(xs, 0.9) == 90.0
    with pytest.raises(ValueError):
        percentile(xs[:99], 0.9)


def test_p50_is_nearest_rank_and_order_free():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0] * 4
    assert percentile(xs, 0.5) == 3.0
    with pytest.raises(ValueError):
        percentile(xs[:19], 0.5)
