"""Time-binned accumulation, including conservation properties."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.util.timeseries import BinAccumulator, split_interval_over_bins


class TestSplitInterval:
    def test_simple_split(self):
        assert split_interval_over_bins(0.5, 2.25, 1.0) == [
            (0, 0.5),
            (1, 1.0),
            (2, 0.25),
        ]

    def test_empty_interval(self):
        assert split_interval_over_bins(1.0, 1.0, 1.0) == []

    def test_inside_one_bin(self):
        assert split_interval_over_bins(0.2, 0.7, 1.0) == [(0, pytest.approx(0.5))]

    def test_bin_aligned(self):
        pieces = split_interval_over_bins(1.0, 3.0, 1.0)
        assert [p[0] for p in pieces] == [1, 2]
        assert all(p[1] == pytest.approx(1.0) for p in pieces)

    def test_backwards_interval_raises(self):
        with pytest.raises(ValueError):
            split_interval_over_bins(2.0, 1.0, 1.0)

    def test_zero_width_raises(self):
        with pytest.raises(ValueError):
            split_interval_over_bins(0.0, 1.0, 0.0)

    @given(
        st.floats(min_value=0.0, max_value=1e4),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.01, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_durations_conserved(self, start, length, width):
        pieces = split_interval_over_bins(start, start + length, width)
        assert sum(p[1] for p in pieces) == pytest.approx(length, rel=1e-9, abs=1e-8)

    @given(
        st.floats(min_value=0.0, max_value=1e4),
        st.floats(min_value=0.001, max_value=100.0),
        st.floats(min_value=0.01, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_bins_contiguous(self, start, length, width):
        pieces = split_interval_over_bins(start, start + length, width)
        indices = [p[0] for p in pieces]
        assert indices == list(range(indices[0], indices[0] + len(indices)))


class TestBinAccumulator:
    def test_point_lands_in_bin(self):
        acc = BinAccumulator(num_keys=2, bin_width=1.0)
        acc.add_point(1, 2.5, 10.0)
        assert acc.series(1)[2] == 10.0
        assert acc.series(0).sum() == 0.0

    def test_interval_integration(self):
        acc = BinAccumulator(num_keys=1, bin_width=1.0)
        acc.add_interval(0, 0.5, 2.5, 4.0)
        series = acc.series(0)
        assert series[0] == pytest.approx(2.0)
        assert series[1] == pytest.approx(4.0)
        assert series[2] == pytest.approx(2.0)

    def test_totals_conserve_rate_times_time(self):
        acc = BinAccumulator(num_keys=1, bin_width=0.7)
        acc.add_interval(0, 0.13, 9.77, 3.0)
        assert acc.totals()[0] == pytest.approx(3.0 * (9.77 - 0.13))

    def test_bulk_matches_scalar(self):
        bulk = BinAccumulator(num_keys=3, bin_width=1.0)
        scalar = BinAccumulator(num_keys=3, bin_width=1.0)
        keys = np.array([0, 2])
        rates = np.array([1.5, 2.5])
        bulk.add_interval_bulk(keys, rates, 0.3, 4.1)
        for key, rate in zip(keys, rates):
            scalar.add_interval(int(key), 0.3, 4.1, float(rate))
        assert np.allclose(bulk.matrix(), scalar.matrix())

    def test_growth_preserves_data(self):
        acc = BinAccumulator(num_keys=1, bin_width=1.0)
        acc.add_point(0, 0.5, 1.0)
        acc.add_point(0, 500.5, 2.0)  # forces growth
        assert acc.series(0)[0] == 1.0
        assert acc.series(0)[500] == 2.0
        assert acc.num_bins == 501

    def test_negative_time_rejected(self):
        acc = BinAccumulator(num_keys=1, bin_width=1.0)
        with pytest.raises(ValueError):
            acc.add_point(0, -0.1, 1.0)
        with pytest.raises(ValueError):
            acc.add_interval(0, -0.1, 1.0, 1.0)

    def test_bin_times(self):
        acc = BinAccumulator(num_keys=1, bin_width=2.0)
        acc.add_point(0, 5.0, 1.0)
        assert list(acc.bin_times()) == [0.0, 2.0, 4.0]

    def test_empty_bulk_noop(self):
        acc = BinAccumulator(num_keys=2, bin_width=1.0)
        acc.add_interval_bulk(np.array([], dtype=int), np.array([]), 0.0, 5.0)
        assert acc.num_bins == 0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100),
                st.floats(min_value=0, max_value=10),
                st.floats(min_value=0, max_value=1e6),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_total_is_sum_of_contributions(self, intervals):
        acc = BinAccumulator(num_keys=1, bin_width=0.9)
        expected = 0.0
        for start, length, rate in intervals:
            acc.add_interval(0, start, start + length, rate)
            expected += rate * length
        assert acc.totals()[0] == pytest.approx(expected, rel=1e-9, abs=1e-6)


class TestOneBinBulkPath:
    """``add_interval_bulk`` on an interval inside one bin — the queued
    transports' every tick — equals the ``split_interval_over_bins``
    loop bit for bit."""

    @pytest.mark.parametrize("unique_keys", [False, True])
    @pytest.mark.parametrize("width", [0.1, 0.3, 1.0, 7.5])
    @given(data=st.data())
    def test_matches_split_loop(self, width, unique_keys, data):
        num_keys = 5
        bin_index = data.draw(st.integers(min_value=0, max_value=40))
        low, high = sorted(
            data.draw(st.floats(min_value=0.0, max_value=1.0)) for _ in range(2)
        )
        start = bin_index * width + low * width
        if data.draw(st.booleans()):
            end = (bin_index + 1) * width  # ends on the bin edge
        else:
            end = bin_index * width + high * width
        assume(start < end)
        assume(math.ceil(end / width) - 1 == math.floor(start / width))
        keys = np.array(data.draw(st.lists(
            st.integers(min_value=0, max_value=num_keys - 1),
            min_size=1, max_size=8, unique=unique_keys,
        )))
        rates = np.array(data.draw(st.lists(
            st.floats(min_value=0.0, max_value=1e10),
            min_size=keys.size, max_size=keys.size,
        )))

        acc = BinAccumulator(num_keys=num_keys, bin_width=width)
        acc.add_interval_bulk(keys, rates, start, end, unique_keys=unique_keys)

        pieces = split_interval_over_bins(start, end, width)
        expected = np.zeros((num_keys, bin_index + 2))
        for piece, overlap in pieces:
            if unique_keys:
                expected[keys, piece] += rates * overlap
            else:
                np.add.at(expected[:, piece], keys, rates * overlap)
        touched = max((piece for piece, _ in pieces), default=-1) + 1
        assert acc.num_bins == touched
        assert np.array_equal(acc.matrix(), expected[:, :touched])
