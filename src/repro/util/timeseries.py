"""Fixed-width time-bin accumulation.

The transport engine produces piecewise-constant per-link rates between
simulation events.  Congestion analysis (paper §4.2) needs per-second byte
counts per link, and the SNMP substrate needs coarse poll-interval counts.
:class:`BinAccumulator` integrates ``rate * dt`` contributions into aligned
bins, splitting intervals that straddle bin boundaries exactly.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["BinAccumulator", "split_interval_over_bins"]


def split_interval_over_bins(
    start: float, end: float, bin_width: float
) -> list[tuple[int, float]]:
    """Split ``[start, end)`` into per-bin overlap durations.

    Returns ``(bin_index, seconds_of_overlap)`` pairs in increasing bin
    order.  Bin ``i`` covers ``[i * bin_width, (i + 1) * bin_width)``.

    >>> split_interval_over_bins(0.5, 2.25, 1.0)
    [(0, 0.5), (1, 1.0), (2, 0.25)]
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    if end < start:
        raise ValueError("interval end precedes start")
    if end == start:
        return []
    first_bin = math.floor(start / bin_width)
    last_bin = math.ceil(end / bin_width) - 1
    pieces: list[tuple[int, float]] = []
    for index in range(first_bin, last_bin + 1):
        bin_start = index * bin_width
        bin_end = bin_start + bin_width
        overlap = min(end, bin_end) - max(start, bin_start)
        if overlap > 0:
            pieces.append((index, overlap))
    return pieces


class BinAccumulator:
    """Accumulate per-key quantities into fixed-width time bins.

    Keys are small non-negative integers (e.g. link ids); storage is a dense
    ``(num_keys, num_bins)`` float array grown on demand along the time axis.
    """

    def __init__(self, num_keys: int, bin_width: float, horizon: float = 0.0) -> None:
        if num_keys < 0:
            raise ValueError("num_keys must be non-negative")
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.num_keys = num_keys
        self.bin_width = float(bin_width)
        initial_bins = max(1, int(np.ceil(horizon / bin_width))) if horizon > 0 else 16
        self._data = np.zeros((num_keys, initial_bins), dtype=float)
        self._max_bin_touched = -1

    @property
    def num_bins(self) -> int:
        """Number of bins touched so far (trailing untouched bins excluded)."""
        return self._max_bin_touched + 1

    def _ensure_bins(self, bin_index: int) -> None:
        current = self._data.shape[1]
        if bin_index >= current:
            new_size = max(bin_index + 1, current * 2)
            grown = np.zeros((self.num_keys, new_size), dtype=float)
            grown[:, :current] = self._data
            self._data = grown
        if bin_index > self._max_bin_touched:
            self._max_bin_touched = bin_index

    def add_point(self, key: int, time: float, amount: float) -> None:
        """Add ``amount`` at an instant in time (e.g. a discrete event)."""
        if time < 0:
            raise ValueError("time must be non-negative")
        bin_index = int(np.floor(time / self.bin_width))
        self._ensure_bins(bin_index)
        self._data[key, bin_index] += amount

    def add_interval(self, key: int, start: float, end: float, rate: float) -> None:
        """Integrate a constant ``rate`` over ``[start, end)`` into bins."""
        if start < 0:
            raise ValueError("start must be non-negative")
        for bin_index, overlap in split_interval_over_bins(start, end, self.bin_width):
            self._ensure_bins(bin_index)
            self._data[key, bin_index] += rate * overlap

    def add_interval_bulk(
        self,
        keys: np.ndarray,
        rates: np.ndarray,
        start: float,
        end: float,
        unique_keys: bool = False,
    ) -> None:
        """Integrate many (key, rate) pairs over the same interval at once.

        ``unique_keys=True`` asserts that ``keys`` contains no duplicates,
        allowing fancy-indexed ``+=`` instead of the much slower
        ``np.add.at`` scatter (the transport sink's keys come from
        ``np.flatnonzero`` and are always unique).  The additions are the
        same either way, so the accumulated floats are bit-identical.

        An interval inside one bin (every queued-transport tick but the
        few that cross a bin edge) skips building the piece list; its one
        piece comes from the same expressions as in
        :func:`split_interval_over_bins`.
        """
        if keys.shape != rates.shape:
            raise ValueError("keys and rates must have equal shape")
        if keys.size == 0 or end <= start:
            return
        width = self.bin_width
        first_bin = math.floor(start / width)
        if math.ceil(end / width) - 1 == first_bin:
            bin_start = first_bin * width
            overlap = min(end, bin_start + width) - max(start, bin_start)
            pieces = [(first_bin, overlap)] if overlap > 0 else []
        else:
            pieces = split_interval_over_bins(start, end, width)
        for bin_index, overlap in pieces:
            self._ensure_bins(bin_index)
            column = self._data[:, bin_index]
            if unique_keys:
                column[keys] += rates * overlap
            else:
                np.add.at(column, keys, rates * overlap)

    def totals(self) -> np.ndarray:
        """Per-key totals across all bins."""
        return self._data[:, : self.num_bins].sum(axis=1)

    def series(self, key: int) -> np.ndarray:
        """The binned series for a single key (copy)."""
        return self._data[key, : self.num_bins].copy()

    def matrix(self) -> np.ndarray:
        """The full ``(num_keys, num_bins)`` array (copy)."""
        return self._data[:, : self.num_bins].copy()

    def window(self, keys: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Rows ``keys`` over bins ``[start, stop)`` of :meth:`matrix`
        (copy), without copying the rest of it."""
        return self._data[keys, start : min(stop, self.num_bins)]

    def bin_times(self) -> np.ndarray:
        """Start times of every touched bin."""
        return np.arange(self.num_bins) * self.bin_width
