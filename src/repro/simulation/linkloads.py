"""Per-link load accounting: the congestion ground truth.

The transport engine streams ``(link, rate, interval)`` contributions in
here; the tracker bins them at one-second resolution (the paper's finest
congestion timescale) and answers the questions §4.2 asks: which links
were hot, when, and did a given flow's path overlap a hot period.  It is
also the source for the coarse SNMP counters that tomography consumes.
"""

from __future__ import annotations

import numpy as np

from ..cluster.topology import ClusterTopology
from ..util.timeseries import BinAccumulator

__all__ = ["LinkLoadTracker"]


class LinkLoadTracker:
    """One-second byte bins for every directed link in the topology."""

    def __init__(
        self,
        topology: ClusterTopology,
        bin_width: float = 1.0,
        horizon: float = 0.0,
    ) -> None:
        self.topology = topology
        self.bin_width = bin_width
        self.capacities = topology.capacities.copy()
        self._bins = BinAccumulator(
            num_keys=topology.num_links, bin_width=bin_width, horizon=horizon
        )
        #: Queue-occupancy bins (byte-seconds), allocated lazily on the
        #: first contribution — only queued transports produce any.
        self._queue_bins: BinAccumulator | None = None
        self._horizon = horizon
        #: Telemetry: (link, interval) contributions integrated so far.
        self.intervals_integrated = 0

    # ------------------------------------------------------------- load sink

    def add_interval_bulk(
        self,
        keys: np.ndarray,
        rates: np.ndarray,
        start: float,
        end: float,
        unique_keys: bool = False,
    ) -> None:
        """Transport sink: integrate per-link rates over an interval."""
        self.intervals_integrated += len(keys)
        self._bins.add_interval_bulk(keys, rates, start, end, unique_keys=unique_keys)

    def add_queue_depth_bulk(
        self,
        keys: np.ndarray,
        depths: np.ndarray,
        start: float,
        end: float,
    ) -> None:
        """Queued-transport sink: integrate queue occupancy (bytes) over
        an interval.  Bins accumulate byte-seconds; dividing by the bin
        width (see :meth:`queue_depth_matrix`) recovers the time-averaged
        occupancy per bin."""
        if self._queue_bins is None:
            self._queue_bins = BinAccumulator(
                num_keys=self.topology.num_links,
                bin_width=self.bin_width,
                horizon=self._horizon,
            )
        self._queue_bins.add_interval_bulk(
            keys, depths, start, end, unique_keys=True
        )

    # ------------------------------------------------------------- accessors

    @property
    def num_bins(self) -> int:
        """Number of populated one-second bins."""
        return self._bins.num_bins

    def byte_matrix(self) -> np.ndarray:
        """``(num_links, num_bins)`` bytes carried per link per bin."""
        return self._bins.matrix()

    def utilization_matrix(self) -> np.ndarray:
        """``(num_links, num_bins)`` average utilisation per link per bin."""
        bytes_per_bin = self._bins.matrix()
        capacity_per_bin = self.capacities[:, None] * self.bin_width
        return bytes_per_bin / capacity_per_bin

    @property
    def has_queue_depth(self) -> bool:
        """Whether any queue-occupancy contributions were recorded."""
        return self._queue_bins is not None

    def queue_depth_matrix(self) -> np.ndarray | None:
        """``(num_links, num_bins)`` mean queue occupancy (bytes) per bin,
        or ``None`` when no queued transport contributed.  Padded with
        zero columns to match :meth:`byte_matrix` when occupancy stopped
        accumulating before the last load bin."""
        if self._queue_bins is None:
            return None
        depth = self._queue_bins.matrix() / self.bin_width
        columns = self._bins.num_bins
        if depth.shape[1] < columns:
            padded = np.zeros((depth.shape[0], columns))
            padded[:, : depth.shape[1]] = depth
            depth = padded
        return depth

    def utilization_series(self, link_id: int) -> np.ndarray:
        """Utilisation over time for one link."""
        return self._bins.series(link_id) / (self.capacities[link_id] * self.bin_width)

    def link_totals(self) -> np.ndarray:
        """Total bytes carried per link."""
        return self._bins.totals()

    def max_utilization_on_path(
        self, path_links: tuple[int, ...], start: float, end: float
    ) -> float:
        """Peak binned utilisation over ``path_links`` during ``[start, end]``.

        Only *complete* bins are considered (a partially filled trailing
        bin would understate utilisation).  Used by the read-failure model
        and by the victim-flow analysis to decide whether a flow
        "overlapped a high utilization period".
        """
        if not path_links or end < start:
            return 0.0
        first_bin = int(np.floor(start / self.bin_width))
        last_complete = min(
            int(np.floor(end / self.bin_width)), self._bins.num_bins - 1
        )
        if last_complete < first_bin:
            return 0.0
        links = np.asarray(path_links, dtype=int)
        window = self._bins.window(links, first_bin, last_complete + 1)
        capacity = self.capacities[links][:, None] * self.bin_width
        return float((window / capacity).max()) if window.size else 0.0

    def snmp_counters(self, poll_interval: float) -> np.ndarray:
        """Aggregate the 1 s bins into SNMP-style poll-interval byte counts.

        Returns ``(num_links, num_polls)``; a trailing partial poll window
        is included (real pollers read mid-interval too).
        """
        if poll_interval < self.bin_width:
            raise ValueError("poll interval must be at least one bin wide")
        per_poll = int(round(poll_interval / self.bin_width))
        if abs(per_poll * self.bin_width - poll_interval) > 1e-9:
            raise ValueError("poll interval must be a multiple of the bin width")
        data = self._bins.matrix()
        num_polls = int(np.ceil(data.shape[1] / per_poll))
        padded = np.zeros((data.shape[0], num_polls * per_poll))
        padded[:, : data.shape[1]] = data
        return padded.reshape(data.shape[0], num_polls, per_poll).sum(axis=2)
