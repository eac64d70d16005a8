"""Per-link FIFO queue model: occupancy, ECN marking, tail-drop.

One vectorised state array per directed link.  Each tick the transport
offers aggregate arrival bytes per link; the queue services up to
``capacity * dt`` (backlog first — FIFO), CE-marks arrivals while the
post-service occupancy sits at or above the fixed threshold K, and
tail-drops whatever exceeds the buffer.  The class keeps exact
enqueued/dequeued/dropped byte ledgers per link, so the
``transport.queue_conservation`` invariant (enqueued == dequeued +
dropped + resident) is checkable at any instant.  The six lifetime
ledgers (bytes and packets) are the rows of one array, so a tick adds
them in one operation; the public ledger names are views of its rows.
"""

from __future__ import annotations

import numpy as np

from .params import CongestionControlConfig

__all__ = ["LinkQueues"]


class LinkQueues:
    """Vectorised FIFO queues for every directed link in the topology."""

    def __init__(
        self,
        num_links: int,
        capacities: np.ndarray,
        params: CongestionControlConfig,
    ) -> None:
        self.num_links = num_links
        self.capacities = np.asarray(capacities, dtype=float)
        self.params = params
        self.capacity_bytes = params.queue_capacity_bytes
        self.threshold_bytes = params.ecn_threshold_bytes
        #: Occupancy at or above which arrivals are CE-marked.
        self._mark_level = self.threshold_bytes - 1e-9
        #: Current occupancy, bytes per link.
        self.backlog_bytes = np.zeros(num_links)
        #: Lifetime ledgers, one row each, so a tick adds all six in one
        #: operation; the public names below are views of the rows.
        self._ledgers = np.zeros((6, num_links))
        #: Bytes per link: admitted, serviced, tail-dropped.
        self.enqueued_bytes = self._ledgers[0]
        self.dequeued_bytes = self._ledgers[1]
        self.dropped_bytes = self._ledgers[2]
        #: (Fractional fluid) packets per link: CE-marked, forwarded,
        #: tail-dropped.
        self.marked_packets = self._ledgers[3]
        self.forwarded_packets = self._ledgers[4]
        self.dropped_packets = self._ledgers[5]

    @property
    def resident_bytes(self) -> np.ndarray:
        """Bytes currently sitting in each queue (the conservation term)."""
        return self.backlog_bytes.copy()

    def queueing_delay(self, out: np.ndarray | None = None) -> np.ndarray:
        """Seconds a packet arriving now waits at each link's queue
        (written into ``out`` when given)."""
        return np.divide(self.backlog_bytes, self.capacities, out=out)

    def step(
        self, arrivals_bytes: np.ndarray, dt: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance every queue by ``dt`` with the given arrivals.

        Returns ``(serviced_bytes, drop_fraction, mark_fraction)`` per
        link.  ``drop_fraction`` is the share of this tick's *arrivals*
        tail-dropped (resident backlog is never dropped); ``mark_fraction``
        is the share of surviving arrivals CE-marked under the fixed-K
        rule.  Service is work-conserving and bounded by
        ``capacity * dt``, which is what keeps the link-load sinks inside
        the ``linkloads.sane`` utilisation invariant.
        """
        arrivals = np.asarray(arrivals_bytes, dtype=float)
        # This tick's ledger increments, in the rows of ``_ledgers``:
        # bytes admitted, serviced and dropped, then the same in packets
        # (the admitted row becomes the CE-marked packets).
        moved = np.empty((6, self.num_links))
        surviving, serviced, dropped = moved[0], moved[1], moved[2]
        offered = self.backlog_bytes + arrivals
        np.minimum(offered, self.capacities * dt, out=serviced)
        level = offered - serviced
        overflow = np.maximum(level - self.capacity_bytes, 0.0)
        # Tail-drop: only arriving bytes can be dropped, so the drop is
        # capped by what arrived this tick (service drains backlog first,
        # which can leave level > capacity only via arrivals).
        np.minimum(overflow, arrivals, out=dropped)
        np.subtract(level, dropped, out=self.backlog_bytes)
        np.subtract(arrivals, dropped, out=surviving)

        # Links with no arrivals report 0 for both fractions.
        arriving = arrivals > 0
        drop_fraction = np.zeros(self.num_links)
        np.divide(dropped, arrivals, out=drop_fraction, where=arriving)
        # Fixed-K marking: CE-mark arrivals that land in (or behind) a
        # queue at/above K once this tick's service has run.
        mark_fraction = (
            arriving & (self.backlog_bytes >= self._mark_level)
        ).astype(float)

        np.divide(moved[:3], self.params.mtu_bytes, out=moved[3:])
        moved[3] *= mark_fraction
        self._ledgers += moved
        return serviced, drop_fraction, mark_fraction

    def conservation_residual(self) -> np.ndarray:
        """Per-link ``enqueued - (dequeued + resident)`` in bytes.

        Dropped bytes never enter the ``enqueued`` ledger, so a healthy
        queue keeps this near zero (floating-point accumulation only).
        Exposed for the ``transport.queue_conservation`` checker and the
        Hypothesis property test.
        """
        return self.enqueued_bytes - (self.dequeued_bytes + self.backlog_bytes)
