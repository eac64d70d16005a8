"""Link load tracking and SNMP aggregation."""

import numpy as np
import pytest

from repro.cluster.topology import ClusterSpec, ClusterTopology
from repro.instrumentation.snmp import poll_link_counters
from repro.simulation.linkloads import LinkLoadTracker


@pytest.fixture()
def topo():
    return ClusterTopology(
        ClusterSpec(racks=2, servers_per_rack=2, racks_per_vlan=2, external_hosts=1)
    )


@pytest.fixture()
def tracker(topo):
    return LinkLoadTracker(topo, bin_width=1.0)


class TestAccumulation:
    def test_utilization_normalised_by_capacity(self, topo, tracker):
        link = topo.links[0]
        tracker.add_interval_bulk(
            np.array([link.link_id]), np.array([link.capacity / 2]), 0.0, 1.0
        )
        assert tracker.utilization_series(link.link_id)[0] == pytest.approx(0.5)

    def test_matrix_shape(self, topo, tracker):
        tracker.add_interval_bulk(np.array([0]), np.array([1.0]), 0.0, 3.5)
        matrix = tracker.utilization_matrix()
        assert matrix.shape == (topo.num_links, 4)

    def test_totals(self, tracker):
        tracker.add_interval_bulk(np.array([2]), np.array([7.0]), 0.0, 2.0)
        assert tracker.link_totals()[2] == pytest.approx(14.0)


class TestPathUtilization:
    def test_max_on_path(self, topo, tracker):
        first, second = 0, 1
        capacity = topo.links[first].capacity
        tracker.add_interval_bulk(np.array([first]), np.array([capacity]), 0.0, 1.0)
        tracker.add_interval_bulk(np.array([second]), np.array([capacity / 4]), 0.0, 1.0)
        assert tracker.max_utilization_on_path((first, second), 0.0, 1.0) == pytest.approx(1.0)

    def test_window_respected(self, topo, tracker):
        link = 0
        capacity = topo.links[link].capacity
        tracker.add_interval_bulk(np.array([link]), np.array([capacity]), 5.0, 6.0)
        assert tracker.max_utilization_on_path((link,), 0.0, 4.0) == 0.0
        assert tracker.max_utilization_on_path((link,), 5.0, 6.0) == pytest.approx(1.0)

    def test_empty_path(self, tracker):
        assert tracker.max_utilization_on_path((), 0.0, 1.0) == 0.0

    def test_inverted_window(self, tracker):
        assert tracker.max_utilization_on_path((0,), 5.0, 1.0) == 0.0

    def test_matches_the_whole_matrix_expression(self, topo, tracker):
        """Same floats as slicing the full link x bin matrix, on random
        loads and windows, including windows that end past the last
        complete bin."""
        rng = np.random.default_rng(3)
        num_links = topo.num_links
        for _ in range(40):
            start = float(rng.uniform(0.0, 30.0))
            tracker.add_interval_bulk(
                np.arange(num_links), rng.uniform(0.0, 2e8, num_links),
                start, start + float(rng.uniform(0.1, 3.0)),
            )
        matrix = tracker._bins.matrix()
        last = tracker._bins.num_bins - 1
        for _ in range(200):
            path = tuple(rng.choice(num_links, size=int(rng.integers(1, 6)),
                                    replace=False).tolist())
            start = float(rng.uniform(0.0, 36.0))
            end = start + float(rng.uniform(0.0, 12.0))
            first = int(np.floor(start))
            stop = min(int(np.floor(end)), last) + 1
            links = np.asarray(path)
            window = matrix[links, first:stop]
            expected = (
                float((window / topo.capacities[links][:, None]).max())
                if window.size else 0.0
            )
            assert tracker.max_utilization_on_path(path, start, end) == expected

    def test_reads_no_whole_matrix(self, topo, tracker, monkeypatch):
        """A hazard evaluation copies only the path's rows and window,
        never the whole link x bin matrix."""
        tracker.add_interval_bulk(np.array([0]), np.array([1e8]), 0.0, 50.0)

        def whole_matrix():
            raise AssertionError("max_utilization_on_path copied matrix()")

        monkeypatch.setattr(tracker._bins, "matrix", whole_matrix)
        assert tracker.max_utilization_on_path((0, 1), 10.0, 20.0) > 0.0


class TestSnmp:
    def test_poll_aggregates_bins(self, topo, tracker):
        tracker.add_interval_bulk(np.array([0]), np.array([3.0]), 0.0, 10.0)
        counters = tracker.snmp_counters(poll_interval=5.0)
        assert counters[0, 0] == pytest.approx(15.0)
        assert counters[0, 1] == pytest.approx(15.0)

    def test_poll_interval_must_be_multiple(self, tracker):
        tracker.add_interval_bulk(np.array([0]), np.array([1.0]), 0.0, 2.0)
        with pytest.raises(ValueError):
            tracker.snmp_counters(poll_interval=1.5)

    def test_poll_shorter_than_bin_rejected(self, tracker):
        with pytest.raises(ValueError):
            tracker.snmp_counters(poll_interval=0.5)

    def test_dump_covers_inter_switch_links_only(self, topo, tracker):
        tracker.add_interval_bulk(np.array([0]), np.array([1.0]), 0.0, 2.0)
        dump = poll_link_counters(topo, tracker, poll_interval=1.0)
        expected = {link.link_id for link in topo.inter_switch_links()}
        assert set(dump.link_ids.tolist()) == expected

    def test_dump_utilization(self, topo, tracker):
        switch_link = topo.inter_switch_links()[0]
        tracker.add_interval_bulk(
            np.array([switch_link.link_id]),
            np.array([switch_link.capacity / 2]),
            0.0,
            2.0,
        )
        dump = poll_link_counters(topo, tracker, poll_interval=2.0)
        utilization = dump.utilization(topo.capacities)
        row = dump.link_ids.tolist().index(switch_link.link_id)
        assert utilization[row, 0] == pytest.approx(0.5)

    def test_counters_at(self, topo, tracker):
        switch_link = topo.inter_switch_links()[0]
        tracker.add_interval_bulk(
            np.array([switch_link.link_id]), np.array([8.0]), 0.0, 1.0
        )
        dump = poll_link_counters(topo, tracker, poll_interval=1.0)
        row = dump.link_ids.tolist().index(switch_link.link_id)
        assert dump.counters_at(0)[row] == pytest.approx(8.0)
        assert dump.poll_times[0] == 0.0
