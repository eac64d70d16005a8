"""Max-min fair-share allocators: the transport hot path.

Every congestion figure in the paper (§4.2, §4.3, §4.4) is driven by the
fluid transport's progressive-filling ("water-filling") allocation, and a
campaign recomputes it after every event batch — profiling shows it is
the single most expensive operation in the pipeline (see
``benchmarks/bench_core_ops.py::test_maxmin_waterfill``).  This module
holds the reference loop and the two allocators
``SimulationConfig.transport_impl`` selects:

``maxmin_rates_reference``
    The original round-based NumPy loop, kept verbatim as the oracle.
    No config selects it; the differential tests substitute it for the
    exact allocator, and they and the ``transport.allocator_equivalence``
    checker assert the optimised paths below reproduce it *bit for
    bit*, so a reference run and a vectorized run produce identical
    event logs.

``maxmin_rates_vectorized``
    The exact allocator (``transport_impl = "vectorized"``).  It
    exploits two structural facts of progressive filling with level
    grouping: each link saturates in at most one round, and each flow is
    assigned in exactly one round — so total work can be made
    proportional to the number of (flow, link) incidences rather than
    ``rounds x flows``.  Two regimes, picked by the active-set size:

    * **small active sets** (the common campaign case): a lazy min-heap
      of link shares drives the rounds entirely in Python, reading an
      :class:`IncidenceTable`.  Saturated links pop off the heap in
      increasing share order, so the first saturated link that reaches
      a flow *is* that flow's bottleneck — no per-flow minimisation at
      all.  This is the one heap loop: the fluid transport hands it the
      table it maintains across arrivals and completions, and callers
      that pass ``(paths, valid)`` (sub-solves, checkers, tests) get a
      table built once for the call.
    * **large active sets** (``>= _CSR_FLOW_THRESHOLD``): a batched
      fixed-point elimination over a compacted link x flow incidence
      array (CSR-style ``flat``/``indptr``), where each round masks the
      saturated links and finds each remaining flow's bottleneck with a
      single ``np.minimum.reduceat``.

    Both regimes replay the reference rounds with the same IEEE-754
    operations in the same order, so the allocations are bit-identical;
    they differ only in bookkeeping.  Tests reach each regime directly
    through ``_maxmin_heap`` and ``_maxmin_csr``.

``bottleneck_rates``
    The cheap ablation mode: equal split on each link, no leftover
    redistribution.  Shared by every implementation.

``IncrementalMaxMin``
    The stateful allocator, selected with
    ``SimulationConfig.transport_impl = "incremental"``.  Instead of
    re-running water-filling over *all* active flows on every arrival
    and departure, it maintains the bottleneck structure — per-link
    consumed bandwidth, link→flow adjacency, and each flow's bottleneck
    link — across events and re-solves only the **affected bottleneck
    subgraph**: the flows touching a dirtied link, expanded outward
    while frozen neighbours would be left more than
    :data:`INCREMENTAL_RTOL` away from their fair share.  The
    re-solve itself reuses the exact allocators above on the reduced
    subproblem (frozen flows appear as capacity already consumed), so
    it never oversubscribes a link; unlike ``vectorized`` it is
    *tolerance-based*, not bit-identical — see the module constant and
    the ``transport.incremental_equivalence`` checker in
    :mod:`repro.validate`.

The :class:`IncidenceTable` is the flow/link incidence of an active
set: the active slots in ascending order, each slot's links in path
order, each link's slots in ascending order and per-link counts.  The
fluid transport keeps one for its whole run and updates it on every
``add_flow`` and completion, so a recompute after one or two arrivals
reads the table instead of rebuilding per-link lists from scratch.  The
heap regime sums each round's per-link consumption in ascending slot
order, the order the reference's ``np.bincount`` adds its flow rows in.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import heapify, heappop, heappush

import numpy as np

__all__ = [
    "FULL_SOLVE_REASONS",
    "IncidenceTable",
    "IncrementalMaxMin",
    "INCREMENTAL_RTOL",
    "bottleneck_rates",
    "maxmin_rates_reference",
    "maxmin_rates_vectorized",
]

#: Relative width within which links saturate together during one
#: water-filling round.  Bounds the number of rounds by the number of
#: *distinct share magnitudes* instead of distinct links, at a worst
#: case rate error of the grouping width — far below the fidelity of
#: the fluid abstraction itself.
_LEVEL_GROUPING = 0.02

#: Active-flow count at which the vectorized allocator switches from the
#: heap-driven Python rounds to the batched CSR elimination.  Below it,
#: NumPy per-call overhead dominates the tiny arrays; above it, the
#: batched path's O(remaining incidences) rounds win decisively.
_CSR_FLOW_THRESHOLD = 2048

_INF = float("inf")


# --------------------------------------------------------------- reference


def bottleneck_rates(
    paths: np.ndarray, valid: np.ndarray, capacities: np.ndarray, num_links: int
) -> np.ndarray:
    """Equal split on each link; flow rate = min share along its path."""
    flat = paths[valid]
    counts = np.bincount(flat, minlength=num_links).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        share = np.where(counts > 0, capacities / counts, np.inf)
    padded_share = np.where(paths >= 0, share[np.maximum(paths, 0)], np.inf)
    return padded_share.min(axis=1)


def maxmin_rates_reference(
    paths: np.ndarray, valid: np.ndarray, capacities: np.ndarray, num_links: int
) -> np.ndarray:
    """Progressive-filling max-min fair allocation (round-based loop).

    Links whose fair share lies within ``_LEVEL_GROUPING`` of the
    current bottleneck saturate together in one iteration.  Kept as the
    ground truth the optimised allocators are checked against.
    """
    num_flows = paths.shape[0]
    flat = paths[valid]
    counts = np.bincount(flat, minlength=num_links).astype(float)
    remaining_cap = capacities.astype(float).copy()
    rates = np.zeros(num_flows)
    unassigned = np.ones(num_flows, dtype=bool)
    num_unassigned = num_flows
    for _ in range(num_links + 1):
        if num_unassigned == 0:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            share = remaining_cap / counts
        share[counts <= 0] = np.inf
        level = share.min()
        if not np.isfinite(level):
            break
        saturated = share <= level * (1.0 + _LEVEL_GROUPING)
        crosses = (saturated[paths] & valid).any(axis=1) & unassigned
        num_crossing = int(crosses.sum())
        if num_crossing == 0:
            break
        # Each grouped flow gets the exact share of its own tightest
        # saturated link (not the group level), so flows on slightly
        # wider links are not clipped to the narrowest one.
        padded = np.where(valid & saturated[paths], share[paths], np.inf)
        rates[crosses] = padded[crosses].min(axis=1)
        unassigned[crosses] = False
        num_unassigned -= num_crossing
        crossing_valid = valid[crosses]
        used = paths[crosses][crossing_valid]
        used_rates = np.repeat(rates[crosses], crossing_valid.sum(axis=1))
        consumed = np.bincount(used, weights=used_rates, minlength=num_links)
        np.maximum(remaining_cap - consumed, 0.0, out=remaining_cap)
        counts -= np.bincount(used, minlength=num_links)
    # Flows left unassigned cross only links that lost all contenders
    # (possible only through float jitter): give them their bottleneck
    # share directly.
    if num_unassigned > 0:
        rates[unassigned] = bottleneck_rates(
            paths[unassigned], valid[unassigned], capacities, num_links
        )
    return rates


# --------------------------------------------------------------- incidence


class IncidenceTable:
    """Flow/link incidence of one active flow set, kept by add and remove.

    ``slots`` lists the active flows' slots in ascending order;
    ``slot_links[slot]`` is the flow's links in path order (``None`` for
    a free slot); ``link_slots[link]`` lists the slots crossing ``link``
    in ascending order, and ``counts[link]`` is its length.  The fluid
    transport keeps one table for its whole run, updating it on every
    arrival and completion, so an allocation reads the incidence instead
    of rebuilding it.  :meth:`from_paths` builds a table for a one-off
    ``(paths, valid)`` problem, whose rows are its slots.  The heap
    regime only reads a table, never writes it.
    """

    __slots__ = ("num_links", "slots", "slot_links", "link_slots", "counts")

    def __init__(self, num_links: int) -> None:
        self.num_links = num_links
        self.slots: list[int] = []
        self.slot_links: list[list[int] | None] = []
        self.link_slots: list[list[int]] = [[] for _ in range(num_links)]
        self.counts: list[int] = [0] * num_links

    @classmethod
    def from_paths(
        cls, paths: np.ndarray, valid: np.ndarray, num_links: int
    ) -> "IncidenceTable":
        """Table of the rows of a ``-1``-padded ``(paths, valid)`` pair."""
        table = cls(num_links)
        lens = valid.sum(axis=1).tolist()
        link_slots = table.link_slots
        slot_links = table.slot_links
        for slot, row in enumerate(paths.tolist()):
            links = row[: lens[slot]]
            slot_links.append(links)
            for link in links:
                link_slots[link].append(slot)
        table.slots = list(range(len(slot_links)))
        table.counts = [len(crossing) for crossing in link_slots]
        return table

    def add(self, slot: int, links) -> int:
        """Register the flow in the free ``slot``, crossing ``links``;
        returns the slot's position in :attr:`slots`."""
        links = [int(link) for link in links]
        if slot >= len(self.slot_links):
            self.slot_links.extend([None] * (slot + 1 - len(self.slot_links)))
        self.slot_links[slot] = links
        at = bisect_left(self.slots, slot)
        self.slots.insert(at, slot)
        counts = self.counts
        link_slots = self.link_slots
        for link in links:
            insort(link_slots[link], slot)
            counts[link] += 1
        return at

    def remove(self, slot: int) -> None:
        """Unregister the flow in ``slot``."""
        links = self.slot_links[slot]
        self.slot_links[slot] = None
        self.slots.remove(slot)
        counts = self.counts
        link_slots = self.link_slots
        for link in links:
            link_slots[link].remove(slot)
            counts[link] -= 1


# --------------------------------------------------------------- vectorized


def maxmin_rates_vectorized(
    paths: np.ndarray,
    valid: np.ndarray,
    capacities: np.ndarray,
    num_links: int,
    table: IncidenceTable | None = None,
) -> np.ndarray:
    """Bit-identical fast replay of :func:`maxmin_rates_reference`.

    Dispatches between the heap regime (small active sets, Python
    rounds) and the CSR regime (``_CSR_FLOW_THRESHOLD`` flows or more,
    batched NumPy elimination); both produce the exact floats of the
    reference loop, so the choice never shows up in an event log.
    ``table`` is a maintained :class:`IncidenceTable` whose ascending
    slots are exactly the rows of ``paths``; without one the heap
    regime builds it from ``(paths, valid)`` for this call.
    """
    num_flows = paths.shape[0]
    if num_flows == 0:
        return np.zeros(0)
    if num_flows >= _CSR_FLOW_THRESHOLD:
        return _maxmin_csr(paths, valid, capacities, num_links)
    if table is None:
        table = IncidenceTable.from_paths(paths, valid, num_links)
    return _maxmin_heap(table, capacities)


def _maxmin_heap(table: IncidenceTable, capacities: np.ndarray) -> np.ndarray:
    """Heap-driven replay of the reference rounds over an incidence table.

    A lazy min-heap of ``(share, link)`` supplies each round's level and
    its saturated links *in increasing share order* — so the first
    saturated link that reaches a flow is that flow's tightest saturated
    link, and the flow's rate is read off directly.  Stale heap entries
    (links whose share has since changed) are discarded on pop by
    comparing against the live share table.  Each round's per-link
    consumption is summed in ascending slot order — the order of the
    reference's ``np.bincount`` over its flow rows — and applied once,
    so the floating-point results are identical.  Integer link counts
    divide to the same floats the reference's float counts do.  The
    table is only read: every per-call state is a fresh list.
    """
    slots = table.slots
    slot_links = table.slot_links
    link_slots = table.link_slots
    num_links = table.num_links
    counts = list(table.counts)
    remaining = capacities.astype(float).tolist()
    share = [_INF] * num_links
    heap = [
        (remaining[link] / count, link)
        for link, count in enumerate(counts)
        if count
    ]
    for s, link in heap:
        share[link] = s
    heapify(heap)
    # Per slot: its rate once assigned, None before.
    rate_of: list[float | None] = [None] * len(slot_links)
    # Per link: this round's consumption, valid where ``stamp`` holds
    # the round number.
    consumed = [0.0] * num_links
    stamp = [-1] * num_links
    num_unassigned = len(slots)
    pop = heappop
    push = heappush
    for round_ in range(num_links + 1):
        if num_unassigned == 0:
            break
        while heap:
            level, link = heap[0]
            if share[link] == level:
                break
            pop(heap)
        if not heap:
            break
        thresh = heap[0][0] * (1.0 + _LEVEL_GROUPING)
        cand: list[int] = []
        append = cand.append
        while heap:
            s, link = heap[0]
            if s > thresh:
                break
            pop(heap)
            if share[link] == s:
                for slot in link_slots[link]:
                    if rate_of[slot] is None:
                        rate_of[slot] = s
                        append(slot)
        if not cand:
            break
        cand.sort()
        num_unassigned -= len(cand)
        touched: list[int] = []
        touch = touched.append
        for slot in cand:
            rate = rate_of[slot]
            for link in slot_links[slot]:
                counts[link] -= 1
                if stamp[link] == round_:
                    consumed[link] += rate
                else:
                    stamp[link] = round_
                    consumed[link] = rate
                    touch(link)
        for link in touched:
            count = counts[link]
            if count:
                left = remaining[link] - consumed[link]
                if left < 0.0:
                    left = 0.0
                remaining[link] = left
                s = left / count
                share[link] = s
                push(heap, (s, link))
            else:
                # No unassigned flow crosses the link any more.
                share[link] = _INF
    if num_unassigned > 0:
        # Flows left unassigned get their bottleneck share directly.
        rem = [slot for slot in slots if rate_of[slot] is None]
        paths = np.full(
            (len(rem), max(len(slot_links[slot]) for slot in rem)), -1,
            dtype=np.int64,
        )
        for row, slot in enumerate(rem):
            links = slot_links[slot]
            paths[row, : len(links)] = links
        fallback = bottleneck_rates(
            paths, paths >= 0, capacities, num_links
        ).tolist()
        for slot, rate in zip(rem, fallback):
            rate_of[slot] = rate
    return np.array([rate_of[slot] for slot in slots])


def _maxmin_csr(
    paths: np.ndarray,
    valid: np.ndarray,
    capacities: np.ndarray,
    num_links: int,
) -> np.ndarray:
    """Batched elimination over a compacted link x flow incidence array.

    Each round masks the saturated links, finds every remaining flow's
    tightest saturated link with one ``np.minimum.reduceat`` over the
    CSR-flattened incidence, then compacts assigned flows out of the
    working arrays — so round ``k`` only touches flows still unassigned
    after round ``k - 1``.  Summation orders match the reference's
    ``np.bincount`` calls (flow-major, ascending), keeping the floats
    bit-identical.
    """
    num_flows = paths.shape[0]
    lens = valid.sum(axis=1)
    flat = paths[valid]
    counts = np.bincount(flat, minlength=num_links).astype(float)
    remaining_cap = capacities.astype(float).copy()
    rates = np.zeros(num_flows)
    ids = np.arange(num_flows)
    share = np.empty(num_links)
    num_unassigned = num_flows
    indptr = np.zeros(num_flows + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    for _ in range(num_links + 1):
        if num_unassigned == 0:
            break
        share.fill(np.inf)
        np.divide(remaining_cap, counts, out=share, where=counts > 0)
        level = share.min()
        if not np.isfinite(level):
            break
        masked = np.where(share <= level * (1.0 + _LEVEL_GROUPING), share, np.inf)
        mins = np.minimum.reduceat(masked[flat], indptr[:-1])
        crossing = np.isfinite(mins)
        num_crossing = int(crossing.sum())
        if num_crossing == 0:
            break
        rates[ids[crossing]] = mins[crossing]
        num_unassigned -= num_crossing
        expanded = np.repeat(crossing, lens)
        used = flat[expanded]
        used_rates = np.repeat(mins[crossing], lens[crossing])
        consumed = np.bincount(used, weights=used_rates, minlength=num_links)
        np.maximum(remaining_cap - consumed, 0.0, out=remaining_cap)
        counts -= np.bincount(used, minlength=num_links)
        keep = ~crossing
        ids = ids[keep]
        lens = lens[keep]
        flat = flat[~expanded]
        indptr = np.zeros(ids.size + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
    if num_unassigned > 0:
        rates[ids] = bottleneck_rates(
            paths[ids], valid[ids], capacities, num_links
        )
    return rates



# --------------------------------------------------------------- incremental

#: Relative tolerance of the incremental allocator's rates against a
#: from-scratch reference allocation over the same active set.  The
#: allocator corrects itself whenever a flow's achievable rate drifts
#: past this bound (the starvation sweep) or a link accumulates this
#: much capacity-relative churn (the budget), and the reference itself
#: groups links saturating within ``_LEVEL_GROUPING`` of each other, so
#: even exact local corrections regroup rounds differently.  The
#: ``transport.incremental_equivalence`` checker and the Hypothesis
#: interleaving property assert agreement at this bound.
INCREMENTAL_RTOL = 0.15

#: Full from-scratch re-anchor cadence (in solves).  Bounds any drift an
#: adversarial event sequence could accumulate in frozen rates; costs
#: one vectorized allocation per this many events.
_REANCHOR_INTERVAL = 64

#: Fraction of :data:`INCREMENTAL_RTOL` a link may accumulate in
#: capacity-relative bandwidth churn before the flows crossing it are
#: re-solved exactly.  Half the tolerance leaves the other half for
#: admission error and the reference's own level grouping.
_CHURN_BUDGET = 1.0

#: Affected-set fraction beyond which a full solve is cheaper than the
#: subproblem bookkeeping.
_MAX_AFFECTED_FRACTION = 0.75

#: Starvation-sweep rounds per solve.  Each round lifts every starved
#: flow by exactly re-solving it with the flows crossing its limiting
#: link; a lift can expose starvation one hop away, so a few rounds let
#: it diffuse.  A state still starved after the last round is
#: re-anchored with a full solve.
_SWEEP_ROUNDS = 4

#: Why :class:`IncrementalMaxMin` fell back to a full solve, one label per
#: branch: no anchor yet, the :data:`_REANCHOR_INTERVAL` cadence, a churn
#: or starvation correction touching more than
#: :data:`_MAX_AFFECTED_FRACTION` of the active flows, a subproblem the
#: exact solver could not take, and flows still starved after
#: :data:`_SWEEP_ROUNDS` sweeps.
FULL_SOLVE_REASONS = (
    "unanchored",
    "cadence",
    "churn_spread",
    "degenerate_subgraph",
    "starved_spread",
    "still_starved",
)


class IncrementalMaxMin:
    """Max-min allocator state maintained across flow arrivals/departures.

    The from-scratch allocators above cost ``O(rounds x incidences)``
    per call regardless of how little changed; at paper scale (tens of
    thousands of concurrent flows) that dominates the whole simulation.
    The observation that makes an incremental allocator viable is that
    datacenter bottlenecks are *shared*: hundreds of flows sit at the
    fair level of the same core or uplink bottleneck, so one arrival or
    departure moves each cohort member's fair share by ``~1/cohort`` —
    far inside the documented :data:`INCREMENTAL_RTOL`.  Re-solving the
    whole network on every event buys precision nobody asked for at the
    full allocator's price.

    Events are absorbed with tolerance-aware local work:

    1. **Admit** (arrival): the newcomer is granted the minimum over
       its path links of each link's projected fair level
       ``(cohort_level x n + residual) / (n + 1)``; on links where that
       exceeds the free residual, the bottleneck cohort is scaled down
       pro rata to make room (one vectorized pass over the cohort's
       incidence).
    2. **Release** (departure): the departed flow's bandwidth is
       returned to the residual of its links; nobody else's rate moves
       until a correction trigger fires.
    3. **Correction triggers**, evaluated after every event batch:

       - *churn budget*: grants, steals and releases accumulate per
         link; a link past :data:`_CHURN_BUDGET` x rtol of its capacity
         has drifted in aggregate.
       - *starvation sweep*: a vectorized pass computes every flow's
         achievable rate — the minimum over its path of saturated-link
         fair levels (the max rate crossing the link) and free residual
         headroom.  A flow whose achievable rate exceeds its allocated
         rate by more than rtol is *starved*: the direct, per-flow
         measure of the error the equivalence checker bounds.  This is
         what the churn budget alone cannot see — a lone flow starved
         under hundreds of correctly-allocated neighbours moves its
         link by well under any link-relative budget.

       All hot links and every starved flow's limiting link have their
       *crossing flows* re-solved exactly against the frozen
       complement — crossing flows, not just the resident cohort,
       because correcting a starved flow requires pulling drifted-high
       pass-through flows back down.  Frozen consumption is subtracted
       from capacities, so a correction can never oversubscribe a link.
       Corrections run for up to :data:`_SWEEP_ROUNDS` rounds (each
       exact fix can expose starvation one hop away); anything still
       dirty after that — or touching more than
       :data:`_MAX_AFFECTED_FRACTION` of the active flows — falls back
       to a full solve.
    4. **Re-anchor**: a full vectorized solve additionally runs every
       :data:`_REANCHOR_INTERVAL` solves, re-grounding bottleneck
       assignments and clearing all budgets.

    Per-link consumption is re-derived from the live rates at the top
    of every solve, so accounting noise never compounds.  All state is
    indexed by :class:`~repro.simulation.transport.FluidTransport`'s
    slot ids, and the solve machinery gathers subproblems from
    slot-indexed path arrays so the per-event cost is vectorized over
    the flows involved, never a Python loop over flows.
    """

    def __init__(self, capacities: np.ndarray, num_links: int) -> None:
        self.capacities = np.asarray(capacities, dtype=float)
        self.num_links = num_links
        #: Total allocated bandwidth per link under the current rates.
        self.link_consumed = np.zeros(num_links)
        #: Unredistributed bandwidth churn per link since it was last
        #: solved exactly.
        self.churn = np.zeros(num_links)
        #: Slots of the flows crossing each link.
        self.link_flows: list[set[int]] = [set() for _ in range(num_links)]
        #: Path (tuple of link ids) per registered slot.
        self.flow_links: dict[int, tuple[int, ...]] = {}
        #: Allocated rate per slot (grown on demand).
        self.rates_by_slot = np.zeros(256)
        #: Tightest link on each flow's path as of its last solve.
        self.bottleneck_by_slot = np.full(256, -1, dtype=np.int64)
        #: Slot-indexed path rows (-1 padded), mirroring the transport's
        #: layout so subproblem gathers are one fancy index.
        self.paths_by_slot = np.full((256, 8), -1, dtype=np.int64)
        #: Flows added since the last solve, admitted in slot order.
        self.pending_new: set[int] = set()
        self._anchored = False
        self._solves_since_anchor = 0
        # Telemetry, folded into the run metrics by the simulator.
        self.full_solves = 0
        #: ``full_solves`` split by :data:`FULL_SOLVE_REASONS`.
        self.full_solves_by_reason = dict.fromkeys(FULL_SOLVE_REASONS, 0)
        self.incremental_solves = 0
        #: Exact subgraph corrections (budget- or starvation-triggered).
        self.expansions = 0
        self.affected_flows_total = 0

    # ------------------------------------------------------------- events

    def _ensure_slot(self, slot: int) -> None:
        size = self.rates_by_slot.size
        if slot >= size:
            new = max(size * 2, slot + 1)
            self.rates_by_slot = np.concatenate(
                [self.rates_by_slot, np.zeros(new - size)]
            )
            self.bottleneck_by_slot = np.concatenate(
                [self.bottleneck_by_slot,
                 np.full(new - size, -1, dtype=np.int64)]
            )
            self.paths_by_slot = np.vstack([
                self.paths_by_slot,
                np.full((new - size, self.paths_by_slot.shape[1]), -1,
                        dtype=np.int64),
            ])

    def on_add(self, slot: int, links: tuple[int, ...]) -> None:
        """Register an arriving flow (admitted at the next solve)."""
        self._ensure_slot(slot)
        width = self.paths_by_slot.shape[1]
        if len(links) > width:
            pad = np.full(
                (self.paths_by_slot.shape[0], len(links) - width), -1,
                dtype=np.int64,
            )
            self.paths_by_slot = np.hstack([self.paths_by_slot, pad])
        self.flow_links[slot] = tuple(links)
        self.rates_by_slot[slot] = 0.0
        self.bottleneck_by_slot[slot] = -1
        self.paths_by_slot[slot, :] = -1
        self.paths_by_slot[slot, : len(links)] = links
        for link in links:
            self.link_flows[link].add(slot)
        self.pending_new.add(slot)

    def on_remove(self, slot: int) -> None:
        """Unregister a departing flow and release its bandwidth."""
        links = self.flow_links.pop(slot, None)
        if links is None:
            return
        rate = float(self.rates_by_slot[slot])
        self.rates_by_slot[slot] = 0.0
        self.bottleneck_by_slot[slot] = -1
        self.paths_by_slot[slot, :] = -1
        self.pending_new.discard(slot)
        for link in links:
            self.link_flows[link].discard(slot)
            self.link_consumed[link] -= rate
            self.churn[link] += rate
        np.maximum(self.link_consumed, 0.0, out=self.link_consumed)

    # ------------------------------------------------------------- solves

    def solve(
        self,
        active_idx: np.ndarray,
        paths: np.ndarray,
        valid: np.ndarray,
        table: IncidenceTable | None = None,
    ) -> np.ndarray:
        """Rates for ``active_idx`` after absorbing pending events.

        ``paths``/``valid`` hold the active flows' path rows in the
        order of ``active_idx``; ``table``, when given, is the
        transport's maintained incidence of the same flows, which a full
        solve on the heap regime reads instead of building its own.
        """
        num_active = active_idx.size
        if num_active == 0:
            self.pending_new.clear()
            self.churn[:] = 0.0
            self._anchored = True
            return np.zeros(0)
        if not self._anchored:
            return self._full_solve(active_idx, paths, valid, table, "unanchored")
        if self._solves_since_anchor >= _REANCHOR_INTERVAL:
            return self._full_solve(active_idx, paths, valid, table, "cadence")
        # Flat incidence view, shared by the consumption rebuild and the
        # starvation sweeps (paths/valid stay fixed within one solve).
        counts = valid.sum(axis=1)
        flat = paths[valid]
        bounds = np.zeros(counts.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=bounds[1:])
        # Re-derive per-link consumption exactly from the live rates so
        # accounting noise (steal clamps, float drift) never compounds.
        self.link_consumed = np.bincount(
            flat,
            weights=np.repeat(self.rates_by_slot[active_idx], counts),
            minlength=self.num_links,
        ).astype(float)
        cohort_cache: dict[int, np.ndarray] = {}
        for slot in sorted(self.pending_new):
            self._admit(slot, cohort_cache)
        self.pending_new.clear()
        hot = np.flatnonzero(
            self.churn
            > _CHURN_BUDGET * INCREMENTAL_RTOL
            * np.maximum(self.capacities, 1.0)
        )
        if hot.size:
            affected: set[int] = set()
            for link in hot:
                cohort = cohort_cache.get(int(link))
                if cohort is None:
                    cohort = self._cohort(int(link))
                affected.update(cohort.tolist())
            if len(affected) > _MAX_AFFECTED_FRACTION * num_active:
                return self._full_solve(
                    active_idx, paths, valid, table, "churn_spread"
                )
            if affected and not self._subgraph_solve(affected):
                return self._full_solve(
                    active_idx, paths, valid, table, "degenerate_subgraph"
                )
            self.churn[hot] = 0.0
        # Starvation corrections: lift each starved flow by re-solving
        # it together with everything crossing its limiting link.  One
        # lift can expose starvation a hop away, so sweep a few rounds;
        # a state that will not settle locally is re-anchored globally.
        for _ in range(_SWEEP_ROUNDS):
            starved_rows, limiting = self._starved(
                active_idx, paths, valid, flat, counts, bounds
            )
            if starved_rows.size == 0:
                break
            affected = set(active_idx[starved_rows].tolist())
            for link in limiting:
                affected.update(self.link_flows[int(link)])
            if len(affected) > _MAX_AFFECTED_FRACTION * num_active:
                return self._full_solve(
                    active_idx, paths, valid, table, "starved_spread"
                )
            if not self._subgraph_solve(affected):
                return self._full_solve(
                    active_idx, paths, valid, table, "degenerate_subgraph"
                )
        else:
            starved_rows, _ = self._starved(
                active_idx, paths, valid, flat, counts, bounds
            )
            if starved_rows.size:
                return self._full_solve(
                    active_idx, paths, valid, table, "still_starved"
                )
        self.incremental_solves += 1
        self._solves_since_anchor += 1
        return self.rates_by_slot[active_idx]

    def _starved(
        self,
        active_idx: np.ndarray,
        paths: np.ndarray,
        valid: np.ndarray,
        flat: np.ndarray,
        counts: np.ndarray,
        bounds: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rows of flows starved beyond the tolerance, and their limits.

        A flow is starved when its *achievable* rate — the minimum over
        its path of each saturated link's fair level (the maximum rate
        crossing it) and each unsaturated link's free headroom — beats
        its allocated rate by more than the tolerance.  This is the
        direct per-flow measure of the error the equivalence checker
        bounds, and the one failure mode link-level churn budgets cannot
        see: a lone flow starved under hundreds of correctly-allocated
        neighbours moves its link by well under any link-relative
        budget.
        """
        rates = self.rates_by_slot[active_idx]
        flat_rates = np.repeat(rates, counts)
        level = np.zeros(self.num_links)
        np.maximum.at(level, flat, flat_rates)
        residual = np.maximum(self.capacities - self.link_consumed, 0.0)
        # A link's free residual would be water-filled across the flows
        # sitting *at* its level (anyone lower is capped elsewhere), so
        # each level-setter's entitlement grows by residual / their
        # count: the whole residual for a lone top flow, a negligible
        # sliver inside a hundreds-strong cohort.  Even an exact
        # solution leaves ~_LEVEL_GROUPING of slack on bottlenecks, so
        # treating the residual as any one flow's headroom would flag
        # entire cohorts as starved against a reference that grouped
        # the same slack away.
        level_flat = level[flat]
        top = np.bincount(
            flat,
            weights=(
                flat_rates >= (1.0 - 2.0 * _LEVEL_GROUPING) * level_flat
            ).astype(float),
            minlength=self.num_links,
        )
        share = residual / np.maximum(top, 1.0)
        # Per-link ceiling: fairness entitles a flow up to the level,
        # and the level-setters additionally split the free residual.
        # Everything runs on the flat incidence (segmented by ``bounds``)
        # to avoid materialising padded flows x width temporaries.
        flat_ceiling = share[flat]
        flat_ceiling += flat_rates
        np.maximum(flat_ceiling, level_flat, out=flat_ceiling)
        achievable = np.minimum.reduceat(flat_ceiling, bounds)
        achievable[counts == 0] = np.inf
        rows = np.flatnonzero(
            np.isfinite(achievable)
            & (achievable - rates > INCREMENTAL_RTOL * np.maximum(rates, 1.0))
        )
        if rows.size == 0:
            return rows, np.empty(0, dtype=np.int64)
        limiting: set[int] = set()
        for row in rows:
            start = bounds[row]
            segment = flat_ceiling[start : start + counts[row]]
            limiting.add(int(flat[start + int(segment.argmin())]))
        return rows, np.fromiter(limiting, dtype=np.int64, count=len(limiting))

    def _cohort(self, link: int) -> np.ndarray:
        """Slots of the flows currently bottlenecked on ``link``."""
        crossing = self.link_flows[link]
        if not crossing:
            return np.empty(0, dtype=np.int64)
        arr = np.fromiter(crossing, dtype=np.int64, count=len(crossing))
        return arr[self.bottleneck_by_slot[arr] == link]

    def _admit(self, slot: int, cohort_cache: dict[int, np.ndarray]) -> None:
        """Grant an arriving flow its projected fair share.

        The grant is the minimum over the flow's links of the projected
        fair level ``(level x n + residual) / (n + 1)`` — what a fresh
        water-filling would hand the newcomer if each link's cohort and
        free residual were split ``n + 1`` ways.  Links whose residual
        cannot cover the grant have their cohort scaled down pro rata;
        the freed bandwidth on *other* links those cohort flows cross is
        charged to their churn budgets, as is the grant itself.
        """
        links = self.flow_links[slot]
        link_arr = np.fromiter(links, dtype=np.int64, count=len(links))
        caps = self.capacities[link_arr]
        residual = np.maximum(caps - self.link_consumed[link_arr], 0.0)
        entitle = np.empty(link_arr.size)
        for i, link in enumerate(links):
            cohort = cohort_cache.get(link)
            if cohort is None:
                cohort = self._cohort(link)
                cohort_cache[link] = cohort
            n = cohort.size
            if n:
                level = float(self.rates_by_slot[cohort].max())
                entitle[i] = (level * n + residual[i]) / (n + 1)
            else:
                entitle[i] = residual[i]
        grant = float(entitle.min())
        bottleneck = int(link_arr[int(entitle.argmin())])
        if grant > 0.0:
            need = grant - residual
            for i in np.flatnonzero(need > 1e-9 * grant):
                link = links[int(i)]
                cohort = cohort_cache[link]
                rates = self.rates_by_slot[cohort]
                total = float(rates.sum())
                if total <= 0.0:
                    continue
                shrink = min(float(need[i]) / total, 1.0)
                delta = rates * shrink
                self.rates_by_slot[cohort] = rates - delta
                cpaths = self.paths_by_slot[cohort]
                cvalid = cpaths >= 0
                freed = np.bincount(
                    cpaths[cvalid],
                    weights=np.repeat(delta, cvalid.sum(axis=1)),
                    minlength=self.num_links,
                )
                self.link_consumed -= freed
                np.maximum(self.link_consumed, 0.0, out=self.link_consumed)
                self.churn += freed
            self.link_consumed[link_arr] = np.minimum(
                self.link_consumed[link_arr] + grant, caps
            )
            np.add.at(self.churn, link_arr, grant)
        self.rates_by_slot[slot] = grant
        self.bottleneck_by_slot[slot] = bottleneck
        cached = cohort_cache.get(bottleneck)
        if cached is not None:
            cohort_cache[bottleneck] = np.append(cached, slot)

    def _subgraph_solve(self, affected: "set[int] | frozenset[int]") -> bool:
        """Exactly re-solve ``affected`` against the frozen complement.

        Returns ``False`` when the gathered subproblem is degenerate and
        the caller should fall back to a full solve.  The frozen
        complement's consumption is subtracted from capacities first, so
        the sub-allocation can never oversubscribe a link.  The shifts
        this causes on neighbouring links are *not* charged to their
        budgets: the per-event charges (grants, releases) are already
        first-order complete, and charging corrections too
        double-counts — it makes every correction look like fresh drift
        and cascades sub-solves across the whole core.  Second-order
        drift is caught by the starvation sweep and the periodic
        re-anchor.
        """
        flow_arr = np.fromiter(affected, dtype=np.int64, count=len(affected))
        flow_arr.sort()
        paths_global = self.paths_by_slot[flow_arr]
        sub_valid = paths_global >= 0
        if not sub_valid.any():
            return False
        link_arr = np.unique(paths_global[sub_valid])
        sub_paths = np.full_like(paths_global, -1)
        sub_paths[sub_valid] = np.searchsorted(link_arr, paths_global[sub_valid])
        counts = sub_valid.sum(axis=1)
        num_sub_links = link_arr.size
        internal_old = np.bincount(
            sub_paths[sub_valid],
            weights=np.repeat(self.rates_by_slot[flow_arr], counts),
            minlength=num_sub_links,
        )
        external = self.link_consumed[link_arr] - internal_old
        np.maximum(external, 0.0, out=external)
        sub_caps = np.maximum(self.capacities[link_arr] - external, 0.0)
        # Mid-size subproblems (hundreds of flows) sit below the global
        # CSR threshold but already favour batched elimination over the
        # heap walk; smaller ones take the heap.
        if flow_arr.size >= 256:
            sub_rates = _maxmin_csr(
                sub_paths, sub_valid, sub_caps, num_sub_links
            )
        else:
            sub_rates = _maxmin_heap(
                IncidenceTable.from_paths(sub_paths, sub_valid, num_sub_links),
                sub_caps,
            )
        internal_new = np.bincount(
            sub_paths[sub_valid],
            weights=np.repeat(sub_rates, counts),
            minlength=num_sub_links,
        )
        self.rates_by_slot[flow_arr] = sub_rates
        self.link_consumed[link_arr] = external + internal_new
        self._refresh_bottlenecks(flow_arr, paths_global, sub_valid)
        self.expansions += 1
        self.affected_flows_total += flow_arr.size
        return True

    def _full_solve(
        self,
        active_idx: np.ndarray,
        paths: np.ndarray,
        valid: np.ndarray,
        table: IncidenceTable | None,
        reason: str,
    ) -> np.ndarray:
        rates = maxmin_rates_vectorized(
            paths, valid, self.capacities, self.num_links, table=table
        )
        self._ensure_slot(int(active_idx.max(initial=0)))
        self.rates_by_slot[active_idx] = rates
        flat = paths[valid]
        per_link = np.repeat(rates, valid.sum(axis=1))
        self.link_consumed = np.bincount(
            flat, weights=per_link, minlength=self.num_links
        ).astype(float)
        self._refresh_bottlenecks(active_idx, paths, valid)
        self.churn[:] = 0.0
        self.pending_new.clear()
        self._anchored = True
        self._solves_since_anchor = 0
        self.full_solves += 1
        self.full_solves_by_reason[reason] += 1
        return rates

    def _refresh_bottlenecks(
        self, slots: np.ndarray, paths: np.ndarray, valid: np.ndarray
    ) -> None:
        """``bottleneck_by_slot`` ← the path link with the lowest fair level.

        In a max-min allocation a flow's bottleneck is the saturated
        link whose fair-share level equals the flow's rate; that level
        is observable as the maximum rate among the flows crossing the
        link.  Unsaturated links are ranked after every saturated one (a
        flow is never bottlenecked where capacity is left over).
        """
        if slots.size == 0:
            return
        level = np.zeros(self.num_links)
        flat = paths[valid]
        np.maximum.at(
            level, flat, np.repeat(self.rates_by_slot[slots], valid.sum(axis=1))
        )
        residual = self.capacities - self.link_consumed
        saturated = residual <= INCREMENTAL_RTOL * np.maximum(self.capacities, 1.0)
        rank = np.where(saturated, level, level.max(initial=0.0) + 1.0 + residual)
        padded = np.where(valid, rank[np.maximum(paths, 0)], np.inf)
        tightest = padded.argmin(axis=1)
        self.bottleneck_by_slot[slots] = paths[
            np.arange(slots.size), tightest
        ]
