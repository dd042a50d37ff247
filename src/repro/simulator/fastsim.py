"""The event-skipping ``fast`` simulator kernel.

Bit-identical to the ``reference`` kernel (:class:`NetworkSimulator`), but
built on two observations that let it skip almost all per-cycle dead work:

**The wormhole-window invariant.**  A virtual-channel buffer is owned by
one packet from the moment its head flit enters until its tail flit leaves,
and FIFO order preserves flit order — so a buffer only ever holds a
*contiguous window of one packet's flit train*.  The fast kernel therefore
represents a buffer as four machine integers (packet id, hop, window start,
flit count) in flat parallel arrays instead of a deque of flit objects:

* moving a flit is ``start += 1; count -= 1`` plus ``count += 1``
  downstream — no object or even int-encoding churn per flit;
* a buffer that moved a flit still holds the *same packet at the same hop*,
  so it keeps wanting the same output channel and its worklist entries
  need no update; classification changes only at the empty/refill
  boundaries, i.e. once per *packet* per buffer rather than once per flit;
* the head flit's flags are derived, not stored: it is a head iff the
  window starts at sequence 0, a tail iff it starts at the last sequence,
  ejectable iff the buffer's hop is the route's final hop.

**Event-driven worklists.**  The reference kernel re-derives, every cycle,
which buffers want which output by scanning every occupied buffer.  This
kernel maintains one sorted contender list per output channel
(``buf_cands``), a set of ejection-ready buffers (``eject_heads``), the
nodes holding injectable flits (``active_nodes``) and the flows with both a
backlog and source-queue room (``needs_fill``) — each updated only at the
events that can change them.  Output channels whose last arbitration failed
for every contender are parked in ``blocked_targets`` (an all-fail verdict
is round-robin-independent) and skipped until one of their evaluation
inputs changes: any append/pop/owner change on their buffers, a contender
edit, or an injection contender appearing.  At saturation — where most
heads are blocked and would be re-derived identically cycle after cycle —
the per-cycle cost tracks *flits actually moved*, not network size.

The arbitration order, round-robin pointer evolution, virtual-channel
selection rule and statistics accounting replicate the reference kernel
decision for decision (the shared injection process supplies the only
randomness, drawn in the same order), which is what makes the two kernels
produce field-for-field identical :class:`SimulationStatistics` and
``flit_audit`` ledgers — asserted by ``tests/test_backend_differential.py``
across every registered router, meshes, tori, synthetic and application
workloads, and degraded topologies.  Two ordering details carry the proof:
the contender *count* feeds the round-robin modulus, so the persistent lists
contain exactly the contenders the reference kernel would collect (network
buffers in flat-index order, then the per-node injection rotations); and a
single-flow node's rotation pointer is never observable (any value modulo
one queue is the same), so it alone may be elided.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Dict, List, Optional, Tuple

from ..exceptions import SimulationError
from ..metrics.statistics import SimulationStatistics
from ..routing.base import RouteSet
from ..topology.base import Topology
from .config import SimulationConfig
from .injection import InjectionProcess
from .state import compile_fault_events, compile_routes, vc_partitions


class FastSimulator:
    """Event-skipping simulator kernel (the ``fast`` backend).

    Same constructor contract and public surface as
    :class:`~repro.simulator.network.NetworkSimulator`; see the module
    docstring for how the two kernels differ internally.
    """

    def __init__(self, topology: Topology, route_set: RouteSet,
                 config: SimulationConfig, injection: InjectionProcess,
                 phase_boundaries: Optional[Dict[str, int]] = None,
                 fault_schedule=None) -> None:
        self.topology = topology
        self.route_set = route_set
        self.config = config
        self.injection = injection
        self.phase_boundaries = phase_boundaries or {}

        self._channels = list(topology.channels)
        channel_index = {channel: index
                         for index, channel in enumerate(self._channels)}
        self._num_channels = len(self._channels)
        self._num_vcs = config.num_vcs

        compiled = compile_routes(route_set, channel_index, self._num_vcs)

        # scheduled mid-run faults (same fail-stop semantics as the
        # reference kernel's apply_fault_events stage)
        self._fault_events = compile_fault_events(fault_schedule,
                                                  channel_index)
        self._fault_index = 0
        self._dead_flows: set = set()

        # hot configuration scalars
        self._warmup = config.warmup_cycles
        self._depth = config.buffer_depth
        self._local_bandwidth = config.local_bandwidth
        self._size_flits = config.packet_size_flits
        self._last_seq = config.packet_size_flits - 1
        self._capacity = config.injection_buffer_depth
        self._drop = config.drop_when_source_full
        self._deadlock_idle_threshold = 4 * config.buffer_depth * 8

        # per-flow compiled tables, index-aligned with the flow set
        self._flow_names: List[str] = []
        self._flow_route: List[Optional[Tuple[int, ...]]] = []
        self._flow_static: List[Optional[Tuple[int, ...]]] = []
        self._flow_last_hop: List[int] = []
        self._flow_dynamic: List[bool] = []
        self._flow_first_channel: List[int] = []
        self._flow_node: List[int] = []
        for flow in route_set.flow_set:
            self._flow_names.append(flow.name)
            self._flow_node.append(flow.source)
            route = compiled.get(flow.name)
            if route is None:
                self._flow_route.append(None)
                self._flow_static.append(None)
                self._flow_last_hop.append(-1)
                self._flow_dynamic.append(False)
                self._flow_first_channel.append(-1)
                continue
            channel_ids, static_vcs = route
            self._flow_route.append(channel_ids)
            self._flow_static.append(tuple(
                -1 if vc is None else vc for vc in static_vcs))
            self._flow_last_hop.append(len(channel_ids) - 1)
            self._flow_dynamic.append(any(vc is None for vc in static_vcs))
            self._flow_first_channel.append(channel_ids[0])
        num_flows = len(self._flow_names)

        # per-flow dynamic-VC partitions, re-keyed by flow index
        allowed_by_name = vc_partitions(self._flow_names,
                                        self.phase_boundaries, self._num_vcs)
        self._flow_allowed = [allowed_by_name[name]
                              for name in self._flow_names]

        self._batched_injection = (
            [flow.name for flow in injection.flow_set] == self._flow_names
        )

        # flat per-(channel, vc) buffer state: one packet window per buffer
        # (pid / hop are only meaningful while count > 0)
        num_buffers = self._num_channels * self._num_vcs
        self._buf_pid: List[int] = [0] * num_buffers
        self._buf_hop: List[int] = [0] * num_buffers
        self._buf_start: List[int] = [0] * num_buffers
        self._buf_count: List[int] = [0] * num_buffers
        self._owners: List[Optional[int]] = [None] * num_buffers
        self._buffer_dst: List[int] = [
            self._channels[index // self._num_vcs].dst
            for index in range(num_buffers)
        ]
        #: buffers whose window sits at its final hop (ejection-ready)
        self._eject_heads: set = set()
        #: per output channel, the sorted buffer indices whose head flit
        #: wants to enter it (the persistent contender lists)
        self._buf_cands: List[List[int]] = [[] for _ in range(self._num_channels)]
        #: output channels whose contender list is non-empty
        self._live_targets: set = set()
        #: output channels with a cached all-contenders-fail verdict
        self._blocked_targets: set = set()

        # source-side state: per flow, a deque of queued packet ids plus the
        # head packet's next flit sequence (the same windowing idea)
        self._queue_pids: List[deque] = [deque() for _ in range(num_flows)]
        self._queue_seq: List[int] = [0] * num_flows
        self._backlogs: List[deque] = [deque() for _ in range(num_flows)]
        #: flows with both a backlog and source-queue room (fill worklist)
        self._needs_fill: set = set()
        grouped: Dict[int, List[Tuple[str, int]]] = {}
        for index, flow in enumerate(route_set.flow_set):
            grouped.setdefault(flow.source, []).append((flow.name, index))
        # single-flow nodes (the common case) inject through a persistent
        # target -> flow map updated at queue empty/non-empty transitions;
        # their rotation pointer is unobservable (modulo one) and elided.
        # Multi-flow nodes keep the reference kernel's per-cycle rotation.
        self._flow_is_single: List[bool] = [
            len(grouped[flow.source]) == 1 for flow in route_set.flow_set
        ]
        self._inj_single: Dict[int, int] = {}
        self._node_entries: Dict[int, List[Tuple[int, deque]]] = {
            node: [(index, self._queue_pids[index])
                   for _, index in sorted(entries)]
            for node, entries in grouped.items() if len(entries) > 1
        }
        self._node_live: Dict[int, int] = {node: 0
                                           for node in self._node_entries}
        self._active_multi: set = set()

        # per-packet records, indexed by packet id
        self._pkt_flow: List[int] = []
        self._pkt_injected: List[int] = []
        self._pkt_alloc: List[Optional[List[Optional[int]]]] = []

        # round-robin pointers (single-flow nodes never consult theirs)
        self._output_rr: List[int] = [0] * self._num_channels
        self._node_rr: Dict[int, int] = {node: 0 for node in topology.nodes}

        # statistics
        self._cycle = 0
        self._next_packet_id = 0
        self._packets_generated = 0
        self._measured_generated = 0
        self._packets_delivered = 0
        self._flits_delivered = 0
        self._total_latency = 0.0
        self._per_flow_latency: Dict[str, float] = {}
        self._per_flow_delivered: Dict[str, int] = {}
        self._dropped = 0
        self._in_flight_flits = 0
        self._ejected_flits_total = 0
        self._idle_cycles = 0
        self._deadlock_suspected = False
        self._flits_lost_to_faults = 0
        self._packets_lost_to_faults = 0
        self._packets_dropped_faults = 0

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def step(self) -> int:
        """Advance the simulation by one cycle; returns flits moved."""
        cycle = self._cycle

        # -------- apply scheduled link failures (fail-stop) --------
        if self._fault_events and \
                self._fault_index < len(self._fault_events) and \
                self._fault_events[self._fault_index][0] <= cycle:
            self._apply_fault_events()

        # -------- inject: draw packets, fill source queues --------
        injection = self.injection
        if self._batched_injection:
            events = injection.injection_events(cycle)
        else:
            events = [
                (index, injection.packets_to_inject(flow, cycle))
                for index, flow in enumerate(self.route_set.flow_set)
            ]
        if events:
            measured = cycle >= self._warmup
            backlogs = self._backlogs
            needs_fill = self._needs_fill
            dead_flows = self._dead_flows
            for index, count in events:
                if not count:
                    continue
                self._packets_generated += count
                if measured:
                    self._measured_generated += count
                if dead_flows and index in dead_flows:
                    # dead flow: the arrival was drawn (determinism) but
                    # diverts straight to the fault bin
                    self._packets_dropped_faults += count
                    continue
                backlog = backlogs[index]
                for _ in range(count):
                    backlog.append(cycle)
                needs_fill.add(index)
        # the worklist may also hold room-events parked by the previous
        # cycle's commit, so the fill runs even on arrival-free cycles
        if self._needs_fill:
            self._fill_injection_queues()

        # -------- eject: consume flits at their destinations --------
        moved = self._eject() if self._eject_heads else 0

        # -------- arbitrate + commit over the persistent contenders --------
        multi_cands = (self._multi_injection_candidates()
                       if self._active_multi else None)
        if self._live_targets or multi_cands or self._inj_single:
            moved += self._arbitrate_and_commit(multi_cands)

        # -------- deadlock watchdog --------
        if moved == 0 and self._in_flight_flits > 0:
            self._idle_cycles += 1
            if self._idle_cycles > self._deadlock_idle_threshold:
                self._deadlock_suspected = True
        else:
            self._idle_cycles = 0
        self._cycle = cycle + 1
        return moved

    # ------------------------------------------------------------------
    def _apply_fault_events(self) -> None:
        """Apply every scheduled failure whose cycle has arrived.

        Mirrors :func:`~repro.simulator.stages.apply_fault_events` decision
        for decision (fail-stop with flit loss at flow granularity), then
        repairs this kernel's worklists: a purged buffer leaves whichever
        of ``eject_heads`` / ``buf_cands`` it was on, an emptied source
        queue leaves the injection maps, and the blocked-target cache is
        dropped wholesale — it is a pure re-evaluation shortcut, and fault
        events are rare enough that rebuilding it costs nothing.
        """
        events = self._fault_events
        while self._fault_index < len(events) and \
                events[self._fault_index][0] <= self._cycle:
            self._kill_flows_using(events[self._fault_index][1])
            self._fault_index += 1

    def _kill_flows_using(self, failed_ids: frozenset) -> None:
        """Kill every live flow whose route crosses a failed channel."""
        newly_dead = []
        for index, route in enumerate(self._flow_route):
            if index in self._dead_flows or route is None:
                continue
            if any(cid in failed_ids for cid in route):
                newly_dead.append(index)
        if not newly_dead:
            return
        killed_pids = set()
        size_flits = self._size_flits
        for index in newly_dead:
            self._dead_flows.add(index)
            self._needs_fill.discard(index)
            backlog = self._backlogs[index]
            if backlog:
                self._packets_dropped_faults += len(backlog)
                backlog.clear()
            pids = self._queue_pids[index]
            if pids:
                flits = len(pids) * size_flits - self._queue_seq[index]
                self._flits_lost_to_faults += flits
                self._in_flight_flits -= flits
                killed_pids.update(pids)
                pids.clear()
                self._queue_seq[index] = 0
                if self._flow_is_single[index]:
                    del self._inj_single[self._flow_first_channel[index]]
                else:
                    node = self._flow_node[index]
                    live = self._node_live[node] - 1
                    self._node_live[node] = live
                    if not live:
                        self._active_multi.discard(node)
        # purge network buffers: each holds one packet's window, so the
        # head flit's flow identifies the whole buffer
        newly = set(newly_dead)
        buf_count = self._buf_count
        buf_pid = self._buf_pid
        pkt_flow = self._pkt_flow
        for buffer_index in range(len(buf_count)):
            count = buf_count[buffer_index]
            if not count:
                continue
            pid = buf_pid[buffer_index]
            fidx = pkt_flow[pid]
            if fidx not in newly:
                continue
            killed_pids.add(pid)
            self._flits_lost_to_faults += count
            self._in_flight_flits -= count
            buf_count[buffer_index] = 0
            # a non-empty buffer is on exactly one worklist: ejection-ready
            # or contender for its next channel
            if buffer_index in self._eject_heads:
                self._eject_heads.discard(buffer_index)
            else:
                nxt = self._flow_route[fidx][self._buf_hop[buffer_index] + 1]
                cands = self._buf_cands[nxt]
                cands.remove(buffer_index)
                if not cands:
                    self._live_targets.discard(nxt)
        # release ownership and per-packet records of killed packets (an
        # owner entry means the tail had not left, so the pid was purged)
        owners = self._owners
        for buffer_index, owner in enumerate(owners):
            if owner is not None and owner in killed_pids:
                owners[buffer_index] = None
        for pid in killed_pids:
            self._pkt_alloc[pid] = None
        self._packets_lost_to_faults += len(killed_pids)
        # the purge changed buffer occupancy and ownership everywhere;
        # cached all-fail verdicts are no longer trustworthy
        self._blocked_targets.clear()

    # ------------------------------------------------------------------
    def _fill_injection_queues(self) -> None:
        """Build packets for every flow with backlog and source-queue room.

        ``needs_fill`` holds exactly the flows worth visiting: flows that
        just received arrivals plus flows whose queue crossed back under
        the capacity threshold this cycle (detected at commit time).  A
        visited flow leaves the worklist; the same outcome as the reference
        kernel's every-cycle scan, at event cost.
        """
        capacity = self._capacity
        size_flits = self._size_flits
        drop = self._drop
        backlogs = self._backlogs
        queue_pids = self._queue_pids
        queue_seq = self._queue_seq
        pkt_flow = self._pkt_flow
        pkt_injected = self._pkt_injected
        pkt_alloc = self._pkt_alloc
        for index in sorted(self._needs_fill):
            backlog = backlogs[index]
            route = self._flow_route[index]
            if route is None:
                raise SimulationError(
                    f"flow {self._flow_names[index]} has traffic to inject "
                    f"but no route"
                )
            pids = queue_pids[index]
            was_empty = not pids
            flits_queued = len(pids) * size_flits - queue_seq[index]
            dynamic = self._flow_dynamic[index]
            hops = len(route)
            while backlog and flits_queued + size_flits <= capacity:
                generated_cycle = backlog.popleft()
                pid = self._next_packet_id
                self._next_packet_id = pid + 1
                pkt_flow.append(index)
                pkt_injected.append(generated_cycle)
                pkt_alloc.append([None] * hops if dynamic else None)
                pids.append(pid)
                flits_queued += size_flits
                self._in_flight_flits += size_flits
            if drop and backlog:
                self._dropped += len(backlog)
                backlog.clear()
            if was_empty and pids:
                if self._flow_is_single[index]:
                    self._inj_single[self._flow_first_channel[index]] = index
                else:
                    node = self._flow_node[index]
                    live = self._node_live[node] + 1
                    self._node_live[node] = live
                    if live == 1:
                        self._active_multi.add(node)
        self._needs_fill.clear()

    # ------------------------------------------------------------------
    def _eject(self) -> int:
        """Consume flits at their final hop, bounded per node; returns moves.

        A buffer that ejects a flit still holds the same packet at the same
        (final) hop, so it stays ejection-ready until it empties — no
        reclassification per flit, and no equivalent of the reference
        kernel's departed-buffers bookkeeping is needed (an ejection-ready
        buffer is never a switch contender).
        """
        moved = 0
        measuring = self._cycle >= self._warmup
        buffer_dst = self._buffer_dst
        eject_heads = self._eject_heads
        buf_start = self._buf_start
        buf_count = self._buf_count
        blocked = self._blocked_targets
        num_vcs = self._num_vcs
        last_seq = self._last_seq
        per_node: Dict[int, List[int]] = {}
        for index in eject_heads:
            node = buffer_dst[index]
            slots = per_node.get(node)
            if slots is None:
                per_node[node] = [index]
            else:
                slots.append(index)
        local_bandwidth = self._local_bandwidth
        for node, slots in per_node.items():
            slots.sort()
            for index in slots[:local_bandwidth]:
                seq = buf_start[index]
                count = buf_count[index] - 1
                buf_count[index] = count
                blocked.discard(index // num_vcs)  # a slot freed here
                self._in_flight_flits -= 1
                self._ejected_flits_total += 1
                moved += 1
                if seq == last_seq:
                    # the tail leaves: the window is exhausted (count == 0)
                    eject_heads.discard(index)
                    self._owners[index] = None
                    pid = self._buf_pid[index]
                    # the packet is fully delivered; release its per-hop
                    # VC-allocation record (nothing reads it after the tail
                    # ejects, and long runs build millions of packets)
                    self._pkt_alloc[pid] = None
                    if measuring:
                        self._flits_delivered += self._size_flits
                        self._packets_delivered += 1
                        injected = self._pkt_injected[pid]
                        if injected >= self._warmup:
                            latency = self._cycle - injected
                            self._total_latency += latency
                            name = self._flow_names[self._pkt_flow[pid]]
                            self._per_flow_latency[name] = \
                                self._per_flow_latency.get(name, 0.0) + latency
                            self._per_flow_delivered[name] = \
                                self._per_flow_delivered.get(name, 0) + 1
                else:
                    buf_start[index] = seq + 1
                    if not count:
                        eject_heads.discard(index)
        return moved

    # ------------------------------------------------------------------
    def _multi_injection_candidates(self) -> Optional[Dict[int, List[int]]]:
        """Per output channel, the multi-flow nodes' injection contenders.

        All contenders for one output come from one node (the channel's
        source), so per-output order reduces to the node's own rotation and
        node iteration order is immaterial.  Nodes offer up to
        ``local_bandwidth`` of their non-empty flow queues in round-robin
        order, exactly like the reference kernel.  Single-flow nodes never
        reach here — they live in the persistent ``_inj_single`` map.
        """
        inj_cands: Dict[int, List[int]] = {}
        node_rr = self._node_rr
        node_entries = self._node_entries
        first_channel = self._flow_first_channel
        local_bandwidth = self._local_bandwidth
        for node in self._active_multi:
            entries = node_entries[node]
            rr = node_rr[node]
            node_rr[node] = rr + 1
            live = [entry for entry in entries if entry[1]]
            count = len(live)
            start = rr % count
            for offset in range(min(local_bandwidth, count)):
                flow_index = live[(start + offset) % count][0]
                target = first_channel[flow_index]
                entry = inj_cands.get(target)
                if entry is None:
                    inj_cands[target] = [flow_index]
                else:
                    entry.append(flow_index)
        return inj_cands

    # ------------------------------------------------------------------
    def _arbitrate_and_commit(self, multi_cands) -> int:
        """Grant one contender per output, then commit all moves at once.

        Contender order per output replicates the reference kernel: the
        persistent buffer list (ascending flat index) first, then the
        injection contenders.  VC allocation is inlined in the contention
        loop (the combined VA/SA rule): body/tail flits follow the head's
        VC, heads claim a free statically-named or least-occupied allowed
        VC.  The reference kernel's ``scheduled_in`` ledger is provably
        always zero — one grant per output per cycle, disjoint buffer
        ranges per output — and is omitted.
        """
        num_vcs = self._num_vcs
        depth = self._depth
        buf_pid = self._buf_pid
        buf_hop = self._buf_hop
        buf_start = self._buf_start
        buf_count = self._buf_count
        queue_pids = self._queue_pids
        queue_seq = self._queue_seq
        pkt_flow = self._pkt_flow
        pkt_alloc = self._pkt_alloc
        flow_static = self._flow_static
        flow_allowed = self._flow_allowed
        owners = self._owners
        output_rr = self._output_rr
        buf_cands = self._buf_cands
        blocked = self._blocked_targets
        inj_single = self._inj_single
        single_get = inj_single.get
        moves = []

        for target_channel in self._live_targets:
            inj = multi_cands.pop(target_channel, None) if multi_cands \
                else None
            if inj is None:
                single = single_get(target_channel)
                if single is None and target_channel in blocked:
                    # cached all-fail verdict; only the round robin advances
                    output_rr[target_channel] += 1
                    continue
                ninj = 0 if single is None else 1
            else:
                single = None
                ninj = len(inj)
            rr = output_rr[target_channel]
            output_rr[target_channel] = rr + 1
            bufs = buf_cands[target_channel]
            nbuf = len(bufs)
            count = nbuf + ninj
            base = target_channel * num_vcs
            for offset in range(count):
                pos = (rr + offset) % count
                if pos < nbuf:
                    key = bufs[pos]
                    pid = buf_pid[key]
                    hop = buf_hop[key] + 1  # the hop it wants to enter
                    seq = buf_start[key]
                    from_buffer = True
                else:
                    key = single if inj is None else inj[pos - nbuf]
                    pid = queue_pids[key][0]
                    hop = 0
                    seq = queue_seq[key]
                    from_buffer = False
                fidx = pkt_flow[pid]
                if seq:
                    # body/tail flits follow the virtual channel their
                    # head claimed
                    vc = flow_static[fidx][hop]
                    if vc < 0:
                        vc = pkt_alloc[pid][hop]
                        if vc is None:
                            continue  # head has not allocated this hop yet
                    if buf_count[base + vc] >= depth:
                        continue
                else:
                    static = flow_static[fidx][hop]
                    if static >= 0:
                        buffer_index = base + static
                        if owners[buffer_index] is not None or \
                                buf_count[buffer_index] >= depth:
                            continue
                        vc = static
                    else:
                        boundary, pre, post = flow_allowed[fidx]
                        vc_choices = pre if boundary is None or hop < boundary \
                            else post
                        vc = -1
                        best_occupancy = 0
                        for choice in vc_choices:
                            buffer_index = base + choice
                            if owners[buffer_index] is not None:
                                continue
                            occupancy = buf_count[buffer_index]
                            if occupancy >= depth:
                                continue
                            if vc < 0 or occupancy < best_occupancy:
                                vc = choice
                                best_occupancy = occupancy
                        if vc < 0:
                            continue
                moves.append((from_buffer, key, pid, fidx, hop, seq,
                              base + vc, target_channel))
                break  # one flit per physical channel per cycle
            else:
                if ninj == 0:
                    # every buffer contender failed; the verdict holds until
                    # one of this channel's evaluation inputs changes
                    blocked.add(target_channel)

        if inj_single or multi_cands:
            # injection-only targets (no waiting buffer contenders)
            live_targets = self._live_targets
            injection_only = [(target, (single,))
                              for target, single in inj_single.items()
                              if target not in live_targets]
            if multi_cands:
                injection_only.extend(multi_cands.items())
            for target_channel, inj in injection_only:
                rr = output_rr[target_channel]
                output_rr[target_channel] = rr + 1
                count = len(inj)
                base = target_channel * num_vcs
                for offset in range(count):
                    key = inj[(rr + offset) % count]
                    pid = queue_pids[key][0]
                    seq = queue_seq[key]
                    fidx = pkt_flow[pid]
                    if seq:
                        vc = flow_static[fidx][0]
                        if vc < 0:
                            vc = pkt_alloc[pid][0]
                            if vc is None:
                                continue
                        if buf_count[base + vc] >= depth:
                            continue
                    else:
                        static = flow_static[fidx][0]
                        if static >= 0:
                            buffer_index = base + static
                            if owners[buffer_index] is not None or \
                                    buf_count[buffer_index] >= depth:
                                continue
                            vc = static
                        else:
                            boundary, pre, post = flow_allowed[fidx]
                            vc_choices = pre if boundary is None or \
                                0 < boundary else post
                            vc = -1
                            best_occupancy = 0
                            for choice in vc_choices:
                                buffer_index = base + choice
                                if owners[buffer_index] is not None:
                                    continue
                                occupancy = buf_count[buffer_index]
                                if occupancy >= depth:
                                    continue
                                if vc < 0 or occupancy < best_occupancy:
                                    vc = choice
                                    best_occupancy = occupancy
                            if vc < 0:
                                continue
                    moves.append((False, key, pid, fidx, 0, seq,
                                  base + vc, target_channel))
                    break

        # commit all moves simultaneously (the link-traverse stage)
        eject_heads = self._eject_heads
        live_targets = self._live_targets
        flow_last_hop = self._flow_last_hop
        flow_route = self._flow_route
        owners = self._owners
        pkt_alloc = self._pkt_alloc
        last_seq = self._last_seq
        size_flits = self._size_flits
        capacity_threshold = self._capacity - size_flits
        for from_buffer, key, pid, fidx, hop, seq, buffer_index, target \
                in moves:
            blocked.discard(target)  # occupancy of the target's VCs changes
            if from_buffer:
                blocked.discard(key // num_vcs)  # a slot freed upstream
                count = buf_count[key] - 1
                buf_count[key] = count
                if count:
                    # same packet, same hop: the buffer stays a contender
                    # for the same output — no worklist update needed
                    buf_start[key] = seq + 1
                else:
                    bufs = buf_cands[target]
                    bufs.remove(key)
                    if not bufs:
                        live_targets.discard(target)
                    if seq == last_seq:
                        owners[key] = None  # the tail left this buffer
            else:
                pids = queue_pids[key]
                if seq == last_seq:
                    pids.popleft()
                    queue_seq[key] = 0
                    if not pids:
                        if self._flow_is_single[key]:
                            del inj_single[self._flow_first_channel[key]]
                        else:
                            node = self._flow_node[key]
                            live = self._node_live[node] - 1
                            self._node_live[node] = live
                            if not live:
                                self._active_multi.discard(node)
                else:
                    queue_seq[key] = seq + 1
                if self._backlogs[key] and \
                        len(pids) * size_flits - queue_seq[key] \
                        == capacity_threshold:
                    # room for one more packet just appeared
                    self._needs_fill.add(key)
            if not seq:
                # the head flit allocates the VC and claims the buffer
                alloc = pkt_alloc[pid]
                if alloc is not None:
                    alloc[hop] = buffer_index % num_vcs
                owners[buffer_index] = pid
            count = buf_count[buffer_index]
            buf_count[buffer_index] = count + 1
            if not count:
                buf_pid[buffer_index] = pid
                buf_hop[buffer_index] = hop
                buf_start[buffer_index] = seq
                if hop == flow_last_hop[fidx]:
                    eject_heads.add(buffer_index)
                else:
                    nxt = flow_route[fidx][hop + 1]
                    cands = buf_cands[nxt]
                    blocked.discard(nxt)  # contender list changed
                    if cands:
                        insort(cands, buffer_index)
                    else:
                        cands.append(buffer_index)
                        live_targets.add(nxt)
        return len(moves)

    # ------------------------------------------------------------------
    def run(self, max_cycles: Optional[int] = None) -> SimulationStatistics:
        """Run warm-up plus measurement and return the collected statistics."""
        total = max_cycles if max_cycles is not None else self.config.total_cycles
        step = self.step
        for _ in range(total):
            step()
            if self._deadlock_suspected:
                break
        return self.statistics()

    def statistics(self) -> SimulationStatistics:
        return SimulationStatistics(
            cycles=self._cycle,
            warmup_cycles=min(self._warmup, self._cycle),
            packets_injected=self._measured_generated,
            packets_delivered=self._packets_delivered,
            flits_delivered=self._flits_delivered,
            total_latency=self._total_latency,
            per_flow_latency=dict(self._per_flow_latency),
            per_flow_delivered=dict(self._per_flow_delivered),
            dropped_at_source=self._dropped,
            flits_lost_to_faults=self._flits_lost_to_faults,
            packets_lost_to_faults=self._packets_lost_to_faults,
            packets_dropped_faults=self._packets_dropped_faults,
        )

    @property
    def cycle(self) -> int:
        return self._cycle

    @property
    def in_flight_flits(self) -> int:
        return self._in_flight_flits

    @property
    def deadlock_suspected(self) -> bool:
        return self._deadlock_suspected

    # ------------------------------------------------------------------
    def flit_audit(self) -> Dict[str, int]:
        """Conservation ledger, same bins as the reference kernel's."""
        size_flits = self._size_flits
        flits_in_network = sum(self._buf_count)
        flits_in_source_queues = sum(
            len(pids) * size_flits - self._queue_seq[index]
            for index, pids in enumerate(self._queue_pids) if pids
        )
        return {
            "cycle": self._cycle,
            "packets_generated": self._packets_generated,
            "packets_built": self._next_packet_id,
            "packets_in_backlog": sum(len(backlog)
                                      for backlog in self._backlogs),
            "packets_dropped": self._dropped,
            "flits_built": self._next_packet_id * size_flits,
            "flits_ejected": self._ejected_flits_total,
            "flits_in_network": flits_in_network,
            "flits_in_source_queues": flits_in_source_queues,
            "in_flight_flits": self._in_flight_flits,
            "flits_lost_to_faults": self._flits_lost_to_faults,
            "packets_lost_to_faults": self._packets_lost_to_faults,
            "packets_dropped_faults": self._packets_dropped_faults,
        }

    def conservation_violations(self) -> List[str]:
        """Human-readable list of broken conservation invariants (empty = ok)."""
        from .stages import audit_violations

        return audit_violations(self.flit_audit())

    def occupancy_snapshot(self) -> Dict[str, int]:
        """Flits buffered per channel label (debugging / test aid)."""
        snapshot: Dict[str, int] = {}
        num_vcs = self._num_vcs
        buf_count = self._buf_count
        for cid, channel in enumerate(self._channels):
            base = cid * num_vcs
            count = sum(buf_count[base + vc] for vc in range(num_vcs))
            if count:
                snapshot[self.topology.channel_label(channel)] = count
        return snapshot
