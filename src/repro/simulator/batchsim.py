"""The vectorized ``batch`` simulator kernel: many sweep points at once.

A figure sweep or saturation search simulates dozens of points that differ
only in offered rate, virtual-channel count or seed while sharing one
(topology, route set) pair.  The scalar kernels step one simulator per
point in pure Python; this kernel steps **all of them together** over numpy
arrays — one structure-of-arrays state tensor with a leading *lane* (point)
axis, with the inject / eject / VC-allocate / switch-arbitrate /
link-traverse stages re-expressed as per-cycle array kernels.

The state layout
----------------

All per-(lane, channel, VC) quantities live in one flat ragged *arena*:
lane ``l`` with ``V_l`` virtual channels owns the contiguous slot range
``lane_base[l] + channel * V_l + vc``, so lanes of different VC counts pack
without padding and a buffer's identity is again a single integer — the
same wormhole-window encoding as the ``fast`` kernel (packet id, hop,
window start, flit count per buffer), just with the batch axis folded into
the index.  Per-cycle work is driven by two vectorized scans (ejection-ready
buffers and waiting contenders); everything downstream — per-node ejection
bandwidth, per-output round-robin arbitration with inlined VC allocation,
the simultaneous commit — runs as grouped segment operations
(``argsort`` / ``reduceat`` / ``bincount``) over only the *active* buffers
of all lanes at once.

Bit-identity with the scalar kernels rests on the same proofs the ``fast``
kernel documents (contender order, round-robin evolution, commit
order-independence) plus one more: for plain Bernoulli injection the
per-cycle random draws are bulk-precomputed by transplanting the Python
``random.Random`` Mersenne-Twister state into ``numpy.random.RandomState``
— both generate doubles from the same MT19937 words, so the vectorized
stream is bit-for-bit the scalar stream.  Modulated injection processes
keep drawing through the shared scalar path.

Faults are masked per lane: a :class:`~repro.faults.FailureSchedule` kills
flows lane-locally (fail-stop with flit loss, as the scalar kernels), and a
lane whose watchdog trips is *frozen* — removed from every scan while the
other lanes keep simulating — so one wedged point cannot distort its batch
mates.

numpy is an **optional dependency**: importing this module without it
leaves the backend registered but every construction raises an actionable
:class:`~repro.exceptions.SimulationError` (see :data:`NUMPY_HELP`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import SimulationError
from ..metrics.statistics import SimulationStatistics
from ..routing.base import RouteSet
from ..topology.base import Topology
from .config import LANE_VARIABLE_FIELDS, SimulationConfig
from .injection import BernoulliInjection, InjectionProcess
from .state import compile_fault_events, compile_routes, vc_partitions

try:  # numpy is optional; the registry entry must import without it
    import numpy as np
except ImportError:  # pragma: no cover - exercised via _require_numpy tests
    np = None

#: The actionable no-numpy message (golden-tested; keep it stable).
NUMPY_HELP = (
    "the 'batch' simulator backend requires numpy, which is not installed "
    "in this environment; install it (pip install numpy) or select a pure-"
    "python kernel instead (--backend fast or --backend reference)"
)

#: The most virtual channels one lane can have (one VC bitmask per buffer).
MAX_LANE_VCS = 32

#: Bernoulli arrivals are pre-drawn in blocks of this many cycles per lane.
_CHUNK = 1024

#: Sentinel larger than any round-robin priority or VC-selection key.
_BIG = 1 << 40


def _require_numpy():
    if np is None:
        raise SimulationError(NUMPY_HELP)
    return np


def _uniform_config_check(configs: Sequence[SimulationConfig]) -> None:
    """Reject batches whose lanes disagree on a shared-pipeline field."""
    first = asdict(configs[0])
    for lane, config in enumerate(configs[1:], start=1):
        other = asdict(config)
        diffs = sorted(
            field for field in first
            if field not in LANE_VARIABLE_FIELDS
            and first[field] != other[field]
        )
        if diffs:
            raise SimulationError(
                f"batch lane {lane} differs from lane 0 in uniform "
                f"configuration field(s) {', '.join(diffs)}; only "
                f"{', '.join(sorted(LANE_VARIABLE_FIELDS))} may vary "
                f"between the lanes of one batch"
            )


class BatchSimulator:
    """Lane-batched numpy kernel (the ``batch`` backend).

    Constructed through the registry it is a one-lane drop-in with the
    standard backend contract; :meth:`for_lanes` builds a multi-point batch
    sharing one (topology, route set) pair where each lane carries its own
    configuration (VC count and seed may vary), injection process and
    optional fault schedule.
    """

    def __init__(self, topology: Topology, route_set: RouteSet,
                 config: SimulationConfig, injection: InjectionProcess,
                 phase_boundaries: Optional[Dict[str, int]] = None,
                 fault_schedule=None) -> None:
        self._init_lanes(topology, route_set, [config], [injection],
                         phase_boundaries, [fault_schedule])

    @classmethod
    def for_lanes(cls, topology: Topology, route_set: RouteSet,
                  configs: Sequence[SimulationConfig],
                  injections: Sequence[InjectionProcess],
                  phase_boundaries: Optional[Dict[str, int]] = None,
                  fault_schedules: Optional[Sequence] = None,
                  ) -> "BatchSimulator":
        """A multi-lane batch: one simulated point per (config, injection)."""
        if len(configs) != len(injections) or not configs:
            raise SimulationError(
                f"batch needs one injection process per configuration, got "
                f"{len(configs)} configuration(s) and {len(injections)} "
                f"process(es)"
            )
        if fault_schedules is None:
            fault_schedules = [None] * len(configs)
        elif len(fault_schedules) != len(configs):
            raise SimulationError(
                f"batch needs one fault schedule (or None) per lane, got "
                f"{len(fault_schedules)} for {len(configs)} lane(s)"
            )
        self = cls.__new__(cls)
        self._init_lanes(topology, route_set, list(configs),
                         list(injections), phase_boundaries,
                         list(fault_schedules))
        return self

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _init_lanes(self, topology, route_set, configs, injections,
                    phase_boundaries, fault_schedules) -> None:
        _require_numpy()
        _uniform_config_check(configs)
        self.topology = topology
        self.route_set = route_set
        self.config = configs[0]
        self.configs = configs
        self.injection = injections[0]
        self.injections = injections
        self.phase_boundaries = phase_boundaries or {}

        L = len(configs)
        self._L = L
        self._channels = list(topology.channels)
        channel_index = {channel: index
                         for index, channel in enumerate(self._channels)}
        C = len(self._channels)
        self._C = C

        for lane, config in enumerate(configs):
            if config.num_vcs > MAX_LANE_VCS:
                raise SimulationError(
                    f"batch lane {lane} asks for {config.num_vcs} virtual "
                    f"channels; the batch backend's VC bitmasks support at "
                    f"most {MAX_LANE_VCS} (use the fast or reference "
                    f"backend)"
                )

        # per-lane route compilation (validates static VCs against each
        # lane's own VC count); identical channel ids across lanes
        compiled_by_vcs: Dict[int, Dict] = {}
        for config in configs:
            if config.num_vcs not in compiled_by_vcs:
                compiled_by_vcs[config.num_vcs] = compile_routes(
                    route_set, channel_index, config.num_vcs)
        compiled = compiled_by_vcs[max(compiled_by_vcs)]

        cfg = configs[0]
        self._warmup = cfg.warmup_cycles
        self._total_cycles = cfg.total_cycles
        self._depth = cfg.buffer_depth
        self._local_bandwidth = cfg.local_bandwidth
        self._size = cfg.packet_size_flits
        self._last_seq = cfg.packet_size_flits - 1
        self._capacity = cfg.injection_buffer_depth
        self._drop = cfg.drop_when_source_full
        self._dl_threshold = 4 * cfg.buffer_depth * 8

        # ---------------- per-flow compiled tables ----------------
        flows = list(route_set.flow_set)
        F = len(flows)
        self._F = F
        self._flow_names = [flow.name for flow in flows]
        routes = [compiled.get(flow.name) for flow in flows]
        H = max((len(route[0]) for route in routes if route), default=1)
        self._H = H
        route_flat = np.full(F * H, -1, dtype=np.int64)
        static_flat = np.full(F * H, -1, dtype=np.int64)
        last_hop = np.full(F, -1, dtype=np.int64)
        first_channel = np.full(F, -1, dtype=np.int64)
        for index, route in enumerate(routes):
            if route is None:
                continue
            channel_ids, static_vcs = route
            hops = len(channel_ids)
            route_flat[index * H:index * H + hops] = channel_ids
            static_flat[index * H:index * H + hops] = [
                -1 if vc is None else vc for vc in static_vcs]
            last_hop[index] = hops - 1
            first_channel[index] = channel_ids[0]
        self._route_flat = route_flat
        self._static_flat = static_flat
        self._last_hop = last_hop
        self._first_channel = first_channel
        self._has_route = last_hop >= 0
        self._flow_node = [flow.source for flow in flows]

        grouped: Dict[int, List[Tuple[str, int]]] = {}
        for index, flow in enumerate(flows):
            grouped.setdefault(flow.source, []).append((flow.name, index))
        self._flow_single = np.array(
            [len(grouped[flow.source]) == 1 for flow in flows], dtype=bool)
        # multi-flow nodes keep the reference kernel's per-cycle rotation,
        # handled scalar per lane (they are rare in practice)
        self._node_entries: Dict[int, List[int]] = {
            node: [index for _, index in sorted(entries)]
            for node, entries in grouped.items() if len(entries) > 1
        }
        self._node_live = [dict.fromkeys(self._node_entries, 0)
                           for _ in range(L)]
        self._node_rr = [dict.fromkeys(topology.nodes, 0) for _ in range(L)]
        self._active_multi: List[set] = [set() for _ in range(L)]

        # per-(lane, flow) dynamic-VC partitions as bitmasks; hops before
        # the boundary draw from the pre mask, at/after it from post
        self._am_bound = np.full((L, F), _BIG, dtype=np.int64)
        self._am_pre = np.zeros((L, F), dtype=np.int64)
        self._am_post = np.zeros((L, F), dtype=np.int64)
        for lane, config in enumerate(configs):
            allowed = vc_partitions(self._flow_names, self.phase_boundaries,
                                    config.num_vcs)
            for index, name in enumerate(self._flow_names):
                boundary, pre, post = allowed[name]
                if boundary is not None:
                    self._am_bound[lane, index] = boundary
                self._am_pre[lane, index] = sum(1 << vc for vc in pre)
                self._am_post[lane, index] = sum(1 << vc for vc in post)

        # ---------------- the ragged buffer arena ----------------
        vcs = np.array([config.num_vcs for config in configs],
                       dtype=np.int64)
        self._vcs = vcs
        self._vmax = int(vcs.max())
        lane_sizes = vcs * C
        lane_base = np.concatenate(([0], np.cumsum(lane_sizes)[:-1]))
        self._lane_base = lane_base
        TB = int(lane_sizes.sum())
        self._TB = TB
        # flat arena index of (lane, channel, vc=0), indexed by lane*C+chan
        self._chan_base = (lane_base[:, None]
                           + np.arange(C, dtype=np.int64) * vcs[:, None]
                           ).reshape(L * C)
        arena_lane = np.repeat(np.arange(L, dtype=np.int64), lane_sizes)
        arena_channel = np.concatenate([
            np.repeat(np.arange(C, dtype=np.int64), int(vcs[lane]))
            for lane in range(L)
        ])
        self._arena_lane = arena_lane
        nodes = sorted(topology.nodes)
        node_index = {node: position for position, node in enumerate(nodes)}
        dst_of_channel = np.array(
            [node_index[channel.dst] for channel in self._channels],
            dtype=np.int64)
        # per-slot (lane, destination node) group key for ejection bandwidth
        self._arena_dstg = (arena_lane * len(nodes)
                            + dst_of_channel[arena_channel])

        # wormhole windows: one packet's contiguous flit train per buffer
        self._b_pid = np.zeros(TB, dtype=np.int64)
        self._b_hop = np.zeros(TB, dtype=np.int64)
        self._b_start = np.zeros(TB, dtype=np.int64)
        self._b_count = np.zeros(TB, dtype=np.int64)
        self._b_owner = np.full(TB, -1, dtype=np.int64)
        #: flat (lane * C + channel) output the window's head wants next
        #: (-1: empty or ejection-ready) — the vectorized contender worklist
        self._b_target = np.full(TB, -1, dtype=np.int64)
        #: window sits at its final hop (ejection-ready)
        self._b_eject = np.zeros(TB, dtype=bool)
        #: cached arena slot the window's flits enter next (-1: a dynamic
        #: head that picks its VC fresh each arbitration).  A window's
        #: wanted slot only changes at window events — create, or its head
        #: flit advancing — so caching it collapses the per-cycle
        #: eligibility test to one occupancy gather
        self._b_want = np.full(TB, -1, dtype=np.int64)
        #: cached head-flit flag (window starts at sequence 0)
        self._b_head = np.zeros(TB, dtype=bool)
        #: cached allowed-VC bitmask for dynamic-head windows (their flow,
        #: hop and phase never change while the window exists)
        self._b_dmask = np.zeros(TB, dtype=np.int64)
        self._scratch_tb = np.zeros(TB, dtype=bool)

        # hot-loop precomputation: reusable index ramps, the narrowest
        # dtype the radix sorts can key on, and whether any route pins a
        # static VC at all (if none does, every head is dynamic and the
        # owner checks of the eligibility rules vanish)
        self._sort_dtype = np.int16 if L * C < 2 ** 15 else np.int32
        self._dstg_dtype = (np.int16 if L * len(nodes) < 2 ** 15
                            else np.int32)
        self._iota = np.arange(TB + L * C + 64, dtype=np.int64)
        self._vc_col = np.arange(self._vmax, dtype=np.int64)[:, None]
        self._svc0 = static_flat.reshape(F, H)[:, 0].copy()
        self._has_static = bool((static_flat >= 0).any())
        # allowed-VC mask at hop 0, per (lane, flow) — injection heads
        self._am0_flat = np.where(self._am_bound > 0, self._am_pre,
                                  self._am_post).reshape(-1)

        # per-(lane, channel): round robin and the single-flow injection
        # map (flow index contending, or -1)
        self._output_rr = np.zeros(L * C, dtype=np.int64)
        self._inj_single = np.full(L * C, -1, dtype=np.int64)

        # source-side state: bounded per-(lane, flow) queues as ring
        # buffers of packet ids plus the head packet's next sequence
        self._qcap = self._capacity // self._size + 1
        self._q_len = np.zeros((L, F), dtype=np.int64)
        self._q_seq = np.zeros((L, F), dtype=np.int64)
        self._q_head = np.zeros((L, F), dtype=np.int64)
        self._q_pids = np.zeros((L, F, self._qcap), dtype=np.int64)
        self._q_len_flat = self._q_len.reshape(-1)
        self._q_seq_flat = self._q_seq.reshape(-1)
        self._q_head_flat = self._q_head.reshape(-1)
        self._q_pids_flat = self._q_pids.reshape(-1)
        # backlog deques and the fill worklist are keyed by the flat
        # ``lane * F + flow`` integer (sorting ints is the (lane, flow)
        # lexicographic order the packet-id sequence depends on)
        self._backlogs: List[deque] = [deque() for _ in range(L * F)]
        self._needs_fill: set = set()

        # per-packet records, grown geometrically
        self._pcap = 1024
        self._pk_flow = np.zeros((L, self._pcap), dtype=np.int64)
        self._pk_inj = np.zeros((L, self._pcap), dtype=np.int64)
        self._pk_alloc = np.full((L, self._pcap, H), -1, dtype=np.int16)
        self._refresh_packet_views()
        self._next_pid = [0] * L

        # scheduled mid-run faults, compiled per lane
        self._fault_events = [
            compile_fault_events(schedule, channel_index)
            for schedule in fault_schedules
        ]
        self._fault_ptr = [0] * L
        self._dead = np.zeros((L, F), dtype=bool)
        self._dead_any = [False] * L

        # per-lane progress and statistics counters
        self._t = 0
        self._cycle_arr = np.zeros(L, dtype=np.int64)
        self._active = np.ones(L, dtype=bool)
        self._moved = np.zeros(L, dtype=np.int64)
        self._idle = np.zeros(L, dtype=np.int64)
        self._dl = np.zeros(L, dtype=bool)
        self._in_flight = np.zeros(L, dtype=np.int64)
        self._packets_generated = [0] * L
        self._measured_generated = [0] * L
        self._packets_delivered = np.zeros(L, dtype=np.int64)
        self._flits_delivered = np.zeros(L, dtype=np.int64)
        self._total_latency = np.zeros(L, dtype=np.float64)
        self._flow_lat = np.zeros((L, F), dtype=np.float64)
        self._flow_cnt = np.zeros((L, F), dtype=np.int64)
        self._dropped = [0] * L
        self._ejected_total = np.zeros(L, dtype=np.int64)
        self._flits_lost = [0] * L
        self._pkts_lost = [0] * L
        self._pkts_dropped_faults = [0] * L

        self._init_injection_plans()

    # ------------------------------------------------------------------
    # injection arrivals: vectorized Bernoulli pre-draws per lane
    # ------------------------------------------------------------------
    def _init_injection_plans(self) -> None:
        """Decide, per lane, how arrival counts are produced each cycle.

        Plain :class:`BernoulliInjection` processes aligned with the route
        set's flow order pre-draw whole chunks of cycles at once: the
        Python ``random.Random`` MT19937 state is transplanted into a
        ``numpy.random.RandomState`` (both turn the same 624 key words into
        the same 53-bit doubles), so the bulk stream is bit-for-bit the
        stream the scalar kernels consume.  Any other process (the
        modulated one) draws through the scalar ``injection_events`` path,
        one cycle at a time.
        """
        self._plans = []
        for lane, injection in enumerate(self.injections):
            aligned = ([flow.name for flow in injection.flow_set]
                       == self._flow_names)
            if aligned and type(injection) is BernoulliInjection:
                # read the process's own precomputed (whole, fraction)
                # schedule so the threshold floats are the exact values the
                # scalar kernels compare against
                whole = np.zeros(self._F, dtype=np.int64)
                fractions = []
                frac_idx = []
                for index, (whole_part, fraction) in \
                        enumerate(injection._schedule):
                    whole[index] = whole_part
                    if fraction > 0:
                        frac_idx.append(index)
                        fractions.append(fraction)
                state = injection._rng.getstate()
                rng = np.random.RandomState()
                rng.set_state(("MT19937",
                               np.array(state[1][:-1], dtype=np.uint32),
                               state[1][-1]))
                self._plans.append({
                    "kind": "bernoulli", "rng": rng, "whole": whole,
                    "frac_idx": np.array(frac_idx, dtype=np.int64),
                    "frac": np.array(fractions, dtype=np.float64),
                    "next_chunk": 0, "rows": None, "cols": None,
                    "vals": None, "ptr": 0,
                })
            else:
                self._plans.append({"kind": "scalar", "aligned": aligned})

    def _bernoulli_chunk(self, plan) -> None:
        """Pre-draw the next ``_CHUNK`` cycles of one lane's arrivals."""
        nf = plan["frac_idx"].size
        counts = np.broadcast_to(plan["whole"],
                                 (_CHUNK, self._F)).copy()
        if nf:
            draws = plan["rng"].random_sample(_CHUNK * nf)
            hits = draws.reshape(_CHUNK, nf) < plan["frac"]
            counts[:, plan["frac_idx"]] += hits
        rows, cols = counts.nonzero()
        # the per-cycle walk happens in plain Python (a handful of events a
        # cycle), so hand it lists rather than numpy scalars; the per-cycle
        # totals let the arrival counters update once per cycle, not per event
        plan["rows"] = rows.tolist()
        plan["cols"] = cols.tolist()
        plan["vals"] = counts[rows, cols].tolist()
        plan["totals"] = counts.sum(axis=1).tolist()
        plan["ptr"] = 0
        plan["next_chunk"] += _CHUNK

    def _arrival_events(self, lane: int, cycle: int):
        """``(flow index, count)`` pairs for one lane, in flow order."""
        plan = self._plans[lane]
        if plan["kind"] == "bernoulli":
            if cycle >= plan["next_chunk"]:
                self._bernoulli_chunk(plan)
            offset = cycle - (plan["next_chunk"] - _CHUNK)
            rows = plan["rows"]
            ptr = plan["ptr"]
            # cycles are consumed in order, so ptr already sits at the first
            # event of this cycle (if any)
            end = ptr
            limit = len(rows)
            while end < limit and rows[end] == offset:
                end += 1
            if end == ptr:
                return ()
            plan["ptr"] = end
            return zip(plan["cols"][ptr:end], plan["vals"][ptr:end])
        injection = self.injections[lane]
        if plan["aligned"]:
            return injection.injection_events(cycle)
        return [
            (index, injection.packets_to_inject(flow, cycle))
            for index, flow in enumerate(self.route_set.flow_set)
        ]

    def _refresh_packet_views(self) -> None:
        self._pk_flow_flat = self._pk_flow.reshape(-1)
        self._pk_inj_flat = self._pk_inj.reshape(-1)
        self._pk_alloc_flat = self._pk_alloc.reshape(-1)

    def _grow_packets(self) -> None:
        grown = self._pcap
        self._pk_flow = np.concatenate(
            [self._pk_flow, np.zeros((self._L, grown), dtype=np.int64)],
            axis=1)
        self._pk_inj = np.concatenate(
            [self._pk_inj, np.zeros((self._L, grown), dtype=np.int64)],
            axis=1)
        self._pk_alloc = np.concatenate(
            [self._pk_alloc,
             np.full((self._L, grown, self._H), -1, dtype=np.int16)],
            axis=1)
        self._pcap *= 2
        self._refresh_packet_views()

    def _fill(self) -> None:
        """Build packets for every (lane, flow) with backlog and queue room.

        The worklist and the fill rule are the fast kernel's, per lane; the
        per-lane packet-id sequence depends on visiting a lane's flows in
        ascending index order, which the (lane, flow) sort preserves.
        """
        capacity = self._capacity
        size = self._size
        qcap = self._qcap
        F = self._F
        backlogs = self._backlogs
        keys = sorted(self._needs_fill)
        self._needs_fill.clear()
        n = len(keys)
        qi = np.fromiter(keys, np.int64, n)
        fa = qi % F
        if not self._has_route[fa].all():
            for key in keys:
                if not self._has_route[key % F]:
                    raise SimulationError(
                        f"flow {self._flow_names[key % F]} has traffic to "
                        f"inject but no route"
                    )
        la = qi // F
        qlen = self._q_len_flat[qi]
        blen = np.fromiter((len(backlogs[key]) for key in keys),
                           np.int64, n)
        build = np.minimum(
            blen, (capacity - (qlen * size - self._q_seq_flat[qi])) // size)
        self._q_len_flat[qi] = qlen + build
        np.add.at(self._in_flight, la, build * size)
        build_l = build.tolist()
        qlen_l = qlen.tolist()
        qhead_l = self._q_head_flat[qi].tolist()
        q_pids = self._q_pids_flat
        drop = self._drop
        for k, key in enumerate(keys):
            count = build_l[k]
            qlen_k = qlen_l[k]
            backlog = backlogs[key]
            lane = key // F
            index = key - lane * F
            if count > 0:
                pid = self._next_pid[lane]
                while pid + count > self._pcap:
                    self._grow_packets()
                self._next_pid[lane] = pid + count
                ring = key * qcap
                offset = qhead_l[k] + qlen_k
                if count == 1:
                    self._pk_flow_flat[lane * self._pcap + pid] = index
                    self._pk_inj_flat[lane * self._pcap + pid] = \
                        backlog.popleft()
                    q_pids[ring + offset % qcap] = pid
                else:
                    self._pk_flow[lane, pid:pid + count] = index
                    if count == len(backlog):
                        stamps = list(backlog)
                        backlog.clear()
                    else:
                        stamps = [backlog.popleft() for _ in range(count)]
                    self._pk_inj[lane, pid:pid + count] = stamps
                    for i in range(count):
                        q_pids[ring + (offset + i) % qcap] = pid + i
            if drop and backlog:
                self._dropped[lane] += len(backlog)
                backlog.clear()
            if qlen_k == 0 and count:
                if self._flow_single[index]:
                    target = self._first_channel[index]
                    self._inj_single[lane * self._C + target] = index
                else:
                    node = self._flow_node[index]
                    live = self._node_live[lane][node] + 1
                    self._node_live[lane][node] = live
                    if live == 1:
                        self._active_multi[lane].add(node)

    # ------------------------------------------------------------------
    # faults and lane freezing
    # ------------------------------------------------------------------
    def _apply_fault_events(self, lane: int) -> None:
        events = self._fault_events[lane]
        cycle = self._t
        while self._fault_ptr[lane] < len(events) and \
                events[self._fault_ptr[lane]][0] <= cycle:
            self._kill_flows_using(lane, events[self._fault_ptr[lane]][1])
            self._fault_ptr[lane] += 1

    def _kill_flows_using(self, lane: int, failed_ids: frozenset) -> None:
        """Lane-local fail-stop kill; one lane's fault never touches another."""
        route_mat = self._route_flat.reshape(self._F, self._H)
        uses = (np.isin(route_mat, list(failed_ids)).any(axis=1)
                & self._has_route & ~self._dead[lane])
        newly = np.flatnonzero(uses)
        if newly.size == 0:
            return
        size = self._size
        C = self._C
        qcap = self._qcap
        killed: set = set()
        for index in newly.tolist():
            self._dead[lane, index] = True
            self._needs_fill.discard(lane * self._F + index)
            backlog = self._backlogs[lane * self._F + index]
            if backlog:
                self._pkts_dropped_faults[lane] += len(backlog)
                backlog.clear()
            qlen = int(self._q_len[lane, index])
            if qlen:
                flits = qlen * size - int(self._q_seq[lane, index])
                self._flits_lost[lane] += flits
                self._in_flight[lane] -= flits
                head = int(self._q_head[lane, index])
                killed.update(
                    int(self._q_pids[lane, index, (head + slot) % qcap])
                    for slot in range(qlen))
                self._q_len[lane, index] = 0
                self._q_seq[lane, index] = 0
                if self._flow_single[index]:
                    self._inj_single[
                        lane * C + self._first_channel[index]] = -1
                else:
                    node = self._flow_node[index]
                    live = self._node_live[lane][node] - 1
                    self._node_live[lane][node] = live
                    if not live:
                        self._active_multi[lane].discard(node)
        self._dead_any[lane] = True
        # purge this lane's network buffers holding a dead flow's window
        span = slice(int(self._lane_base[lane]),
                     int(self._lane_base[lane]) + C * int(self._vcs[lane]))
        counts = self._b_count[span]
        kill = (counts > 0) & np.isin(
            self._pk_flow[lane, self._b_pid[span]], newly)
        lost = int(counts[kill].sum())
        if lost:
            self._flits_lost[lane] += lost
            self._in_flight[lane] -= lost
            killed.update(self._b_pid[span][kill].tolist())
            counts[kill] = 0
            self._b_target[span][kill] = -1
            self._b_eject[span][kill] = False
        if killed:
            owners = self._b_owner[span]
            owners[np.isin(owners, list(killed))] = -1
        self._pkts_lost[lane] += len(killed)

    def _freeze(self, lanes) -> None:
        """Remove deadlocked lanes from every scan, keeping their ledgers.

        Buffer counts, queues and statistics stay untouched — audits,
        occupancy snapshots and statistics remain valid at the deadlock
        cycle — but the contender/ejection/injection worklist state is
        cleared so a wedged lane costs nothing while its batch mates run on.
        Only :meth:`run` freezes; manual stepping keeps every lane live,
        matching the scalar kernels stepped past a deadlock verdict.
        """
        C = self._C
        for lane in lanes.tolist():
            self._active[lane] = False
            span = slice(int(self._lane_base[lane]),
                         int(self._lane_base[lane]) + C * int(self._vcs[lane]))
            self._b_target[span] = -1
            self._b_eject[span] = False
            self._inj_single[lane * C:(lane + 1) * C] = -1
            self._needs_fill = {
                key for key in self._needs_fill if key // self._F != lane}
            self._active_multi[lane].clear()

    # ------------------------------------------------------------------
    # the per-cycle stages
    # ------------------------------------------------------------------
    def step(self) -> int:
        """Advance every live lane one cycle; returns total flits moved."""
        t = self._t
        self._moved[:] = 0

        # -------- scheduled link failures (fail-stop, per lane) --------
        for lane in range(self._L):
            if self._active[lane] and self._fault_events[lane] and \
                    self._fault_ptr[lane] < len(self._fault_events[lane]) \
                    and self._fault_events[lane][self._fault_ptr[lane]][0] \
                    <= t:
                self._apply_fault_events(lane)

        # -------- inject: draw arrivals, fill source queues --------
        measured = t >= self._warmup
        F = self._F
        backlogs = self._backlogs
        needs_fill = self._needs_fill
        for lane in range(self._L):
            if not self._active[lane]:
                continue
            plan = self._plans[lane]
            if plan["kind"] == "bernoulli" and not self._dead_any[lane]:
                # inlined hot path: counters from the chunk's per-cycle
                # totals, then a plain walk over this cycle's events
                if t >= plan["next_chunk"]:
                    self._bernoulli_chunk(plan)
                offset = t - (plan["next_chunk"] - _CHUNK)
                total = plan["totals"][offset]
                if not total:
                    continue
                self._packets_generated[lane] += total
                if measured:
                    self._measured_generated[lane] += total
                rows = plan["rows"]
                end = ptr = plan["ptr"]
                limit = len(rows)
                while end < limit and rows[end] == offset:
                    end += 1
                plan["ptr"] = end
                cols = plan["cols"]
                vals = plan["vals"]
                laneF = lane * F
                for j in range(ptr, end):
                    key = laneF + cols[j]
                    count = vals[j]
                    if count == 1:
                        backlogs[key].append(t)
                    else:
                        backlogs[key].extend([t] * count)
                    needs_fill.add(key)
                continue
            for index, count in self._arrival_events(lane, t):
                if not count:
                    continue
                self._packets_generated[lane] += count
                if measured:
                    self._measured_generated[lane] += count
                if self._dead_any[lane] and self._dead[lane, index]:
                    self._pkts_dropped_faults[lane] += count
                    continue
                backlogs[lane * F + index].extend([t] * count)
                needs_fill.add(lane * F + index)
        if needs_fill:
            self._fill()

        # -------- eject --------
        if self._b_eject.any():
            self._eject(measured)

        # -------- arbitrate + commit --------
        self._arbitrate_and_commit()

        # -------- deadlock watchdog, per lane --------
        act = self._active
        stuck = act & (self._moved == 0) & (self._in_flight > 0)
        self._idle = np.where(stuck, self._idle + 1,
                              np.where(act, 0, self._idle))
        self._dl |= act & (self._idle > self._dl_threshold)
        self._cycle_arr += act
        self._t = t + 1
        return int(self._moved.sum())

    def _eject(self, measured: bool) -> None:
        """Consume flits at their final hop, ``local_bandwidth`` per node."""
        ready = np.flatnonzero(self._b_eject)
        groups = self._arena_dstg[ready]
        if np.bincount(groups).max() <= self._local_bandwidth:
            # no (lane, node) oversubscribes its ejection port: every ready
            # buffer drains, no group sort needed
            sel = ready
        else:
            # ready is ascending in flat index, so a stable group sort
            # yields each (lane, node)'s buffers in ascending index — the
            # scalar scan
            order = np.argsort(groups.astype(self._dstg_dtype),
                               kind="stable")
            ready = ready[order]
            groups = groups[order]
            starts = np.flatnonzero(
                np.concatenate(([True], groups[1:] != groups[:-1])))
            sizes = np.diff(np.concatenate((starts, [groups.size])))
            ranks = self._iota[:groups.size] - np.repeat(starts, sizes)
            sel = ready[ranks < self._local_bandwidth]
        if sel.size == 0:
            return
        seq = self._b_start[sel]
        self._b_count[sel] -= 1
        lanes = self._arena_lane[sel]
        per_lane = np.bincount(lanes, minlength=self._L)
        self._in_flight -= per_lane
        self._ejected_total += per_lane
        self._moved += per_lane
        tail = seq == self._last_seq
        tsel = sel[tail]
        if tsel.size:
            # the tail leaves: window exhausted, buffer released
            self._b_eject[tsel] = False
            self._b_owner[tsel] = -1
            if measured:
                tlane = lanes[tail]
                pids = self._b_pid[tsel]
                done = np.bincount(tlane, minlength=self._L)
                self._packets_delivered += done
                self._flits_delivered += done * self._size
                injected = self._pk_inj_flat[tlane * self._pcap + pids]
                qual = injected >= self._warmup
                if qual.any():
                    latency = (self._t - injected[qual]).astype(np.float64)
                    qlane = tlane[qual]
                    self._total_latency += np.bincount(
                        qlane, weights=latency, minlength=self._L)
                    qflow = self._pk_flow_flat[
                        qlane * self._pcap + pids[qual]]
                    np.add.at(self._flow_lat, (qlane, qflow), latency)
                    np.add.at(self._flow_cnt, (qlane, qflow), 1)
        body = sel[~tail]
        if body.size:
            self._b_start[body] = seq[~tail] + 1
            drained = body[self._b_count[body] == 0]
            self._b_eject[drained] = False

    def _collect_multi(self):
        """Injection contenders of multi-flow nodes, scalar per lane.

        Rare path (application workloads placing several flows on one
        node); mirrors the fast kernel's per-node rotation exactly, emitting
        per-lane (output, flow) pairs in offer order.
        """
        lcs: List[int] = []
        flows: List[int] = []
        C = self._C
        bandwidth = self._local_bandwidth
        for lane in range(self._L):
            actives = self._active_multi[lane]
            if not actives:
                continue
            rrs = self._node_rr[lane]
            q_len = self._q_len[lane]
            for node in sorted(actives):
                entries = self._node_entries[node]
                rr = rrs[node]
                rrs[node] = rr + 1
                live = [index for index in entries if q_len[index] > 0]
                count = len(live)
                start = rr % count
                for offset in range(min(bandwidth, count)):
                    index = live[(start + offset) % count]
                    lcs.append(lane * C + self._first_channel[index])
                    flows.append(index)
        return lcs, flows

    def _dynamic_vc(self, mask, base):
        """Least-occupied free allowed VC per head, lowest index on ties.

        *mask* is each head's allowed-VC bitmask, *base* the arena index of
        its target channel's VC 0; the returned ``(vc, ok)`` replicate the
        scalar kernels' first-minimum scan.  The candidate matrix is laid
        out (vc, head) so the reduction runs along the fast axis, and the
        winning VC is recovered from the packed score itself (its low
        digit *is* the lowest-index minimum — no argmin pass); where
        nothing is usable the decoded digit is garbage but ``ok`` is False
        and an ineligible contender's VC is never read.
        """
        choices = self._vc_col
        slots = np.minimum(base + choices, self._TB - 1)
        occupancy = self._b_count[slots]
        usable = (((mask >> choices) & 1) > 0) \
            & (self._b_owner[slots] < 0) & (occupancy < self._depth)
        score = np.where(usable, occupancy * self._vmax + choices, _BIG)
        best = score.min(axis=0)
        return best % self._vmax, best < _BIG

    def _arbitrate_and_commit(self) -> None:
        """One grant per (lane, output channel); simultaneous commit.

        All lanes' contenders are arbitrated in one pass: every waiting
        buffer (``b_target >= 0``) and injection offer is tagged with its
        (lane, output) group, a stable sort clusters the groups with buffer
        contenders ahead of injection offers in ascending-index order — the
        scalar contender order — and the per-group winner is the eligible
        contender closest after the group's round-robin pointer.  Commit
        order independence is the fast kernel's proof; the only vector
        subtlety is reading each target's pre-commit occupancy and whether
        its own source also sent a flit (``old - dec == 0`` marks a window
        create) before mutating the counts.
        """
        C = self._C
        depth = self._depth
        wait = np.flatnonzero(self._b_target >= 0)
        singles = np.flatnonzero(self._inj_single >= 0)
        multi_lc, multi_flow = ([], [])
        if any(self._active_multi):
            multi_lc, multi_flow = self._collect_multi()
        if not wait.size and not singles.size and not multi_lc:
            return
        lcb = self._b_target[wait]

        # ---- injection offers: queue-head attributes ----
        if multi_lc:
            inj_lc = np.concatenate([singles,
                                     np.asarray(multi_lc, dtype=np.int64)])
            inj_flow = np.concatenate([self._inj_single[singles],
                                       np.asarray(multi_flow,
                                                  dtype=np.int64)])
        else:
            inj_lc = singles
            inj_flow = self._inj_single[singles]
        i_lane = inj_lc // C
        i_qi = i_lane * self._F + inj_flow
        i_seq = self._q_seq_flat[i_qi]
        i_pid = self._q_pids_flat[i_qi * self._qcap
                                  + self._q_head_flat[i_qi]]
        i_base = self._chan_base[inj_lc]
        i_head = i_seq == 0
        alloc0 = self._pk_alloc_flat[(i_lane * self._pcap + i_pid)
                                     * self._H]

        # ---- merged eligibility (the inlined VA/SA rule): every
        # contender — buffer window or injection offer — reduces to a
        # wanted slot (-1 for heads that re-select their VC dynamically):
        # wanted slots need room (static heads an unowned VC too), dynamic
        # heads run the least-occupied-free-VC scan in one batched pass
        nb = wait.size
        cont_lc = np.concatenate([lcb, inj_lc])
        cont_key = np.concatenate([wait, inj_flow])
        if self._has_static:
            svc0 = self._svc0[inj_flow]
            i_want = np.where(i_head & (svc0 < 0), -1,
                              i_base + np.where(svc0 >= 0, svc0, alloc0))
            want = np.concatenate([self._b_want[wait], i_want])
            shead = np.concatenate([self._b_head[wait],
                                    i_head & (svc0 >= 0)])
            cont_tb = np.maximum(want, 0)
            cont_elig = (want >= 0) & (self._b_count[cont_tb] < depth) \
                & (~shead | (self._b_owner[cont_tb] < 0))
        else:
            i_want = np.where(i_head, -1, i_base + alloc0)
            want = np.concatenate([self._b_want[wait], i_want])
            cont_tb = np.maximum(want, 0)
            cont_elig = (want >= 0) & (self._b_count[cont_tb] < depth)
        dyn = np.flatnonzero(want < 0)
        if dyn.size:
            masks = np.concatenate([self._b_dmask[wait],
                                    self._am0_flat[i_qi]])[dyn]
            d_base = self._chan_base[cont_lc[dyn]]
            d_vc, d_ok = self._dynamic_vc(masks, d_base)
            cont_elig[dyn] = d_ok
            cont_tb[dyn] = d_base + d_vc

        # cluster into per-(lane, output) groups: stable sort keeps buffers
        # (ascending flat index) ahead of injection offers (offer order)
        perm = np.argsort(cont_lc.astype(self._sort_dtype), kind="stable")
        cont_lc = cont_lc[perm]
        cont_elig = cont_elig[perm]
        cont_tb = cont_tb[perm]
        cont_key = cont_key[perm]
        is_buf = perm < nb
        M = cont_lc.size
        boundary = np.empty(M, dtype=bool)
        boundary[0] = True
        np.not_equal(cont_lc[1:], cont_lc[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        nG = starts.size
        sizes = np.empty(nG, dtype=np.int64)
        sizes[:-1] = starts[1:] - starts[:-1]
        sizes[nG - 1] = M - starts[nG - 1]
        group_lc = cont_lc[starts]
        # the round robin is read for this cycle's contention, then
        # advanced exactly once per contended output (group_lc is unique)
        rr = self._output_rr[group_lc]
        self._output_rr[group_lc] = rr + 1
        gid = np.repeat(self._iota[:nG], sizes)
        # rotation distance (position - rr) mod size, with the group-start
        # offset folded into the subtrahend so one gather serves both
        pr = self._iota[:M] - (starts + rr % sizes)[gid]
        priority = pr % sizes[gid]

        # ---- per-group winner: eligible contender closest after rr ----
        ranked = np.where(cont_elig, priority, _BIG)
        group_best = np.minimum.reduceat(ranked, starts)
        win = np.flatnonzero(cont_elig & (ranked == group_best[gid]))
        if win.size == 0:
            return

        nW = win.size
        w_lc = cont_lc[win]
        w_lane = w_lc // C
        w_tb = cont_tb[win]
        w_key = cont_key[win]
        w_isbuf = is_buf[win]
        self._moved += np.bincount(w_lane, minlength=self._L)

        # pre-commit target occupancy, and whether the target also loses a
        # flit this cycle (its own window advancing) — old - dec == 0 means
        # the arriving flit starts a fresh window
        old_tb = self._b_count[w_tb].copy()
        sources = w_key[w_isbuf]
        scratch = self._scratch_tb
        scratch[sources] = True
        dec = scratch[w_tb]
        scratch[sources] = False

        # per-kind winner attributes, scattered back into winner order
        w_pid = np.empty(nW, dtype=np.int64)
        w_hop = np.zeros(nW, dtype=np.int64)
        w_seq = np.empty(nW, dtype=np.int64)
        w_fidx = np.empty(nW, dtype=np.int64)
        s_pid = self._b_pid[sources]
        src_seq = self._b_start[sources]
        w_pid[w_isbuf] = s_pid
        w_hop[w_isbuf] = self._b_hop[sources] + 1
        w_seq[w_isbuf] = src_seq
        w_fidx[w_isbuf] = self._pk_flow_flat[
            self._arena_lane[sources] * self._pcap + s_pid]
        inj_any = nW > sources.size
        if inj_any:
            inj_sel = ~w_isbuf
            wi_flow = w_key[inj_sel]
            wqi = w_lane[inj_sel] * self._F + wi_flow
            wi_seq = self._q_seq_flat[wqi]
            w_seq[inj_sel] = wi_seq
            w_pid[inj_sel] = self._q_pids_flat[
                wqi * self._qcap + self._q_head_flat[wqi]]
            w_fidx[inj_sel] = wi_flow

        # ---- source side: buffers ----
        tb_buf = w_tb[w_isbuf]
        self._b_count[sources] -= 1
        moving = self._b_count[sources] > 0
        self._b_start[sources[moving]] = src_seq[moving] + 1
        emptied = sources[~moving]
        self._b_target[emptied] = -1
        self._b_owner[sources[(~moving) & (src_seq == self._last_seq)]] = -1
        # the head leaving pins its followers' VC: the remaining window
        # becomes a body window wanting exactly the slot the head entered
        head_left = moving & (src_seq == 0)
        hs = sources[head_left]
        if hs.size:
            self._b_want[hs] = tb_buf[head_left]
            if self._has_static:
                self._b_head[hs] = False

        # ---- source side: injection queues ----
        if inj_any:
            q_lane = w_lane[inj_sel]
            finished = wi_seq == self._last_seq
            fqi = wqi[finished]
            if fqi.size:
                self._q_head_flat[fqi] = \
                    (self._q_head_flat[fqi] + 1) % self._qcap
                self._q_len_flat[fqi] -= 1
                self._q_seq_flat[fqi] = 0
                empty = self._q_len_flat[fqi] == 0
                for lane, index in zip(q_lane[finished][empty].tolist(),
                                       wi_flow[finished][empty].tolist()):
                    if self._flow_single[index]:
                        self._inj_single[
                            lane * C + self._first_channel[index]] = -1
                    else:
                        node = self._flow_node[index]
                        live = self._node_live[lane][node] - 1
                        self._node_live[lane][node] = live
                        if not live:
                            self._active_multi[lane].discard(node)
            nf = ~finished
            self._q_seq_flat[wqi[nf]] = wi_seq[nf] + 1
            # room for one more packet just appeared -> fill next cycle
            room = (self._q_len_flat[wqi] * self._size
                    - self._q_seq_flat[wqi]
                    == self._capacity - self._size)
            for key in wqi[room].tolist():
                if self._backlogs[key]:
                    self._needs_fill.add(key)

        # ---- head flits allocate their VC and claim the buffer ----
        hsel = np.flatnonzero(w_seq == 0)
        if hsel.size:
            ht = w_tb[hsel]
            self._pk_alloc_flat[
                (w_lane[hsel] * self._pcap + w_pid[hsel]) * self._H
                + w_hop[hsel]] = ht - self._chan_base[w_lc[hsel]]
            self._b_owner[ht] = w_pid[hsel]

        # ---- target side: deliver the flit, classify fresh windows ----
        self._b_count[w_tb] += 1
        created = old_tb == dec
        ck = w_tb[created]
        if ck.size:
            c_fidx = w_fidx[created]
            c_hop = w_hop[created]
            c_seq = w_seq[created]
            c_pid = w_pid[created]
            self._b_pid[ck] = c_pid
            self._b_hop[ck] = c_hop
            self._b_start[ck] = c_seq
            final = c_hop == self._last_hop[c_fidx]
            self._b_eject[ck[final]] = True
            onward = ~final
            cko = ck[onward]
            if cko.size:
                o_fidx = c_fidx[onward]
                o_hop1 = c_hop[onward] + 1
                o_lane = w_lane[created][onward]
                o_ri = o_fidx * self._H + o_hop1
                nxt = self._route_flat[o_ri]
                o_lc = o_lane * C + nxt
                self._b_target[cko] = o_lc
                # prime the new windows' want/head caches: a body window
                # follows its head's committed VC, a static head its static
                # VC; a dynamic head re-selects each cycle (want = -1) from
                # its cached allowed mask
                o_head = c_seq[onward] == 0
                alloc2 = self._pk_alloc_flat[
                    (o_lane * self._pcap + c_pid[onward])
                    * self._H + o_hop1]
                if self._has_static:
                    self._b_head[cko] = o_head
                    svc2 = self._static_flat[o_ri]
                    vc2 = np.where(svc2 >= 0, svc2, alloc2)
                    dyn_new = np.flatnonzero(o_head & (svc2 < 0))
                else:
                    vc2 = alloc2
                    dyn_new = np.flatnonzero(o_head)
                self._b_want[cko] = np.where(
                    vc2 >= 0, self._chan_base[o_lc] + vc2, -1)
                if dyn_new.size:
                    d_lane = o_lane[dyn_new]
                    d_flow = o_fidx[dyn_new]
                    bound = self._am_bound[d_lane, d_flow]
                    self._b_dmask[cko[dyn_new]] = np.where(
                        o_hop1[dyn_new] < bound,
                        self._am_pre[d_lane, d_flow],
                        self._am_post[d_lane, d_flow])

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    def run(self, max_cycles: Optional[int] = None) -> SimulationStatistics:
        """Run warm-up plus measurement; lane 0's statistics (see run_all)."""
        return self.run_all(max_cycles)[0]

    def run_all(self, max_cycles: Optional[int] = None,
                ) -> List[SimulationStatistics]:
        """Run every lane to completion; per-lane statistics, in lane order.

        A lane whose watchdog trips is frozen at its deadlock cycle — the
        same early stop as the scalar kernels' run loop — while the other
        lanes keep stepping.
        """
        total = max_cycles if max_cycles is not None else self._total_cycles
        for _ in range(total):
            if not self._active.any():
                break
            self.step()
            tripped = self._dl & self._active
            if tripped.any():
                self._freeze(np.flatnonzero(tripped))
        return [self.statistics(lane) for lane in range(self._L)]

    def statistics(self, lane: int = 0) -> SimulationStatistics:
        cycle = int(self._cycle_arr[lane])
        per_flow_latency = {}
        per_flow_delivered = {}
        for index in np.flatnonzero(self._flow_cnt[lane]).tolist():
            name = self._flow_names[index]
            per_flow_latency[name] = float(self._flow_lat[lane, index])
            per_flow_delivered[name] = int(self._flow_cnt[lane, index])
        return SimulationStatistics(
            cycles=cycle,
            warmup_cycles=min(self._warmup, cycle),
            packets_injected=self._measured_generated[lane],
            packets_delivered=int(self._packets_delivered[lane]),
            flits_delivered=int(self._flits_delivered[lane]),
            total_latency=float(self._total_latency[lane]),
            per_flow_latency=per_flow_latency,
            per_flow_delivered=per_flow_delivered,
            dropped_at_source=self._dropped[lane],
            flits_lost_to_faults=self._flits_lost[lane],
            packets_lost_to_faults=self._pkts_lost[lane],
            packets_dropped_faults=self._pkts_dropped_faults[lane],
        )

    @property
    def num_lanes(self) -> int:
        return self._L

    @property
    def cycle(self) -> int:
        return int(self._cycle_arr[0])

    @property
    def in_flight_flits(self) -> int:
        return int(self._in_flight[0])

    @property
    def deadlock_suspected(self) -> bool:
        return bool(self._dl[0])

    def lane_cycle(self, lane: int) -> int:
        return int(self._cycle_arr[lane])

    def lane_in_flight(self, lane: int) -> int:
        return int(self._in_flight[lane])

    def lane_deadlock_suspected(self, lane: int) -> bool:
        return bool(self._dl[lane])

    def flit_audit(self, lane: int = 0) -> Dict[str, int]:
        """Conservation ledger of one lane, same bins as the scalar kernels."""
        span = slice(int(self._lane_base[lane]),
                     int(self._lane_base[lane])
                     + self._C * int(self._vcs[lane]))
        queued = self._q_len[lane] * self._size - self._q_seq[lane]
        return {
            "cycle": int(self._cycle_arr[lane]),
            "packets_generated": self._packets_generated[lane],
            "packets_built": self._next_pid[lane],
            "packets_in_backlog": sum(
                len(backlog) for backlog in
                self._backlogs[lane * self._F:(lane + 1) * self._F]),
            "packets_dropped": self._dropped[lane],
            "flits_built": self._next_pid[lane] * self._size,
            "flits_ejected": int(self._ejected_total[lane]),
            "flits_in_network": int(self._b_count[span].sum()),
            "flits_in_source_queues": int(
                queued[self._q_len[lane] > 0].sum()),
            "in_flight_flits": int(self._in_flight[lane]),
            "flits_lost_to_faults": self._flits_lost[lane],
            "packets_lost_to_faults": self._pkts_lost[lane],
            "packets_dropped_faults": self._pkts_dropped_faults[lane],
        }

    def conservation_violations(self, lane: int = 0) -> List[str]:
        """Broken conservation invariants of one lane (empty = ok)."""
        from .stages import audit_violations

        return audit_violations(self.flit_audit(lane))

    def occupancy_snapshot(self, lane: int = 0) -> Dict[str, int]:
        """Flits buffered per channel label in one lane."""
        vcs = int(self._vcs[lane])
        base = int(self._lane_base[lane])
        counts = self._b_count[base:base + self._C * vcs] \
            .reshape(self._C, vcs).sum(axis=1)
        return {
            self.topology.channel_label(self._channels[index]): int(count)
            for index, count in enumerate(counts.tolist()) if count
        }
