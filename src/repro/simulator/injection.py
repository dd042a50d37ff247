"""Traffic injection processes.

Every flow injects packets at its source node.  The offered load of a sweep
point is expressed as an aggregate packet injection rate for the whole
network (packets per cycle); it is split across the flows **proportionally to
their bandwidth demands**, so an application's heavy flows inject more often
than its light ones — this is what makes the application workloads meaningful
to a bandwidth-sensitive router.

Two processes are provided:

* :class:`BernoulliInjection` — each cycle, each flow independently injects a
  packet with probability equal to its per-cycle rate (rates above 1 inject
  multiple packets per cycle deterministically plus a Bernoulli remainder);
* :class:`ModulatedInjection` — wraps a Bernoulli process with the two-state
  Markov-modulated bandwidth-variation model of Section 5.3, producing the
  bursty injection of Figure 5-4.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, List, Optional, Tuple

from ..exceptions import SimulationError
from ..traffic.flow import Flow, FlowSet
from ..traffic.variation import BandwidthVariationModel


class InjectionProcess:
    """Base class: decides how many packets each flow injects each cycle."""

    def __init__(self, flow_set: FlowSet, offered_rate: float,
                 seed: int = 0) -> None:
        if not math.isfinite(offered_rate):
            raise SimulationError(
                f"offered rate must be a finite number of packets/cycle, "
                f"got {offered_rate}"
            )
        if offered_rate < 0:
            raise SimulationError(f"offered rate must be >= 0: {offered_rate}")
        self.flow_set = flow_set
        self.offered_rate = offered_rate
        self.seed = seed
        self._rng = random.Random(seed)
        total_demand = flow_set.total_demand()
        if total_demand <= 0:
            raise SimulationError("flow set has zero total demand; nothing to inject")
        #: per-flow packet rate (packets/cycle), proportional to demand.
        self.flow_rates: Dict[str, float] = {
            flow.name: offered_rate * flow.demand / total_demand
            for flow in flow_set
        }

    def rate_of(self, flow: Flow, cycle: int) -> float:
        """Packet rate of *flow* at *cycle* (may vary over time)."""
        return self.flow_rates[flow.name]

    def packets_to_inject(self, flow: Flow, cycle: int) -> int:
        """Number of packets *flow* injects this cycle."""
        rate = self.rate_of(flow, cycle)
        whole = int(rate)
        fraction = rate - whole
        if fraction > 0 and self._rng.random() < fraction:
            whole += 1
        return whole

    def counts_for_cycle(self, cycle: int) -> List[int]:
        """Packets injected this cycle for every flow, in flow-set order.

        The simulator calls this once per cycle instead of
        :meth:`packets_to_inject` once per flow; subclasses with static
        rates override it to skip the per-flow rate lookups.  The random
        draws happen in flow-set order either way, so batched and per-flow
        injection produce identical streams for the same seed.
        """
        return [self.packets_to_inject(flow, cycle) for flow in self.flow_set]

    def injection_events(self, cycle: int) -> List[Tuple[int, int]]:
        """Sparse form of :meth:`counts_for_cycle`: ``(flow index, count)``
        pairs for the flows that inject this cycle, in flow-set order.

        The default derives from :meth:`counts_for_cycle`, so a subclass
        that only defines the dense call gets the sparse one for free;
        subclasses override it when they can produce the sparse
        form directly with the *same* random-draw sequence — the fast
        simulator backend consumes this, and bit-identity across backends
        requires the stream to be unchanged.
        """
        return [(index, count)
                for index, count in enumerate(self.counts_for_cycle(cycle))
                if count]

    def expected_rate(self, flow: Flow) -> float:
        """Long-run average packet rate of a flow."""
        return self.flow_rates[flow.name]


class BernoulliInjection(InjectionProcess):
    """Memoryless injection at a constant per-flow rate."""

    def __init__(self, flow_set: FlowSet, offered_rate: float,
                 seed: int = 0) -> None:
        super().__init__(flow_set, offered_rate, seed=seed)
        # rates are constant, so the whole/fractional split per flow can be
        # precomputed once and the per-cycle batch reduced to one Bernoulli
        # draw per fractional-rate flow
        self._schedule = []
        for flow in flow_set:
            rate = self.flow_rates[flow.name]
            whole = int(rate)
            self._schedule.append((whole, rate - whole))

    def counts_for_cycle(self, cycle: int) -> List[int]:
        random = self._rng.random
        counts = []
        for whole, fraction in self._schedule:
            if fraction > 0 and random() < fraction:
                counts.append(whole + 1)
            else:
                counts.append(whole)
        return counts

    def injection_events(self, cycle: int) -> List[Tuple[int, int]]:
        """Sparse draws with the exact random sequence of the dense form."""
        random = self._rng.random
        events = []
        for index, (whole, fraction) in enumerate(self._schedule):
            if fraction > 0 and random() < fraction:
                events.append((index, whole + 1))
            elif whole:
                events.append((index, whole))
        return events


class ModulatedInjection(InjectionProcess):
    """Bernoulli injection modulated by per-flow Markov rate processes.

    The instantaneous rate of each flow wanders within
    ``±variation_fraction`` of its nominal rate, with dwell times drawn by
    the :class:`~repro.traffic.variation.MarkovModulatedRate` process; the
    long-run mean stays at the nominal rate, so sweeps with and without
    variation are comparable (Figures 6-8 to 6-10).
    """

    def __init__(self, flow_set: FlowSet, offered_rate: float,
                 variation_fraction: float,
                 mean_dwell_cycles: int = 200,
                 seed: int = 0) -> None:
        super().__init__(flow_set, offered_rate, seed=seed)
        if not 0.0 <= variation_fraction <= 1.0:
            raise SimulationError(
                f"variation fraction must be in [0, 1]: {variation_fraction}"
            )
        self.variation_fraction = variation_fraction
        # The variation model perturbs the flow's *demand*; we rescale the
        # perturbed demand back into a packet rate with the same factor the
        # constructor used.
        total_demand = flow_set.total_demand()
        self._rate_per_demand = offered_rate / total_demand
        self._model = BandwidthVariationModel(
            flow_set, variation_fraction,
            mean_dwell_cycles=mean_dwell_cycles, seed=seed,
        )

    def rate_of(self, flow: Flow, cycle: int) -> float:
        varied_demand = self._model.rate_of(flow, cycle)
        return varied_demand * self._rate_per_demand


def make_injection_process(flow_set: FlowSet, offered_rate: float,
                           variation_fraction: float = 0.0,
                           mean_dwell_cycles: int = 200,
                           seed: int = 0) -> InjectionProcess:
    """Factory: Bernoulli when variation is zero, modulated otherwise."""
    if variation_fraction > 0:
        return ModulatedInjection(
            flow_set, offered_rate, variation_fraction,
            mean_dwell_cycles=mean_dwell_cycles, seed=seed,
        )
    return BernoulliInjection(flow_set, offered_rate, seed=seed)


def injection_trace(process: InjectionProcess, flow: Flow,
                    num_cycles: int) -> List[int]:
    """Packets injected per cycle for one flow (Figure 5-4 style trace)."""
    return [process.packets_to_inject(flow, cycle) for cycle in range(num_cycles)]
