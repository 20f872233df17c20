"""MQSim-inspired SSD latency model used for swap and major page faults.

The model is intentionally a latency/queueing model rather than a flash
translation layer simulator: the experiments that use it (major faults in
the page-fault path and the swapping-activity study of Fig. 20) need
realistic read/program latencies, per-channel parallelism and queueing
delay under bursts — not wear levelling or garbage collection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.common.config import SSDConfig
from repro.common.stats import Counter


@dataclass
class SSDRequestResult:
    """Outcome of one SSD request."""

    latency_cycles: int
    queue_delay_cycles: int
    channel: int


class SSDModel:
    """A multi-channel SSD with per-channel service queues.

    Requests are striped over channels by logical block address.  Each
    channel is modelled as a single server: a request's completion time is
    ``max(now, channel_free_time) + service_time`` and the channel busy time
    advances accordingly, which yields queueing delay under swap storms.
    """

    def __init__(self, config: SSDConfig, core_frequency_ghz: float = 2.9):
        self.config = config
        self.cycles_per_us = core_frequency_ghz * 1000.0
        self._channel_free_at: List[float] = [0.0] * config.channels
        self.counters = Counter()

    def _service_cycles(self, is_write: bool) -> float:
        base_us = self.config.write_latency_us if is_write else self.config.read_latency_us
        return (base_us + self.config.per_request_overhead_us) * self.cycles_per_us

    def access(self, logical_block: int, is_write: bool, now_cycles: int = 0) -> SSDRequestResult:
        """Issue one 4 KB request and return its latency including queueing."""
        channel = logical_block % self.config.channels
        service = self._service_cycles(is_write)
        start = max(float(now_cycles), self._channel_free_at[channel])
        queue_delay = start - float(now_cycles)
        completion = start + service
        self._channel_free_at[channel] = completion
        latency = completion - float(now_cycles)

        self.counters.add("writes" if is_write else "reads")
        self.counters.add("queue_delay_cycles", int(queue_delay))
        self.counters.add("busy_cycles", int(service))
        return SSDRequestResult(latency_cycles=int(latency),
                                queue_delay_cycles=int(queue_delay),
                                channel=channel)

    def read(self, logical_block: int, now_cycles: int = 0) -> SSDRequestResult:
        """4 KB read."""
        return self.access(logical_block, is_write=False, now_cycles=now_cycles)

    def write(self, logical_block: int, now_cycles: int = 0) -> SSDRequestResult:
        """4 KB write."""
        return self.access(logical_block, is_write=True, now_cycles=now_cycles)
