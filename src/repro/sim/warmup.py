"""Warmup subsystem: the warmup-window measurement reset.

Interface contract
==================

:class:`WarmupController` separates cache training from measurement
(the prewarm install that precedes it lives in
:mod:`repro.sim.prewarm`):

* **Warmup-window reset** (``end_warmup``, called by the
  :class:`~repro.sim.transactions.TransactionManager` when the
  completed-access threshold is crossed): builds fresh ``RunStats``
  and ``EnergyModel`` objects, zeroes the predictor/presence/memory
  counters, and asks the facade to broadcast the new measurement
  objects to every subsystem (``rebind_measurement``), which also
  un-suspends the walker's hop batching.

State owned here: ``warmup_target`` / ``in_warmup`` /
``warmup_end_time`` (the facade and the other subsystems read these
at wiring time).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.energy.model import EnergyModel
from repro.metrics.stats import RunStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.config import MachineConfig
    from repro.core.presence import PresencePredictor
    from repro.ring.node import CMPNode
    from repro.sim.engine import EventEngine
    from repro.sim.memory import MainMemory
    from repro.sim.system import RingMultiprocessor
    from repro.workloads.source import WorkloadSource


class WarmupController:
    """The warmup-window measurement reset."""

    def __init__(
        self,
        engine: "EventEngine",
        config: "MachineConfig",
        workload: "WorkloadSource",
        nodes: List["CMPNode"],
        presence: List["PresencePredictor"],
        memory: "MainMemory",
        warmup_fraction: float,
    ) -> None:
        self.engine = engine
        self.config = config
        self.nodes = nodes
        self.presence = presence
        self.memory = memory
        self.warmup_target = (
            int(workload.total_accesses() * warmup_fraction)
            if warmup_fraction > 0.0
            else 0
        )
        self.in_warmup = self.warmup_target > 0
        self.warmup_end_time = 0

    def wire(self, system: "RingMultiprocessor") -> None:
        """Bind the facade (called once, before any event fires); it
        broadcasts measurement rebinds to the other subsystems."""
        self._system = system

    # ------------------------------------------------------------------
    # Warmup-window reset

    def end_warmup(self) -> None:
        """Reset all measurement state; caches and predictors keep
        their trained contents."""
        self.in_warmup = False
        self.warmup_end_time = self.engine.now
        stats = RunStats()
        energy = EnergyModel(
            self.config.energy, self.config.predictor.kind
        )
        for node in self.nodes:
            node.predictor.lookups = 0
            node.predictor.updates = 0
        for presence in self.presence:
            presence.lookups = 0
            presence.updates = 0
            presence.filtered = 0
        self.memory.reads = 0
        self.memory.writebacks = 0
        self.memory.prefetches = 0
        self._system.rebind_measurement(stats, energy)
