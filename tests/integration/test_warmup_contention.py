"""Regression: the warmup-end reset must clear contention state.

``RingWalker.on_warmup_end`` historically rebound the stats/energy
objects but left ``_link_free`` and ``_snoop_port_free`` carrying
reservations made during warmup, so the measured phase started on a
backlogged interconnect.  The tests poison those structures at the
exact moment of the warmup reset: on a fixed walker the reset wipes
the poison and the run is bit-identical to an unpoisoned one; on the
pre-fix walker the poison survives into the measured phase and blows
the execution time up by orders of magnitude, so these tests fail.

The soa core keeps its reservations in run-local lists with no hook to
poison, so it is pinned against the poisoned object run instead.  At
the 0.2 cutoff warmup-era reservations still extend past the reset,
so a soa run that kept them drifts from that reference.
"""

from __future__ import annotations

import pytest

from repro.config import CacheConfig, RingConfig, default_machine
from repro.core.algorithms import build_algorithm
from repro.sim.soa import SoaRingMultiprocessor
from repro.sim.system import RingMultiprocessor
from repro.workloads.synthetic import SharingProfile, generate_workload

#: Cycles of fake link/port backlog injected at the reset - far beyond
#: anything the measured phase could absorb unnoticed.
POISON_HORIZON = 500_000


def _profile():
    return SharingProfile(
        name="warmup-contended",
        num_cores=8,
        cores_per_cmp=1,
        accesses_per_core=400,
        p_shared=0.5,
        p_cold=0.1,
        shared_lines=128,
        private_lines=128,
        write_fraction_shared=0.3,
        think_mean=5.0,
        seed=23,
    )


CORES = {"object": RingMultiprocessor, "soa": SoaRingMultiprocessor}


def _build(warmup_fraction, core="object"):
    workload = generate_workload(_profile())
    machine = default_machine(
        algorithm="eager",
        cores_per_cmp=1,
        cache=CacheConfig(num_lines=256, associativity=8),
        ring=RingConfig(link_occupancy=30, serialize_snoop_port=True),
    )
    return CORES[core](
        machine,
        build_algorithm("eager"),
        workload,
        warmup_fraction=warmup_fraction,
    )


def _run_poisoned(warmup_fraction=0.4):
    """Run with fake contention backlog injected just before the
    warmup reset rebinding (the poison models warmup-accumulated
    reservations; a correct reset must discard it)."""
    system = _build(warmup_fraction)
    walker = system.walker
    real_rebind = system.rebind_measurement

    def poisoned_rebind(stats, energy):
        horizon = system.engine.now + POISON_HORIZON
        for key in list(walker._link_free):
            walker._link_free[key] = horizon
        walker._link_free[(0, 0)] = horizon
        walker._snoop_port_free = (
            [horizon] * len(walker._snoop_port_free)
        )
        real_rebind(stats, energy)

    system.rebind_measurement = poisoned_rebind
    return system.run()


@pytest.mark.parametrize("warmup_fraction", [0.2, 0.4])
@pytest.mark.parametrize("core", sorted(CORES))
def test_warmup_reset_discards_contention_backlog(core, warmup_fraction):
    clean = _build(warmup_fraction, core).run()
    poisoned = _run_poisoned(warmup_fraction)
    assert poisoned.exec_time == clean.exec_time
    assert poisoned.stats.summary() == clean.stats.summary()


def test_measured_phase_starts_on_idle_interconnect():
    """Directly after the reset, no link or port reservation may
    extend into the measured phase."""
    system = _build(0.4)
    walker = system.walker
    real_rebind = system.rebind_measurement
    observed = {}

    def checking_rebind(stats, energy):
        real_rebind(stats, energy)
        now = system.engine.now
        observed["links_busy"] = walker.links_busy(now)
        observed["port_backlog"] = walker.snoop_port_backlog(now)

    system.rebind_measurement = checking_rebind
    system.run()
    assert observed == {"links_busy": 0, "port_backlog": 0.0}
