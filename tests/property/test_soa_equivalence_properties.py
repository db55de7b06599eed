"""Property-based equivalence of the object and SoA cores.

The golden matrix pins 28 fixed cells; this file attacks the same
claim from the other side, generating random workload profiles and
machine shapes inside the SoA envelope and requiring the two cores to
agree *bit-identically* on every summary field - execution time,
crossings, energy, predictor accuracy, latency percentiles, all of
it.  Randomized profiles reach corner cases the fixed matrix cannot:
migratory and producer-consumer sharing mixed with prewarm, tiny
caches under eviction pressure, multi-core CMPs with local-master
hits, warmup cutoffs landing mid-transaction.  The loaded regime is
drawn too: link occupancy and snoop-port queueing, one or two
embedded rings, flat and hierarchical topologies, and re-paced
injection - the contention reservations are ordered state the fused
loop must book in exactly the object walker's order.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_machine
from repro.core.algorithms import build_algorithm
from repro.registry import REGISTRY
from repro.sim.soa import SoaRingMultiprocessor
from repro.sim.system import RingMultiprocessor
from repro.workloads.source import SyntheticSource
from repro.workloads.synthetic import SharingProfile

ALGORITHMS = [
    "lazy",
    "eager",
    "oracle",
    "subset",
    "superset_con",
    "superset_agg",
    "exact",
    "criticality",
]

#: hier_ring shapes: (num_cmps, local_rings), at least 2 CMPs per ring.
HIER_SHAPES = [(4, 2), (6, 2), (6, 3), (8, 2), (8, 4)]

profiles = st.builds(
    SharingProfile,
    name=st.just("prop"),
    num_cores=st.just(0),  # replaced below: num_cmps * cores_per_cmp
    cores_per_cmp=st.sampled_from([1, 2]),
    accesses_per_core=st.integers(20, 60),
    p_shared=st.floats(0.1, 0.6),
    p_cold=st.floats(0.0, 0.2),
    shared_lines=st.integers(16, 64),
    private_lines=st.integers(16, 64),
    write_fraction_shared=st.floats(0.0, 0.5),
    migratory_fraction=st.one_of(st.just(0.0), st.floats(0.05, 0.3)),
    producer_consumer_fraction=st.one_of(st.just(0.0), st.floats(0.05, 0.3)),
    burst_mean=st.floats(1.0, 3.0),
    prewarm_fraction=st.floats(0.0, 0.6),
    think_mean=st.floats(1.0, 8.0),
    seed=st.integers(0, 2**16),
)


@st.composite
def scenarios(draw):
    profile = draw(profiles)
    # Weighted toward the paper's uncontended flat ring, the only
    # configuration where soa's hop batching runs.
    topology = draw(st.sampled_from(["ring", "ring", "hier_ring"]))
    if topology == "ring":
        num_cmps, local_rings = draw(st.integers(2, 4)), 4
    else:
        num_cmps, local_rings = draw(st.sampled_from(HIER_SHAPES))
    profile = dataclasses.replace(
        profile,
        num_cores=num_cmps * profile.cores_per_cmp,
        think_scale=draw(st.sampled_from([0.3, 1.0, 3.0])),
    )
    algorithm = draw(st.sampled_from(ALGORITHMS))
    warmup = draw(st.sampled_from([0.0, 0.3]))
    machine = default_machine(
        algorithm=algorithm,
        cores_per_cmp=profile.cores_per_cmp,
        num_cmps=num_cmps,
    )
    occupancy, serialize_port = 0, False
    if draw(st.sampled_from([False, False, False, True, True])):
        occupancy = draw(st.sampled_from([0, 3, 30, 600]))
        serialize_port = draw(st.booleans())
    machine = machine.replace(
        ring=dataclasses.replace(
            machine.ring,
            link_occupancy=occupancy,
            serialize_snoop_port=serialize_port,
            num_rings=draw(st.sampled_from([1, 2])),
        ),
        topology=dataclasses.replace(
            machine.topology, kind=topology, local_rings=local_rings
        ),
    )
    return profile, machine, algorithm, warmup


@given(scenarios())
@settings(max_examples=120, deadline=None)
def test_cores_agree_bit_identically(scenario):
    profile, machine, algorithm_name, warmup = scenario
    source = SyntheticSource(profile)
    object_result = RingMultiprocessor(
        machine,
        build_algorithm(algorithm_name),
        source,
        warmup_fraction=warmup,
    ).run()
    soa_result = SoaRingMultiprocessor(
        machine,
        build_algorithm(algorithm_name),
        source,
        warmup_fraction=warmup,
    ).run()
    assert soa_result.summary() == object_result.summary()


def test_registry_builds_both_cores():
    assert set(REGISTRY.names("core")) >= {"object", "soa"}
    assert REGISTRY.canonical("core", "SOA") == "soa"
