"""Property-based tests for the snoop-topology layer.

Three structural invariants every topology must satisfy, whatever its
shape, because the walker, the fused soa core and the trace auditor all
rely on them:

* the snoop walk from any requester visits every *other* node exactly
  once and the successor cycle returns home (Hamiltonian cycle);
* ``ring_distance`` agrees with counting ``next_node`` steps;
* the exported tables are consistent with the per-node interface.

Plus hier_ring-specific ones: bridge paths on the data network are
cycle-free (finite shortest-path hop counts with symmetric distances)
and segment timing charges the global hop exactly once per block.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    DataNetworkConfig,
    RingConfig,
    TopologyConfig,
)
from repro.ring.topology import (
    HierRingTopology,
    RingTopology,
    ring_successors,
)

ring_sizes = st.integers(min_value=2, max_value=33)
hier_shapes = st.tuples(
    st.integers(min_value=2, max_value=6),  # local rings
    st.integers(min_value=2, max_value=6),  # CMPs per local ring
)
latencies = st.integers(min_value=1, max_value=100)


def _ring(num_nodes: int) -> RingTopology:
    return RingTopology(
        num_nodes, RingConfig(), data_network=DataNetworkConfig(
            torus_shape=(num_nodes, 1)
        )
    )


def _hier(local_rings: int, ring_size: int,
          local_hop: int = 0, global_hop: int = 0) -> HierRingTopology:
    num_nodes = local_rings * ring_size
    return HierRingTopology(
        num_nodes,
        RingConfig(),
        TopologyConfig(
            kind="hier_ring",
            local_rings=local_rings,
            local_hop_latency=local_hop,
            global_hop_latency=global_hop,
        ),
        DataNetworkConfig(torus_shape=(num_nodes, 1)),
    )


# ----------------------------------------------------------------------
# Walk-order permutation property (both builtins)


@settings(max_examples=60)
@given(ring_sizes, st.data())
def test_ring_walk_visits_every_other_node_once(num_nodes, data):
    topology = _ring(num_nodes)
    requester = data.draw(st.integers(0, num_nodes - 1))
    order = topology.walk_order(requester)
    assert len(order) == num_nodes - 1
    assert requester not in order
    assert sorted(order) == sorted(
        set(range(num_nodes)) - {requester}
    )
    # The walk ends one segment short of home.
    assert topology.next_node(order[-1]) == requester


@settings(max_examples=60)
@given(hier_shapes, st.data())
def test_hier_walk_visits_every_other_node_once(shape, data):
    local_rings, ring_size = shape
    topology = _hier(local_rings, ring_size)
    requester = data.draw(st.integers(0, topology.num_nodes - 1))
    order = topology.walk_order(requester)
    assert len(order) == topology.num_nodes - 1
    assert sorted(order) == sorted(
        set(range(topology.num_nodes)) - {requester}
    )
    assert topology.next_node(order[-1]) == requester


# ----------------------------------------------------------------------
# ring_distance consistency with repeated next_node


@settings(max_examples=60)
@given(ring_sizes, st.data())
def test_ring_distance_counts_next_node_steps(num_nodes, data):
    topology = _ring(num_nodes)
    src = data.draw(st.integers(0, num_nodes - 1))
    dst = data.draw(st.integers(0, num_nodes - 1))
    distance = topology.ring_distance(src, dst)
    node = src
    for _ in range(distance):
        node = topology.next_node(node)
    assert node == dst
    assert 0 <= distance < num_nodes


@settings(max_examples=60)
@given(hier_shapes, st.data())
def test_hier_distance_counts_next_node_steps(shape, data):
    topology = _hier(*shape)
    src = data.draw(st.integers(0, topology.num_nodes - 1))
    dst = data.draw(st.integers(0, topology.num_nodes - 1))
    distance = topology.ring_distance(src, dst)
    node = src
    for _ in range(distance):
        node = topology.next_node(node)
    assert node == dst


# ----------------------------------------------------------------------
# Exported tables agree with the per-node interface


@settings(max_examples=40)
@given(st.one_of(ring_sizes.map(_ring),
                 hier_shapes.map(lambda s: _hier(*s))))
def test_export_tables_consistent(topology):
    successors, out_lat, in_lat = topology.export_tables()
    n = topology.num_nodes
    assert successors == [topology.next_node(i) for i in range(n)]
    assert successors == ring_successors(n)  # both builtins use id order
    assert out_lat == [topology.segment_latency(i) for i in range(n)]
    # The latency entering a node is the latency leaving its
    # predecessor - the relation the walker's reply path relies on.
    for node in range(n):
        assert in_lat[successors[node]] == out_lat[node]
    assert all(latency > 0 for latency in out_lat)


# ----------------------------------------------------------------------
# hier_ring: bridge structure, segment timing, cycle-free data paths


@settings(max_examples=60)
@given(hier_shapes, latencies, latencies)
def test_hier_segment_timing_charges_global_once_per_block(
    shape, local_hop, global_hop
):
    local_rings, ring_size = shape
    topology = _hier(local_rings, ring_size, local_hop, global_hop)
    latencies_out = topology.segment_latencies()
    crossing = [lat for lat in latencies_out if lat != local_hop]
    # Exactly one crossing segment per local ring, each charged the
    # local hand-off plus one global hop.
    assert len(crossing) == local_rings or local_hop == global_hop + local_hop
    total = sum(latencies_out)
    expected = (
        topology.num_nodes * local_hop + local_rings * global_hop
    )
    assert total == expected


@settings(max_examples=60)
@given(hier_shapes, st.data())
def test_hier_bridge_paths_cycle_free(shape, data):
    """Data-network shortest paths never revisit a segment: the hop
    count is bounded by half of each traversed ring, and the implied
    bridge itinerary (src ring -> global -> dst ring) is acyclic."""
    topology = _hier(*shape)
    src = data.draw(st.integers(0, topology.num_nodes - 1))
    dst = data.draw(st.integers(0, topology.num_nodes - 1))
    hops = topology.data_hop_distance(src, dst)
    assert hops == topology.data_hop_distance(dst, src)
    assert (hops == 0) == (src == dst)
    bound = (
        topology.ring_size // 2  # src local ring, shortest way
        + topology.local_rings // 2  # global ring, shortest way
        + topology.ring_size // 2  # dst local ring
    )
    assert hops <= bound
    if topology.local_ring_of(src) == topology.local_ring_of(dst):
        assert hops <= topology.ring_size // 2


@settings(max_examples=40)
@given(hier_shapes)
def test_hier_bridges_one_per_local_ring(shape):
    topology = _hier(*shape)
    bridges = topology.bridges()
    assert len(bridges) == topology.local_rings
    assert len(set(topology.local_ring_of(b) for b in bridges)) == (
        topology.local_rings
    )
    for node in range(topology.num_nodes):
        assert topology.is_bridge(node) == (node in bridges)
        assert topology.bridge_of(node) in bridges
