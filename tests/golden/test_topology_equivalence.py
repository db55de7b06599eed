"""Topology-seam golden tests.

The topology refactor's bit-identity claim, checked against the same
``summaries.json`` capture the other golden suites use: selecting
``topology=ring`` *explicitly* (instead of leaving the config default)
must reproduce every golden cell byte-for-byte on both simulation
cores, and must produce the same result-cache key as the default
spelling (so warm caches survive the refactor).

Plus the hierarchical acceptance surface: all seven algorithms run on
the 16-CMP two-level ``hier_ring`` machine with tracing on and the
per-segment trace auditor reports zero violations, the soa core
matches the object core on ``hier_ring`` at 8 and 16 CMPs, and a
16-CMP trace file replays through the default machine (the torus
auto-derive fix).  Link and snoop-port contention on a plugin
topology must book the same links on both cores.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.config import default_machine
from repro.harness.experiments import run_experiment
from repro.harness.parallel import RunSpec, execute_spec
from repro.registry import REGISTRY
from repro.ring.topology import SnoopTopology

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "summaries.json")
GOLDEN_SCALE = 200

with open(GOLDEN_PATH, "r", encoding="utf-8") as _handle:
    GOLDEN_CELLS = json.load(_handle)


def _cell_id(cell) -> str:
    return "%s-%s-warmup%s" % (
        cell["algorithm"],
        cell["workload"],
        cell["warmup_fraction"],
    )


def _spec(cell, core="object", topology=None) -> RunSpec:
    return RunSpec(
        algorithm=cell["algorithm"],
        workload=cell["workload"],
        accesses_per_core=GOLDEN_SCALE,
        seed=0,
        warmup_fraction=cell["warmup_fraction"],
        core=core,
        topology=topology,
    )


@pytest.mark.parametrize("core", ["object", "soa"])
@pytest.mark.parametrize("cell", GOLDEN_CELLS, ids=_cell_id)
def test_explicit_ring_topology_matches_golden(cell, core):
    result = execute_spec(_spec(cell, core=core, topology="ring"))
    assert result.summary() == cell["summary"]


@pytest.mark.parametrize("cell", GOLDEN_CELLS[:3], ids=_cell_id)
def test_explicit_ring_shares_default_cache_key(cell):
    """topology="ring" and the unset default must hit the same cache
    entry - they resolve to the same machine."""
    assert (
        _spec(cell, topology="ring").cache_key()
        == _spec(cell).cache_key()
    )


# ----------------------------------------------------------------------
# hier_ring acceptance surface


ALL_ALGORITHMS = (
    "lazy",
    "eager",
    "oracle",
    "subset",
    "superset_con",
    "superset_agg",
    "exact",
)


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_hier_ring_16cmp_traced_run_audits_clean(algorithm):
    from repro.obs.audit import TraceAuditor
    from repro.obs.runner import run_traced

    traced = run_traced(
        algorithm,
        "specjbb",
        accesses_per_core=80,
        topology="hier_ring",
        num_cmps=16,
        check_invariants=True,
    )
    assert traced.meta["num_cmps"] == 16
    assert traced.meta["topology"] == "hier_ring"
    assert len(traced.meta["successors"]) == 16
    auditor = TraceAuditor(
        num_cmps=16, successors=traced.meta["successors"]
    )
    violations = auditor.audit(traced.events)
    assert violations == []


@pytest.mark.parametrize("cell", GOLDEN_CELLS, ids=_cell_id)
def test_hier_ring_soa_matches_object(cell):
    """The soa core hoists hier_ring's exported successor and segment
    tables into its flat arrays; every golden scenario on the default
    8-CMP hierarchy (four local rings of two) must stay bit-identical
    to the object core's per-hop walk."""
    object_result = execute_spec(_spec(cell, topology="hier_ring"))
    soa_result = execute_spec(
        _spec(cell, core="soa", topology="hier_ring")
    )
    assert soa_result.summary() == object_result.summary()


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_hier_ring_16cmp_soa_matches_object(algorithm):
    """The 16-CMP machine the saturation studies use: four local
    rings of four CMPs, each joined to the global ring by one bridge."""
    summaries = [
        execute_spec(
            RunSpec(algorithm, "specjbb", accesses_per_core=80,
                    core=core, topology="hier_ring", num_cmps=16)
        ).summary()
        for core in ("object", "soa")
    ]
    assert summaries[0] == summaries[1]


def test_hier_ring_differs_from_ring():
    """The hierarchy must actually change timing (global hops cost
    extra), otherwise the new topology is a no-op."""
    ring = execute_spec(
        RunSpec("eager", "specjbb", accesses_per_core=100,
                topology="ring", num_cmps=16)
    )
    hier = execute_spec(
        RunSpec("eager", "specjbb", accesses_per_core=100,
                topology="hier_ring", num_cmps=16)
    )
    assert ring.exec_time != hier.exec_time
    # Same coherence behaviour, different interconnect timing.
    assert (
        ring.stats.read_ring_transactions
        == hier.stats.read_ring_transactions
    )


def test_16cmp_trace_replays_through_default_machine(tmp_path):
    """Satellite: a 16-CMP trace file must shape the default machine
    without tripping the old fixed 4x2-torus validation error."""
    from repro.workloads.io import save_trace
    from repro.workloads.profiles import reshape_profile, resolve_profile
    from repro.workloads.synthetic import generate_workload

    profile = reshape_profile(
        resolve_profile("specjbb", accesses_per_core=50), 16
    )
    trace = generate_workload(profile)
    assert trace.num_cores // trace.cores_per_cmp == 16
    path = tmp_path / "jbb16.jsonl"
    save_trace(trace, str(path))

    result = execute_spec(
        RunSpec("lazy", "file:%s" % path, warmup_fraction=0.0)
    )
    assert result.exec_time > 0
    assert result.stats.reads > 0


# ----------------------------------------------------------------------
# Contention on a plugin topology


class _PackagedRing(SnoopTopology):
    """Plugin flat ring over CMPs packaged in pairs, built the way a
    third-party topology usually is: ``super().__init__(num_nodes)``,
    so it has one embedded ring whatever ``ring.num_rings`` says.
    With ``bridged`` every package-crossing segment also occupies
    that package's one shared off-package link, declared through
    ``segment_links`` alone (``link_counts`` keeps the base default)."""

    def __init__(self, num_nodes: int, bridged: bool) -> None:
        super().__init__(num_nodes)
        self.kind = "packaged_ring_bridged" if bridged else "packaged_ring"
        self._bridged = bridged

    def next_node(self, node):
        self._check(node)
        return node + 1 if node + 1 < self.num_nodes else 0

    def segment_latency(self, node):
        self._check(node)
        return 60 if node % 2 else 15

    def transfer_latency(self, src, dst):
        return 40 + 10 * self.ring_distance(src, dst)

    def segment_links(self, node):
        self._check(node)
        if self._bridged and node % 2:
            return (("ring", node), ("shared", node // 2))
        return (("ring", node),)


@pytest.fixture
def packaged_rings():
    names = ("packaged_ring", "packaged_ring_bridged")
    for name in names:
        REGISTRY.register(
            "topology",
            name,
            lambda config, bridged=name.endswith("bridged"): _PackagedRing(
                config.num_cmps, bridged
            ),
        )
    yield names
    for name in names:
        REGISTRY.unregister("topology", name)


@pytest.mark.parametrize("bridged", [False, True], ids=["plain", "bridged"])
@pytest.mark.parametrize(
    "occupancy, serialize_port", [(30, False), (600, False), (30, True)]
)
def test_plugin_topology_contention_soa_matches_object(
    packaged_rings, bridged, occupancy, serialize_port
):
    """soa books links on the keys the object walker uses: the
    topology's own ``ring_of``/``num_rings`` (here one ring under a
    two-ring config) and every distinct ``segment_links`` descriptor,
    not a block layout derived from ``link_counts()``."""
    machine = default_machine(algorithm="lazy", cores_per_cmp=1)
    machine = dataclasses.replace(
        machine,
        ring=dataclasses.replace(
            machine.ring,
            link_occupancy=occupancy,
            serialize_snoop_port=serialize_port,
        ),
    )
    assert machine.ring.num_rings == 2
    topology = packaged_rings[bridged]
    summaries = [
        run_experiment(
            "lazy", "specjbb", accesses_per_core=80, config=machine,
            topology=topology, core=core,
        ).summary()
        for core in ("object", "soa")
    ]
    assert summaries[1] == summaries[0]
