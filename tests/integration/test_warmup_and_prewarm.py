"""Integration tests for the measurement-window machinery: statistics
warmup and cache prewarm."""

from __future__ import annotations

import dataclasses
from collections import OrderedDict

import pytest

from repro.config import CacheConfig, PredictorConfig, default_machine
from repro.coherence.states import LineState
from repro.core.algorithms import build_algorithm
from repro.registry import REGISTRY
from repro.sim import prewarm
from repro.sim.system import RingMultiprocessor
from repro.workloads.synthetic import SharingProfile, generate_workload


def profile(prewarm_fraction=0.0, seed=23):
    return SharingProfile(
        name="warm",
        num_cores=4,
        cores_per_cmp=1,
        accesses_per_core=400,
        p_shared=0.3,
        p_cold=0.1,
        shared_lines=64,
        private_lines=128,
        prewarm_fraction=prewarm_fraction,
        seed=seed,
    )


def build(prewarm_fraction=0.0, warmup_fraction=0.0):
    workload = generate_workload(profile(prewarm_fraction))
    machine = default_machine(
        algorithm="lazy",
        num_cmps=4,
        cores_per_cmp=1,
        cache=CacheConfig(num_lines=256, associativity=8),
        track_versions=True,
    )
    return RingMultiprocessor(
        machine,
        build_algorithm("lazy"),
        workload,
        warmup_fraction=warmup_fraction,
    )


# ----------------------------------------------------------------------
# Warmup (statistics reset)


def test_warmup_reduces_counted_accesses():
    full = build(warmup_fraction=0.0).run()
    measured = build(warmup_fraction=0.5).run()
    assert measured.stats.reads < full.stats.reads
    assert measured.stats.reads > 0


def test_warmup_shrinks_exec_time_window():
    full = build(warmup_fraction=0.0).run()
    measured = build(warmup_fraction=0.5).run()
    assert measured.exec_time < full.exec_time


def test_warmup_lowers_compulsory_miss_share():
    """After warmup the caches are trained, so the memory-supplied
    share of ring reads drops."""
    cold = build(warmup_fraction=0.0).run()
    warm = build(warmup_fraction=0.6).run()
    assert (
        warm.stats.supplier_found_fraction
        >= cold.stats.supplier_found_fraction
    )


def test_invalid_warmup_fraction_rejected():
    workload = generate_workload(profile())
    machine = default_machine(algorithm="lazy", num_cmps=4,
                              cores_per_cmp=1)
    with pytest.raises(ValueError):
        RingMultiprocessor(
            machine, build_algorithm("lazy"), workload,
            warmup_fraction=1.0,
        )


# ----------------------------------------------------------------------
# Prewarm (initial cache contents)


def test_prewarm_installs_exclusive_lines():
    system = build(prewarm_fraction=1.0)
    workload = system.workload
    assert workload.prewarm
    for core, lines in zip(system.cores, workload.prewarm):
        cache = system.nodes[core.cmp_id].caches[core.local_id]
        resident = [a for a in lines if a in cache]
        # Set conflicts may evict a few prewarmed lines; the bulk must
        # be resident, and everything resident must be Exclusive.
        assert len(resident) > 0.85 * len(lines)
        for address in resident:
            assert cache.state_of(address) is LineState.E


def test_prewarm_trains_predictors():
    workload = generate_workload(profile(prewarm_fraction=1.0))
    machine = default_machine(
        algorithm="subset",
        num_cmps=4,
        cores_per_cmp=1,
        cache=CacheConfig(num_lines=256, associativity=8),
    )
    system = RingMultiprocessor(
        machine, build_algorithm("subset"), workload
    )
    predictor = system.nodes[0].predictor
    hits = sum(
        1 for address in workload.prewarm[0] if address in predictor
    )
    assert hits > 0


def test_prewarm_eliminates_private_cold_misses():
    cold = build(prewarm_fraction=0.0).run()
    warm = build(prewarm_fraction=1.0).run()
    # Private lines now hit; ring reads shrink to shared + cold pools.
    assert warm.stats.read_ring_transactions < (
        cold.stats.read_ring_transactions
    )


def test_prewarm_hot_lines_survive_capacity():
    """The prewarm list is installed hottest-last (MRU), so when the
    pool exceeds the cache, the hot head survives."""
    workload = generate_workload(
        SharingProfile(
            name="overflow",
            num_cores=4,
            cores_per_cmp=1,
            accesses_per_core=10,
            p_shared=0.0,
            p_cold=0.0,
            private_lines=512,  # 2x the 256-line cache
            prewarm_fraction=1.0,
            seed=3,
        )
    )
    machine = default_machine(
        algorithm="lazy",
        num_cmps=4,
        cores_per_cmp=1,
        cache=CacheConfig(num_lines=256, associativity=8),
    )
    system = RingMultiprocessor(machine, build_algorithm("lazy"),
                                workload)
    cache = system.nodes[0].caches[0]
    hot = workload.prewarm[0][:32]
    resident = sum(1 for address in hot if address in cache)
    assert resident > 24  # the hot head is (almost) fully resident


def test_prewarm_mismatched_length_rejected():
    workload = generate_workload(profile(prewarm_fraction=0.5))
    workload.prewarm.pop()
    with pytest.raises(ValueError):
        workload.validate()


# ----------------------------------------------------------------------
# Prewarm image and memo (repro.sim.prewarm)


def overflow_profile(seed=11, cores_per_cmp=1, think_scale=1.0):
    """Private pool at 2x cache capacity, so prewarm exercises the
    conflict-eviction branch as well as plain fills."""
    return SharingProfile(
        name="overflow",
        num_cores=4 * cores_per_cmp,
        cores_per_cmp=cores_per_cmp,
        accesses_per_core=100,
        p_shared=0.2,
        p_cold=0.05,
        shared_lines=32,
        private_lines=512,
        prewarm_fraction=1.0,
        seed=seed,
        think_scale=think_scale,
    )


#: Small predictor tables, so Subset drops and Exact downgrades on
#: conflict during prewarm.
SMALL_PREDICTORS = {
    "subset": PredictorConfig(kind="subset", entries=128),
    "superset_con": None,
    "exact": PredictorConfig(kind="exact", entries=128),
}


def build_for(
    algorithm, workload, cores_per_cmp=1, core="object", predictor=None,
    **fields,
):
    machine = default_machine(
        algorithm=algorithm,
        num_cmps=4,
        cores_per_cmp=cores_per_cmp,
        cache=CacheConfig(num_lines=256, associativity=8),
        **fields,
    )
    if predictor is not None:
        machine = machine.replace(predictor=predictor)
    return REGISTRY.create(
        "core", core, machine, build_algorithm(algorithm), workload
    )


def machine_state(system):
    """Everything prewarm touches, in comparable form: per-core cache
    contents in LRU order, fill/eviction counters, the line registry,
    and per-node predictor state."""
    caches = []
    for core in system.cores:
        cache = system.nodes[core.cmp_id].caches[core.local_id]
        caches.append(
            (
                [
                    [
                        (address, line.state, line.version)
                        for address, line in cache_set.items()
                    ]
                    for cache_set in cache._sets
                ],
                cache.fills,
                cache.evictions,
                cache.dirty_evictions,
            )
        )
    predictors = [
        node.predictor.prewarm_snapshot() for node in system.nodes
    ]
    return (
        caches,
        dict(system._supplier_of),
        dict(system._holder_count),
        predictors,
    )


def downgrade_state(system):
    """Prewarm's Exact downgrade charges and the presence filters."""
    return (
        system.stats.downgrades,
        system.energy.breakdown.downgrade_ops,
        set(system.datapath._downgraded),
        [
            (p.filter.snapshot(), p.updates, p.lookups)
            for p in system.presence
        ],
    )


def test_prewarm_fast_path_matches_generic_fill():
    """Installing the prewarm image must be observably identical to
    filling every line through the generic ``cache.fill`` path with
    the real callbacks (registry, predictor training, presence
    filters) and Exact's real downgrade handler - for Subset, Superset
    and Exact, with and without the write-snoop presence filter - and
    the soa core must run the same image to the same summary."""
    workload = generate_workload(overflow_profile(cores_per_cmp=2))
    # Re-listing a few lines exercises the duplicate (update in place)
    # path, including an SL line regaining its supplier role.
    workload.prewarm = [lines + lines[:48] for lines in workload.prewarm]
    bare = dataclasses.replace(workload, prewarm=[])
    for algorithm, predictor in SMALL_PREDICTORS.items():
        for filter_write_snoops in (False, True):
            fast = build_for(
                algorithm, workload, 2, predictor=predictor,
                filter_write_snoops=filter_write_snoops,
            )
            generic = build_for(
                algorithm, bare, 2, predictor=predictor,
                filter_write_snoops=filter_write_snoops,
            )
            for core, lines in zip(generic.cores, workload.prewarm):
                cache = generic.nodes[core.cmp_id].caches[core.local_id]
                for address in reversed(lines):
                    cache.fill(address, LineState.E, 0)

            assert machine_state(fast) == machine_state(generic)
            assert downgrade_state(fast) == downgrade_state(generic)
            if filter_write_snoops:
                assert downgrade_state(fast)[3][0][1] > 0
            else:
                soa = build_for(
                    algorithm, workload, 2, core="soa", predictor=predictor
                )
                assert soa.run().summary() == fast.run().summary()
        # The overflow pool must actually have exercised evictions
        # (and Exact its downgrades), or the comparison above proves
        # less than it claims.
        assert all(state[2] > 0 for state in machine_state(fast)[0])
        if algorithm == "exact":
            assert downgrade_state(generic)[0] > 0


@pytest.fixture
def walks(monkeypatch):
    """An empty image memo; the returned list records every walk."""
    monkeypatch.setattr(prewarm, "_IMAGES", OrderedDict())
    walked = []
    original = prewarm._walk

    def spy(lines, config):
        walked.append(config.predictor)
        return original(lines, config)

    monkeypatch.setattr(prewarm, "_walk", spy)
    return walked


@pytest.mark.parametrize("algorithm", ["oracle", "subset", "superset_con"])
def test_prewarm_memo_matches_full_walk(algorithm, walks, monkeypatch):
    """A machine built from a memoized image must be in exactly the
    state a full walk produces, and run bit-identically."""
    workload = generate_workload(overflow_profile())
    first = build_for(algorithm, workload)  # walks and stores the image
    assert len(walks) == 1
    memoized = build_for(algorithm, workload)
    # An equal-but-distinct trace object has the same prewarm lists,
    # so it shares the content-keyed image too.
    distinct = build_for(algorithm, generate_workload(overflow_profile()))
    assert len(walks) == 1

    monkeypatch.setattr(prewarm, "_IMAGES", OrderedDict())
    walked = build_for(algorithm, workload)  # the reference walk
    assert len(walks) == 2

    assert machine_state(memoized) == machine_state(walked)
    assert machine_state(memoized) == machine_state(first)
    assert machine_state(distinct) == machine_state(first)
    assert memoized.run().summary() == walked.run().summary()


def test_prewarm_memo_shared_per_exact_config(walks):
    """Exact's conflict downgrades make the walk depend on the
    predictor, so its images are keyed on the predictor config: one
    image per Exact config, shared by both cores, distinct from the
    image every non-Exact predictor shares."""
    workload = generate_workload(overflow_profile())
    small = {"predictor": SMALL_PREDICTORS["exact"]}
    first = build_for("exact", workload, **small)
    second = build_for("exact", workload, **small)
    soa = build_for("exact", workload, core="soa", **small)
    assert walks == [SMALL_PREDICTORS["exact"]]
    assert machine_state(first) == machine_state(second)
    assert downgrade_state(first) == downgrade_state(second)
    assert downgrade_state(first)[0] > 0
    assert soa.run().summary() == first.run().summary()

    build_for("exact", workload)  # Exa2k: a second Exact image
    build_for("subset", workload)
    build_for("superset_con", workload, core="soa")  # shares subset's
    assert [config.kind for config in walks] == ["exact", "exact", "subset"]
    assert len(prewarm._IMAGES) == 3


def test_prewarm_memo_rekeyed_on_source_descriptor(walks):
    """Two *distinct* sources with equal profiles share one image: the
    key is the prewarm content, not the source object or its
    descriptor.  Another seed draws other accesses from the same
    private pool, so it shares the image too; a smaller prewarm
    fraction changes the lists and walks again."""
    from repro.workloads.source import SyntheticSource

    first = build_for("subset", SyntheticSource(overflow_profile()))
    assert len(walks) == 1
    second = build_for("subset", SyntheticSource(overflow_profile()))
    assert len(walks) == 1
    assert machine_state(first) == machine_state(second)

    build_for("subset", SyntheticSource(overflow_profile(seed=12)))
    assert len(walks) == 1
    half = dataclasses.replace(overflow_profile(), prewarm_fraction=0.5)
    build_for("subset", SyntheticSource(half))
    assert len(walks) == 2
    assert len(prewarm._IMAGES) == 2


def test_prewarm_memo_shared_across_file_and_memory(tmp_path, walks):
    """An in-memory trace and its ``file:`` replay have the same
    prewarm lists, so they share one image; so does a second replay
    of the file (new source object, new scan)."""
    from repro.workloads.io import save_trace
    from repro.workloads.source import FileReplaySource

    workload = generate_workload(overflow_profile())
    path = tmp_path / "overflow.jsonl"
    save_trace(workload, path)

    direct = build_for("subset", workload)
    first = build_for("subset", FileReplaySource(path))
    second = build_for("subset", FileReplaySource(path))
    assert len(walks) == 1
    assert machine_state(first) == machine_state(second)
    assert machine_state(first) == machine_state(direct)


def test_prewarm_image_shared_across_think_scales(walks):
    """Think-time re-pacing leaves the prewarm lists unchanged, so
    every rung of a saturation ladder shares one image."""
    from repro.workloads.source import SyntheticSource

    native = build_for("subset", SyntheticSource(overflow_profile()))
    paced = build_for(
        "subset", SyntheticSource(overflow_profile(think_scale=0.25))
    )
    assert len(walks) == 1
    assert machine_state(native) == machine_state(paced)
