"""Unit tests for the parallel execution layer (in-process paths).

Pool-based execution is covered by the integration suite
(``tests/integration/test_parallel_equivalence.py``); these tests pin
down the spec/caching semantics without spawning processes.
"""

from __future__ import annotations

import pytest

from repro.config import ConfigError, MachineConfig, default_machine
from repro.harness import parallel as parallel_module
from repro.harness.experiments import ExperimentMatrix, run_experiment
from repro.harness.parallel import (
    RunSpec,
    _cached_source,
    default_jobs,
    execute_spec,
    run_specs,
)
from repro.harness.result_cache import ResultCache

TINY = 100


def test_run_spec_is_hashable_and_frozen():
    spec = RunSpec("lazy", "specjbb", accesses_per_core=TINY)
    assert spec == RunSpec("lazy", "specjbb", accesses_per_core=TINY)
    assert hash(spec) == hash(
        RunSpec("lazy", "specjbb", accesses_per_core=TINY)
    )
    with pytest.raises(AttributeError):
        spec.seed = 1


def test_resolve_config_predictor_override():
    spec = RunSpec("subset", "specjbb", predictor="Sub512")
    assert spec.resolve_config(1).predictor.entries == 512
    # A full config override still honours the predictor name.
    base = default_machine(algorithm="subset", cores_per_cmp=1)
    spec = RunSpec("subset", "specjbb", predictor="Sub8k", config=base)
    assert spec.resolve_config(1).predictor.entries == 8192


def test_config_override_shape_conflict_fails_before_any_work(monkeypatch):
    """A config override whose CMP span disagrees with the workload's
    is refused by ``resolve_config`` with one line naming both spans,
    before a key is computed or a simulation is set up."""
    spec = RunSpec(
        algorithm="lazy",
        workload="splash2",
        config=MachineConfig(),
        num_cmps=16,
    )

    def no_build(name):
        raise AssertionError("a simulation was set up")

    monkeypatch.setattr(parallel_module, "build_algorithm", no_build)
    for attempt in (spec.cache_key, lambda: execute_spec(spec)):
        with pytest.raises(ConfigError) as excinfo:
            attempt()
        message = str(excinfo.value)
        assert "\n" not in message
        assert "16 CMPs" in message and "8 CMPs" in message


def test_execute_spec_matches_run_experiment():
    spec = RunSpec(
        "eager", "specjbb", accesses_per_core=TINY,
        warmup_fraction=0.35,
    )
    via_spec = execute_spec(spec)
    via_helper = run_experiment(
        "eager", "specjbb", accesses_per_core=TINY,
        warmup_fraction=0.35,
    )
    assert via_spec.stats == via_helper.stats
    assert via_spec.exec_time == via_helper.exec_time
    assert via_spec.energy == via_helper.energy


def test_run_specs_preserves_input_order():
    specs = [
        RunSpec("eager", "specjbb", accesses_per_core=TINY,
                warmup_fraction=0.35),
        RunSpec("lazy", "specjbb", accesses_per_core=TINY,
                warmup_fraction=0.35),
    ]
    results = run_specs(specs, jobs=1)
    assert [r.algorithm for r in results] == ["eager", "lazy"]


def test_default_jobs_respects_affinity_mask(monkeypatch):
    # Under cgroup limits or taskset the process may be allowed fewer
    # CPUs than the machine has; default_jobs() must size the pool to
    # the allowed set, not the hardware.
    monkeypatch.setattr(
        parallel_module.os, "sched_getaffinity", lambda pid: {0, 3}
    )
    monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 64)
    assert default_jobs() == 2


def test_default_jobs_falls_back_without_affinity(monkeypatch):
    # macOS/Windows have no sched_getaffinity.
    monkeypatch.delattr(
        parallel_module.os, "sched_getaffinity", raising=False
    )
    monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 6)
    assert default_jobs() == 6
    monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: None)
    assert default_jobs() == 1


def test_run_specs_jobs_zero_means_auto():
    assert default_jobs() >= 1
    results = run_specs(
        [RunSpec("lazy", "specjbb", accesses_per_core=TINY,
                 warmup_fraction=0.35)],
        jobs=0,
    )
    assert results[0].algorithm == "lazy"


def test_source_resolved_once_per_workload(monkeypatch):
    """A sweep/matrix over one workload must not re-resolve the source
    per point (the old run_sweep rebuilt the trace for every swept
    value)."""
    calls = []
    real = parallel_module.resolve_source

    def counting(name, accesses_per_core=0, seed=0, num_cmps=0,
                 think_scale=1.0):
        calls.append((name, accesses_per_core, seed))
        return real(
            name,
            accesses_per_core=accesses_per_core,
            seed=seed,
            num_cmps=num_cmps,
            think_scale=think_scale,
        )

    _cached_source.cache_clear()
    monkeypatch.setattr(parallel_module, "resolve_source", counting)
    specs = [
        RunSpec(algorithm, "specjbb", accesses_per_core=TINY,
                warmup_fraction=0.35)
        for algorithm in ("lazy", "eager", "oracle")
    ]
    run_specs(specs, jobs=1)
    assert calls == [("specjbb", TINY, 0)]
    _cached_source.cache_clear()


def test_sweep_resolves_source_once(monkeypatch):
    from repro.harness.sweep import sweep_ring_field

    calls = []
    real = parallel_module.resolve_source

    def counting(name, accesses_per_core=0, seed=0, num_cmps=0,
                 think_scale=1.0):
        calls.append(name)
        return real(
            name,
            accesses_per_core=accesses_per_core,
            seed=seed,
            num_cmps=num_cmps,
            think_scale=think_scale,
        )

    _cached_source.cache_clear()
    monkeypatch.setattr(parallel_module, "resolve_source", counting)
    sweep = sweep_ring_field(
        "snoop_time",
        [10, 55, 110],
        algorithm="lazy",
        workload="specjbb",
        accesses_per_core=TINY,
        warmup_fraction=0.0,
    )
    assert len(sweep.points) == 3
    assert calls == ["specjbb"]
    _cached_source.cache_clear()


def test_matrix_warm_cache_runs_zero_simulations(tmp_path):
    """The acceptance criterion: a second matrix (fresh process state
    simulated by a fresh ExperimentMatrix) over a warm cache performs
    zero new simulations - every cell is a cache hit."""
    root = tmp_path / "cache"
    kwargs = dict(
        accesses_per_core=TINY,
        algorithms=("lazy", "eager"),
        workloads=("specjbb",),
        jobs=1,
    )

    cold_cache = ResultCache(root=root)
    cold = ExperimentMatrix(result_cache=cold_cache, **kwargs)
    cold_fig6 = cold.fig6_snoops_per_request()
    assert cold_cache.misses > 0 and cold_cache.stores > 0

    warm_cache = ResultCache(root=root)
    warm = ExperimentMatrix(result_cache=warm_cache, **kwargs)
    warm_fig6 = warm.fig6_snoops_per_request()
    assert warm_cache.misses == 0, "warm run must not simulate"
    assert warm_cache.hits == cold_cache.stores
    assert warm_fig6 == cold_fig6

    # Another figure derived from the same matrix is also free.
    warm.fig8_execution_time()
    assert warm_cache.misses == 0


def test_matrix_memoizes_in_memory(tmp_path):
    cache = ResultCache(root=tmp_path / "cache")
    matrix = ExperimentMatrix(
        accesses_per_core=TINY,
        algorithms=("lazy",),
        workloads=("specjbb",),
        jobs=1,
        result_cache=cache,
    )
    first = matrix.result("lazy", "specjbb")
    second = matrix.result("lazy", "specjbb")
    assert first is second
    assert cache.hits == 0  # in-memory memo short-circuits the disk
