"""The benchmark's workloads: their settings, their cells and the
object-core reference each cell is checked against.

Shared by the parent (``run.py``), the timed child processes
(``child.py``), the reference generator (``reference.py``) and the
self-tests.  Everything here goes through the package's public API, so
internal refactors of the harness do not require edits to the
benchmark.

A *cell* is one simulation point, named by a stable string id.  A
cell passes when the ``summary()`` digest of the result the workload
produced equals the digest of the same cell simulated on the
``object`` reference core.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict

from repro.config import default_machine
from repro.harness.experiments import (
    DEFAULT_WARMUP,
    MAIN_ALGORITHMS,
    WORKLOADS,
    ExperimentMatrix,
)
from repro.harness.parallel import RunSpec, execute_spec
from repro.harness.saturation import DEFAULT_LINK_OCCUPANCY
from repro.sim.system import SimulationResult
from repro.workloads.io import save_trace
from repro.workloads.source import resolve_source

WORKLOAD_NAMES = (
    "paper_matrix",
    "loaded_saturation",
    "trace_replay_cold",
    "cached_figures",
)

#: Workloads whose timed region simulates (``cached_figures`` only
#: reads the result cache).
SIMULATING = ("paper_matrix", "loaded_saturation", "trace_replay_cold")

# paper_matrix: Figure 8's matrix plus criticality, cold.
PAPER_SCALE = 200
PAPER_ALGORITHMS = tuple(MAIN_ALGORITHMS) + ("criticality",)

# loaded_saturation: a think-scale ladder across the knee.  40 is the
# unloaded anchor the offered-rate extrapolation needs; 3 and 0.3 sit
# on either side of every curve's knee at this scale.
SATURATION_SCALE = 50
SATURATION_WORKLOAD = "splash2"
SATURATION_ALGORITHMS = ("lazy", "criticality")
SATURATION_TOPOLOGIES = ("ring", "hier_ring")
SATURATION_LADDER = (40.0, 3.0, 0.3)
SATURATION_WARMUP = 0.3

# trace_replay_cold: one prewarm-stripped specjbb trace, replayed with
# empty caches by a Snoop-Then-Forward, a Forward-Then-Snoop and two
# predictor-driven algorithms.
REPLAY_WORKLOAD = "specjbb"
REPLAY_SCALE = 3000
REPLAY_ALGORITHMS = ("lazy", "eager", "superset_con", "exact")

# cached_figures: Figures 6-11 re-rendered from a filled result cache,
# on the CLI's default core.  One pass renders each figure once, as six
# separate ``flexsnoop figure N`` commands would.
CACHED_SCALE = 100
CACHED_FIGURES = (6, 7, 8, 9, 10, 11)
CACHED_PASSES = 40
CACHED_CORE = "object"

#: Seed whose object-core reference digests are committed in
#: ``reference.json``.  Workload seed 0 means each profile's own
#: default seed, so this seed reproduces ``flexsnoop figure`` output.
DEFAULT_SEED = 0

#: Core every simulating workload requests; ``object`` is the fallback.
REQUESTED_CORE = "soa"


def settings(workload: str) -> Dict[str, Any]:
    """The knobs that determine a workload's cells and results.

    Stored beside the committed reference digests so a settings change
    that was not followed by a regeneration is caught.
    """
    if workload == "paper_matrix":
        return {
            "scale": PAPER_SCALE,
            "algorithms": list(PAPER_ALGORITHMS),
            "workloads": list(WORKLOADS),
        }
    if workload == "loaded_saturation":
        return {
            "scale": SATURATION_SCALE,
            "workload": SATURATION_WORKLOAD,
            "algorithms": list(SATURATION_ALGORITHMS),
            "topologies": list(SATURATION_TOPOLOGIES),
            "ladder": list(SATURATION_LADDER),
            "warmup": SATURATION_WARMUP,
            "link_occupancy": DEFAULT_LINK_OCCUPANCY,
        }
    if workload == "trace_replay_cold":
        return {
            "scale": REPLAY_SCALE,
            "workload": REPLAY_WORKLOAD,
            "algorithms": list(REPLAY_ALGORITHMS),
        }
    if workload == "cached_figures":
        return {"scale": CACHED_SCALE, "figures": list(CACHED_FIGURES)}
    raise ValueError("unknown workload %r" % workload)


# ----------------------------------------------------------------------
# Cells


def paper_specs(seed: int, core: str) -> Dict[str, RunSpec]:
    """The cells ``ExperimentMatrix`` simulates for paper_matrix."""
    return {
        "%s/%s" % (algorithm, workload): RunSpec(
            algorithm=algorithm,
            workload=workload,
            accesses_per_core=PAPER_SCALE,
            seed=seed,
            warmup_fraction=DEFAULT_WARMUP,
            core=core,
        )
        for workload in WORKLOADS
        for algorithm in PAPER_ALGORITHMS
    }


def saturation_cmps(topology: str) -> int:
    """Machine span ``run_saturation`` picks when ``num_cmps`` is 0:
    the 16-CMP two-level machine for hier_ring, the workload's own
    geometry otherwise."""
    return 16 if topology == "hier_ring" else 0


def saturation_specs(seed: int, core: str) -> Dict[str, RunSpec]:
    """The cells ``run_saturation`` simulates for loaded_saturation.

    Built from public calls the way the study builds them: the default
    machine shaped to the (possibly reshaped) workload, with the ring
    contention models switched on.  If the study ever builds its
    points differently, the cache lookups of these specs miss and the
    benchmark reports the cells as failed rather than passing silently.
    """
    specs: Dict[str, RunSpec] = {}
    for algorithm in SATURATION_ALGORITHMS:
        for topology in SATURATION_TOPOLOGIES:
            num_cmps = saturation_cmps(topology)
            source = resolve_source(
                SATURATION_WORKLOAD,
                accesses_per_core=SATURATION_SCALE,
                seed=seed,
                num_cmps=num_cmps,
            )
            machine = default_machine(
                algorithm=algorithm,
                cores_per_cmp=source.cores_per_cmp,
                num_cmps=source.num_cmps,
            )
            machine = machine.replace(
                ring=dataclasses.replace(
                    machine.ring,
                    link_occupancy=DEFAULT_LINK_OCCUPANCY,
                    serialize_snoop_port=True,
                )
            )
            for think_scale in sorted(SATURATION_LADDER, reverse=True):
                cell = "%s/%s/%g" % (algorithm, topology, think_scale)
                specs[cell] = RunSpec(
                    algorithm=algorithm,
                    workload=SATURATION_WORKLOAD,
                    accesses_per_core=SATURATION_SCALE,
                    seed=seed,
                    warmup_fraction=SATURATION_WARMUP,
                    config=machine,
                    core=core,
                    topology=topology,
                    num_cmps=num_cmps,
                    think_scale=think_scale,
                )
    return specs


def replay_specs(trace_path: str, core: str) -> Dict[str, RunSpec]:
    """The cells of trace_replay_cold: caches start empty."""
    return {
        algorithm: RunSpec(
            algorithm=algorithm,
            workload="file:" + trace_path,
            warmup_fraction=0.0,
            core=core,
        )
        for algorithm in REPLAY_ALGORITHMS
    }


def cached_cell_id(algorithm: str, workload: str, predictor) -> str:
    return "%s/%s/%s" % (algorithm, workload, predictor or "-")


def cached_specs(seed: int) -> Dict[str, RunSpec]:
    """The 57 distinct cells Figures 6-11 read (main + sensitivity)."""
    matrix = ExperimentMatrix(accesses_per_core=CACHED_SCALE, seed=seed)
    specs: Dict[str, RunSpec] = {}
    for algorithm, workload, predictor in (
        matrix.main_cells() + matrix.sensitivity_cells()
    ):
        specs[cached_cell_id(algorithm, workload, predictor)] = RunSpec(
            algorithm=algorithm,
            workload=workload,
            predictor=predictor,
            accesses_per_core=CACHED_SCALE,
            seed=seed,
            warmup_fraction=DEFAULT_WARMUP,
            core=CACHED_CORE,
        )
    return specs


def write_replay_trace(seed: int, directory: Path) -> str:
    """Generate the replay trace from ``seed``, strip its prewarm
    records (so the replay starts from empty caches and bypasses the
    prewarm layer) and save it; returns the file's path."""
    trace = resolve_source(
        REPLAY_WORKLOAD, accesses_per_core=REPLAY_SCALE, seed=seed
    ).materialize()
    path = Path(directory) / ("replay-%d.jsonl" % seed)
    save_trace(dataclasses.replace(trace, prewarm=[]), path)
    return str(path)


# ----------------------------------------------------------------------
# Results


def digest(result: SimulationResult) -> str:
    """Digest of ``summary()``; equal digests mean bit-identical
    summaries (floats are written with ``repr`` precision)."""
    canonical = json.dumps(result.summary(), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:20]


def counters(result: SimulationResult) -> Dict[str, float]:
    """The raw per-cell counters the per-layer metrics aggregate."""
    stats = result.stats
    accuracy = stats.accuracy
    return {
        "accesses": stats.reads + stats.writes,
        "events": result.events,
        "read_transactions": stats.read_ring_transactions,
        "read_snoops": stats.read_snoops,
        "read_crossings": stats.read_ring_crossings,
        "fp": accuracy.false_positive,
        "tn": accuracy.true_negative,
        "fn": accuracy.false_negative,
        "tp": accuracy.true_positive,
        "memory_reads": stats.reads_supplied_by_memory,
        "dirty_evictions": stats.dirty_evictions,
        "downgrades": stats.downgrades,
        "energy_nj": result.total_energy,
        "exec_cycles": result.exec_time,
        "miss_latency_sum": stats.read_miss_latency_sum,
        "miss_count": stats.read_miss_count,
        "retries": stats.retries,
        "squashes": stats.squashes,
        "mshr_queued": stats.mshr_queued,
    }


def reference_digests(specs: Dict[str, RunSpec]) -> Dict[str, str]:
    """Simulate every cell on the object core and digest it."""
    return {
        cell: digest(execute_spec(dataclasses.replace(spec, core="object")))
        for cell, spec in specs.items()
    }


def cell_specs(workload: str, seed: int, trace_path: str = "") -> Dict[
    str, RunSpec
]:
    """Every cell of ``workload`` at ``seed``, requesting the core the
    workload requests."""
    if workload == "paper_matrix":
        return paper_specs(seed, REQUESTED_CORE)
    if workload == "loaded_saturation":
        return saturation_specs(seed, REQUESTED_CORE)
    if workload == "trace_replay_cold":
        return replay_specs(trace_path, REQUESTED_CORE)
    if workload == "cached_figures":
        return cached_specs(seed)
    raise ValueError("unknown workload %r" % workload)

