"""One timed repetition of a benchmark workload, in a fresh process.

Run by ``run.py`` as ``python child.py '<json args>'`` with ``src`` on
``PYTHONPATH``; writes a JSON report to the path named in the args.
Every repetition is its own process so that workload sources, prewarm
memos and import state start cold, as they do for a CLI user.

The report carries three monotonic stamps (system-wide on Linux, so
the parent can subtract its own pre-spawn stamp):

* ``t_start`` - first statement of this file;
* ``t_setup`` - just before the first call into the harness, after
  importing ``repro`` and resolving the registry names;
* ``t_done`` - once the workload's last table or curve is printed.

With ``traced`` set, public calls into each layer are wrapped with
span timers (see :class:`Tracer`) for the per-layer split.
"""

import time

T_START = time.monotonic()

import contextlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from typing import Any, Callable, Dict, List, Optional, TextIO  # noqa: E402

import suite  # noqa: E402
from repro.harness.experiments import (  # noqa: E402
    ExperimentMatrix,
    format_accuracy_table,
    format_by_workload,
)
from repro.harness.parallel import RunSpec, run_specs  # noqa: E402
from repro.harness.result_cache import ResultCache  # noqa: E402
from repro.harness.saturation import (  # noqa: E402
    DEFAULT_LINK_OCCUPANCY,
    format_saturation,
    run_saturation,
)
from repro.registry import REGISTRY  # noqa: E402
from repro.sim.soa import SoaUnsupportedError  # noqa: E402
from repro.sim.system import SimulationResult  # noqa: E402
from repro.workloads.source import (  # noqa: E402
    FileReplaySource,
    SyntheticSource,
    WorkloadSource,
    descriptor_key,
)

T_IMPORTED = time.monotonic()


# ----------------------------------------------------------------------
# Tracing


class Tracer:
    """In-memory spans around public calls into each layer.

    A span is ``[name, start, end, parent]``; ``parent`` is the index
    of the span that was open when this one started (-1 at top level),
    so a layer's self time is its duration minus its children's.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []
        self._seen_sources: set = set()

    def wrap(self, name: str, fn: Callable) -> Callable:
        def timed(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = [name, time.perf_counter(), 0.0, parent]
            self.spans.append(span)
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()

        return timed

    def _create(self, original: Callable) -> Callable:
        """``REGISTRY.create``: workload creation is source work; core
        creation is construction, split into the first core built on
        each distinct source (a column of the matrix) and the rest."""

        def create(kind, name, *args, **kwargs):
            if kind == "workload":
                return self.wrap("workloads.source", original)(
                    kind, name, *args, **kwargs
                )
            if kind != "core":
                return original(kind, name, *args, **kwargs)
            source = next(
                (a for a in args if isinstance(a, WorkloadSource)), None
            )
            descriptor = source.descriptor() if source is not None else None
            key = descriptor_key(descriptor) if descriptor else id(source)
            first = key not in self._seen_sources
            self._seen_sources.add(key)
            label = "sim.construct_first" if first else "sim.construct_rest"
            system = self.wrap(label, original)(kind, name, *args, **kwargs)
            system.run = self.wrap("sim.run", system.run)
            return system

        return create

    @contextlib.contextmanager
    def installed(self):
        """Wrap the public calls; restore the originals on exit."""
        patches = [
            (RunSpec, "cache_key", "harness.cache.key"),
            (ResultCache, "get", "harness.cache.get"),
            (ResultCache, "put", "harness.cache.put"),
            (SyntheticSource, "materialize", "workloads.source"),
            (FileReplaySource, "__init__", "workloads.source"),
            (SimulationResult, "summary", "metrics.summary"),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in
                 patches]
        for owner, attr, name in patches:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
        REGISTRY.create = self._create(REGISTRY.create)
        try:
            yield self
        finally:
            del REGISTRY.create
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def self_times(self, until: float) -> Dict[str, List[float]]:
        """Self time of every span that started before ``until``,
        grouped by name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        grouped: Dict[str, List[float]] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            if start < until:
                grouped.setdefault(name, []).append(
                    end - start - child_time[index]
                )
        return grouped


# ----------------------------------------------------------------------
# Workloads.  Each returns (collect, extras): ``collect()`` runs after
# the timed region and maps cell ids to the results the workload
# produced (None for a cell it did not produce).


def with_fallback(run: Callable[[str], Any], provenance: Dict[str, Any]):
    """Request soa; if an array core refuses the configuration, rerun
    the whole command on the object core, as ``flexsnoop`` does unless
    ``--strict-core`` is given."""
    provenance["requested_core"] = suite.REQUESTED_CORE
    try:
        value = run(suite.REQUESTED_CORE)
        provenance["core"] = suite.REQUESTED_CORE
        provenance["fallback"] = ""
    except SoaUnsupportedError as exc:
        provenance["core"] = "object"
        provenance["fallback"] = str(exc)
        value = run("object")
    return value


def run_paper(seed, cache_dir, out, caches, provenance, trace_path):
    def go(core):
        cache = ResultCache(root=cache_dir)
        caches.append(cache)
        matrix = ExperimentMatrix(
            accesses_per_core=suite.PAPER_SCALE,
            seed=seed,
            algorithms=suite.PAPER_ALGORITHMS,
            jobs=1,
            result_cache=cache,
            core=core,
        )
        print(
            format_by_workload(
                "Figure 8 + criticality: execution time (normalized to "
                "Lazy)",
                matrix.fig8_execution_time(),
                fmt="%6.3f",
            ),
            file=out,
        )
        return matrix

    matrix = with_fallback(go, provenance)

    def collect():
        return {
            cell: matrix.result(spec.algorithm, spec.workload)
            for cell, spec in suite.paper_specs(
                seed, provenance["core"]
            ).items()
        }

    return collect, {}


def run_loaded(seed, cache_dir, out, caches, provenance, trace_path):
    cache = ResultCache(root=cache_dir)
    caches.append(cache)

    def go(core):
        curves = run_saturation(
            algorithms=suite.SATURATION_ALGORITHMS,
            topologies=suite.SATURATION_TOPOLOGIES,
            workload=suite.SATURATION_WORKLOAD,
            think_scales=suite.SATURATION_LADDER,
            accesses_per_core=suite.SATURATION_SCALE,
            seed=seed,
            warmup_fraction=suite.SATURATION_WARMUP,
            link_occupancy=DEFAULT_LINK_OCCUPANCY,
            serialize_snoop_port=True,
            jobs=1,
            cache=cache,
            core=core,
        )
        print(format_saturation(curves), file=out)
        return curves

    curves = with_fallback(go, provenance)
    knees = [curve.knee() for curve in curves]
    extras = {
        "saturation_throughput": statistics.fmean(
            curve.saturation_throughput for curve in curves
        ),
        "knee_rate": statistics.fmean(
            [knee.offered_rate for knee in knees if knee is not None]
            or [0.0]
        ),
    }

    def collect():
        lookup = ResultCache(root=cache_dir)
        return {
            cell: lookup.get(spec.cache_key())
            for cell, spec in suite.saturation_specs(
                seed, provenance["core"]
            ).items()
        }

    return collect, extras


def run_replay(seed, cache_dir, out, caches, provenance, trace_path):
    def go(core):
        cache = ResultCache(root=cache_dir)
        caches.append(cache)
        specs = suite.replay_specs(trace_path, core)
        results = run_specs(list(specs.values()), jobs=1, cache=cache)
        print(
            format_by_workload(
                "Trace replay (cold caches): execution time (cycles)",
                {"file": {
                    spec.algorithm: result.exec_time
                    for spec, result in zip(specs.values(), results)
                }},
                fmt="%d",
            ),
            file=out,
        )
        return dict(zip(specs, results))

    results = with_fallback(go, provenance)
    return (lambda: results), {}


def render_figure(matrix: ExperimentMatrix, figure: int) -> str:
    """Figure ``figure``'s text, as ``flexsnoop figure`` prints it."""
    if figure == 10:
        return "\n".join(
            "%-9s %-13s %-9s %6.3f" % (w, a, p, value)
            for w, by_algorithm in matrix.fig10_sensitivity().items()
            for a, by_predictor in by_algorithm.items()
            for p, value in by_predictor.items()
        )
    if figure == 11:
        return format_accuracy_table(matrix.fig11_accuracy())
    title, table = {
        6: ("Figure 6: snoops per read request",
            matrix.fig6_snoops_per_request),
        7: ("Figure 7: ring read messages", matrix.fig7_read_messages),
        8: ("Figure 8: execution time", matrix.fig8_execution_time),
        9: ("Figure 9: snoop-traffic energy", matrix.fig9_energy),
    }[figure]
    return format_by_workload(title, table(), fmt="%6.3f")


def run_cached(seed, cache_dir, out, caches, provenance, trace_path):
    provenance["requested_core"] = suite.CACHED_CORE
    provenance["core"] = suite.CACHED_CORE
    provenance["fallback"] = ""
    last_pass = []
    for _ in range(suite.CACHED_PASSES):
        last_pass = []
        for figure in suite.CACHED_FIGURES:
            cache = ResultCache(root=cache_dir)
            caches.append(cache)
            matrix = ExperimentMatrix(
                accesses_per_core=suite.CACHED_SCALE,
                seed=seed,
                jobs=1,
                result_cache=cache,
                core=suite.CACHED_CORE,
            )
            print(render_figure(matrix, figure), file=out)
            last_pass.append((figure, matrix))

    def collect():
        results: Dict[str, Optional[SimulationResult]] = {}
        for figure, matrix in last_pass:
            cells = (
                matrix.main_cells() if figure <= 9
                else matrix.sensitivity_cells()
            )
            for cell in cells:
                results[suite.cached_cell_id(*cell)] = matrix.result(*cell)
        return results

    return collect, {}


RUNNERS = {
    "paper_matrix": run_paper,
    "loaded_saturation": run_loaded,
    "trace_replay_cold": run_replay,
    "cached_figures": run_cached,
}


# ----------------------------------------------------------------------


def peak_rss_mb() -> float:
    """High-water resident memory of this process's own address space
    (Linux ``VmHWM``).

    ``getrusage``'s ``ru_maxrss`` would be wrong here: it carries the
    parent's high-water mark across the spawn, so a repetition started
    by a parent that had just simulated its reference would report the
    parent's memory instead of its own.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM")


def drain_seconds(trace_path: str) -> float:
    """Time to decode every core stream of the replay file standalone
    (the scan that indexes it is not counted)."""
    source = FileReplaySource(trace_path)
    start = time.perf_counter()
    for core in range(source.num_cores):
        for _ in source.core_stream(core):
            pass
    return time.perf_counter() - start


def run_once(args: Dict[str, Any], out: TextIO) -> Dict[str, Any]:
    """Run one repetition in this process and return its report."""
    workload = args["workload"]
    seed = args["seed"]
    # Registry resolution belongs to set-up, as in the CLI.
    for kind, name in (("core", suite.REQUESTED_CORE), ("core", "object")):
        REGISTRY.canonical(kind, name)
    tracer = Tracer() if args.get("traced") else None
    caches: List[ResultCache] = []
    provenance: Dict[str, Any] = {}
    report: Dict[str, Any] = {"workload": workload, "seed": seed}
    with tracer.installed() if tracer else contextlib.nullcontext():
        t_setup = time.monotonic()
        try:
            collect, extras = RUNNERS[workload](
                seed, args["cache_dir"], out, caches, provenance,
                args.get("trace_path", ""),
            )
        except Exception:
            report["error"] = traceback.format_exc()
            return report
        out.flush()
        t_done = time.monotonic()
        until = time.perf_counter()
        rss_mb = peak_rss_mb()
        hits = sum(cache.hits for cache in caches)
        misses = sum(cache.misses for cache in caches)
        results = collect()
        cells = {
            cell: None if result is None else {
                "digest": suite.digest(result),
                "counters": suite.counters(result),
            }
            for cell, result in results.items()
        }
    lookup = ResultCache(root=args["cache_dir"])
    entries = lookup.entry_count()
    report.update({
        "t_start": T_START,
        "t_imported": T_IMPORTED,
        "t_setup": t_setup,
        "t_done": t_done,
        "peak_rss_mb": rss_mb,
        "provenance": provenance,
        "cells": cells,
        "cache": {
            "hits": hits,
            "misses": misses,
            "entry_kb": lookup.size_bytes() / entries / 1024.0
            if entries else 0.0,
        },
        "extras": extras,
    })
    if tracer is not None:
        report["spans"] = tracer.self_times(until)
        report["summary_s"] = sum(
            tracer.self_times(float("inf")).get("metrics.summary", [])
        )
        if workload == "trace_replay_cold":
            report["decode_s"] = drain_seconds(args["trace_path"])
    return report


def main() -> int:
    args = json.loads(sys.argv[1])
    report = run_once(args, sys.stdout)
    with open(args["report"], "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
