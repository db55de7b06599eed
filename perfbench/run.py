"""The repository's benchmark of record.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_matrix --seed 0 \\
        --seconds 15 --trace 0 [--record out.json]
    python3 perfbench/run.py --workload all     # every workload in turn

Each run prepares its inputs from ``--seed`` (untimed), then repeats
the workload in fresh child processes for ``--seconds`` seconds.
``--trace 0`` reports the end-to-end metrics: means over the
repetitions for the timed ones (see ``RUN_AVERAGE``), medians for the
others, with times and rates scaled to the reference host speed that
``yardstick.py``, run between the repetitions, measures against.
``--trace 1`` alternates untraced and traced repetitions and reports
the median per-layer split plus the tracing overhead.
Every cell's ``summary()`` is checked against the object-core
reference.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

See ``perfbench/README.md`` for the metric -> layer -> workload map.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# The package under test is imported from the checkout's source tree;
# without it the benchmark refuses to run (see main()).
if (SRC / "repro" / "__init__.py").is_file():
    sys.path.insert(0, str(SRC))
    import suite
else:
    suite = None

#: Per-repetition child timeout; a repetition is seconds long.
CHILD_TIMEOUT_S = 150
#: Fewest repetitions of each kind a run makes, whatever ``--seconds``.
MIN_REPS = 3
MIN_TRACED_REPS = 2

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "accesses_per_s": "1/s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "correct_fraction": "ratio",
}

#: End-to-end metrics a run averages over its repetitions: the mean
#: time, and for a rate the harmonic mean, i.e. the work of one
#: repetition over its mean active time.  The rest are medians.  The
#: shared host switches between fast and slow states that last from
#: seconds to minutes; the median and the fastest repetition jump
#: between the states' values as their mix shifts, while the mean
#: moves with the mix (measurements in README, "Noise and bounds").
RUN_AVERAGE = {
    "wall_s": statistics.fmean,
    "accesses_per_s": statistics.harmonic_mean,
    "cells_per_s": statistics.harmonic_mean,
}

#: End-to-end metrics reported at the reference host speed, with the
#: power of the run's host factor they are multiplied by: a time is
#: divided by it, a rate multiplied.
HOST_SCALED = {
    "wall_s": -1,
    "setup_s": -1,
    "accesses_per_s": 1,
    "cells_per_s": 1,
}

#: Seconds one ``yardstick.py`` process takes, spawn to exit, on the
#: host the benchmark was set up on when that host runs fast (a shared
#: 2-vCPU Xeon VM).  A run's host factor is its mean yardstick time
#: over this; the constant only fixes the scale of the reported values.
YARDSTICK_REF_S = 0.2

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "setup.import_s": "s",
    "workloads.source_s": "s",
    "workloads.decode_s": "s",
    "sim.construct_first_s": "s",
    "sim.construct_rest_s": "s",
    "sim.run_s": "s",
    "sim.run_us_per_access": "us",
    "sim.run_us_per_event": "us",
    "sim.cells_soa": "count",
    "sim.cells_object": "count",
    "metrics.summary_s": "s",
    "harness.cache.key_us": "us",
    "harness.cache.get_us": "us",
    "harness.cache.put_us": "us",
    "harness.cache.hit_ratio": "ratio",
    "harness.cache.entry_kb": "KiB",
    "harness.overhead_s": "s",
    "sim.events_per_access": "ratio",
    "ring.snoops_per_read": "ratio",
    "ring.crossings_per_read": "ratio",
    "core.predictor.fp_rate": "ratio",
    "core.predictor.fn_rate": "ratio",
    "coherence.memory_reads": "count",
    "coherence.dirty_evictions": "count",
    "coherence.downgrades": "count",
    "energy.nj_per_access": "nJ",
    "sim.exec_cycles": "cycles",
    "sim.read_miss_latency_cycles": "cycles",
    "sim.txn.retries": "count",
    "sim.txn.squashes": "count",
    "sim.txn.mshr_queued": "count",
    "harness.saturation.throughput": "1/kcycle",
    "harness.saturation.knee_rate": "1/kcycle",
    "perfbench.tracing_overhead_s": "s",
}

#: Spans whose self time is accounted to a named layer; the rest of
#: the timed region is ``harness.overhead_s``.
LAYER_SPANS = (
    "workloads.source",
    "sim.construct_first",
    "sim.construct_rest",
    "sim.run",
    "metrics.summary",
    "harness.cache.key",
    "harness.cache.get",
    "harness.cache.put",
)


# ----------------------------------------------------------------------
# Correctness


def score(
    reports: List[Dict[str, Any]], reference: Dict[str, str]
) -> Dict[str, int]:
    """Count cells attempted and failed over a run's repetitions.

    A cell fails when its repetition raised, when the workload did not
    produce it, or when its ``summary()`` digest differs from the
    reference.  On ``cached_figures`` every result-cache miss is a
    failure too: the workload measures serving from a filled cache, so
    a cold cache must not read as a fast run.
    """
    attempted = failed = 0
    for report in reports:
        if "error" in report:
            attempted += len(reference)
            failed += len(reference)
            continue
        cells = report["cells"]
        bad = sum(
            1 for cell, digest in reference.items()
            if (cells.get(cell) or {}).get("digest") != digest
        )
        if report["workload"] == "cached_figures":
            served = report["cache"]["hits"] + report["cache"]["misses"]
            attempted += served
            failed += min(served, report["cache"]["misses"] + bad)
        else:
            attempted += len(reference)
            failed += bad
    return {"attempted": attempted, "failed": failed}


# ----------------------------------------------------------------------
# Metrics


def _active(report: Dict[str, Any]) -> float:
    """Seconds from the first harness call to the last table."""
    return report["t_done"] - report["t_setup"]


def _totals(report: Dict[str, Any]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for cell in report["cells"].values():
        for key, value in (cell or {}).get("counters", {}).items():
            totals[key] = totals.get(key, 0) + value
    return totals


def end_to_end(t0: float, report: Dict[str, Any]) -> Dict[str, float]:
    """End-to-end values of one untraced repetition started at ``t0``."""
    active = _active(report)
    totals = _totals(report)
    if report["workload"] == "cached_figures":
        cells = report["cache"]["hits"] + report["cache"]["misses"]
        # Accesses represented by the served results, once per pass.
        accesses = totals.get("accesses", 0) * suite.CACHED_PASSES
    else:
        cells = len(report["cells"])
        accesses = totals.get("accesses", 0)
    return {
        "wall_s": report["t_done"] - t0,
        "setup_s": report["t_setup"] - t0,
        "accesses_per_s": accesses / active,
        "cells_per_s": cells / active,
        "peak_rss_mb": report["peak_rss_mb"],
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(report: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer values of one traced repetition."""
    spans = report["spans"]
    totals = _totals(report)

    def total(name: str) -> float:
        return sum(spans.get(name, []))

    def mean_us(name: str) -> float:
        values = spans.get(name, [])
        return 1e6 * statistics.fmean(values) if values else 0.0

    run_s = total("sim.run")
    accesses = totals.get("accesses", 0)
    events = totals.get("events", 0)
    simulated = report["workload"] in suite.SIMULATING
    core = report["provenance"]["core"]
    cells = len(report["cells"]) if simulated else 0
    cache = report["cache"]
    extras = report["extras"]
    accuracy_neg = totals.get("fp", 0) + totals.get("tn", 0)
    accuracy_pos = totals.get("fn", 0) + totals.get("tp", 0)
    return {
        "setup.import_s": report["t_imported"] - report["t_start"],
        "workloads.source_s": total("workloads.source"),
        "workloads.decode_s": report.get("decode_s", 0.0),
        "sim.construct_first_s": total("sim.construct_first"),
        "sim.construct_rest_s": total("sim.construct_rest"),
        "sim.run_s": run_s,
        "sim.run_us_per_access": 1e6 * _ratio(run_s, accesses),
        "sim.run_us_per_event": 1e6 * _ratio(run_s, events),
        "sim.cells_soa": cells if core == "soa" else 0,
        "sim.cells_object": cells if core == "object" else 0,
        "metrics.summary_s": report["summary_s"],
        "harness.cache.key_us": mean_us("harness.cache.key"),
        "harness.cache.get_us": mean_us("harness.cache.get"),
        "harness.cache.put_us": mean_us("harness.cache.put"),
        "harness.cache.hit_ratio": _ratio(
            cache["hits"], cache["hits"] + cache["misses"]
        ),
        "harness.cache.entry_kb": cache["entry_kb"],
        "harness.overhead_s": _active(report)
        - sum(total(name) for name in LAYER_SPANS),
        "sim.events_per_access": _ratio(events, accesses),
        "ring.snoops_per_read": _ratio(
            totals.get("read_snoops", 0), totals.get("read_transactions", 0)
        ),
        "ring.crossings_per_read": _ratio(
            totals.get("read_crossings", 0),
            totals.get("read_transactions", 0),
        ),
        "core.predictor.fp_rate": _ratio(totals.get("fp", 0), accuracy_neg),
        "core.predictor.fn_rate": _ratio(totals.get("fn", 0), accuracy_pos),
        "coherence.memory_reads": totals.get("memory_reads", 0),
        "coherence.dirty_evictions": totals.get("dirty_evictions", 0),
        "coherence.downgrades": totals.get("downgrades", 0),
        "energy.nj_per_access": _ratio(totals.get("energy_nj", 0), accesses),
        "sim.exec_cycles": totals.get("exec_cycles", 0),
        "sim.read_miss_latency_cycles": _ratio(
            totals.get("miss_latency_sum", 0), totals.get("miss_count", 0)
        ),
        "sim.txn.retries": totals.get("retries", 0),
        "sim.txn.squashes": totals.get("squashes", 0),
        "sim.txn.mshr_queued": totals.get("mshr_queued", 0),
        "harness.saturation.throughput": extras.get(
            "saturation_throughput", 0.0
        ),
        "harness.saturation.knee_rate": extras.get("knee_rate", 0.0),
    }


def medians(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {
        name: statistics.median(row[name] for row in rows)
        for name in rows[0]
    }


def condense(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """A run's end-to-end values from its repetitions' values."""
    return {
        name: RUN_AVERAGE.get(name, statistics.median)(
            [row[name] for row in rows]
        )
        for name in rows[0]
    }


def at_reference_speed(
    values: Dict[str, float], factor: float
) -> Dict[str, float]:
    """``values`` measured at host ``factor``, as they would read on
    the reference host (factor 1)."""
    return {
        name: value * factor ** HOST_SCALED.get(name, 0)
        for name, value in values.items()
    }


def yardstick() -> float:
    """Seconds one yardstick process takes, spawn to exit."""
    t0 = time.monotonic()
    subprocess.run(
        [sys.executable, str(HERE / "yardstick.py")], check=True,
        stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
    )
    return time.monotonic() - t0


# ----------------------------------------------------------------------
# Provenance


def source_digest() -> str:
    """SHA-256 over the package's Python sources: identifies the code
    under test even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` directly (no ``git``
    process, no files outside the checkout); ``unknown`` elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(
            encoding="utf-8"
        ).splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, reports: List[Dict[str, Any]]) -> Dict[str, Any]:
    from repro.harness.bench import environment_fingerprint

    ok = [report for report in reports if "error" not in report]
    first = ok[0]["provenance"] if ok else {}
    return {
        "seed": seed,
        "requested_core": first.get("requested_core"),
        "core": first.get("core"),
        "fallback": first.get("fallback"),
        "cell_cores": {
            cell: first.get("core") for cell in (ok[0]["cells"] if ok else {})
        },
        "env": environment_fingerprint(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "repetitions": len(reports),
        "repetition_wall_s": [
            report["t_done"] - report["t0"] for report in ok
            if not report["traced"]
        ],
    }


# ----------------------------------------------------------------------
# Running a workload


def load_reference(workload: str) -> Dict[str, str]:
    """Committed object-core digests for the default seed."""
    with open(HERE / "reference.json", encoding="utf-8") as handle:
        stored = json.load(handle)["workloads"][workload]
    if stored["settings"] != json.loads(json.dumps(suite.settings(workload))):
        raise SystemExit(
            "perfbench: %s settings changed since reference.json was "
            "written; run python3 perfbench/reference.py" % workload
        )
    return stored["digests"]


def prepare(workload: str, seed: int, workdir: Path) -> Dict[str, Any]:
    """Untimed preparation: inputs, the filled cache of
    ``cached_figures``, and the reference digests.

    The reference is the committed one for the default seed; for any
    other seed every cell is simulated here on the object core.  On
    ``cached_figures`` the cache is filled on the object core, so the
    fill is the reference.  The prepared files are kept under
    ``.perfbench-work/prepared/``, keyed on the workload, the seed, its
    settings and the package source, so a repeated run of the same
    code skips the work; each run copies the filled cache, so a run
    can never change what the next one reads.
    """
    key = hashlib.sha256(json.dumps(
        [workload, seed, suite.settings(workload), source_digest()]
    ).encode("utf-8")).hexdigest()[:24]
    kept = WORK / "prepared" / key
    if not (kept / "reference.json").is_file():
        staging = Path(tempfile.mkdtemp(prefix="prepare-", dir=WORK))
        trace_path = ""
        if workload == "trace_replay_cold":
            trace_path = suite.write_replay_trace(seed, staging)
        specs = suite.cell_specs(workload, seed, trace_path)
        if workload == "cached_figures":
            from repro.harness.parallel import run_specs
            from repro.harness.result_cache import ResultCache

            results = run_specs(
                list(specs.values()), jobs=1,
                cache=ResultCache(root=staging / "filled-cache"),
            )
            reference = dict(zip(specs, map(suite.digest, results)))
        elif seed == suite.DEFAULT_SEED:
            reference = {}
        else:
            reference = suite.reference_digests(specs)
        with open(staging / "reference.json", "w", encoding="utf-8") as out:
            json.dump({"digests": reference,
                       "trace": Path(trace_path).name}, out)
        kept.parent.mkdir(exist_ok=True)
        shutil.rmtree(kept, ignore_errors=True)
        os.replace(staging, kept)
    with open(kept / "reference.json", encoding="utf-8") as handle:
        stored = json.load(handle)
    context: Dict[str, Any] = {"trace_path": "", "cache_dir": ""}
    if stored["trace"]:
        context["trace_path"] = str(kept / stored["trace"])
    if workload == "cached_figures":
        context["cache_dir"] = str(workdir / "filled-cache")
        shutil.copytree(kept / "filled-cache", context["cache_dir"])
    context["reference"] = (
        load_reference(workload) if seed == suite.DEFAULT_SEED
        else stored["digests"]
    )
    return context


def run_child(
    workload: str, seed: int, traced: bool, context: Dict[str, Any],
    workdir: Path, index: int,
) -> Dict[str, Any]:
    """One repetition in a fresh process; returns its report with the
    parent's pre-spawn stamp as ``t0``."""
    cache_dir = context["cache_dir"] or str(workdir / ("cache-%d" % index))
    report_path = workdir / ("report-%d.json" % index)
    args = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "cache_dir": cache_dir,
        "trace_path": context["trace_path"],
        "report": str(report_path),
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Nothing may fall through to the user's default cache.
    env["FLEXSNOOP_CACHE_DIR"] = cache_dir
    t0 = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(args)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        done = subprocess.CompletedProcess(
            args, -1, stderr="repetition timed out after %ds"
            % CHILD_TIMEOUT_S,
        )
    if done.returncode != 0 or not report_path.is_file():
        report = {"workload": workload, "error": done.stderr[-4000:]}
    else:
        with open(report_path, encoding="utf-8") as handle:
            report = json.load(handle)
        report_path.unlink()
    if "error" in report:
        print("perfbench: repetition failed:\n%s" % report["error"],
              file=sys.stderr)
    if not context["cache_dir"]:
        shutil.rmtree(cache_dir, ignore_errors=True)
    report["t0"] = t0
    report["traced"] = traced
    return report


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool
) -> Dict[str, Any]:
    """Prepare, repeat for ``seconds``, check and summarize one
    workload; returns the run's record."""
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    WORK.mkdir(exist_ok=True)
    workdir = Path(
        tempfile.mkdtemp(prefix="%s-%d-" % (workload, seed), dir=WORK)
    )
    try:
        context = prepare(workload, seed, workdir)
        reports: List[Dict[str, Any]] = []
        # The yardstick runs before every untraced repetition and once
        # after the last, so each repetition is bracketed by two.
        yardsticks: List[float] = []
        start = time.monotonic()
        while True:
            untraced = [r for r in reports if not r["traced"]]
            traced = [r for r in reports if r["traced"]]
            enough = len(untraced) >= (MIN_TRACED_REPS if trace else MIN_REPS)
            if trace:
                enough = enough and len(traced) >= MIN_TRACED_REPS
            if enough and time.monotonic() - start >= seconds:
                break
            next_traced = trace and len(traced) < len(untraced)
            if not trace:
                yardsticks.append(yardstick())
            reports.append(run_child(
                workload, seed, next_traced, context, workdir, len(reports)
            ))
        if not trace:
            yardsticks.append(yardstick())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    counts = score(reports, context["reference"])
    good = [r for r in reports if "error" not in r]
    metrics: Dict[str, float] = {}
    host: Dict[str, Any] = {}
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not trace and untraced:
        measured = condense([end_to_end(r["t0"], r) for r in untraced])
        factor = statistics.fmean(yardsticks) / YARDSTICK_REF_S
        host = {"factor": factor, "yardstick_s": yardsticks,
                "measured": measured}
        metrics = at_reference_speed(measured, factor)
        metrics["correct_fraction"] = 1.0 - counts["failed"] / max(
            counts["attempted"], 1
        )
    elif trace and untraced and traced:
        metrics = medians([per_layer(r) for r in traced])
        metrics["perfbench.tracing_overhead_s"] = statistics.median(
            r["t_done"] - r["t0"] for r in traced
        ) - statistics.median(r["t_done"] - r["t0"] for r in untraced)
    units = PER_LAYER if trace else END_TO_END
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": counts["failed"] == 0 and len(metrics) == len(units),
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
        "host": host,
        "provenance": provenance(seed, reports),
    }


# ----------------------------------------------------------------------
# Output


def print_record(record: Dict[str, Any]) -> None:
    """Human-readable metric table and provenance of one run."""
    prov = record["provenance"]
    print(
        "perfbench %s  seed=%d  trace=%d  repetitions=%d  core=%s "
        "(requested %s)" % (
            record["workload"], record["seed"], record["trace"],
            prov["repetitions"], prov["core"], prov["requested_core"],
        )
    )
    if prov["fallback"]:
        print("  fallback to object: %s" % prov["fallback"])
    host = record["host"]
    if host:
        print("  host factor %.4g (mean yardstick %.4g s over %d; "
              "reference %.4g s)" % (
                  host["factor"], statistics.fmean(host["yardstick_s"]),
                  len(host["yardstick_s"]), YARDSTICK_REF_S,
              ))
    for name, metric in record["metrics"].items():
        line = "  %-32s %14.6g %s" % (name, metric["value"], metric["unit"])
        if name in HOST_SCALED and name in host.get("measured", {}):
            line += "  (as measured: %.6g)" % host["measured"][name]
        print(line)
    if not record["trace"]:
        print("  %-32s %14.6g %s" % (
            "failed_fraction",
            record["failed"] / max(record["attempted"], 1), "ratio",
        ))
    print("  cells attempted=%d failed=%d correct=%s" % (
        record["attempted"], record["failed"], record["correct"],
    ))
    print("provenance: %s" % json.dumps(prov, sort_keys=True))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload (see perfbench/README.md)."
    )
    parser.add_argument(
        "--workload", required=True,
        help="one of %s, or 'all'" % ", ".join(
            suite.WORKLOAD_NAMES if suite else ()
        ),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", default="",
        help="also write the full run record(s) to this JSON file",
    )
    args = parser.parse_args(argv)
    if suite is None:
        print(
            "perfbench: no package source under %s; run from a full "
            "checkout of the repository" % SRC, file=sys.stderr,
        )
        return 2
    names = (
        list(suite.WORKLOAD_NAMES) if args.workload == "all"
        else [args.workload]
    )
    if any(name not in suite.WORKLOAD_NAMES for name in names):
        parser.error("unknown workload %r" % args.workload)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    records = [
        run_workload(name, args.seed, args.seconds, bool(args.trace))
        for name in names
    ]
    for record in records:
        print_record(record)
    if args.record:
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(records, handle, indent=1, sort_keys=True)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            "%s.%s" % (record["workload"], name): metric
            for record in records
            for name, metric in record["metrics"].items()
        }
    print(json.dumps({
        "correct": all(record["correct"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
