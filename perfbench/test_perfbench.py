"""Self-tests of the benchmark's names, correctness gate, fallback
provenance, cold-cache accounting and A/B verdicts."""

import copy
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import compare
import run
import suite
from repro.harness.parallel import RunSpec, execute_spec
from repro.sim.soa import SoaUnsupportedError, check_soa_supported

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_metric_and_workload_names_are_well_formed():
    spec = benchmark_spec()
    names = (
        [w["name"] for w in spec["workloads"]]
        + [m["name"] for m in spec["end_to_end"]]
        + [m["name"] for m in spec["per_layer"]]
    )
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(
        suite.WORKLOAD_NAMES
    )
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        run.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        run.PER_LAYER
    )


def test_perturbed_summary_counts_as_failed():
    result = execute_spec(
        RunSpec(algorithm="lazy", workload="specweb", accesses_per_core=40)
    )
    reference = {"lazy/specweb": suite.digest(result)}

    def report(res):
        cells = {} if res is None else {
            "lazy/specweb": {"digest": suite.digest(res)}
        }
        return {"workload": "paper_matrix", "cells": cells}

    perturbed = copy.deepcopy(result)
    perturbed.stats.reads += 1
    assert run.score([report(result)], reference)["failed"] == 0
    assert run.score([report(perturbed)], reference) == {
        "attempted": 1, "failed": 1,
    }
    assert run.score([report(None)], reference)["failed"] == 1
    assert run.score([{"workload": "paper_matrix", "error": "boom"}],
                     reference)["failed"] == 1


def test_run_averages_time_and_takes_median_setup():
    rows = [
        {"wall_s": wall, "setup_s": setup, "accesses_per_s": 90.0 / wall,
         "cells_per_s": 3.0 / wall, "peak_rss_mb": rss}
        for wall, setup, rss in ((2.0, 0.3, 41.0), (1.0, 0.1, 40.0),
                                 (3.0, 0.2, 40.0))
    ]
    values = run.condense(rows)
    assert values["wall_s"] == pytest.approx(2.0)
    assert values["accesses_per_s"] == pytest.approx(45.0)
    assert values["cells_per_s"] == pytest.approx(1.5)
    assert values["setup_s"] == 0.2
    assert values["peak_rss_mb"] == 40.0


def test_host_factor_scales_times_and_rates_only():
    measured = {"wall_s": 3.0, "setup_s": 0.3, "accesses_per_s": 100.0,
                "cells_per_s": 2.0, "peak_rss_mb": 40.0}
    values = run.at_reference_speed(measured, 1.5)
    assert values["wall_s"] == pytest.approx(2.0)
    assert values["setup_s"] == pytest.approx(0.2)
    assert values["accesses_per_s"] == pytest.approx(150.0)
    assert values["cells_per_s"] == pytest.approx(3.0)
    assert values["peak_rss_mb"] == 40.0
    assert run.at_reference_speed(measured, 1.0) == measured


@pytest.fixture
def small_suite(monkeypatch):
    monkeypatch.setattr(suite, "SATURATION_SCALE", 20)
    monkeypatch.setattr(suite, "SATURATION_LADDER", (3.0,))
    monkeypatch.setattr(suite, "SATURATION_ALGORITHMS", ("lazy",))
    monkeypatch.setattr(suite, "SATURATION_TOPOLOGIES", ("ring",))
    monkeypatch.setattr(suite, "CACHED_SCALE", 20)
    monkeypatch.setattr(suite, "CACHED_PASSES", 1)


def test_contended_config_records_soa_fallback(small_suite, tmp_path):
    (spec,) = suite.saturation_specs(0, "soa").values()
    try:
        check_soa_supported(spec.config)
        refused = False
    except SoaUnsupportedError:
        refused = True
    report = child.run_once(
        {"workload": "loaded_saturation", "seed": 0, "traced": True,
         "cache_dir": str(tmp_path)},
        io.StringIO(),
    )
    assert "error" not in report
    provenance = report["provenance"]
    assert provenance["requested_core"] == "soa"
    assert bool(provenance["fallback"]) == refused
    assert provenance["core"] == ("object" if refused else "soa")
    layers = run.per_layer(report)
    assert layers["sim.cells_object" if refused else "sim.cells_soa"] == 1
    reference = suite.reference_digests(suite.saturation_specs(0, "object"))
    assert run.score([report], reference) == {"attempted": 1, "failed": 0}


def test_cached_figures_with_cold_cache_is_failed(small_suite, tmp_path):
    report = child.run_once(
        {"workload": "cached_figures", "seed": 0, "cache_dir": str(tmp_path)},
        io.StringIO(),
    )
    assert report["cache"]["misses"] > 0
    # Digests match themselves, so only the cold cache can fail cells.
    reference = {
        cell: info["digest"] for cell, info in report["cells"].items()
    }
    counts = run.score([report], reference)
    assert counts["failed"] >= report["cache"]["misses"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_matrix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


@pytest.mark.parametrize("parent, change, better, expected", [
    ([10.0] * 10, [8.0] * 10, "lower", "improved"),
    ([10.0] * 10, [13.0] * 10, "lower", "worse"),
    ([10.0] * 10, [10.5] * 10, "lower", "no worse"),
    ([5.0, 15.0] * 5, [5.5, 14.0] * 5, "lower", "unresolved"),
    ([10.0] * 10, [12.0] * 10, "higher", "improved"),
])
def test_ab_verdicts(parent, change, better, expected):
    assert compare.verdict(parent, change, better, 0.2) == expected


def test_ab_verdict_on_exact_counts():
    assert compare.verdict([3.0] * 4, [3.0] * 4, "lower", None) == (
        "identical"
    )
