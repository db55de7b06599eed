"""Golden-equivalence tests for the struct-of-arrays core.

The SoA core (``core=soa``) replaces the object core's subsystem
seams with one fused event loop over integer-coded state; its whole
claim is that this is a *mechanical* transformation.  Two checks pin
that claim to the same golden capture the hot-path optimizations are
checked against:

* every golden cell, executed through the normal harness path with
  ``RunSpec(core="soa")``, produces a summary bit-identical to the
  pre-optimization golden capture (and therefore to the object core,
  which is pinned to the same file by ``test_golden_equivalence``);
* the fingerprints of the two cores differ, so the result cache never
  serves one core's entry for the other (their ``events`` counts are
  diagnostic and differ even though summaries match);
* the loaded regime: the saturation study's contended cells (link
  occupancy and serialized snoop ports, ring and 16-CMP hier_ring)
  produce the same summary on both cores.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict

import pytest

from repro.config import default_machine
from repro.core.algorithms import build_algorithm
from repro.harness.parallel import RunSpec, execute_spec
from repro.harness.saturation import (
    DEFAULT_LINK_OCCUPANCY,
    _saturation_spec,
    _study_cmps,
)
from repro.sim import prewarm, soa
from repro.sim.system import RingMultiprocessor
from repro.workloads.source import SyntheticSource
from repro.workloads.synthetic import SharingProfile

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "summaries.json")

#: Accesses per core the golden cells were captured at.
GOLDEN_SCALE = 200

with open(GOLDEN_PATH, "r", encoding="utf-8") as _handle:
    GOLDEN_CELLS = json.load(_handle)


def _cell_id(cell) -> str:
    return "%s-%s-warmup%s" % (
        cell["algorithm"],
        cell["workload"],
        cell["warmup_fraction"],
    )


def _soa_spec(cell) -> RunSpec:
    return RunSpec(
        algorithm=cell["algorithm"],
        workload=cell["workload"],
        accesses_per_core=GOLDEN_SCALE,
        seed=0,
        warmup_fraction=cell["warmup_fraction"],
        core="soa",
    )


@pytest.mark.parametrize("cell", GOLDEN_CELLS, ids=_cell_id)
def test_soa_summary_matches_golden(cell):
    result = execute_spec(_soa_spec(cell))
    assert result.summary() == cell["summary"]


def test_soa_fingerprint_differs_from_object():
    cell = GOLDEN_CELLS[0]
    soa = _soa_spec(cell)
    obj = RunSpec(
        algorithm=cell["algorithm"],
        workload=cell["workload"],
        accesses_per_core=GOLDEN_SCALE,
        seed=0,
        warmup_fraction=cell["warmup_fraction"],
    )
    assert soa.fingerprint(cores_per_cmp=1) != obj.fingerprint(
        cores_per_cmp=1
    )


def test_soa_memo_restore_matches_full_walk_and_object(monkeypatch):
    """A second soa machine on the same prewarmed workload installs
    the memoized prewarm image instead of walking; its run must be
    indistinguishable from the first machine's, and both must match
    the object core."""
    monkeypatch.setattr(prewarm, "_IMAGES", OrderedDict())
    walks = []
    original = prewarm._walk
    monkeypatch.setattr(
        prewarm,
        "_walk",
        lambda lines, config: walks.append(1) or original(lines, config),
    )
    profile = SharingProfile(
        name="memo-restore",
        num_cores=4,
        cores_per_cmp=1,
        accesses_per_core=60,
        prewarm_fraction=0.5,
        seed=7,
    )
    machine = default_machine(algorithm="lazy", cores_per_cmp=1, num_cmps=4)

    def build(core_cls):
        return core_cls(
            machine, build_algorithm("lazy"), SyntheticSource(profile)
        )

    first = build(soa.SoaRingMultiprocessor)
    second = build(soa.SoaRingMultiprocessor)
    assert len(walks) == 1, "the second machine installs the memo"
    assert second._pending_sets is first._pending_sets
    first_summary = first.run().summary()
    assert second.run().summary() == first_summary
    assert build(RingMultiprocessor).run().summary() == first_summary


#: The saturation study's contended cells: two primitives' worth of
#: policy (lazy is Snoop-Then-Forward throughout, criticality switches
#: to Forward-Then-Snoop under pressure) x both topologies x a light,
#: a knee-side and a saturated rung of the injection ladder.
SATURATION_CELLS = [
    (algorithm, topology, think_scale)
    for algorithm in ("lazy", "criticality")
    for topology in ("ring", "hier_ring")
    for think_scale in (40.0, 3.0, 0.3)
]


@pytest.mark.parametrize(
    "cell", SATURATION_CELLS, ids=lambda cell: "%s-%s-x%s" % cell
)
def test_soa_matches_object_on_saturation_cells(cell):
    algorithm, topology, think_scale = cell
    summaries = [
        execute_spec(
            _saturation_spec(
                algorithm, topology, "splash2", think_scale,
                50, 0, 0.3, DEFAULT_LINK_OCCUPANCY, True,
                _study_cmps(topology, 0), core,
            )
        ).summary()
        for core in ("object", "soa")
    ]
    assert summaries[1] == summaries[0]
