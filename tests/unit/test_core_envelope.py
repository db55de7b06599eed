"""The unsupported-configuration envelope, flag by flag.

The fused ``soa`` core declares an explicit envelope: every excluded
feature must raise a clean, named ``SoaUnsupportedError`` at
construction - never a mid-run crash or a silently wrong result -
while the object core runs the identical configuration to completion.
One parametrized matrix pins each flag to that contract, so adding an
envelope hole or a new flag without updating ``check_soa_supported``
fails loudly.  The contention knobs are inside the envelope: soa must
accept them and match the object core's summary.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import default_machine
from repro.core.algorithms import build_algorithm
from repro.obs.trace import InMemorySink
from repro.registry import REGISTRY
from repro.sim.soa import SoaUnsupportedError, check_soa_supported
from repro.workloads.source import SyntheticSource
from repro.workloads.synthetic import SharingProfile


def _machine(num_cmps=2, **overrides):
    machine = default_machine(
        algorithm="lazy", cores_per_cmp=1, num_cmps=num_cmps
    )
    ring_overrides = {
        key: overrides.pop(key)
        for key in ("link_occupancy", "serialize_snoop_port")
        if key in overrides
    }
    tracing_overrides = {
        key: overrides.pop(key)
        for key in ("enabled", "sample_window")
        if key in overrides
    }
    if ring_overrides:
        machine = dataclasses.replace(
            machine, ring=dataclasses.replace(machine.ring, **ring_overrides)
        )
    if tracing_overrides:
        machine = dataclasses.replace(
            machine,
            tracing=dataclasses.replace(machine.tracing, **tracing_overrides),
        )
    if overrides:
        machine = dataclasses.replace(machine, **overrides)
    return machine


def _source(num_cores=2):
    return SyntheticSource(
        SharingProfile(
            name="envelope",
            num_cores=num_cores,
            cores_per_cmp=1,
            accesses_per_core=20,
            seed=5,
        )
    )


#: (flag id, machine kwargs, extra constructor kwargs).
ENVELOPE_FLAGS = [
    ("filter_write_snoops", {"filter_write_snoops": True}, {}),
    ("check_invariants", {"check_invariants": True}, {}),
    ("track_versions", {"track_versions": True}, {}),
    ("tracing", {}, {"trace_sink": InMemorySink()}),
    ("sample_window", {"sample_window": 50}, {}),
]


#: Contention knobs soa models itself (same entry shape); the
#: occupancy is large enough that messages actually queue.
CONTENTION_FLAGS = [
    ("link_occupancy", {"link_occupancy": 30}, {}),
    ("serialize_snoop_port", {"serialize_snoop_port": True}, {}),
]


def _flag_id(entry) -> str:
    return entry[0]


@pytest.mark.parametrize("core", ["soa"])
@pytest.mark.parametrize("entry", ENVELOPE_FLAGS, ids=_flag_id)
def test_array_cores_raise_cleanly_outside_envelope(core, entry):
    flag, machine_kwargs, extra = entry
    machine = _machine(**machine_kwargs)
    with pytest.raises(SoaUnsupportedError) as excinfo:
        REGISTRY.create(
            "core",
            core,
            machine,
            build_algorithm("lazy"),
            _source(),
            **extra,
        )
    message = str(excinfo.value)
    assert "core=%s does not support" % core in message
    assert "use core=object" in message


#: The reason ``check_soa_supported`` gives for each flag.
ENVELOPE_REASONS = {
    "filter_write_snoops": "filter_write_snoops",
    "check_invariants": "check_invariants",
    "track_versions": "track_versions",
    "tracing": "transaction tracing",
    "sample_window": "tracing.sample_window",
}


@pytest.mark.parametrize("entry", ENVELOPE_FLAGS, ids=_flag_id)
def test_envelope_check_names_only_the_offending_flag(entry):
    """``check_soa_supported`` is the single capability envelope: with
    one flag set it refuses with exactly that flag's reason, so the
    fallback message tells the user what to turn off."""
    flag, machine_kwargs, extra = entry
    check_soa_supported(_machine())
    with pytest.raises(SoaUnsupportedError) as excinfo:
        check_soa_supported(
            _machine(**machine_kwargs), extra.get("trace_sink")
        )
    message = str(excinfo.value)
    listed = message.split("does not support: ", 1)[1]
    reasons = listed.rsplit("; use core=object", 1)[0].split("; ")
    assert len(reasons) == 1
    assert reasons[0].startswith(ENVELOPE_REASONS[flag])


@pytest.mark.parametrize("entry", CONTENTION_FLAGS, ids=_flag_id)
def test_soa_runs_contention_flag_like_object(entry):
    """Four CMPs, so snoops from several requesters meet at one port
    and the knob changes the timing, not just the code path."""
    flag, machine_kwargs, extra = entry
    machine = _machine(num_cmps=4, **machine_kwargs)
    check_soa_supported(machine)
    uncontended, contended_object, contended_soa = [
        REGISTRY.create(
            "core", core, config, build_algorithm("lazy"), _source(4)
        )
        .run()
        .summary()
        for core, config in (
            ("object", _machine(num_cmps=4)),
            ("object", machine),
            ("soa", machine),
        )
    ]
    assert contended_object != uncontended
    assert contended_soa == contended_object


@pytest.mark.parametrize(
    "entry", ENVELOPE_FLAGS + CONTENTION_FLAGS, ids=_flag_id
)
def test_object_core_runs_every_envelope_flag(entry):
    flag, machine_kwargs, extra = entry
    machine = _machine(**machine_kwargs)
    result = REGISTRY.create(
        "core",
        "object",
        machine,
        build_algorithm("lazy"),
        _source(),
        **extra,
    ).run()
    assert result.stats.reads + result.stats.writes > 0
