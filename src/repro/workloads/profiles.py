"""Workload profiles standing in for SPLASH-2, SPECjbb and SPECweb.

The paper characterizes the three workload classes through their
coherence behaviour (Figures 6 and 11):

* **SPLASH-2** (32 cores, 4 per CMP): plenty of cache-to-cache
  transfers; the perfect predictor sees roughly four negative
  predictions per positive one, i.e. a ring read finds its supplier
  about five hops away and finds one most of the time.  Lazy averages
  about 4.5 snoops per request.
* **SPECjbb** (8 cores, 1 per CMP): threads share very little; most
  ring reads find no supplier and fall through to memory, so Lazy
  snoops almost all 7 remote CMPs.
* **SPECweb** (8 cores, 1 per CMP): between the two - substantial
  sharing, but also a large DRAM-bound fraction.

The profiles below are calibrated so the *simulated* coherence
behaviour matches that characterization; the calibration is asserted
by the integration test suite (``tests/integration``) and shown in
EXPERIMENTS.md.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict

from repro.registry import REGISTRY
from repro.workloads.synthetic import SharingProfile, generate_workload
from repro.workloads.trace import WorkloadTrace


def reshape_profile(
    profile: SharingProfile, num_cmps: int
) -> SharingProfile:
    """Re-span ``profile`` across ``num_cmps`` CMPs.

    Synthetic workloads carry their machine geometry (the paper's
    profiles all populate 8 CMPs); larger topologies - e.g. a 16-CMP
    two-level hier_ring machine - need the same sharing behaviour
    spread over more CMPs.  Scales ``num_cores`` keeping the profile's
    cores-per-CMP, so per-core trace length and sharing knobs are
    untouched; the reshaped core count lands in the source descriptor,
    giving the workload its own cache keys.
    """
    if num_cmps < 2:
        raise ValueError("need at least 2 CMPs, got %d" % num_cmps)
    if num_cmps * profile.cores_per_cmp == profile.num_cores:
        return profile
    return dataclasses.replace(
        profile, num_cores=num_cmps * profile.cores_per_cmp
    )


def splash2_profile(
    accesses_per_core: int = 3000, seed: int = 42
) -> SharingProfile:
    """SPLASH-2-like scientific workload: 32 cores, heavy sharing.

    A moderate shared working set that stays cache resident gives a
    high cache-to-cache transfer rate; the migratory subset models the
    lock-protected read-modify-write data typical of these kernels.
    """
    return SharingProfile(
        name="SPLASH-2",
        num_cores=32,
        cores_per_cmp=4,
        accesses_per_core=accesses_per_core,
        p_shared=0.40,
        p_cold=0.04,
        shared_lines=2048,
        private_lines=2000,
        write_fraction_shared=0.10,
        write_fraction_private=0.30,
        migratory_fraction=0.06,
        producer_consumer_fraction=0.15,
        zipf_exponent=0.9,
        private_zipf_exponent=1.5,
        burst_mean=6.0,
        prewarm_fraction=0.35,
        think_mean=140.0,
        seed=seed,
    )


def specjbb_profile(
    accesses_per_core: int = 6000, seed: int = 43
) -> SharingProfile:
    """SPECjbb-like server workload: 8 cores, almost no sharing.

    Each warehouse thread works on its own objects; the large private
    pool and the cold streaming fraction push most ring reads to
    memory, reproducing the paper's observation that Lazy snoops close
    to all 7 CMPs and that the Exclude cache thrashes.
    """
    return SharingProfile(
        name="SPECjbb",
        num_cores=8,
        cores_per_cmp=1,
        accesses_per_core=accesses_per_core,
        p_shared=0.02,
        p_cold=0.08,
        shared_lines=512,
        private_lines=20000,
        write_fraction_shared=0.20,
        write_fraction_private=0.15,
        migratory_fraction=0.10,
        zipf_exponent=0.3,
        private_zipf_exponent=1.0,
        prewarm_fraction=1.0,
        think_mean=340.0,
        seed=seed,
    )


def specweb_profile(
    accesses_per_core: int = 6000, seed: int = 44
) -> SharingProfile:
    """SPECweb-like e-commerce workload: 8 cores, moderate sharing.

    Worker threads share session and content caches (supplier usually
    exists) but also stream request/response buffers (DRAM-bound
    fraction larger than SPLASH-2's).
    """
    return SharingProfile(
        name="SPECweb",
        num_cores=8,
        cores_per_cmp=1,
        accesses_per_core=accesses_per_core,
        p_shared=0.30,
        p_cold=0.04,
        shared_lines=1536,
        private_lines=1500,
        write_fraction_shared=0.15,
        write_fraction_private=0.25,
        migratory_fraction=0.08,
        producer_consumer_fraction=0.10,
        zipf_exponent=0.9,
        private_zipf_exponent=1.2,
        burst_mean=8.0,
        prewarm_fraction=1.0,
        think_mean=520.0,
        seed=seed,
    )


#: Profile factories by workload name (kept for direct access; name
#: resolution goes through :data:`repro.registry.REGISTRY`).
WORKLOAD_PROFILES: Dict[str, Callable[..., SharingProfile]] = {
    "splash2": splash2_profile,
    "specjbb": specjbb_profile,
    "specweb": specweb_profile,
}

_WORKLOAD_ALIASES: Dict[str, tuple] = {
    "splash2": ("splash",),
    "specjbb": ("jbb",),
    "specweb": ("web",),
}


def resolve_profile(
    name: str,
    accesses_per_core: int = 0,
    seed: int = 0,
    num_cmps: int = 0,
    think_scale: float = 1.0,
) -> SharingProfile:
    """Resolve a workload name (with aliases) to its profile.

    Cheap - no trace is generated - so callers that only need profile
    metadata (e.g. ``cores_per_cmp`` for a cache key) can use this
    without paying for trace synthesis.  Unknown names raise
    :class:`repro.registry.UnknownComponentError` (a ``ValueError``
    listing the valid choices).

    Args:
        name: registered workload name or alias.
        accesses_per_core: trace length override (0 = profile default).
        seed: RNG seed override (0 = profile default).
        num_cmps: machine-span override (0 = profile default); see
            :func:`reshape_profile`.
        think_scale: think-time multiplier (1.0 = profile default);
            the loaded-regime injection axis.
    """
    kwargs = {}
    if accesses_per_core:
        kwargs["accesses_per_core"] = accesses_per_core
    if seed:
        kwargs["seed"] = seed
    profile = REGISTRY.create("workload", name, **kwargs)
    if num_cmps:
        profile = reshape_profile(profile, num_cmps)
    if think_scale != 1.0:
        profile = profile.with_think_scale(think_scale)
    return profile


def build_workload(
    name: str,
    accesses_per_core: int = 0,
    seed: int = 0,
    num_cmps: int = 0,
) -> WorkloadTrace:
    """Generate the named workload's trace.

    Args:
        name: one of ``splash2``, ``specjbb``, ``specweb``.
        accesses_per_core: trace length override (0 = profile default).
        seed: RNG seed override (0 = profile default).
        num_cmps: machine-span override (0 = profile default).
    """
    return generate_workload(
        resolve_profile(name, accesses_per_core, seed, num_cmps)
    )


for _name, _factory in WORKLOAD_PROFILES.items():
    REGISTRY.register(
        "workload",
        _name,
        _factory,
        aliases=_WORKLOAD_ALIASES.get(_name, ()),
        metadata={"display_name": _factory().name},
    )
del _name, _factory

# Per-application SPLASH-2 profiles ride the same registry kind, under
# a "splash2/" prefix (the workload normalizer preserves "/"), so
# `--workload splash2/barnes` resolves everywhere a workload name does.
from repro.workloads import splash2_apps as _splash2_apps  # noqa: E402

for _name, _factory in _splash2_apps.SPLASH2_APPS.items():
    REGISTRY.register(
        "workload",
        "splash2/%s" % _name,
        _factory,
        metadata={"display_name": _factory().name},
    )
del _name, _factory
