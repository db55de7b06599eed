"""Unit tests for the persistent result cache."""

from __future__ import annotations

import pickle
import shutil

import pytest

from repro.harness import result_cache as rc_module
from repro.harness.parallel import RunSpec, run_specs
from repro.harness.result_cache import (
    CACHE_DIR_ENV,
    ResultCache,
    default_cache_root,
    fingerprint_key,
)

TINY = 100

SPEC = RunSpec(
    "lazy", "specjbb", accesses_per_core=TINY, warmup_fraction=0.35
)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(root=tmp_path / "cache")


def test_default_root_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
    assert default_cache_root() == tmp_path / "elsewhere"
    monkeypatch.delenv(CACHE_DIR_ENV)
    assert default_cache_root().name == "flexsnoop"


def test_miss_then_hit_roundtrip(cache):
    key = SPEC.cache_key()
    assert cache.get(key) is None
    assert (cache.hits, cache.misses) == (0, 1)

    result = run_specs([SPEC], jobs=1)[0]
    cache.put(key, result)
    assert cache.stores == 1

    cached = cache.get(key)
    assert cached is not None
    assert cache.hits == 1
    assert cached.stats == result.stats
    assert cached.exec_time == result.exec_time
    assert cached.energy == result.energy
    assert cached.config == result.config


def test_key_distinguishes_every_spec_dimension():
    base = SPEC.cache_key()
    variants = [
        RunSpec("eager", "specjbb", accesses_per_core=TINY,
                warmup_fraction=0.35),
        RunSpec("lazy", "specweb", accesses_per_core=TINY,
                warmup_fraction=0.35),
        RunSpec("subset", "specjbb", predictor="Sub512",
                accesses_per_core=TINY, warmup_fraction=0.35),
        RunSpec("lazy", "specjbb", accesses_per_core=TINY + 1,
                warmup_fraction=0.35),
        RunSpec("lazy", "specjbb", accesses_per_core=TINY, seed=9,
                warmup_fraction=0.35),
        RunSpec("lazy", "specjbb", accesses_per_core=TINY,
                warmup_fraction=0.2),
    ]
    keys = {base} | {variant.cache_key() for variant in variants}
    assert len(keys) == len(variants) + 1


def test_key_distinguishes_machine_config():
    from repro.config import default_machine

    profile_cores = 1  # specjbb is 1 core per CMP
    tweaked = default_machine(
        algorithm="lazy", cores_per_cmp=profile_cores
    ).replace(squash_backoff=999)
    spec = RunSpec(
        "lazy",
        "specjbb",
        accesses_per_core=TINY,
        warmup_fraction=0.35,
        config=tweaked,
    )
    assert spec.cache_key() != SPEC.cache_key()


def test_key_includes_code_version(monkeypatch):
    before = SPEC.cache_key()
    monkeypatch.setattr(rc_module, "model_digest", lambda: "0" * 64)
    assert SPEC.cache_key() != before


def test_model_source_edit_rekeys_and_strands_old_entries(
    cache, tmp_path, monkeypatch
):
    """One byte changed anywhere in the package source - here the ring
    walker - changes every key: the old entry is a miss under the new
    code and counts as stale."""
    key = SPEC.cache_key()
    cache.put(key, run_specs([SPEC], jobs=1)[0])

    copies = {}
    for name in ("pristine", "edited"):
        copies[name] = tmp_path / name / "repro"
        shutil.copytree(
            rc_module.PACKAGE_ROOT,
            copies[name],
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    assert rc_module.source_digest(copies["pristine"]) == (
        rc_module.model_digest()
    )
    walker = copies["edited"] / "sim" / "walker.py"
    source = bytearray(walker.read_bytes())
    source[-1] ^= 0x01
    walker.write_bytes(bytes(source))

    monkeypatch.setattr(rc_module, "PACKAGE_ROOT", copies["edited"])
    edited_key = SPEC.cache_key()
    assert edited_key != key
    assert cache.get(edited_key) is None
    info = cache.info()
    assert (info["entries"], info["stale_entries"]) == (0, 1)


def test_fingerprint_key_is_stable_across_dict_order():
    assert fingerprint_key({"a": 1, "b": 2}) == fingerprint_key(
        {"b": 2, "a": 1}
    )


@pytest.mark.parametrize(
    "garbage",
    [
        b"not a pickle",  # bad opcode -> UnpicklingError
        b"garbage\n",  # 'g' is the GET opcode -> ValueError
        b"",  # truncated -> EOFError
    ],
)
def test_corrupt_entry_is_a_miss_and_removed(cache, garbage):
    key = "deadbeef" * 8
    path = cache._path_for(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(garbage)
    assert cache.get(key) is None
    assert not path.exists()
    assert cache.misses == 1


def test_wrong_type_entry_is_a_miss(cache):
    key = "cafebabe" * 8
    path = cache._path_for(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(pickle.dumps({"not": "a result"}))
    assert cache.get(key) is None


def test_disabled_cache_never_stores(cache, tmp_path):
    disabled = ResultCache(root=tmp_path / "cache", enabled=False)
    result = run_specs([SPEC], jobs=1)[0]
    key = SPEC.cache_key()
    disabled.put(key, result)
    assert disabled.get(key) is None
    assert disabled.entry_count() == 0
    assert disabled.stores == 0


def test_clear_and_info(cache):
    result = run_specs([SPEC], jobs=1)[0]
    cache.put(SPEC.cache_key(), result)
    info = cache.info()
    assert info["entries"] == 1
    assert info["size_bytes"] > 0
    assert cache.clear() == 1
    assert cache.entry_count() == 0
    # Clearing an empty (or missing) cache is fine.
    assert cache.clear() == 0
    assert ResultCache(root=cache.root / "missing").clear() == 0


def test_orphaned_tmp_is_counted_and_pruned(cache):
    # Simulate a writer that died between writing its temp file and
    # the atomic replace: the temp exists, the final entry does not,
    # and no later put ever reuses the name (pids differ).
    key = "deadbeef" * 8
    path = cache._path_for(key)
    path.parent.mkdir(parents=True)
    torn = path.with_name(path.name + ".tmp.99999")
    torn.write_bytes(b"partial pickle bytes")

    info = cache.info()
    assert info["tmp_files"] == 1
    assert info["entries"] == 0  # a torn temp is not a live entry
    # A fresh temp (an in-flight writer's file) is left alone...
    assert cache.prune_tmp(max_age_seconds=3600) == 0
    assert torn.exists()
    # ...a stale orphan is reclaimed.
    assert cache.prune_tmp(max_age_seconds=0) == 1
    assert not torn.exists()
    assert cache.info()["tmp_files"] == 0


def test_clear_removes_tmp_and_empty_shard_dirs(cache):
    result = run_specs([SPEC], jobs=1)[0]
    key = SPEC.cache_key()
    cache.put(key, result)
    shard = cache._path_for(key).parent
    torn = cache._path_for(key).with_name("x.pkl.tmp.123")
    torn.write_bytes(b"torn")

    assert cache.clear() == 1
    assert not torn.exists()
    assert not shard.exists()
    assert not cache._bucket_root.exists()


def test_accounting_ignores_stale_schema_entries(cache):
    result = run_specs([SPEC], jobs=1)[0]
    cache.put(SPEC.cache_key(), result)
    # An entry written by other code (another model digest): never
    # served, so it must not be counted as live - but clear() still
    # removes it.
    stale = cache.root / "v1" / "ab" / ("ab" + "0" * 62 + ".pkl")
    stale.parent.mkdir(parents=True)
    stale.write_bytes(b"old entry")

    info = cache.info()
    assert info["entries"] == 1
    assert info["stale_entries"] == 1
    assert cache.clear() == 2
    assert not stale.exists()
    assert cache.root.is_dir()  # the root itself survives


def test_run_specs_populates_and_reuses_cache(cache):
    first = run_specs([SPEC], jobs=1, cache=cache)
    assert (cache.misses, cache.stores) == (1, 1)
    second = run_specs([SPEC], jobs=1, cache=cache)
    assert cache.hits == 1
    assert cache.stores == 1  # nothing re-simulated, nothing re-stored
    assert second[0].stats == first[0].stats
    assert second[0].exec_time == first[0].exec_time


def test_run_specs_deduplicates_identical_specs(cache):
    results = run_specs([SPEC, SPEC, SPEC], jobs=1, cache=cache)
    assert len(results) == 3
    assert cache.stores == 1
    assert results[0].stats == results[1].stats == results[2].stats


# ----------------------------------------------------------------------
# Size-bounded pruning (LRU by mtime)


def _fake_entry(cache, tag, size=1000, mtime=None):
    import os

    key = (tag * 64)[:64]
    path = cache._path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"x" * size)
    if mtime is not None:
        os.utime(path, (mtime, mtime))
    return path


def test_prune_evicts_oldest_first(cache):
    old = _fake_entry(cache, "a", size=1000, mtime=1_000_000)
    mid = _fake_entry(cache, "b", size=1000, mtime=2_000_000)
    new = _fake_entry(cache, "c", size=1000, mtime=3_000_000)
    stats = cache.prune(max_size_bytes=2000)
    assert stats["removed"] == 1
    assert stats["freed_bytes"] == 1000
    assert stats["size_bytes"] == 2000
    assert not old.exists()
    assert mid.exists() and new.exists()


def test_prune_to_zero_empties_cache(cache):
    _fake_entry(cache, "a")
    _fake_entry(cache, "b")
    stats = cache.prune(max_size_bytes=0)
    assert stats["removed"] == 2
    assert cache.entry_count() == 0
    assert not cache._bucket_root.exists()  # emptied dirs removed


def test_prune_under_budget_is_a_noop(cache):
    path = _fake_entry(cache, "a", size=100)
    stats = cache.prune(max_size_bytes=10_000)
    assert stats == {"removed": 0, "freed_bytes": 0, "size_bytes": 100}
    assert path.exists()


def test_prune_ignores_stale_schema_entries(cache):
    live = _fake_entry(cache, "a", size=1000, mtime=1_000_000)
    stale = cache.root / "v1" / "ab" / ("ab" + "0" * 62 + ".pkl")
    stale.parent.mkdir(parents=True)
    stale.write_bytes(b"x" * 50_000)
    stats = cache.prune(max_size_bytes=2000)
    # The giant stale entry neither counts toward the budget nor gets
    # evicted; the live entry already fits.
    assert stats["removed"] == 0
    assert live.exists() and stale.exists()


def test_prune_rejects_negative_budget(cache):
    with pytest.raises(ValueError):
        cache.prune(max_size_bytes=-1)


def test_get_refreshes_mtime_for_lru(cache):
    import os

    result = run_specs([SPEC], jobs=1)[0]
    key = SPEC.cache_key()
    cache.put(key, result)
    path = cache._path_for(key)
    os.utime(path, (1_000_000, 1_000_000))
    assert cache.get(key) is not None
    assert path.stat().st_mtime > 1_000_000


def test_recently_served_entry_survives_prune(cache):
    import os

    result = run_specs([SPEC], jobs=1)[0]
    key = SPEC.cache_key()
    cache.put(key, result)
    served = cache._path_for(key)
    os.utime(served, (1_000_000, 1_000_000))
    untouched = _fake_entry(
        cache, "f", size=served.stat().st_size, mtime=2_000_000
    )
    cache.get(key)  # serving refreshes the mtime past the fake entry
    stats = cache.prune(max_size_bytes=served.stat().st_size)
    assert stats["removed"] == 1
    assert served.exists()
    assert not untouched.exists()
