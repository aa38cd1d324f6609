"""Tests for the pluggable outcome stores and their configuration."""

import os
import pickle
import threading

import pytest

from repro.api.identity import ProblemIdentity
from repro.api.store import (
    FileOutcomeStore,
    InMemoryStore,
    NullStore,
    StoreStats,
    build_store,
)
from repro.config import CACHE_MODE_ENV, CacheConfig, ConfigError, SolverConfig
from repro.model.tuples import Row


class _RaisesAttributeError:
    """Pickles as a constructor call that raises ``AttributeError``."""

    def __reduce__(self):
        return (getattr, (0, "no_such_attribute"))


class _OlderRowLayout:
    """Pickles as a ``Row`` in the layout older releases wrote: a per-cell
    ``_items`` tuple and a cached ``_hash`` restored into slots.  A row is
    a tuple now, so loading it fails in ``object.__new__`` with a
    ``TypeError``."""

    def __reduce_ex__(self, protocol):
        return (object.__new__, (Row,), (None, {"_items": (), "_hash": 0}))


def ident(key, fingerprint=None, mode="syntactic"):
    return ProblemIdentity(mode, key, fingerprint if fingerprint is not None else key)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestStoreStats:
    def test_hit_rate(self):
        assert StoreStats().hit_rate == 0.0
        assert StoreStats(hits=3, misses=1).hit_rate == 0.75

    def test_to_dict_round_trip(self):
        stats = StoreStats(
            hits=5, canonical_hits=2, syntactic_hits=3, misses=5, puts=4, evictions=1
        )
        rebuilt = StoreStats.from_dict(stats.to_dict())
        assert rebuilt == stats
        assert stats.to_dict()["hit_rate"] == 0.5


class TestInMemoryStore:
    def test_put_get_and_classification(self):
        store = InMemoryStore()
        store.put(ident("c:k", "s:original", mode="canonical"), "outcome")
        same = store.get(ident("c:k", "s:original", mode="canonical"))
        twin = store.get(ident("c:k", "s:renamed", mode="canonical"))
        assert same.outcome == "outcome" and not same.canonical
        assert twin.outcome == "outcome" and twin.canonical
        assert store.stats.syntactic_hits == 1
        assert store.stats.canonical_hits == 1
        assert store.stats.hits == 2

    def test_miss_counts(self):
        store = InMemoryStore()
        assert store.get(ident("s:missing")) is None
        assert store.stats.misses == 1
        assert store.stats.hit_rate == 0.0

    def test_lru_evicts_least_recently_used(self):
        store = InMemoryStore(max_entries=2)
        store.put(ident("s:a"), "A")
        store.put(ident("s:b"), "B")
        store.get(ident("s:a"))  # refresh a: b is now the LRU entry
        store.put(ident("s:c"), "C")
        assert store.get(ident("s:a")) is not None
        assert store.get(ident("s:b")) is None
        assert store.stats.evictions == 1
        assert len(store) == 2

    def test_ttl_expiry_counts_as_eviction(self):
        clock = FakeClock()
        store = InMemoryStore(ttl=10.0, clock=clock)
        store.put(ident("s:a"), "A")
        clock.now = 5.0
        assert store.get(ident("s:a")) is not None
        clock.now = 20.0
        assert store.get(ident("s:a")) is None
        assert store.stats.evictions == 1
        assert store.stats.misses == 1

    def test_clear_drops_entries_and_keeps_counters(self):
        store = InMemoryStore()
        store.put(ident("s:a"), "A")
        store.get(ident("s:a"))
        store.clear()
        assert len(store) == 0
        assert store.stats.hits == 1
        assert store.stats.puts == 1

    def test_bounds_validated(self):
        with pytest.raises(ConfigError):
            InMemoryStore(max_entries=0)
        with pytest.raises(ConfigError):
            InMemoryStore(ttl=0)

    def test_thread_safety_under_contention(self):
        store = InMemoryStore(max_entries=16)

        def hammer(worker):
            for i in range(200):
                key = f"s:{worker}-{i % 32}"
                store.put(ident(key), i)
                store.get(ident(key))

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(store) <= 16
        assert store.stats.puts == 800


class TestFileOutcomeStore:
    def test_entries_shared_across_instances(self, tmp_path):
        writer = FileOutcomeStore(str(tmp_path))
        reader = FileOutcomeStore(str(tmp_path))
        writer.put(ident("c:k", "s:original", mode="canonical"), "outcome")
        hit = reader.get(ident("c:k", "s:renamed", mode="canonical"))
        assert hit.outcome == "outcome"
        assert hit.canonical
        assert len(reader) == 1

    def test_corrupt_entry_degrades_to_a_miss(self, tmp_path):
        store = FileOutcomeStore(str(tmp_path))
        store.put(ident("s:k"), "outcome")
        (tmp_path / "s_k.pkl").write_bytes(b"not a pickle")
        assert store.get(ident("s:k")) is None
        assert store.stats.misses == 1

    @pytest.mark.parametrize(
        "payload, error",
        [(_RaisesAttributeError(), AttributeError), (_OlderRowLayout(), TypeError)],
        ids=["raises", "older_row"],
    )
    def test_entry_whose_load_raises_degrades_to_a_miss(self, tmp_path, payload, error):
        """Any error from unpickling is a miss, and the next put rewrites it."""
        store = FileOutcomeStore(str(tmp_path))
        (tmp_path / "s_k.pkl").write_bytes(pickle.dumps(("s:k", payload)))
        with pytest.raises(error):
            pickle.loads((tmp_path / "s_k.pkl").read_bytes())
        assert store.get(ident("s:k")) is None
        assert store.stats.misses == 1
        store.put(ident("s:k"), "outcome")
        assert store.get(ident("s:k")).outcome == "outcome"

    def test_prune_bounds_the_directory(self, tmp_path):
        store = FileOutcomeStore(str(tmp_path), max_entries=3)
        for i in range(6):
            store.put(ident(f"s:{i}"), i)
            # distinct mtimes so the prune order is deterministic
            os.utime(tmp_path / f"s_{i}.pkl", (i, i))
        assert len(store) <= 3
        assert store.stats.evictions >= 3

    def test_prune_lists_the_directory_once_per_period(self, tmp_path, monkeypatch):
        # max_entries // 64 = 3: every third put lists, so the directory
        # holds at most 3 entries over the bound between listings.
        store = FileOutcomeStore(str(tmp_path), max_entries=192)
        listings = []
        listdir = os.listdir

        def counting(path):
            if os.fspath(path) == str(tmp_path):
                listings.append(path)
            return listdir(path)

        monkeypatch.setattr(os, "listdir", counting)
        puts = 400
        for i in range(puts):
            store.put(ident(f"s:{i}"), i)
            os.utime(tmp_path / f"s_{i}.pkl", (i, i))
            assert len(list(tmp_path.glob("*.pkl"))) <= 192 + 3
        assert len(listings) == puts // 3
        # Eviction still takes the oldest first: the newest 192 all remain.
        remaining = {path.name for path in tmp_path.glob("*.pkl")}
        assert {f"s_{i}.pkl" for i in range(puts - 192, puts)} <= remaining
        assert store.stats.evictions == puts - len(remaining)

    def test_clear_removes_entries(self, tmp_path):
        store = FileOutcomeStore(str(tmp_path))
        store.put(ident("s:a"), "A")
        store.clear()
        assert len(store) == 0
        assert store.get(ident("s:a")) is None


class TestNullStore:
    def test_everything_is_a_silent_miss(self):
        store = NullStore()
        store.put(ident("s:a"), "A")
        assert store.get(ident("s:a")) is None
        assert len(store) == 0
        # a disabled cache should not report lookups at all
        assert store.stats.misses == 0
        assert store.stats.hit_rate == 0.0


class TestBuildStore:
    def test_kinds(self, tmp_path):
        assert isinstance(build_store(CacheConfig(store="off")), NullStore)
        assert isinstance(build_store(CacheConfig(store="memory")), InMemoryStore)
        shared = build_store(
            CacheConfig(store="shared", shared_path=str(tmp_path))
        )
        assert isinstance(shared, FileOutcomeStore)

    def test_auto_prefers_shared_path(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_MODE_ENV, raising=False)
        assert isinstance(build_store(CacheConfig()), InMemoryStore)
        assert isinstance(
            build_store(CacheConfig(shared_path=str(tmp_path))), FileOutcomeStore
        )

    def test_shared_without_path_rejected(self):
        with pytest.raises(ConfigError):
            build_store(CacheConfig(store="shared"))


class TestCacheConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            CacheConfig(mode="telepathic")
        with pytest.raises(ConfigError):
            CacheConfig(store="redis")
        with pytest.raises(ConfigError):
            CacheConfig(max_entries=0)
        with pytest.raises(ConfigError):
            CacheConfig(ttl=-1)

    def test_auto_defaults(self, monkeypatch):
        monkeypatch.delenv(CACHE_MODE_ENV, raising=False)
        assert CacheConfig().resolved_mode() == "syntactic"
        assert CacheConfig().resolved_store() == "memory"

    def test_env_override_rewrites_auto_only(self, monkeypatch):
        monkeypatch.setenv(CACHE_MODE_ENV, "canonical")
        assert CacheConfig().resolved_mode() == "canonical"
        assert CacheConfig(mode="syntactic").resolved_mode() == "syntactic"
        monkeypatch.setenv(CACHE_MODE_ENV, "off")
        assert CacheConfig().resolved_store() == "off"
        assert CacheConfig(store="memory").resolved_store() == "memory"

    def test_to_dict_round_trip(self):
        config = CacheConfig(
            mode="canonical", store="memory", max_entries=64, ttl=1.5
        )
        assert CacheConfig.from_dict(config.to_dict()) == config

    def test_solver_config_round_trip_includes_cache(self):
        config = SolverConfig().with_cache(mode="canonical", max_entries=128)
        rebuilt = SolverConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.cache.mode == "canonical"
        assert rebuilt.cache.max_entries == 128


class TestSharedStats:
    def test_aggregates_across_stores_on_one_directory(self, tmp_path):
        # Two stores on one directory stand in for two worker processes:
        # each sees only its own counters locally, but shared_stats() sums
        # every sidecar in the directory.
        writer = FileOutcomeStore(str(tmp_path))
        reader = FileOutcomeStore(str(tmp_path))
        writer.put(ident("s:a"), "A")
        hit = reader.get(ident("s:a"))
        assert hit is not None and hit.outcome == "A"
        assert reader.get(ident("s:missing")) is None
        # local views stay disjoint...
        assert writer.stats.puts == 1 and writer.stats.hits == 0
        assert reader.stats.hits == 1 and reader.stats.puts == 0
        # ...while the shared view covers the whole store, from either side.
        shared = writer.shared_stats()
        assert shared.puts == 1
        assert shared.hits == 1
        assert shared.misses == 1
        assert reader.shared_stats() == shared

    def test_sidecars_are_not_entries(self, tmp_path):
        store = FileOutcomeStore(str(tmp_path))
        store.put(ident("s:a"), "A")
        store.get(ident("s:a"))
        sidecars = [n for n in os.listdir(tmp_path) if n.startswith("stats-")]
        assert sidecars  # counters were flushed to disk
        assert len(store) == 1
        store.clear()
        assert len(store) == 0

    def test_unreadable_sidecar_is_skipped(self, tmp_path):
        store = FileOutcomeStore(str(tmp_path))
        store.put(ident("s:a"), "A")
        with open(os.path.join(tmp_path, "stats-999-0.json"), "w") as handle:
            handle.write("not json")
        shared = store.shared_stats()
        assert shared.puts == 1
