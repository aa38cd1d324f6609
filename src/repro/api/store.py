"""Pluggable outcome stores: where solved implication problems live.

One :class:`OutcomeStore` now backs every dedup layer (the solver's memo,
the batch path, the async front-end and the service coalescer all route
through :meth:`repro.api.Solver.lookup`).  Three implementations ship:

* :class:`InMemoryStore` -- the default: a thread-safe LRU with optional
  size and TTL bounds, one per solver;
* :class:`FileOutcomeStore` -- a directory of pickled entries keyed by the
  identity digest, shareable by multiple service workers on one host (the
  stdlib stand-in for the external-KV role ``byoda-python`` gives Redis);
* :class:`NullStore` -- caching off; every lookup misses.

Stores index by :class:`~repro.api.identity.ProblemIdentity.cache_key` and
remember the *fingerprint* that populated each entry, which is how a hit is
classified: same fingerprint means the identical statement was cached
(*syntactic* hit), a different fingerprint under one canonical key means a
renamed twin was (*canonical* hit).  In canonical mode a twin hit returns
the representative's outcome: the verdict and reason are guaranteed
identical (implication is renaming-invariant and reasons are name-free),
but counterexample/chase *presentation* follows the first-seen naming --
pin syntactic mode where byte-identical presentation matters.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import pickle
import threading
import time
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.api.identity import ProblemIdentity
from repro.config import CacheConfig, ConfigError
from repro.implication.problem import ImplicationOutcome
from repro.util.atomic import write_atomically


@dataclass
class StoreStats:
    """Lifetime counters of one store (per process, even for shared stores).

    ``write_errors`` counts the file writes a disk fault dropped: entry
    writes and stats-sidecar flushes of a :class:`FileOutcomeStore`.
    """

    hits: int = 0
    canonical_hits: int = 0
    syntactic_hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    write_errors: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def to_dict(self) -> dict:
        """A JSON-serializable snapshot (inverse of :meth:`from_dict`)."""
        return {
            "hits": self.hits,
            "canonical_hits": self.canonical_hits,
            "syntactic_hits": self.syntactic_hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "write_errors": self.write_errors,
            "hit_rate": self.hit_rate,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "StoreStats":
        """Rebuild counters from :meth:`to_dict` output (hit_rate is derived)."""
        return cls(
            hits=payload.get("hits", 0),
            canonical_hits=payload.get("canonical_hits", 0),
            syntactic_hits=payload.get("syntactic_hits", 0),
            misses=payload.get("misses", 0),
            puts=payload.get("puts", 0),
            evictions=payload.get("evictions", 0),
            write_errors=payload.get("write_errors", 0),
        )


@dataclass(frozen=True)
class StoreHit:
    """One successful lookup: the outcome plus how it matched.

    ``canonical`` is True when the entry was populated by a differently
    written (isomorphic) problem -- the renaming-invariant cache at work.
    """

    outcome: ImplicationOutcome
    canonical: bool = False


class OutcomeStore(ABC):
    """The pluggable interface every dedup layer keys outcomes through."""

    @abstractmethod
    def get(self, identity: ProblemIdentity) -> Optional[StoreHit]:
        """The cached outcome under ``identity.cache_key``, if any."""

    @abstractmethod
    def put(self, identity: ProblemIdentity, outcome: ImplicationOutcome) -> None:
        """Record an outcome under ``identity.cache_key``."""

    @property
    @abstractmethod
    def stats(self) -> StoreStats:
        """This process's lifetime hit/miss/eviction counters."""

    @abstractmethod
    def __len__(self) -> int:
        """How many entries the store currently holds."""

    @abstractmethod
    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""


class NullStore(OutcomeStore):
    """Caching disabled: every lookup misses, every put is dropped.

    Lookups are not counted either -- a disabled cache reporting a 0%
    hit rate would read as a misconfigured cache in dashboards.
    """

    def __init__(self) -> None:
        self._stats = StoreStats()

    def get(self, identity: ProblemIdentity) -> Optional[StoreHit]:
        """Always a miss (and deliberately not counted as one)."""
        return None

    def put(self, identity: ProblemIdentity, outcome: ImplicationOutcome) -> None:
        """Drop the outcome."""
        return None

    @property
    def stats(self) -> StoreStats:
        """All-zero counters (a disabled cache records nothing)."""
        return self._stats

    def __len__(self) -> int:
        return 0

    def clear(self) -> None:
        """Nothing to drop."""
        return None


class InMemoryStore(OutcomeStore):
    """A thread-safe in-memory LRU with optional size and TTL bounds.

    Parameters
    ----------
    max_entries:
        LRU capacity; the least recently *used* entry is evicted first.
    ttl:
        Optional seconds an entry stays valid; expired entries count as
        evictions when encountered.
    clock:
        Injectable monotonic clock (tests pin TTL behaviour with it).
    """

    def __init__(
        self,
        max_entries: int = 4096,
        ttl: Optional[float] = None,
        clock=time.monotonic,
    ) -> None:
        if max_entries < 1:
            raise ConfigError("an outcome store needs max_entries >= 1")
        if ttl is not None and ttl <= 0:
            raise ConfigError("ttl must be None or > 0")
        self._max_entries = max_entries
        self._ttl = ttl
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Tuple[ImplicationOutcome, str, float]]" = (
            OrderedDict()
        )
        self._stats = StoreStats()

    def get(self, identity: ProblemIdentity) -> Optional[StoreHit]:
        """The cached outcome, refreshing LRU order and enforcing TTL."""
        with self._lock:
            entry = self._entries.get(identity.cache_key)
            if entry is not None and self._ttl is not None:
                if self._clock() - entry[2] > self._ttl:
                    del self._entries[identity.cache_key]
                    self._stats.evictions += 1
                    entry = None
            if entry is None:
                self._stats.misses += 1
                return None
            self._entries.move_to_end(identity.cache_key)
            outcome, fingerprint, _ = entry
            canonical = fingerprint != identity.fingerprint
            self._stats.hits += 1
            if canonical:
                self._stats.canonical_hits += 1
            else:
                self._stats.syntactic_hits += 1
            return StoreHit(outcome, canonical)

    def put(self, identity: ProblemIdentity, outcome: ImplicationOutcome) -> None:
        """Record the outcome, evicting LRU entries past ``max_entries``."""
        with self._lock:
            self._entries[identity.cache_key] = (
                outcome,
                identity.fingerprint,
                self._clock(),
            )
            self._entries.move_to_end(identity.cache_key)
            self._stats.puts += 1
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
                self._stats.evictions += 1

    @property
    def stats(self) -> StoreStats:
        """This store's lifetime counters."""
        return self._stats

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters survive)."""
        with self._lock:
            self._entries.clear()


_SIDECAR_SEQ = itertools.count()


class FileOutcomeStore(OutcomeStore):
    """A directory-backed store shareable by multiple worker processes.

    Each entry is one pickle file named by the identity digest, written
    atomically (:func:`~repro.util.atomic.write_atomically`), so concurrent
    workers see either the old entry or the new one, never a torn read.
    TTL is enforced against file mtimes on access, and the size bound on
    put: every ``max(1, max_entries // 64)``-th put of this process lists
    the directory and evicts the oldest mtimes down to ``max_entries``.
    Between those listings the directory can hold up to that many more
    entries per writing process (64 per process at the 4,096 default),
    which keeps a put's cost from growing with the store.
    Unreadable or corrupt entries degrade to misses, and a write the disk
    refuses is dropped and counted in ``stats.write_errors`` -- a shared
    cache must never be able to take the service down.

    ``stats`` counts only this process's traffic (each worker populating a
    shared directory keeps its own counters).  Every store additionally
    mirrors its counters to a per-process ``stats-<pid>-<n>.json`` sidecar
    in the directory, and :meth:`shared_stats` aggregates all sidecars --
    so a reader on one worker can report store-wide hit rates instead of
    claiming a cold cache that other workers actually keep warm.
    """

    def __init__(
        self,
        path: str,
        max_entries: int = 4096,
        ttl: Optional[float] = None,
    ) -> None:
        if max_entries < 1:
            raise ConfigError("an outcome store needs max_entries >= 1")
        if ttl is not None and ttl <= 0:
            raise ConfigError("ttl must be None or > 0")
        self._path = path
        self._max_entries = max_entries
        self._prune_every = max(1, max_entries // 64)
        self._puts_since_prune = 0
        self._ttl = ttl
        self._lock = threading.Lock()
        self._stats = StoreStats()
        os.makedirs(path, exist_ok=True)
        self._sidecar = os.path.join(
            path, f"stats-{os.getpid()}-{next(_SIDECAR_SEQ)}.json"
        )

    def _entry_path(self, identity: ProblemIdentity) -> str:
        return os.path.join(self._path, identity.cache_key.replace(":", "_") + ".pkl")

    def _flush_stats(self) -> None:
        """Mirror this process's counters to the sidecar (best effort)."""
        try:
            write_atomically(self._sidecar, json.dumps(self._stats.to_dict()).encode())
        except OSError:
            self._stats.write_errors += 1

    def get(self, identity: ProblemIdentity) -> Optional[StoreHit]:
        """The cached outcome from disk; corrupt entries degrade to misses."""
        target = self._entry_path(identity)
        with self._lock:
            try:
                try:
                    if self._ttl is not None:
                        age = time.time() - os.path.getmtime(target)
                        if age > self._ttl:
                            os.remove(target)
                            self._stats.evictions += 1
                            self._stats.misses += 1
                            return None
                    with open(target, "rb") as handle:
                        fingerprint, outcome = pickle.load(handle)
                except Exception:
                    # Unpickling runs arbitrary constructors, so a corrupt
                    # entry, or one an older release wrote in another object
                    # layout, can raise anything (an older Row raises
                    # AttributeError).  It is a miss; the next put rewrites it.
                    self._stats.misses += 1
                    return None
                canonical = fingerprint != identity.fingerprint
                self._stats.hits += 1
                if canonical:
                    self._stats.canonical_hits += 1
                else:
                    self._stats.syntactic_hits += 1
                return StoreHit(outcome, canonical)
            finally:
                self._flush_stats()

    def put(self, identity: ProblemIdentity, outcome: ImplicationOutcome) -> None:
        """Write the outcome atomically; disk errors degrade, never raise."""
        target = self._entry_path(identity)
        with self._lock:
            try:
                write_atomically(target, pickle.dumps((identity.fingerprint, outcome)))
            except OSError:
                # A full or read-only disk degrades the cache, not the solve.
                self._stats.write_errors += 1
            else:
                self._stats.puts += 1
                self._puts_since_prune += 1
                if self._puts_since_prune >= self._prune_every:
                    self._puts_since_prune = 0
                    with contextlib.suppress(OSError):
                        self._prune()
            finally:
                self._flush_stats()

    def shared_stats(self) -> StoreStats:
        """Store-wide counters aggregated across every process's sidecar.

        Sums the ``stats-*.json`` sidecars in the directory (flushing this
        process's first), so the numbers cover all workers sharing the
        store, not just this one.  Unreadable sidecars are skipped.
        """
        with self._lock:
            self._flush_stats()
            total = StoreStats()
            try:
                names = sorted(os.listdir(self._path))
            except OSError:
                names = []
            for name in names:
                if not (name.startswith("stats-") and name.endswith(".json")):
                    continue
                try:
                    with open(
                        os.path.join(self._path, name), encoding="utf-8"
                    ) as handle:
                        part = StoreStats.from_dict(json.load(handle))
                except (OSError, ValueError):
                    continue
                total.hits += part.hits
                total.canonical_hits += part.canonical_hits
                total.syntactic_hits += part.syntactic_hits
                total.misses += part.misses
                total.puts += part.puts
                total.evictions += part.evictions
                total.write_errors += part.write_errors
            return total

    def _prune(self) -> None:
        """Evict the oldest entries (by mtime) down to ``max_entries``."""
        entries = []
        for name in os.listdir(self._path):
            if not name.endswith(".pkl"):
                continue
            full = os.path.join(self._path, name)
            try:
                entries.append((os.path.getmtime(full), full))
            except OSError:
                continue
        excess = len(entries) - self._max_entries
        if excess <= 0:
            return
        entries.sort()
        for _, full in entries[:excess]:
            try:
                os.remove(full)
                self._stats.evictions += 1
            except OSError:
                continue

    @property
    def stats(self) -> StoreStats:
        """This process's counters only (see :meth:`shared_stats`)."""
        return self._stats

    def __len__(self) -> int:
        try:
            return sum(1 for name in os.listdir(self._path) if name.endswith(".pkl"))
        except OSError:
            return 0

    def clear(self) -> None:
        """Delete every entry file in the shared directory."""
        with self._lock:
            try:
                for name in os.listdir(self._path):
                    if name.endswith(".pkl") or name.endswith(".tmp"):
                        try:
                            os.remove(os.path.join(self._path, name))
                        except OSError:
                            continue
            except OSError:
                return None


def build_store(cache: Optional[CacheConfig] = None) -> OutcomeStore:
    """Construct the store a :class:`~repro.config.CacheConfig` describes."""
    cache = cache if cache is not None else CacheConfig()
    kind = cache.resolved_store()
    if kind == "off":
        return NullStore()
    if kind == "memory":
        return InMemoryStore(max_entries=cache.max_entries, ttl=cache.ttl)
    if kind == "shared":
        if cache.shared_path is None:
            raise ConfigError("a shared outcome store needs cache.shared_path")
        return FileOutcomeStore(
            cache.shared_path, max_entries=cache.max_entries, ttl=cache.ttl
        )
    raise ConfigError(f"unknown outcome store kind {kind!r}")


__all__ = [
    "FileOutcomeStore",
    "InMemoryStore",
    "NullStore",
    "OutcomeStore",
    "StoreHit",
    "StoreStats",
    "build_store",
]
