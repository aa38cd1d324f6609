"""Frozen budget and configuration objects for the solver stack.

The paper proves that implication and finite implication are undecidable for
typed template dependencies, so every procedure in this library is budgeted:
the chase is cut off after a step/row budget, the finite-counterexample
search after a size/domain bound.  Historically those budgets travelled as a
soup of keyword arguments (``max_steps``, ``max_rows``,
``finite_search_rows``, ...) repeated on every constructor.  This module
replaces them with three small frozen objects:

* :class:`ChaseBudget` -- limits for one chase run,
* :class:`FiniteSearchBudget` -- bounds for the finite-counterexample
  enumeration,
* :class:`SolverConfig` -- the full configuration of an implication solver,
  combining both budgets.

All three are immutable and hashable, which lets the batch solving path in
:mod:`repro.api` use them directly as memoization-key components.  The old
keyword arguments keep working everywhere via thin deprecation shims that
funnel into these objects.
"""

from __future__ import annotations

import os
import tempfile
import warnings
from dataclasses import dataclass, field, replace
from typing import Literal, Mapping, Optional

from repro.util.errors import ReproError


class ConfigError(ReproError):
    """An invalid budget or solver configuration."""


#: The recognised chase scheduling strategies (see :mod:`repro.chase.strategies`).
CHASE_STRATEGIES = ("rescan", "incremental", "sharded", "streaming", "auto")

#: Default worker count of the sharded and streaming strategies -- the single
#: source shared by :class:`ChaseBudget`, its ``from_dict`` fallback, and
#: ``make_strategy``.
DEFAULT_SHARD_COUNT = 2

ChaseStrategyName = Literal["rescan", "incremental", "sharded", "streaming", "auto"]

#: The recognised columnar-kernel modes (see :mod:`repro.chase.kernel`).
#: Configuration restricts itself to the policy choices; the concrete
#: backend (numpy vs pure-Python bitset) is resolved at strategy start-up.
CHASE_KERNELS = ("auto", "on", "off")

ChaseKernelMode = Literal["auto", "on", "off"]


#: The recognised checkpointing modes (see :mod:`repro.chase.checkpoint`).
#: ``"auto"`` resolves to ``"off"`` unless the ``REPRO_CHECKPOINT``
#: environment variable overrides it.
CHECKPOINT_MODES = ("auto", "on", "off")

CheckpointMode = Literal["auto", "on", "off"]

#: Environment override for default-"auto" checkpoint configurations,
#: mirroring ``REPRO_CHASE_KERNEL`` / ``REPRO_CACHE_MODE``: ``on`` / ``off``
#: rewrite an "auto" mode.  Explicit settings always win.
CHECKPOINT_ENV = "REPRO_CHECKPOINT"


def _check_checkpoint_mode(name: str) -> None:
    if name not in CHECKPOINT_MODES:
        raise ConfigError(
            f"unknown checkpoint mode {name!r}; "
            f"expected one of {', '.join(CHECKPOINT_MODES)}"
        )


@dataclass(frozen=True)
class CheckpointConfig:
    """Durable chase-log policy (see :mod:`repro.chase.checkpoint`).

    Attributes
    ----------
    mode:
        ``"on"`` writes a schema-versioned delta log for every chase run,
        ``"off"`` writes nothing, ``"auto"`` resolves to off unless the
        ``REPRO_CHECKPOINT`` environment variable says otherwise (the
        ``REPRO_CHASE_KERNEL`` precedent: only default-"auto" configs are
        rewritten, explicit settings always win).
    interval:
        How many applied steps between periodic :class:`ChaseState`
        snapshots inside the log.  Snapshots bound replay cost on resume;
        the step stream between snapshots is replayed through the real
        step functions.
    directory:
        Where log segments live.  ``None`` resolves to
        ``<tempdir>/repro-checkpoints``.
    retention:
        How many finished log segments to keep in the directory; the
        oldest beyond this are pruned after each run completes.  Logs
        without a footer (crashed runs) are never pruned.
    """

    mode: CheckpointMode = "auto"
    interval: int = 200
    directory: Optional[str] = None
    retention: int = 16

    def __post_init__(self) -> None:
        _check_checkpoint_mode(self.mode)
        if self.interval < 1:
            raise ConfigError("a checkpoint config needs interval >= 1")
        if self.retention < 1:
            raise ConfigError("a checkpoint config needs retention >= 1")

    def resolved_mode(self) -> str:
        """The concrete mode, honouring ``REPRO_CHECKPOINT`` for "auto"."""
        if self.mode != "auto":
            return self.mode
        override = os.environ.get(CHECKPOINT_ENV)
        if override in ("on", "off"):
            return override
        return "off"

    def resolved_directory(self) -> str:
        """The concrete log directory (default: ``<tempdir>/repro-checkpoints``)."""
        if self.directory is not None:
            return self.directory
        return os.path.join(tempfile.gettempdir(), "repro-checkpoints")

    def to_dict(self) -> dict:
        """A JSON-serializable snapshot (inverse of :meth:`from_dict`)."""
        return {
            "mode": self.mode,
            "interval": self.interval,
            "directory": self.directory,
            "retention": self.retention,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CheckpointConfig":
        """Rebuild a checkpoint config from :meth:`to_dict` output."""
        return cls(
            mode=payload.get("mode", "auto"),
            interval=payload.get("interval", 200),
            directory=payload.get("directory"),
            retention=payload.get("retention", 16),
        )


def _check_strategy(name: str) -> None:
    if name not in CHASE_STRATEGIES:
        raise ConfigError(
            f"unknown chase strategy {name!r}; "
            f"expected one of {', '.join(CHASE_STRATEGIES)}"
        )


def _check_kernel(name: str) -> None:
    if name not in CHASE_KERNELS:
        raise ConfigError(
            f"unknown chase kernel mode {name!r}; "
            f"expected one of {', '.join(CHASE_KERNELS)}"
        )


@dataclass(frozen=True)
class ChaseBudget:
    """Limits and scheduling choice for a single chase run.

    Attributes
    ----------
    max_steps:
        Budget on applied chase steps.
    max_rows:
        Budget on the tableau size.
    chase_strategy:
        Which trigger-scheduling strategy the engine uses: ``"rescan"``
        (re-enumerate every trigger each round; the reference oracle),
        ``"incremental"`` (delta-driven trigger index), ``"sharded"``
        (the incremental worklist partitioned across ``shard_count``
        workers, merged at each round barrier), ``"streaming"`` (the
        sharded worklist fed delta-by-delta as the round applies, so
        workers extend matches concurrently with the tail of the round),
        or ``"auto"`` (currently ``"incremental"``).  All strategies
        produce the same chase result; pin ``"rescan"`` when debugging
        the trigger index.
    shard_count:
        How many workers the ``"sharded"`` and ``"streaming"`` strategies
        partition the trigger worklist across.  Ignored by the other
        strategies.
    chase_kernel:
        Whether trigger matching runs on the columnar kernel
        (:mod:`repro.chase.kernel`): ``"auto"`` (the pure-Python bitset
        backend; the default), ``"on"`` (numpy backend when available,
        bitset backend otherwise), or ``"off"`` (classic dict-probing
        matcher).  Ignored by ``"rescan"``.  Every setting produces
        byte-identical chase results.
    checkpoint:
        Durable chase-log policy (:class:`CheckpointConfig`): whether the
        engine appends a schema-versioned delta log that a budget-exhausted
        or crashed run can be resumed from, and where the segments live.
    deadline:
        Optional wall-clock cut-off for the run, as an *absolute*
        ``time.monotonic()`` instant.  The engine checks it at every round
        boundary and raises
        :class:`~repro.util.errors.ChaseDeadlineExceeded` (sealing a
        resumable checkpoint first, like budget exhaustion) once it passes.
        Runtime-only: a deadline never travels through ``to_dict`` /
        ``from_dict`` (monotonic instants are meaningless to another
        process or a later boot) and therefore never enters checkpoint
        logs or cache identities.  The service sets it per request from
        the protocol's ``deadline_ms``.
    """

    max_steps: int = 2000
    max_rows: int = 5000
    chase_strategy: ChaseStrategyName = "auto"
    shard_count: int = DEFAULT_SHARD_COUNT
    chase_kernel: ChaseKernelMode = "auto"
    checkpoint: CheckpointConfig = field(default_factory=CheckpointConfig)
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ConfigError("a chase budget needs max_steps >= 1")
        if self.max_rows < 1:
            raise ConfigError("a chase budget needs max_rows >= 1")
        if self.shard_count < 1:
            raise ConfigError("a chase budget needs shard_count >= 1")
        _check_strategy(self.chase_strategy)
        _check_kernel(self.chase_kernel)
        if not isinstance(self.checkpoint, CheckpointConfig):
            raise ConfigError("checkpoint must be a CheckpointConfig")
        if self.deadline is not None and not isinstance(
            self.deadline, (int, float)
        ):
            raise ConfigError(
                "deadline must be None or an absolute time.monotonic() instant"
            )

    def with_deadline(self, deadline: Optional[float]) -> "ChaseBudget":
        """A copy cut off at the given absolute monotonic instant (or not)."""
        return replace(self, deadline=deadline)

    def resolved_strategy(self) -> str:
        """The concrete strategy name (``"auto"`` resolves to incremental)."""
        return "incremental" if self.chase_strategy == "auto" else self.chase_strategy

    def raised_to(self, max_steps: int, max_rows: int) -> "ChaseBudget":
        """A budget at least as generous as both ``self`` and the given floors.

        The terminating-chase decision procedure for full dependencies uses
        this to guarantee a generous safety budget without ever *shrinking* a
        caller-supplied one.  The scheduling strategy is preserved.
        """
        return replace(
            self,
            max_steps=max(self.max_steps, max_steps),
            max_rows=max(self.max_rows, max_rows),
        )

    @classmethod
    def generous(cls) -> "ChaseBudget":
        """The budget used by the decidable (terminating-chase) fragment."""
        return cls(max_steps=20000, max_rows=20000)

    def to_dict(self) -> dict:
        """A JSON-serializable snapshot (inverse of :meth:`from_dict`).

        ``deadline`` is deliberately absent: it is an absolute monotonic
        instant valid only inside the process that set it, so serialized
        budgets (checkpoint logs, cache identities, config files) never
        carry one.
        """
        return {
            "max_steps": self.max_steps,
            "max_rows": self.max_rows,
            "chase_strategy": self.chase_strategy,
            "shard_count": self.shard_count,
            "chase_kernel": self.chase_kernel,
            "checkpoint": self.checkpoint.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ChaseBudget":
        """Rebuild a budget from :meth:`to_dict` output (missing keys default)."""
        return cls(
            max_steps=payload.get("max_steps", 2000),
            max_rows=payload.get("max_rows", 5000),
            chase_strategy=payload.get("chase_strategy", "auto"),
            shard_count=payload.get("shard_count", DEFAULT_SHARD_COUNT),
            chase_kernel=payload.get("chase_kernel", "auto"),
            checkpoint=CheckpointConfig.from_dict(payload.get("checkpoint", {})),
        )


@dataclass(frozen=True)
class FiniteSearchBudget:
    """Bounds for the bounded finite-counterexample enumeration.

    Attributes
    ----------
    max_rows:
        Largest candidate-relation size enumerated.
    domain_size:
        Size of the canonical per-column (typed) or shared (untyped) domain.
    max_candidates:
        Optional hard cap on examined candidates, ``None`` for exhaustive
        enumeration of the bounded space.
    """

    max_rows: int = 3
    domain_size: int = 2
    max_candidates: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_rows < 1:
            raise ConfigError("a finite-search budget needs max_rows >= 1")
        if self.domain_size < 1:
            raise ConfigError("a finite-search budget needs domain_size >= 1")
        if self.max_candidates is not None and self.max_candidates < 1:
            raise ConfigError("max_candidates must be None or >= 1")

    def to_dict(self) -> dict:
        """A JSON-serializable snapshot (inverse of :meth:`from_dict`)."""
        return {
            "max_rows": self.max_rows,
            "domain_size": self.domain_size,
            "max_candidates": self.max_candidates,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FiniteSearchBudget":
        """Rebuild a budget from :meth:`to_dict` output (missing keys default)."""
        return cls(
            max_rows=payload.get("max_rows", 3),
            domain_size=payload.get("domain_size", 2),
            max_candidates=payload.get("max_candidates"),
        )


#: The recognised problem-identity modes for outcome caching.  ``"auto"``
#: resolves to ``"syntactic"`` (today's byte-identical behaviour) unless
#: the ``REPRO_CACHE_MODE`` environment variable overrides it.
CACHE_MODES = ("auto", "syntactic", "canonical")

CacheMode = Literal["auto", "syntactic", "canonical"]

#: The recognised outcome-store kinds (see :mod:`repro.api.store`).
#: ``"auto"`` resolves to ``"shared"`` when ``shared_path`` is set and to
#: ``"memory"`` otherwise; ``REPRO_CACHE_MODE=off`` forces ``"off"``.
CACHE_STORES = ("auto", "memory", "shared", "off")

CacheStoreKind = Literal["auto", "memory", "shared", "off"]

#: Environment override for default-"auto" cache configurations, mirroring
#: ``REPRO_CHASE_KERNEL``: ``syntactic`` / ``canonical`` rewrite an "auto"
#: mode, ``off`` rewrites an "auto" store.  Explicit settings always win.
CACHE_MODE_ENV = "REPRO_CACHE_MODE"


def _check_cache_mode(name: str) -> None:
    if name not in CACHE_MODES:
        raise ConfigError(
            f"unknown cache mode {name!r}; expected one of {', '.join(CACHE_MODES)}"
        )


def _check_cache_store(name: str) -> None:
    if name not in CACHE_STORES:
        raise ConfigError(
            f"unknown cache store {name!r}; expected one of {', '.join(CACHE_STORES)}"
        )


@dataclass(frozen=True)
class CacheConfig:
    """How a solver identifies and stores solved problems.

    Attributes
    ----------
    mode:
        Problem-identity regime: ``"syntactic"`` keys on the problem
        exactly as written (byte-identical presentation guaranteed),
        ``"canonical"`` keys on the renaming-invariant canonical form of
        :mod:`repro.model.canon` so isomorphic queries share one entry
        (verdict and reason identical; counterexample presentation follows
        the first-seen naming).  ``"auto"`` resolves to syntactic unless
        ``REPRO_CACHE_MODE`` says otherwise.
    store:
        Which :class:`~repro.api.store.OutcomeStore` backs the solver:
        ``"memory"`` (thread-safe in-process LRU), ``"shared"`` (the
        file-backed store at ``shared_path``, usable by multiple service
        workers), ``"off"`` (no outcome caching), or ``"auto"``.
    max_entries:
        LRU capacity of the store.
    ttl:
        Optional seconds an entry stays valid.
    shared_path:
        Directory of the ``"shared"`` store.
    """

    mode: CacheMode = "auto"
    store: CacheStoreKind = "auto"
    max_entries: int = 4096
    ttl: Optional[float] = None
    shared_path: Optional[str] = None

    def __post_init__(self) -> None:
        _check_cache_mode(self.mode)
        _check_cache_store(self.store)
        if self.max_entries < 1:
            raise ConfigError("a cache config needs max_entries >= 1")
        if self.ttl is not None and self.ttl <= 0:
            raise ConfigError("a cache config needs ttl None or > 0")

    def resolved_mode(self) -> str:
        """The concrete identity mode, honouring ``REPRO_CACHE_MODE``.

        Only default-"auto" configurations are rewritten by the
        environment (the ``REPRO_CHASE_KERNEL`` precedent): explicitly
        pinned modes always win.
        """
        if self.mode != "auto":
            return self.mode
        override = os.environ.get(CACHE_MODE_ENV)
        if override in ("syntactic", "canonical"):
            return override
        return "syntactic"

    def resolved_store(self) -> str:
        """The concrete store kind, honouring ``REPRO_CACHE_MODE=off``."""
        if self.store != "auto":
            return self.store
        if os.environ.get(CACHE_MODE_ENV) == "off":
            return "off"
        return "shared" if self.shared_path is not None else "memory"

    def to_dict(self) -> dict:
        """A JSON-serializable snapshot (inverse of :meth:`from_dict`)."""
        return {
            "mode": self.mode,
            "store": self.store,
            "max_entries": self.max_entries,
            "ttl": self.ttl,
            "shared_path": self.shared_path,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CacheConfig":
        """Rebuild a cache config from :meth:`to_dict` output."""
        return cls(
            mode=payload.get("mode", "auto"),
            store=payload.get("store", "auto"),
            max_entries=payload.get("max_entries", 4096),
            ttl=payload.get("ttl"),
            shared_path=payload.get("shared_path"),
        )


@dataclass(frozen=True)
class SolverConfig:
    """Full configuration of an implication solver.

    Attributes
    ----------
    chase:
        Budget for the general (possibly non-terminating) chase.
    finite_search:
        Bounds for the finite-counterexample search used by finite
        implication.
    trace:
        Record chase steps in results (costs memory, helps debugging).
    cache:
        Outcome-cache policy: identity mode (syntactic vs canonical) and
        the backing store (see :class:`CacheConfig`).
    """

    chase: ChaseBudget = ChaseBudget()
    finite_search: FiniteSearchBudget = FiniteSearchBudget()
    trace: bool = False
    cache: CacheConfig = CacheConfig()

    def with_chase(self, **kwargs) -> "SolverConfig":
        """A copy with the chase budget's fields replaced."""
        return replace(self, chase=replace(self.chase, **kwargs))

    def with_finite_search(self, **kwargs) -> "SolverConfig":
        """A copy with the finite-search budget's fields replaced."""
        return replace(self, finite_search=replace(self.finite_search, **kwargs))

    def with_cache(self, **kwargs) -> "SolverConfig":
        """A copy with the cache policy's fields replaced."""
        return replace(self, cache=replace(self.cache, **kwargs))

    @property
    def chase_strategy(self) -> str:
        """The chase scheduling strategy (lives on the chase budget)."""
        return self.chase.chase_strategy

    def with_strategy(
        self,
        strategy: ChaseStrategyName,
        shard_count: Optional[int] = None,
        kernel: Optional[ChaseKernelMode] = None,
    ) -> "SolverConfig":
        """A copy pinning the chase scheduling strategy.

        ``shard_count`` (only meaningful with ``"sharded"`` and
        ``"streaming"``) sets how many workers the strategy partitions the
        trigger worklist across; ``kernel`` pins the columnar
        trigger-matching kernel (``"auto"`` / ``"on"`` / ``"off"``).
        ``None`` keeps the budget's current value for either.
        """
        _check_strategy(strategy)
        overrides: dict = {"chase_strategy": strategy}
        if shard_count is not None:
            overrides["shard_count"] = shard_count
        if kernel is not None:
            _check_kernel(kernel)
            overrides["chase_kernel"] = kernel
        return self.with_chase(**overrides)

    def with_checkpoint(
        self,
        mode: Optional[CheckpointMode] = None,
        *,
        interval: Optional[int] = None,
        directory: Optional[str] = None,
        retention: Optional[int] = None,
    ) -> "SolverConfig":
        """A copy with the chase checkpoint policy's fields replaced.

        Joins :meth:`with_strategy` / :meth:`with_cache` as the builder
        trio; ``None`` keeps the current value for any field.  The common
        call is ``config.with_checkpoint("on", directory=...)``.
        """
        overrides: dict = {}
        if mode is not None:
            _check_checkpoint_mode(mode)
            overrides["mode"] = mode
        if interval is not None:
            overrides["interval"] = interval
        if directory is not None:
            overrides["directory"] = directory
        if retention is not None:
            overrides["retention"] = retention
        return self.with_chase(
            checkpoint=replace(self.chase.checkpoint, **overrides)
        )

    def to_dict(self) -> dict:
        """A JSON-serializable snapshot (inverse of :meth:`from_dict`)."""
        return {
            "chase": self.chase.to_dict(),
            "finite_search": self.finite_search.to_dict(),
            "trace": self.trace,
            "cache": self.cache.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SolverConfig":
        """Rebuild a configuration from :meth:`to_dict` output."""
        return cls(
            chase=ChaseBudget.from_dict(payload.get("chase", {})),
            finite_search=FiniteSearchBudget.from_dict(
                payload.get("finite_search", {})
            ),
            trace=payload.get("trace", False),
            cache=CacheConfig.from_dict(payload.get("cache", {})),
        )


@dataclass(frozen=True)
class ServiceConfig:
    """Full configuration of the persistent solver service.

    Combines the service's own knobs (where to listen, how to batch, how to
    backpressure) with the :class:`SolverConfig` its solver runs under, so
    one JSON document describes a whole deployment (``to_dict`` /
    ``from_dict`` round-trip, like every other config object here).

    Attributes
    ----------
    host, port:
        Listen address.  ``port=0`` binds an ephemeral port (the server
        reports the actual one), which is what the tests and the benchmark
        use.
    batch_window:
        How long (seconds) the request coalescer holds the first query of a
        window open for companions before flushing the batch.  ``0`` flushes
        every query immediately (coalescing only concurrent duplicates).
    max_batch_size:
        A full window flushes early at this many distinct problems.
    max_concurrent_batches:
        How many coalesced batches may be solving at once; the pool
        saturation gauge is ``in_flight / max_concurrent_batches``.
    per_client_in_flight:
        The fairness budget: how many requests one client id may have in
        flight before further ones are answered with 429-style backpressure.
    processes:
        Worker-pool size for solving batches.  ``None``/``<= 1`` solves on a
        thread off the event loop; ``> 1`` multiplexes batches over one
        long-lived shared process pool (an :class:`~repro.api.AsyncSolver`).
    drain_timeout:
        How long (seconds) a graceful drain waits for in-flight work before
        giving up and closing anyway.
    universe:
        Attribute names of the solver's universe (``"ABCD"``), or ``None``
        to infer per query.
    solver:
        The :class:`SolverConfig` the service's solver runs under.
    workers:
        How many service worker processes the ``python -m repro.service``
        supervisor runs behind one listening port.  ``1`` (the default)
        serves directly in-process with no supervisor.
    worker_id:
        Which worker of a multi-worker deployment this process is (``0``
        for a single-process service).  Set by the supervisor; shows up in
        the ``/metrics`` service section, the metrics sidecar files, and
        every access-log record.
    requests_per_second:
        Per-client token-bucket *rate* limit, layered outside the
        ``per_client_in_flight`` fairness cap.  ``None`` (the default)
        disables rate limiting.  A limited request is answered 429 with
        the stable ``rate_limited`` code (distinct from the fairness
        gate's ``overloaded``).
    burst:
        Bucket capacity of the rate limiter: how many requests a client
        may spend instantly from a full bucket before the refill rate
        governs.  Only meaningful with ``requests_per_second`` set.
    default_deadline_ms:
        Server-side default request deadline (milliseconds).  Each
        request runs under ``min(deadline_ms, default_deadline_ms)`` of
        the envelope's own ``deadline_ms`` and this default; ``None``
        means no server-imposed deadline.  An expired request is answered
        504 ``deadline_exceeded`` and its chase is cut at the next round
        boundary via :attr:`ChaseBudget.deadline`.
    access_log_path:
        Where the structured JSONL access log is written (one record per
        ``/v1/solve`` request).  ``None`` disables the access log.  In a
        multi-worker deployment each worker logs to
        ``<path>.<worker_id>`` so records never interleave.
    access_log_max_bytes:
        Size threshold at which the access log rotates (``.1``, ``.2``,
        ... suffixes, oldest deleted beyond ``access_log_backups``).
    access_log_backups:
        How many rotated access-log segments to keep.
    metrics_dir:
        Directory for per-worker metrics sidecar JSON files.  When set,
        every worker flushes a snapshot of its registry there and
        ``/metrics`` serves a ``workers`` section aggregating all
        sidecars -- the multi-worker scrape.  The supervisor points all
        workers at one directory automatically.
    """

    host: str = "127.0.0.1"
    port: int = 8642
    batch_window: float = 0.005
    max_batch_size: int = 64
    max_concurrent_batches: int = 4
    per_client_in_flight: int = 8
    processes: Optional[int] = None
    drain_timeout: float = 30.0
    universe: Optional[str] = None
    solver: SolverConfig = SolverConfig()
    workers: int = 1
    worker_id: int = 0
    requests_per_second: Optional[float] = None
    burst: Optional[int] = None
    default_deadline_ms: Optional[int] = None
    access_log_path: Optional[str] = None
    access_log_max_bytes: int = 10 * 1024 * 1024
    access_log_backups: int = 3
    metrics_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ConfigError("a service config needs a port in [0, 65535]")
        if self.batch_window < 0:
            raise ConfigError("a service config needs batch_window >= 0")
        if self.max_batch_size < 1:
            raise ConfigError("a service config needs max_batch_size >= 1")
        if self.max_concurrent_batches < 1:
            raise ConfigError("a service config needs max_concurrent_batches >= 1")
        if self.per_client_in_flight < 1:
            raise ConfigError("a service config needs per_client_in_flight >= 1")
        if self.processes is not None and self.processes < 1:
            raise ConfigError("processes must be None or >= 1")
        if self.drain_timeout <= 0:
            raise ConfigError("a service config needs drain_timeout > 0")
        if self.workers < 1:
            raise ConfigError("a service config needs workers >= 1")
        if not 0 <= self.worker_id:
            raise ConfigError("a service config needs worker_id >= 0")
        if self.requests_per_second is not None and self.requests_per_second <= 0:
            raise ConfigError("requests_per_second must be None or > 0")
        if self.burst is not None and self.burst < 1:
            raise ConfigError("burst must be None or >= 1")
        if self.default_deadline_ms is not None and self.default_deadline_ms < 1:
            raise ConfigError("default_deadline_ms must be None or >= 1")
        if self.access_log_max_bytes < 1024:
            raise ConfigError("access_log_max_bytes must be >= 1024")
        if self.access_log_backups < 1:
            raise ConfigError("access_log_backups must be >= 1")

    def resolved_burst(self) -> Optional[int]:
        """The rate limiter's bucket capacity (defaults to ceil(rate), min 1)."""
        if self.requests_per_second is None:
            return None
        if self.burst is not None:
            return self.burst
        return max(1, int(self.requests_per_second + 0.999999))

    def to_dict(self) -> dict:
        """A JSON-serializable snapshot (inverse of :meth:`from_dict`)."""
        return {
            "host": self.host,
            "port": self.port,
            "batch_window": self.batch_window,
            "max_batch_size": self.max_batch_size,
            "max_concurrent_batches": self.max_concurrent_batches,
            "per_client_in_flight": self.per_client_in_flight,
            "processes": self.processes,
            "drain_timeout": self.drain_timeout,
            "universe": self.universe,
            "solver": self.solver.to_dict(),
            "workers": self.workers,
            "worker_id": self.worker_id,
            "requests_per_second": self.requests_per_second,
            "burst": self.burst,
            "default_deadline_ms": self.default_deadline_ms,
            "access_log_path": self.access_log_path,
            "access_log_max_bytes": self.access_log_max_bytes,
            "access_log_backups": self.access_log_backups,
            "metrics_dir": self.metrics_dir,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ServiceConfig":
        """Rebuild a configuration from :meth:`to_dict` output."""
        return cls(
            host=payload.get("host", "127.0.0.1"),
            port=payload.get("port", 8642),
            batch_window=payload.get("batch_window", 0.005),
            max_batch_size=payload.get("max_batch_size", 64),
            max_concurrent_batches=payload.get("max_concurrent_batches", 4),
            per_client_in_flight=payload.get("per_client_in_flight", 8),
            processes=payload.get("processes"),
            drain_timeout=payload.get("drain_timeout", 30.0),
            universe=payload.get("universe"),
            solver=SolverConfig.from_dict(payload.get("solver", {})),
            workers=payload.get("workers", 1),
            worker_id=payload.get("worker_id", 0),
            requests_per_second=payload.get("requests_per_second"),
            burst=payload.get("burst"),
            default_deadline_ms=payload.get("default_deadline_ms"),
            access_log_path=payload.get("access_log_path"),
            access_log_max_bytes=payload.get(
                "access_log_max_bytes", 10 * 1024 * 1024
            ),
            access_log_backups=payload.get("access_log_backups", 3),
            metrics_dir=payload.get("metrics_dir"),
        )


def warn_legacy_kwargs(api_name: str, **named) -> None:
    """Emit the deprecation warning for kwarg-soup call sites.

    Takes the legacy parameters as keywords; ``None`` values (parameter not
    passed) are dropped here, so call sites forward their raw optionals in
    one line.  Warns only when at least one legacy value was actually given.
    """
    legacy = {name: value for name, value in named.items() if value is not None}
    if not legacy:
        return
    names = ", ".join(sorted(legacy))
    warnings.warn(
        f"passing {names} to {api_name} is deprecated; "
        "pass a ChaseBudget / FiniteSearchBudget / SolverConfig instead",
        DeprecationWarning,
        stacklevel=3,
    )


def resolve_chase_budget(
    budget: Optional[ChaseBudget],
    max_steps: Optional[int],
    max_rows: Optional[int],
    default: Optional[ChaseBudget] = None,
) -> ChaseBudget:
    """Combine a budget object with legacy kwargs into one :class:`ChaseBudget`.

    Explicit legacy kwargs override the corresponding budget fields, so both
    call styles (and mixtures, during migration) behave predictably.
    """
    resolved = budget if budget is not None else (default or ChaseBudget())
    overrides = {}
    if max_steps is not None:
        overrides["max_steps"] = max_steps
    if max_rows is not None:
        overrides["max_rows"] = max_rows
    if overrides:
        resolved = replace(resolved, **overrides)
    return resolved


def resolve_finite_search_budget(
    budget: Optional[FiniteSearchBudget],
    max_rows: Optional[int],
    domain_size: Optional[int],
    max_candidates: Optional[int],
    default: Optional[FiniteSearchBudget] = None,
) -> FiniteSearchBudget:
    """Combine a budget object with legacy kwargs into one :class:`FiniteSearchBudget`."""
    resolved = budget if budget is not None else (default or FiniteSearchBudget())
    overrides: dict = {}
    if max_rows is not None:
        overrides["max_rows"] = max_rows
    if domain_size is not None:
        overrides["domain_size"] = domain_size
    if max_candidates is not None:
        overrides["max_candidates"] = max_candidates
    if overrides:
        resolved = replace(resolved, **overrides)
    return resolved
