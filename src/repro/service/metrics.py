"""A small thread-safe counter/gauge/histogram registry for the service.

The service's observability surface (``GET /metrics``) is built on three
instrument kinds, each of which supports labelled children (one family per
registered name, one child per label combination):

* :class:`Counter` -- a monotonically increasing count (requests served,
  batches flushed, fairness rejections);
* :class:`Gauge` -- a point-in-time level with a high-water mark (in-flight
  batches, pool saturation); the high-water mark is what the fairness tests
  assert against, since a saturation *peak* above a tenant's budget is
  exactly the starvation the gate must prevent;
* :class:`Histogram` -- bucketed observations with count and sum (batch
  sizes, per-strategy solve latency, chase rounds).

Every instrument carries its own lock: observations arrive from the
event loop, from ``asyncio.to_thread`` batch workers, and from the chase
engine's run observer, so plain ``+=`` on shared floats would race.  The
registry's :meth:`MetricsRegistry.to_dict` snapshot is deterministic
(families and children are sorted), which keeps ``/metrics`` responses
stable for tests.
"""

from __future__ import annotations

import json
import os
import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from repro.util.atomic import write_atomically

#: Default latency buckets (seconds), roughly logarithmic from 1 ms to 30 s.
LATENCY_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)

#: Default size buckets (batch sizes, chase rounds): powers of two.
SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

_Labels = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> _Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """One child of a counter family: a monotonically increasing count."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the count."""
        if amount < 0:
            raise ValueError("a Counter only goes up; use a Gauge instead")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        """The current count."""
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        """A JSON-serializable view: ``{"value": n}``."""
        return {"value": self.value}


class Gauge:
    """One child of a gauge family: a level plus its high-water mark."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self._high_water = 0.0

    def set(self, value: float) -> None:
        """Set the level (the high-water mark only ratchets up)."""
        with self._lock:
            self._value = value
            if value > self._high_water:
                self._high_water = value

    def inc(self, amount: float = 1) -> None:
        """Raise the level by ``amount``."""
        with self._lock:
            self._value += amount
            if self._value > self._high_water:
                self._high_water = self._value

    def dec(self, amount: float = 1) -> None:
        """Lower the level by ``amount`` (the high-water mark stays)."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        """The current level."""
        with self._lock:
            return self._value

    @property
    def high_water(self) -> float:
        """The highest level ever set (never decreases)."""
        with self._lock:
            return self._high_water

    def snapshot(self) -> dict:
        """A JSON-serializable view: level plus high-water mark."""
        with self._lock:
            return {"value": self._value, "high_water": self._high_water}


class Histogram:
    """One child of a histogram family: bucketed observations.

    ``buckets`` are the inclusive upper bounds of each bin; observations
    above the last bound land in the implicit ``+Inf`` overflow bin.  The
    snapshot reports *cumulative* bucket counts (every bound counts all
    observations at or below it), plus the total count and sum.
    """

    def __init__(self, buckets: Sequence[float]) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be a non-empty sorted sequence")
        self._lock = threading.Lock()
        self._bounds = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self._bounds) + 1)  # + overflow bin
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self._counts[bisect_left(self._bounds, value)] += 1
            self._count += 1
            self._sum += value

    @property
    def count(self) -> int:
        """How many observations have been recorded."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """The sum of all recorded observations."""
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """An upper bound on the ``q``-quantile (bucket resolution).

        Returns the smallest bucket bound covering at least ``q`` of the
        observations -- or the last bound if the quantile falls in the
        overflow bin.  Used by tests and the bench report; coarse by design.
        """
        if not 0 <= q <= 1:
            raise ValueError("a quantile must lie in [0, 1]")
        with self._lock:
            if self._count == 0:
                return 0.0
            target = q * self._count
            running = 0
            for bound, count in zip(self._bounds, self._counts):
                running += count
                if running >= target:
                    return bound
            return self._bounds[-1]

    def snapshot(self) -> dict:
        """A JSON-serializable view: count, sum, cumulative buckets."""
        with self._lock:
            cumulative = {}
            running = 0
            for bound, count in zip(self._bounds, self._counts):
                running += count
                cumulative[repr(bound)] = running
            return {"count": self._count, "sum": self._sum, "buckets": cumulative}


class _Family:
    """A named metric family: one child per label combination."""

    def __init__(self, kind: str, name: str, description: str, factory) -> None:
        self.kind = kind
        self.name = name
        self.description = description
        self._factory = factory
        self._lock = threading.Lock()
        self._children: Dict[_Labels, object] = {}

    def labels(self, **labels: str):
        """The child for this label combination (created on first use)."""
        key = _label_key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._factory()
                self._children[key] = child
            return child

    def snapshot(self) -> dict:
        """The family's children, flat when only the unlabelled child exists."""
        with self._lock:
            children = sorted(self._children.items())
        payload: dict = {"type": self.kind, "description": self.description}
        if list(dict(children)) == [()]:
            # The common unlabelled case stays flat for readability.
            payload.update(children[0][1].snapshot())
        else:
            payload["children"] = [
                {"labels": dict(labels), **child.snapshot()}
                for labels, child in children
            ]
        return payload


class MetricsRegistry:
    """A named collection of metric families with a deterministic snapshot.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: registering
    the same name twice returns the existing family (a kind mismatch is an
    error).  The convenience pattern for unlabelled use is
    ``registry.counter("requests_total").labels()``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    def _family(self, kind: str, name: str, description: str, factory) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(kind, name, description, factory)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as a {family.kind}"
                )
            return family

    def counter(self, name: str, description: str = "") -> _Family:
        """Get or create a counter family."""
        return self._family("counter", name, description, Counter)

    def gauge(self, name: str, description: str = "") -> _Family:
        """Get or create a gauge family."""
        return self._family("gauge", name, description, Gauge)

    def histogram(
        self,
        name: str,
        description: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> _Family:
        """Get or create a histogram family (default: latency buckets)."""
        bounds = tuple(buckets) if buckets is not None else LATENCY_BUCKETS

        def _factory() -> Histogram:
            return Histogram(bounds)

        return self._family("histogram", name, description, _factory)

    def to_dict(self) -> dict:
        """A deterministic JSON-serializable snapshot of every family."""
        with self._lock:
            families = sorted(self._families.items())
        return {name: family.snapshot() for name, family in families}


# ---------------------------------------------------------------------------
# Multi-worker sidecar aggregation
#
# Under ``--workers N`` each worker process owns a private registry; there is
# no shared memory.  Instead each worker periodically flushes its ``to_dict``
# snapshot to ``<metrics_dir>/worker-<id>.json`` (atomic tempfile + replace,
# so a reader never sees a torn file), and whichever worker answers a
# ``/metrics`` scrape folds every sidecar file into one aggregate view:
# counters and histogram bins sum, gauge levels sum (the fleet's total
# in-flight load), and gauge high-water marks take the max (the worst any one
# worker saw).  The aggregate is approximate between flushes by design; the
# server's throttled per-request flush (with a trailing write) makes it
# exact within SIDECAR_FLUSH_INTERVAL of the fleet going idle, which is when
# the smoke tests scrape it (they retry briefly to ride out the tail).
# ---------------------------------------------------------------------------


def worker_snapshot_path(directory: str, worker_id: int) -> str:
    """Where worker ``worker_id`` flushes its metrics snapshot."""
    return os.path.join(directory, f"worker-{worker_id}.json")


def write_worker_snapshot(directory: str, worker_id: int, payload: dict) -> str:
    """Atomically write one worker's snapshot sidecar; returns its path.

    The payload is written to a staging file in the same directory and
    renamed into place, so concurrent readers always see a complete JSON
    document (possibly one flush stale, never torn).  The staging name
    (``.worker-<id>.*.tmp``) is one :func:`read_worker_snapshots` skips.
    """
    os.makedirs(directory, exist_ok=True)
    path = worker_snapshot_path(directory, worker_id)
    write_atomically(
        path,
        json.dumps(payload, sort_keys=True).encode(),
        prefix=f".worker-{worker_id}.",
    )
    return path


def read_worker_snapshots(directory: str) -> List[Tuple[int, dict]]:
    """Every readable ``worker-*.json`` sidecar, sorted by worker id.

    Unreadable or half-written files (a worker dying mid-flush before the
    rename) are skipped rather than failing the scrape.
    """
    snapshots: List[Tuple[int, dict]] = []
    try:
        names = os.listdir(directory)
    except OSError:
        return snapshots
    for name in names:
        if not (name.startswith("worker-") and name.endswith(".json")):
            continue
        try:
            worker_id = int(name[len("worker-"):-len(".json")])
        except ValueError:
            continue
        try:
            with open(os.path.join(directory, name), encoding="utf-8") as stream:
                payload = json.load(stream)
        except (OSError, ValueError):
            continue
        if isinstance(payload, dict):
            snapshots.append((worker_id, payload))
    snapshots.sort(key=lambda item: item[0])
    return snapshots


def _merge_child(kind: str, target: dict, source: dict) -> None:
    """Fold one child's numbers into ``target`` according to its kind."""
    if kind == "counter":
        target["value"] = target.get("value", 0) + source.get("value", 0)
    elif kind == "gauge":
        target["value"] = target.get("value", 0) + source.get("value", 0)
        target["high_water"] = max(
            target.get("high_water", 0), source.get("high_water", 0))
    elif kind == "histogram":
        target["count"] = target.get("count", 0) + source.get("count", 0)
        target["sum"] = target.get("sum", 0.0) + source.get("sum", 0.0)
        buckets = target.setdefault("buckets", {})
        for bound, count in source.get("buckets", {}).items():
            buckets[bound] = buckets.get(bound, 0) + count


def merge_metric_snapshots(snapshots: Sequence[dict]) -> dict:
    """Fold several registry snapshots into one fleet-wide view.

    Counters and histograms sum; gauge levels sum while their high-water
    marks take the max.  Families and labelled children are matched by
    name and label set; a family or child present in only some snapshots
    simply contributes what it has.  The result has the same shape as
    :meth:`MetricsRegistry.to_dict`, so everything that renders a single
    worker's metrics renders the aggregate too.
    """
    merged: Dict[str, dict] = {}
    children: Dict[str, Dict[_Labels, dict]] = {}
    for snapshot in snapshots:
        for name, family in snapshot.items():
            if not isinstance(family, dict) or "type" not in family:
                continue
            kind = family["type"]
            if name not in merged:
                merged[name] = {
                    "type": kind,
                    "description": family.get("description", ""),
                }
                children[name] = {}
            if merged[name]["type"] != kind:
                continue  # A kind clash across workers: keep the first.
            if "children" in family:
                entries = [
                    (_label_key(child.get("labels", {})), child)
                    for child in family["children"]
                ]
            else:
                entries = [((), family)]
            for key, child in entries:
                target = children[name].setdefault(key, {})
                _merge_child(kind, target, child)
    result: Dict[str, dict] = {}
    for name in sorted(merged):
        family = dict(merged[name])
        kids = children[name]
        if list(kids) == [()]:
            family.update(kids[()])
        else:
            family["children"] = [
                {"labels": dict(labels), **kids[labels]}
                for labels in sorted(kids)
            ]
        result[name] = family
    return result
