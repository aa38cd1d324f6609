"""Durable chase checkpointing: schema-versioned delta logs with resume.

The paper proves implication undecidable for typed template dependencies, so
a budget-exhausted chase is an *expected* outcome -- and until now it threw
away every step it applied.  The delta stream (:class:`TdDelta` /
:class:`EgdDelta`) is already a replay log: every applied step reports one,
and each delta fully determines the post-step tableau.  This module
serializes that stream.

**Log format.**  One append-only JSONL segment per run, one record per line,
each tagged with a ``type``:

* ``header`` -- schema version, the budget, the *initial* instance, the
  dependency list (structurally serialized, not via the DSL), the fresh-name
  prefix, and whether tracing was on.  Written and flushed atomically when
  the log opens.
* ``round`` -- the full fair-ordered trigger list of one engine round
  (dependency position + canonical valuation each).
* ``step`` -- one applied step: monotone sequence number, round, position
  inside the round's trigger list, the canonical valuation as applied, and
  the resulting delta.  Round and step records are buffered between flush
  points (a crash loses at most the buffered tail of work; torn-tail
  recovery resumes from the last surviving record).
* ``snapshot`` -- a full :class:`ChaseState` image (tableau, union-find
  roots, fresh-supply counter, step/round counters, trace entries when
  tracing): written every ``CheckpointConfig.interval`` steps and always at
  budget exhaustion, so resuming replays at most ``interval`` steps.
* ``footer`` -- the final status; its presence marks a cleanly finished
  log.  A log without a footer is an *orphan*: a crashed run the service
  layer resumes on startup.

**Write failures.**  The log serves the chase, never the other way round:
any ``OSError`` while writing (creating the directory or the file, the
header, an append, a flush, the close) gives that run's log up.  The chase
finishes without it, so neither its result nor a budget or deadline error
carries a token; the partial file is removed (best effort) so orphan
recovery does not resume a run that was already answered; and
:func:`checkpoint_counters` counts the failure as ``write_errors``.

**Resume.**  :func:`load_checkpoint` validates the log, restores the latest
snapshot (or the initial instance), replays the post-snapshot step records
through the real :func:`apply_td_step` / :func:`apply_egd_step` (verifying
each replayed delta against the logged one), and reconstructs the pending
tail of the in-progress round.  The engine applies that tail and then
restarts its strategy, which provably yields the same applied-step sequence
-- and hence byte-identical results -- as the uninterrupted run.

**Schema versioning.**  Every log carries :data:`SCHEMA_VERSION`, and the
reader loads only that schema: a log stamped with any other version (older,
newer, or not an integer at all) fails loudly with
``checkpoint_schema_mismatch``.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import threading
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.chase.result import ChaseStatus, ChaseStep
from repro.chase.steps import (
    ChaseDependency,
    ChaseState,
    Trigger,
    apply_egd_step,
    apply_td_step,
    compile_dependency,
    initial_state,
)
from repro.config import ChaseBudget
from repro.dependencies.egd import EqualityGeneratingDependency
from repro.dependencies.td import TemplateDependency
from repro.model.relations import Relation
from repro.model.tuples import Row
from repro.model.valuations import Valuation
from repro.model.values import Value
from repro.util.errors import ReproError
from repro.util.fresh import FreshSupply

#: Schema version stamped into every log header, and the only one the reader
#: loads.  Bump it whenever a record shape changes.
SCHEMA_VERSION = 1

#: File suffix of log segments.
LOG_SUFFIX = ".jsonl"

# -- stable error codes -------------------------------------------------------

ERR_NOT_FOUND = "checkpoint_not_found"
ERR_TRUNCATED = "checkpoint_truncated"
ERR_CORRUPT = "checkpoint_corrupt"
ERR_SCHEMA = "checkpoint_schema_mismatch"
ERR_COMPLETE = "checkpoint_complete"


class CheckpointError(ReproError):
    """A checkpoint log could not be loaded or resumed.

    ``code`` is one of the stable identifiers ``checkpoint_not_found``,
    ``checkpoint_truncated``, ``checkpoint_corrupt``,
    ``checkpoint_schema_mismatch``, ``checkpoint_complete`` -- pinned by
    tests and mapped onto protocol error codes by the service layer.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


#: One shared compact encoder for the whole module: ``json.dumps`` with
#: explicit separators builds a fresh ``JSONEncoder`` per call, which is
#: measurable on the per-step hot path.
_encode_record = json.JSONEncoder(separators=(",", ":")).encode


# -- write/replay counters ----------------------------------------------------


class CheckpointCounters:
    """Process-wide write/replay counters, surfaced in the service ``/metrics``.

    ``write_errors`` counts the logs given up after a failed write (see the
    module docstring); their runs finished without a token.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.logs_written = 0
        self.records_written = 0
        self.snapshots_written = 0
        self.logs_replayed = 0
        self.steps_replayed = 0
        self.write_errors = 0

    def bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "logs_written": self.logs_written,
                "records_written": self.records_written,
                "snapshots_written": self.snapshots_written,
                "logs_replayed": self.logs_replayed,
                "steps_replayed": self.steps_replayed,
                "write_errors": self.write_errors,
            }

    def reset(self) -> None:
        with self._lock:
            self.logs_written = 0
            self.records_written = 0
            self.snapshots_written = 0
            self.logs_replayed = 0
            self.steps_replayed = 0
            self.write_errors = 0


_counters = CheckpointCounters()


def checkpoint_counters() -> CheckpointCounters:
    """The process-wide :class:`CheckpointCounters` singleton."""
    return _counters


# -- structural serialization -------------------------------------------------
#
# Everything is serialized structurally ({"name", "tag"} value pairs, rows as
# cell lists in universe column order) rather than through the DSL, so logs
# round-trip any td/egd the engine accepts -- named or not -- with no
# renaming risk.


def _value_to_dict(value: Value) -> dict:
    return {"name": value.name, "tag": value.tag}


def _value_from_dict(payload: dict) -> Value:
    return Value(payload["name"], payload.get("tag"))


def _row_to_list(row: Row, attrs) -> list:
    return [_value_to_dict(row[attr]) for attr in attrs]


def _row_from_list(cells: list, attrs) -> Row:
    return Row({attr: _value_from_dict(cell) for attr, cell in zip(attrs, cells)})


def _row_sort_key(cells: list) -> tuple:
    return tuple((cell["name"], cell["tag"] or "") for cell in cells)


def _valuation_to_list(alpha: Valuation) -> list:
    pairs = [
        [_value_to_dict(source), _value_to_dict(target)]
        for source, target in alpha.as_dict().items()
    ]
    pairs.sort(key=lambda pair: (pair[0]["name"], pair[0]["tag"] or ""))
    return pairs

def _valuation_from_list(pairs: list) -> Valuation:
    return Valuation(
        {
            _value_from_dict(source): _value_from_dict(target)
            for source, target in pairs
        }
    )


def dependency_to_dict(dependency: ChaseDependency) -> dict:
    """Structurally serialize a td/egd (inverse of :func:`dependency_from_dict`)."""
    if isinstance(dependency, TemplateDependency):
        attrs = dependency.body.universe.attributes
        return {
            "kind": "td",
            "name": dependency.name,
            "body": dependency.body.to_dict(),
            "conclusion": _row_to_list(dependency.conclusion, attrs),
        }
    return {
        "kind": "egd",
        "name": dependency.name,
        "body": dependency.body.to_dict(),
        "left": _value_to_dict(dependency.left),
        "right": _value_to_dict(dependency.right),
    }


def dependency_from_dict(payload: dict) -> ChaseDependency:
    """Rebuild a td/egd from :func:`dependency_to_dict` output."""
    body = Relation.from_dict(payload["body"])
    attrs = body.universe.attributes
    if payload["kind"] == "td":
        conclusion = _row_from_list(payload["conclusion"], attrs)
        return TemplateDependency(conclusion, body, name=payload.get("name"))
    return EqualityGeneratingDependency(
        _value_from_dict(payload["left"]),
        _value_from_dict(payload["right"]),
        body,
        name=payload.get("name"),
    )


def _delta_to_dict(delta, attrs) -> dict:
    if hasattr(delta, "row"):  # TdDelta
        return {"kind": "td", "row": _row_to_list(delta.row, attrs)}
    changed = sorted(
        (_row_to_list(row, attrs) for row in delta.changed_rows), key=_row_sort_key
    )
    removed = sorted(
        (_row_to_list(row, attrs) for row in delta.removed_rows), key=_row_sort_key
    )
    return {
        "kind": "egd",
        "kept": _value_to_dict(delta.kept),
        "replaced": _value_to_dict(delta.replaced),
        "changed": changed,
        "removed": removed,
    }


def _dependency_label(dependency: ChaseDependency) -> str:
    name = getattr(dependency, "name", None)
    if name:
        return name
    return dependency.describe().splitlines()[0]


# -- tokens -------------------------------------------------------------------

_TOKEN_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def validate_token(token: str) -> bool:
    """Whether ``token`` is a well-formed log basename (no path traversal)."""
    return (
        isinstance(token, str)
        and bool(_TOKEN_RE.match(token))
        and ".." not in token
        and token.endswith(LOG_SUFFIX)
    )


def _resolve_ref(ref: str, directory: Optional[str]) -> str:
    """Resolve a token-or-path reference into a log path."""
    if directory is None and (os.sep in ref or os.path.isabs(ref)):
        return ref
    if not validate_token(ref):
        raise CheckpointError(ERR_NOT_FOUND, f"invalid checkpoint token {ref!r}")
    if directory is None:
        from repro.config import CheckpointConfig

        directory = CheckpointConfig().resolved_directory()
    return os.path.join(directory, ref)


# -- writer -------------------------------------------------------------------


class CheckpointWriter:
    """Appends one chase run's schema-versioned delta log.

    The header is written and flushed when the log opens; snapshot and
    footer records flush immediately; round and step records stay buffered
    between those flush points (losing a buffered tail in a crash is
    harmless: resume restarts from the last surviving record and the chase
    re-derives the same steps deterministically).  A failed write gives the
    log up without raising (see the module docstring).
    """

    def __init__(
        self,
        directory: str,
        *,
        dependencies: Sequence[ChaseDependency],
        budget: ChaseBudget,
        instance: Relation,
        fresh_prefix: str = "n",
        trace: bool = False,
        interval: int = 200,
        retention: int = 16,
    ) -> None:
        self._directory = directory
        self._token = f"chase-{uuid.uuid4().hex}{LOG_SUFFIX}"
        self._path = os.path.join(directory, self._token)
        self._dependencies = tuple(dependencies)
        self._positions = {
            dependency: position
            for position, dependency in enumerate(self._dependencies)
        }
        # Triggers may carry equal-but-not-identical dependency objects;
        # hashing one per record is measurable on the hot path, so memoize
        # by id.  The cached object reference keeps the id from being
        # recycled for a different dependency.
        self._position_cache: Dict[int, tuple] = {
            id(dependency): (dependency, position)
            for position, dependency in enumerate(self._dependencies)
        }
        self._attrs = instance.universe.attributes
        self._trace = trace
        self._interval = interval
        self._retention = retention
        self._last_snapshot_steps = -1
        self._closed = False
        self._failed = False
        self._file = None
        try:
            os.makedirs(directory, exist_ok=True)
            self._file = open(self._path, "w", encoding="utf-8")
        except OSError:
            self._fail()
            return
        self._append(
            {
                "type": "header",
                "schema": SCHEMA_VERSION,
                "budget": budget.to_dict(),
                "instance": instance.to_dict(),
                "fresh_prefix": fresh_prefix,
                "trace": trace,
                "dependencies": [
                    dependency_to_dict(dependency)
                    for dependency in self._dependencies
                ],
            },
            flush=True,
        )
        if not self._failed:
            _counters.bump("logs_written")

    @property
    def token(self) -> str:
        """The log's basename -- the resumable token handed to callers.

        Only a log that :meth:`footer` sealed is resumable; its return value
        is the token to hand out (``None`` once a write failed).
        """
        return self._token

    @property
    def path(self) -> str:
        """Absolute-ish path of the log segment."""
        return self._path

    def _append(self, record: dict, flush: bool = False) -> None:
        if self._closed:
            return
        try:
            self._file.write(_encode_record(record) + "\n")
            if flush:
                self._file.flush()
        except OSError:
            self._fail()
            return
        _counters.bump("records_written")

    def _fail(self) -> None:
        """Give the log up after a failed write: count it, close, remove it."""
        if self._failed:
            return
        self._failed = True
        self._closed = True
        _counters.bump("write_errors")
        if self._file is not None:
            with contextlib.suppress(OSError):
                self._file.close()
        with contextlib.suppress(OSError):
            os.remove(self._path)

    def _position(self, dependency: ChaseDependency) -> int:
        cached = self._position_cache.get(id(dependency))
        if cached is None:
            cached = (dependency, self._positions[dependency])
            self._position_cache[id(dependency)] = cached
        return cached[1]

    def round(self, round_number: int, triggers: Sequence[Trigger]) -> None:
        """Record one fair-ordered round's full trigger list (buffered).

        Round and step records share the buffer, so the on-disk prefix is
        always record-consistent; a crash between flush points costs at
        most the buffered tail of work, which torn-tail recovery simply
        re-does from the last surviving record.
        """
        if self._closed:
            return
        self._append(
            {
                "type": "round",
                "round": round_number,
                "triggers": [
                    {
                        "dep": self._position(trigger.dependency),
                        "valuation": _valuation_to_list(trigger.valuation),
                    }
                    for trigger in triggers
                ],
            }
        )

    def step(
        self,
        seq: int,
        round_number: int,
        position: int,
        trigger: Trigger,
        alpha: Valuation,
        delta,
    ) -> None:
        """Record one applied step (buffered)."""
        if self._closed:
            return
        self._append(
            {
                "type": "step",
                "seq": seq,
                "round": round_number,
                "position": position,
                "dep": self._position(trigger.dependency),
                "valuation": _valuation_to_list(alpha),
                "delta": _delta_to_dict(delta, self._attrs),
            }
        )

    def snapshot(
        self,
        state: ChaseState,
        steps: int,
        rounds: int,
        trace: Sequence[ChaseStep] = (),
    ) -> None:
        """Record a full state snapshot (flushed; deduped per step count)."""
        if self._closed or steps == self._last_snapshot_steps:
            return
        self._last_snapshot_steps = steps
        parent = sorted(
            (
                [_value_to_dict(value), _value_to_dict(root)]
                for value, root in state.roots().items()
            ),
            key=lambda pair: (pair[0]["name"], pair[0]["tag"] or ""),
        )
        record = {
            "type": "snapshot",
            "steps": steps,
            "rounds": rounds,
            "relation": state.relation.to_dict(),
            "parent": parent,
            "fresh": state.fresh.snapshot(),
        }
        if self._trace:
            record["trace"] = [
                {
                    "index": entry.index,
                    "kind": entry.kind,
                    "dependency": entry.dependency,
                    "detail": entry.detail,
                }
                for entry in trace
            ]
        self._append(record, flush=True)
        _counters.bump("snapshots_written")

    def maybe_snapshot(
        self,
        state: ChaseState,
        steps: int,
        rounds: int,
        trace: Sequence[ChaseStep] = (),
    ) -> None:
        """Periodic snapshot every ``interval`` applied steps."""
        if steps % self._interval == 0:
            self.snapshot(state, steps, rounds, trace)

    def footer(self, status: str, steps: int, rounds: int) -> Optional[str]:
        """Seal the log with its final status, close it, and apply retention.

        Returns the resumable token, or ``None`` when a write failed and the
        log was given up.
        """
        self._append(
            {"type": "footer", "status": status, "steps": steps, "rounds": rounds},
            flush=True,
        )
        self.close()
        self._prune()
        return None if self._failed else self._token

    def close(self) -> None:
        """Flush and close the segment (idempotent; no footer is written).

        A log closed without a footer -- the engine's exception path, or a
        hard crash -- is an orphan that :func:`scan_resumable` reports for
        recovery.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._file.flush()
            self._file.close()
        except OSError:
            self._fail()

    def _prune(self) -> None:
        """Keep only the newest ``retention`` *completed* logs in the directory."""
        try:
            names = [
                name
                for name in os.listdir(self._directory)
                if name.endswith(LOG_SUFFIX)
            ]
            if len(names) <= self._retention:
                return
            paths = []
            for name in names:
                path = os.path.join(self._directory, name)
                try:
                    paths.append((os.path.getmtime(path), name, path))
                except OSError:
                    continue
            paths.sort(reverse=True)
            for _, name, path in paths[self._retention :]:
                if name == self._token:
                    continue
                if log_status(path) is None:
                    continue  # orphans are recovery material, never pruned
                try:
                    os.remove(path)
                except OSError:
                    continue
        except OSError:
            return


# -- reader -------------------------------------------------------------------


@dataclass
class ResumePoint:
    """A reconstructed mid-chase state, ready for the engine to continue.

    Single-use: ``state`` is a live :class:`ChaseState` the resumed run
    mutates in place.  Call :func:`load_checkpoint` again for another copy.
    ``status`` is the log's footer status, or ``None`` for an orphaned
    (crashed) log.
    """

    token: str
    path: str
    schema: int
    budget: ChaseBudget
    fresh_prefix: str
    trace_enabled: bool
    instance: Relation
    dependencies: Tuple[ChaseDependency, ...]
    state: ChaseState
    steps: int
    rounds: int
    pending: Tuple[Trigger, ...]
    trace: Tuple[ChaseStep, ...] = ()
    status: Optional[ChaseStatus] = field(default=None)


class CheckpointReader:
    """Validates one log segment and reconstructs its :class:`ResumePoint`."""

    def __init__(self, path: str, *, allow_torn_tail: bool = False) -> None:
        self._path = path
        self._allow_torn_tail = allow_torn_tail

    def load(self) -> ResumePoint:
        records = self._parse()
        if not records or records[0].get("type") != "header":
            raise CheckpointError(
                ERR_CORRUPT, f"{self._path}: log does not start with a header"
            )
        header = records[0]
        schema = header.get("schema")
        # ``type(...) is int``: JSON ``true`` loads as ``True``, an ``int``
        # subclass equal to 1, and must not pass for schema 1.
        if type(schema) is not int or schema != SCHEMA_VERSION:
            raise CheckpointError(
                ERR_SCHEMA,
                f"{self._path}: log schema {schema!r} is not supported "
                f"(this build reads schema {SCHEMA_VERSION})",
            )

        budget = ChaseBudget.from_dict(header["budget"])
        instance = Relation.from_dict(header["instance"])
        fresh_prefix = header.get("fresh_prefix", "n")
        trace_enabled = bool(header.get("trace", False))
        dependencies = tuple(
            dependency_from_dict(payload) for payload in header["dependencies"]
        )
        compiled = [compile_dependency(dependency) for dependency in dependencies]
        attrs = instance.universe.attributes

        status: Optional[ChaseStatus] = None
        snapshot: Optional[dict] = None
        replay: List[dict] = []
        last_round: Optional[dict] = None
        last_position = -1
        last_seq: Optional[int] = None

        for record in records[1:]:
            kind = record.get("type")
            if kind == "snapshot":
                snapshot = record
                replay = []
            elif kind == "step":
                seq = record.get("seq")
                if last_seq is not None and seq != last_seq + 1:
                    raise CheckpointError(
                        ERR_CORRUPT,
                        f"{self._path}: step sequence jumps from "
                        f"{last_seq} to {seq!r}",
                    )
                last_seq = seq
                if last_round is None or record.get("round") != last_round["round"]:
                    raise CheckpointError(
                        ERR_CORRUPT,
                        f"{self._path}: step {seq} references a round with "
                        "no preceding round record",
                    )
                last_position = record["position"]
                replay.append(record)
            elif kind == "round":
                last_round = record
                last_position = -1
            elif kind == "footer":
                if record is not records[-1]:
                    raise CheckpointError(
                        ERR_CORRUPT, f"{self._path}: footer is not the last record"
                    )
                try:
                    status = ChaseStatus(record["status"])
                except (KeyError, ValueError):
                    raise CheckpointError(
                        ERR_CORRUPT, f"{self._path}: footer carries no valid status"
                    ) from None
            else:
                raise CheckpointError(
                    ERR_CORRUPT, f"{self._path}: unknown record type {kind!r}"
                )

        if status is ChaseStatus.TERMINATED:
            raise CheckpointError(
                ERR_COMPLETE,
                f"{self._path}: the chase terminated; there is nothing to resume",
            )

        # Restore the latest snapshot, or the initial state.
        trace: List[ChaseStep] = []
        if snapshot is None:
            state = initial_state(instance, fresh_prefix=fresh_prefix)
            steps = 0
            rounds = 0
        else:
            state = ChaseState(
                relation=Relation.from_dict(snapshot["relation"]),
                fresh=FreshSupply.from_snapshot(snapshot["fresh"]),
                parent={
                    _value_from_dict(value): _value_from_dict(root)
                    for value, root in snapshot["parent"]
                },
            )
            steps = snapshot["steps"]
            rounds = snapshot["rounds"]
            for entry in snapshot.get("trace", []):
                trace.append(
                    ChaseStep(
                        index=entry["index"],
                        kind=entry["kind"],
                        dependency=entry["dependency"],
                        detail=entry["detail"],
                    )
                )

        # Replay the post-snapshot step tail through the real step functions,
        # verifying every replayed delta against the logged one.
        replayed = 0
        for record in replay:
            if record["seq"] <= steps:
                continue  # applied before the snapshot was taken
            position = record["dep"]
            if not 0 <= position < len(compiled):
                raise CheckpointError(
                    ERR_CORRUPT,
                    f"{self._path}: step {record['seq']} references "
                    f"dependency {position}, but the header lists "
                    f"{len(compiled)}",
                )
            cd = compiled[position]
            alpha = _valuation_from_list(record["valuation"])
            if cd.is_td:
                delta = apply_td_step(state, cd.dependency, alpha, cd.body_values)
            else:
                delta = apply_egd_step(state, cd.dependency, alpha, instance.values())
            if _delta_to_dict(delta, attrs) != record["delta"]:
                raise CheckpointError(
                    ERR_CORRUPT,
                    f"{self._path}: replayed delta of step {record['seq']} "
                    "diverges from the logged delta",
                )
            steps = record["seq"]
            replayed += 1
            if trace_enabled:
                if cd.is_td:
                    detail = f"added row {delta.row}"
                else:
                    detail = f"merged {delta.replaced.name} into {delta.kept.name}"
                trace.append(
                    ChaseStep(
                        index=steps,
                        kind=cd.kind(),
                        dependency=_dependency_label(cd.dependency),
                        detail=detail,
                    )
                )

        # Reconstruct the in-progress round's remaining trigger tail.
        pending: Tuple[Trigger, ...] = ()
        if last_round is not None:
            rounds = last_round["round"]
            tail = last_round["triggers"][last_position + 1 :]
            pending = tuple(
                Trigger(
                    dependencies[entry["dep"]],
                    _valuation_from_list(entry["valuation"]),
                )
                for entry in tail
            )

        _counters.bump("logs_replayed")
        _counters.bump("steps_replayed", replayed)
        return ResumePoint(
            token=os.path.basename(self._path),
            path=self._path,
            schema=schema,
            budget=budget,
            fresh_prefix=fresh_prefix,
            trace_enabled=trace_enabled,
            instance=instance,
            dependencies=dependencies,
            state=state,
            steps=steps,
            rounds=rounds,
            pending=pending,
            trace=tuple(trace),
            status=status,
        )

    def _parse(self) -> List[dict]:
        try:
            with open(self._path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except FileNotFoundError:
            raise CheckpointError(
                ERR_NOT_FOUND, f"no checkpoint log at {self._path}"
            ) from None
        except OSError as exc:
            raise CheckpointError(
                ERR_NOT_FOUND, f"cannot read checkpoint log {self._path}: {exc}"
            ) from None
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        records: List[dict] = []
        for index, line in enumerate(lines):
            try:
                record = json.loads(line)
            except ValueError:
                if index == len(lines) - 1:
                    # A torn final line: expected crash residue iff the file
                    # has no trailing newline; recovery opts in, everything
                    # else fails loudly.
                    if self._allow_torn_tail and not text.endswith("\n"):
                        break
                    raise CheckpointError(
                        ERR_TRUNCATED,
                        f"{self._path}: log ends mid-record "
                        f"(line {index + 1} is not valid JSON)",
                    ) from None
                raise CheckpointError(
                    ERR_CORRUPT,
                    f"{self._path}: line {index + 1} is not valid JSON",
                ) from None
            if not isinstance(record, dict):
                raise CheckpointError(
                    ERR_CORRUPT,
                    f"{self._path}: line {index + 1} is not a record object",
                )
            records.append(record)
        return records


def load_checkpoint(
    ref: Union[str, "ResumePoint"],
    *,
    directory: Optional[str] = None,
    allow_torn_tail: bool = False,
) -> ResumePoint:
    """Load a checkpoint by token (resolved against ``directory``) or path.

    Raises :class:`CheckpointError` with a stable ``code`` when the log is
    missing, truncated, corrupt, from an unsupported schema, or already
    complete (``TERMINATED`` logs have nothing to resume).
    """
    if isinstance(ref, ResumePoint):
        return ref
    path = _resolve_ref(ref, directory)
    return CheckpointReader(path, allow_torn_tail=allow_torn_tail).load()


# -- directory scanning -------------------------------------------------------


def log_status(path: str) -> Optional[str]:
    """The footer status of a log, or ``None`` for an orphan (no footer).

    Reads only the tail of the file; unreadable files count as orphans (the
    loud validation happens in :func:`load_checkpoint`).
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            handle.seek(max(0, size - 4096))
            tail = handle.read().decode("utf-8", errors="replace")
    except OSError:
        return None
    lines = [line for line in tail.split("\n") if line.strip()]
    if not lines:
        return None
    try:
        record = json.loads(lines[-1])
    except ValueError:
        return None
    if isinstance(record, dict) and record.get("type") == "footer":
        status = record.get("status")
        return status if isinstance(status, str) else None
    return None


def scan_resumable(directory: str) -> List[str]:
    """Tokens of orphaned (footer-less) logs in ``directory``, sorted."""
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return []
    orphans = []
    for name in names:
        if not name.endswith(LOG_SUFFIX):
            continue
        if log_status(os.path.join(directory, name)) is None:
            orphans.append(name)
    return orphans
