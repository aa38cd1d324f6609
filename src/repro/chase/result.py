"""Chase outcome objects: status, trace records, and the final result."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.model.relations import Relation
from repro.model.tuples import Row
from repro.model.values import Value


class ChaseStatus(enum.Enum):
    """How a chase run ended."""

    TERMINATED = "terminated"
    """No dependency had an active trigger: the result satisfies all of them."""

    BUDGET_EXHAUSTED = "budget_exhausted"
    """The step or size budget ran out before the chase converged.

    Because the implication problem for (typed) template dependencies is
    undecidable -- the theorem this library reproduces -- a non-terminating
    chase cannot in general be detected, only cut off.
    """


@dataclass(frozen=True)
class ChaseStep:
    """One applied chase step, for tracing and debugging.

    ``kind`` is ``"td"`` or ``"egd"``; ``detail`` describes what changed
    (the added row, or the merged pair of values).
    """

    index: int
    kind: str
    dependency: str
    detail: str


@dataclass
class ChaseResult:
    """The outcome of a chase run.

    Attributes
    ----------
    relation:
        The final chased relation (a model of the dependencies when
        ``status`` is ``TERMINATED``).
    status:
        Whether the chase converged or ran out of budget.
    steps:
        Number of applied chase steps.
    rounds:
        Number of completed trigger-collection rounds.
    canon:
        Mapping from values of the *initial* instance to their current
        representatives after all egd merges.  Values never merged map to
        themselves.
    trace:
        The applied steps in order (empty unless tracing was enabled).
    strategy:
        Name of the scheduling strategy that produced the result
        (``"rescan"`` or ``"incremental"``; empty for hand-built results).
    kernel:
        The trigger matcher the run resolved to: ``"bitset"`` for the
        columnar kernel, ``"off"`` for the classic matcher, empty for
        hand-built results.
    checkpoint:
        The resumable checkpoint token (the log segment's basename) when the
        run wrote a durable log and ended ``BUDGET_EXHAUSTED``; ``None``
        otherwise.  Pass it to ``Solver.resume`` / ``chase(resume_from=...)``
        to continue the run.  Excluded from equality: tokens are random per
        run, and two runs of the same chase are otherwise byte-identical.
    """

    relation: Relation
    status: ChaseStatus
    steps: int
    rounds: int
    canon: Mapping[Value, Value]
    trace: Sequence[ChaseStep] = field(default_factory=tuple)
    strategy: str = ""
    kernel: str = ""
    checkpoint: Optional[str] = field(default=None, compare=False)

    def resolve(self, value: Value) -> Value:
        """The current representative of an initial-instance value."""
        return self.canon.get(value, value)

    def terminated(self) -> bool:
        """Whether the chase converged (the result is a genuine model)."""
        return self.status is ChaseStatus.TERMINATED

    def merged(self, left: Value, right: Value) -> bool:
        """Whether two initial values were identified by egd steps."""
        return self.resolve(left) == self.resolve(right)

    def find_row(self, pattern: Row, fixed: Mapping[Value, Value]) -> Optional[Row]:
        """Find a row matching ``pattern`` under the partial binding ``fixed``.

        A scan of the chased relation that returns the witness row of a td
        conclusion's embedding, or ``None``.  The implication procedures
        decide embedding, without a witness, through
        :func:`repro.chase.steps.td_is_violated`.
        """
        scheme = pattern.scheme
        for row in self.relation:
            compatible = True
            bindings = dict(fixed)
            if row.scheme == scheme:
                images = iter(row)
            else:
                images = (row[attr] for attr in scheme)
            for value, image in zip(pattern, images):
                if value in bindings:
                    if bindings[value] != image:
                        compatible = False
                        break
                else:
                    if value.tag != image.tag:
                        compatible = False
                        break
                    bindings[value] = image
            if compatible:
                return row
        return None

    def to_dict(self) -> dict:
        """A JSON-serializable snapshot (inverse of :meth:`from_dict`).

        Rows and canon entries are listed deterministically, so two equal
        results serialize byte-identically -- except for ``checkpoint``,
        which is a random per-run token (and excluded from equality too).
        """
        return {
            "relation": self.relation.to_dict(),
            "status": self.status.value,
            "steps": self.steps,
            "rounds": self.rounds,
            "canon": sorted(
                (
                    [_value_dict(value), _value_dict(root)]
                    for value, root in self.canon.items()
                ),
                key=lambda pair: (pair[0]["name"], pair[0]["tag"] or ""),
            ),
            "trace": [
                {
                    "index": entry.index,
                    "kind": entry.kind,
                    "dependency": entry.dependency,
                    "detail": entry.detail,
                }
                for entry in self.trace
            ],
            "strategy": self.strategy,
            "kernel": self.kernel,
            "checkpoint": self.checkpoint,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ChaseResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            relation=Relation.from_dict(payload["relation"]),
            status=ChaseStatus(payload["status"]),
            steps=payload["steps"],
            rounds=payload["rounds"],
            canon={
                _value_undict(value): _value_undict(root)
                for value, root in payload.get("canon", [])
            },
            trace=tuple(
                ChaseStep(
                    index=entry["index"],
                    kind=entry["kind"],
                    dependency=entry["dependency"],
                    detail=entry["detail"],
                )
                for entry in payload.get("trace", [])
            ),
            strategy=payload.get("strategy", ""),
            kernel=payload.get("kernel", ""),
            checkpoint=payload.get("checkpoint"),
        )


def _value_dict(value: Value) -> dict:
    return {"name": value.name, "tag": value.tag}


def _value_undict(payload: Mapping) -> Value:
    return Value(payload["name"], payload.get("tag"))
