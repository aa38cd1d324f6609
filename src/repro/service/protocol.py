"""The service's wire protocol: schema-versioned JSON envelopes.

Requests and responses are JSON objects carrying an explicit ``schema``
field; the server rejects any version outside :data:`SUPPORTED_SCHEMAS`
with a typed error, so clients never silently misinterpret a payload across
an upgrade.  Revision :data:`PROTOCOL_REVISION` (1.1) is additive:
budget-exhausted success envelopes may carry a ``checkpoint_token``,
``POST /v1/solve`` accepts resume-by-token requests
(:class:`ResumeRequest`), solve envelopes may carry a ``deadline_ms``
request deadline (expired requests answer 504 ``deadline_exceeded``, with
a ``checkpoint_token`` on the error envelope when the cut chase sealed a
resumable log), and rate-limited requests answer 429 ``rate_limited``;
payloads stay stamped ``"schema": 1``.  The response's ``outcome`` is exactly the library's ``to_dict``
surface (:meth:`repro.implication.problem.ImplicationOutcome.to_dict`),
serialized canonically (sorted keys, compact separators) -- which is what
makes service answers *byte-identical* to an in-process
``Solver.solve_many`` after the same normalization.

A solve request::

    {"schema": 1, "client": "tenant-a", "id": "q-17",
     "premises": ["A -> B", "B -> C"], "conclusion": "A -> C",
     "finite": false}

A success response::

    {"schema": 1, "ok": true, "id": "q-17", "outcome": {"verdict": ...}}

An error response::

    {"schema": 1, "ok": false, "id": "q-17",
     "error": {"code": "parse_error", "message": "..."}}

Library failures map to stable error codes (:func:`classify_exception`):
DSL/dependency problems to ``parse_error``, an exhausted chase budget
surfacing as an exception to ``budget_exhausted``, chase-strategy failures
to ``strategy_error``, other library errors to ``solver_error``, and
anything unexpected to ``internal``.  The fairness gate and the drain path
use ``overloaded`` (429) and ``draining`` (503).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Tuple

from repro.dependencies.base import Dependency  # noqa: F401  (doc reference)
from repro.implication.problem import ImplicationOutcome
from repro.util.errors import (
    ChaseBudgetExceeded,
    ChaseDeadlineExceeded,
    DependencyError,
    ReproError,
)

#: The schema stamp every payload this build emits carries.
PROTOCOL_VERSION = 1

#: The human-readable revision of the envelope surface.  Revision 1.1 is
#: *additive* over 1.0: success envelopes may carry ``checkpoint_token``
#: (when a budget-exhausted chase left a resumable log) and ``POST
#: /v1/solve`` additionally accepts resume-by-token requests.  Payloads
#: stay stamped ``"schema": 1`` -- a 1.0 client ignores the new field and
#: keeps working unchanged.
PROTOCOL_REVISION = "1.1"

#: Schema stamps this build accepts on incoming payloads.
SUPPORTED_SCHEMAS = (1,)

# -- stable error codes --------------------------------------------------------

ERROR_BAD_REQUEST = "bad_request"
ERROR_SCHEMA_MISMATCH = "schema_mismatch"
ERROR_PARSE = "parse_error"
ERROR_BUDGET_EXHAUSTED = "budget_exhausted"
ERROR_DEADLINE_EXCEEDED = "deadline_exceeded"
ERROR_STRATEGY = "strategy_error"
ERROR_SOLVER = "solver_error"
ERROR_OVERLOADED = "overloaded"
ERROR_RATE_LIMITED = "rate_limited"
ERROR_DRAINING = "draining"
ERROR_NOT_FOUND = "not_found"
ERROR_METHOD = "method_not_allowed"
ERROR_INTERNAL = "internal"

# Checkpoint failures keep the stable codes of
# :mod:`repro.chase.checkpoint` on the wire (``checkpoint_*``).
ERROR_CHECKPOINT_NOT_FOUND = "checkpoint_not_found"
ERROR_CHECKPOINT_TRUNCATED = "checkpoint_truncated"
ERROR_CHECKPOINT_CORRUPT = "checkpoint_corrupt"
ERROR_CHECKPOINT_SCHEMA = "checkpoint_schema_mismatch"
ERROR_CHECKPOINT_COMPLETE = "checkpoint_complete"

#: HTTP status each error code travels under.
HTTP_STATUS = {
    ERROR_BAD_REQUEST: 400,
    ERROR_SCHEMA_MISMATCH: 400,
    ERROR_PARSE: 422,
    ERROR_BUDGET_EXHAUSTED: 422,
    ERROR_DEADLINE_EXCEEDED: 504,
    ERROR_STRATEGY: 500,
    ERROR_SOLVER: 422,
    ERROR_OVERLOADED: 429,
    ERROR_RATE_LIMITED: 429,
    ERROR_DRAINING: 503,
    ERROR_NOT_FOUND: 404,
    ERROR_METHOD: 405,
    ERROR_INTERNAL: 500,
    ERROR_CHECKPOINT_NOT_FOUND: 404,
    ERROR_CHECKPOINT_TRUNCATED: 422,
    ERROR_CHECKPOINT_CORRUPT: 422,
    ERROR_CHECKPOINT_SCHEMA: 422,
    ERROR_CHECKPOINT_COMPLETE: 409,
}


class ProtocolError(ReproError):
    """A request the service cannot act on, carrying its stable error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message

    @property
    def http_status(self) -> int:
        """The HTTP status this error travels under."""
        return HTTP_STATUS.get(self.code, 500)


@dataclass(frozen=True)
class SolveRequest:
    """One decoded solve request (premises/conclusion in the text DSL).

    ``deadline_ms`` (revision 1.1, additive) is the client's request
    deadline in milliseconds: the server stops working on the request --
    cutting the chase at the next round boundary -- once it expires, and
    answers 504 ``deadline_exceeded``.  The effective deadline is
    ``min(deadline_ms, ServiceConfig.default_deadline_ms)`` when the server
    configures a default.
    """

    premises: Tuple[str, ...]
    conclusion: str
    finite: bool = False
    client: str = "anonymous"
    id: Optional[str] = None
    deadline_ms: Optional[int] = None

    def to_dict(self) -> dict:
        """The wire form of this request (inverse of :func:`decode_request`)."""
        payload: dict = {
            "schema": PROTOCOL_VERSION,
            "client": self.client,
            "premises": list(self.premises),
            "conclusion": self.conclusion,
            "finite": self.finite,
        }
        if self.id is not None:
            payload["id"] = self.id
        if self.deadline_ms is not None:
            payload["deadline_ms"] = self.deadline_ms
        return payload


@dataclass(frozen=True)
class ResumeRequest:
    """One decoded resume-by-token request (protocol revision 1.1).

    Continues an interrupted chase from its durable checkpoint:
    ``checkpoint_token`` is what a budget-exhausted success envelope carried
    as ``checkpoint_token``; ``conclusion`` restates the conclusion the
    resumed chase should be judged against (the log records the chased
    instance and premise set, not the question).  ``max_steps`` /
    ``max_rows`` optionally raise the budget -- without a raise the resumed
    run exhausts again immediately.
    """

    checkpoint_token: str
    conclusion: str
    max_steps: Optional[int] = None
    max_rows: Optional[int] = None
    client: str = "anonymous"
    id: Optional[str] = None

    def to_dict(self) -> dict:
        """The wire form of this request (inverse of :func:`decode_request`)."""
        payload: dict = {
            "schema": PROTOCOL_VERSION,
            "client": self.client,
            "checkpoint_token": self.checkpoint_token,
            "conclusion": self.conclusion,
        }
        if self.max_steps is not None:
            payload["max_steps"] = self.max_steps
        if self.max_rows is not None:
            payload["max_rows"] = self.max_rows
        if self.id is not None:
            payload["id"] = self.id
        return payload


def dumps(payload: Any) -> bytes:
    """Canonical JSON bytes: sorted keys, compact separators, UTF-8.

    Every wire payload and every byte-identity comparison goes through this
    one normalization.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def loads(data: bytes) -> Any:
    """Parse JSON bytes, mapping failures to a typed ``bad_request``."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(ERROR_BAD_REQUEST, f"invalid JSON body: {exc}") from exc


def check_schema(payload: Mapping) -> None:
    """Reject any payload not stamped with a supported schema version."""
    version = payload.get("schema")
    # ``True == 1`` in Python: a boolean must not pass for schema 1.
    if isinstance(version, bool) or version not in SUPPORTED_SCHEMAS:
        raise ProtocolError(
            ERROR_SCHEMA_MISMATCH,
            f"unsupported schema version {version!r}; "
            f"this server speaks schema {PROTOCOL_VERSION} "
            f"(revision {PROTOCOL_REVISION})",
        )


def decode_request(payload: Any) -> "SolveRequest | ResumeRequest":
    """Validate and decode one solve- or resume-request envelope.

    Accepts raw bytes or an already-parsed mapping.  A payload carrying
    ``checkpoint_token`` decodes as a :class:`ResumeRequest` (revision 1.1);
    anything else decodes as a :class:`SolveRequest`.  Raises
    :class:`ProtocolError` (``bad_request`` / ``schema_mismatch``) on any
    malformation; DSL-level validity is the solver's to judge later.
    """
    if isinstance(payload, (bytes, bytearray)):
        payload = loads(bytes(payload))
    if not isinstance(payload, Mapping):
        raise ProtocolError(ERROR_BAD_REQUEST, "request body must be a JSON object")
    check_schema(payload)
    if "checkpoint_token" in payload:
        return _decode_resume(payload)
    premises = payload.get("premises")
    if not isinstance(premises, (list, tuple)) or not all(
        isinstance(p, str) for p in premises
    ):
        raise ProtocolError(ERROR_BAD_REQUEST, "premises must be a list of strings")
    conclusion = payload.get("conclusion")
    if not isinstance(conclusion, str) or not conclusion.strip():
        raise ProtocolError(
            ERROR_BAD_REQUEST, "conclusion must be a non-empty string"
        )
    finite = payload.get("finite", False)
    if not isinstance(finite, bool):
        raise ProtocolError(ERROR_BAD_REQUEST, "finite must be a boolean")
    client = payload.get("client", "anonymous")
    if not isinstance(client, str) or not client:
        raise ProtocolError(ERROR_BAD_REQUEST, "client must be a non-empty string")
    request_id = payload.get("id")
    if request_id is not None and not isinstance(request_id, str):
        raise ProtocolError(ERROR_BAD_REQUEST, "id must be a string when given")
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None and (
        not isinstance(deadline_ms, int)
        or isinstance(deadline_ms, bool)
        or deadline_ms < 1
    ):
        raise ProtocolError(
            ERROR_BAD_REQUEST, "deadline_ms must be a positive integer when given"
        )
    return SolveRequest(
        premises=tuple(premises),
        conclusion=conclusion,
        finite=finite,
        client=client,
        id=request_id,
        deadline_ms=deadline_ms,
    )


def _decode_resume(payload: Mapping) -> ResumeRequest:
    token = payload.get("checkpoint_token")
    if not isinstance(token, str) or not token.strip():
        raise ProtocolError(
            ERROR_BAD_REQUEST, "checkpoint_token must be a non-empty string"
        )
    conclusion = payload.get("conclusion")
    if not isinstance(conclusion, str) or not conclusion.strip():
        raise ProtocolError(ERROR_BAD_REQUEST, "conclusion must be a non-empty string")
    limits = {}
    for key in ("max_steps", "max_rows"):
        value = payload.get(key)
        if value is not None and (
            not isinstance(value, int) or isinstance(value, bool) or value < 1
        ):
            raise ProtocolError(
                ERROR_BAD_REQUEST, f"{key} must be a positive integer when given"
            )
        limits[key] = value
    client = payload.get("client", "anonymous")
    if not isinstance(client, str) or not client:
        raise ProtocolError(ERROR_BAD_REQUEST, "client must be a non-empty string")
    request_id = payload.get("id")
    if request_id is not None and not isinstance(request_id, str):
        raise ProtocolError(ERROR_BAD_REQUEST, "id must be a string when given")
    return ResumeRequest(
        checkpoint_token=token,
        conclusion=conclusion,
        max_steps=limits["max_steps"],
        max_rows=limits["max_rows"],
        client=client,
        id=request_id,
    )


def encode_outcome(outcome: ImplicationOutcome) -> dict:
    """The wire form of an outcome: exactly its ``to_dict`` surface."""
    return outcome.to_dict()


def success_response(
    outcome: ImplicationOutcome,
    request_id: Optional[str] = None,
    *,
    checkpoint_token: Optional[str] = None,
) -> dict:
    """A success envelope around one outcome.

    ``checkpoint_token`` (revision 1.1, additive) travels at envelope level
    -- never inside ``outcome`` -- so outcome bytes stay identical to the
    in-process ``to_dict`` surface and to pre-checkpoint responses.
    """
    payload: dict = {
        "schema": PROTOCOL_VERSION,
        "ok": True,
        "outcome": encode_outcome(outcome),
    }
    if checkpoint_token is not None:
        payload["checkpoint_token"] = checkpoint_token
    if request_id is not None:
        payload["id"] = request_id
    return payload


def error_response(
    code: str,
    message: str,
    request_id: Optional[str] = None,
    *,
    checkpoint_token: Optional[str] = None,
) -> dict:
    """An error envelope with a stable code and human-readable message.

    ``checkpoint_token`` (revision 1.1, additive) rides on
    ``deadline_exceeded`` / ``budget_exhausted`` errors when the cut chase
    sealed a resumable log, so the client can come back with a
    resume-by-token request instead of re-chasing from scratch.
    """
    payload: dict = {
        "schema": PROTOCOL_VERSION,
        "ok": False,
        "error": {"code": code, "message": message},
    }
    if checkpoint_token is not None:
        payload["checkpoint_token"] = checkpoint_token
    if request_id is not None:
        payload["id"] = request_id
    return payload


def decode_response(payload: Any) -> dict:
    """Validate one response envelope (bytes or mapping) and return it.

    Checks the schema stamp and the success/error shape, so clients fail
    loudly on version skew instead of mis-reading fields.
    """
    if isinstance(payload, (bytes, bytearray)):
        payload = loads(bytes(payload))
    if not isinstance(payload, Mapping):
        raise ProtocolError(ERROR_BAD_REQUEST, "response body must be a JSON object")
    check_schema(payload)
    if "ok" not in payload:
        raise ProtocolError(ERROR_BAD_REQUEST, "response is missing the ok field")
    if payload["ok"]:
        if "outcome" not in payload:
            raise ProtocolError(
                ERROR_BAD_REQUEST, "success response is missing the outcome"
            )
    else:
        error = payload.get("error")
        if not isinstance(error, Mapping) or "code" not in error:
            raise ProtocolError(
                ERROR_BAD_REQUEST, "error response is missing error.code"
            )
    return dict(payload)


def classify_exception(exc: BaseException) -> Tuple[str, str]:
    """Map a solver-side failure to its stable ``(code, message)`` pair."""
    # Imported here: strategies pulls in the whole chase stack, which the
    # protocol module's other users (clients) do not need.
    from repro.chase.checkpoint import CheckpointError
    from repro.chase.strategies import StrategyError

    if isinstance(exc, ProtocolError):
        return exc.code, exc.message
    if isinstance(exc, CheckpointError):
        # The checkpoint layer's codes are already stable wire codes.
        return exc.code, str(exc)
    if isinstance(exc, ChaseDeadlineExceeded):
        # Checked before its ChaseBudgetExceeded parent: a wall-clock cut
        # is the request's fault (504), not the problem's (422).
        return ERROR_DEADLINE_EXCEEDED, str(exc)
    if isinstance(exc, ChaseBudgetExceeded):
        return ERROR_BUDGET_EXHAUSTED, str(exc)
    if isinstance(exc, StrategyError):
        return ERROR_STRATEGY, str(exc)
    if isinstance(exc, DependencyError):
        # Covers DSLError: the request's dependency text did not parse.
        return ERROR_PARSE, str(exc)
    if isinstance(exc, ReproError):
        return ERROR_SOLVER, str(exc)
    return ERROR_INTERNAL, f"{type(exc).__name__}: {exc}"
