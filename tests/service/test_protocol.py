"""Wire-protocol round-trips: every outcome variant, every rejection path.

The satellite contract: each outcome variant (implied / not implied /
budget-exhausted / error) survives JSON encode -> decode byte-identically,
and schema-version mismatches are rejected with the stable
``schema_mismatch`` code on both the request and the response side.
"""

import pytest

from repro.api import ChaseBudget, Solver, SolverConfig
from repro.chase.strategies import StrategyError
from repro.service import protocol
from repro.util.errors import ChaseBudgetExceeded, DependencyError, ReproError

UNIVERSE = "ABC"


@pytest.fixture(scope="module")
def solver():
    return Solver(universe=UNIVERSE)


@pytest.fixture(scope="module")
def tiny_budget_solver():
    config = SolverConfig(chase=ChaseBudget(max_steps=10, max_rows=50))
    return Solver(universe=UNIVERSE, config=config)


def roundtrip(payload: dict) -> dict:
    """Encode to canonical bytes, decode, and assert byte-identity."""
    data = protocol.dumps(payload)
    decoded = protocol.loads(data)
    assert protocol.dumps(decoded) == data
    return decoded


class TestOutcomeRoundTrips:
    def test_implied_outcome(self, solver):
        outcome = solver.implies(["A -> B", "B -> C"], "A -> C")
        assert outcome.is_implied()
        envelope = protocol.success_response(outcome, request_id="q-1")
        decoded = protocol.decode_response(roundtrip(envelope))
        assert decoded["ok"] is True
        assert decoded["id"] == "q-1"
        assert decoded["outcome"]["verdict"] == "implied"
        assert decoded["outcome"]["reason"]

    def test_not_implied_outcome_carries_the_counterexample(self, solver):
        outcome = solver.implies(["A ->> B"], "A -> B")
        assert outcome.is_refuted()
        decoded = protocol.decode_response(
            roundtrip(protocol.success_response(outcome))
        )
        assert decoded["outcome"]["verdict"] == "not_implied"
        counterexample = decoded["outcome"]["counterexample"]
        assert counterexample["universe"] == list(UNIVERSE)
        assert len(counterexample["rows"]) >= 2

    def test_budget_exhausted_outcome(self, tiny_budget_solver):
        # An untyped successor td chases forever; the tiny budget gives up.
        outcome = tiny_budget_solver.implies(
            ["utd[ABC]{x y z} => y w v"], "utd[ABC]{p q r} => p p p"
        )
        assert outcome.is_unknown()
        decoded = protocol.decode_response(
            roundtrip(protocol.success_response(outcome))
        )
        assert decoded["outcome"]["verdict"] == "unknown"
        assert decoded["outcome"]["chase"]["status"] == "budget_exhausted"

    def test_error_envelope(self):
        envelope = protocol.error_response(
            protocol.ERROR_PARSE, "no parse", request_id="q-9"
        )
        decoded = protocol.decode_response(roundtrip(envelope))
        assert decoded["ok"] is False
        assert decoded["error"]["code"] == "parse_error"
        assert decoded["id"] == "q-9"


class TestRequests:
    def test_request_round_trip(self):
        request = protocol.SolveRequest(
            premises=("A -> B", "B -> C"),
            conclusion="A -> C",
            finite=True,
            client="tenant-a",
            id="q-3",
        )
        decoded = protocol.decode_request(protocol.dumps(request.to_dict()))
        assert decoded == request

    def test_request_defaults(self):
        decoded = protocol.decode_request(
            {"schema": 1, "premises": [], "conclusion": "A -> B"}
        )
        assert decoded.finite is False
        assert decoded.client == "anonymous"
        assert decoded.id is None

    @pytest.mark.parametrize(
        "payload",
        [
            {"schema": 1, "premises": "A -> B", "conclusion": "A -> C"},
            {"schema": 1, "premises": [1], "conclusion": "A -> C"},
            {"schema": 1, "premises": [], "conclusion": ""},
            {"schema": 1, "premises": [], "conclusion": "A -> B", "finite": "yes"},
            {"schema": 1, "premises": [], "conclusion": "A -> B", "client": ""},
            {"schema": 1, "premises": [], "conclusion": "A -> B", "id": 7},
            [],
        ],
    )
    def test_malformed_requests_are_bad_request(self, payload):
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.decode_request(payload)
        assert excinfo.value.code == protocol.ERROR_BAD_REQUEST
        assert excinfo.value.http_status == 400

    def test_invalid_json_is_bad_request(self):
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.decode_request(b"{not json")
        assert excinfo.value.code == protocol.ERROR_BAD_REQUEST


class TestSchemaVersioning:
    @pytest.mark.parametrize("version", [0, 2, "1", None, True])
    def test_request_schema_mismatch_is_rejected(self, version):
        payload = {"premises": [], "conclusion": "A -> B"}
        if version is not None:
            payload["schema"] = version
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.decode_request(payload)
        assert excinfo.value.code == protocol.ERROR_SCHEMA_MISMATCH

    def test_response_schema_mismatch_is_rejected(self, solver):
        outcome = solver.implies(["A -> B"], "A -> B")
        envelope = protocol.success_response(outcome)
        envelope["schema"] = protocol.PROTOCOL_VERSION + 1
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.decode_response(envelope)
        assert excinfo.value.code == protocol.ERROR_SCHEMA_MISMATCH

    def test_malformed_response_shapes_are_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_response({"schema": 1})
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_response({"schema": 1, "ok": True})
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_response({"schema": 1, "ok": False, "error": {}})


class TestErrorClassification:
    @pytest.mark.parametrize(
        "exc, code, status",
        [
            (ChaseBudgetExceeded("out of steps"), "budget_exhausted", 422),
            (StrategyError("unknown chase strategy"), "strategy_error", 500),
            (DependencyError("no parse"), "parse_error", 422),
            (ReproError("other library failure"), "solver_error", 422),
            (ValueError("surprise"), "internal", 500),
        ],
    )
    def test_stable_codes(self, exc, code, status):
        got_code, message = protocol.classify_exception(exc)
        assert got_code == code
        assert protocol.HTTP_STATUS[got_code] == status
        assert message

    def test_protocol_errors_keep_their_own_code(self):
        exc = protocol.ProtocolError(protocol.ERROR_OVERLOADED, "slow down")
        assert protocol.classify_exception(exc) == ("overloaded", "slow down")
        assert exc.http_status == 429

    def test_dsl_error_classifies_as_parse_error(self, solver):
        from repro.api import DSLError

        try:
            solver.parse("A -> ")
        except DSLError as exc:
            code, _ = protocol.classify_exception(exc)
            assert code == protocol.ERROR_PARSE
        else:  # pragma: no cover - the parse must fail
            pytest.fail("expected a DSLError")


class TestResumeRequests:
    def test_resume_request_round_trip(self):
        request = protocol.ResumeRequest(
            checkpoint_token="chase-abc.jsonl",
            conclusion="A -> B",
            max_steps=500,
            max_rows=1000,
            client="tenant-a",
            id="r-1",
        )
        decoded = protocol.decode_request(protocol.dumps(request.to_dict()))
        assert decoded == request
        # revision 1.1 is additive: resume payloads still stamp schema 1
        assert request.to_dict()["schema"] == protocol.PROTOCOL_VERSION
        assert protocol.PROTOCOL_VERSION in protocol.SUPPORTED_SCHEMAS

    def test_dispatch_on_token_presence(self):
        solve = protocol.decode_request(
            {"schema": 1, "premises": [], "conclusion": "A -> B"}
        )
        resume = protocol.decode_request(
            {"schema": 1, "checkpoint_token": "chase-x.jsonl", "conclusion": "A -> B"}
        )
        assert isinstance(solve, protocol.SolveRequest)
        assert isinstance(resume, protocol.ResumeRequest)
        assert resume.max_steps is None and resume.max_rows is None

    @pytest.mark.parametrize(
        "payload",
        [
            {"schema": 1, "checkpoint_token": "", "conclusion": "A -> B"},
            {"schema": 1, "checkpoint_token": 7, "conclusion": "A -> B"},
            {"schema": 1, "checkpoint_token": "chase-x.jsonl", "conclusion": ""},
            {
                "schema": 1,
                "checkpoint_token": "chase-x.jsonl",
                "conclusion": "A -> B",
                "max_steps": 0,
            },
            {
                "schema": 1,
                "checkpoint_token": "chase-x.jsonl",
                "conclusion": "A -> B",
                "max_rows": "many",
            },
            {
                "schema": 1,
                "checkpoint_token": "chase-x.jsonl",
                "conclusion": "A -> B",
                "max_steps": True,
            },
        ],
    )
    def test_malformed_resume_requests_are_bad_request(self, payload):
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.decode_request(payload)
        assert excinfo.value.code == protocol.ERROR_BAD_REQUEST

    def test_checkpoint_token_travels_on_the_envelope(self, tiny_budget_solver):
        outcome = tiny_budget_solver.implies(
            ["utd[ABC]{x y z} => y w v"], "utd[ABC]{p q r} => p p p"
        )
        bare = protocol.success_response(outcome)
        tokened = protocol.success_response(
            outcome, checkpoint_token="chase-x.jsonl"
        )
        assert "checkpoint_token" not in bare
        assert tokened["checkpoint_token"] == "chase-x.jsonl"
        # the outcome bytes themselves are untouched by the new field
        assert protocol.dumps(bare["outcome"]) == protocol.dumps(
            tokened["outcome"]
        )
        decoded = protocol.decode_response(tokened)
        assert decoded["checkpoint_token"] == "chase-x.jsonl"

    def test_checkpoint_errors_have_stable_codes(self):
        from repro.chase.checkpoint import CheckpointError

        for code, status in [
            ("checkpoint_not_found", 404),
            ("checkpoint_truncated", 422),
            ("checkpoint_corrupt", 422),
            ("checkpoint_schema_mismatch", 422),
            ("checkpoint_complete", 409),
        ]:
            got_code, message = protocol.classify_exception(
                CheckpointError(code, "boom")
            )
            assert got_code == code
            assert protocol.HTTP_STATUS[code] == status
            assert message
