"""Request deadlines, engine to wire: the 504 ``deadline_exceeded`` path.

Engine level: a chase whose :attr:`~repro.config.ChaseBudget.deadline` has
already passed is cut at the first round boundary with
:class:`~repro.util.errors.ChaseDeadlineExceeded` -- and with
checkpointing on, the raise carries a resume token (the interrupted work
is sealed, not lost).  The cut must raise *before* the outcome store is
fed: an expired request can never poison the cache with a
timing-dependent UNKNOWN.

Service level: an expired request is answered 504 with the stable code,
and -- critically for fairness -- its in-flight slot is released, so the
same client's next request is admitted.  A deadline that expires inside a
running chase also cuts that chase, so its batch leaves the coalescer.
"""

import time

import pytest

from repro.api import Solver, SolverConfig
from repro.config import ChaseBudget, ServiceConfig
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import SolverService, serve_in_thread
from repro.util.errors import ChaseBudgetExceeded, ChaseDeadlineExceeded

#: The undecidability chain: an existential td that never terminates on its
#: own, so only a budget or deadline can stop the chase.
CHAIN_PREMISE = "utd[AB]{x y} => y x1"
CHAIN_CONCLUSION = "uegd[AB]{x y; x y2}: y = y2"

#: A successor chain asked whether it closes into a 4-cycle: not implied,
#: and the chase never finds that out on its own.
SUCCESSOR_PREMISE = "utd[AB]{x y} => y z"
SUCCESSOR_CONCLUSION = "utd[AB]{v0 v1; v1 v2; v2 v3} => v3 v0"


class TestEngineDeadline:
    def test_expired_deadline_raises_at_the_round_boundary(self):
        solver = Solver(universe="AB", config=SolverConfig())
        problem = solver.problem([CHAIN_PREMISE], CHAIN_CONCLUSION)
        with pytest.raises(ChaseDeadlineExceeded):
            solver.solve(problem, deadline=time.monotonic() - 1.0)

    def test_deadline_cut_is_a_budget_subclass(self):
        # Existing budget handling (classify, UNKNOWN mapping guards) keeps
        # working because the deadline cut IS a budget exhaustion.
        assert issubclass(ChaseDeadlineExceeded, ChaseBudgetExceeded)

    def test_deadline_cut_never_feeds_the_store(self):
        solver = Solver(
            universe="AB", config=SolverConfig().with_cache(store="memory")
        )
        problem = solver.problem([CHAIN_PREMISE], CHAIN_CONCLUSION)
        with pytest.raises(ChaseDeadlineExceeded):
            solver.solve(problem, deadline=time.monotonic() - 1.0)
        # The store saw the miss but never a poisoned entry: the raise
        # happens before the put, so no timing-dependent UNKNOWN can be
        # replayed to later callers.
        assert solver._store.stats.puts == 0

    def test_deadline_cut_seals_a_resumable_checkpoint(self, tmp_path):
        config = SolverConfig(
            chase=ChaseBudget(max_steps=10**6)
        ).with_checkpoint("on", directory=str(tmp_path), interval=1)
        solver = Solver(universe="AB", config=config)
        problem = solver.problem([CHAIN_PREMISE], CHAIN_CONCLUSION)
        with pytest.raises(ChaseDeadlineExceeded) as excinfo:
            solver.solve(problem, deadline=time.monotonic() - 1.0)
        token = getattr(excinfo.value, "checkpoint", None)
        assert token is not None
        # The sealed log resumes like any budget exhaustion.
        resumed = solver.resume(token, budget=ChaseBudget(max_steps=5))
        assert resumed.steps >= 1

    def test_no_deadline_means_no_cut(self):
        solver = Solver(universe="ABC", config=SolverConfig())
        outcome = solver.implies(["A -> B", "B -> C"], "A -> C")
        assert outcome.is_implied()

    def test_deadline_never_serializes(self):
        budget = ChaseBudget(max_steps=7).with_deadline(time.monotonic() + 60)
        payload = budget.to_dict()
        assert "deadline" not in payload
        assert ChaseBudget.from_dict(payload).deadline is None


class TestServiceDeadline:
    def test_expired_request_is_504_and_frees_the_fairness_slot(self, held_solver):
        # Every batch is held 250 ms, so the 1 ms deadline expires in
        # flight, deterministically, regardless of solve speed.
        config = ServiceConfig(port=0, universe="ABC", per_client_in_flight=1)
        service = SolverService(held_solver(0.25, universe="ABC"), config=config)
        with serve_in_thread(service) as handle:
            host, port = handle.address
            with ServiceClient(host, port, client_id="hurried") as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.solve(["A -> B"], "A -> C", deadline_ms=1)
                assert excinfo.value.status == 504
                assert excinfo.value.code == protocol.ERROR_DEADLINE_EXCEEDED
                # The slot is free again: with per_client_in_flight=1 a
                # leaked slot would turn this follow-up into a 429.
                outcome = client.solve(["A -> B", "B -> C"], "A -> C")
                assert outcome["verdict"] == "implied"

    def test_server_default_deadline_applies_without_client_opt_in(self, held_solver):
        config = ServiceConfig(port=0, universe="ABC", default_deadline_ms=1)
        service = SolverService(held_solver(0.25, universe="ABC"), config=config)
        with serve_in_thread(service) as handle:
            host, port = handle.address
            with ServiceClient(host, port, client_id="defaulted") as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.solve(["A -> B"], "A -> C")
                assert excinfo.value.status == 504
                assert excinfo.value.code == protocol.ERROR_DEADLINE_EXCEEDED

    def test_deadline_cuts_a_running_chase_and_frees_its_batch(self):
        # The batch is dispatched on the next loop turn, so the deadline
        # expires inside the chase, whose step budget 300 ms cannot come
        # close to using up.
        config = ServiceConfig(
            port=0,
            universe="AB",
            solver=SolverConfig(
                chase=ChaseBudget(max_steps=10**6, max_rows=10**6)
            ),
        )
        with serve_in_thread(config=config) as handle:
            host, port = handle.address
            with ServiceClient(host, port, client_id="runaway") as client:
                sent = time.monotonic()
                with pytest.raises(ServiceError) as excinfo:
                    client.solve(
                        [SUCCESSOR_PREMISE], SUCCESSOR_CONCLUSION, deadline_ms=300
                    )
                assert excinfo.value.status == 504
                assert excinfo.value.code == protocol.ERROR_DEADLINE_EXCEEDED
                coalescer = handle.service.coalescer
                while coalescer.in_flight_batches and time.monotonic() - sent < 2.0:
                    time.sleep(0.01)
                assert coalescer.in_flight_batches == 0

    def test_generous_deadline_does_not_disturb_the_answer(self):
        config = ServiceConfig(port=0, universe="ABC")
        with serve_in_thread(config=config) as handle:
            host, port = handle.address
            with ServiceClient(host, port, client_id="patient") as client:
                outcome = client.solve(
                    ["A -> B", "B -> C"], "A -> C", deadline_ms=30_000
                )
                assert outcome["verdict"] == "implied"

    @pytest.mark.parametrize("bad", [0, -5, True, 1.5, "100"])
    def test_deadline_ms_wire_validation(self, bad):
        payload = protocol.SolveRequest(
            premises=("A -> B",), conclusion="A -> B"
        ).to_dict()
        payload["deadline_ms"] = bad
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_request(payload)

    def test_deadline_ms_round_trips_on_the_wire(self):
        request = protocol.SolveRequest(
            premises=("A -> B",), conclusion="A -> B", deadline_ms=250
        )
        decoded = protocol.decode_request(request.to_dict())
        assert decoded.deadline_ms == 250
