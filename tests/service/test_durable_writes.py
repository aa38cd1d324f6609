"""Durable writers degrade instead of failing the request.

Four writers put a request's work on disk: the chase checkpoint log, the
access log, the shared outcome store and the metrics sidecar.  Each case
here injects a disk fault into one of them -- ENOSPC, EIO, or a torn
write that lands part of a record before failing -- and asserts three
things: the request is answered 200 with the bytes a cold in-process solve
gives, the fault shows up on ``/metrics``, and nothing hangs (every client
call has a timeout, and the service must drain within its bound).

Faults are injected per module -- a module-level ``open`` that shadows the
builtin, or an ``os.replace`` / ``tempfile.mkstemp`` wrapper that fails
only for the writer's own paths -- so the other writers in the same
process keep working.
"""

import errno
import json
import os
import tempfile
import time

import pytest

from repro.api import ChaseBudget, SolverConfig
from repro.api.dsl import parse_dependency
from repro.api.solver import Solver
from repro.chase import ChaseEngine
from repro.chase import checkpoint as checkpoint_module
from repro.chase.checkpoint import checkpoint_counters, scan_resumable
from repro.config import ServiceConfig
from repro.model import Universe
from repro.service import access_log as access_log_module
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.server import serve_in_thread
from repro.util.errors import ChaseBudgetExceeded, ChaseDeadlineExceeded

#: A successor chain asked whether it closes into a 4-cycle: the chase never
#: terminates on its own, so a small step budget cuts it with a resumable
#: checkpoint -- every run writes a log with several flush points.
CHAIN = (["utd[AB]{x y} => y z"], "utd[AB]{v0 v1; v1 v2; v2 v3} => v3 v0")
BUDGET = ChaseBudget(max_steps=60)

#: A cheap fd query for the writers that do not depend on the chase.
FD = (["A -> B", "B -> C"], "A -> C")

#: Both ways a write fails: a disk that fills up mid-record, and an I/O error.
FAULTS = pytest.mark.parametrize(
    "code, torn", [(errno.ENOSPC, True), (errno.EIO, False)], ids=["torn", "eio"]
)

BUILTIN_OPEN = open
REAL_REPLACE = os.replace
REAL_MKSTEMP = tempfile.mkstemp


def disk_error(code):
    return OSError(code, os.strerror(code))


class DiskFault:
    """Which writes and flushes fail, counted over every stream it opened.

    ``writes`` and ``flushes`` are 1-based call numbers that raise
    ``OSError(code)``.  A failing write with ``torn=True`` first lands the
    first half of its data, as a disk filling up mid-record does.
    ``open_fails`` makes opening raise instead.
    """

    def __init__(self, code, *, writes=(), flushes=(), torn=False, open_fails=False):
        self.code = code
        self.writes = set(writes)
        self.flushes = set(flushes)
        self.torn = torn
        self.open_fails = open_fails
        self.write_calls = 0
        self.flush_calls = 0

    def open(self, path, *args, **kwargs):
        if self.open_fails:
            raise disk_error(self.code)
        return FaultyStream(BUILTIN_OPEN(path, *args, **kwargs), self)

    def install(self, monkeypatch, module):
        """Shadow the builtin ``open`` inside ``module`` only."""
        monkeypatch.setattr(module, "open", self.open, raising=False)


class FaultyStream:
    """A text stream whose writes and flushes fail as its fault says."""

    def __init__(self, stream, fault):
        self._stream = stream
        self._fault = fault

    def write(self, data):
        fault = self._fault
        fault.write_calls += 1
        if fault.write_calls in fault.writes:
            if fault.torn:
                self._stream.write(data[: len(data) // 2])
            raise disk_error(fault.code)
        return self._stream.write(data)

    def flush(self):
        fault = self._fault
        fault.flush_calls += 1
        if fault.flush_calls in fault.flushes:
            raise disk_error(fault.code)
        return self._stream.flush()

    def __getattr__(self, name):
        return getattr(self._stream, name)


def fail_replace_into(monkeypatch, directory, code, *, times=None, torn=False):
    """Make ``os.replace`` into ``directory`` raise ``OSError(code)``.

    ``times`` bounds how many calls fail (``None``: all of them); ``torn``
    first cuts the staged file to half its size, so a reader that trusted
    the rename would see a torn record.  Returns the list of failed
    targets.
    """
    directory = os.path.abspath(directory)
    failed = []

    def replace(src, dst, *args, **kwargs):
        inside = os.path.dirname(os.path.abspath(dst)) == directory
        if inside and (times is None or len(failed) < times):
            failed.append(dst)
            if torn and os.path.exists(src):
                os.truncate(src, os.path.getsize(src) // 2)
            raise disk_error(code)
        return REAL_REPLACE(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "replace", replace)
    return failed


def cold_bytes(universe, query, budget=None):
    """The outcome bytes an in-process solve gives, with nothing on disk."""
    config = SolverConfig(chase=budget or ChaseBudget()).with_checkpoint("off")
    solver = Solver(universe=universe, config=config.with_cache(store="off"))
    outcome = solver.solve(solver.problem(*query))
    return protocol.dumps(protocol.encode_outcome(outcome))


def solve_all(config, query, times=1):
    """Ask ``query`` ``times`` times from one client; returns answers, /metrics."""
    answers = []
    with serve_in_thread(config=config) as handle:
        host, port = handle.address
        with ServiceClient(host, port, client_id="disk", timeout=20) as client:
            for _ in range(times):
                answers.append(client.solve_raw(*query))
            metrics = client.metrics()
    return answers, metrics


def assert_cold_answers(answers, expected):
    for status, envelope in answers:
        assert status == 200, envelope
        assert protocol.dumps(envelope["outcome"]) == expected


def read_lines(path):
    with BUILTIN_OPEN(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def names_ending(directory, suffix):
    return [name for name in os.listdir(directory) if name.endswith(suffix)]


CHECKPOINT_FAULTS = {
    "open_enospc": dict(code=errno.ENOSPC, open_fails=True),
    "header_enospc": dict(code=errno.ENOSPC, writes={1}),
    "torn_step_enospc": dict(code=errno.ENOSPC, writes={12}, torn=True),
    "snapshot_flush_eio": dict(code=errno.EIO, flushes={2}),
}


class TestCheckpointLog:
    def _config(self, directory):
        solver = SolverConfig(chase=BUDGET).with_checkpoint(
            "on", directory=str(directory), interval=1000
        )
        return ServiceConfig(port=0, universe="AB", solver=solver)

    def test_a_healthy_disk_seals_a_token(self, tmp_path):
        # The control: without a fault the same request is checkpointed.
        before = checkpoint_counters().write_errors
        answers, metrics = solve_all(self._config(tmp_path), CHAIN)
        assert_cold_answers(answers, cold_bytes("AB", CHAIN, BUDGET))
        assert "checkpoint_token" in answers[0][1]
        assert metrics["checkpoint"]["write_errors"] == before

    @pytest.mark.parametrize("fault", sorted(CHECKPOINT_FAULTS))
    def test_failed_log_writes_still_answer_without_a_token(
        self, tmp_path, monkeypatch, fault
    ):
        DiskFault(**CHECKPOINT_FAULTS[fault]).install(monkeypatch, checkpoint_module)
        before = checkpoint_counters().write_errors
        answers, metrics = solve_all(self._config(tmp_path), CHAIN)
        assert_cold_answers(answers, cold_bytes("AB", CHAIN, BUDGET))
        # A run whose log failed is not resumable: no token is handed out,
        # and no partial log is left for orphan recovery to resume.
        assert "checkpoint_token" not in answers[0][1]
        assert metrics["checkpoint"]["write_errors"] == before + 1
        assert scan_resumable(str(tmp_path)) == []
        assert names_ending(tmp_path, ".jsonl") == []


class TestCheckpointLogInProcess:
    """The same contract below the service: results and errors carry no token."""

    def _config(self, directory, budget=BUDGET):
        return SolverConfig(chase=budget).with_checkpoint(
            "on", directory=str(directory)
        )

    def test_solve_many_finishes_without_a_token(self, tmp_path, monkeypatch):
        fault = DiskFault(errno.ENOSPC, writes={5}, torn=True)
        fault.install(monkeypatch, checkpoint_module)
        config = self._config(tmp_path).with_cache(store="off")
        solver = Solver(universe="AB", config=config)
        [outcome] = solver.solve_many([solver.problem(*CHAIN)])
        assert outcome.chase.checkpoint is None
        encoded = protocol.dumps(protocol.encode_outcome(outcome))
        assert encoded == cold_bytes("AB", CHAIN, BUDGET)
        assert os.listdir(tmp_path) == []

    def test_deadline_error_carries_no_token(self, tmp_path, monkeypatch):
        DiskFault(errno.EIO, flushes={1}).install(monkeypatch, checkpoint_module)
        unbounded = ChaseBudget(max_steps=10**6)
        solver = Solver(universe="AB", config=self._config(tmp_path, unbounded))
        problem = solver.problem(*CHAIN)
        with pytest.raises(ChaseDeadlineExceeded) as excinfo:
            solver.solve(problem, deadline=time.monotonic() - 1.0)
        assert excinfo.value.checkpoint is None
        assert os.listdir(tmp_path) == []

    def test_budget_error_carries_no_token(self, tmp_path, monkeypatch):
        DiskFault(errno.ENOSPC, flushes={2}).install(monkeypatch, checkpoint_module)
        td = parse_dependency(CHAIN[0][0], universe=Universe.from_names("AB"))
        engine = ChaseEngine(
            [td], budget=self._config(tmp_path).chase, raise_on_budget=True
        )
        with pytest.raises(ChaseBudgetExceeded) as excinfo:
            engine.run(td.body)
        assert excinfo.value.checkpoint is None
        assert os.listdir(tmp_path) == []


class TestAccessLog:
    def _config(self, path, **overrides):
        return ServiceConfig(
            port=0, universe="ABC", access_log_path=str(path), **overrides
        )

    @FAULTS
    def test_failed_line_is_dropped_counted_and_cut_off(
        self, tmp_path, monkeypatch, code, torn
    ):
        path = tmp_path / "access.jsonl"
        DiskFault(code, writes={2}, torn=torn).install(monkeypatch, access_log_module)
        answers, metrics = solve_all(self._config(path), FD, times=3)
        assert_cold_answers(answers, cold_bytes("ABC", FD))
        assert metrics["access_log"] == {"records": 2, "write_errors": 1}
        # The torn tail was cut off: the file is whole lines, one per
        # record that was written.
        assert len(read_lines(path)) == 2

    def test_failed_flush_is_dropped_and_counted(self, tmp_path, monkeypatch):
        path = tmp_path / "access.jsonl"
        DiskFault(errno.ENOSPC, flushes={1}).install(monkeypatch, access_log_module)
        answers, metrics = solve_all(self._config(path), FD, times=2)
        assert_cold_answers(answers, cold_bytes("ABC", FD))
        assert metrics["access_log"] == {"records": 1, "write_errors": 1}
        assert len(read_lines(path)) == 1

    def test_failed_rotation_is_dropped_counted_and_recovers(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "access.jsonl"
        failed = fail_replace_into(monkeypatch, tmp_path, errno.EIO, times=1)
        config = self._config(path, access_log_max_bytes=1024)
        answers, metrics = solve_all(config, FD, times=12)
        assert_cold_answers(answers, cold_bytes("ABC", FD))
        assert len(failed) == 1
        assert metrics["access_log"] == {"records": 11, "write_errors": 1}
        # A later rotation went through, and every file holds whole lines.
        logged = read_lines(path) + read_lines(f"{path}.1")
        assert 0 < len(logged) <= 11


class TestSharedStore:
    """``FileOutcomeStore.put`` drops the entry; the solve is not stored."""

    def _config(self, directory):
        solver = SolverConfig().with_cache(store="shared", shared_path=str(directory))
        return ServiceConfig(port=0, universe="ABC", solver=solver)

    @FAULTS
    def test_failed_entry_write_still_answers(self, tmp_path, monkeypatch, code, torn):
        failed = fail_replace_into(monkeypatch, tmp_path, code, torn=torn)
        answers, metrics = solve_all(self._config(tmp_path), FD, times=2)
        assert_cold_answers(answers, cold_bytes("ABC", FD))
        assert failed
        # The fault shows as solves that were never stored: neither request
        # hit, both were solved, no put went through, and the dropped writes
        # are counted.  No staging file is left behind.
        assert metrics["store"]["puts"] == 0
        assert metrics["store"]["hits"] == 0
        assert metrics["store"]["write_errors"] > 0
        assert metrics["solver"]["solved"] == 2
        assert names_ending(tmp_path, ".pkl") == []
        assert names_ending(tmp_path, ".tmp") == []

    def test_failed_staging_file_still_answers(self, tmp_path, monkeypatch):
        directory = os.path.abspath(tmp_path)

        def mkstemp(*args, **kwargs):
            if os.path.abspath(kwargs.get("dir") or "") == directory:
                raise disk_error(errno.ENOSPC)
            return REAL_MKSTEMP(*args, **kwargs)

        monkeypatch.setattr(tempfile, "mkstemp", mkstemp)
        answers, metrics = solve_all(self._config(tmp_path), FD)
        assert_cold_answers(answers, cold_bytes("ABC", FD))
        assert metrics["store"]["puts"] == 0
        assert metrics["store"]["write_errors"] > 0
        assert metrics["solver"]["solved"] == 1
        assert names_ending(tmp_path, ".tmp") == []


class TestMetricsSidecar:
    """The sidecar flush is skipped; the worker's own counters keep counting."""

    @FAULTS
    def test_failed_sidecar_write_still_answers(
        self, tmp_path, monkeypatch, code, torn
    ):
        failed = fail_replace_into(monkeypatch, tmp_path, code, torn=torn)
        config = ServiceConfig(port=0, universe="ABC", metrics_dir=str(tmp_path))
        answers, metrics = solve_all(config, FD, times=2)
        assert_cold_answers(answers, cold_bytes("ABC", FD))
        assert failed
        # The fault shows as a fleet view with no sidecar in it and counted
        # failed flushes, while this worker's registry counts both solves;
        # no torn or staged file is left for a scrape to read.
        assert metrics["workers"]["count"] == 0
        assert metrics["workers"]["write_errors"] > 0
        served = [
            child["value"]
            for child in metrics["metrics"]["requests_total"]["children"]
            if child["labels"] == {"path": "/v1/solve", "status": "200"}
        ]
        assert served == [2]
        assert os.listdir(tmp_path) == []
