"""The multi-worker supervisor: spawn, respawn with backoff, drain, no leaks.

Unit tests pin the backoff curve and the worker-socket handoff contract;
the process tests run a real 2-worker fleet (``--workers 2``), SIGKILL one
worker to watch the respawn, then SIGTERM the supervisor and assert the
coordinated drain -- exit 0, the ``drained cleanly`` summary on stdout,
and *every* worker pid gone (the leak check the CI smoke leg mirrors).

The cross-worker cache test runs two in-process services over one shared
:class:`~repro.api.store.FileOutcomeStore` directory instead of relying on
``SO_REUSEPORT`` routing, which the kernel does not let a test steer.
"""

import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.api import SolverConfig
from repro.config import ServiceConfig
from repro.service.client import ServiceClient
from repro.service.server import serve_in_thread
from repro.service.supervisor import (
    BASE_RESPAWN_DELAY,
    MAX_RESPAWN_DELAY,
    Supervisor,
    open_worker_socket,
    reuseport_available,
)

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

READY_LINE = re.compile(r"\[supervisor\] worker (\d+) ready \(pid (\d+)\)")


class TestRespawnDelay:
    def test_first_respawn_is_immediate(self):
        assert Supervisor.respawn_delay(0) == 0.0

    def test_exponential_doubling(self):
        assert Supervisor.respawn_delay(1) == BASE_RESPAWN_DELAY
        assert Supervisor.respawn_delay(2) == 2 * BASE_RESPAWN_DELAY
        assert Supervisor.respawn_delay(3) == 4 * BASE_RESPAWN_DELAY

    def test_capped_at_the_maximum(self):
        assert Supervisor.respawn_delay(50) == MAX_RESPAWN_DELAY

    def test_monotonic_nondecreasing(self):
        delays = [Supervisor.respawn_delay(n) for n in range(12)]
        assert delays == sorted(delays)


class TestWorkerSocket:
    def test_fd_and_reuseport_are_mutually_exclusive(self):
        config = ServiceConfig(port=0)
        with pytest.raises(ValueError):
            open_worker_socket(config)
        with pytest.raises(ValueError):
            open_worker_socket(config, fd=3, reuseport=True)

    def test_adopting_an_inherited_fd(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        port = listener.getsockname()[1]
        config = ServiceConfig(host="127.0.0.1", port=port)
        adopted = open_worker_socket(config, fd=listener.detach())
        try:
            assert adopted.getsockname()[1] == port
        finally:
            adopted.close()

    @pytest.mark.skipif(
        not reuseport_available(), reason="SO_REUSEPORT not available"
    )
    def test_reuseport_workers_bind_the_same_port(self):
        anchor = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        anchor.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        anchor.bind(("127.0.0.1", 0))
        port = anchor.getsockname()[1]
        config = ServiceConfig(host="127.0.0.1", port=port)
        first = open_worker_socket(config, reuseport=True)
        second = open_worker_socket(config, reuseport=True)
        try:
            assert first.getsockname()[1] == port
            assert second.getsockname()[1] == port
        finally:
            first.close()
            second.close()
            anchor.close()


class StderrWatcher:
    """Accumulates a process's stderr lines on a background thread."""

    def __init__(self, process):
        self.lines = []
        self._condition = threading.Condition()
        self._thread = threading.Thread(
            target=self._pump, args=(process.stderr,), daemon=True
        )
        self._thread.start()

    def _pump(self, stream):
        for line in stream:
            with self._condition:
                self.lines.append(line)
                self._condition.notify_all()

    def wait_for_ready(self, count, timeout=60.0):
        """Block until `count` distinct ready lines arrived; returns pids."""
        deadline = time.monotonic() + timeout
        with self._condition:
            while True:
                pids = []
                for line in self.lines:
                    match = READY_LINE.search(line)
                    if match:
                        pids.append(int(match.group(2)))
                if len(pids) >= count:
                    return pids
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise AssertionError(
                        f"only {len(pids)}/{count} workers became ready; "
                        f"stderr so far: {''.join(self.lines)!r}"
                    )
                self._condition.wait(remaining)


def spawn_fleet(*flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service",
            "--port",
            "0",
            "--workers",
            "2",
            *flags,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        # Its own process group, so a failed test can kill the workers too.
        start_new_session=True,
    )


def kill_fleet(process):
    """Kill a fleet still running after a failure, workers included.

    Killing only the supervisor would orphan its workers, which keep the
    inherited stdout/stderr pipes open and block ``communicate()`` forever.
    """
    if process.poll() is None:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()


def wait_for_address(process, timeout=60.0):
    deadline = time.monotonic() + timeout
    line = ""
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        match = re.search(r"listening on http://([^:]+):(\d+)", line)
        if match:
            return match.group(1), int(match.group(2))
    raise AssertionError(f"no listen line from the supervisor (last: {line!r})")


def assert_all_dead(pids):
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        alive = []
        for pid in pids:
            try:
                os.kill(pid, 0)
            except OSError:
                continue
            alive.append(pid)
        if not alive:
            return
        time.sleep(0.05)
    raise AssertionError(f"leaked worker pids after drain: {alive}")


class TestFleetLifecycle:
    def test_two_workers_serve_one_port_and_drain_without_leaks(self):
        process = spawn_fleet("--universe", "ABC")
        watcher = StderrWatcher(process)
        try:
            pids = watcher.wait_for_ready(2)
            host, port = wait_for_address(process)
            with ServiceClient(host, port, client_id="fleet") as client:
                for _ in range(8):
                    outcome = client.solve(["A -> B", "B -> C"], "A -> C")
                    assert outcome["verdict"] == "implied"
            process.send_signal(signal.SIGTERM)
            stdout, _ = process.communicate(timeout=60)
        finally:
            kill_fleet(process)
        assert process.returncode == 0
        assert "service drained cleanly: 2 workers" in stdout
        assert_all_dead(pids)

    def test_killed_worker_is_respawned(self):
        process = spawn_fleet("--universe", "ABC")
        watcher = StderrWatcher(process)
        try:
            first_pids = watcher.wait_for_ready(2)
            host, port = wait_for_address(process)
            os.kill(first_pids[0], signal.SIGKILL)
            # First respawn is immediate (restarts=0 -> no backoff); a
            # third ready line means the replacement came up.
            replacement_pids = watcher.wait_for_ready(3)
            new = set(replacement_pids) - set(first_pids)
            assert len(new) == 1
            # The fleet still answers after the crash.
            with ServiceClient(host, port, client_id="fleet") as client:
                assert (
                    client.solve(["A -> B"], "A -> B")["verdict"] == "implied"
                )
            process.send_signal(signal.SIGTERM)
            stdout, _ = process.communicate(timeout=60)
        finally:
            kill_fleet(process)
        assert process.returncode == 0
        assert "service drained cleanly: 2 workers" in stdout
        assert_all_dead(set(first_pids) | set(replacement_pids))


class TestSharedOutcomeStore:
    def test_two_workers_observe_each_others_entries(self, tmp_path):
        shared = SolverConfig().with_cache(
            store="shared", shared_path=str(tmp_path)
        )

        def worker_config():
            return ServiceConfig(port=0, universe="ABC", solver=shared)

        with serve_in_thread(config=worker_config()) as one:
            with serve_in_thread(config=worker_config()) as two:
                host1, port1 = one.address
                host2, port2 = two.address
                with ServiceClient(host1, port1, client_id="writer") as client:
                    outcome = client.solve(["A -> B", "B -> C"], "A -> C")
                    assert outcome["verdict"] == "implied"
                # Worker two was never asked this problem, yet its store
                # (the same directory) already holds the answer.
                before = two.service.solver.stats.cache_hits
                with ServiceClient(host2, port2, client_id="reader") as client:
                    outcome = client.solve(["A -> B", "B -> C"], "A -> C")
                    assert outcome["verdict"] == "implied"
                assert two.service.solver.stats.cache_hits == before + 1
