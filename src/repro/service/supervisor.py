"""The multi-worker supervisor behind ``python -m repro.service --workers N``.

One listening endpoint, N independent worker processes, one process tree
that starts, heals, and drains as a unit:

* **Socket sharing.**  In ``reuseport`` mode (the default wherever
  ``SO_REUSEPORT`` exists) the supervisor binds -- but never listens on --
  a reservation socket, fixing the concrete port race-free even for
  ``--port 0``; each worker then binds its *own* ``SO_REUSEPORT`` listening
  socket to that port and the kernel load-balances accepts across them.
  In ``inherit`` mode (the fallback) the supervisor binds and listens
  once and passes the file descriptor to every worker, which adopts it
  with ``socket.socket(fileno=...)``.
* **Respawn with backoff.**  A worker that dies outside a drain is
  restarted after an exponentially growing delay
  (:meth:`Supervisor.respawn_delay`); the delay resets once a worker
  stays up for :data:`STABLE_UPTIME` seconds, so one crash loop cannot
  fork-bomb the host while a transient failure recovers in half a second.
* **Coordinated drain.**  SIGTERM/SIGINT to the supervisor is fanned out
  as SIGTERM to every worker, each of which runs the single-process
  graceful drain (stop accepting, flush batches, seal checkpoints);
  workers still alive past the drain budget are SIGKILLed so the tree
  never leaks processes.

The stdout protocol matters: the supervisor's *first* stdout line is
``service listening on http://HOST:PORT`` (printed only after every
worker reported ready), and its last is
``service drained cleanly: N workers`` -- the same shape single-worker
mode prints, so harnesses need not care how many processes serve.  All
per-worker chatter (``[supervisor] worker 0 ready (pid 123)``, forwarded
worker output) goes to stderr.

Workers share one outcome store, one checkpoint directory (orphan
recovery is made multi-worker-safe by per-log claim files -- see
:meth:`repro.service.server.SolverService._claim_orphan`), and one
metrics sidecar directory, so any worker's ``/metrics`` scrape can
aggregate the fleet.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.config import ServiceConfig

#: A worker alive this long has its restart counter reset: the crash loop,
#: if there was one, is over.
STABLE_UPTIME = 30.0

#: Longest single respawn delay (seconds).
MAX_RESPAWN_DELAY = 30.0

#: First respawn delay (seconds); doubles per consecutive crash.
BASE_RESPAWN_DELAY = 0.5

#: How long a spawned worker gets to print its readiness line.
READY_TIMEOUT = 60.0

#: Serializes the supervisor's stderr lines.  One pump thread per worker
#: forwards output concurrently, and ``print`` writes a line's text and its
#: newline as two writes, so two workers turning ready at once could fuse
#: their readiness lines into one.
_STDERR_LOCK = threading.Lock()


def _stderr_line(text: str) -> None:
    """Write ``text`` and a newline to stderr as one whole, flushed line."""
    with _STDERR_LOCK:
        sys.stderr.write(text + "\n")
        sys.stderr.flush()


def reuseport_available() -> bool:
    """Whether this platform can share a listening port via ``SO_REUSEPORT``."""
    return hasattr(socket, "SO_REUSEPORT")


class _Worker:
    """Book-keeping for one worker slot (a stable id across respawns)."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Optional[subprocess.Popen] = None
        self.ready = threading.Event()
        self.restarts = 0
        self.started_at = 0.0
        self.respawn_at: Optional[float] = None

    @property
    def pid(self) -> Optional[int]:
        """The live process id, or ``None`` between incarnations."""
        return self.process.pid if self.process is not None else None

    def alive(self) -> bool:
        """Whether the current incarnation is still running."""
        return self.process is not None and self.process.poll() is None


class Supervisor:
    """Run ``config.workers`` service workers behind one listening port.

    Parameters
    ----------
    config:
        The service configuration; ``config.workers`` fixes the fleet
        size and ``config.host``/``config.port`` the shared endpoint.
    socket_mode:
        ``"reuseport"``, ``"inherit"``, or ``"auto"`` (reuseport where
        the platform has it, inherited FD elsewhere).
    python:
        The interpreter used to spawn workers (defaults to
        ``sys.executable``).
    """

    def __init__(
        self,
        config: ServiceConfig,
        *,
        socket_mode: str = "auto",
        python: Optional[str] = None,
    ) -> None:
        if config.workers < 1:
            raise ValueError("a supervisor needs workers >= 1")
        if socket_mode not in ("auto", "reuseport", "inherit"):
            raise ValueError(
                "socket_mode must be 'auto', 'reuseport', or 'inherit'"
            )
        self._config = config
        if socket_mode == "auto":
            socket_mode = "reuseport" if reuseport_available() else "inherit"
        elif socket_mode == "reuseport" and not reuseport_available():
            raise RuntimeError("this platform has no SO_REUSEPORT")
        self._socket_mode = socket_mode
        self._python = python if python is not None else sys.executable
        self._workers: List[_Worker] = [
            _Worker(index) for index in range(config.workers)
        ]
        self._socket: Optional[socket.socket] = None
        self._address: Optional[Tuple[str, int]] = None
        self._stop = threading.Event()
        self._config_path: Optional[str] = None
        self._scratch_dir: Optional[str] = None
        self._pumps: List[threading.Thread] = []
        self._restarts_total = 0

    # -- policy ---------------------------------------------------------------

    @staticmethod
    def respawn_delay(restarts: int) -> float:
        """The backoff before restart number ``restarts`` (1-based).

        ``0.5s, 1s, 2s, 4s, ...`` capped at :data:`MAX_RESPAWN_DELAY`;
        restart 0 (the initial spawn) waits nothing.
        """
        if restarts <= 0:
            return 0.0
        return min(
            MAX_RESPAWN_DELAY, BASE_RESPAWN_DELAY * (2.0 ** (restarts - 1))
        )

    # -- accessors ------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The shared ``(host, port)`` (available once sockets are bound)."""
        if self._address is None:
            raise RuntimeError("the supervisor has not bound its socket yet")
        return self._address

    @property
    def socket_mode(self) -> str:
        """The resolved socket-sharing mode (``reuseport``/``inherit``)."""
        return self._socket_mode

    @property
    def restarts_total(self) -> int:
        """How many worker respawns have happened over this run."""
        return self._restarts_total

    def worker_pids(self) -> Dict[int, Optional[int]]:
        """The current pid of every worker slot (``None`` if between runs)."""
        return {worker.index: worker.pid for worker in self._workers}

    # -- socket plumbing ------------------------------------------------------

    def _bind(self) -> None:
        """Reserve (reuseport) or open (inherit) the shared endpoint."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            if self._socket_mode == "reuseport":
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
                sock.bind((self._config.host, self._config.port))
                # Deliberately never listened on: it only pins the port so
                # respawned workers can always re-bind it.
            else:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                sock.bind((self._config.host, self._config.port))
                sock.listen(128)
                sock.set_inheritable(True)
        except BaseException:
            sock.close()
            raise
        self._socket = sock
        host, port = sock.getsockname()[:2]
        self._address = (host, port)

    def _write_worker_config(self) -> str:
        """Materialize the shared worker config file; returns its path.

        The workers get the *resolved* port (so ``--port 0`` means one
        ephemeral port for the fleet, not one per worker) and -- unless
        configured otherwise -- a shared scratch metrics directory so the
        aggregate ``/metrics`` view works out of the box.
        """
        assert self._address is not None
        self._scratch_dir = tempfile.mkdtemp(prefix="repro-service-fleet-")
        payload = self._config.to_dict()
        payload["host"] = self._address[0]
        payload["port"] = self._address[1]
        if payload.get("metrics_dir") is None:
            payload["metrics_dir"] = os.path.join(self._scratch_dir, "metrics")
        fd, path = tempfile.mkstemp(
            dir=self._scratch_dir, prefix="config.", suffix=".json"
        )
        with os.fdopen(fd, "w", encoding="utf-8") as stream:
            json.dump(payload, stream, sort_keys=True)
        self._config_path = path
        return path

    # -- worker lifecycle -----------------------------------------------------

    def _spawn(self, worker: _Worker) -> None:
        """Start one worker process and its stdout pump thread."""
        assert self._config_path is not None and self._socket is not None
        command = [
            self._python,
            "-m",
            "repro.service",
            "--config",
            self._config_path,
            "--worker-id",
            str(worker.index),
        ]
        pass_fds: tuple = ()
        if self._socket_mode == "reuseport":
            command.append("--worker-reuseport")
        else:
            command.extend(["--worker-fd", str(self._socket.fileno())])
            pass_fds = (self._socket.fileno(),)
        worker.ready.clear()
        worker.respawn_at = None
        worker.started_at = time.monotonic()
        worker.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=None,  # workers share the supervisor's stderr
            pass_fds=pass_fds,
            text=True,
        )
        pump = threading.Thread(
            target=self._pump_worker_stdout, args=(worker, worker.process),
            daemon=True,
        )
        pump.start()
        self._pumps.append(pump)

    def _pump_worker_stdout(
        self, worker: _Worker, process: subprocess.Popen
    ) -> None:
        """Forward one incarnation's stdout to stderr; detect readiness."""
        assert process.stdout is not None
        for line in process.stdout:
            line = line.rstrip("\n")
            if "service listening on" in line and not worker.ready.is_set():
                worker.ready.set()
                _stderr_line(
                    f"[supervisor] worker {worker.index} ready (pid {process.pid})"
                )
            _stderr_line(f"[worker {worker.index}] {line}")
        process.stdout.close()

    def _await_ready(self, timeout: float = READY_TIMEOUT) -> None:
        """Block until every worker has printed its readiness line."""
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not worker.ready.wait(remaining):
                raise RuntimeError(
                    f"worker {worker.index} did not become ready within "
                    f"{timeout:.0f}s"
                )

    def _heal(self) -> None:
        """Respawn dead workers (outside a drain), with backoff."""
        now = time.monotonic()
        for worker in self._workers:
            if worker.alive():
                if (
                    worker.restarts
                    and now - worker.started_at >= STABLE_UPTIME
                ):
                    worker.restarts = 0
                continue
            if worker.process is not None and worker.respawn_at is None:
                # Freshly noticed death: schedule the respawn.
                if now - worker.started_at >= STABLE_UPTIME:
                    worker.restarts = 0
                worker.restarts += 1
                self._restarts_total += 1
                delay = self.respawn_delay(worker.restarts)
                worker.respawn_at = now + delay
                _stderr_line(
                    f"[supervisor] worker {worker.index} "
                    f"(pid {worker.process.pid}) exited with "
                    f"{worker.process.returncode}; respawning in {delay:.1f}s"
                )
            if worker.respawn_at is not None and now >= worker.respawn_at:
                self._spawn(worker)

    # -- drain ----------------------------------------------------------------

    def signal_drain(self, *_args) -> None:
        """Begin the coordinated drain (signal-handler and thread safe)."""
        self._stop.set()

    def _drain(self) -> None:
        """SIGTERM every worker, await the drains, SIGKILL stragglers."""
        for worker in self._workers:
            if worker.alive():
                with _suppress_process_errors():
                    worker.process.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + self._config.drain_timeout + 5.0
        for worker in self._workers:
            if worker.process is None:
                continue
            remaining = max(0.0, deadline - time.monotonic())
            try:
                worker.process.wait(remaining)
            except subprocess.TimeoutExpired:
                with _suppress_process_errors():
                    worker.process.kill()
                with _suppress_process_errors():
                    worker.process.wait(5.0)
        for pump in self._pumps:
            pump.join(timeout=5.0)

    def _cleanup(self) -> None:
        if self._socket is not None:
            self._socket.close()
            self._socket = None
        if self._scratch_dir is not None:
            shutil.rmtree(self._scratch_dir, ignore_errors=True)
            self._scratch_dir = None

    # -- entry point -----------------------------------------------------------

    def run(self) -> int:
        """Serve until a termination signal, then drain; returns exit code.

        Installs SIGTERM/SIGINT handlers (call from the main thread) and
        blocks.  The stdout protocol is the single-worker one: first line
        ``service listening on ...``, last line
        ``service drained cleanly: N workers``.
        """
        self._bind()
        self._write_worker_config()
        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, self.signal_drain)
        try:
            for worker in self._workers:
                self._spawn(worker)
            self._await_ready()
            host, port = self.address
            print(f"service listening on http://{host}:{port}", flush=True)
            while not self._stop.wait(0.1):
                self._heal()
            self._drain()
        finally:
            for signum, handler in previous.items():
                with _suppress_process_errors():
                    signal.signal(signum, handler)
            self._cleanup()
        print(
            f"service drained cleanly: {len(self._workers)} workers",
            flush=True,
        )
        return 0


class _suppress_process_errors:
    """Context manager swallowing the errors of signalling a dead process."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return exc_type is not None and issubclass(
            exc_type,
            (ProcessLookupError, PermissionError, OSError, ValueError,
             subprocess.TimeoutExpired),
        )


def open_worker_socket(config: ServiceConfig, *, fd: Optional[int] = None,
                       reuseport: bool = False) -> socket.socket:
    """The listening socket a *worker* process should serve on.

    ``fd`` adopts an inherited descriptor (the supervisor's ``inherit``
    mode); ``reuseport`` binds a fresh ``SO_REUSEPORT`` socket to the
    configured endpoint (the ``reuseport`` mode).  Exactly one must be
    requested.
    """
    if (fd is None) == (not reuseport):
        raise ValueError("pass exactly one of fd / reuseport")
    if fd is not None:
        return socket.socket(fileno=fd)
    if not reuseport_available():
        raise RuntimeError("this platform has no SO_REUSEPORT")
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((config.host, config.port))
        sock.listen(128)
    except BaseException:
        sock.close()
        raise
    return sock
