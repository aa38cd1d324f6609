"""``python -m repro.service``: run the solver service until drained.

Binds the configured address, prints the actual listen URL (machine-parsed
by the tests and the example: keep the ``listening on`` line stable), and
serves until SIGTERM or SIGINT triggers the graceful drain -- stop
accepting, flush in-flight batches -- then exits 0.

With ``--workers N`` (N > 1) the process becomes a
:class:`~repro.service.supervisor.Supervisor` instead: it shares one
listening port across N worker processes (``SO_REUSEPORT`` where
available, an inherited descriptor elsewhere), respawns crashed workers
with backoff, and fans SIGTERM out into a coordinated drain.  The stdout
protocol is identical either way.

Examples::

    python -m repro.service --universe ABCD
    python -m repro.service --port 0 --per-client-cap 16
    python -m repro.service --workers 4 --rate-limit 50 --burst 100
    python -m repro.service --config service.json   # a ServiceConfig to_dict
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import signal
import sys

from repro.config import ConfigError, ServiceConfig
from repro.service.server import SolverService


def _parse(argv=None):
    """Parse CLI flags; returns ``(args, ServiceConfig)``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve implication queries over HTTP with batching, "
        "per-client fairness, rate limits, deadlines, metrics, and "
        "graceful drain.",
    )
    parser.add_argument("--config", help="path to a ServiceConfig JSON file")
    parser.add_argument("--host", help="listen address (default 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, help="listen port; 0 binds an ephemeral port"
    )
    parser.add_argument(
        "--universe", help="attribute names of the solver universe, e.g. ABCD"
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        help="most distinct problems in one batch; a loop turn that submits "
        "more flushes a full batch at once",
    )
    parser.add_argument(
        "--max-concurrent-batches", type=int, help="batches solving at once"
    )
    parser.add_argument(
        "--per-client-cap",
        type=int,
        help="per-client in-flight budget (429 beyond it)",
    )
    parser.add_argument(
        "--drain-timeout", type=float, help="graceful-drain budget in seconds"
    )
    parser.add_argument(
        "--checkpoint",
        choices=("auto", "on", "off"),
        help="durable chase checkpointing mode (on enables crash recovery "
        "and resume-by-token)",
    )
    parser.add_argument(
        "--checkpoint-dir", help="directory for durable chase checkpoint logs"
    )
    parser.add_argument(
        "--workers",
        type=int,
        help="worker processes sharing the listen port (default 1)",
    )
    parser.add_argument(
        "--socket-mode",
        choices=("auto", "reuseport", "inherit"),
        default="auto",
        help="how --workers share the port (default auto)",
    )
    parser.add_argument(
        "--rate-limit",
        type=float,
        help="per-client sustained requests per second (429 rate_limited "
        "beyond the burst)",
    )
    parser.add_argument(
        "--burst",
        type=int,
        help="per-client token-bucket capacity (defaults to ~1s of rate)",
    )
    parser.add_argument(
        "--default-deadline-ms",
        type=int,
        help="server-side deadline applied to every request (504 "
        "deadline_exceeded past it)",
    )
    parser.add_argument(
        "--access-log", help="path for the structured JSONL access log"
    )
    parser.add_argument(
        "--metrics-dir",
        help="directory for per-worker metrics sidecars (the aggregate "
        "/metrics view)",
    )
    # Internal flags the supervisor passes to its workers; hidden because
    # they are an implementation detail of --workers, not a user surface.
    parser.add_argument("--worker-id", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--worker-fd", type=int, help=argparse.SUPPRESS)
    parser.add_argument(
        "--worker-reuseport", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)

    if args.config:
        try:
            with open(args.config, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            parser.error(f"--config {args.config}: cannot read a JSON file: {exc}")
        if not isinstance(payload, dict):
            parser.error(
                f"--config {args.config}: expected a JSON object, "
                f"got {type(payload).__name__}"
            )
        try:
            config = ServiceConfig.from_dict(payload)
        except ConfigError as exc:
            parser.error(f"--config {args.config}: {exc}")
    else:
        config = ServiceConfig()
    overrides = {}
    if args.host is not None:
        overrides["host"] = args.host
    if args.port is not None:
        overrides["port"] = args.port
    if args.universe is not None:
        overrides["universe"] = args.universe
    if args.max_batch is not None:
        overrides["max_batch_size"] = args.max_batch
    if args.max_concurrent_batches is not None:
        overrides["max_concurrent_batches"] = args.max_concurrent_batches
    if args.per_client_cap is not None:
        overrides["per_client_in_flight"] = args.per_client_cap
    if args.drain_timeout is not None:
        overrides["drain_timeout"] = args.drain_timeout
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.worker_id is not None:
        overrides["worker_id"] = args.worker_id
    if args.rate_limit is not None:
        overrides["requests_per_second"] = args.rate_limit
    if args.burst is not None:
        overrides["burst"] = args.burst
    if args.default_deadline_ms is not None:
        overrides["default_deadline_ms"] = args.default_deadline_ms
    if args.access_log is not None:
        overrides["access_log_path"] = args.access_log
    if args.metrics_dir is not None:
        overrides["metrics_dir"] = args.metrics_dir
    if overrides:
        config = ServiceConfig.from_dict({**config.to_dict(), **overrides})
    if args.checkpoint is not None or args.checkpoint_dir is not None:
        solver = config.solver.with_checkpoint(
            args.checkpoint, directory=args.checkpoint_dir
        )
        config = ServiceConfig.from_dict(
            {**config.to_dict(), "solver": solver.to_dict()}
        )
    return args, config


def build_config(argv=None) -> ServiceConfig:
    """Parse CLI flags into a :class:`ServiceConfig` (flags beat --config)."""
    _, config = _parse(argv)
    return config


async def _serve(config: ServiceConfig, sock=None) -> None:
    """Run one (possibly supervised) worker until its graceful drain."""
    service = SolverService(config=config)
    host, port = await service.start(sock=sock)

    # Handlers go in BEFORE the listen line: the moment that line is out,
    # supervisors (and the tests) may SIGTERM us and expect a drain.
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError):  # non-POSIX loops
            loop.add_signal_handler(signum, service.signal_drain)
    print(f"service listening on http://{host}:{port}", flush=True)

    await service.serve_until_drained()

    # The drain is done and exit is imminent: ignore further termination
    # signals ourselves.  Left to asyncio.run's teardown, the handlers
    # would be restored to the *default* disposition, and a supervisor's
    # repeated SIGTERM landing during interpreter shutdown would turn a
    # clean drain into a signal death.
    for signum in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError, ValueError):
            loop.remove_signal_handler(signum)
        with contextlib.suppress(OSError, ValueError):
            signal.signal(signum, signal.SIG_IGN)
    stats = service.solver.stats
    print(
        f"service drained cleanly: {stats.problems} problems, "
        f"{stats.cache_hits} cache hits, {stats.solved} solved",
        flush=True,
    )


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    args, config = _parse(argv)
    worker_mode = args.worker_fd is not None or args.worker_reuseport
    if config.workers > 1 and not worker_mode:
        from repro.service.supervisor import Supervisor

        return Supervisor(config, socket_mode=args.socket_mode).run()
    sock = None
    if worker_mode:
        from repro.service.supervisor import open_worker_socket

        sock = open_worker_socket(
            config, fd=args.worker_fd, reuseport=args.worker_reuseport
        )
    try:
        asyncio.run(_serve(config, sock=sock))
    except KeyboardInterrupt:
        # SIGINT before the handler was installed; nothing was serving yet.
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
