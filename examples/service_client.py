"""The solver service, end to end: spawn it, query it, drain it.

This example drives a *real* ``python -m repro.service`` subprocess over
HTTP -- exactly what a deployment does, scaled down to one script:

1. spawn the service on an ephemeral port and parse its ``listening on``
   line for the address;
2. check ``/healthz``, then push a burst of implication queries (with
   repeats, so the request coalescer and the outcome cache both earn
   their keep) through :class:`~repro.service.ServiceClient`;
3. read the batching/dedup story back from ``/metrics``;
4. SIGTERM the service and show the graceful-drain summary it prints.

Run with::

    PYTHONPATH=src python examples/service_client.py
"""

import os
import re
import signal
import subprocess
import sys

from repro.service import ServiceClient

UNIVERSE = "ABCD"

QUERIES = [
    (["A -> B", "B -> C"], "A -> C"),  # transitivity: implied
    (["A -> B", "B -> C"], "A ->> C"),  # fd weakens to mvd: implied
    (["A ->> B"], "A -> B"),  # mvd does not strengthen: refuted
    (["A ->> B", "B ->> C"], "A ->> C"),  # mvd transitivity: implied
    (["AB -> C", "C -> D"], "AB -> D"),  # compound lhs: implied
]


def spawn_service() -> subprocess.Popen:
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service",
            "--port",
            "0",
            "--universe",
            UNIVERSE,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def wait_for_address(process: subprocess.Popen):
    """The ``listening on`` line is the service's stable readiness contract."""
    while True:
        line = process.stdout.readline()
        if not line:
            raise RuntimeError("service exited before announcing its address")
        match = re.search(r"listening on http://([^:]+):(\d+)", line)
        if match:
            return match.group(1), int(match.group(2))


def main() -> None:
    process = spawn_service()
    try:
        host, port = wait_for_address(process)
        print(f"service up at http://{host}:{port}")

        with ServiceClient(host, port, client_id="example") as client:
            health = client.health()
            print(f"healthz: {health['status']} (schema v{health['schema']})")

            print(f"\nquery burst ({len(QUERIES)} distinct, x3 repeats):")
            for premises, conclusion in QUERIES * 3:
                outcome = client.solve(premises, conclusion)
                joined = ", ".join(premises)
                print(f"  {joined:28} |= {conclusion:10} -> {outcome['verdict']}")

            metrics = client.metrics()
            coalescer = metrics["coalescer"]
            solver = metrics["solver"]
            print("\nwhat the service did with that burst:")
            print(
                f"  submitted={coalescer['submitted']}"
                f" batches={coalescer['batches']}"
                f" largest_batch={coalescer['largest_batch']}"
            )
            print(
                f"  solved={solver['solved']} cache_hits={solver['cache_hits']}"
                f" hit_rate={solver['hit_rate']:.2f}"
            )

        print("\nSIGTERM -> graceful drain:")
        process.send_signal(signal.SIGTERM)
        stdout, _ = process.communicate(timeout=30)
        for line in stdout.splitlines():
            print(f"  {line}")
        print(f"service exited {process.returncode}")
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()


if __name__ == "__main__":
    main()
