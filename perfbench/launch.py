"""Run ``python -m repro.service`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/launch.py <repro.service flags>``.  With
``PERFBENCH_TRACE_DIR`` set, the layer wrappers of :mod:`trace` go in
before the service starts and every span is written to
``$PERFBENCH_TRACE_DIR/spans-<pid>.json`` when the process exits.  Under
``--workers N`` the supervisor spawns its workers through this launcher
too, so every worker records its own spans.
"""

from __future__ import annotations

import atexit
import os
import subprocess
import sys
import types

import spans

LAUNCHER = os.path.abspath(__file__)


def _spawn_workers_through_launcher() -> None:
    """Make the supervisor start ``launch.py`` instead of ``-m repro.service``."""
    from repro.service import supervisor

    def popen(command, *args, **kwargs):
        if list(command[1:3]) == ["-m", "repro.service"]:
            command = [command[0], LAUNCHER, *command[3:]]
        return subprocess.Popen(command, *args, **kwargs)

    supervisor.subprocess = types.SimpleNamespace(
        **{**vars(subprocess), "Popen": popen}
    )


def main(argv) -> int:
    out_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    if out_dir:
        from repro.chase.checkpoint import checkpoint_counters

        tracer = spans.Tracer()
        spans.install(tracer)
        _spawn_workers_through_launcher()

        def dump() -> None:
            tracer.dump(
                os.path.join(out_dir, f"spans-{os.getpid()}.json"),
                checkpoint=checkpoint_counters().to_dict(),
                checkpoint_bytes=tracer.checkpoint_bytes,
            )

        atexit.register(dump)
    from repro.service.__main__ import main as service_main

    return service_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
