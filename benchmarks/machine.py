"""The machine stamp every committed ``BENCH_*.json`` report carries."""

import os
import platform
import subprocess


def machine_stamp():
    """The machine a report was measured on: CPUs, Python and commit."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit or None,
    }
