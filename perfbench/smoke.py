"""Smoke test of the benchmark itself: every workload, tiny, both modes.

Run from the root of a source checkout::

    python3 perfbench/smoke.py

For each workload it runs ``run.py --tiny`` untraced and traced and
asserts that the result is correct, that the emitted metric names are
exactly the ``end_to_end`` / ``per_layer`` names of ``BENCHMARK.json``
and match ``[A-Za-z0-9_.-]+``, and that the traced layer self times plus
``trace.unattributed_ms`` add up to ``trace.latency_ms``.  Last, it checks
that the benchmark refuses to run, without printing a result, in a
directory that holds only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import SELF_TIMES, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(root: str, workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join("perfbench", "run.py"),
            "--workload", workload,
            "--seed", "1",
            "--seconds", "1",
            "--trace", str(trace),
            "--tiny",
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def check_names(result: dict, expected) -> None:
    names = set(result["metrics"])
    assert names == set(expected), sorted(names ^ set(expected))
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert math.isfinite(metric["value"]), (name, metric)


def check_accounting(metrics: dict) -> None:
    total = sum(metrics[name]["value"] for name in SELF_TIMES)
    total += metrics["trace.unattributed_ms"]["value"]
    latency = metrics["trace.latency_ms"]["value"]
    assert math.isclose(total, latency, rel_tol=1e-9, abs_tol=1e-9), (total, latency)


def check_refuses_without_source(root: str) -> None:
    bare = os.path.join(root, ".perfbench_run", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(
            HERE,
            os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        completed = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
             "chase_cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert completed.returncode != 0, completed.stdout
        assert '"metrics"' not in completed.stdout, completed.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    end_to_end = [metric["name"] for metric in spec["end_to_end"]]
    per_layer = [metric["name"] for metric in spec["per_layer"]]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        check_names(run(root, workload, 0), end_to_end)
        traced = run(root, workload, 1)
        check_names(traced, per_layer)
        check_accounting(traced["metrics"])
        print(f"ok {workload}", flush=True)
    check_refuses_without_source(root)
    print("ok refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
