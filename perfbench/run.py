"""End-to-end benchmark of the solver: one command, three workloads.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload service_hot --seed 1 --seconds 20 --trace 0

Workloads (``workloads.json`` records why each exists and what it covers):

* ``service_hot`` -- a live ``python -m repro.service`` (1 worker, shipped
  defaults) answering a Zipf-skewed pool of small queries, nearly all
  store hits;
* ``chase_cold`` -- in-process ``Solver.solve_many([p])`` calls on a cold
  solver: Lemma 10 mvd chains, encoded word problems, successor chains;
* ``fleet_renamed`` -- ``python -m repro.service --workers 2`` with a
  shared file store, canonical identity, checkpointing and metrics
  sidecars, asked by two tenants under their own attribute renamings.

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs the workload untraced and then traced (layer wrappers
from :mod:`spans`, the service's access log) and reports the per-layer
metrics.  Every answer is checked; the last stdout line is one JSON
object, and the exit code is non-zero when any answer was wrong.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import http.client
import json
import os
import pickle
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launch.py")

#: Environment overrides that would change what is measured; stripped from
#: this process and every child.
STRIPPED_ENV = ("REPRO_CHASE_KERNEL", "REPRO_CACHE_MODE", "REPRO_CHECKPOINT")

#: Set-ups at each end of an untraced run; ``setup_s`` is the fastest of
#: them, so a slow phase of the host at one end does not set it.
SETUP_REPEATS = 3
COLD_SETUP_REPEATS = 5

#: ``chase_cold`` solves every problem at least this often and reports
#: each problem's fastest pass.  A pass takes about 10 s on a 2-vCPU host
#: (two successor chains are 6 s of it), so this sets the run's length.
COLD_MIN_PASSES = 3

#: Closed-loop clients (at most the 2 CPUs of the reference box).
CLIENTS = 2

#: ``fleet_renamed``: a tenant asks the twin of the other tenant's class
#: opened this many of its steps earlier, and reconnects this often.
FLEET_STAGGER = 2
FLEET_RECONNECT = 2

HEADERS = {"Content-Type": "application/json"}

END_TO_END = (
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("cpu_ms_per_query", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: Per-layer self times; with ``trace.unattributed_ms`` they sum to
#: ``trace.latency_ms``, the traced per-query latency.
SELF_TIMES = (
    "service.http_ms",
    "service.protocol_ms",
    "service.coalescer.queue_ms",
    "service.coalescer.dispatch_ms",
    "api.dsl.parse_ms",
    "api.identity_ms",
    "model.canon_ms",
    "api.batch_ms",
    "api.store.get_ms",
    "api.store.put_ms",
    "implication.engine_ms",
    "implication.normalize_ms",
    "implication.finite_search_ms",
    "chase.run_ms",
)

PER_LAYER = (
    *((name, "ms") for name in SELF_TIMES),
    ("service.coalescer.batch_size", "count"),
    ("service.coalescer.joined_share", "ratio"),
    ("service.rejected_share", "ratio"),
    ("api.store.hit_rate", "ratio"),
    ("api.batch.solved_share", "ratio"),
    ("implication.route.fd_closure_share", "ratio"),
    ("implication.route.full_fragment_share", "ratio"),
    ("implication.route.chase_share", "ratio"),
    ("implication.route.finite_search_share", "ratio"),
    ("chase.run_ms.mvd_chain", "ms"),
    ("chase.run_ms.semigroup", "ms"),
    ("chase.run_ms.successor", "ms"),
    ("chase.steps", "count"),
    ("chase.rounds", "count"),
    ("chase.rows", "count"),
    ("chase.us_per_step", "us"),
    ("chase.us_per_round", "us"),
    ("chase.budget_exhausted_share", "ratio"),
    ("chase.checkpoint.bytes_per_query", "B"),
    ("chase.checkpoint.logs_written", "count"),
    ("trace.latency_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


# -- small helpers ----------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _proc_stat(pid: int):
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        return handle.read().rpartition(")")[2].split()


def cpu_seconds(pids) -> float:
    """User plus system CPU seconds of the given processes."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in pids:
        fields = _proc_stat(pid)
        total += int(fields[11]) + int(fields[12])
    return total / ticks


def children_of(pid: int):
    """Pids whose parent is ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if int(_proc_stat(int(entry))[1]) == pid:
                    found.append(int(entry))
            except (OSError, IndexError, ValueError):
                continue
    return found


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def source_digest(src: str) -> str:
    """A digest of every file under ``src``: the checkout has no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, src).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def environment_stamp(root: str, workload: str) -> dict:
    """The machine, the source, and what the workload's solver resolves to."""
    from repro.chase.kernel import resolve_kernel
    from repro.config import CacheConfig, ChaseBudget

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except OSError:
            pass
    chase = ChaseBudget()
    if workload == "fleet_renamed":
        cache = CacheConfig(mode="canonical", store="shared")
    else:
        cache = CacheConfig()
    return {
        "workload": workload,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "src_digest": source_digest(os.path.join(root, "src")),
        "strategy": chase.resolved_strategy(),
        "kernel": resolve_kernel(chase.chase_kernel) or "off",
        "cache_mode": cache.resolved_mode(),
        "store": cache.resolved_store(),
    }


# -- the HTTP client side -----------------------------------------------------------


class Sample:
    """One request as the client saw it."""

    __slots__ = ("start", "end", "status", "body", "expect", "rid")

    def __init__(self, start, end, status, body, expect, rid) -> None:
        self.start = start
        self.end = end
        self.status = status
        self.body = body
        self.expect = expect
        self.rid = rid


class Connection:
    """One keep-alive connection that reopens after errors."""

    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._port = port
        self._conn = None

    def post(self, body: bytes):
        if self._conn is None:
            self._conn = http.client.HTTPConnection(self._host, self._port, timeout=120)
        try:
            self._conn.request("POST", "/v1/solve", body, HEADERS)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def get(self, path: str) -> dict:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(self._host, self._port, timeout=120)
        self._conn.request("GET", path)
        return json.loads(self._conn.getresponse().read())

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def request_body(query, rid=None) -> bytes:
    from repro.service import protocol

    return protocol.dumps(
        protocol.SolveRequest(
            premises=tuple(query.premises),
            conclusion=query.conclusion,
            finite=query.finite,
            client="bench",
            id=rid,
        ).to_dict()
    )


def exchange(connection: Connection, body: bytes, expect, rid, samples) -> None:
    start = time.perf_counter()
    status, data = connection.post(body)
    samples.append(Sample(start, time.perf_counter(), status, data, expect, rid))


def run_threads(targets) -> None:
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


# -- the service process ------------------------------------------------------------

#: Services started and not yet stopped; ``main`` stops any left on its way out.
LIVE_SERVICES = []


class Service:
    """A ``python -m repro.service`` child (or the tracing launcher)."""

    def __init__(self, flags, env, log_path: str, traced: bool) -> None:
        if traced:
            command = [sys.executable, LAUNCHER, *flags]
        else:
            command = [sys.executable, "-m", "repro.service", *flags]
        self._log = open(log_path, "ab")
        start = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, env=env, text=True
        )
        LIVE_SERVICES.append(self)
        line = self.process.stdout.readline()
        self.setup_s = time.perf_counter() - start
        match = re.search(r"listening on http://([^:]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"the service did not start (see {log_path})")
        self.host, self.port = match.group(1), int(match.group(2))

    def serving_pids(self):
        """The processes that answer requests: the workers, or the service."""
        return children_of(self.process.pid) or [self.process.pid]

    def tree_pids(self):
        return [self.process.pid, *children_of(self.process.pid)]

    def stop(self) -> None:
        """Drain through SIGTERM; kill the whole tree if that hangs."""
        pids = self.tree_pids() if self.process.poll() is None else []
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=90)
        except subprocess.TimeoutExpired:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            self.process.communicate()
        self._log.close()
        LIVE_SERVICES.remove(self)


def metrics_batch_totals(connection: Connection):
    """``(count, sum)`` of the coalesced batch-size histogram, fleet-wide."""
    payload = connection.get("/metrics")
    metrics = payload.get("workers", {}).get("metrics") or payload["metrics"]
    histogram = metrics.get("batch_size", {})
    return histogram.get("count", 0), histogram.get("sum", 0.0)


# -- workload: service_hot -------------------------------------------------------------


class Context:
    """Paths and environment shared by one benchmark run."""

    def __init__(self, work: str, env: dict, seed: int, seconds: float, tiny: bool,
                 trace_dir=None) -> None:
        self.work = work
        self.trace_dir = trace_dir
        self.env = env
        self.seed = seed
        self.seconds = seconds
        self.tiny = tiny
        self._serial = 0

    def path(self, name: str) -> str:
        """A fresh path under the run's scratch directory."""
        self._serial += 1
        return os.path.join(self.work, f"{self._serial}-{name}")

    def directory(self, name: str) -> str:
        path = self.path(name)
        os.makedirs(path)
        return path


def start_services(ctx: Context, flags_for, repeats: int, traced: bool, trace_dir=None):
    """Start the service ``repeats`` times; keep the last, return all set-up times."""
    env = dict(ctx.env)
    if traced:
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    setups = []
    service = None
    for attempt in range(repeats):
        service = Service(flags_for(), env, ctx.path("service.log"), traced)
        setups.append(service.setup_s)
        if attempt < repeats - 1:
            service.stop()
    return service, setups


def setup_probes(ctx: Context, flags_for, repeats: int) -> list:
    """Set-up times of ``repeats`` more untraced starts, each stopped at once.

    Taken after the measured window, so that ``setup_s`` samples both ends
    of the run and not only one slow phase of the host.
    """
    service, setups = start_services(ctx, flags_for, repeats, False)
    service.stop()
    return setups


def hot_inputs(ctx: Context):
    from repro.api import Solver
    from repro.service import protocol

    rng = random.Random(ctx.seed)
    pool = workloads.hot_pool(rng)
    if ctx.tiny:
        pool = pool[:20]
    solver = Solver(universe=workloads.HOT_UNIVERSE)
    outcomes = [
        solver.solve_many(
            [solver.problem(list(q.premises), q.conclusion, finite=q.finite)]
        )[0]
        for q in pool
    ]
    draws = [
        workloads.zipf_draws(rng, len(pool), int(ctx.seconds * 1000) + 500)
        for _ in range(CLIENTS)
    ]
    expected = [protocol.dumps(protocol.success_response(o)) for o in outcomes]
    return pool, outcomes, expected, draws


def hot_phase(ctx: Context, inputs, traced: bool, repeats: int):
    """One service lifecycle: start, warm, measure, stop."""
    from repro.service import protocol

    pool, outcomes, expected, draws = inputs
    trace_dir = ctx.trace_dir if traced else None
    access_log = os.path.join(trace_dir, "access.jsonl") if traced else None

    def flags():
        extra = ["--access-log", access_log] if traced else []
        return ["--port", "0", "--universe", workloads.HOT_UNIVERSE, *extra]

    service, setups = start_services(ctx, flags, repeats, traced, trace_dir)
    try:
        warm_samples = []
        warm = Connection(service.host, service.port)
        for index, query in enumerate(pool):
            rid = f"w{index}" if traced else None
            exchange(warm, request_body(query, rid), index, rid, warm_samples)
        batches_before = metrics_batch_totals(warm)
        bodies = [request_body(query) for query in pool]
        per_client = [[] for _ in range(CLIENTS)]
        pids = service.tree_pids()
        cpu_before = cpu_seconds(pids)
        deadline = time.perf_counter() + ctx.seconds

        def client(index):
            connection = Connection(service.host, service.port)
            samples = per_client[index]
            for step, pick in enumerate(draws[index]):
                if time.perf_counter() >= deadline:
                    break
                rid = f"c{index}-{step}" if traced else None
                body = request_body(pool[pick], rid) if traced else bodies[pick]
                exchange(connection, body, pick, rid, samples)
            connection.close()

        run_threads([lambda i=i: client(i) for i in range(CLIENTS)])
        cpu = cpu_seconds(pids) - cpu_before
        rss = max(peak_rss_mb(pid) for pid in service.serving_pids())
        batches_after = metrics_batch_totals(warm)
        warm.close()
    finally:
        service.stop()
    if repeats > 1:
        setups += setup_probes(ctx, flags, repeats)
    samples = [s for group in per_client for s in group]

    def reference(sample):
        if sample.rid is None:
            return expected[sample.expect]
        return protocol.dumps(protocol.success_response(outcomes[sample.expect], sample.rid))

    return {
        "samples": samples,
        "warm": warm_samples,
        "reference": reference,
        "cpu_s": cpu,
        "rss_mb": rss,
        "setups": setups,
        "batches": (batches_before, batches_after),
        "trace_dir": trace_dir,
        "access_log": access_log,
    }


# -- workload: fleet_renamed ------------------------------------------------------------


#: Reads a pickled list of queries on stdin, writes their pickled cold outcomes.
SOLVE_COLD_SCRIPT = (
    "import pickle, sys, workloads; "
    "sys.stdout.buffer.write(pickle.dumps(workloads.solve_cold(pickle.load(sys.stdin.buffer))))"
)


def solve_cold_in_children(ctx: Context, shares):
    """``workloads.solve_cold`` of each share, one plain child process per share.

    Plain ``Popen`` children rather than a ``multiprocessing`` pool: a pool
    starts a resource-tracker process that nothing waits for, which would
    outlive the benchmark.  Every child here is waited for before returning.
    """
    env = dict(ctx.env)
    env["PYTHONPATH"] = os.pathsep.join((env["PYTHONPATH"], HERE))
    children = []
    try:
        for share in shares:
            path = ctx.path("reference.pickle")
            with open(path, "wb") as handle:
                pickle.dump(list(share), handle)
            with open(path, "rb") as stdin:
                children.append(
                    subprocess.Popen(
                        [sys.executable, "-c", SOLVE_COLD_SCRIPT],
                        stdin=stdin, stdout=subprocess.PIPE, env=env,
                    )
                )
        results = []
        for child in children:
            out, _err = child.communicate(timeout=150)
            if child.returncode != 0:
                raise RuntimeError(f"the reference solve exited with {child.returncode}")
            results.append(pickle.loads(out))
        return results
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()


def fleet_phase(ctx: Context, traced: bool, repeats: int):
    from repro.service import protocol

    rng = random.Random(ctx.seed)
    permutations = workloads.tenant_permutations(rng)
    budget = 40 if ctx.tiny else int(ctx.seconds * 30) + 100
    classes = workloads.fleet_classes(budget + 8)
    warm_classes, classes = classes[:8], classes[8:]
    trace_dir = ctx.trace_dir if traced else None
    access_log = os.path.join(trace_dir, "access.jsonl") if traced else None

    def flags():
        config_path = ctx.path("fleet-config.json")
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "solver": {
                        "cache": {
                            "mode": "canonical",
                            "store": "shared",
                            "shared_path": ctx.directory("store"),
                        }
                    }
                },
                handle,
            )
        extra = ["--access-log", access_log] if traced else []
        return [
            "--config", config_path,
            "--port", "0",
            "--workers", "2",
            "--universe", workloads.FLEET_UNIVERSE,
            "--checkpoint", "on",
            "--checkpoint-dir", ctx.directory("checkpoints"),
            "--metrics-dir", ctx.directory("metrics"),
            *extra,
        ]

    service, setups = start_services(ctx, flags, repeats, traced, trace_dir)
    answered = [threading.Event() for _ in classes]
    per_tenant = [[] for _ in range(CLIENTS)]
    ran_out = []
    try:
        warm_samples = []
        for index, query in enumerate(warm_classes):
            rid = f"w{index}" if traced else None
            connection = Connection(service.host, service.port)
            exchange(connection, request_body(query, rid), ("warm", index), rid, warm_samples)
            connection.close()
        probe = Connection(service.host, service.port)
        batches_before = metrics_batch_totals(probe)
        pids = service.tree_pids()
        cpu_before = cpu_seconds(pids)
        deadline = time.perf_counter() + ctx.seconds

        def tenant(me):
            other = 1 - me
            connection = Connection(service.host, service.port)
            samples = per_tenant[me]
            opened = 0
            step = 0
            while time.perf_counter() < deadline:
                twin_of = step // 2 - FLEET_STAGGER
                if step % 2 and twin_of >= 0:
                    index = 2 * twin_of + other
                    role = "twin"
                else:
                    index = 2 * opened + me
                    role = "opener"
                    opened += 1
                if index >= len(classes):
                    ran_out.append(me)
                    break
                # A twin goes out only once its opener has been answered, so
                # it is always a hit on the entry the opener's solve stored.
                patience = max(0.0, deadline - time.perf_counter()) + 5
                if role == "twin" and not answered[index].wait(patience):
                    break
                rid = f"t{me}-{step}" if traced else None
                query = workloads.rename_text(classes[index], permutations[me])
                exchange(connection, request_body(query, rid), (role, index), rid, samples)
                if role == "opener":
                    answered[index].set()
                step += 1
                if step % FLEET_RECONNECT == 0:
                    connection.close()
            connection.close()

        run_threads([lambda i=i: tenant(i) for i in range(CLIENTS)])
        cpu = cpu_seconds(pids) - cpu_before
        rss = max(peak_rss_mb(pid) for pid in service.serving_pids())
        time.sleep(0.2)  # the workers' metrics sidecars flush every 50 ms
        batches_after = metrics_batch_totals(probe)
        probe.close()
    finally:
        service.stop()
    if repeats > 1:
        setups += setup_probes(ctx, flags, repeats)
    samples = [s for group in per_tenant for s in group]

    # The reference: one cold in-process solve of each class as its opener
    # asked it; the renamed twin must come back with the same bytes, since
    # a canonical hit serves the entry the opener's solve stored.  It is
    # computed after the measured window (only the classes reached need
    # one), split over CLIENTS processes.
    keys = [("warm", index) for index in range(len(warm_classes))]
    queries = list(warm_classes)
    for index in sorted({s.expect[1] for s in samples if s.expect[0] != "warm"}):
        keys.append(("class", index))
        queries.append(workloads.rename_text(classes[index], permutations[index % 2]))
    shares = solve_cold_in_children(ctx, [queries[i::CLIENTS] for i in range(CLIENTS)])
    outcomes = {}
    for i, share in enumerate(shares):
        outcomes.update(zip(keys[i::CLIENTS], share))

    def reference(sample):
        key = ("warm", sample.expect[1]) if sample.expect[0] == "warm" else (
            "class", sample.expect[1])
        return protocol.dumps(protocol.success_response(outcomes[key], sample.rid))

    return {
        "samples": samples,
        "warm": warm_samples,
        "reference": reference,
        "cpu_s": cpu,
        "rss_mb": rss,
        "setups": setups,
        "batches": (batches_before, batches_after),
        "trace_dir": trace_dir,
        "access_log": access_log,
        "ran_out": bool(ran_out),
    }


# -- service metrics -----------------------------------------------------------------------


def check_samples(phase):
    """``(attempted, failed, mismatches)`` over warm-up and measured samples.

    A request fails when it is refused or errors (any status but 200) or
    when its bytes differ from the reference's.
    """
    failed = 0
    mismatches = []
    everything = phase["warm"] + phase["samples"]
    for sample in everything:
        if sample.status != 200 or sample.body != phase["reference"](sample):
            failed += 1
            if len(mismatches) < 5:
                mismatches.append(
                    f"status {sample.status} for {sample.expect}: {sample.body[:160]!r}"
                )
    return len(everything), failed, mismatches


def service_end_to_end(phase):
    samples = phase["samples"]
    answered = sum(1 for s in samples if s.status == 200)
    wall = max(s.end for s in samples) - min(s.start for s in samples)
    latencies = [(s.end - s.start) * 1e3 for s in samples]
    return {
        "throughput_qps": answered / wall,
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p90_ms": percentile(latencies, 0.90),
        "latency_p99_ms": percentile(latencies, 0.99),
        "cpu_ms_per_query": phase["cpu_s"] * 1e3 / answered,
        "peak_rss_mb": phase["rss_mb"],
        "setup_s": min(phase["setups"]),
    }, len(samples)


def load_dumps(trace_dir: str):
    dumps = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.json"))):
        with open(path, encoding="utf-8") as handle:
            dumps.append(json.load(handle))
    return dumps


def read_access_log(pattern: str):
    records = {}
    for path in glob.glob(pattern + "*"):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if "request_id" in record:
                    records[record["request_id"]] = record
    return records


class LayerSums:
    """Per-layer totals accumulated over the spans of a traced phase."""

    def __init__(self) -> None:
        self.ms = defaultdict(float)
        self.family_ms = defaultdict(float)
        self.store_gets = self.store_hits = 0
        self.batch_problems = self.batch_solved = 0
        self.routes = defaultdict(int)
        self.chase_runs = self.steps = self.rounds = self.rows = self.exhausted = 0
        self.chase_s = 0.0
        self.checkpoint_bytes = self.logs_written = 0

    def add_span(self, span, own_s, weight=1.0, family=None) -> None:
        _span_id, _parent, name, _query, _start, _end, info = span
        metric = spans.LAYER_OF[name]
        self.ms[metric] += own_s * 1e3 * weight
        if name == "chase.run":
            self.chase_s += own_s
            self.chase_runs += 1
            self.steps += info.get("steps", 0)
            self.rounds += info.get("rounds", 0)
            self.rows += info.get("rows", 0)
            self.exhausted += bool(info.get("exhausted"))
            if family is not None:
                self.family_ms[family] += own_s * 1e3
        elif name == "api.store.get":
            self.store_gets += 1
            self.store_hits += bool(info.get("hit"))
        elif name == "api.batch":
            self.batch_problems += info.get("problems", 0)
            self.batch_solved += info.get("solved", 0)

    def add_solve(self, route: str) -> None:
        self.routes[route] += 1

    def metrics(self, queries: int, latency_ms: float) -> dict:
        solves = sum(self.routes.values())
        values = {name: self.ms[name] / queries for name in SELF_TIMES}
        values.update(
            {
                "api.store.hit_rate": _ratio(self.store_hits, self.store_gets),
                "api.batch.solved_share": _ratio(self.batch_solved, self.batch_problems),
                "chase.steps": _ratio(self.steps, self.chase_runs),
                "chase.rounds": _ratio(self.rounds, self.chase_runs),
                "chase.rows": _ratio(self.rows, self.chase_runs),
                "chase.us_per_step": _ratio(self.chase_s * 1e6, self.steps),
                "chase.us_per_round": _ratio(self.chase_s * 1e6, self.rounds),
                "chase.budget_exhausted_share": _ratio(self.exhausted, self.chase_runs),
                "chase.checkpoint.bytes_per_query": self.checkpoint_bytes / queries,
                "chase.checkpoint.logs_written": self.logs_written,
                "trace.latency_ms": latency_ms,
                "trace.unattributed_ms": latency_ms
                - sum(values[name] for name in SELF_TIMES),
            }
        )
        for family in ("mvd_chain", "semigroup", "successor"):
            values[f"chase.run_ms.{family}"] = self.family_ms[family] / queries
        for route in ("fd_closure", "full_fragment", "chase", "finite_search"):
            values[f"implication.route.{route}_share"] = _ratio(self.routes[route], solves)
        return values


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def service_layers(phase, untraced_qps: float):
    """Per-layer metrics of a traced service phase.

    Each measured request's client round trip splits into:

    * ``service.http_ms``: the round trip minus the access log's
      ``latency_s`` and minus the response's ``dumps`` span, which runs
      after ``latency_s`` is taken;
    * the request's own spans on the event loop (decode, parse, identity,
      canon, success_response, dumps), found by the request id that the
      ``decode_request`` wrapper puts on them;
    * ``service.coalescer.queue_ms``: the access log's ``queue_s``;
    * ``service.coalescer.dispatch_ms``: ``solve_s`` minus the in-thread
      ``solve_many`` span of the request's batch;
    * the spans under that ``solve_many`` (store, implication, chase),
      counted once for every measured request the batch served, since each
      of them waited for all of it.

    What is left of ``latency_s`` is ``trace.unattributed_ms``.  A batch's
    spans carry the id of the request whose context opened the batch, and
    the access log maps that id to the ``(worker, batch_id)`` all of the
    batch's requests report.
    """

    measured = {s.rid: s for s in phase["samples"] if s.status == 200}
    access = read_access_log(phase["access_log"])
    sums = LayerSums()
    batch_of = {}  # (worker, batch_id) -> the batch span and its process's index
    request_spans = []
    for dump in load_dumps(phase["trace_dir"]):
        spans_list = [tuple(span) for span in dump["spans"]]
        own, children = spans.self_times(spans_list)
        by_id = {span[0]: span for span in spans_list}
        in_batch = set()
        for span in spans_list:
            if span[2] == "api.batch":
                members = spans.subtree(span[0], children)
                in_batch.update(members)
                opener = access.get(span[3])
                if opener is not None:
                    key = (opener["worker"], opener["batch_id"])
                    batch_of[key] = (span, members, by_id, own, children)
        request_spans += [
            (span, own[span[0]])
            for span in spans_list
            if span[0] not in in_batch and span[3] in measured
        ]
        sums.checkpoint_bytes += dump.get("checkpoint_bytes", 0)
        sums.logs_written += dump.get("checkpoint", {}).get("logs_written", 0)

    dumps_ms = defaultdict(float)
    for span, own_s in request_spans:
        sums.add_span(span, own_s)
        if span[2] == "service.protocol.dumps":
            dumps_ms[span[3]] += own_s * 1e3
    waiters = defaultdict(int)
    http = queue = dispatch = 0.0
    joined = 0
    for rid, sample in measured.items():
        record = access[rid]
        http += (sample.end - sample.start - record["latency_s"]) * 1e3 - dumps_ms[rid]
        queue += record.get("queue_s", 0.0) * 1e3
        joined += record.get("join") in ("window", "in_flight")
        key = (record["worker"], record.get("batch_id"))
        if key in batch_of:
            waiters[key] += 1
            batch = batch_of[key][0]
            dispatch += (record["solve_s"] - (batch[5] - batch[4])) * 1e3
    for key, weight in waiters.items():
        _batch, members, by_id, own, children = batch_of[key]
        for member in members:
            sums.add_span(by_id[member], own[member], weight)
            if by_id[member][2] == "implication.engine":
                sums.add_solve(spans.route_of(spans.subtree(member, children), by_id))

    queries = len(measured)
    sums.ms["service.http_ms"] = http
    sums.ms["service.coalescer.queue_ms"] = queue
    sums.ms["service.coalescer.dispatch_ms"] = dispatch
    traced_latency = statistics.fmean(
        (s.end - s.start) * 1e3 for s in measured.values()
    )
    values = sums.metrics(queries, traced_latency)
    (count0, sum0), (count1, sum1) = phase["batches"]
    attempted = len(phase["samples"])
    rejected = sum(1 for s in phase["samples"] if s.status in (429, 503, 504))
    traced_qps = service_end_to_end(phase)[0]["throughput_qps"]
    values.update(
        {
            "service.coalescer.batch_size": _ratio(sum1 - sum0, count1 - count0),
            "service.coalescer.joined_share": joined / queries,
            "service.rejected_share": rejected / attempted,
            "trace.overhead_pct": (untraced_qps - traced_qps) / untraced_qps * 100,
        }
    )
    return values


def run_service(ctx: Context, workload: str, traced: bool):
    if workload == "service_hot":
        inputs = hot_inputs(ctx)

        def phase(traced_phase, repeats):
            return hot_phase(ctx, inputs, traced_phase, repeats)
    else:

        def phase(traced_phase, repeats):
            return fleet_phase(ctx, traced_phase, repeats)

    untraced = phase(False, 1 if traced else SETUP_REPEATS)
    phases = [untraced]
    end_to_end, samples = service_end_to_end(untraced)
    if traced:
        traced_phase = phase(True, 1)
        phases.append(traced_phase)
        metrics = service_layers(traced_phase, end_to_end["throughput_qps"])
        samples = len(traced_phase["samples"])
    else:
        metrics = end_to_end
    attempted = failed = 0
    notes = []
    for each in phases:
        each_attempted, each_failed, mismatches = check_samples(each)
        attempted += each_attempted
        failed += each_failed
        notes += [f"wrong answer: {mismatch}" for mismatch in mismatches]
        if each.get("ran_out"):
            notes.append("note: the fleet ran out of prepared classes early")
    return metrics, samples, attempted, failed, notes


# -- workload: chase_cold ----------------------------------------------------------------


def cold_setup_s(ctx: Context) -> list:
    """Interpreter start, ``import repro.api`` and ``Solver()``, in a fresh process."""
    script = "import repro.api; repro.api.Solver(); print('ready', flush=True)"
    times = []
    for _ in range(COLD_SETUP_REPEATS):
        start = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, env=ctx.env, text=True
        )
        try:
            line = process.stdout.readline()
            times.append(time.perf_counter() - start)
            process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
            process.wait()
        if line.strip() != "ready":
            raise RuntimeError("the set-up probe failed")
    return times


def cold_pass_loop(ctx: Context, queries, min_passes: int, seconds: float):
    """Whole passes, at least ``min_passes`` and until ``seconds`` have
    elapsed; a fresh Solver per pass, so every pass solves cold.

    Returns the per-execution records, the wrong answers, and for each
    problem its fastest latency and CPU time over the passes (best of N,
    as ``timeit`` reports).  A shared host has slow phases that last
    seconds, long enough to slow a whole pass, so a median over a few
    passes still carries them; the fastest pass of each problem is the
    one least disturbed.
    """
    from repro.api import Solver
    from repro.model.attributes import Universe

    records = []  # (qid, latency_s, query)
    answers = []  # (query, problem, outcome), checked after the clock stops
    timings = [[] for _ in queries]  # per problem: (latency_s, cpu_s) per pass
    started = time.perf_counter()
    qid = passes = 0
    while passes < min_passes or time.perf_counter() - started < seconds:
        solvers = {}
        for index, query in enumerate(queries):
            solver = solvers.get(query.universe)
            if solver is None:
                solver = solvers[query.universe] = Solver(
                    universe=Universe(list(query.universe))
                )
            problem = query.build(solver)
            qid += 1
            token = spans.QUERY.set(qid)
            cpu_start = time.process_time()
            start = time.perf_counter()
            outcome = solver.solve_many([problem])[0]
            latency = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
            spans.QUERY.reset(token)
            records.append((qid, latency, query))
            answers.append((query, problem, outcome))
            timings[index].append((latency, cpu))
        passes += 1
    errors = [workloads.check_cold(*answer) for answer in answers]
    best = [(min(t[0] for t in each), min(t[1] for t in each)) for each in timings]
    return records, [error for error in errors if error is not None], best


def run_chase_cold(ctx: Context, traced: bool):
    queries = workloads.cold_queries(random.Random(ctx.seed), tiny=ctx.tiny)
    setups = cold_setup_s(ctx) if not traced else []
    # The traced run reports no end-to-end metric but the tracing overhead,
    # so one untraced and one traced pass suffice and keep it short.
    min_passes, seconds = (1, 0.0) if traced else (COLD_MIN_PASSES, ctx.seconds)
    records, errors, best = cold_pass_loop(ctx, queries, min_passes, seconds)
    if not traced:
        setups += cold_setup_s(ctx)
    latencies = [latency * 1e3 for latency, _cpu in best]
    end_to_end = {
        "throughput_qps": len(best) / sum(latency for latency, _cpu in best),
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p90_ms": percentile(latencies, 0.90),
        "latency_p99_ms": percentile(latencies, 0.99),
        "cpu_ms_per_query": statistics.fmean(cpu for _latency, cpu in best) * 1e3,
        "peak_rss_mb": peak_rss_mb(os.getpid()),
        "setup_s": min(setups) if setups else 0.0,
    }
    attempted = len(records)
    if not traced:
        return end_to_end, len(records), attempted, len(errors), _wrong(errors)

    from repro.chase.checkpoint import checkpoint_counters

    tracer = spans.Tracer()
    spans.install(tracer)
    logs_before = checkpoint_counters().logs_written
    traced_records, traced_errors, traced_best = cold_pass_loop(
        ctx, queries, min_passes, seconds
    )
    errors += traced_errors
    attempted += len(traced_records)
    tracer.dump(os.path.join(ctx.trace_dir, f"spans-{os.getpid()}.json"))
    all_spans = [tuple(span) for span in tracer.spans]
    own, children = spans.self_times(all_spans)
    by_id = {span[0]: span for span in all_spans}
    family_of = {qid: query.family for qid, _latency, query in traced_records}
    sums = LayerSums()
    for span in all_spans:
        if span[3] in family_of:
            sums.add_span(span, own[span[0]], family=family_of[span[3]])
            if span[2] == "implication.engine":
                sums.add_solve(spans.route_of(spans.subtree(span[0], children), by_id))
    sums.checkpoint_bytes = tracer.checkpoint_bytes
    sums.logs_written = checkpoint_counters().logs_written - logs_before
    traced_latency = statistics.fmean(latency * 1e3 for _q, latency, _query in traced_records)
    metrics = sums.metrics(len(traced_records), traced_latency)
    traced_qps = len(traced_best) / sum(latency for latency, _cpu in traced_best)
    metrics.update(
        {
            "service.coalescer.batch_size": 0.0,
            "service.coalescer.joined_share": 0.0,
            "service.rejected_share": 0.0,
            "trace.overhead_pct": (end_to_end["throughput_qps"] - traced_qps)
            / end_to_end["throughput_qps"]
            * 100,
        }
    )
    return metrics, len(traced_records), attempted, len(errors), _wrong(errors)


def _wrong(errors):
    return [f"wrong answer: {error}" for error in errors[:5]]


# -- entry point ---------------------------------------------------------------------


WORKLOADS = ("service_hot", "chase_cold", "fleet_renamed")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="small inputs, for the smoke test"
    )
    return parser.parse_args(argv)


def prepare(root: str):
    """Import the checkout's ``src`` and scrub the environment; returns child env."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"no repro package under {src}: run from a source checkout")
    sys.path.insert(0, src)
    for name in STRIPPED_ENV:
        os.environ.pop(name, None)
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def main(argv=None) -> int:
    args = parse_args(argv)
    # A SIGTERM unwinds through the ``finally`` blocks that stop the children.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    root = os.getcwd()
    env = prepare(root)
    work = os.path.join(root, ".perfbench_run", f"{args.workload}-{os.getpid()}")
    os.makedirs(os.path.join(work, "tmp"))
    # Temporary files of this process and its children stay in the checkout.
    env["TMPDIR"] = os.path.join(work, "tmp")
    tempfile.tempdir = env["TMPDIR"]
    traced = bool(args.trace)
    trace_dir = None
    if traced:
        # Spans and the access log stay here after the run, for inspection.
        trace_dir = os.path.join(root, ".perfbench_out", f"{args.workload}-seed{args.seed}")
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
    ctx = Context(work, env, args.seed, args.seconds, args.tiny, trace_dir)
    stamp = environment_stamp(root, args.workload)
    print("environment " + json.dumps(stamp, sort_keys=True), flush=True)
    try:
        if args.workload == "chase_cold":
            metrics, samples, attempted, failed, notes = run_chase_cold(ctx, traced)
        else:
            metrics, samples, attempted, failed, notes = run_service(
                ctx, args.workload, traced
            )
    finally:
        for service in list(LIVE_SERVICES):
            service.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    units = dict(PER_LAYER if traced else END_TO_END)
    for note in notes:
        print(note, flush=True)
    if trace_dir is not None:
        print(f"spans and access log: {os.path.relpath(trace_dir, root)}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]} (n={samples})")
    print(f"failed_share = {failed / attempted:.6g} (failed {failed} of {attempted})")
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
