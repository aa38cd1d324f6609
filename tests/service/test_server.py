"""End-to-end tests for the solver service over real sockets.

Includes the PR's two acceptance suites:

* **differential byte-identity** -- a randomized problem suite answered by
  the live service must match a direct in-process ``Solver`` after JSON
  normalisation, byte for byte;
* **fairness** -- a tenant flooding past its in-flight cap is rejected with
  429s, its admitted concurrency (hence its share of pool saturation) never
  exceeds the cap, and a well-behaved second tenant's p50 latency stays
  within 2x of its solo baseline.
"""

import asyncio
import random
import threading
import time

import pytest

from repro.api import ChaseBudget, SolverConfig
from repro.api.solver import Solver
from repro.config import ServiceConfig
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import SolverService, serve_in_thread


@pytest.fixture(scope="module")
def live():
    """One live service + client shared by the read-mostly endpoint tests."""
    # store pinned (not "auto") so a REPRO_CACHE_MODE=off environment can't
    # disable the outcome store these endpoint assertions rely on
    config = ServiceConfig(
        port=0,
        universe="ABCD",
        solver=SolverConfig().with_cache(store="memory"),
    )
    with serve_in_thread(config=config) as handle:
        host, port = handle.address
        with ServiceClient(host, port, client_id="tests") as client:
            yield handle, client


class TestEndpoints:
    def test_healthz(self, live):
        _, client = live
        health = client.health()
        assert health["status"] == "ok"
        assert health["schema"] == protocol.PROTOCOL_VERSION
        assert health["uptime_seconds"] >= 0

    def test_solve_implied(self, live):
        _, client = live
        outcome = client.solve(["A -> B", "B -> C"], "A -> C", request_id="q-1")
        assert outcome["verdict"] == "implied"

    def test_solve_refuted_with_counterexample(self, live):
        _, client = live
        outcome = client.solve(["A ->> B"], "A -> B")
        assert outcome["verdict"] == "not_implied"
        assert len(outcome["counterexample"]["rows"]) >= 2

    def test_parse_error_is_422(self, live):
        _, client = live
        with pytest.raises(ServiceError) as excinfo:
            client.solve(["A -> "], "A -> B")
        assert excinfo.value.status == 422
        assert excinfo.value.code == "parse_error"

    def test_schema_mismatch_is_400(self, live):
        _, client = live
        status, payload = client.request(
            "POST",
            "/v1/solve",
            {"schema": 99, "premises": [], "conclusion": "A -> B"},
        )
        assert status == 400
        assert payload["error"]["code"] == "schema_mismatch"

    def test_malformed_body_is_400(self, live):
        handle, _ = live
        host, port = handle.address
        import http.client

        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request(
                "POST",
                "/v1/solve",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = protocol.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_unknown_path_is_404(self, live):
        _, client = live
        status, payload = client.request("GET", "/nope")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_wrong_method_is_405(self, live):
        _, client = live
        status, payload = client.request("POST", "/healthz", {})
        assert status == 405
        assert payload["error"]["code"] == "method_not_allowed"

    def test_metrics_reflect_traffic(self, live):
        _, client = live
        client.solve(["A -> B"], "A ->> B")
        metrics = client.metrics()
        assert metrics["schema"] == protocol.PROTOCOL_VERSION
        assert "requests_total" in metrics["metrics"]
        assert "batch_size" in metrics["metrics"]
        assert "pool_saturation" in metrics["metrics"]
        assert metrics["solver"]["problems"] >= 1
        assert metrics["coalescer"]["submitted"] >= 1
        assert metrics["fairness"]["cap"] >= 1
        assert metrics["service"]["draining"] is False
        assert metrics["service"]["kernel"] in ("bitset", "off")

    def test_metrics_expose_the_outcome_store(self, live):
        _, client = live
        client.solve(["A -> B", "B -> C"], "A -> D")
        client.solve(["A -> B", "B -> C"], "A -> D")  # a guaranteed store hit
        metrics = client.metrics()
        store = metrics["store"]
        assert store["size"] >= 1
        assert store["hits"] >= 1
        assert store["syntactic_hits"] >= 1
        assert store["puts"] >= 1
        assert 0.0 <= store["hit_rate"] <= 1.0
        assert store["evictions"] >= 0
        assert metrics["service"]["cache_mode"] in ("syntactic", "canonical")

    def test_solve_metrics_carry_kernel_label(self, live):
        from repro.chase.kernel import resolve_kernel

        _, client = live
        client.solve(["A -> B", "B -> C"], "A -> C")
        metrics = client.metrics()
        # The service resolves the configured (default "auto") kernel mode
        # once at construction; every latency and chase observation must
        # carry that resolution as a label.
        expected = resolve_kernel("auto") or "off"
        assert metrics["service"]["kernel"] == expected
        latency = metrics["metrics"]["solve_latency_seconds"]
        assert all(
            child["labels"]["kernel"] == expected for child in latency["children"]
        )
        assert latency["children"], "solve latency was never observed"
        rounds = metrics["metrics"]["chase_rounds"]
        assert rounds["children"]
        assert all(
            child["labels"]["kernel"] in ("bitset", "off")
            for child in rounds["children"]
        )


class TestUnknownVerdict:
    def test_budget_exhausted_travels_as_unknown(self):
        config = ServiceConfig(
            port=0,
            universe="ABC",
            solver=SolverConfig(chase=ChaseBudget(max_steps=10, max_rows=50)),
        )
        with serve_in_thread(config=config) as handle:
            host, port = handle.address
            with ServiceClient(host, port) as client:
                outcome = client.solve(
                    ["utd[ABC]{x y z} => y w v"], "utd[ABC]{p q r} => p p p"
                )
        assert outcome["verdict"] == "unknown"
        assert outcome["chase"]["status"] == "budget_exhausted"


FD_POOL = ["A -> B", "B -> C", "C -> D", "D -> A", "A -> C", "B -> D"]
MVD_POOL = ["A ->> B", "B ->> C", "C ->> D", "A ->> C"]
CONCLUSIONS = FD_POOL + MVD_POOL


class TestDifferential:
    def test_service_matches_direct_solver_byte_for_byte(self, live):
        handle, _ = live
        host, port = handle.address
        direct = Solver(universe="ABCD")
        rng = random.Random(1982)
        with ServiceClient(host, port, client_id="differential") as client:
            for index in range(30):
                premises = rng.sample(FD_POOL + MVD_POOL, k=rng.randint(1, 3))
                conclusion = rng.choice(CONCLUSIONS)
                finite = rng.random() < 0.3
                status, payload = client.solve_raw(
                    premises, conclusion, finite=finite, request_id=f"d-{index}"
                )
                assert status == 200, payload
                envelope = protocol.decode_response(payload)
                expected = direct.solve(
                    direct.problem(premises, conclusion, finite=finite)
                )
                assert protocol.dumps(envelope["outcome"]) == protocol.dumps(
                    protocol.encode_outcome(expected)
                ), (premises, conclusion, finite)


def p50(samples):
    return sorted(samples)[len(samples) // 2]


class FloodTenant:
    """Threads hammering the service as one client id until told to stop."""

    def __init__(self, host, port, client_id, threads=4, pause=0.005):
        self._host = host
        self._port = port
        self._client_id = client_id
        self._pause = pause
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._run, args=(i,), daemon=True)
            for i in range(threads)
        ]
        self.statuses = []
        self._lock = threading.Lock()

    def _run(self, worker):
        problems = [(["A -> B"], "A ->> B"), (["B -> C"], "B ->> C")]
        with ServiceClient(
            self._host, self._port, client_id=self._client_id
        ) as client:
            index = worker
            while not self._stop.is_set():
                premises, conclusion = problems[index % len(problems)]
                index += 1
                status, _ = client.solve_raw(premises, conclusion)
                with self._lock:
                    self.statuses.append(status)
                time.sleep(self._pause)

    def __enter__(self):
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=10)
        return False

    def count(self, status):
        with self._lock:
            return sum(1 for s in self.statuses if s == status)


class TestFairness:
    def test_flooding_tenant_is_capped_and_rejected(self):
        config = ServiceConfig(
            port=0,
            universe="ABC",
            per_client_in_flight=2,
            max_concurrent_batches=4,
        )
        with serve_in_thread(config=config) as handle:
            host, port = handle.address
            with FloodTenant(host, port, "tenant-a", threads=6) as flood:
                time.sleep(0.8)
            gate = handle.service.fairness
            assert flood.count(200) > 0
            assert flood.count(429) > 0
            assert gate.high_water("tenant-a") <= 2
            assert gate.rejections("tenant-a") > 0
            # The capped tenant can occupy at most cap concurrent batches,
            # so it cannot saturate the 4-slot pool past 2/4.
            saturation = handle.service.metrics.gauge("pool_saturation")
            assert saturation.labels().high_water <= 2 / 4

    def test_neighbour_p50_stays_within_2x_of_solo_baseline(self, held_solver):
        # Every batch is held 50 ms, so the flood's four threads keep more
        # requests in flight than its cap of two, whatever a solve costs.
        config = ServiceConfig(
            port=0,
            universe="ABC",
            per_client_in_flight=2,
            max_concurrent_batches=4,
        )
        service = SolverService(held_solver(0.05, universe="ABC"), config=config)
        with serve_in_thread(service) as handle:
            host, port = handle.address

            def measure(client, rounds=10):
                latencies = []
                for _ in range(rounds):
                    started = time.perf_counter()
                    outcome = client.solve(["A -> B"], "A ->> B")
                    latencies.append(time.perf_counter() - started)
                    assert outcome["verdict"] == "implied"
                return latencies

            with ServiceClient(host, port, client_id="tenant-b") as tenant_b:
                solo = p50(measure(tenant_b))
                with FloodTenant(host, port, "tenant-a", threads=4) as flood:
                    contended = p50(measure(tenant_b))
            assert flood.count(429) > 0  # the flood really was over budget
            assert contended <= 2.0 * solo, (solo, contended)


class TestDraining:
    def test_drained_service_reports_and_rejects(self):
        async def scenario():
            service = SolverService(config=ServiceConfig(port=0, universe="ABC"))
            await service.start()
            await service.drain()
            body = protocol.dumps(
                {"schema": 1, "premises": ["A -> B"], "conclusion": "A ->> B"}
            )
            status, payload = await service._route("POST", "/v1/solve", body)
            return status, payload, service._health_payload()

        status, payload, health = asyncio.run(scenario())
        assert status == 503
        assert payload["error"]["code"] == "draining"
        assert health["status"] == "draining"

    def test_drain_is_idempotent(self):
        async def scenario():
            service = SolverService(config=ServiceConfig(port=0, universe="ABC"))
            await service.start()
            await service.drain()
            await service.drain()

        asyncio.run(scenario())

    def test_requests_after_thread_drain_fail_to_connect(self):
        config = ServiceConfig(port=0, universe="ABC")
        with serve_in_thread(config=config) as handle:
            host, port = handle.address
            with ServiceClient(host, port) as client:
                assert client.health()["status"] == "ok"
        with pytest.raises(OSError):
            with ServiceClient(host, port, timeout=2) as client:
                client.health()
