"""The structured JSONL access log: rotation, worker paths, and accounting.

The unit tests exercise :class:`~repro.service.access_log.AccessLog`
directly (rotation thresholds, backup shifting, compact deterministic
encoding).  The service-level test runs live traffic through every answer
class it can provoke -- success, parse error, rate limited -- and checks
that the log accounts for *each* request with the fields operations
tooling greps for.
"""

import json

from repro.config import ServiceConfig
from repro.service.access_log import AccessLog, worker_log_path
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import serve_in_thread


def read_jsonl(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestAccessLogUnit:
    def test_records_are_compact_sorted_jsonl(self, tmp_path):
        path = tmp_path / "access.jsonl"
        log = AccessLog(str(path))
        log.write({"b": 1, "a": "x"})
        log.close()
        assert path.read_text(encoding="utf-8") == '{"a":"x","b":1}\n'

    def test_rotation_shifts_backups(self, tmp_path):
        path = tmp_path / "access.jsonl"
        # Each record is ~120 bytes; the 1 KiB floor cap forces a rotation
        # roughly every eight records.
        log = AccessLog(str(path), max_bytes=1024, backups=2)
        for i in range(40):
            log.write({"seq": i, "pad": "x" * 100})
        log.close()
        rotated = sorted(p.name for p in tmp_path.iterdir())
        assert "access.jsonl" in rotated
        assert "access.jsonl.1" in rotated
        assert "access.jsonl.2" in rotated
        assert "access.jsonl.3" not in rotated  # backups=2 bounds the set
        # The newest records live in the live file, older ones in .1, .2.
        live = read_jsonl(path)
        older = read_jsonl(tmp_path / "access.jsonl.1")
        assert live[-1]["seq"] == 39
        assert older[-1]["seq"] < live[0]["seq"]

    def test_closed_log_drops_writes_silently(self, tmp_path):
        path = tmp_path / "access.jsonl"
        log = AccessLog(str(path))
        log.write({"seq": 0})
        log.close()
        log.write({"seq": 1})
        assert len(read_jsonl(path)) == 1

    def test_worker_log_path(self):
        assert worker_log_path("/var/log/a.jsonl", 0) == "/var/log/a.jsonl"
        assert worker_log_path("/var/log/a.jsonl", 2) == "/var/log/a.jsonl.worker-2"


class TestServiceAccessLog:
    def test_every_request_gets_one_line(self, tmp_path):
        log_path = tmp_path / "access.jsonl"
        config = ServiceConfig(
            port=0,
            universe="ABC",
            access_log_path=str(log_path),
            requests_per_second=0.001,
            burst=2,
        )
        with serve_in_thread(config=config) as handle:
            host, port = handle.address
            with ServiceClient(host, port, client_id="logged") as client:
                assert client.solve(["A -> B"], "A -> B")["verdict"] == "implied"
                try:
                    client.solve(["A -> "], "A -> B")
                except ServiceError as exc:
                    assert exc.status == 422
                try:
                    client.solve(["A -> B"], "A -> C")
                except ServiceError as exc:
                    assert exc.status == 429
                    assert exc.code == "rate_limited"
        records = read_jsonl(log_path)
        assert len(records) == 3
        by_status = {record["status"]: record for record in records}
        assert set(by_status) == {200, 422, 429}

        ok = by_status[200]
        assert ok["client"] == "logged"
        assert ok["worker"] == 0
        assert ok["outcome"] == "implied"
        assert ok["join"] in ("leader", "window", "in_flight")
        assert isinstance(ok["batch_id"], int)
        assert ok["batch_size"] >= 1
        assert ok["queue_s"] >= 0
        assert ok["solve_s"] >= 0
        assert ok["latency_s"] >= 0
        assert isinstance(ok["fingerprint"], str) and ok["fingerprint"]
        assert ok["strategy"]
        assert "ts" in ok

        assert by_status[422]["code"] == "parse_error"
        assert by_status[429]["code"] == "rate_limited"
        # Rejected-before-solving requests never reach a batch.
        assert "batch_id" not in by_status[429]

    def test_no_path_means_no_log(self, tmp_path):
        config = ServiceConfig(port=0, universe="ABC")
        with serve_in_thread(config=config) as handle:
            host, port = handle.address
            with ServiceClient(host, port, client_id="quiet") as client:
                client.solve(["A -> B"], "A -> B")
        assert list(tmp_path.iterdir()) == []
