"""Process-level lifecycle tests: ``python -m repro.service`` under SIGTERM.

A real subprocess binds an ephemeral port, serves live traffic, and must
drain cleanly on SIGTERM: exit code 0, the ``drained cleanly`` line on
stdout, and no lingering process.  The CLI's flag/config plumbing is
covered in-process via :func:`repro.service.__main__.build_config`.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.config import ConfigError, ServiceConfig
from repro.service.__main__ import build_config
from repro.service.client import ServiceClient

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def spawn_service(*flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0", *flags],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def wait_for_address(process, timeout=20.0):
    """Parse the stable ``listening on`` line for the bound address."""
    deadline = time.monotonic() + timeout
    line = ""
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        match = re.search(r"listening on http://([^:]+):(\d+)", line)
        if match:
            return match.group(1), int(match.group(2))
    raise AssertionError(f"no listen line from the service (last: {line!r})")


class TestSigtermDrain:
    def test_sigterm_drains_cleanly_after_serving_traffic(self):
        process = spawn_service("--universe", "ABC")
        try:
            host, port = wait_for_address(process)
            with ServiceClient(host, port, client_id="lifecycle") as client:
                assert client.health()["status"] == "ok"
                outcome = client.solve(["A -> B"], "A ->> B")
                assert outcome["verdict"] == "implied"
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, stderr
        assert "service drained cleanly" in stdout
        # The drain summary counts the traffic we actually sent.
        match = re.search(r"drained cleanly: (\d+) problems", stdout)
        assert match and int(match.group(1)) >= 1

    def test_second_sigterm_does_not_break_the_drain(self):
        process = spawn_service("--universe", "ABC")
        try:
            wait_for_address(process)
            process.send_signal(signal.SIGTERM)
            process.send_signal(signal.SIGTERM)
            stdout, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert "service drained cleanly" in stdout


class TestCli:
    def test_defaults(self):
        config = build_config([])
        assert config == ServiceConfig()

    def test_flags_override_defaults(self):
        config = build_config(
            [
                "--host",
                "0.0.0.0",
                "--port",
                "9000",
                "--universe",
                "ABCD",
                "--max-batch",
                "8",
                "--max-concurrent-batches",
                "2",
                "--per-client-cap",
                "3",
                "--drain-timeout",
                "5",
            ]
        )
        assert config.host == "0.0.0.0"
        assert config.port == 9000
        assert config.universe == "ABCD"
        assert config.max_batch_size == 8
        assert config.max_concurrent_batches == 2
        assert config.per_client_in_flight == 3
        assert config.drain_timeout == 5.0

    def test_retired_processes_flag_is_a_usage_error(self):
        # --workers N is the only multi-core flag; argparse exits with 2.
        with pytest.raises(SystemExit) as excinfo:
            build_config(["--processes", "2"])
        assert excinfo.value.code == 2

    def test_retired_window_flag_is_a_usage_error(self, capsys):
        # Batches go out on the next event-loop turn; there is no window to
        # set, and argparse exits with 2.
        with pytest.raises(SystemExit) as excinfo:
            build_config(["--window-ms", "5"])
        assert excinfo.value.code == 2
        assert "--window-ms" in capsys.readouterr().err

    def test_config_file_with_flag_overrides(self, tmp_path):
        path = tmp_path / "service.json"
        path.write_text(json.dumps(ServiceConfig(port=1234, universe="AB").to_dict()))
        config = build_config(["--config", str(path), "--port", "4321"])
        assert config.port == 4321
        assert config.universe == "AB"

    def test_invalid_flag_values_raise_config_errors(self):
        with pytest.raises(ConfigError):
            build_config(["--per-client-cap", "0"])

    def test_mistyped_config_file_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "service.json"
        path.write_text(json.dumps({"port": "0"}))
        with pytest.raises(SystemExit) as excinfo:
            build_config(["--config", str(path)])
        assert excinfo.value.code == 2
        assert "port must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"drain_timeout": "30"}, "drain_timeout must be a number"),
            ({"requests_per_second": "5"}, "requests_per_second must be None or"),
            ({"solver": {"cache": {"ttl": "60"}}}, "ttl must be None or"),
            ({"solver": {"trace": "no"}}, "trace must be true or false"),
        ],
        ids=["drain_timeout", "requests_per_second", "ttl", "trace"],
    )
    def test_mistyped_config_file_values_are_usage_errors(
        self, tmp_path, capsys, document, message
    ):
        path = tmp_path / "service.json"
        path.write_text(json.dumps(document))
        with pytest.raises(SystemExit) as excinfo:
            build_config(["--config", str(path)])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read a JSON file"),
            ("{not json", "cannot read a JSON file"),
            ("[1, 2]", "expected a JSON object, got list"),
        ],
        ids=["missing", "invalid_json", "array"],
    )
    def test_unreadable_config_file_is_a_usage_error(
        self, tmp_path, capsys, content, message
    ):
        path = tmp_path / "service.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as excinfo:
            build_config(["--config", str(path)])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
