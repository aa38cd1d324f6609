"""Structured JSONL access logging for the solver service.

Every request that reaches ``/v1/solve`` -- served from cache, solved
fresh, coalesced into a neighbour's batch, rejected by the rate limiter
or fairness gate, cut by a deadline, or failed -- produces exactly one
line here, so the log and the ``/metrics`` endpoint can be reconciled
request-for-request.  Each line is a self-contained JSON object; the
field set is documented in ``docs/operations.md`` and asserted by the
service tests.

Rotation is by size: when a write would push the file past
``max_bytes`` the current file is renamed to ``<path>.1`` (existing
backups shifting to ``.2`` ... ``.backups``, the oldest dropped) and a
fresh file is started.  Under multi-worker deployment each worker owns
its own file (``<path>.<worker_id>`` for workers beyond the first), so
no cross-process locking is needed; the operations guide shows how to
merge them.

A failing disk never fails a request: a write or rotation that raises
``OSError`` drops that one line, counts it (``write_errors`` in
:meth:`AccessLog.snapshot`, served on ``/metrics``), cuts any torn tail
off the file, and the next record reopens the file and carries on.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import threading
from typing import Optional


class AccessLog:
    """An append-only JSONL log with size-based rotation.

    Parameters
    ----------
    path:
        File to append to; parent directories are created on demand.
    max_bytes:
        Rotate when an append would push the file past this size.
    backups:
        How many rotated generations (``.1`` newest ... ``.N`` oldest)
        to keep.
    """

    def __init__(self, path: str, *, max_bytes: int = 10 * 1024 * 1024,
                 backups: int = 3) -> None:
        if max_bytes < 1024:
            raise ValueError("an access log needs max_bytes >= 1024")
        if backups < 1:
            raise ValueError("an access log needs backups >= 1")
        self._path = path
        self._max_bytes = max_bytes
        self._backups = backups
        self._lock = threading.Lock()
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._stream: Optional[io.TextIOWrapper] = None
        self._size = 0
        self._open()
        self._closed = False
        self._records = 0
        self._write_errors = 0

    @property
    def path(self) -> str:
        """The active log file's path."""
        return self._path

    @property
    def records(self) -> int:
        """How many records this instance has written (rotations included)."""
        return self._records

    def snapshot(self) -> dict:
        """``/metrics`` counters: records written, lines dropped by failed writes."""
        with self._lock:
            return {"records": self._records, "write_errors": self._write_errors}

    def write(self, record: dict) -> None:
        """Append one record as a single JSON line, rotating first if needed.

        Records are serialized with sorted keys so the line format is
        deterministic; a closed log silently drops writes (requests may
        still be finishing while the server tears down).  An ``OSError``
        drops the record and counts it (see the module docstring).
        """
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        encoded = len(line.encode("utf-8"))
        with self._lock:
            if self._closed:
                return
            try:
                if self._stream is None:
                    self._open()
                if self._size and self._size + encoded > self._max_bytes:
                    self._rotate()
                self._stream.write(line)
                self._stream.flush()
            except OSError:
                self._write_errors += 1
                self._discard_stream()
                return
            self._size += encoded
            self._records += 1

    def _open(self) -> None:
        self._stream = open(self._path, "a", encoding="utf-8")
        self._size = self._stream.tell()

    def _discard_stream(self) -> None:
        """Drop the stream after a failed write and cut the torn line off.

        ``_size`` still counts only whole records, so truncating to it
        leaves the file a sequence of complete lines.  The next write
        reopens the file.
        """
        stream, self._stream = self._stream, None
        if stream is not None:
            with contextlib.suppress(OSError):
                stream.close()
        with contextlib.suppress(OSError):
            os.truncate(self._path, self._size)

    def _rotate(self) -> None:
        """Shift ``path.N-1`` onto ``path.N`` and restart the active file."""
        stream, self._stream = self._stream, None
        stream.close()
        for index in range(self._backups, 0, -1):
            older = f"{self._path}.{index}"
            newer = self._path if index == 1 else f"{self._path}.{index - 1}"
            if os.path.exists(older):
                os.remove(older)
            if os.path.exists(newer):
                os.replace(newer, older)
        self._open()

    def close(self) -> None:
        """Flush and close; later writes become no-ops."""
        with self._lock:
            self._closed = True
            stream, self._stream = self._stream, None
            if stream is not None:
                with contextlib.suppress(OSError):
                    stream.close()


def worker_log_path(path: str, worker_id: int) -> str:
    """The per-worker variant of a configured access-log path.

    Worker 0 (and the single-worker case) uses the configured path
    verbatim; worker ``N`` appends ``.worker-N`` before any rotation
    suffix so each process owns its file exclusively.
    """
    if worker_id <= 0:
        return path
    return f"{path}.worker-{worker_id}"
