"""Atomic file replacement: write a staging file beside the target, then rename.

The shared outcome store, its stats sidecars and the service's metrics
sidecars publish files that other processes read while they are rewritten.
:func:`write_atomically` is the one place those writers stage and rename,
so a reader sees the old file or the new one, never a torn one, and a
failed write never leaves its staging file behind.
"""

from __future__ import annotations

import contextlib
import os
import tempfile


def write_atomically(path: str, data: bytes, *, prefix: str = "tmp") -> None:
    """Replace ``path`` with ``data`` through a staging file in its directory.

    The staging file is named ``<prefix>...tmp``; callers pick a ``prefix``
    that no reader of the directory mistakes for a published file.  On any
    failure -- creating, writing or renaming the staging file -- the
    staging file is removed and the error re-raised, so each caller keeps
    its own error policy.  Success costs the create, the write, the close
    and the rename, and nothing more (no fsync).
    """
    fd, staging = tempfile.mkstemp(
        dir=os.path.dirname(path), prefix=prefix, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(staging, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(staging)
        raise
