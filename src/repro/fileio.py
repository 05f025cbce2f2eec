"""Atomic file replacement shared by the on-disk stores.

The result cache, the workload arenas and the job manifests all publish a
file by writing a temp file next to it and renaming it into place. Several
writers may publish the same target at once (pool workers, or ``repro
serve`` job threads in one process), so each call gets its own temp name.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path
from typing import Union


def atomic_write(path: Path, data: Union[str, bytes]) -> None:
    """Publish ``data`` at ``path`` in one ``os.replace``.

    The temp file is ``<stem>.tmp.<pid>.<random>`` in ``path``'s directory:
    unique to this call, and still matched by ``*.tmp.*`` leak checks.
    Readers see the old file or the complete new one, never a torn write.
    If the write or the replace fails, the temp file is removed and the
    error propagates.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f"{path.stem}.tmp.{os.getpid()}.{uuid.uuid4().hex[:12]}")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
