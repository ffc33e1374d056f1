"""Parsed files kept by stat key, so that an unchanged file is not parsed again.

A :class:`FileSnapshot` maps a path to the value parsed from it and to the
``(st_ino, st_size, st_mtime_ns, st_ctime_ns)`` the file had when it was
read. A read stats the path first; when that key equals the kept one, it
returns the kept value and opens nothing. Any other key makes it read and
parse the file again. An atomic replace changes the inode, and a write in
place changes the size or a timestamp.

A write within one timestamp tick of the read can leave all four fields as
they were, as git's Documentation/technical/racy-git.txt describes. So, as
git does, a value is kept only when the file's mtime is older than the moment
the read began, minus :data:`RACY_SLACK_NS`; a file written more recently is
parsed on every read until it has aged.

Nothing is kept for a failure: a missing file raises ``OSError`` and a file
that does not parse raises the parser's error, on every read. The caller
turns ``OSError`` into its own error class.

:func:`replace_file` writes every file daxiot writes, whole and then renamed.
"""

from __future__ import annotations

import os
import random
import time
from pathlib import Path
from typing import Callable, Generic, TypeVar

T = TypeVar("T")

# The slack covers the coarsest file timestamps a deployment is likely to
# use: FAT stamps in 2 s steps, and ext4, xfs, btrfs and tmpfs stamp from the
# kernel's coarse clock, which trails time.time_ns() by up to a scheduler
# tick. A later write therefore always stamps an mtime newer than a kept one.
RACY_SLACK_NS = 2_000_000_000
# Far more files than one process reads: two trust files and a few did:web
# documents. A full table is emptied, so it stays bounded whatever is asked.
_ENTRIES = 64

class FileSnapshot(Generic[T]):
    """Path -> value parsed by ``parse(path, raw)``, parsed again only when the file changes."""

    def __init__(self, parse: Callable[[str, bytes], T]) -> None:
        self._parse = parse
        self._entries: dict[str, tuple[tuple[int, int, int, int], T]] = {}

    def read(self, path: str | os.PathLike) -> T:
        """The value parsed from ``path``; raises ``OSError`` when it cannot be read."""
        path = os.fspath(path)  # a str stats faster than a Path and keys the table
        started = time.time_ns()
        stat = os.stat(path)
        key = (stat.st_ino, stat.st_size, stat.st_mtime_ns, stat.st_ctime_ns)
        # Taken out while it is checked: a changed or unreadable file leaves no entry.
        entry = self._entries.pop(path, None)
        if entry is not None and entry[0] == key:
            self._entries[path] = entry
            return entry[1]
        with open(path, "rb") as file:
            value = self._parse(path, file.read())
        if stat.st_mtime_ns < started - RACY_SLACK_NS:
            if len(self._entries) >= _ENTRIES:
                self._entries.clear()
            self._entries[path] = (key, value)
        return value


def replace_file(path: str | os.PathLike, data: bytes, mode: int = 0o666) -> None:
    """Write ``data`` to a temporary file of this call's own beside ``path`` and
    rename it over ``path``: a reader sees the old file or the new one, never a
    torn one, however writers race or a write fails. The file is created with
    ``mode`` less the umask; the default suits files a broker running as
    another user reads."""
    tmp = Path(f"{os.fspath(path)}.{random.SystemRandom().getrandbits(64):016x}.tmp")
    try:
        with os.fdopen(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode), "wb") as file:
            file.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
