"""Output sinks: every output file appears whole or not at all.

A path is written to a temporary file in the same directory and renamed over
the target only when writing finished without an error, so a failed or
interrupted run never leaves a partial file, nor clobbers an earlier one.
"""

from __future__ import annotations

import os
import stat
import sys
from contextlib import contextmanager
from typing import IO, Iterator


@contextmanager
def open_sink(target) -> Iterator[IO[str]]:
    """Yield a text stream for ``target``.

    ``None`` means standard output and an open stream is used as is; neither
    is closed. A path gets UTF-8 text with ``\\n`` line ends. An existing
    target that is not a plain regular file (a symlink, FIFO or device such
    as ``/dev/stdout``) is opened and written in place, since renaming over
    it would replace the link or device node itself.
    """
    if target is None:
        yield sys.stdout
        return
    if hasattr(target, "write"):
        yield target
        return
    path = os.fspath(target)
    try:
        in_place = not stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        in_place = False
    if in_place:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        return
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    # O_EXCL never reuses an existing file; mode 0o666 is narrowed by the
    # umask, exactly as for a plain open().
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
