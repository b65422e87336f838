"""Input sources and output sinks.

Every input file is read as UTF-8 text with a leading byte order mark
ignored, and a byte that does not decode is reported with the file, line and
column it sits in.

Every output file appears whole or not at all. A path is written to a
temporary file in the same directory and renamed over the target only when
writing finished without an error, so a failed or interrupted run never
leaves a partial file, nor clobbers an earlier one. Every float in an output
is written by :data:`format_float`, or in rows by :func:`row_format`.
"""

from __future__ import annotations

import os
import stat
import sys
from contextlib import contextmanager
from typing import IO, Iterator

#: Significant digits of every float written to an output file.
SERIALIZED_DIGITS = 9

#: A float as every output file writes it, at SERIALIZED_DIGITS significant digits.
format_float = f"{{:.{SERIALIZED_DIGITS}g}}".format


def row_format(width: int) -> str:
    """A ``%`` format for ``width`` floats separated by tabs, each written as
    :data:`format_float` writes it (``"%.9g" % x == format(x, ".9g")``)."""
    return "\t".join([f"%.{SERIALIZED_DIGITS}g"] * width)


@contextmanager
def open_source(path) -> Iterator[IO[str]]:
    """Yield a UTF-8 text stream over the file at ``path``, without a
    leading byte order mark.

    Reads are plain text-mode reads. Only when one fails to decode is the
    file read again as bytes, to re-raise the error for the first line that
    does not decode, naming ``path``, the 1-based line number and the 1-based
    byte column in that line.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            located = _locate_decode_error(path)
            if located is None:
                raise
            raise located from exc


def _locate_decode_error(path) -> UnicodeDecodeError | None:
    # Lines are split as text mode splits them (at \n, \r\n and \r), so the
    # line number matches the one the reader would give. A newline byte never
    # occurs inside a UTF-8 sequence, so the first bad line holds the error.
    with open(path, "rb") as fh:
        lines = (line for chunk in fh for line in chunk.splitlines(keepends=True))
        for lineno, line in enumerate(lines, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                where = f"{path}, line {lineno}, column {exc.start + 1}"
                return UnicodeDecodeError(
                    exc.encoding, exc.object, exc.start, exc.end, f"{exc.reason} ({where})"
                )
    return None


@contextmanager
def open_sink(target) -> Iterator[IO[str]]:
    """Yield a text stream for ``target``.

    ``None`` means standard output, flushed once the block ends without an
    error, and an open stream is used as is; neither is closed. A path gets
    UTF-8 text with ``\\n`` line ends. An existing target that is not a regular
    file (a symlink, FIFO or device such as ``/dev/stdout``) is opened and
    written in place, since renaming over it would replace the node itself.
    """
    if target is None:
        yield sys.stdout
        sys.stdout.flush()
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
