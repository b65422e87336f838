"""Input sources and output sinks.

Every input file is read as UTF-8 text with a leading byte order mark
ignored, and a byte that does not decode is reported with the file, line and
column it sits in. Its sha256 is taken from the bytes as they are read, so a
pipe is hashed too, and kept in :data:`input_digests`. Every line-oriented
input is read whole by :func:`read_rows`, under one rule for line breaks,
blank lines, comments and fields, and checked a column at a time by the
helpers below; each check reads only the rows before the first bad row found
so far, so an error names the first bad line. The score cells of the lexicon
and the gold headlines are read by :func:`parse_scores`: one ``np.loadtxt``
call, with the fields counted and the cells read one by one only when it
declines.

Every output file appears whole or not at all, its ``# key: value`` metadata
lines first: :func:`open_sink` writes both. A path is written to a
temporary file next to the file it replaces (links followed) and renamed
over that file only when writing finished without an error, so a failed or
interrupted run never leaves a partial file, nor clobbers an earlier one.
Every float in an output is written by :data:`format_float`, or in rows by
:func:`row_format` and :func:`format_rows`.
"""

from __future__ import annotations

import hashlib
import io
import os
import stat
import sys
from contextlib import contextmanager, suppress
from itertools import chain, compress, count, islice, repeat
from operator import ne
from typing import IO, Iterable, Iterator, Sequence

#: Significant digits of every float written to an output file.
SERIALIZED_DIGITS = 9

#: A float as every output file writes it, at SERIALIZED_DIGITS significant digits.
format_float = f"{{:.{SERIALIZED_DIGITS}g}}".format


def row_format(width: int) -> str:
    """A ``%`` format for ``width`` floats separated by tabs, each written as
    :data:`format_float` writes it (``"%.9g" % x == format(x, ".9g")``)."""
    return "\t".join([f"%.{SERIALIZED_DIGITS}g"] * width)


def format_rows(line: str, columns: Sequence[Sequence]) -> str:
    """``line % row`` for every row of ``columns`` (one sequence per field),
    all by one ``%`` format of ``line`` repeated once per row."""
    return (line * len(columns[0])) % tuple(chain.from_iterable(zip(*columns)))


def read_rows(source) -> tuple[list[str], list[int], list[str]]:
    """The rows of the text at ``source``, a path or a text stream, read
    whole; the 1-based number of the line each row is on; and the comment
    lines above the first row.

    Every line-oriented input is read by this one rule. A line is read
    without its line break. A blank line (whitespace only) is skipped, and so
    is a comment, ``#`` alone or followed by whitespace, wherever it appears.
    Every other line is a row, and its fields are the text between its tabs,
    as written. A metadata line is ``# key: value`` and a lemma#pos key holds
    no whitespace, so no key is ever read as a comment.
    """
    with open_source(source) as fh:
        text = fh.read()
    if "\r" in text:  # a stream's line breaks, as text mode reads a file's
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    del text
    # Only a line that starts with "#" is sliced, to tell a comment from a row.
    linenos = [
        n for n, line in enumerate(lines, 1)
        if line and not line.isspace() and (line[0] != "#" or line[:2].rstrip() != "#")
    ]
    above = lines[: linenos[0] - 1 if linenos else len(lines)]
    return [lines[n - 1] for n in linenos], linenos, list(filter(str.strip, above))


def parse_scores(rows: Sequence[str], skip: int, width: int):
    """The ``float64`` values of the ``width`` fields after the first ``skip``
    of the rows before the first that has the wrong field count or holds a
    cell ``float`` rejects, as an ``(n, width)`` array; the index of the first
    row that has not ``skip + width`` fields (``len(rows)`` if none); and the
    fault text for that row, or ``None``.

    One ``np.loadtxt`` call reads a well-formed table. Only when it declines
    are the fields counted row by row and each cell read by ``float``.
    """
    import numpy as np  # not loaded by the command line before a subcommand needs it
    text = "\t".join(rows)
    # loadtxt refuses a short row, so the total makes every count exact. It
    # strips \x1c-\x1f, which float() refuses, and NUL is declined with them.
    exact = text.count("\t") == len(rows) * (skip + width) - 1 and not any(
        map(text.__contains__, "\0\x1c\x1d\x1e\x1f")
    )
    del text
    if exact:
        with suppress(ValueError):  # a cell that float() may read, as "1_0", or may not
            values = np.loadtxt(rows, delimiter="\t", usecols=range(skip, skip + width),
                                comments=None, quotechar=None, ndmin=2)
            if len(values) == len(rows):  # loadtxt skips an empty row
                return values, len(rows), None
    end, fault = first_misfit(rows, skip + width)
    cells = [cell for row in rows[:end] for cell in row.split("\t")[skip:]]
    parsed: list[float] = []
    with suppress(ValueError):
        parsed.extend(map(float, cells))
    n = len(parsed) // width
    return np.array(parsed[: n * width], dtype=np.float64).reshape(n, width), end, fault


def first_misfit(rows: Sequence[str], fields: int) -> tuple[int, str | None]:
    """The index of the first of ``rows`` that has not ``fields``
    tab-separated fields and the fault text for it, or ``len(rows)`` and
    ``None`` if every row has."""
    tabs = list(map(str.count, rows, repeat("\t")))
    at = first_true(map(ne, tabs, repeat(fields - 1)), len(rows))
    if at == len(rows):
        return at, None
    return at, f"expected {fields} tab-separated fields, got {tabs[at] + 1}"


def first_repeat(keys: Sequence, stop: int) -> int:
    """The index of the first of ``keys`` that equals an earlier one, or
    ``stop`` if none of the first ``stop`` does."""
    first_at = dict(zip(reversed(keys[:stop]), reversed(range(stop))))
    return first_true(map(ne, map(first_at.__getitem__, keys), count()), stop)


def split_cells(rows: Sequence[str]) -> list[str]:
    """The tab-separated fields of all ``rows``, row after row, in one list."""
    return "\t".join(rows).split("\t") if rows else []


def first_true(flags: Iterable, stop: int) -> int:
    """The index of the first true one of ``flags``, or ``stop`` if none of
    the first ``stop`` is true."""
    return next(compress(count(), islice(flags, stop)), stop)


#: ``None``, or a dict that gets the sha256 of each file :func:`open_source`
#: reads, by its path as given (the command line sets one per run). Every
#: byte is hashed as it is read, so a pipe's digest is of what it held.
input_digests: dict[str, str] | None = None


class _HashedFile(io.FileIO):
    """A file opened for reading whose bytes are hashed as they are read."""

    def __init__(self, path):
        super().__init__(path)
        self.sha256 = hashlib.sha256()

    def readinto(self, buffer):
        n = super().readinto(buffer)
        self.sha256.update(memoryview(buffer)[:n])
        return n

    def readall(self):
        data = super().readall()
        self.sha256.update(data)
        return data


@contextmanager
def open_source(path) -> Iterator[IO[str]]:
    """Yield a UTF-8 text stream over the file at ``path``, without a
    leading byte order mark; an open stream is used as is, and not closed.

    Reads are plain text-mode reads. Only when one fails to decode is the
    file read again as bytes, to re-raise the error for the first line that
    does not decode, naming ``path``, the 1-based line number and the 1-based
    byte column in that line. Once the block ends without an error, the
    file's sha256 goes to :data:`input_digests`, if that is a dict.
    """
    if hasattr(path, "read"):
        yield path
        return
    hashed = None if input_digests is None else _HashedFile(path)
    binary = open(path, "rb") if hashed is None else io.BufferedReader(hashed)
    with io.TextIOWrapper(binary, encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            located = _locate_decode_error(path)
            if located is None:
                raise
            raise located from exc
        if hashed is not None:
            hashed.readall()  # what the reader left unread, so the digest is the whole file's
            input_digests[os.fspath(path)] = hashed.sha256.hexdigest()


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


def replaced_file(path) -> str | None:
    """The real path of the file a write to ``path`` replaces, links followed,
    or ``None`` for a node written in place: one that is not a regular file,
    or a file the real path does not name (a deleted or anonymous file that
    ``/dev/stdout`` or another ``/proc`` fd link opens)."""
    real = os.path.realpath(path)
    try:
        opened = os.stat(path)
    except FileNotFoundError:
        return real
    with suppress(FileNotFoundError):
        if stat.S_ISREG(opened.st_mode) and os.path.samestat(opened, os.stat(real)):
            return real
    return None


@contextmanager
def open_sink(target, comments: Iterable[tuple[str, str]] = ()) -> Iterator[IO[str]]:
    """Yield a text stream for ``target``, with a ``# key: value`` line for
    each pair of ``comments`` already written to it.

    ``None`` means standard output, flushed once the block ends without an
    error, and an open stream is used as is; neither is closed. A path gets
    UTF-8 text with ``\\n`` line ends, and replaces the file that
    :func:`replaced_file` names (a symlink stays a link). The replacement is
    a new file renamed into that file's directory, so the run needs write
    permission on the directory, and the file gets a new inode: its mode is
    0o666 less the umask, its owner is the writer, and a hard link to the old
    file keeps the old bytes. A node that is not a regular file (a FIFO, or a
    device such as ``/dev/stdout`` on a terminal or a pipe), or a file with
    no name to rename over, is opened and written in place, since renaming
    over it would replace the node itself or write a stray file.
    """
    comment_lines = "".join(f"# {key}: {value}\n" for key, value in comments)
    if target is None:
        sys.stdout.write(comment_lines)
        yield sys.stdout
        sys.stdout.flush()
        return
    if hasattr(target, "write"):
        target.write(comment_lines)
        yield target
        return
    path = os.fspath(target)
    real = replaced_file(path)
    if real is None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(comment_lines)
            yield fh
        return
    head, tail = os.path.split(real)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    # O_EXCL never reuses an existing file; mode 0o666 is narrowed by the
    # umask, exactly as for a plain open().
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # named by its target: the temporary name is random
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(comment_lines)
            yield fh
        os.replace(tmp, real)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
