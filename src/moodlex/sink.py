"""Input sources and output sinks.

Every input file is read once, as bytes: whole by :func:`read_text`, or a
line at a time by :func:`open_source`, and hashed into :data:`input_digests`
as it is read. Both decode it as UTF-8, a leading byte order mark ignored, by
:func:`_decode`, which is given the number of the line its bytes start on, so
a byte that does not decode is named by file, line and column, in a file and
a pipe alike. Every line-oriented input is read whole by :func:`read_rows`,
under one rule for line breaks, blank lines, comments and fields, and checked
a column at a time by the helpers below; each check reads only the rows
before the first bad row found so far, so an error names the first bad line.
The score cells of the lexicon and the gold headlines are read by
:func:`parse_scores`: one ``np.loadtxt`` call, with the fields counted and
the cells read one by one only when it declines. Every list of emotion
names, corpus labels and file headers alike, is checked by :func:`emotion_fault`.

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
import os
import stat
import sys
from contextlib import contextmanager, suppress
from itertools import chain, compress, count, islice, repeat
from operator import ne
from typing import IO, Iterable, Iterator, Sequence

from .errors import MoodlexError

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
    lines = read_text(source).split("\n")
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


def emotion_fault(names: Sequence[str]) -> str | None:
    """What makes ``names`` no list of emotion names, or ``None``: the one
    rule for corpus labels, lexicon headers and gold headers. A name is read
    stripped and upper-cased. No name may read as empty, hold a tab, CR or LF
    as written (it is a field of one line), or read as another name does."""
    read = [name.strip().upper() for name in names]
    if not all(read):
        return "empty emotion name"
    if bad := [name for name in names if any(c in name for c in "\t\r\n")]:
        return f"emotion name holds a tab, CR or LF: {bad[0]!r}"
    return "duplicate emotion columns" if len(set(read)) != len(read) else None


#: ``None``, or a dict that gets the sha256 of each file :func:`read_text` or
#: :func:`open_source` reads, by its path as given (the command line sets one
#: per run). The bytes are hashed as they are read, so a pipe is hashed too.
input_digests: dict[str, str] | None = None


def read_text(source) -> str:
    """The text at ``source``, a path or a text stream, read whole, with its
    CRLF and CR line breaks turned into LF. A path is read in one binary read,
    decoded by :func:`_decode` and then hashed into :data:`input_digests`."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "rb") as fh:
            data = fh.read()
        text = _decode(data, source, 1)
        if input_digests is not None:
            input_digests[os.fspath(source)] = hashlib.sha256(data).hexdigest()
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


@contextmanager
def open_source(path) -> Iterator[Iterator[str]]:
    """Yield the lines of the file at ``path`` as text mode reads them, each
    read in binary and decoded by :func:`_decode`. Once the block ends without
    an error, the sha256 of the lines read and of what the block left unread
    goes to :data:`input_digests`, if that is a dict."""
    sha256 = None if input_digests is None else hashlib.sha256()
    with open(path, "rb", buffering=1 << 16) as fh:
        yield _lines(fh, path, sha256)
        if sha256 is not None:
            sha256.update(fh.read())
            input_digests[os.fspath(path)] = sha256.hexdigest()


def _lines(fh, path, sha256) -> Iterator[str]:
    lineno = 1
    for line in fh:
        if sha256 is not None:
            sha256.update(line)
        # Text mode also ends a line at a lone \r, and ends every line in \n.
        for piece in line.splitlines(keepends=True) if b"\r" in line else (line,):
            text = _decode(piece, path, lineno)
            lineno += 1
            if b"\r" in piece:  # its line break
                yield text.rstrip("\r\n") + "\n"
            elif text:  # "" only for a file that holds a byte order mark alone
                yield text


def _decode(data: bytes, path, first_line: int) -> str:
    """``data``, the bytes of ``path`` from the start of its line
    ``first_line``, decoded as UTF-8 without the file's leading byte order
    mark. A byte that does not decode is named by its line and its byte column
    (a byte order mark counted), lines ended as text mode ends them."""
    try:
        return str(data, "utf-8-sig" if first_line == 1 else "utf-8")
    except UnicodeDecodeError as exc:
        skip = len(data) - len(exc.object)  # the byte order mark the codec dropped
        start, end = exc.start + skip, exc.end + skip
        head = max(data.rfind(b"\n", 0, start), data.rfind(b"\r", 0, start)) + 1
        breaks = data.count(b"\n", 0, head) + data.count(b"\r", 0, head)
        lineno = first_line + breaks - data.count(b"\r\n", 0, head)
        where = f"{path}, line {lineno}, column {start - head + 1}"
        raise UnicodeDecodeError(
            exc.encoding, data[head:end], start - head, end - head, f"{exc.reason} ({where})"
        ) from None


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
    each pair of ``comments`` already written to it; a key or value holding
    CR or LF is refused first.

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
    lines = [f"# {key}: {value}" for key, value in comments]
    broken = [line for line in lines if "\n" in line or "\r" in line]
    if broken:  # it would read back as more lines, or as rows
        raise MoodlexError(f"metadata line holds a line break: {broken[0]!r}")
    comment_lines = "".join(line + "\n" for line in lines)
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
