"""Input sources (decode errors located) and output sinks (atomic path
writes, streams and standard output)."""

from __future__ import annotations

import io
import os

import pytest

from moodlex.sink import open_sink, open_source


def test_path_written_whole(tmp_path):
    target = tmp_path / "out.tsv"
    with open_sink(target) as fh:
        fh.write("a\tb\n")
        assert not target.exists()
    assert target.read_bytes() == b"a\tb\n"
    assert os.listdir(tmp_path) == ["out.tsv"]


def test_failure_leaves_nothing_and_keeps_the_old_file(tmp_path):
    target = tmp_path / "out.tsv"
    with pytest.raises(RuntimeError):
        with open_sink(target) as fh:
            fh.write("partial")
            raise RuntimeError("stop")
    assert os.listdir(tmp_path) == []
    target.write_text("old\n", encoding="utf-8")
    with pytest.raises(KeyboardInterrupt):
        with open_sink(str(target)) as fh:
            fh.write("partial")
            raise KeyboardInterrupt
    assert target.read_text(encoding="utf-8") == "old\n"
    assert os.listdir(tmp_path) == ["out.tsv"]


def test_mode_matches_a_plain_open(tmp_path):
    plain = tmp_path / "plain"
    plain.write_text("x", encoding="utf-8")
    with open_sink(tmp_path / "sunk") as fh:
        fh.write("x")
    assert (tmp_path / "sunk").stat().st_mode == plain.stat().st_mode


def test_newlines_are_not_translated(tmp_path):
    target = tmp_path / "out.tsv"
    with open_sink(target) as fh:
        fh.write("résumé\n")
    assert target.read_bytes() == "résumé\n".encode("utf-8")


def test_symlink_is_written_through(tmp_path):
    real = tmp_path / "real.tsv"
    real.write_text("old\n", encoding="utf-8")
    link = tmp_path / "link.tsv"
    link.symlink_to(real)
    with open_sink(link) as fh:
        fh.write("new\n")
    assert link.is_symlink()
    assert real.read_text(encoding="utf-8") == "new\n"


def test_stream_and_stdout_pass_through(capsys):
    buf = io.StringIO()
    with open_sink(buf) as fh:
        fh.write("to buffer")
    assert not buf.closed and buf.getvalue() == "to buffer"
    with open_sink(None) as fh:
        fh.write("to stdout\n")
    assert capsys.readouterr().out == "to stdout\n"


def read_all(path):
    with open_source(path) as fh:
        return list(fh)


def test_source_reads_text_lines(tmp_path):
    path = tmp_path / "in.tsv"
    path.write_bytes("caf\u00e9\na\r\nb\n".encode("utf-8"))
    assert read_all(path) == ["caf\u00e9\n", "a\n", "b\n"]


@pytest.mark.parametrize(
    "data, line, column",
    [
        (b"\xff\n", 1, 1),
        ("\u00e9t\u00e9\nab\xffc\n".encode("latin-1"), 1, 1),
        ("\u00e9t\u00e9\n".encode("utf-8") + b"ab\xffc\n", 2, 3),
        # Text mode ends lines at \r\n and at a lone \r too.
        (b"a\r\nb\rcd\xe9\n", 3, 3),
        # Far past the first read buffer.
        (b"".join([b"row\n"] * 5000) + b"x\xc3(\n", 5001, 2),
    ],
    ids=["first-byte", "latin1", "after-multibyte", "cr-line-ends", "deep"],
)
def test_decode_error_names_path_line_and_column(tmp_path, data, line, column):
    path = tmp_path / "in.tsv"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as caught:
        read_all(path)
    message = str(caught.value)
    assert message.startswith("'utf-8' codec can't decode byte 0x")
    assert message.endswith(f"({path}, line {line}, column {column})")


def test_source_passes_other_errors_through(tmp_path):
    path = tmp_path / "in.tsv"
    path.write_bytes(b"ok\n")
    with pytest.raises(UnicodeDecodeError, match="position 0: invalid start byte$"):
        with open_source(path):
            b"\xff".decode("utf-8")
    with pytest.raises(FileNotFoundError):
        read_all(tmp_path / "absent.tsv")
