"""Output sinks: atomic path writes, streams and standard output."""

from __future__ import annotations

import io
import os

import pytest

from moodlex.sink import open_sink


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
