"""Input sources (decode errors located, a leading BOM ignored by every
reader) and output sinks (atomic path writes, streams and standard output)."""

from __future__ import annotations

import codecs
import hashlib
import io
import os
import tempfile
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import moodlex.sink
from moodlex import (
    EmotionLexicon,
    EmotionMapping,
    GoldSet,
    LemmaTable,
    MoodlexError,
    VocabularyFilter,
    load_corpus,
    load_gold,
    load_labels,
    read_lexicon,
    write_lexicon,
)
from moodlex.cli import _read_score_input
from moodlex.sink import (
    format_float, format_rows, open_sink, open_source, read_rows, read_text, replaced_file,
    row_format,
)

from corpora import doc_tokens

GOLDEN = Path(__file__).parent / "data" / "golden_lexicon.tsv"


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


def test_failed_open_names_the_target(tmp_path):
    target = tmp_path / "missing" / "out.tsv"
    messages = []
    for _ in range(2):
        with pytest.raises(FileNotFoundError) as info:
            with open_sink(target):
                pass
        assert info.value.filename == str(target)
        messages.append(str(info.value))
    assert str(target) in messages[0] and ".tmp" not in messages[0]
    assert messages[0] == messages[1]


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


def test_failure_through_a_symlink_keeps_the_target(tmp_path):
    # The link and its target in different directories: the temporary file
    # goes next to the target, where the rename is atomic.
    (tmp_path / "links").mkdir()
    (tmp_path / "files").mkdir()
    real = tmp_path / "files" / "real.tsv"
    real.write_text("old\n", encoding="utf-8")
    link = tmp_path / "links" / "link.tsv"
    link.symlink_to(real)
    with pytest.raises(RuntimeError, match="stop"):
        with open_sink(link, COMMENTS) as fh:
            fh.write("new\n")
            fh.flush()
            raise RuntimeError("stop")
    assert link.is_symlink()
    assert real.read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["files", "link.tsv", "links", "real.tsv"]


def test_replaced_file_follows_links_and_skips_other_nodes(tmp_path):
    real = tmp_path / "real.tsv"
    real.write_text("old\n", encoding="utf-8")
    link = tmp_path / "link.tsv"
    link.symlink_to(real)
    dangling = tmp_path / "dangling.tsv"
    dangling.symlink_to(tmp_path / "absent.tsv")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    assert replaced_file(real) == replaced_file(link) == os.path.realpath(real)
    assert replaced_file(tmp_path / "new.tsv") == os.path.realpath(tmp_path / "new.tsv")
    assert replaced_file(dangling) == os.path.realpath(tmp_path / "absent.tsv")
    assert replaced_file(fifo) is None
    assert replaced_file(os.devnull) is None


# A file with no name, opened through its /proc fd link as /dev/stdout opens
# a redirect: its real path names no file, or another one, so it is written
# in place and no stray file appears next to it.
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc fd links")
@pytest.mark.parametrize("unlinked", [True, False], ids=["deleted", "anonymous"])
def test_file_with_no_name_is_written_in_place(tmp_path, unlinked):
    named = tmp_path / "gone.tsv"
    with open(named, "w+b") if unlinked else tempfile.TemporaryFile(dir=tmp_path) as fh:
        if unlinked:
            os.unlink(named)
        link = f"/proc/self/fd/{fh.fileno()}"
        assert replaced_file(link) is None
        with open_sink(link, COMMENTS) as out:
            out.write("new\n")
        assert fh.read().decode("utf-8") == COMMENT_BLOCK + "new\n"
    assert list(tmp_path.iterdir()) == []


def test_stream_and_stdout_pass_through(capsys):
    buf = io.StringIO()
    with open_sink(buf) as fh:
        fh.write("to buffer")
    assert not buf.closed and buf.getvalue() == "to buffer"
    with open_sink(None) as fh:
        fh.write("to stdout\n")
    assert capsys.readouterr().out == "to stdout\n"


COMMENTS = [("command", "moodlex build --output out.tsv"), ("note", "a: b")]
COMMENT_BLOCK = "# command: moodlex build --output out.tsv\n# note: a: b\n"


def test_comments_come_first_in_a_new_path_and_a_symlink(tmp_path):
    new = tmp_path / "new.tsv"
    real = tmp_path / "real.tsv"
    real.write_text("old\n", encoding="utf-8")
    link = tmp_path / "link.tsv"
    link.symlink_to(real)
    for target in (new, link):
        with open_sink(target, COMMENTS) as fh:
            fh.write("row\n")
    assert new.read_text(encoding="utf-8") == COMMENT_BLOCK + "row\n"
    assert link.is_symlink()
    assert real.read_text(encoding="utf-8") == COMMENT_BLOCK + "row\n"


def test_comments_come_first_in_a_fifo(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    # A reader opened without blocking lets the write end open at once.
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with open_sink(fifo, COMMENTS) as fh:
            fh.write("row\n")
        assert os.read(reader, 1 << 16) == (COMMENT_BLOCK + "row\n").encode()
    finally:
        os.close(reader)


def test_comments_come_first_in_a_stream_and_stdout(capsys):
    buf = io.StringIO()
    with open_sink(buf, COMMENTS) as fh:
        fh.write("row\n")
    assert buf.getvalue() == COMMENT_BLOCK + "row\n"
    with open_sink(None, COMMENTS) as fh:
        fh.write("row\n")
    assert capsys.readouterr().out == COMMENT_BLOCK + "row\n"


def test_failing_comment_block_leaves_no_file(tmp_path):
    target = tmp_path / "out.tsv"
    # A lone surrogate has no UTF-8 encoding.
    with pytest.raises(UnicodeEncodeError):
        with open_sink(target, [("note", "\ud800")]):
            pytest.fail("the block ran after its comments failed")
    assert os.listdir(tmp_path) == []
    target.write_text("old\n", encoding="utf-8")
    with pytest.raises(UnicodeEncodeError):
        with open_sink(target, [("note", "\ud800")]):
            pass
    assert os.listdir(tmp_path) == ["out.tsv"]
    assert target.read_text(encoding="utf-8") == "old\n"


@pytest.mark.parametrize(
    "comments",
    [[("note", "x\nLemma#PoS\tA\tB\ngame#n\t1\t0")], [("a\rb", "c")], [("k", "v\r\n")]],
    ids=["lf-value", "cr-key", "crlf-value"],
)
def test_metadata_line_break_is_refused_before_any_write(tmp_path, comments):
    """A line break in a key or value would write extra lines, rows even,
    that the output's reader does not read back as that metadata."""
    lex = EmotionLexicon(["A", "B"], ["war#n"], [[0.5, 0.5]], provenance=comments)
    target = tmp_path / "lex.tsv"
    with pytest.raises(MoodlexError, match="^metadata line holds a line break: "):
        write_lexicon(lex, target)
    assert os.listdir(tmp_path) == []
    buf = io.StringIO()
    with pytest.raises(MoodlexError):
        write_lexicon(lex, buf)
    assert buf.getvalue() == ""
    with pytest.raises(MoodlexError):
        with open_sink(None, comments):
            pytest.fail("the block ran after its comments were refused")


@settings(max_examples=300, deadline=None)
@given(row=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=9))
@example(row=[0.0, -0.0, 5e-324, -5e-324, float("inf"), float("-inf"), float("nan")])
@example(row=[1e16, 123456789.5, 0.1 + 0.2, 1 / 3, 2.0**-1074 * 3, 1.7976931348623157e308])
def test_row_format_writes_each_float_as_format_float(row):
    assert row_format(len(row)) % tuple(row) == "\t".join(map(format_float, row))


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.text(max_size=4), st.lists(st.floats(), min_size=2, max_size=2), st.integers()
        ),
        max_size=5,
    )
)
def test_format_rows_formats_each_row_as_its_line(rows):
    line = f"%s\t{row_format(2)}\t%d\n"
    columns = [[w for w, _, _ in rows], *zip(*[v for _, v, _ in rows]), [n for _, _, n in rows]]
    assert format_rows(line, columns) == "".join(line % (w, *v, n) for w, v, n in rows)


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


def text_mode_decode_error(path, data):
    """The located message for the first line of ``data`` that does not
    decode, the lines split at \\n, \\r\\n and a lone \\r as text mode splits
    them, or ``None`` if every line decodes."""
    for lineno, line in enumerate(data.splitlines(keepends=True), 1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            return f"{exc} ({path}, line {lineno}, column {exc.start + 1})"
    return None


# Text in pieces: ASCII, 2-, 3- and 4-byte characters and every line break.
PIECES = st.sampled_from(
    ["ab", "x\t1", " ", "\u00e9", "\u20ac", "\U0001d11e", "\n", "\r\n", "\r"]
)
BAD = st.sampled_from([b"", b"\xff", b"\xc3(", b"\xe2\x82"])


@st.composite
def source_bytes(draw):
    """UTF-8 text with an optional leading BOM and an optional undecodable
    sequence, which may cut a multi-byte character off at the end."""
    data = "".join(draw(st.lists(PIECES, max_size=30))).encode("utf-8")
    bad = draw(BAD)
    at = draw(st.integers(0, len(data)))
    if draw(st.booleans()):
        at = len(data)
    return draw(st.sampled_from([b"", codecs.BOM_UTF8])) + data[:at] + bad + data[at:]


@settings(max_examples=400, deadline=None)
@given(data=source_bytes())
@example(data=b"x" * 70000 + "\u00e9\r\n".encode("utf-8") * 2 + b"y" * 70000)
@example(data=b"\r".join([b"x" * 70000] * 3) + b"z\xc3(\n")
@example(data=b"a\r\r\nb\r\r\n\r\r\n")
@example(data=b"a\r\r\nb\r\r\xff\r\n")
@example(data=b"a\nb\r")
@example(data=b"a\nb\xe2\x82\r")
@example(data=codecs.BOM_UTF8 + b"ab\xff\n")
@example(data=codecs.BOM_UTF8 + b"a\rb\r\n\xef\xbb\xbf\xe2\x82")
def test_sources_read_as_text_mode_reads(data):
    """open_source yields the lines, and read_text the text, that a
    text-mode reader gives, and records the sha256 of the bytes; a byte that
    does not decode is named as a per-line decode names it."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(moodlex.sink, "input_digests", {}):
        path = os.path.join(tmp, "in.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        message = text_mode_decode_error(path, data)
        digests = {} if message else {path: hashlib.sha256(data).hexdigest()}
        if message is None:
            with open(path, encoding="utf-8-sig") as fh:
                lines = list(fh)
            assert read_all(path) == lines
            assert moodlex.sink.input_digests == digests
            moodlex.sink.input_digests.clear()
            assert read_text(path) == "".join(lines)
        else:
            for read in read_all, read_text:
                with pytest.raises(UnicodeDecodeError) as caught:
                    read(path)
                assert str(caught.value) == message
        assert moodlex.sink.input_digests == digests


def test_source_passes_other_errors_through(tmp_path):
    path = tmp_path / "in.tsv"
    path.write_bytes(b"ok\n")
    with pytest.raises(UnicodeDecodeError, match="position 0: invalid start byte$"):
        with open_source(path):
            b"\xff".decode("utf-8")
    with pytest.raises(FileNotFoundError):
        read_all(tmp_path / "absent.tsv")


def test_open_source_hashes_every_byte_of_the_file_when_asked(tmp_path, monkeypatch):
    """The digest is of the bytes as stored, a byte order mark and CRLF line
    ends included, also when the reader stops before the end."""
    path = tmp_path / "in.txt"
    path.write_bytes(b"\xef\xbb\xbf" + b"awe#n\r\n" * 20000)
    with open_source(path) as fh:
        assert next(fh) == "awe#n\n"
    assert moodlex.sink.input_digests is None
    monkeypatch.setattr(moodlex.sink, "input_digests", {})
    with open_source(path) as fh:
        assert next(fh) == "awe#n\n"
    assert moodlex.sink.input_digests == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}


def test_read_rows_reads_a_stream_by_the_one_rule():
    """A stream's CRLF and CR line ends are line breaks too; blank lines and
    comments are skipped, a #-led line with no whitespace after the # is a
    row, and the comment lines above the first row come back as written."""
    text = "# a: b\r\n\r\n#\tc\n##v\t1\r# later\n \n#x\t\n"
    assert read_rows(io.StringIO(text)) == (["##v\t1", "#x\t"], [4, 7], ["# a: b", "#\tc"])


def _lexicon_summary(path):
    lex = read_lexicon(path)
    return lex.emotions, lex.words, lex.scores.tolist(), lex.provenance


def _corpus_summary(path):
    corpus = load_corpus(path)
    return corpus.doc_ids, corpus.votes.tolist(), doc_tokens(corpus), corpus.texts


def _gold_summary(gold):
    arrays = gold.gold, gold.labels, gold.scores, gold.covered, gold.lengths
    return gold.emotions, gold.ids, gold.sources, *(a.tolist() for a in arrays)


HEADLINES = GoldSet(
    ("FEAR",), ("#h2", "h1"), np.array([[0.2], [0.5]]), np.zeros((2, 1), dtype=bool),
    ("AFRAID",), np.ones((2, 1)), np.ones(2, dtype=np.int64), np.ones(2, dtype=np.int64),
)


# Each input reader: a small valid input, a comparable summary of what the
# reader makes of that input, and for the line-oriented readers a valid row
# that starts with "#" and may follow the input (None for the JSONL corpus).
READERS = {
    "vocabulary": (
        "awe#n\nwar#n\n", lambda p: sorted(VocabularyFilter.from_file(p)), "#tag#n"
    ),
    "lemma-table": ("surf\tn\tsurf\n", lambda p: vars(LemmaTable.from_file(p)), "#s\tn\t#s"),
    "corpus": (
        '{"id": "d1", "tokens": ["awe#n"], "votes": {"SAD": 1}}\n',
        _corpus_summary,
        None,
    ),
    "lexicon": (
        GOLDEN.read_text(encoding="utf-8"), _lexicon_summary, "#tag#n" + "\t0.125" * 8
    ),
    "mapping": ("FEAR\tAFRAID\nJOY\t-\n", EmotionMapping.from_file, "#SAD\t-"),
    "gold": (
        "id\ttext\tFEAR\nh1\tAwe of war\t0.5\n",
        lambda p: _gold_summary(load_gold(p, read_lexicon(GOLDEN))),
        "#h0\tWar\t0.1",
    ),
    "labels": (
        "h1\tFEAR\n", lambda p: _gold_summary(load_labels(p, HEADLINES)), "#h2\tFEAR"
    ),
    "score-input": ("h1\tAwe of war\n", _read_score_input, "#h2\tWar"),
}
LINE_READERS = sorted(name for name, (_, _, row) in READERS.items() if row is not None)


@pytest.mark.parametrize("reader", sorted(READERS))
def test_leading_bom_is_ignored(tmp_path, reader):
    text, read, _ = READERS[reader]
    plain = tmp_path / "plain.txt"
    plain.write_bytes(text.encode("utf-8"))
    marked = tmp_path / "marked.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert read(marked) == read(plain)


def _read_text(tmp_path, read, text):
    path = tmp_path / "in.txt"
    path.write_bytes(text.encode("utf-8"))
    return read(path)


@pytest.mark.parametrize("reader", LINE_READERS)
@pytest.mark.parametrize("extra", ["\tx", "\t"], ids=["extra-field", "trailing-tab"])
def test_field_count_error_names_the_line(tmp_path, reader, extra):
    """A row with a field too many, even an empty one after a trailing tab,
    is rejected with its path, its line and the one field-count text."""
    text, read, row = READERS[reader]
    width, lineno = row.count("\t") + 1, text.count("\n") + 2
    with pytest.raises(MoodlexError) as caught:
        _read_text(tmp_path, read, text + "\n" + row + extra + "\n")
    message = f"expected {width} tab-separated fields, got {width + 1}"
    assert str(caught.value) == f"{tmp_path / 'in.txt'}:{lineno}: {message}"


@pytest.mark.parametrize("reader", LINE_READERS)
@pytest.mark.parametrize(
    "variant",
    [
        lambda text, row: (text + row + "\n").replace("\n", "\r\n"),
        lambda text, row: text.replace("\n", "\n \t\n") + "\n" + row + "\n\n",
        lambda text, row: text + "# note\n#\n#\tx: y\n" + row + "\n# end",
    ],
    ids=["crlf", "blank-lines", "comments"],
)
def test_one_line_rule(tmp_path, reader, variant):
    """Every line-oriented reader reads CRLF line ends as LF ones and skips
    blank lines and comments, and a #-led row is a row."""
    text, read, row = READERS[reader]
    with_row = _read_text(tmp_path, read, text + row + "\n")
    assert with_row != _read_text(tmp_path, read, text)
    assert _read_text(tmp_path, read, variant(text, row)) == with_row


# Score cells from a hostile alphabet: spaces that float() and np.loadtxt
# both strip, ones that only loadtxt strips (\x1c-\x1f), NUL, underscores and
# digits that only float() reads, NaN, infinity, signs and exponents.
HOSTILE = st.sampled_from(
    [" ", "\x0b", "\x0c", "\xa0", "\u2003", "\u3000", "\x85", "\u2028", "\x1c", "\x1d",
     "\x1e", "\x1f", "\x00", "_", "+", "-", "e", "e-1", "E+0", "nan", "inf", "\u0661", "\uff10"]
)
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
FULL_WIDTH = str.maketrans("0123456789", "".join(map(chr, range(0xFF10, 0xFF1A))))


def hostile_cells(value):
    """``value`` as written, or changed by the hostile alphabet: written in
    other digits, with an underscore, sign or exponent, or with characters
    around or inside it."""
    return st.one_of(
        st.just(value),
        st.sampled_from([
            value.translate(ARABIC_INDIC), value.translate(FULL_WIDTH),
            value.replace("0", "0_0", 1), "+" + value, value + "e0",
        ]),
        st.builds(lambda pre, post: pre + value + post, HOSTILE | st.just(""), HOSTILE),
        st.builds(lambda at, c: value[:at] + c + value[at:], st.integers(0, len(value)), HOSTILE),
    )


#: Rows of two scores that sum to 1, as a lexicon's rows must.
UNIT_ROWS = [("0.5", "0.5"), ("1", "0"), ("0.25", "0.75"), ("1e-1", "9e-1"), ("-0", "1")]


@st.composite
def hostile_lexicons(draw):
    keys = st.sampled_from(["awe#n", "kill#v", "war#n", "zoo#n"])
    words = draw(st.lists(keys, min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):
        words.sort()
    lines = ["# scheme: raw", "Lemma#PoS\tA\tB"]
    for word in words:
        cells = [draw(hostile_cells(value)) for value in draw(st.sampled_from(UNIT_ROWS))]
        lines.append("\t".join([word, *cells]))
    return "".join(line + "\n" for line in lines)


#: Gold rows of two scores: on the 0-1 scale, on the 0-100 one, and out of range.
GOLD_ROWS = [("0.5", "0.25"), ("1", "0"), ("80", "5"), ("100", "-0"), ("101", "0"), ("-1", "0")]


@st.composite
def hostile_golds(draw):
    lines = ["# source: test", "id\ttext\tFEAR\tJOY"]
    for _ in range(draw(st.integers(1, 4))):
        hid = draw(st.sampled_from(["h1", "h2", "#h3"]))
        text = draw(st.sampled_from(["Awe of war", "", '"war"', "#", "a\x1cb", "a\tb"]))
        cells = [draw(hostile_cells(value)) for value in draw(st.sampled_from(GOLD_ROWS))]
        lines.append("\t".join([hid, text, *cells]))
    return "".join(line + "\n" for line in lines)


def _outcomes(read, path):
    """What ``read(path)`` gives with the scores read by ``np.loadtxt`` where
    it accepts them, and with every cell read by ``float``: each the fields
    of what it returns, arrays as bytes, or the error text."""
    outcomes = []
    loadtxt_declines = mock.patch("numpy.loadtxt", side_effect=ValueError)
    for patch in (nullcontext(), loadtxt_declines):
        with patch:
            try:
                got = read(path)
            except MoodlexError as exc:
                outcomes.append(str(exc))
                continue
        outcomes.append({
            name: (a.dtype, a.shape, a.tobytes()) if isinstance(a, np.ndarray) else a
            for name, a in vars(got).items()
        })
    return outcomes


class TestBulkReadMatchesLocateStep:
    """A lexicon or gold file whose scores one np.loadtxt call reads gives
    the result, or the error text, that reading each cell by float() gives."""

    @settings(max_examples=400, deadline=None)
    @given(content=hostile_lexicons())
    @example(content="Lemma#PoS\tA\tB\nawe#n\t0.5\x1c\t0.5\n")
    @example(content="Lemma#PoS\tA\tB\nawe#n\t0.5\t0.5\x00\n")
    @example(content="Lemma#PoS\tA\tB\nawe#n\t1_0\t0\n")
    @example(content="Lemma#PoS\tA\tB\nwar#n\t1\t0\nawe#n\t\u0661\t0\n")
    def test_lexicon(self, tmp_path_factory, content):
        path = tmp_path_factory.getbasetemp() / "hostile-lexicon.tsv"
        path.write_text(content, encoding="utf-8")
        bulk, located = _outcomes(read_lexicon, path)
        assert bulk == located

    @settings(max_examples=200, deadline=None)
    @given(content=hostile_golds())
    @example(content="id\ttext\tFEAR\tJOY\nh1\tAwe\t1_0\t0\n")
    @example(content="id\ttext\tFEAR\tJOY\nh1\ta\x1cb\t1\t0\n")
    @example(content="id\ttext\tFEAR\tJOY\nh1\tAwe\t1\t0\nh1\tWar\tx\t0\n")
    @example(content="id\ttext\tFEAR\tJOY\nh1\tAwe\tx\t0\nh2\tWar\n")
    def test_gold(self, tmp_path_factory, content):
        path = tmp_path_factory.getbasetemp() / "hostile-gold.tsv"
        path.write_text(content, encoding="utf-8")
        lex = read_lexicon(GOLDEN)
        bulk, located = _outcomes(lambda p: load_gold(p, lex), path)
        assert bulk == located

    def test_well_formed_files_skip_the_locate_step(self, tmp_path):
        gold = tmp_path / "gold.tsv"
        gold.write_text("id\ttext\tFEAR\tJOY\n#h1\tAwe of war\t80\t5\nh2\t\t0\t1\n")
        ran = AssertionError("the locate step ran")
        with mock.patch.object(moodlex.sink, "first_misfit", side_effect=ran):
            lex = read_lexicon(GOLDEN)
            load_gold(gold, lex)
        for read, path in ((read_lexicon, GOLDEN), (lambda p: load_gold(p, lex), gold)):
            bulk, located = _outcomes(read, path)
            assert bulk == located
