"""Differential fuzz: the chunked tokenizer against the line-by-line parser.

Hypothesis writes adjacency text out of everything the format allows and
the things real dumps get wrong — ``#``/``%``/``//`` comments, indented
comments and rows, blank and whitespace-only lines, tabs, all three
line terminators (``\n``, ``\r\n`` and a bare ``\r``, which text mode
ends a line at wherever it stands — between two tokens too), ``+5`` and
``1_000`` (which ``int()`` accepts), leading zeros, 18- to 23-digit
tokens on both sides of ``int64``, a lone ``/``, bytes that are not
UTF-8, a last line without its terminator — and reads it with
``engine="python"`` and with the tokenizer at block sizes from one byte
up.  Rows, the strict error (type, text, 1-based line), the lenient
quarantine file and error count, the pre-scan's totals and the CSR
arrays ``read_adjacency`` builds must be the same.

One deliberate difference is normalised away: the python engine opens
the file as UTF-8 text and refuses a file with an undecodable byte
anywhere, while the tokenizer decodes only the lines it cannot prove
clean, with ``errors="replace"``.  The reference therefore reads the
same path rewritten through that same replacement.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.io import iter_adjacency_lines, read_adjacency
from repro.ingest.chunked import (
    DEFAULT_CHUNK_BYTES,
    iter_adjacency_rows,
    scan_adjacency_stats,
)
from repro.recovery.lenient import IngestionPolicy

_gap = st.sampled_from([b" ", b" ", b" ", b"\t", b"  ", b" \t ", b"\x0b",
                        b"\x0c", b"\r", b" \r "])
_indent = st.sampled_from([b"", b"", b"", b" ", b"\t", b"   "])
_tail = st.sampled_from([b"", b"", b" ", b"\t", b"\r", b" \r"])

_number = st.one_of(
    st.integers(0, 40).map(lambda v: str(v).encode()),
    st.integers(0, 10 ** 6).map(lambda v: str(v).encode()),
    st.sampled_from([
        b"007", b"0", b"00",
        b"000000000000000012",    # 18 digits, most of them zeros
        b"00000000000000000000012",   # 23: off the fast path, fits
        b"999999999999999999",    # 18 digits: the fast path's widest
        b"1000000000000000000",   # 19 digits, fits int64
        b"9223372036854775807",   # int64 max
        b"9223372036854775808",   # one past it
        b"99999999999999999999",  # 20 digits
    ]))
_odd_token = st.sampled_from([
    b"+5", b"1_000", b"-3", b"-0", b"1__0", b"_1", b"1.5", b"abc", b"0x10",
    b"/", b"#", b"\xff", b"\xc3", b"7\xff", "é".encode(),
])
_token = st.one_of(_number, _number, _number, _odd_token)


@st.composite
def _row(draw):
    tokens = draw(st.lists(_token, min_size=1, max_size=5))
    gaps = [draw(_gap) for _ in tokens[1:]]
    body = tokens[0] + b"".join(g + t for g, t in zip(gaps, tokens[1:]))
    return draw(_indent) + body + draw(_tail)


@st.composite
def _clean_row(draw):
    """A well-formed row; most of a realistic file."""
    tokens = draw(st.lists(_number, min_size=1, max_size=5))
    return draw(_indent) + b" ".join(tokens) + draw(_tail)


_comment_text = st.lists(
    st.sampled_from([b" ", b"x", b"12", b"#", b"/", b"\t", b"\xff",
                     b"12345678901234567890"]),
    max_size=4).map(b"".join)


@st.composite
def _comment(draw):
    marker = draw(st.sampled_from([b"#", b"%", b"//"]))
    return draw(_indent) + marker + draw(_comment_text) + draw(_tail)


_blank = st.sampled_from([b"", b" ", b"\t ", b"\r", b" \r"])
_slash = st.sampled_from([b"/", b"/ 1 2", b" /", b"/#", b"/ /", b"1 /"])

_line = st.one_of(_clean_row(), _clean_row(), _clean_row(), _row(),
                  _comment(), _blank, _slash)


_terminator = st.sampled_from([b"\n", b"\n", b"\n", b"\r\n", b"\r"])


@st.composite
def adjacency_bytes(draw):
    lines = draw(st.one_of(
        st.lists(_line, max_size=12),
        st.lists(_comment(), min_size=1, max_size=6)))  # nothing to parse
    text = b"".join(line + draw(_terminator) for line in lines)
    if lines and draw(st.booleans()):
        text = text[:-1]  # no last terminator, or half of a '\r\n'
    return text


def _outcome(fn):
    """What a consumer can observe of ``fn()``: its value or its error."""
    try:
        return ("ok", fn())
    except Exception as exc:  # compared, not swallowed
        return ("raised", type(exc).__name__, str(exc))


def _rows(events):
    return [(int(v), [int(u) for u in nbrs]) for v, nbrs in events]


def _strict(path, reader):
    return _outcome(lambda: _rows(reader(path, None)))


def _lenient(path, reader, tmp, budget):
    qpath = tmp / "quarantine.log"
    qpath.unlink(missing_ok=True)
    policy = IngestionPolicy("lenient", quarantine=qpath, max_errors=budget)
    try:
        rows = _outcome(lambda: _rows(reader(path, policy)))
    finally:
        policy.close()
    log = qpath.read_bytes() if qpath.exists() else b""
    return rows, log, policy.errors_total


def _stats_of(rows):
    max_id, edges, ordered, prev = -1, 0, True, -1
    for vertex, neighbors in rows:
        max_id = max(max_id, vertex, *neighbors)
        edges += len(neighbors)
        ordered = ordered and vertex > prev
        prev = vertex
    return max_id, edges, ordered, len(rows)


def _python(path, policy):
    return iter_adjacency_lines(path, policy=policy, engine="python")


def _csr(path, engine):
    """The built graph, which the bulk reader assembles from whole
    token segments rather than from the rows compared above."""
    def build():
        graph = read_adjacency(path, engine=engine)
        return graph.indptr.tobytes(), graph.indices.tobytes()
    return _outcome(build)


CHUNK_SIZES = (1, 7, 64, DEFAULT_CHUNK_BYTES)


def _assert_engines_agree(text: bytes, tmp: Path, budget: int) -> None:
    path = tmp / "g.adj"
    path.write_bytes(text.decode("utf-8", errors="replace").encode("utf-8"))
    strict = _strict(path, _python)
    lenient = _lenient(path, _python, tmp, budget)
    stats = ("ok", _stats_of(strict[1])) if strict[0] == "ok" else strict
    csr = _csr(path, "python")

    path.write_bytes(text)
    assert _csr(path, "chunked") == csr
    for chunk_bytes in CHUNK_SIZES:
        def chunked(p, policy):
            return iter_adjacency_rows(p, policy=policy,
                                       chunk_bytes=chunk_bytes)
        assert _strict(path, chunked) == strict, chunk_bytes
        assert _lenient(path, chunked, tmp, budget) == lenient, chunk_bytes
        assert _outcome(lambda: scan_adjacency_stats(
            path, chunk_bytes=chunk_bytes)) == stats, chunk_bytes


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=adjacency_bytes(), budget=st.sampled_from([0, 1, 100]))
def test_tokenizer_matches_line_parser(text, budget):
    with tempfile.TemporaryDirectory() as tmp:
        _assert_engines_agree(text, Path(tmp), budget)


@pytest.mark.parametrize("text", [
    b"",                                  # empty file
    b"\n\n",                              # only blank lines
    b"# only a comment",                  # no newline at all
    b"0 1\n\n",                           # block ends on a blank line
    b"/",                                 # lone slash, last byte of file
    b"/\n//\n/",                          # slash lines in every position
    b"  # indented comment 12\n \t// 3\n   % 4\n  5 6\n",
    b"1 2\r\n\r\n# c\r\n3\r\n",           # CRLF throughout
    b"1 x\r\n2 3\r\n",                    # ... around a malformed line
    b"0 99999999999999999999\n",          # 20 digits: overflows either way
    b"999999999999999999\n",              # lone 18-digit row: the id-space
                                          # guard refuses it before indptr
    b"99999999999999999999\n",            # ... and a 20-digit one, which
                                          # only int() can read
    b"# 99999999999999999999\n0 1\n",     # ... but not inside a comment
    b"0 \xff\n1 2\n",                     # not UTF-8, in a row
    b"# \xff\n1 2\n",                     # not UTF-8, in a comment
    b"0 1\r2 3\r",                        # bare CR ends a line ...
    b"0 1\r2 3",                          # ... also between two tokens
    b"0 1\r\r\n2 3\n\r4",                 # CR, CRLF, LF, CR: five lines
    b"\r",                                # one empty line
    b"1 x\r2 y\r\n3 4\r",                 # quarantined text loses its CR
    b"# c\r  // d\r1 2\r",                # comments end at a CR too
    b"# a\n% b\n  // c\n#\n",             # nothing but comments
    b"1 2\n3 999999999999999999 4\n5 6\n",        # 18 digits: fast path
    b"1 2\n3 1000000000000000000 4\n5 6\n",       # 19: blanked, int()
    b"1 2\n3 0000000000000000000007 4\n5 6\n",    # 22 that spell 7
    b"1 2\n# 99999999999999999999\n3 +4\n5 6\n",  # blanked side by side
    b"1 2\n3 99999999999999999999\n5 6\n",        # 20: overflows after 1 2
])
def test_corner_files(text, tmp_path):
    _assert_engines_agree(text, tmp_path, 100)
