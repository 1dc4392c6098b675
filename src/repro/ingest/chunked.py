"""Chunked, vectorized tokenizer for whitespace-delimited integer files.

The seed readers in :mod:`repro.graph.io` walked files one Python string
at a time: ``str.split`` plus an ``int()`` per token, i.e. two heap
allocations and an interpreter round-trip per number.  This module reads
the file in cache-sized byte blocks (128 KiB) instead and tokenizes each
block with a handful of passes at C speed:

1. classify every byte once through a 256-entry lookup table
   (digit / whitespace / line terminator / other);
2. locate the terminators → line starts and 1-based line numbers;
3. mark where digit runs start; one ``np.add.reduceat`` of that mask
   over the line starts counts the tokens of every line;
4. evaluate all tokens at once with text-mode ``np.fromstring`` over the
   block's bytes — exact on digits and whitespace, which is all that is
   left once the lines of the next paragraph are blanked out of a copy;
   the number of values it returns is checked against the counts of
   step 3, never trusted;
5. group tokens into rows by those counts.

Lines the vectorized path cannot prove clean — any byte that is neither
digit, whitespace, nor part of a comment line, or a digit run too long
for ``int64`` — fall back to the exact per-line logic of the seed
parser, preserving its error messages, its 1-based ``path, line N``
reporting, and the strict/lenient
:class:`~repro.recovery.lenient.IngestionPolicy` contract (including
signed integers and ``1_000``-style literals, which ``int()`` accepts
but the fast path does not).  Clean rows and fallback lines are
processed in file order, so strict mode still raises *before* any later
row is delivered.

Lines end where the seed parser's text-mode read ends them: at ``\n``,
at ``\r\n`` (one terminator) and at a bare ``\r``.  Blocks are cut
after the last terminator and the partial tail line is carried into the
next block, so tokens never straddle a block boundary; a final line
without a terminator is handled by appending one.

What a block costs in memory is a multiple of the block, not of the
file: byte-sized masks, one position per token and per line, and the
token values — under 20 bytes per input byte
(``tests/ingest/test_memory_bound.py``), so about 2 MiB at the default
block size whatever is being read.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import IO, Iterator

import numpy as np

__all__ = [
    "DEFAULT_CHUNK_BYTES",
    "TokenChunk",
    "iter_adjacency_rows",
    "iter_edge_chunks",
    "iter_token_chunks",
    "scan_adjacency_stats",
]

#: Default block size fed to the tokenizer: the block and its byte-sized
#: masks stay in cache (measured faster than 1 MiB blocks), and the
#: tokenizer's temporaries stay near 2 MiB.
DEFAULT_CHUNK_BYTES = 1 << 17

# Byte classes, and the 256-entry table ``bytes.translate`` maps a block
# through.  ``_OTHER`` must stay the smallest: one ``minimum`` finds it.
_OTHER, _DIGIT, _WS, _NL = 0, 1, 2, 3
#: tab, VT, FF, space — str.split()'s ASCII set less the terminators.
_WS_BYTES = bytes((9, 11, 12, 32))
_CLASS_TABLE = bytes(
    _DIGIT if b in b"0123456789" else _WS if b in _WS_BYTES
    else _NL if b in b"\n\r" else _OTHER for b in range(256))

#: Digit runs longer than this may overflow ``int64`` and are routed to
#: the ``int()`` fallback instead.
_MAX_FAST_DIGITS = 18
#: Eight ``True`` bytes of a boolean mask, read as one word.
_EIGHT_DIGITS = np.uint64(0x0101010101010101)

_HASH, _PERCENT, _SLASH, _SPACE = ord("#"), ord("%"), ord("/"), ord(" ")
_COMMENT_PREFIXES = ("#", "%", "//")


def _open_binary(path: str | Path) -> IO[bytes]:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


class TokenChunk:
    """All clean-row tokens of one block, plus fallback lines.

    Attributes
    ----------
    values:
        ``int64`` token values of every clean row, row-major.
    row_splits:
        CSR-style splits into ``values``: row ``r`` holds
        ``values[row_splits[r]:row_splits[r+1]]``.
    line_numbers:
        1-based file line number of each clean row.
    bad_lines:
        ``(line_number, raw_text)`` for every line the vectorized parse
        could not prove clean, in file order.  ``raw_text`` ends in
        ``\n`` whatever terminated the line, so fallback error messages
        match the seed parser byte-for-byte.
    num_lines:
        Lines in the block, blank and comment lines included.
    """

    __slots__ = ("values", "row_splits", "line_numbers", "bad_lines",
                 "num_lines", "_buf", "_line_starts", "_nl_pos",
                 "_base_line")

    def __init__(self, values: np.ndarray, row_splits: np.ndarray,
                 line_numbers: np.ndarray,
                 bad_lines: list[tuple[int, str]], *,
                 buf: bytes, line_starts: np.ndarray, nl_pos: np.ndarray,
                 base_line: int) -> None:
        self.values = values
        self.row_splits = row_splits
        self.line_numbers = line_numbers
        self.bad_lines = bad_lines
        self.num_lines = len(nl_pos)
        self._buf = buf
        self._line_starts = line_starts
        self._nl_pos = nl_pos
        self._base_line = base_line

    @property
    def num_rows(self) -> int:
        return len(self.row_splits) - 1

    def row(self, r: int) -> np.ndarray:
        """Zero-copy token view of clean row ``r``."""
        return self.values[self.row_splits[r]:self.row_splits[r + 1]]

    def raw_line(self, lineno: int) -> str:
        """Original text of 1-based file line ``lineno`` (with newline)."""
        i = lineno - self._base_line
        return _line_text(self._buf, self._line_starts[i], self._nl_pos[i])


def _line_text(buf: bytes, start: int, end: int) -> str:
    """Line ``buf[start:end]``, ``end`` at its terminator, as the seed
    parser's text-mode read delivers it: the terminator folded to
    ``\n``, undecodable bytes replaced (the seed parser refuses those
    files outright)."""
    line = buf[start:end]
    if line.endswith(b"\r"):  # only ever the first half of a '\r\n'
        line = line[:-1]
    return (line + b"\n").decode("utf-8", errors="replace")


def _is_comment(text: str) -> bool:
    """The seed parser's test for a line it skips."""
    stripped = text.lstrip()
    return not stripped or stripped.startswith(_COMMENT_PREFIXES)


def _iter_blocks(path: str | Path, chunk_bytes: int) -> Iterator[bytes]:
    """Yield the file as blocks that end on a line terminator."""
    if chunk_bytes < 1:
        raise ValueError("chunk_bytes must be >= 1")
    carry = b""
    with _open_binary(path) as fh:
        while True:
            block = fh.read(chunk_bytes)
            if not block:
                break
            data = carry + block
            # A '\r' in the last byte may be the first half of a '\r\n'
            # whose '\n' has not been read yet: it stays in the carry.
            cut = max(data.rfind(b"\n"),
                      data.rfind(b"\r", 0, len(data) - 1))
            if cut < 0:
                carry = data
                continue
            yield data[:cut + 1]
            carry = data[cut + 1:]
    if carry:
        yield carry + b"\n"


def _tokenize_block(buf: bytes, base_line: int) -> TokenChunk:
    """Vectorized tokenization of one terminator-aligned block."""
    # A same-length rewrite, so every offset below is an offset into
    # ``buf`` too: '\r\n' becomes ' \n', and any '\r' still standing
    # is a terminator of its own.
    text = buf.replace(b"\r\n", b" \n") if b"\r" in buf else buf
    data = np.frombuffer(text, dtype=np.uint8)
    cls = np.frombuffer(text.translate(_CLASS_TABLE), dtype=np.uint8)
    nl_pos = np.flatnonzero(cls == _NL)
    n_lines = len(nl_pos)
    line_starts = np.empty(n_lines, dtype=np.int64)
    line_starts[0] = 0
    np.add(nl_pos[:-1], 1, out=line_starts[1:])

    # ``drop``: lines whose bytes must not reach the evaluator; ``bad``:
    # those of them the per-line parser has to see.
    drop = np.zeros(n_lines, dtype=bool)
    bad = np.zeros(n_lines, dtype=bool)
    if cls.min() == _OTHER:
        # A comment marker is neither digit nor whitespace, so only a
        # line holding such a byte can be a comment or malformed (signs,
        # letters, floats, invalid encodings, ...).
        drop = np.minimum.reduceat(cls, line_starts) == _OTHER
        suspects = np.flatnonzero(drop)
        starts = line_starts[suspects]
        first = data[starts]
        # + 1 is in range: the line's own terminator follows at the latest.
        comment = (first == _HASH) | (first == _PERCENT) | (
            (first == _SLASH) & (data[starts + 1] == _SLASH))
        # Indented or malformed: the seed parser's own test decides.
        for i in suspects[~comment].tolist():
            if not _is_comment(_line_text(buf, line_starts[i], nl_pos[i])):
                bad[i] = True

    # Tokens are maximal digit runs; a run starts at a digit that does
    # not follow one.  int32 holds a line's token count unless the block
    # is a single line of gigabytes.
    is_digit = cls == _DIGIT
    tok_mask = np.empty_like(is_digit)
    tok_mask[0] = is_digit[0]
    np.greater(is_digit[1:], is_digit[:-1], out=tok_mask[1:])
    counts = np.add.reduceat(
        tok_mask, line_starts,
        dtype=np.int32 if len(buf) < 2 ** 31 else np.int64)
    # A run of more than 18 digits may overflow int64: punt its line to
    # int().  Such a run covers an aligned 8-byte word whole, which is a
    # cheap thing to rule out; only a block that has one is searched.
    words = is_digit[:len(buf) & ~7].view(np.uint64)
    if (words == _EIGHT_DIGITS).any():
        # Runs are separated by at least one byte, so a run that long has
        # its successor (or the block's end) 20 bytes on or more; for
        # those, the byte 18 past the start says if the run got that far.
        tok_start = np.flatnonzero(tok_mask)
        wide = np.flatnonzero(
            np.diff(tok_start, append=len(buf)) > _MAX_FAST_DIGITS + 1)
        wide = tok_start[wide]
        wide = wide[cls[wide + _MAX_FAST_DIGITS] == _DIGIT]
        lines = np.searchsorted(nl_pos, wide)
        bad[lines] |= ~drop[lines]  # a comment may hold any digits
        drop[lines] = True
    del is_digit, tok_mask, words

    counts[drop] = 0
    expected = int(counts.sum())
    values = np.empty(0, dtype=np.int64)
    if expected:
        if drop.any():
            scratch = data.copy()
            scratch[np.repeat(drop, nl_pos - line_starts + 1)] = _SPACE
            text = scratch.tobytes()
            del scratch
        values = np.fromstring(text, dtype=np.int64, sep=" ")
        if len(values) != expected:
            # Not the tokens the bytes prove: believe none of them and
            # let the per-line parser read every row of the block.
            values = values[:0]
            bad |= counts > 0
            counts[:] = 0

    row_lines = np.flatnonzero(counts)
    row_splits = np.zeros(len(row_lines) + 1, dtype=np.int64)
    np.cumsum(counts[row_lines], out=row_splits[1:])
    bad_lines = [
        (base_line + i, _line_text(buf, line_starts[i], nl_pos[i]))
        for i in np.flatnonzero(bad).tolist()]
    return TokenChunk(values, row_splits, row_lines + base_line, bad_lines,
                      buf=buf, line_starts=line_starts, nl_pos=nl_pos,
                      base_line=base_line)


def iter_token_chunks(path: str | Path, *,
                      chunk_bytes: int = DEFAULT_CHUNK_BYTES
                      ) -> Iterator[TokenChunk]:
    """Tokenize ``path`` block by block (format-agnostic layer)."""
    base_line = 1
    for buf in _iter_blocks(path, chunk_bytes):
        chunk = _tokenize_block(buf, base_line)
        yield chunk
        base_line += chunk.num_lines


def _segments(chunk: TokenChunk):
    """Split a chunk into file-ordered events around fallback lines.

    Yields ``("rows", values, row_splits, line_numbers, chunk)`` for
    maximal runs of clean rows and ``("bad", line_number, raw)`` for
    fallback lines, interleaved exactly as they appear in the file — strict-mode
    errors therefore fire before any later row is delivered, and lenient
    error budgets are charged in file order.
    """
    if not chunk.bad_lines:
        if chunk.num_rows:
            yield ("rows", chunk.values, chunk.row_splits,
                   chunk.line_numbers, chunk)
        return
    cuts = np.searchsorted(chunk.line_numbers,
                           [lineno for lineno, _ in chunk.bad_lines])
    prev = 0
    for (lineno, raw), cut in zip(chunk.bad_lines, cuts):
        if cut > prev:
            base = chunk.row_splits[prev]
            yield ("rows",
                   chunk.values[base:chunk.row_splits[cut]],
                   chunk.row_splits[prev:cut + 1] - base,
                   chunk.line_numbers[prev:cut], chunk)
            prev = cut
        yield ("bad", lineno, raw)
    if chunk.num_rows > prev:
        base = chunk.row_splits[prev]
        yield ("rows", chunk.values[base:],
               chunk.row_splits[prev:] - base,
               chunk.line_numbers[prev:], chunk)


def iter_row_events(path: str | Path, *,
                    chunk_bytes: int = DEFAULT_CHUNK_BYTES):
    """Flattened :func:`_segments` over every chunk of ``path``."""
    for chunk in iter_token_chunks(path, chunk_bytes=chunk_bytes):
        yield from _segments(chunk)


# ----------------------------------------------------------------------
# Fallback line handlers — the seed parser's exact per-line semantics.
# ----------------------------------------------------------------------
def parse_adjacency_line(path: str | Path, lineno: int, raw: str,
                         policy) -> tuple[int, np.ndarray] | None:
    """Parse one fallback line with the seed adjacency semantics.

    Returns the parsed ``(vertex, neighbors)`` when the line is actually
    valid (``int()`` accepts signs and ``_`` separators the fast path
    rejects), ``None`` when the line was quarantined, and raises for
    strict mode / blown error budgets.
    """
    try:
        parts = raw.split()
        vertex = int(parts[0])
        if vertex < 0:
            raise ValueError(f"negative vertex id {vertex}")
        neighbors = np.asarray([int(p) for p in parts[1:]],
                               dtype=np.int64)
        if len(neighbors) and neighbors.min() < 0:
            raise ValueError(
                f"negative neighbor id {int(neighbors.min())}")
    except ValueError as exc:
        if policy is None:
            raise ValueError(f"{path}, line {lineno}: {exc}") from exc
        policy.handle(path, lineno, raw, exc)
        return None
    return vertex, neighbors


def parse_edge_line(path: str | Path, lineno: int, raw: str,
                    policy) -> tuple[int, int] | None:
    """Parse one fallback line with the seed edge-list semantics."""
    try:
        parts = raw.split()
        if len(parts) < 2:
            raise ValueError(f"malformed edge line: {raw!r}")
        source, target = int(parts[0]), int(parts[1])
        if source < 0 or target < 0:
            # The seed reader hits this inside GraphBuilder.add_edge,
            # within its try block — so strict/lenient routing (and the
            # message) must match here too.
            raise ValueError("vertex ids must be non-negative")
        return source, target
    except ValueError as exc:
        if policy is None:
            raise ValueError(f"{path}, line {lineno}: {exc}") from exc
        policy.handle(path, lineno, raw, exc)
        return None


# ----------------------------------------------------------------------
# Format-aware iterators
# ----------------------------------------------------------------------
def iter_adjacency_rows(path: str | Path, *, policy=None,
                        chunk_bytes: int = DEFAULT_CHUNK_BYTES
                        ) -> Iterator[tuple[int, np.ndarray]]:
    """Stream ``(vertex, out-neighbors)`` rows via the chunked tokenizer.

    Drop-in replacement for the seed line-by-line
    ``iter_adjacency_lines``: same yield order, same strict/lenient
    behavior, same 1-based error locations; neighbor arrays are
    zero-copy ``int64`` views into the chunk's token buffer.
    """
    if policy is not None:
        policy.begin_scan(path)
    for event in iter_row_events(path, chunk_bytes=chunk_bytes):
        if event[0] == "rows":
            _, values, splits, _linenos, _chunk = event
            # Python ints, once per segment: slicing with numpy scalars
            # would convert two of them for every row.
            bounds = splits.tolist()
            vertices = values[splits[:-1]].tolist()
            for vertex, lo, hi in zip(vertices, bounds, bounds[1:]):
                yield vertex, values[lo + 1:hi]
        else:
            parsed = parse_adjacency_line(path, event[1], event[2], policy)
            if parsed is not None:
                yield parsed


def iter_edge_chunks(path: str | Path, *, policy=None,
                     chunk_bytes: int = DEFAULT_CHUNK_BYTES
                     ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(sources, targets)`` array pairs from an edge-list file.

    Rows with a single column are malformed (seed behavior); columns
    past the second are ignored, exactly like the seed reader.
    """
    if policy is not None:
        policy.begin_scan(path)
    for event in iter_row_events(path, chunk_bytes=chunk_bytes):
        if event[0] == "rows":
            _, values, splits, linenos, chunk = event
            firsts = splits[:-1]
            counts = np.diff(splits)
            short = counts < 2
            if short.any():
                # Rare mixed segment: per-row fallback keeps the error
                # (or quarantine) ordering identical to the seed reader.
                src_parts: list[int] = []
                dst_parts: list[int] = []
                for r in range(len(counts)):
                    if short[r]:
                        raw = chunk.raw_line(int(linenos[r]))
                        parsed = parse_edge_line(path, int(linenos[r]),
                                                 raw, policy)
                        if parsed is None:
                            continue
                        src_parts.append(parsed[0])
                        dst_parts.append(parsed[1])
                    else:
                        src_parts.append(int(values[splits[r]]))
                        dst_parts.append(int(values[splits[r] + 1]))
                yield (np.asarray(src_parts, dtype=np.int64),
                       np.asarray(dst_parts, dtype=np.int64))
            else:
                yield values[firsts], values[firsts + 1]
        else:
            parsed = parse_edge_line(path, event[1], event[2], policy)
            if parsed is not None:
                yield (np.asarray([parsed[0]], dtype=np.int64),
                       np.asarray([parsed[1]], dtype=np.int64))


def scan_adjacency_stats(path: str | Path, *, policy=None,
                         chunk_bytes: int = DEFAULT_CHUNK_BYTES
                         ) -> tuple[int, int, bool, int]:
    """One chunked pass collecting ``(max_id, num_edges, ordered, rows)``.

    The vectorized twin of the :class:`~repro.graph.stream.FileStream`
    constructor pre-scan: ``max_id`` is the largest vertex/neighbor id
    seen (``-1`` for an empty file), ``num_edges`` the total neighbor
    count, ``ordered`` whether row vertex ids are strictly increasing,
    and ``rows`` the number of adjacency records.
    """
    if policy is not None:
        policy.begin_scan(path)
    max_id = -1
    num_edges = 0
    num_rows = 0
    ordered = True
    prev = -1
    for event in iter_row_events(path, chunk_bytes=chunk_bytes):
        if event[0] == "rows":
            _, values, splits, _linenos, _chunk = event
            if not len(values):
                continue
            vertices = values[splits[:-1]]
            max_id = max(max_id, int(values.max()))
            num_edges += int(len(values) - (len(splits) - 1))
            num_rows += len(splits) - 1
            if ordered:
                if int(vertices[0]) <= prev or (
                        len(vertices) > 1
                        and (np.diff(vertices) <= 0).any()):
                    ordered = False
            prev = int(vertices[-1])
        else:
            parsed = parse_adjacency_line(path, event[1], event[2], policy)
            if parsed is None:
                continue
            vertex, neighbors = parsed
            num_rows += 1
            max_id = max(max_id, vertex,
                         int(neighbors.max()) if len(neighbors) else -1)
            num_edges += len(neighbors)
            if vertex <= prev:
                ordered = False
            prev = vertex
    return max_id, num_edges, ordered, num_rows
