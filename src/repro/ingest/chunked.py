"""Chunked, vectorized tokenizer for whitespace-delimited integer files.

The seed readers in :mod:`repro.graph.io` walked files one Python string
at a time: ``str.split`` plus an ``int()`` per token, i.e. two heap
allocations and an interpreter round-trip per number.  This module reads
the file in megabyte byte blocks instead and tokenizes each block with a
handful of NumPy passes:

1. classify every byte once through a 256-entry lookup table
   (digit / whitespace / newline / other);
2. locate newline positions → line starts and 1-based line numbers, and
   count the newlines before every byte, so any byte's line is one
   lookup (no sorted search anywhere below);
3. locate digit runs → token ``[start, end)`` spans;
4. evaluate all tokens at once: ``digit · 10^(end-1-i)`` per byte,
   reduced per run with ``np.add.reduceat``;
5. group tokens into rows by the line each token starts on.

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

Blocks are cut at the last newline and the partial tail line is carried
into the next block, so tokens never straddle a block boundary; a final
line without a trailing newline is handled by appending one.
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

#: Default block size fed to the tokenizer.  Large enough to amortize
#: the fixed per-block NumPy pass cost, small enough that the prefetch
#: reader's double buffer stays cache- and memory-friendly.
DEFAULT_CHUNK_BYTES = 1 << 20

# Byte classes, and the 256-entry table ``bytes.translate`` maps a block
# through.
_OTHER, _DIGIT, _WS, _NL = 0, 1, 2, 3
#: tab, VT, FF, CR, space — str.split()'s set.
_WS_BYTES = bytes((9, 11, 12, 13, 32))
_CLASS_TABLE = bytes(
    _DIGIT if b in b"0123456789" else _WS if b in _WS_BYTES
    else _NL if b == 10 else _OTHER for b in range(256))

#: ``10**e`` for every in-range int64 exponent; token runs longer than 18
#: digits can overflow and are routed to the ``int()`` fallback instead.
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_MAX_FAST_DIGITS = 18

_HASH, _PERCENT, _SLASH = ord("#"), ord("%"), ord("/")


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
        could not prove clean, in file order.  ``raw_text`` keeps its
        trailing newline so fallback error messages match the seed
        parser byte-for-byte.
    """

    __slots__ = ("values", "row_splits", "line_numbers", "bad_lines",
                 "_buf", "_line_starts", "_nl_pos", "_base_line")

    def __init__(self, values: np.ndarray, row_splits: np.ndarray,
                 line_numbers: np.ndarray,
                 bad_lines: list[tuple[int, str]], *,
                 buf: bytes, line_starts: np.ndarray, nl_pos: np.ndarray,
                 base_line: int) -> None:
        self.values = values
        self.row_splits = row_splits
        self.line_numbers = line_numbers
        self.bad_lines = bad_lines
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
        return _decode_line(
            self._buf[self._line_starts[i]:self._nl_pos[i] + 1])


def _decode_line(raw: bytes) -> str:
    """A newline-terminated fallback line as the seed parser's text-mode
    read delivers it: ``\\r\\n`` folded to ``\\n``, undecodable bytes
    replaced (the seed parser refuses those files outright)."""
    if raw.endswith(b"\r\n"):
        raw = raw[:-2] + b"\n"
    return raw.decode("utf-8", errors="replace")


def _iter_blocks(path: str | Path,
                 chunk_bytes: int) -> Iterator[tuple[bytes, int]]:
    """Yield ``(block, first_line_number)`` with newline-aligned blocks."""
    if chunk_bytes < 1:
        raise ValueError("chunk_bytes must be >= 1")
    base_line = 1
    carry = b""
    with _open_binary(path) as fh:
        while True:
            block = fh.read(chunk_bytes)
            if not block:
                break
            data = carry + block
            cut = data.rfind(b"\n")
            if cut < 0:
                carry = data
                continue
            buf = data[:cut + 1]
            yield buf, base_line
            base_line += buf.count(b"\n")
            carry = data[cut + 1:]
    if carry:
        yield carry + b"\n", base_line


def _tokenize_block(buf: bytes, base_line: int) -> TokenChunk:
    """Vectorized tokenization of one newline-terminated block."""
    data = np.frombuffer(buf, dtype=np.uint8)
    cls = np.frombuffer(buf.translate(_CLASS_TABLE), dtype=np.uint8)
    is_nl = cls == _NL
    nl_pos = np.flatnonzero(is_nl)
    n_lines = len(nl_pos)
    line_starts = np.empty(n_lines, dtype=np.int64)
    if n_lines:
        line_starts[0] = 0
        line_starts[1:] = nl_pos[:-1] + 1
    # Newlines at or before each byte: for any byte but a newline, the
    # 0-based index of its line.  Every byte -> line lookup reads this.
    line_of = is_nl.astype(np.int32 if len(buf) < 2 ** 31 else np.int64)
    np.cumsum(line_of, out=line_of)

    # Comment lines: first significant (non-ws) byte is '#', '%', or "//".
    # A line that opens with a digit is a row and one that opens with any
    # other significant byte is decided by that byte; only a line that
    # opens with whitespace has to be searched.
    first_byte = data[line_starts]
    comment_mask = (first_byte == _HASH) | (first_byte == _PERCENT)
    slashed = np.flatnonzero(first_byte == _SLASH)
    if len(slashed):
        # + 1 is in range: the line's own '\n' follows at the latest.
        double = data[line_starts[slashed] + 1] == _SLASH
        comment_mask[slashed[double]] = True
    indented = np.flatnonzero(cls[line_starts] == _WS)
    for i, start, end in zip(indented.tolist(),
                             line_starts[indented].tolist(),
                             nl_pos[indented].tolist()):
        head = buf[start:end].lstrip(_WS_BYTES)
        if head[:1] in (b"#", b"%") or head[:2] == b"//":
            comment_mask[i] = True

    # Bad lines: any non-comment line holding a byte outside
    # digit/whitespace (signs, letters, floats, invalid encodings, ...).
    bad_mask = np.zeros(n_lines, dtype=bool)
    other_pos = np.flatnonzero(cls == _OTHER)
    if len(other_pos):
        bad_mask[line_of[other_pos]] = True

    # Token spans: maximal digit runs.
    is_digit = cls == _DIGIT
    shifted = np.empty_like(is_digit)
    shifted[0] = False
    shifted[1:] = is_digit[:-1]
    tok_start = np.flatnonzero(is_digit & ~shifted)
    shifted[-1] = False
    shifted[:-1] = is_digit[1:]
    tok_end = np.flatnonzero(is_digit & ~shifted) + 1
    lengths = tok_end - tok_start
    too_long = lengths > _MAX_FAST_DIGITS
    if too_long.any():  # may overflow int64: punt to int() per line
        bad_mask[line_of[tok_start[too_long]]] = True
    bad_mask &= ~comment_mask

    if len(tok_start):
        digit_pos = np.flatnonzero(is_digit)
        digits = (data[digit_pos] - 48).astype(np.int64)
        exp = np.repeat(tok_end, lengths)
        np.subtract(exp, 1, out=exp)
        np.subtract(exp, digit_pos, out=exp)
        np.minimum(exp, _MAX_FAST_DIGITS, out=exp)  # clamp over-long runs
        np.multiply(digits, _POW10[exp], out=digits)
        # Tokens are digit runs, so token t's first digit sits in
        # ``digits`` at the total length of the tokens before it.
        first_digit = np.zeros(len(lengths), dtype=np.int64)
        np.cumsum(lengths[:-1], out=first_digit[1:])
        values = np.add.reduceat(digits, first_digit)
        tok_line = line_of[tok_start]
        keep = ~(bad_mask | comment_mask)[tok_line]
        values = values[keep]
        tok_line = tok_line[keep]
    else:
        values = np.empty(0, dtype=np.int64)
        tok_line = np.empty(0, dtype=np.int64)

    counts = np.bincount(tok_line, minlength=n_lines) if len(tok_line) \
        else np.zeros(n_lines, dtype=np.int64)
    row_lines = np.flatnonzero(counts)
    row_splits = np.zeros(len(row_lines) + 1, dtype=np.int64)
    np.cumsum(counts[row_lines], out=row_splits[1:])
    line_numbers = row_lines + base_line

    bad_lines: list[tuple[int, str]] = []
    for i in np.flatnonzero(bad_mask):
        bad_lines.append((int(base_line + i),
                          _decode_line(buf[line_starts[i]:nl_pos[i] + 1])))
    return TokenChunk(values, row_splits, line_numbers, bad_lines,
                      buf=buf, line_starts=line_starts, nl_pos=nl_pos,
                      base_line=base_line)


def iter_token_chunks(path: str | Path, *,
                      chunk_bytes: int = DEFAULT_CHUNK_BYTES
                      ) -> Iterator[TokenChunk]:
    """Tokenize ``path`` block by block (format-agnostic layer)."""
    for buf, base_line in _iter_blocks(path, chunk_bytes):
        yield _tokenize_block(buf, base_line)


def _segments(chunk: TokenChunk):
    """Split a chunk into file-ordered events around fallback lines.

    Yields ``("rows", values, row_splits, line_numbers)`` for maximal
    runs of clean rows and ``("bad", line_number, raw)`` for fallback
    lines, interleaved exactly as they appear in the file — strict-mode
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
