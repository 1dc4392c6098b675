"""In-memory spans around the calls into each layer.

The benchmark measures the layers from outside: a span is recorded in
the benchmark's own files around a call into a layer's public function
(name, start, end, the span that caused it, pass number), kept in memory
and written as JSONL when the run ends.  A layer's *self* time is its
span's duration minus what its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

__all__ = ["ROOT_SPAN", "Tracer", "layer_table"]

#: Name of the span that covers one whole pass.
ROOT_SPAN = "pass"


class Tracer:
    """Span store for one traced run; spans are plain tuples
    ``(name, start, end, parent_index, pass_number)``."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.pass_number = 0

    def add(self, name: str, start: float, end: float,
            parent: int | None) -> int:
        """Record a finished span; returns its index (a parent handle)."""
        self.spans.append((name, start, end, parent, self.pass_number))
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, parent: int | None) -> Iterator[int]:
        """Time the body.  The index is reserved up front so spans
        opened inside the body can name this one as their parent."""
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self.pass_number))
        start = time.perf_counter()
        try:
            yield index
        finally:
            self.spans[index] = (name, start, time.perf_counter(), parent,
                                 self.pass_number)

    def self_times(self) -> list[float]:
        """Duration of every span minus the duration of its children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, pass_no) in \
                    enumerate(self.spans):
                fh.write(json.dumps({
                    "span": index, "name": name, "start": start,
                    "end": end, "parent": parent, "pass": pass_no}) + "\n")


def layer_table(tracer: Tracer) -> dict[str, float]:
    """Self time per span name, in raw seconds.

    :func:`e2ebench.estimator.floor` at span granularity: a position is
    the n-th span of a name inside a pass, its cost is the minimum self
    time at that position over the traced passes, and a name's entry is
    the sum over its positions.  The :data:`ROOT_SPAN` entry is the part
    of a pass no layer span covers.  The table breaks one pass down; it
    is not on the nominal host and not compared across runs.
    """
    ordinal: dict[tuple[int, str], int] = defaultdict(int)
    best: dict[tuple[str, int], float] = {}
    for (name, _, _, _, pass_no), own in zip(tracer.spans,
                                             tracer.self_times()):
        position = (name, ordinal[pass_no, name])
        ordinal[pass_no, name] += 1
        if own < best.get(position, float("inf")):
            best[position] = own
    table: dict[str, float] = defaultdict(float)
    for (name, _), own in best.items():
        table[name] += own
    return dict(table)
