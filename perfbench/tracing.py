"""In-memory spans around calls into the program's layers.

A span is ``(name, start, end, parent, request id)``; ``parent`` is the
index of the enclosing span (-1 for an operation's root) and a child
inherits its parent's request id.  Spans stay in a list until the run
ends and are then written out as JSON lines.  A layer's *self time* is a
span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, rid: object = None) -> Iterator[int]:
        parent = self._stack[-1] if self._stack else -1
        if rid is None and parent >= 0:
            rid = self.spans[parent][4]
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent, rid]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def duration(self, index: int) -> float:
        _, start, end, _, _ = self.spans[index]
        return end - start

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def durations_ms(self, name: str) -> list[float]:
        return [(end - start) * 1e3 for n, start, end, _, _ in self.spans if n == name]

    def coverage(self, root: str = "op") -> list[float]:
        """Per operation: the share of its latency inside child spans."""
        own = self.self_times()
        shares = []
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            if name == root and parent < 0 and end > start:
                shares.append(1.0 - own[index] / (end - start))
        return shares

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total and self milliseconds."""
        table: dict[str, dict[str, float]] = {}
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            row = table.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += (end - start) * 1e3
            row["self_ms"] += own * 1e3
        return table

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({"header": header, "summary": self.summary()}) + "\n")
            for name, start, end, parent, rid in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "rid": rid}
                    )
                    + "\n"
                )
