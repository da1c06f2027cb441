"""In-memory spans recorded from outside the program under test.

A span is ``[name, start_ns, end_ns, parent, ident]``: ``parent`` is the
index of the enclosing span (-1 at the top) and ``ident`` is what the
spans of one request share — the event id during a churn pass, the
round number during a repair cycle.  A layer's self time is its spans'
duration minus the part their child spans cover.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Tuple

_clock = time.perf_counter_ns


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []
        self.ident = None

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        span = [name, 0, 0, parent, self.ident]
        self.spans.append(span)
        span[1] = _clock()
        return index

    def end(self, index: int) -> int:
        """Close span ``index``; returns its duration in ns."""
        now = _clock()
        span = self.spans[index]
        span[2] = now
        self._open.pop()
        return now - span[1]

    def wrap(self, owner: object, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper, as an
        instance attribute: the class and every other instance keep the
        original."""
        inner = getattr(owner, attribute)
        begin, end = self.begin, self.end

        def spanned(*args, **kwargs):
            index = begin(name)
            try:
                return inner(*args, **kwargs)
            finally:
                end(index)

        setattr(owner, attribute, spanned)

    # -- read side -----------------------------------------------------------

    def duration_ns(self, index: int) -> int:
        span = self.spans[index]
        return span[2] - span[1]

    def totals(self) -> Dict[str, Tuple[int, int, int]]:
        """name -> (count, total ns, self ns)."""
        covered = [0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        result: Dict[str, Tuple[int, int, int]] = {}
        for span, child_ns in zip(self.spans, covered):
            count, total, own = result.get(span[0], (0, 0, 0))
            duration = span[2] - span[1]
            result[span[0]] = (
                count + 1,
                total + duration,
                own + duration - child_ns,
            )
        return result

    def children(self, parent: int) -> List[int]:
        return [i for i, span in enumerate(self.spans) if span[3] == parent]

    def dump(self, path: str, **header) -> None:
        document = dict(
            header,
            columns=["name", "start_ns", "end_ns", "parent", "ident"],
            spans=self.spans,
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
            handle.write("\n")
