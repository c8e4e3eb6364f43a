"""Span arithmetic over the shim's output.

A span is ``[id, parent, request, name, start, end, tag]``.  A span's self
time is its duration minus the part of its interval that its children
cover; children may nest and, under asyncio or threads, overlap each
other, so the covered part is the length of their union clipped to the
parent.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

ID, PARENT, REQUEST, NAME, START, END, TAG = range(7)


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly-overlapping ``(start, end)`` pairs."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Sequence]) -> Dict[int, float]:
    """Span id -> self time (duration minus its children's clipped union)."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    bounds = {span[ID]: (span[START], span[END]) for span in spans}
    for span in spans:
        parent = span[PARENT]
        if parent in bounds:
            low, high = bounds[parent]
            start, end = max(span[START], low), min(span[END], high)
            if end > start:
                children[parent].append((start, end))
    return {span_id: (end - start) - union_length(children.get(span_id, ()))
            for span_id, (start, end) in bounds.items()}


def outermost(spans: Sequence[Sequence], name: str) -> List[Sequence]:
    """Spans called *name* whose parent is not also called *name*.

    A sharded store's ``get`` calls a flat store's ``get``; counting only
    the outermost call counts each request to the layer once.
    """
    names = {span[ID]: span[NAME] for span in spans}
    return [span for span in spans
            if span[NAME] == name and names.get(span[PARENT]) != name]


def durations(spans: Iterable[Sequence]) -> List[float]:
    return [span[END] - span[START] for span in spans]
