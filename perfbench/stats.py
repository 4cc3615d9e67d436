"""The benchmark's own arithmetic, kept free of I/O so it can be unit-tested.

* :func:`percentile` — linear-interpolated percentile of a sample.
* :func:`tail_percentile` — the highest percentile of a fixed ladder that
  leaves at least :data:`MIN_BEYOND` samples beyond it.
* :func:`covered` / :func:`self_time` — a span's self time is its duration
  minus the part of it that its children cover (overlapping children are
  counted once).
* :func:`overlap_share` — share of busy time with two or more intervals open.
* :func:`goodput_rung` — the highest offered rate of a ladder whose tail
  latency meets the limit with no growing backlog.
* :func:`segments` — consecutive fixed-size slices of a sample, whose
  per-slice figures are reported as a median.
* :func:`duplicate_share` — realized share of byte-exact repeats in a stream.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: samples a tail percentile must leave beyond it to count as measured
MIN_BEYOND = 10

#: the percentiles a tail may be reported at, lowest first
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.9)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated ``pct`` percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    data = sorted(values)
    rank = (len(data) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_percentile(count: int, ladder: Sequence[float] = TAIL_LADDER,
                    min_beyond: int = MIN_BEYOND) -> float:
    """Highest ladder percentile with ``>= min_beyond`` samples beyond it.

    With ``count`` samples, percentile ``p`` leaves ``count * (1 - p/100)``
    samples above it.  The lowest rung is returned when no rung qualifies.
    """
    best = ladder[0]
    for pct in ladder:
        if count * (1.0 - pct / 100.0) >= min_beyond - 1e-9:
            best = pct
    return best


def _merge(intervals: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    for start, end in _merge(intervals):
        start, end = max(start, lo), min(end, hi)
        if end > start:
            total += end - start
    return total


def self_time(start: float, end: float,
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - covered(children, start, end)


def overlap_share(intervals: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """``(busy, share)``: union length of ``intervals`` and the share of it
    during which two or more of them were open at once."""
    events: List[Tuple[float, int]] = []
    for start, end in intervals:
        if end > start:
            events.append((start, 1))
            events.append((end, -1))
    events.sort()
    busy = multi = 0.0
    depth = 0
    prev = None
    for t, delta in events:
        if prev is not None and depth > 0:
            busy += t - prev
            if depth >= 2:
                multi += t - prev
        depth += delta
        prev = t
    return busy, (multi / busy if busy > 0 else 0.0)


def goodput_rung(rungs: Sequence[Dict[str, float]], limit_ms: float,
                 backlog_slack: float = 0.05) -> Optional[Dict[str, float]]:
    """The highest rung that meets the latency limit with no growing backlog.

    Each rung is a dict with ``rate`` (offered req/s), ``tail_ms`` (its
    tail latency, failed requests counted as missing the limit),
    ``offered`` (requests due in the rung) and ``completed`` (requests
    answered by the rung's end plus the limit).  A rung has a growing
    backlog when fewer than ``1 - backlog_slack`` of its requests
    completed.  Returns ``None`` when no rung qualifies.
    """
    best = None
    for rung in rungs:
        meets = rung["tail_ms"] <= limit_ms
        drained = rung["completed"] >= (1.0 - backlog_slack) * rung["offered"]
        if meets and drained and (best is None or rung["rate"] > best["rate"]):
            best = rung
    return best


def segments(values: Sequence[float], size: int) -> List[Sequence[float]]:
    """Consecutive runs of ``size`` values; a short remainder joins the last."""
    if len(values) <= size:
        return [values]
    cuts = list(range(0, len(values) - size + 1, size))
    out = [values[c:c + size] for c in cuts]
    out[-1] = values[cuts[-1]:]
    return out


def duplicate_share(keys: Sequence[object]) -> float:
    """Share of items whose key already appeared earlier in the stream."""
    if not keys:
        return 0.0
    seen = set()
    repeats = 0
    for key in keys:
        if key in seen:
            repeats += 1
        else:
            seen.add(key)
    return repeats / len(keys)
