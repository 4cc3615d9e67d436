"""Load generation: an open loop over a rate ladder and closed-loop callers.

Every driver makes one record per request (or streamed utterance):
``{"item", "reply", "ok", "sent", "done", ...}`` with times from
``time.perf_counter``.  Transport failures become failed records; nothing
is dropped.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from payloads import Item, chunks
from wire import Reply, Wire, stream_chunk, stream_close, stream_open

perf_counter = time.perf_counter


@dataclass
class Driven:
    """What one driven window produced."""

    records: List[dict]
    start: float      # the window's origin; open-loop due times count from it
    encode_s: float   # generator time spent encoding frames


def poisson_dues(rates: Sequence[float], lengths: Sequence[float],
                 seed: int) -> List[List[float]]:
    """Arrival offsets per rung, rungs back to back: ``rate * length``
    arrivals placed as a Poisson process conditioned on its count (sorted
    uniform times), so every seed offers exactly the same load per rung."""
    rng = np.random.default_rng(seed)
    out = []
    offset = 0.0
    for rate, length in zip(rates, lengths):
        count = int(round(rate * length))
        times = np.sort(rng.uniform(0.0, length, size=count)) + offset
        out.append([float(t) for t in times])
        offset += length
    return out


def _call(wire: Wire, message) -> Reply:
    """One exchange; a transport failure becomes a failed reply."""
    try:
        return wire.call(message)
    except OSError as exc:
        return Reply(False, f"transport: {exc}")


def open_loop(port: int, items: Sequence[Item], dues: Sequence[float],
              connections: int) -> Driven:
    """Send ``items[i]`` at ``dues[i]`` seconds after start over a fixed set
    of connections; a request due while every connection is busy waits for
    the first free one (that wait counts in its latency, measured from the
    due time).  ``lag`` is how late the generator sent a request after it
    was due and a connection was free."""
    n = len(items)
    records: List[Optional[dict]] = [None] * n
    lock = threading.Lock()
    cursor = [0]
    wires = [Wire(port) for _ in range(connections)]
    start = perf_counter() + 0.05

    def worker(wire: Wire) -> None:
        free_at = start
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= n:
                return
            due = start + dues[i]
            delay = due - perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = perf_counter()
            reply = _call(wire, items[i].message())
            done = perf_counter()
            records[i] = {"item": items[i], "reply": reply.value, "ok": reply.ok,
                          "due": due, "sent": sent, "done": done,
                          "lag": sent - max(due, free_at)}
            free_at = done

    threads = [threading.Thread(target=worker, args=(w,), daemon=True) for w in wires]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for w in wires:
        w.close()
    return Driven(records, start, sum(w.encode_s for w in wires))


def closed_loop(port: int, callers: Sequence[Callable[[Wire, int], List[dict]]],
                seconds: float) -> Driven:
    """Run each caller ``f(wire, j) -> records`` for j = 0, 1, ... on its own
    connection until ``seconds`` have passed; work started before the end
    runs to completion and is marked ``late`` when it ends after it."""
    records: List[dict] = []
    lock = threading.Lock()
    wires = [Wire(port) for _ in callers]
    start = perf_counter()
    end = start + seconds

    def worker(index, caller, wire) -> None:
        j = 0
        while perf_counter() < end:
            out = caller(wire, j)
            j += 1
            for rec in out:
                rec["caller"] = index
            with lock:
                records.extend(out)

    threads = [threading.Thread(target=worker, args=(i, c, w), daemon=True)
               for i, (c, w) in enumerate(zip(callers, wires))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for w in wires:
        w.close()
    for rec in records:
        rec["late"] = rec["done"] > end
    return Driven(records, start, sum(w.encode_s for w in wires))


def unary(item_for: Callable[[int], Item]) -> Callable[[Wire, int], List[dict]]:
    def caller(wire: Wire, j: int) -> List[dict]:
        item = item_for(j)
        sent = perf_counter()
        reply = _call(wire, item.message())
        return [{"item": item, "reply": reply.value, "ok": reply.ok,
                 "sent": sent, "done": perf_counter()}]
    return caller


def streamed(item_for: Callable[[int], Item]) -> Callable[[Wire, int], List[dict]]:
    """One utterance per call: open, 100 ms chunks, close for the final.

    Returns the utterance record (its reply is the final result) followed
    by one ``chunk`` record per chunk frame."""
    def caller(wire: Wire, j: int) -> List[dict]:
        item = item_for(j)
        stream_id = j + 1
        out: List[dict] = []
        sent = perf_counter()
        reply = _call(wire, stream_open(item.model, stream_id))
        final = None
        seq = 0
        if reply.ok:
            for seq, piece in enumerate(chunks(item.payload), start=1):
                chunk_sent = perf_counter()
                reply = _call(wire, stream_chunk(item.model, stream_id, seq, piece))
                out.append({"chunk": True, "ok": reply.ok, "sent": chunk_sent,
                            "done": perf_counter(), "item": item})
                if not reply.ok or reply.final:
                    break
            if reply.ok and reply.final:
                final = reply
            elif reply.ok:
                final = _call(wire, stream_close(item.model, stream_id, seq + 1))
                reply = final
        utterance = {"item": item, "ok": bool(reply.ok and final is not None
                                              and final.ok and final.final),
                     "reply": final.value if final is not None else reply.value,
                     "sent": sent, "done": perf_counter()}
        return [utterance] + out
    return caller


def sequential(port: int, items: Sequence[Item]) -> List[dict]:
    """Send items one after another on one connection (set-up probes)."""
    wire = Wire(port)
    try:
        records = []
        for j, item in enumerate(items):
            if item.kind == "stream":
                records.extend(r for r in streamed(lambda _j, it=item: it)(wire, j)
                               if not r.get("chunk"))
            else:
                records.extend(unary(lambda _j, it=item: it)(wire, j))
        return records
    finally:
        wire.close()
