"""Response cache sweep: dup_frac x cache size -> hit rate / speedup.

Duplicate-heavy traffic is where a serving cache earns its keep: the
sweep drives a seeded duplicate stream (the shared
:mod:`repro.core.duplication` plan, ``jitter=0`` so replays are
byte-identical) through a real gateway + backend pair, once with the
cache off (baseline) and once per (dup_frac, cache size) cell with the
gateway's content-addressed response cache armed.  Each cell records:

* **hit rate** — response-cache hits over the stream (with a budget big
  enough for the working set, hits must equal the plan's duplicate count
  exactly: the stream is sequential, so every source precedes its
  replays);
* **hit-path speedup** — median miss latency / median hit latency, the
  per-request cost a memo actually removes (backend hop + forward);
* **fidelity** — every cached answer must be byte-identical to what the
  cache-off baseline served for the same request.

Results go to ``benchmarks/results/BENCH_cache.json``.  ``--check``
turns the run into a CI gate:

* cache-off and cache-on answers must be byte-identical on every request
  (always enforced — identity does not need cores);
* with a working-set-sized budget, hits must equal the duplicate plan
  exactly, and evictions must stay zero (also always enforced);
* the hit path must be >= 2x faster than the miss path at dup_frac=0.5
  — enforced only on hosts with >= GATE_MIN_CORES cores
  (``gate_enforced`` records the honest decision either way).

Usage::

    python benchmarks/bench_cache.py                      # full sweep
    python benchmarks/bench_cache.py --requests 80 --check  # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from _common import gate_fields  # noqa: E402
from repro.core import BatchPolicy, DjinnClient, DjinnServer, ModelRegistry  # noqa: E402
from repro.core.duplication import plan_duplicates  # noqa: E402
from repro.gateway import GatewayServer  # noqa: E402
from repro.models import build_net  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

MODEL = "dig"
SEED = 0xD1A77

#: hit path must beat the miss path by this factor at dup_frac=0.5
HIT_SPEEDUP_GATE = 2.0


def _inputs(net, requests: int, dup_frac: float):
    """The seeded duplicate stream: (inputs, dup_of plan)."""
    dup_of = plan_duplicates(requests, dup_frac, SEED)
    shape = (1,) + tuple(net.input_shape)
    inputs = []
    for i in range(requests):
        src = i
        while src in dup_of:  # dup-of-dup chains resolve to the original
            src = dup_of[src]
        x = np.full(shape, 0.25, dtype=np.float32)
        x.reshape(-1)[0] = float(src + 1)  # jitter=0: replay exact bytes
        inputs.append(x)
    return inputs, dup_of


def _drive(address, inputs):
    """Sequential stream through one connection; per-request latencies
    and the raw response bytes (the identity evidence)."""
    latencies, payloads = [], []
    with DjinnClient(*address, timeout_s=60.0) as client:
        for x in inputs:
            t0 = time.perf_counter()
            out = client.infer(MODEL, x)
            latencies.append(time.perf_counter() - t0)
            payloads.append(out.tobytes())
    return latencies, payloads


def _serve(registry, cache_mb: float):
    """One backend + gateway pair; caller stops both."""
    server = DjinnServer(
        registry, port=0,
        batching=BatchPolicy(max_batch=8, timeout_ms=1.0))
    server.start()
    gateway = GatewayServer([server.address], cache_mb=cache_mb,
                            health_interval_s=30.0)
    gateway.start()
    return server, gateway


def bench_cell(registry, net, requests: int, dup_frac: float,
               cache_mb: float, baseline_payloads) -> dict:
    inputs, dup_of = _inputs(net, requests, dup_frac)
    server, gateway = _serve(registry, cache_mb)
    try:
        t0 = time.perf_counter()
        latencies, payloads = _drive(gateway.address, inputs)
        wall_s = time.perf_counter() - t0
        stats = gateway.cache.stats()
    finally:
        gateway.stop()
        server.stop()

    # duplicates are the would-be hits; uniques the would-be misses
    hit_lats = [lat for i, lat in enumerate(latencies) if i in dup_of]
    miss_lats = [lat for i, lat in enumerate(latencies) if i not in dup_of]
    p50_hit = statistics.median(hit_lats) if hit_lats else None
    p50_miss = statistics.median(miss_lats) if miss_lats else None
    byte_identical = payloads == baseline_payloads
    return {
        "dup_frac": dup_frac,
        "cache_mb": cache_mb,
        "planned_duplicates": len(dup_of),
        "hits": stats["hits"],
        "misses": stats["misses"],
        "evictions": stats["evictions"],
        "cache_bytes": stats["bytes"],
        "hit_rate": stats["hits"] / requests,
        "wall_s": wall_s,
        "mean_lat_ms": 1e3 * statistics.fmean(latencies),
        "p50_hit_ms": None if p50_hit is None else 1e3 * p50_hit,
        "p50_miss_ms": None if p50_miss is None else 1e3 * p50_miss,
        "hit_speedup": (None if not (p50_hit and p50_miss)
                        else p50_miss / p50_hit),
        "byte_identical": byte_identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--requests", type=int, default=120,
                        help="stream length per sweep cell")
    parser.add_argument("--dup-fracs", default="0,0.25,0.5",
                        help="comma-separated duplicate fractions")
    parser.add_argument("--sizes-mb", default="0.001,8.0",
                        help="comma-separated cache budgets in MiB (the "
                             "small one forces evictions; outputs are tiny)")
    parser.add_argument("--out", default=os.path.join(RESULTS_DIR,
                                                      "BENCH_cache.json"))
    parser.add_argument("--check", action="store_true",
                        help="CI gate: byte identity, exact hits at full "
                             "budget, >= 2x hit-path speedup (on >= 4-core "
                             "hosts)")
    args = parser.parse_args(argv)

    dup_fracs = [float(f) for f in args.dup_fracs.split(",") if f.strip()]
    sizes_mb = [float(s) for s in args.sizes_mb.split(",") if s.strip()]
    full_budget = max(sizes_mb)
    registry = ModelRegistry()
    net = build_net(MODEL, materialize=True)
    registry.register(MODEL, net)

    results = {
        **gate_fields(),
        "model": MODEL,
        "requests": args.requests,
        "seed": SEED,
        "hit_speedup_gate": HIT_SPEEDUP_GATE,
        "baselines": [],
        "cells": [],
    }

    baselines = {}
    for dup_frac in dup_fracs:
        inputs, _ = _inputs(net, args.requests, dup_frac)
        server, gateway = _serve(registry, cache_mb=0.0)
        try:
            t0 = time.perf_counter()
            latencies, payloads = _drive(gateway.address, inputs)
            wall_s = time.perf_counter() - t0
        finally:
            gateway.stop()
            server.stop()
        baselines[dup_frac] = payloads
        results["baselines"].append({
            "dup_frac": dup_frac,
            "wall_s": wall_s,
            "mean_lat_ms": 1e3 * statistics.fmean(latencies),
        })
        print(f"baseline dup={dup_frac:4.2f}: "
              f"{1e3 * statistics.fmean(latencies):7.2f} ms/req "
              f"(cache off)")

    for dup_frac in dup_fracs:
        for cache_mb in sizes_mb:
            cell = bench_cell(registry, net, args.requests, dup_frac,
                              cache_mb, baselines[dup_frac])
            results["cells"].append(cell)
            speedup = cell["hit_speedup"]
            print(f"dup={dup_frac:4.2f} cache={cache_mb:6.3f}MiB: "
                  f"hit rate {cell['hit_rate']:5.2f}  "
                  f"evictions {cell['evictions']:4d}  "
                  f"hit speedup "
                  f"{'  n/a' if speedup is None else f'{speedup:5.2f}x'}  "
                  f"identical={cell['byte_identical']}")

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(results, handle, indent=2)
    print(f"wrote {args.out}")

    if args.check:
        failures = []
        for cell in results["cells"]:
            if not cell["byte_identical"]:
                failures.append(
                    f"dup={cell['dup_frac']} cache={cell['cache_mb']}MiB: "
                    f"cached answers are not byte-identical to the "
                    f"cache-off baseline")
            if cell["cache_mb"] == full_budget:
                if cell["hits"] != cell["planned_duplicates"]:
                    failures.append(
                        f"dup={cell['dup_frac']} at full budget: "
                        f"{cell['hits']} hits != "
                        f"{cell['planned_duplicates']} planned duplicates")
                if cell["evictions"] != 0:
                    failures.append(
                        f"dup={cell['dup_frac']} at full budget: "
                        f"{cell['evictions']} evictions from an "
                        f"over-provisioned cache")
        if results["gate_enforced"]:
            gated = [c for c in results["cells"]
                     if c["dup_frac"] == 0.5 and c["cache_mb"] == full_budget
                     and c["hit_speedup"] is not None]
            if not gated:
                failures.append("no dup_frac=0.5 full-budget cell to gate "
                                "the hit-path speedup on")
            for cell in gated:
                if cell["hit_speedup"] < HIT_SPEEDUP_GATE:
                    failures.append(
                        f"hit-path speedup {cell['hit_speedup']:.2f}x < "
                        f"{HIT_SPEEDUP_GATE}x at dup_frac=0.5")
        else:
            print(f"host has {results['host_cores']} cores "
                  f"(< {results['gate_min_cores']}): speedup gate recorded "
                  f"but not enforced")
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print("cache checks passed: byte-identical answers, exact hits at "
              "full budget, hit-path speedup gate satisfied")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
