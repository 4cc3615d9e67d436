"""DjiNN serving benchmark: Tonic traffic through the gateway, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tonic_light --seed 1 --seconds 12 --trace 0

One run spawns a fresh fleet (``perfbench/fleet.py``: threaded backends with
dynamic batching behind a round-robin gateway with a response cache),
times its set-up, warms it up, drives one timed window of the workload and
checks every reply against a locally computed reference.  With
``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` the run drives a plain window and
then a traced one, and the JSON carries the per-layer metrics.  Everything
before the last line is a human-readable report: every metric with its
unit and sample count, the host fingerprint, the program-counter deltas
and the reply check.  See ``perfbench/README.md`` for the definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import queue
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

perf_counter = time.perf_counter

SETUP_REPS = 3          # fleets spawned per plain run; setup_s is their median
WARMUP_ROUNDS = 4       # at most; warm-up ends after a round that compiles no plan
CONNECTIONS = 2         # generator connections (and threads)
GEN_SWITCH_S = 0.0005   # the generator's GIL switch interval
NAMED_LAYERS = {
    # per model, the layers that made up >= 80% of forward time when the
    # benchmark was defined (IMC/FACE at batch 1, ASR at a ~100-frame
    # utterance); fixed so later changes to them stay visible by name
    "imc": ("fc6", "conv2", "conv1", "conv3", "fc7", "conv4", "conv5"),
    "face": ("l4", "c3", "c1"),
    "asr": ("sigmoid1", "sigmoid2", "sigmoid3", "sigmoid4", "senone",
            "sigmoid5", "sigmoid6", "affine2", "affine5"),
}
APPS = ("dig", "imc", "face", "asr")


@dataclass(frozen=True)
class Workload:
    models: Tuple[str, ...]
    limit_ms: float            # latency limit on the tail (goodput)
    tail_pct: float            # the workload's fixed tail percentile
    chunk_tail_pct: float
    warmup_s: float
    rates: Tuple[float, ...] = ()   # open loop only: the offered-rate ladder
    shares: Tuple[float, ...] = ()  # ... and each rung's share of the window
    segment: int = 0                # ... and the requests per rung segment
    dup_frac: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    "tonic_light": Workload(models=("dig", "pos", "chk", "ner"), limit_ms=20.0,
                            tail_pct=98.0, chunk_tail_pct=98.0, warmup_s=3.0,
                            rates=(100.0, 200.0, 600.0), shares=(1 / 3, 1 / 2, 1 / 6),
                            segment=500, dup_frac=0.25),
    "vision_heavy": Workload(models=("imc", "face"), limit_ms=500.0,
                             tail_pct=95.0, chunk_tail_pct=95.0, warmup_s=2.0),
    "speech_stream": Workload(models=("asr",), limit_ms=3000.0,
                              tail_pct=75.0, chunk_tail_pct=90.0, warmup_s=2.0),
}


def log(line: str = "") -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


# ------------------------------------------------------------------- fleet
class Fleet:
    """The fleet process: spawn, command, stop (always waited for)."""

    def __init__(self, models: Sequence[str], backends: int, trace: bool):
        self.spawned = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "fleet.py"),
             "--models", ",".join(models), "--backends", str(backends),
             "--trace", "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1)
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read_lines, daemon=True)
        self._reader.start()
        try:
            hello = self._next(timeout=120.0)
        except BaseException:
            self.stop()
            raise
        self.port, self.pid = int(hello["port"]), int(hello["pid"])

    def _read_lines(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _next(self, timeout: float) -> dict:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError("fleet did not answer in time") from None
        if line is None:
            raise RuntimeError(f"fleet exited (code {self.proc.poll()})")
        return json.loads(line)

    def command(self, text: str, timeout: float = 60.0) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._next(timeout)

    def stop(self) -> None:
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self._reader.join(timeout=10)


# --------------------------------------------------------- metrics scrape
def _samples(dump: dict, name: str) -> list:
    return dump.get("metrics", {}).get(name, {}).get("samples", [])


def counter_total(dump: dict, name: str, **labels) -> float:
    total = 0.0
    for sample in _samples(dump, name):
        if all(sample["labels"].get(k) == v for k, v in labels.items()):
            total += float(sample.get("value", 0.0))
    return total


def histogram_totals(dump: dict, name: str) -> Tuple[float, float, List[float]]:
    """(count, sum, per-bucket counts) summed over every label set."""
    count = total = 0.0
    buckets: List[float] = []
    for sample in _samples(dump, name):
        count += float(sample.get("count", 0))
        total += float(sample.get("sum", 0.0))
        for i, c in enumerate(sample.get("counts", [])):
            if i >= len(buckets):
                buckets.append(0.0)
            buckets[i] += float(c)
    return count, total, buckets


def stage_seconds(dump: dict) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for family in ("djinn_stage_seconds_total", "gateway_stage_seconds_total"):
        for sample in _samples(dump, family):
            key = f"{family.split('_')[0]}:{sample['labels'].get('stage', '?')}"
            out[key] = out.get(key, 0.0) + float(sample.get("value", 0.0))
    return out


def counter_delta(before: dict, after: dict) -> dict:
    c0, s0, b0 = histogram_totals(before, "djinn_batch_size")
    c1, s1, b1 = histogram_totals(after, "djinn_batch_size")
    st0, st1 = stage_seconds(before), stage_seconds(after)
    return {
        "forwards": c1 - c0,
        "rows": s1 - s0,
        "batch_hist": [b - (b0[i] if i < len(b0) else 0.0) for i, b in enumerate(b1)],
        "fast_path": (counter_total(after, "djinn_fast_path_total")
                      - counter_total(before, "djinn_fast_path_total")),
        "cache_hits": (counter_total(after, "gateway_cache_hits_total")
                       - counter_total(before, "gateway_cache_hits_total")),
        "cache_misses": (counter_total(after, "gateway_cache_misses_total")
                         - counter_total(before, "gateway_cache_misses_total")),
        "retries": (counter_total(after, "gateway_retries_total")
                    - counter_total(before, "gateway_retries_total")),
        "stages": {k: st1.get(k, 0.0) - st0.get(k, 0.0) for k in st1},
        "stream_sessions": counter_total(after, "djinn_stream_sessions"),
    }


# ------------------------------------------------------------ the windows
class Plan:
    """All payloads of one run, from the seed."""

    def __init__(self, workload: str, seed: int, seconds: float, windows: int):
        from payloads import (Distinct, LightPayloads, SpeechPayloads,
                              VisionPayloads, phase_seed, setup_items)

        self.name, self.spec, self.seed, self.seconds = workload, WORKLOADS[workload], seed, seconds
        distinct = Distinct()
        self.setup = list(setup_items(workload, seed, distinct).values())
        if self.spec.rates:
            from drive import poisson_dues

            self.lengths = [seconds * share for share in self.spec.shares]
            self.light = LightPayloads(distinct)
            self.windows = []
            for w in range(windows):
                rungs = poisson_dues(self.spec.rates, self.lengths,
                                     phase_seed(seed, "timed", w))
                dues = [t for rung in rungs for t in rung]
                items = self.light.stream(len(dues), phase_seed(seed, "timed", 100 + w),
                                          self.spec.dup_frac)
                self.windows.append((items, dues, [len(r) for r in rungs]))
        elif workload == "vision_heavy":
            self.sources = [VisionPayloads(distinct, seed, "warmup")] + [
                VisionPayloads(distinct, seed + 7_777 * (w + 1), "timed") for w in range(windows)]
        else:
            self.sources = [SpeechPayloads(distinct, seed, "warmup")] + [
                SpeechPayloads(distinct, seed + 7_777 * (w + 1), "timed") for w in range(windows)]

    def drive(self, port: int, window: Optional[int], warm_round: int = 0):
        """Drive timed window ``window``, or warm-up round ``warm_round``
        (``window=None``); every warm-up round sends payloads of its own."""
        import drive
        from payloads import phase_seed

        spec = self.spec
        if spec.rates:
            if window is None:
                mid = spec.rates[len(spec.rates) // 2]
                rseed = phase_seed(self.seed, "warmup", warm_round)
                items = self.light.stream(int(round(mid * spec.warmup_s)), rseed, spec.dup_frac)
                dues = drive.poisson_dues([mid], [spec.warmup_s], rseed)[0]
            else:
                items, dues, _ = self.windows[window]
            return drive.open_loop(port, items, dues, CONNECTIONS)
        # the shared Distinct set makes a repeated warm-up round draw fresh payloads
        source = self.sources[0 if window is None else window + 1]
        seconds = spec.warmup_s if window is None else self.seconds
        if self.name == "vision_heavy":
            callers = [drive.unary(lambda j, c=c: source.item(c, j))
                       for c in range(CONNECTIONS)]
        else:
            callers = [drive.unary(lambda j: source.item(2 * j, "app")),
                       drive.streamed(lambda j: source.item(2 * j + 1, "stream"))]
        return drive.closed_loop(port, callers, seconds)


def measure(fleet: Fleet, plan: Plan, window: int) -> dict:
    """One timed window with the fleet's CPU, switches and counters around it."""
    from host import host_ticks, process_cpu_s, self_cpu_s, task_switches
    from wire import metrics_dump

    before = metrics_dump(fleet.port)
    plans0 = fleet.command("plans")["compiled"]
    # the generator's own collector must not stall its senders mid-window
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        cpu0, sw0, gen0 = process_cpu_s(fleet.pid), task_switches(fleet.pid), self_cpu_s()
        ticks0 = host_ticks()
        t0 = perf_counter()
        driven = plan.drive(fleet.port, window)
        wall = perf_counter() - t0
        cpu1, sw1, gen1 = process_cpu_s(fleet.pid), task_switches(fleet.pid), self_cpu_s()
        ticks1 = host_ticks()
    finally:
        gc.enable()
        gc.unfreeze()
    after = metrics_dump(fleet.port)
    return {"records": driven.records, "start": driven.start,
            "compiled": fleet.command("plans")["compiled"] - plans0,
            "encode_s": driven.encode_s, "wall": wall, "cpu": cpu1 - cpu0,
            "gen_cpu": gen1 - gen0,
            "involuntary": sw1["involuntary"] - sw0["involuntary"],
            "threads": sw1["threads"], "counters": counter_delta(before, after),
            "steal": ((ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
                      if ticks1[1] > ticks0[1] else 0.0)}


# ------------------------------------------------------------- end to end
def _lat_ms(rec: dict, key: str = "sent") -> float:
    return (rec["done"] - rec[key]) * 1e3 if rec["ok"] else float("inf")


def summarize(plan: Plan, window: dict, index: int) -> dict:
    """End-to-end figures of one timed window (before the reply check)."""
    from stats import goodput_rung, median, percentile, segments

    spec = plan.spec
    recs = window["records"]
    out: Dict[str, object] = {}
    if spec.rates:
        _, _, sizes = plan.windows[index]
        rungs, offset = [], 0
        rung_end = window["start"]
        for rate, size, length in zip(spec.rates, sizes, plan.lengths):
            part = recs[offset:offset + size]
            offset += size
            rung_start, rung_end = rung_end, rung_end + length
            lats = [_lat_ms(r, "due") for r in part]
            # per-segment figures, reported as their median: one stall
            # burst moves one segment, not the rung
            segs = segments(lats, spec.segment)
            within = sum(1 for x in lats if x <= spec.limit_ms)
            span_s = max(r["done"] for r in part) - rung_start
            rungs.append({
                "rate": rate, "offered": size, "lats": lats, "segments": len(segs),
                "p50_ms": median([percentile(g, 50.0) for g in segs]),
                "tail_ms": median([percentile(g, spec.tail_pct) for g in segs]),
                "completed": sum(1 for r in part if r["ok"]
                                 and r["done"] <= rung_end + spec.limit_ms / 1e3),
                "throughput_rps": sum(1 for r in part if r["ok"]) / span_s,
                "goodput_rps": within / span_s,
            })
        mid = rungs[len(rungs) // 2]
        best = goodput_rung(rungs, spec.limit_ms)
        out.update(latencies=mid["lats"], chunk_latencies=mid["lats"],
                   p50_ms=mid["p50_ms"], tail_ms=mid["tail_ms"],
                   chunk_p50_ms=mid["p50_ms"], chunk_tail_ms=mid["tail_ms"],
                   throughput_rps=mid["throughput_rps"],
                   goodput_rps=best["goodput_rps"] if best else 0.0,
                   goodput_rung=best["rate"] if best else 0.0, rungs=rungs,
                   lags=[r["lag"] for r in recs],
                   units=sum(1 for r in recs if r["ok"]),
                   unit_latencies=[x for rung in rungs for x in rung["lats"]])
    else:
        units = [r for r in recs if not r.get("chunk")]
        if plan.name == "speech_stream":
            lat_recs = [r for r in units if r["item"].kind == "app"]
            chunk_lats = [_lat_ms(r) for r in recs if r.get("chunk")]
        else:
            lat_recs = units
            chunk_lats = None
        lats = [_lat_ms(r) for r in lat_recs]
        chunk = chunk_lats if chunk_lats is not None else lats
        in_window = [r for r in units if not r["late"]]
        good = sum(1 for r in in_window if _lat_ms(r) <= spec.limit_ms)
        out.update(latencies=lats, chunk_latencies=chunk,
                   p50_ms=percentile(lats, 50.0),
                   tail_ms=percentile(lats, spec.tail_pct),
                   chunk_p50_ms=percentile(chunk, 50.0),
                   chunk_tail_ms=percentile(chunk, spec.chunk_tail_pct),
                   throughput_rps=sum(1 for r in in_window if r["ok"]) / plan.seconds,
                   goodput_rps=good / plan.seconds,
                   lags=_closed_lags(units),
                   units=sum(1 for r in units if r["ok"]),
                   unit_latencies=[_lat_ms(r) for r in units])
    out["cpu_ms_per_req"] = window["cpu"] * 1e3 / max(1, out["units"])
    finite = [x for x in out["unit_latencies"] if x != float("inf")]
    out["mean_ms"] = sum(finite) / max(1, len(finite))
    return out


def _closed_lags(units: List[dict]) -> List[float]:
    """Closed loop: the gap between a caller's reply and its next send."""
    by_caller: Dict[int, List[dict]] = {}
    for r in units:
        by_caller.setdefault(r["caller"], []).append(r)
    lags = []
    for recs in by_caller.values():
        recs.sort(key=lambda r: r["sent"])
        lags.extend(b["sent"] - a["done"] for a, b in zip(recs, recs[1:])
                    if b["sent"] >= a["done"])
    return lags or [0.0]


# --------------------------------------------------------------- per layer
def per_layer(traced: dict, summary: dict, plain_summary: dict, dump: dict,
              host: dict) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of the traced window (see README.md)."""
    from stats import overlap_share, percentile

    n = max(1, summary["units"])
    spans, counts = dump["spans"], dump["counts"]
    ctr = traced["counters"]

    def wall(key):
        return spans.get(key, [0, 0.0, 0.0, 0])[1]

    def selfs(key):
        return spans.get(key, [0, 0.0, 0.0, 0])[2]

    def calls(key):
        return spans.get(key, [0, 0.0, 0.0, 0])[0]

    submits = ("batching.submit", "batching.submit_lease", "batching.submit_app")
    submit_wall = sum(wall(k) for k in submits)
    submit_calls = sum(calls(k) for k in submits)
    counter_forward = ctr["stages"].get("djinn:net.forward", 0.0)
    forwards = dump["forwards"]
    engine_s = sum(f[1] - f[0] for f in forwards)
    _, overlap = overlap_share([(f[0], f[1]) for f in forwards])
    probes = counts.get("gateway.cache_probes", 0.0)
    m: Dict[str, Tuple[float, str]] = {}
    m["protocol.encode_us_per_req"] = (wall("protocol.encode") * 1e6 / n, "us")
    m["protocol.decode_us_per_req"] = (wall("protocol.decode_cpu") * 1e6 / n, "us")
    m["protocol.frames_per_req"] = (counts.get("protocol.frames", 0.0) / n, "count")
    m["protocol.bytes_per_req"] = (counts.get("protocol.bytes", 0.0) / n, "B")
    m["gateway.route_us_per_req"] = (wall("gateway.route") * 1e6 / n, "us")
    m["gateway.cache_key_us_per_req"] = (wall("gateway.cache_key") * 1e6 / n, "us")
    m["gateway.cache_hit_ratio"] = (counts.get("gateway.cache_hits", 0.0) / probes
                                    if probes else 0.0, "ratio")
    m["gateway.checkout_wait_us_per_req"] = (wall("gateway.checkout") * 1e6 / n, "us")
    m["gateway.retries"] = (ctr["retries"], "count")
    m["server.self_us_per_req"] = (wall("server.self") * 1e6 / n, "us")
    m["server.respond_us_per_req"] = (wall("server.respond") * 1e6 / n, "us")
    wait_s = max(0.0, submit_wall - counter_forward)
    m["batching.wait_ms_per_req"] = (wait_s * 1e3 / n, "ms")
    m["batching.rows_per_forward"] = (ctr["rows"] / ctr["forwards"] if ctr["forwards"] else 0.0,
                                      "rows")
    m["batching.forwards_per_req"] = (ctr["forwards"] / n, "count")
    m["batching.fast_path_frac"] = (ctr["fast_path"] / submit_calls if submit_calls else 0.0,
                                    "ratio")
    m["engine.busy_ms_per_req"] = (engine_s * 1e3 / n, "ms")
    m["engine.planned_frac"] = (sum(1 for f in forwards if f[4]) / len(forwards)
                                if forwards else 0.0, "ratio")
    m["engine.overlap_frac"] = (overlap, "ratio")
    peak_f, peak_b = host["sgemm_gflops"], host["copy_gbps"]
    for model, layers in NAMED_LAYERS.items():
        for layer in layers:
            rec = dump["layers"].get(f"{model}.{layer}")
            secs = rec["s"] if rec else 0.0
            gflops = rec["flops"] / secs / 1e9 if rec and secs > 0 else 0.0
            gbps = rec["bytes"] / secs / 1e9 if rec and secs > 0 else 0.0
            roof = 0.0
            if rec and secs > 0 and rec["bytes"] > 0:
                bound = min(peak_f, peak_b * rec["flops"] / rec["bytes"])
                roof = gflops / bound if bound > 0 else 0.0
            base = f"engine.{model}.{layer}"
            m[f"{base}.ms"] = (secs * 1e3 / n, "ms")
            m[f"{base}.gflops"] = (gflops, "GFLOP/s")
            m[f"{base}.gbps"] = (gbps, "GB/s")
            m[f"{base}.roofline_frac"] = (roof, "ratio")
    app_s = 0.0
    for app in APPS:
        for stage in ("pre", "post"):
            rec = spans.get(f"tonic.{app}.{stage}", [0, 0.0, 0.0, 0])
            app_s += rec[1]
            m[f"tonic.{app}.{stage}_us_per_item"] = (rec[1] * 1e6 / rec[3] if rec[3] else 0.0,
                                                    "us")
    for key, name in (("feed_self", "feed_self_ms_per_chunk"), ("finish_self", "finish_self_ms")):
        key = f"tonic.asr_stream.{key}"
        m[f"tonic.asr_stream.{name}"] = (wall(key) * 1e3 / calls(key) if calls(key) else 0.0,
                                         "ms")
    m["session.opened"] = (float(calls("session.open")), "count")
    m["session.open_at_end"] = (ctr["stream_sessions"], "count")
    cores = host["cores"]
    m["fleet.cpu_util"] = (traced["cpu"] / (traced["wall"] * cores), "ratio")
    m["fleet.ctx_switches_per_req"] = (traced["involuntary"] / n, "count")
    m["fleet.threads_at_end"] = (float(traced["threads"]), "count")
    m["client.encode_us_per_req"] = (traced["encode_s"] * 1e6 / n, "us")
    m["client.gen_lag_p99_ms"] = (percentile(summary["lags"], 99.0) * 1e3, "ms")
    m["client.gen_cpu_util"] = (traced["gen_cpu"] / traced["wall"], "ratio")
    m["host.sgemm_gflops"] = (peak_f, "GFLOP/s")
    m["host.copy_gbps"] = (peak_b, "GB/s")
    m["obs.forward_counter_gap"] = ((counter_forward - engine_s) / engine_s
                                    if engine_s > 0 else 0.0, "ratio")
    m["obs.trace_overhead"] = (summary["cpu_ms_per_req"] / plain_summary["cpu_ms_per_req"],
                               "ratio")
    # attribution of the traced mean latency, per request of the workload
    tonic_ms = (app_s + selfs("tonic.asr_stream.feed") + selfs("tonic.asr_stream.finish")) * 1e3 / n
    parts = {
        "protocol": (wall("protocol.encode") + wall("protocol.decode_cpu")) * 1e3 / n,
        "gateway": sum(selfs(k) for k in ("gateway.route", "gateway.cache_key",
                                          "gateway.cache_get", "gateway.cache_put",
                                          "gateway.checkout", "gateway.checkin")) * 1e3 / n,
        "server": (wall("server.self") + selfs("server.respond")) * 1e3 / n,
        "batching": max(0.0, wait_s * 1e3 / n - app_s * 1e3 / n),
        "engine": counter_forward * 1e3 / n,
        "tonic": tonic_ms,
    }
    m["attrib.mean_latency_ms"] = (summary["mean_ms"], "ms")
    for name, value in parts.items():
        m[f"attrib.{name}_ms"] = (value, "ms")
    m["attrib.unattributed_ms"] = (summary["mean_ms"] - sum(parts.values()), "ms")
    return m


# ----------------------------------------------------------------- the run
def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from check import Reference, check_replies
    from host import fingerprint, peak_rss_mb, usable_cores
    from stats import duplicate_share, median, percentile, tail_percentile
    import drive

    spec = WORKLOADS[workload]
    phases = [("start", perf_counter())]
    host = fingerprint()
    backends = usable_cores()
    log(f"# perfbench {workload} seed={seed} seconds={seconds:g} trace={int(trace)}")
    log(f"# host: {json.dumps(host, sort_keys=True)}")
    plan = Plan(workload, seed, seconds, windows=2 if trace else 1)
    phases.append(("probe+payloads", perf_counter()))
    checked: List[dict] = []
    setup_times: List[float] = []
    fleet: Optional[Fleet] = None
    try:
        reps = 1 if trace else SETUP_REPS
        for rep in range(reps):
            fleet = Fleet(spec.models, backends, trace)
            records = drive.sequential(fleet.port, plan.setup)
            setup_times.append(perf_counter() - fleet.spawned)
            checked.extend(records)
            if rep < reps - 1:
                fleet.stop()
                fleet = None
        phases.append(("setup", perf_counter()))
        compiled = fleet.command("plans")["compiled"]
        for warm_round in range(WARMUP_ROUNDS):
            checked.extend(plan.drive(fleet.port, None, warm_round).records)
            before, compiled = compiled, fleet.command("plans")["compiled"]
            if compiled == before:
                break
        warmed = compiled == before
        phases.append(("warmup", perf_counter()))
        windows = [measure(fleet, plan, 0)]
        if trace:
            fleet.command("trace on")
            windows.append(measure(fleet, plan, 1))
            fleet.command("trace off")
            dump = fleet.command("dump", timeout=120.0)
        rss_mb = peak_rss_mb(fleet.pid)
        phases.append(("windows", perf_counter()))
    finally:
        if fleet is not None:
            fleet.stop()
    for window in windows:
        checked.extend(window["records"])
    chunks = [r for r in checked if r.get("chunk")]
    checked = [r for r in checked if not r.get("chunk")]

    verdict = check_replies(Reference(spec.models),
                            [r for r in checked if r["ok"]])
    phases.append(("check", perf_counter()))
    transport_failed = sum(1 for r in checked if not r["ok"]) + sum(
        1 for r in chunks if not r["ok"])
    # every stream is closed by the time a window ends: a session still
    # open on the fleet is a leak, and counts as a failure
    leaked = int(max(w["counters"]["stream_sessions"] for w in windows))
    attempted = len(checked) + len(chunks)
    failed = transport_failed + verdict.wrong + leaked
    summaries = [summarize(plan, w, i) for i, w in enumerate(windows)]
    plain = summaries[0]

    e2e = {
        "setup_s": (median(setup_times), "s", len(setup_times)),
        "rss_mb": (rss_mb, "MiB", 1),
        "p50_ms": (plain["p50_ms"], "ms", len(plain["latencies"])),
        "tail_ms": (plain["tail_ms"], "ms", len(plain["latencies"])),
        "throughput_rps": (plain["throughput_rps"], "1/s", plain["units"]),
        "goodput_rps": (plain["goodput_rps"], "1/s", plain["units"]),
        "cpu_ms_per_req": (plain["cpu_ms_per_req"], "ms", plain["units"]),
        "chunk_p50_ms": (plain["chunk_p50_ms"], "ms", len(plain["chunk_latencies"])),
        "chunk_tail_ms": (plain["chunk_tail_ms"], "ms", len(plain["chunk_latencies"])),
    }
    log("# phases: " + ", ".join(f"{name} {t - prev:.1f} s" for (_, prev), (name, t)
                                 in zip(phases, phases[1:])))
    log(f"# fleet: {len(spec.models)} models {','.join(spec.models)}; {backends} backends")
    log(f"# setup_s per fleet: {', '.join(f'{t:.3f}' for t in setup_times)}")
    log(f"# warm-up: {warm_round + 1} round(s) of {spec.warmup_s:g} s, "
        f"{compiled} plans compiled in all"
        f"{'' if warmed else '  LAZY SET-UP NOT DONE: the last round still compiled plans'}")
    # the tail percentiles are fixed per workload; check that this run's
    # samples support them (>= 10 beyond), per segment on the open loop
    tail_n = spec.segment or len(plain["latencies"])
    chunk_n = spec.segment or len(plain["chunk_latencies"])
    thin = (spec.tail_pct > tail_percentile(tail_n)
            or spec.chunk_tail_pct > tail_percentile(chunk_n))
    log(f"# tail percentile: p{spec.tail_pct:g} at n={tail_n} (chunks p{spec.chunk_tail_pct:g} "
        f"at n={chunk_n}); latency limit {spec.limit_ms:g} ms"
        f"{'  TOO FEW SAMPLES: under 10 beyond the tail percentile' if thin else ''}")
    if spec.rates:
        for rung in plain["rungs"]:
            log(f"# rung {rung['rate']:g}/s: offered {rung['offered']} completed "
                f"{rung['completed']} in {rung['segments']} segments: median p50 "
                f"{rung['p50_ms']:.3f} ms, median p{spec.tail_pct:g} {rung['tail_ms']:.3f} ms")
        items = plan.windows[0][0]
        log(f"# goodput rung: {plain['goodput_rung']:g}/s; realized duplicate share "
            f"{duplicate_share([it.key for it in items]):.3f} (planned {spec.dup_frac:g})")
    for i, (w, s) in enumerate(zip(windows, summaries)):
        ctr = w["counters"]
        label = "traced" if i else "plain"
        lag_p99 = percentile(s["lags"], 99.0) * 1e3
        gen_util = w["gen_cpu"] / w["wall"]
        saturated = gen_util > 0.9 or (spec.rates and lag_p99 > spec.limit_ms / 2)
        log(f"# window {label}: {s['units']} units in {w['wall']:.2f} s, fleet cpu "
            f"{w['cpu']:.2f} s, involuntary switches {w['involuntary']}, threads {w['threads']}, "
            f"host steal {100 * w['steal']:.2f}%, plans compiled {w['compiled']}")
        log(f"# window {label} generator: lag p99 {lag_p99:.3f} ms, cpu util {gen_util:.3f}"
            f"{'  GENERATOR SATURATED: figures bound by the generator' if saturated else ''}")
        log(f"# window {label} counters: forwards {ctr['forwards']:g} rows {ctr['rows']:g} "
            f"batch hist {ctr['batch_hist']} fast path {ctr['fast_path']:g} "
            f"cache hits {ctr['cache_hits']:g} misses {ctr['cache_misses']:g} "
            f"retries {ctr['retries']:g}")
        log(f"# window {label} stage seconds: "
            + ", ".join(f"{k}={v:.4f}" for k, v in sorted(ctr["stages"].items())))
    log(f"# check: {verdict.checked} replies checked, {verdict.wrong} wrong, "
        f"{verdict.near_ties} near ties accepted, nlp max abs {verdict.max_abs:.3g}, "
        f"{transport_failed} failed on the wire, {leaked} stream sessions left open")
    for note in verdict.examples:
        log(f"#   wrong: {note}")
    log(f"# fail_frac: {failed / max(1, attempted):.6f} ({failed} of {attempted})")
    for name, (value, unit, count) in e2e.items():
        log(f"{name:>16s} = {value:12.4f} {unit:<4s} (n={count})")

    if trace:
        metrics = per_layer(windows[1], summaries[1], plain, dump, host)
        for name, (value, unit) in metrics.items():
            log(f"{name:>44s} = {value:14.6f} {unit} (n={summaries[1]['units']})")
    else:
        metrics = {k: (v, u) for k, (v, u, _) in e2e.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="DjiNN serving benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: the program's sources ({SRC}/repro) are missing; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    # the generator's two sender threads hand the GIL over faster than the
    # 5 ms default, so one thread's reply parsing does not delay the other's
    # due send (this process only; the fleet keeps the default)
    sys.setswitchinterval(GEN_SWITCH_S)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
