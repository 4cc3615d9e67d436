"""The fleet under test, run as its own process by ``run.py``.

Builds a DjiNN fleet through the public API the way ``djinn gateway``
does: one registry with seeded synthetic weights (seed = model position),
``backends`` threaded backends with dynamic batching behind a
round-robin gateway with a response cache.  Prints one JSON line with the
gateway port, then obeys one-line commands on stdin:

``trace on`` / ``trace off``
    Start (after zeroing the totals) or stop per-layer timing; only valid
    with ``--trace 1``.  Answers ``{"ok": true}``.
``dump``
    Answers the per-layer totals as one JSON line.
``plans``
    Answers ``{"compiled": n}``: execution plans compiled so far, the
    fleet's lazy set-up.
``stop`` (or end of input)
    Stops the gateway and the backends and exits.

Usage: ``python3 perfbench/fleet.py --models dig,pos --backends 2 --trace 0``
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

MAX_BATCH = 8
BATCH_TIMEOUT_MS = 2.0
CACHE_MB = 64.0
POLICY = "round_robin"


def reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def count_plan_compiles() -> List[int]:
    """Count execution-plan compilations from here on, in a one-item list.

    ``ExecutionPlan.__init__`` runs once per compiled plan and never in the
    steady state, so counting it costs the served requests nothing.
    """
    from repro.nn.engine import ExecutionPlan

    compiled = [0]
    original = ExecutionPlan.__init__

    @functools.wraps(original)
    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        compiled[0] += 1  # plans are compiled under the registry's plan lock

    ExecutionPlan.__init__ = init
    return compiled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--models", required=True)
    parser.add_argument("--backends", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        from tracing import install

        recorder = install()
    compiled = count_plan_compiles()

    from repro.core import BatchPolicy, ModelRegistry
    from repro.gateway import ClusterLauncher, GatewayServer
    from repro.models import build_spec

    registry = ModelRegistry()
    for seed, name in enumerate(m for m in args.models.split(",") if m):
        registry.register_spec(name, build_spec(name), seed=seed)
    if recorder is not None:
        recorder.bind(registry)

    cluster = ClusterLauncher(
        registry, backends=args.backends,
        batching=BatchPolicy(max_batch=MAX_BATCH, timeout_ms=BATCH_TIMEOUT_MS))
    cluster.start()
    try:
        gateway = GatewayServer(cluster.addresses, policy=POLICY,
                                cache_mb=CACHE_MB)
        gateway.start()
        try:
            reply({"port": gateway.address[1], "pid": os.getpid()})
            for line in sys.stdin:
                command = line.strip()
                if command == "stop":
                    break
                if command in ("trace on", "trace off") and recorder is not None:
                    if command == "trace on":
                        recorder.reset()
                    recorder.on = command == "trace on"
                    reply({"ok": True})
                elif command == "dump" and recorder is not None:
                    reply(recorder.dump())
                elif command == "plans":
                    reply({"compiled": compiled[0]})
                else:
                    reply({"error": f"unknown command {command!r}"})
        finally:
            gateway.stop()
    finally:
        cluster.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
