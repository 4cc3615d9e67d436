"""Host fingerprint, compute/memory peak probes, and /proc readers."""

from __future__ import annotations

import os
import platform
import time
from typing import Dict, Tuple

import numpy as np

CLK_TCK = os.sysconf("SC_CLK_TCK")


def usable_cores() -> int:
    """Cores this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def blas_name() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, AttributeError):
        return "unknown"


def sgemm_gflops(n: int = 1024, min_s: float = 0.4) -> float:
    """Best-of SGEMM rate on ``n x n`` float32 operands (BLAS threads as set)."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    out = np.empty((n, n), dtype=np.float32)
    np.matmul(a, b, out=out)
    best = float("inf")
    deadline = time.perf_counter() + min_s
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        np.matmul(a, b, out=out)
        best = min(best, time.perf_counter() - start)
    return 2.0 * n ** 3 / best / 1e9


def copy_gbps(mib: int = 64, min_s: float = 0.3) -> float:
    """Best-of STREAM-style copy rate (bytes read + bytes written)."""
    src = np.ones(mib << 18, dtype=np.float32)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    best = float("inf")
    deadline = time.perf_counter() + min_s
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - start)
    return 2.0 * src.nbytes / best / 1e9


def fingerprint() -> Dict[str, object]:
    return {
        "cores": usable_cores(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(),
        "sgemm_gflops": sgemm_gflops(),
        "copy_gbps": copy_gbps(),
    }


# ----------------------------------------------------------------- /proc
def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds of every task of ``pid`` (threads included)."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def task_switches(pid: int) -> Dict[str, int]:
    """Live threads and their summed involuntary context switches."""
    total = {"threads": 0, "involuntary": 0}
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return total
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/status") as f:
                for line in f:
                    if line.startswith("nonvoluntary_ctxt_switches:"):
                        total["involuntary"] += int(line.split()[1])
        except OSError:
            continue  # the thread ended between listdir and open
        total["threads"] += 1
    return total


def host_ticks() -> Tuple[int, int]:
    """(steal, total) jiffies of the whole host from ``/proc/stat``."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def self_cpu_s() -> float:
    t = os.times()
    return t.user + t.system
