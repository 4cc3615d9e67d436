"""Server-side dynamic batching.

Section 5.1 of the paper batches multiple DNN inputs into one larger GPU
GEMM to raise occupancy and throughput.  This module is the service-side
mechanism: per-model queues collect concurrent requests until ``max_batch``
inputs are buffered or ``timeout_ms`` elapses, then execute them as a single
forward pass and scatter the results back to the waiting requests.

On the numpy substrate the win is BLAS efficiency rather than GPU occupancy,
but the mechanism (and its latency/throughput trade-off, which
``benchmarks/bench_ablation_batch_policy.py`` sweeps) is the same.

Copy-free serving: each worker compiles an :class:`repro.nn.engine.ExecutionPlan`
for its model (``use_plans=True``) and gathers request payloads directly into
the plan's input slab — partial batches run as prefix views, there is no
re-stack ``np.concatenate``.  Results are scattered back as *read-only views*
of the plan's output slab; because the arena is reused by the next batch, the
worker holds ``plan.lock`` until every waiter signals it has consumed its
view (the lease barrier).  :meth:`BatchingExecutor.submit` copies on behalf
of the caller (ownership transfer); :meth:`BatchingExecutor.submit_lease`
hands the view itself to zero-copy consumers such as
:class:`repro.core.server.DjinnServer`, which serializes straight from the
slab and then releases.  Batches that overflow the plan envelope (the
collector admits one oversize request past ``max_batch``) fall back to the
legacy stacked path.

Observability: requests that arrive with trace context get ``backend.queue``
(enqueue → batch execution start) and ``batch.assemble`` spans, the batch's
single forward pass is replayed into every participating trace (optionally
with per-layer sub-spans), and executed batch sizes feed a
``djinn_batch_size`` histogram when a metrics registry is attached.

Streaming (protocol v4) rides the same machinery: each STREAM_CHUNK's DNN
work is submitted through :meth:`BatchingExecutor.submit_lease` like any
unary request, so chunks from concurrent streams coalesce into shared
batches and obey the EDF queues when scheduling is armed — a stream gets
incremental results without a private fast path through the executor.

App requests (protocol v5) turn the worker into a *staged pipeline*:
:meth:`BatchingExecutor.submit_app` enqueues the raw task payload plus its
:class:`repro.tonic.TonicApp`, the worker runs the app's **batched**
``preprocess_batch`` over every raw request it coalesced (in the worker
process's shm slot when a proc pool is armed and the payloads are
slot-eligible, on the executor thread otherwise), forwards through the
existing plan/slot-ring path, then runs ``postprocess_batch`` over the
result block and hands each waiter its final application answer — the
arena lease is consumed worker-side, so app waiters never hold the
barrier.  A poisoned raw payload fails only its own request (typed
error), never the batch: the vectorized call falls back to the per-item
loop to isolate the offender.

The **batch-1 fast path** skips the queue handoff and the slot ring
entirely: when a model's queue is empty and its plan lock is free, the
submitting thread runs the request through the worker's own batch code
(``_run_batch``) as a batch of one on a parent-side plan, so both paths
emit the same spans and stage counters, and returns without ever waking
the worker — this is what removes the per-request dispatch overhead that
made a 1-worker proc pool slower than threaded serving.  The fast path
only decides admission: queued work, a service floor, an armed fault
plan, an oversize request, an expired deadline, a busy plan, or an
un-plannable model all send the request to the normal queue path (an app
request preprocessed during admission keeps its inputs, so it is never
preprocessed twice).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from queue import Empty, Queue
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..obs.profile import LayerTimer
from ..obs.trace import Tracer, get_tracer
from ..sched import (
    DeadlineExceededError,
    EdfQueue,
    LatencyModel,
    item_rows,
    make_policy,
)
from . import faultsite
from .registry import ModelRegistry

__all__ = ["BatchPolicy", "BatchingExecutor", "ResultLease"]

#: sentinel for a declined fast-path attempt (None is a valid result object)
_FAST_MISS = object()

#: Bucket bounds for the executed-batch-size histogram (inputs per forward).
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


@dataclass(frozen=True)
class BatchPolicy:
    """How long to wait and how much to coalesce."""

    max_batch: int = 16
    timeout_ms: float = 2.0

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.timeout_ms < 0:
            raise ValueError(f"timeout_ms must be >= 0, got {self.timeout_ms}")


class _Unqueued:
    """Event stand-in for a request that was never queued: the fast path
    runs it on the submitting thread, so there is nobody to wake."""

    __slots__ = ()

    def set(self) -> None:
        pass


_UNQUEUED = _Unqueued()


class _Pending:
    """One submitted request waiting for its slice of a batched result."""

    __slots__ = ("inputs", "event", "result", "error", "trace", "enqueue_s",
                 "delivered_s", "consumed", "arena", "deadline_s", "priority",
                 "tenant", "app", "raw", "raw_parts", "row_hint", "result_obj")

    def __init__(self, inputs: Optional[np.ndarray],
                 trace: Optional[Tuple[int, int]] = None,
                 enqueue_s: float = 0.0,
                 deadline_s: float = float("inf"),
                 priority: int = 0,
                 tenant: str = "",
                 app=None,
                 raw=None,
                 row_hint: int = 1):
        self.inputs = inputs
        #: set once ``result``/``error`` is in place (real events are
        #: created at enqueue; an unqueued request needs no wake-up)
        self.event = _UNQUEUED
        self.result: Optional[np.ndarray] = None
        self.error: Optional[Exception] = None
        #: (trace_id, parent_span_id) carried from the requesting connection
        self.trace = trace
        self.enqueue_s = enqueue_s
        #: stamped by the worker when the result view is handed over; lets
        #: the consumer's respond accounting start at delivery rather than
        #: at its own wake-up (the gap is thread scheduling, not response)
        self.delivered_s = 0.0
        #: absolute monotonic deadline (inf = none), priority class (higher
        #: first), and tenant — consumed by the EDF queue when a scheduling
        #: policy is armed, inert otherwise
        self.deadline_s = deadline_s
        self.priority = priority
        self.tenant = tenant
        #: set by the consumer once ``result`` is no longer needed; the
        #: worker's lease barrier waits on this before reusing the arena
        self.consumed = _UNQUEUED
        #: True when ``result`` is a view of a plan arena (volatile: only
        #: valid until ``consumed`` is set)
        self.arena = False
        #: app pipeline fields: the TonicApp whose pre/post kernels run
        #: server-side, the raw payload, the in-slot raw parts a proc-pool
        #: batch deferred (worker-process preprocess), the submitter's row
        #: estimate used for assembly before preprocess, and the final
        #: postprocessed answer delivered to ``submit_app``
        self.app = app
        self.raw = raw
        self.raw_parts: Optional[List[np.ndarray]] = None
        self.row_hint = row_hint
        self.result_obj = None


class ResultLease:
    """A scatter slice leased to a zero-copy consumer.

    ``outputs`` is a read-only view — of the plan's output slab on the
    planned path (valid only until :meth:`release`), of a worker-owned batch
    array on the legacy path.  Always release (or use as a context manager):
    an unreleased arena lease stalls that model's worker for the barrier
    timeout.
    """

    __slots__ = ("_pending",)

    def __init__(self, pending: _Pending):
        self._pending = pending

    @property
    def outputs(self) -> np.ndarray:
        return self._pending.result

    @property
    def delivered_s(self) -> float:
        """Worker-side delivery stamp (0.0 until the result is handed out)."""
        return self._pending.delivered_s

    def release(self) -> None:
        self._pending.consumed.set()

    def __enter__(self) -> "ResultLease":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class _FastLease:
    """A fast-path result lease: ``outputs`` views the parent-side plan's
    output slab, and :meth:`release` returns the plan lock the submitting
    thread took (instead of signalling a worker's barrier).  Same contract
    as :class:`ResultLease` from the consumer's point of view."""

    __slots__ = ("outputs", "delivered_s", "_lock")

    def __init__(self, outputs: np.ndarray, delivered_s: float, lock):
        self.outputs = outputs
        self.delivered_s = delivered_s
        self._lock = lock

    def release(self) -> None:
        lock, self._lock = self._lock, None
        if lock is not None:
            lock.release()

    def __enter__(self) -> "_FastLease":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class BatchingExecutor:
    """Per-model batching queues with one worker thread per model.

    ``service_floor_s`` imposes a minimum wall-clock time per executed
    batch (compute + GIL-released sleep), pacing each worker like a serial
    device — see :class:`repro.core.server.DjinnServer`.  ``clock`` is the
    monotonic time source shared with the owning server; ``tracer``,
    ``metrics`` and ``profile_layers`` wire the executor into that server's
    observability surfaces.
    """

    #: how long the lease barrier waits for consumers before reclaiming the
    #: arena anyway (a dead consumer must not wedge the worker forever)
    LEASE_TIMEOUT_S = 5.0

    def __init__(self, registry: ModelRegistry, policy: BatchPolicy = BatchPolicy(),
                 service_floor_s: float = 0.0,
                 clock: Callable[[], float] = time.monotonic,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 profile_layers: bool = False,
                 use_plans: bool = True,
                 pool=None,
                 sched=None,
                 latency: Optional[LatencyModel] = None):
        self.registry = registry
        self.policy = policy
        self.service_floor_s = service_floor_s
        self.use_plans = use_plans
        #: optional :class:`repro.core.procpool.ProcPoolExecutor`; when set,
        #: assembled batches execute in a worker *process* (weights in shared
        #: memory) instead of this thread, and the in-parent plan is skipped
        self.pool = pool
        self.clock = clock
        self.tracer = tracer if tracer is not None else get_tracer()
        self.profile_layers = profile_layers
        #: optional :class:`repro.sched.SchedPolicy` (or its name); when set,
        #: per-model queues become EDF/priority queues, batch size and window
        #: are decided online, and expired requests are rejected before
        #: forward.  ``None`` keeps the original fixed path bit-for-bit.
        self.sched = make_policy(sched) if sched is not None else None
        #: measured per-model latency curve driving the adaptive policy;
        #: shared with the owning server/gateway when they pass one in
        self.latency = latency if latency is not None else LatencyModel()
        if metrics is not None:
            self._batch_size = metrics.histogram(
                "djinn_batch_size",
                "Inputs per executed forward pass, per model.",
                ("model",), buckets=BATCH_SIZE_BUCKETS)
            self._expired = metrics.counter(
                "djinn_sched_expired_total",
                "Requests rejected in queue: deadline expired before forward.",
                ("model",))
            self._stage_seconds = metrics.counter(
                "djinn_stage_seconds_total",
                "Request-weighted seconds spent per serving stage, per model.",
                ("model", "stage"))
            self._fast_hits = metrics.counter(
                "djinn_fast_path_total",
                "Requests served by the batch-1 fast path (no queue handoff).",
                ("model",))
            self.latency.seed_from_metrics(metrics)
        else:
            self._batch_size = None
            self._expired = None
            self._stage_seconds = None
            self._fast_hits = None
        self._queues: Dict[str, Queue] = {}
        self._workers: Dict[str, threading.Thread] = {}
        self._lock = threading.Lock()
        self._closed = False
        #: batch sizes actually executed, per model (observability/tests)
        self.executed_batches: Dict[str, List[int]] = {}
        #: models whose parent-side plan failed to compile; the fast path
        #: stops re-trying them (the queue path serves them instead)
        self._fast_off: set = set()

    # ------------------------------------------------------------ lifecycle
    def _ensure_worker(self, model: str) -> Queue:
        with self._lock:
            if self._closed:
                raise RuntimeError("executor is closed")
            if model not in self._queues:
                self.registry.get(model)  # fail fast on unknown models
                queue = EdfQueue() if self.sched is not None else Queue()
                self._queues[model] = queue
                # setdefault: a concurrent batch-1 fast-path hit may already
                # have recorded rows here before the first enqueue
                self.executed_batches.setdefault(model, [])
                worker = threading.Thread(
                    target=self._run_worker, args=(model, queue), daemon=True,
                    name=f"djinn-batch-{model}",
                )
                self._workers[model] = worker
                worker.start()
            return self._queues[model]

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            queues = list(self._queues.values())
        for queue in queues:
            queue.put(None)  # wake workers for shutdown
        for worker in self._workers.values():
            worker.join(timeout=5.0)

    # -------------------------------------------------------------- submit
    def _request(self, inputs: Optional[np.ndarray],
                 trace: Optional[Tuple[int, int]],
                 qos: Optional[Tuple[float, int, str]],
                 app=None, raw=None, row_hint: int = 1) -> _Pending:
        # stamped first: wrapping the request is part of the fast path's
        # batch assembly (a queued request re-stamps at enqueue)
        submitted_s = self.clock()
        deadline_s, priority, tenant = qos if qos is not None \
            else (float("inf"), 0, "")
        # no forced copy: the planned path gathers payloads straight into
        # the arena, the legacy path concatenates — neither needs contiguity
        if inputs is not None:
            inputs = np.asarray(inputs, dtype=np.float32)
        return _Pending(inputs, trace, submitted_s, deadline_s=deadline_s,
                        priority=priority, tenant=tenant, app=app, raw=raw,
                        row_hint=row_hint)

    def _enqueue(self, model: str, pending: _Pending) -> _Pending:
        # queue time starts when the caller hands the request over, not
        # after worker/bookkeeping setup — the gap is queueing, not limbo
        pending.enqueue_s = self.clock()
        pending.event = threading.Event()
        pending.consumed = threading.Event()
        self._ensure_worker(model).put(pending)
        pending.event.wait()
        if pending.error is not None:
            pending.consumed.set()  # unblock the worker's lease barrier
            raise pending.error
        assert pending.app is not None or pending.result is not None
        return pending

    def submit(self, model: str, inputs: np.ndarray,
               trace: Optional[Tuple[int, int]] = None,
               qos: Optional[Tuple[float, int, str]] = None) -> np.ndarray:
        """Enqueue ``inputs`` (n, *input_shape); blocks until results ready.

        Returns an array the caller owns: arena-backed slices are copied out
        (and the lease released) before returning; legacy slices are durable
        read-only views of the batch output.  ``trace`` is an optional
        ``(trace_id, parent_span_id)`` pair; when present, the request's
        queue wait and the batch it lands in are recorded as spans of that
        trace.  ``qos`` is an optional ``(deadline_s, priority, tenant)``
        triple (deadline absolute on this executor's clock); it only takes
        effect when a scheduling policy is armed, and an expired request
        raises :class:`repro.sched.DeadlineExceededError` instead of
        running.
        """
        pending = self._request(inputs, trace, qos)
        fast = self._try_fast(model, pending)
        if fast is not _FAST_MISS:
            with fast:
                return fast.outputs.copy()
        self._enqueue(model, pending)
        result = pending.result
        if pending.arena:
            result = result.copy()
        pending.consumed.set()
        return result

    def submit_lease(self, model: str, inputs: np.ndarray,
                     trace: Optional[Tuple[int, int]] = None,
                     qos: Optional[Tuple[float, int, str]] = None) -> ResultLease:
        """Like :meth:`submit` but zero-copy: returns a :class:`ResultLease`
        whose ``outputs`` view the batch result in place.  The caller must
        ``release()`` (or exit the context manager) promptly — on the
        planned path the model's worker holds the arena until then (a fast-
        path lease holds the parent-side plan instead; same contract).
        """
        pending = self._request(inputs, trace, qos)
        fast = self._try_fast(model, pending)
        if fast is not _FAST_MISS:
            return fast
        return ResultLease(self._enqueue(model, pending))

    def submit_app(self, model: str, app, raw,
                   trace: Optional[Tuple[int, int]] = None,
                   qos: Optional[Tuple[float, int, str]] = None,
                   row_hint: int = 1):
        """Raw-payload path: the server owns the whole Tonic pipeline.

        ``raw`` is the decoded application payload (float image(s), audio
        samples, token text); ``app`` supplies the ``preprocess_batch`` /
        ``postprocess_batch`` kernels, which run batched in the worker
        context alongside every other coalesced raw request.  Returns the
        postprocessed application answer (a plain Python object — no
        arena lease to release).  ``row_hint`` is the submitter's estimate
        of the DNN rows this payload expands to, used only for batch
        assembly before preprocess runs.
        """
        pending = self._request(None, trace, qos, app=app, raw=raw,
                                row_hint=row_hint)
        fast = self._try_fast(model, pending)
        if fast is not _FAST_MISS:
            return fast
        self._enqueue(model, pending)
        pending.consumed.set()  # nothing leased: the worker postprocessed
        return pending.result_obj

    # ----------------------------------------------------------- fast path
    def _try_fast(self, model: str, pending: _Pending):
        """Batch-1 fast path: run the request as a batch of one, inline.

        When the model's queue is empty and a parent-side plan lock is
        free, the queue handoff (enqueue, worker wake-up, coalescing
        window, two context switches) — and, under a proc pool, the slot
        ring — are pure overhead for a batch of one.  This admits the
        request and runs it through :meth:`_run_batch`, the worker's own
        batch code, on the calling thread: a :class:`_FastLease` comes
        back for tensor submissions, the postprocessed answer for app
        submissions.  ``_FAST_MISS`` means the caller enqueues ``pending``
        — an app request then carries its preprocessed inputs, so the
        worker never preprocesses it again.  The fast path declines
        whenever inline execution could change semantics: queued work
        (coalescing wins), a service floor (pacing lives in the worker),
        an armed fault plan (hook order must stay deterministic per seed),
        an un-plannable model, an oversize request, or an already-expired
        deadline (the EDF queue owns typed rejection).
        """
        if (not self.use_plans or self.service_floor_s
                or faultsite.active is not None or self._closed
                or model in self._fast_off):
            return _FAST_MISS
        if self.sched is not None and self.clock() >= pending.deadline_s:
            return _FAST_MISS
        queue = self._queues.get(model)
        if queue is not None:
            depth = queue.depth_rows() if isinstance(queue, EdfQueue) \
                else queue.qsize()
            if depth:
                return _FAST_MISS
        # the fast path's dispatch work (wrapping, plan lookup, lock,
        # copy-in) is its batch assembly — for app requests it starts once
        # preprocess ends
        start = pending.enqueue_s
        if pending.app is not None:
            # preprocess errors reach the submitter as typed per-request
            # failures, exactly like the queue path's
            kept, _, start, _ = self._preprocess_stage(model, [pending],
                                                       defer=False)
            if not kept:
                raise pending.error
        rows = len(pending.inputs)
        if not rows or rows > self.policy.max_batch:
            return _FAST_MISS  # oversize rides the legacy stacked path
        try:
            plan = self.registry.plan(model, rows)
        except KeyError:
            raise  # unknown model: same failure as _ensure_worker's
        except Exception:
            self._fast_off.add(model)
            return _FAST_MISS
        if not plan.lock.acquire(blocking=False):
            return _FAST_MISS  # a concurrent batch owns the arena
        if self._fast_hits is not None:
            self._fast_hits.labels(model=model).inc()
        leased = False
        try:
            self._run_batch(model, plan, [pending], start)
            if pending.error is not None:
                raise pending.error  # a failed postprocess
            if pending.app is not None:
                return pending.result_obj
            leased = True  # lock ownership moves into the lease
            return _FastLease(pending.result, pending.delivered_s, plan.lock)
        finally:
            if not leased:
                plan.lock.release()

    # -------------------------------------------------------------- worker
    def _collect(self, queue: Queue) -> List[_Pending]:
        """Block for the first request, then coalesce within the window.

        The window is anchored at the *first request's enqueue time*, not at
        worker wake-up: under contention the worker can pick the request up
        late (lease barriers, floor sleeps, GIL), and re-anchoring at wake-up
        silently extended every window by that drift — each queued request
        paid the wait twice.
        """
        first = queue.get()
        if first is None:
            return []
        batch = [first]
        rows = item_rows(first)
        deadline = first.enqueue_s + self.policy.timeout_ms / 1e3
        while rows < self.policy.max_batch:
            remaining = deadline - self.clock()
            if remaining <= 0:
                break
            try:
                item = queue.get(timeout=remaining)
            except Empty:
                break
            if item is None:
                queue.put(None)  # keep shutdown signal visible
                break
            batch.append(item)
            rows += item_rows(item)
        return batch

    @staticmethod
    def _rows(pending: _Pending) -> int:
        """DNN rows a request contributes (raw parts before preprocess)."""
        return (len(pending.raw_parts) if pending.inputs is None
                else len(pending.inputs))

    @staticmethod
    def _gather(plan, batch: List[_Pending], rows: int) -> None:
        """Copy request payloads into the plan's input slab, in order."""
        slab = plan.input_view(rows)
        sample_shape = slab.shape[1:]
        offset = 0
        for pending in batch:
            arr = pending.inputs
            if tuple(arr.shape[1:]) != sample_shape:
                # np.copyto would silently broadcast a wrong-width payload;
                # fail the batch the way np.concatenate would have
                raise ValueError(
                    f"request payload shape {arr.shape[1:]} does not match "
                    f"model input shape {sample_shape}")
            n = arr.shape[0]
            np.copyto(slab[offset:offset + n], arr)
            offset += n

    def _active_models(self) -> int:
        """Models with queued work right now (drives co-scheduling)."""
        with self._lock:
            queues = list(self._queues.values())
        count = 0
        for queue in queues:
            if isinstance(queue, EdfQueue) and queue.depth_rows():
                count += 1
        return max(count, 1)

    def _reject_expired(self, model: str, expired: List[_Pending]) -> None:
        """Deliver typed rejections to requests that died in queue."""
        now = self.clock()
        tracer = self.tracer
        for pending in expired:
            late = now - pending.deadline_s
            if not np.isfinite(late):
                late = 0.0
            late = max(0.0, late)
            if tracer.enabled and pending.trace is not None:
                tid, parent = pending.trace
                tracer.add_span("sched.expire", pending.enqueue_s, now,
                                tid, parent, category="sched", model=model,
                                late_ms=round(late * 1e3, 3))
            pending.error = DeadlineExceededError(model, late)
            pending.event.set()
        if self._expired is not None:
            self._expired.labels(model=model).inc(len(expired))

    def _collect_sched(self, model: str,
                       queue: EdfQueue) -> Tuple[List[_Pending], float]:
        """Policy-driven assembly: EDF order, online batch size, expiry.

        Returns the batch plus the time assembly began — the anchor for
        ``sched.wait`` spans (policy-imposed wait, vs. backlog wait which is
        the rest of ``backend.queue``).
        """
        collect_start = self.clock()
        while True:
            batch, expired = queue.collect(
                self.sched, clock=self.clock,
                est_s=lambda rows: self.latency.estimate_s(model, rows),
                max_batch=self.policy.max_batch,
                timeout_s=self.policy.timeout_ms / 1e3,
                active_models=self._active_models)
            if expired:
                self._reject_expired(model, expired)
            if batch:
                return batch, collect_start
            if queue.finished:
                return [], collect_start

    # ------------------------------------------------------------ app stages
    def _preprocess_stage(self, model: str, batch: List[_Pending],
                          defer: bool = True):
        """Stage 1 of the app pipeline: batched server-side preprocess.

        Runs *before* the plan lock is taken (preprocess needs no arena),
        over the app requests still holding only their raw payload (one
        the fast path declined arrives preprocessed).  Returns ``(batch,
        pre_start, pre_end, deferred)``: the surviving requests — a
        poisoned raw payload errors out individually, the rest of the
        batch proceeds — the stage's extent (``0.0, 0.0`` when the batch
        carried no raw payloads), and whether preprocessing was deferred
        into the proc-pool worker process (with ``defer``, slot-eligible
        raw payloads ship as raw parts and are preprocessed in the shm
        slot).
        """
        if not any(p.app is not None and p.inputs is None for p in batch):
            return batch, 0.0, 0.0, False
        pre_start = self.clock()
        injector = faultsite.active
        if injector is not None:
            survivors = []
            for p in batch:
                if p.app is None:
                    survivors.append(p)
                    continue
                try:
                    injector.on_preprocess(model)
                except Exception as exc:
                    p.error = exc
                    p.event.set()
                    p.consumed.set()
                else:
                    survivors.append(p)
            batch = survivors
            if not batch:
                return batch, pre_start, self.clock(), False
        pool = self.pool
        if defer and pool is not None and len(batch) <= pool.max_batch:
            raw_shape = getattr(pool, "raw_item_shape", lambda m: None)(model)
            if raw_shape is not None and all(
                    p.app is not None and p.inputs is None
                    and isinstance(p.raw, np.ndarray)
                    and tuple(p.raw.shape) == raw_shape for p in batch):
                # preprocess moves into the worker process: each payload
                # ships as one raw slot part (1 raw item -> 1 DNN row for
                # slot-eligible shapes), parent-side cost is bookkeeping
                for p in batch:
                    p.raw_parts = [np.asarray(p.raw, dtype=np.float32)]
                return batch, pre_start, self.clock(), True
        by_app: Dict[int, Tuple[object, List[_Pending]]] = {}
        for p in batch:
            if p.app is not None and p.inputs is None:
                by_app.setdefault(id(p.app), (p.app, []))[1].append(p)
        failed = set()
        fresh: List[_Pending] = []  # requests preprocessed by this call
        for app, group in by_app.values():
            try:
                inputs, counts = app.preprocess_batch([p.raw for p in group])
                inputs = np.asarray(inputs, dtype=np.float32)
                offset = 0
                for p, count in zip(group, counts):
                    p.inputs = inputs[offset:offset + count]
                    offset += count
            except Exception:
                # the vectorized call failed somewhere inside the block;
                # re-run per item so only the poisoned payload errors out
                for p in group:
                    try:
                        p.inputs = np.asarray(app.preprocess(p.raw),
                                              dtype=np.float32)
                    except Exception as exc:
                        p.error = exc
                        p.event.set()
                        p.consumed.set()
                        failed.add(id(p))
            fresh.extend(p for p in group if id(p) not in failed)
        if failed:
            batch = [p for p in batch if id(p) not in failed]
        pre_end = self.clock()
        rows_pre = sum(len(p.inputs) for p in fresh)
        if rows_pre:
            self.latency.observe(f"{model}:preprocess", rows_pre,
                                 pre_end - pre_start)
        if self._stage_seconds is not None and fresh:
            self._stage_seconds.labels(model=model, stage="preprocess").inc(
                (pre_end - pre_start) * len(fresh))
        tracer = self.tracer
        if tracer.enabled:
            for p in fresh:
                if p.trace is not None:
                    tid, parent = p.trace
                    tracer.add_span("app.preprocess", pre_start, pre_end,
                                    tid, parent, category="app", model=model,
                                    rows=len(p.inputs))
        return batch, pre_start, pre_end, False

    def _postprocess_stage(self, model: str, batch: List[_Pending],
                           post_start: float) -> None:
        """Stage 3 of the app pipeline: batched postprocess.

        App waiters receive their final application answer instead of an
        arena view — the view is consumed *here*, worker-side, so those
        waiters never participate in the lease barrier.  A failing
        postprocess falls back to the per-item loop so only the offending
        request errors.  The stage starts at ``post_start``, the batch's
        delivery stamp, so the scatter bookkeeping in between stays
        attributed.
        """
        apps = [p for p in batch if p.app is not None]
        if not apps:
            return
        by_app: Dict[int, Tuple[object, List[_Pending]]] = {}
        for p in apps:
            by_app.setdefault(id(p.app), (p.app, []))[1].append(p)
        rows_post = 0
        for app, group in by_app.values():
            views = [p.result for p in group]
            counts = [len(view) for view in views]
            block = views[0] if len(views) == 1 \
                else np.concatenate(views, axis=0)
            try:
                results = app.postprocess_batch(
                    block, [p.raw for p in group], counts)
                for p, result in zip(group, results):
                    p.result_obj = result
            except Exception:
                for p, view in zip(group, views):
                    try:
                        p.result_obj = app.postprocess(view, p.raw)
                    except Exception as exc:
                        p.error = exc
            rows_post += sum(counts)
        post_end = self.clock()
        for p in apps:
            p.result = None
            p.arena = False
            p.delivered_s = post_end
            p.consumed.set()  # arena claim released worker-side
        self.latency.observe(f"{model}:postprocess", rows_post,
                             post_end - post_start)
        if self._stage_seconds is not None:
            self._stage_seconds.labels(model=model, stage="postprocess").inc(
                (post_end - post_start) * len(apps))
        tracer = self.tracer
        if tracer.enabled:
            for p in apps:
                if p.trace is not None:
                    tid, parent = p.trace
                    tracer.add_span("app.postprocess", post_start, post_end,
                                    tid, parent, category="app", model=model)

    def _run_worker(self, model: str, queue) -> None:
        plan = None
        if self.use_plans and self.pool is None:
            # with a proc pool the arena lives in the worker process; no
            # parent-side plan (and no parent-side arena allocation) needed
            try:
                plan = self.registry.plan(model, self.policy.max_batch)
            except Exception:  # un-plannable nets serve via the legacy path
                plan = None
        while True:
            collect_start = 0.0
            if self.sched is not None:
                batch, collect_start = self._collect_sched(model, queue)
            else:
                batch = self._collect(queue)
            if not batch:
                return
            batch, pre_start, pre_end, deferred = \
                self._preprocess_stage(model, batch)
            if not batch:
                continue  # every raw payload in the batch was poisoned
            # _collect admits one oversize request past max_batch; those
            # batches overflow the arena (or pool slot) and take the legacy
            # stacked path
            use_plan = (plan is not None and sum(map(self._rows, batch))
                        <= plan.max_batch)
            lease = None
            if use_plan:
                plan.lock.acquire()
            try:
                if faultsite.active is not None:
                    faultsite.active.on_batch(model)
                start = self.clock()
                # with an app preprocess stage in front, queueing ends when
                # preprocess picks the request up — the stages stay exclusive
                self._account_queue(model, batch,
                                    pre_start if pre_end > 0.0 else start,
                                    collect_start)
                lease = self._run_batch(model, plan if use_plan else None,
                                        batch, start, deferred)
            except Exception as exc:  # deliver failures to every waiter
                for pending in batch:
                    pending.error = exc
                    pending.consumed.set()  # nothing leased on failure
            finally:
                for pending in batch:
                    pending.event.set()
                if use_plan or lease is not None:
                    # lease barrier: the arena / shm slot is about to be
                    # reused, so wait until every consumer has
                    # copied/serialized its view
                    deadline = time.monotonic() + self.LEASE_TIMEOUT_S
                    try:
                        for pending in batch:
                            pending.consumed.wait(
                                timeout=max(0.0, deadline - time.monotonic()))
                    finally:
                        if use_plan:
                            plan.lock.release()
                        if lease is not None:
                            lease.release()

    def _account_queue(self, model: str, batch: List[_Pending],
                       queue_end: float, collect_start: float) -> None:
        """Charge each queued request's wait up to ``queue_end``.

        Emits ``backend.queue`` spans and stage seconds; under a scheduling
        policy the slice after ``collect_start`` (policy-imposed wait, vs.
        backlog) goes to ``sched.wait`` instead — stages stay exclusive,
        matching the cost ledger.
        """
        tracer = self.tracer
        if tracer.enabled:
            for pending in batch:
                if pending.trace is None:
                    continue
                tid, parent = pending.trace
                qspan = tracer.add_span("backend.queue", pending.enqueue_s,
                                        queue_end, tid, parent,
                                        category="queue", model=model)
                if self.sched is not None:
                    wait_from = max(pending.enqueue_s, collect_start)
                    if queue_end > wait_from:
                        tracer.add_span("sched.wait", wait_from, queue_end,
                                        tid, qspan.span_id,
                                        category="sched", model=model)
        stage = self._stage_seconds
        if stage is None:
            return
        if self.sched is not None and collect_start:
            queue_s = sum(
                max(0.0, min(queue_end, collect_start) - p.enqueue_s)
                for p in batch)
            wait_s = sum(
                max(0.0, queue_end - max(p.enqueue_s, collect_start))
                for p in batch)
            if wait_s > 0:
                stage.labels(model=model, stage="sched.wait").inc(wait_s)
        else:
            queue_s = sum(max(0.0, queue_end - p.enqueue_s) for p in batch)
        stage.labels(model=model, stage="backend.queue").inc(queue_s)

    def _run_batch(self, model: str, plan, batch: List[_Pending],
                   start: float, deferred: bool = False):
        """Run one assembled batch: gather → forward → scatter → postprocess.

        The single copy of the batch stage: the worker calls it for every
        coalesced batch, the fast path for a batch of one, so both emit the
        same spans and ``djinn_stage_seconds_total`` stages.  ``plan`` is
        the arena to run on, locked by the caller; ``None`` sends the
        batch to the proc pool when it fits (``deferred``: as raw parts
        the pool worker preprocesses), else to the legacy stacked forward.
        ``start`` is where batch assembly began.  Every waiter gets its
        read-only result slice, app waiters their postprocessed answer;
        waking waiters and the lease barrier stay with the caller.
        Returns the proc-pool slot lease pinning the outputs (``None`` off
        the pool); on failure it is released and the error propagates.
        """
        tracer = self.tracer
        traced = ([p for p in batch if p.trace is not None]
                  if tracer.enabled else [])
        rows = sum(map(self._rows, batch))
        use_pool = (plan is None and self.pool is not None
                    and rows <= self.pool.max_batch)
        lease = None
        try:
            if plan is not None:
                self._gather(plan, batch, rows)
            elif not use_pool:
                stacked = np.concatenate([p.inputs for p in batch], axis=0)
            timer = (LayerTimer(self.clock)
                     if traced and self.profile_layers else None)
            forward_start = self.clock()
            if plan is not None:
                outputs = plan.execute(rows, timer=timer)
            elif use_pool:
                # gather happens directly into the shm slot; the result
                # stays pinned there under the lease until every waiter
                # has consumed its view.  A deferred batch ships *raw*
                # parts: the worker process preprocesses in-slot before
                # its forward (stage 1 parallelism across pool workers).
                if deferred:
                    lease = self.pool.submit_parts(
                        model, [part for p in batch for part in p.raw_parts],
                        raw=True)
                else:
                    lease = self.pool.submit_parts(
                        model, [p.inputs for p in batch])
                outputs = lease.outputs
            else:
                outputs = self.registry.get(model).forward(stacked,
                                                           timer=timer)
            forward_end = self.clock()
            if self.service_floor_s:
                # pace before the post-forward accounting so the paced
                # idle stays out of the scatter span (it is injected
                # device time, honestly left unattributed)
                remaining = self.service_floor_s - (self.clock() - start)
                if remaining > 0:
                    time.sleep(remaining)
            post_start = self.clock()
            # refine the measured latency curve on every executed batch
            self.latency.observe(model, rows, forward_end - forward_start)
            for pending in traced:
                # assemble emitted late so its extent can run right up to
                # the forward (gather + timer setup, gap-free)
                tid, parent = pending.trace
                tracer.add_span("batch.assemble", start, forward_start,
                                tid, parent, category="batch",
                                batch_size=rows, requests=len(batch))
                fspan = tracer.add_span("net.forward", forward_start,
                                        forward_end, tid, parent,
                                        category="compute", model=model,
                                        batch_size=rows)
                if timer is not None:
                    timer.emit_spans(tracer, tid, fspan.span_id)
            # setdefault: a fast-path batch can run before the worker exists
            self.executed_batches.setdefault(model, []).append(rows)
            if self._batch_size is not None:
                self._batch_size.labels(model=model).observe(rows)
            offset = 0
            for pending in batch:
                n = self._rows(pending)
                # a fresh slice view: the read-only flag must not stick to
                # the plan's own output slab (the next execute writes it)
                view = outputs[offset:offset + n]
                if view.flags.writeable:
                    view.flags.writeable = False  # consumers copy, never mutate
                pending.arena = plan is not None or lease is not None
                pending.result = view
                offset += n
            if self._stage_seconds is not None:
                # request-weighted: each waiter experienced the forward
                self._stage_seconds.labels(model=model, stage="net.forward").inc(
                    (forward_end - forward_start) * len(batch))
            delivered = self.clock()
            for pending in batch:
                pending.delivered_s = delivered
            for pending in traced:
                # batch disassembly: accounting + handing each waiter its
                # result view, the tail of the batching overhead
                tid, parent = pending.trace
                tracer.add_span("batch.scatter", post_start, delivered,
                                tid, parent, category="batch",
                                batch_size=rows)
            if self._stage_seconds is not None:
                self._stage_seconds.labels(
                    model=model, stage="batch.assemble").inc(
                    ((forward_start - start) + (delivered - post_start))
                    * len(batch))
            self._postprocess_stage(model, batch, delivered)
        except BaseException:
            if lease is not None:
                lease.release()
            raise
        return lease
