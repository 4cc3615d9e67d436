"""The DjiNN server: a standalone, threaded TCP inference service.

Paper §3.1: "We design the DjiNN service to accept requests using a custom
socket protocol over TCP/IP ...  For each incoming request, DjiNN spawns a
worker thread, executes the DNN computation, and sends the prediction back
to the application."

Each accepted connection gets a worker thread; requests on a connection are
served in order (clients open several connections for concurrency, as the
paper's load generator does).  Models live in a shared read-only
:class:`ModelRegistry`; an optional :class:`BatchingExecutor` coalesces
concurrent requests per model (§5.1).

:class:`TcpServiceBase` holds the protocol-speaking TCP skeleton (accept
loop, per-connection workers, hard-stop connection teardown); it is shared
with the gateway front-end in :mod:`repro.gateway.server`.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
import time
from contextlib import nullcontext
from typing import Callable, Optional, Tuple

import numpy as np

from ..obs.metrics import MetricsRegistry, merge_dumps
from ..obs.profile import LayerTimer
from ..obs.slo import BurnRateMonitor
from ..obs.trace import Tracer, get_tracer
from ..sched import DeadlineExceededError
from . import faultsite
from .batching import BatchingExecutor, BatchPolicy
from .procpool import parse_workers
from .protocol import Message, MessageType, ProtocolError, recv_message, send_message
from .registry import ModelRegistry
from .session import SessionLimitError, SessionManager, TensorStreamApp
from .stats import ServiceStats

__all__ = ["TcpServiceBase", "DjinnServer"]


class TcpServiceBase:
    """Threaded TCP server skeleton for the DjiNN wire protocol.

    Subclasses implement :meth:`_handle` (dispatch one request; return
    ``False`` to drop the connection) and may override :meth:`_on_start` /
    :meth:`_on_stop` for extra lifecycle work.  ``stop()`` hard-closes live
    connections so blocked workers unwind and clients see a transport error
    immediately — from a gateway's point of view this is exactly what a
    killed instance looks like.
    """

    #: thread-name prefix for accept/worker threads
    service_name = "djinn"

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._host, self._port = host, port
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conns = []
        self._conns_lock = threading.Lock()
        self._running = threading.Event()

    # ------------------------------------------------------------ lifecycle
    def start(self):
        if self._listener is not None:
            raise RuntimeError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(64)
        self._listener = listener
        self._running.set()
        self._on_start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True,
            name=f"{self.service_name}-accept",
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        if not self._running.is_set():
            return
        self._running.clear()
        if self._listener is not None:
            # shutdown() wakes a thread blocked in accept(); close() alone
            # leaves the kernel socket accepting until that thread returns,
            # so a "stopped" server could still take one more connection.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        with self._conns_lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        self._on_stop()

    def _on_start(self) -> None:
        """Subclass hook, runs after the listener binds."""

    def _on_stop(self) -> None:
        """Subclass hook, runs after connections are torn down."""

    @property
    def address(self) -> Tuple[str, int]:
        if self._listener is None:
            raise RuntimeError("server not started")
        return self._listener.getsockname()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------- serving
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while self._running.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            if faultsite.active is not None and faultsite.active.on_accept(self.service_name):
                # injected refusal: the peer's first read sees a dead socket
                try:
                    conn.close()
                except OSError:
                    pass
                continue
            with self._conns_lock:
                self._conns.append(conn)
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True,
                name=f"{self.service_name}-worker",
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            with conn:
                while self._running.is_set():
                    try:
                        request = recv_message(conn, fault_scope=self.service_name)
                    except (ConnectionError, OSError):
                        return
                    except ProtocolError as exc:
                        self._safe_send(conn, Message(MessageType.ERROR, text=str(exc)))
                        return
                    try:
                        if not self._handle(conn, request):
                            return
                    except (ConnectionError, OSError):
                        # the handler lost its transport mid-request (e.g. a
                        # backend crash surfaced through the batching
                        # executor); drop the connection so the peer fails
                        # fast instead of waiting on a wedged stream
                        return
        finally:
            with self._conns_lock:
                if conn in self._conns:
                    self._conns.remove(conn)
            self._on_disconnect(conn)

    def _handle(self, conn: socket.socket, request: Message) -> bool:
        """Dispatch one request; returns False to drop the connection."""
        raise NotImplementedError

    def _on_disconnect(self, conn: socket.socket) -> None:
        """Subclass hook: a connection's worker has unwound (any cause).

        Runs exactly once per served connection, after the socket leaves
        the live set — the place to release any per-connection state
        (e.g. stream sessions) so a peer that vanishes mid-stream cannot
        leak server memory.
        """

    @staticmethod
    def _safe_send(conn: socket.socket, message: Message) -> None:
        try:
            send_message(conn, message)
        except OSError:
            pass  # client went away; nothing to do


class DjinnServer(TcpServiceBase):
    """DNN-as-a-service over TCP.

    Parameters
    ----------
    registry:
        Models to serve (materialized, shared read-only across workers).
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`address`).
    batching:
        Optional dynamic batching policy; ``None`` executes each request's
        inputs as its own forward pass.
    service_floor_s:
        Minimum wall-clock service time per executed forward pass.  The
        remainder (floor minus compute) is slept with the GIL released, so
        it paces this instance like a backend whose latency is dominated by
        an attached device (the paper's one-GPU-per-instance setup, §5.2)
        rather than by host CPU.  ``0.0`` (default) disables pacing.
    clock:
        Monotonic time source used for every latency measurement and window
        stamp on this server (injected for testability; the stack
        standardizes on ``time.monotonic``).
    tracer:
        Span collector for requests that arrive with trace context;
        defaults to the process tracer, which is disabled until something
        (e.g. ``djinn trace``) enables it.
    profile_layers:
        When True *and* a request is traced, time each network layer of its
        forward pass and attach ``layer.*`` spans (the Fig-4 breakdown).
        Off by default; untraced/unprofiled requests run the original loop.
    workers:
        Optional process-pool spec (``"proc:N"`` or an int N).  When set,
        forwards execute in N worker *processes* over shared-memory weights
        (:class:`repro.core.procpool.ProcPoolExecutor`): with ``batching``
        the pool runs each assembled batch, without it each request goes
        straight to a pool slot.  ``None``/``0`` keeps the threaded paths.
    worker_fault_plan:
        Optional :class:`repro.faults.FaultPlan` re-armed inside each pool
        worker with a worker-index-derived seed (chaos testing; the parent
        process uses the normal ``faultsite`` arming instead).
    sched:
        Optional scheduling policy (``"fixed"``, ``"adaptive"``, or a
        :class:`repro.sched.SchedPolicy`).  Requires ``batching``; arms the
        executor's EDF/priority queues, online batch sizing, and
        pre-forward expiry of deadlined requests.  ``None`` (default) keeps
        the original fixed batching path.  Independently of ``sched``,
        requests arriving with an already-spent deadline budget are
        answered with a typed DEADLINE_EXCEEDED frame on every serve path.
    stream_apps:
        Optional dict mapping model name to a streaming-app factory
        ``factory(net, dnn) -> app`` (``app`` implements ``feed``/
        ``finish``, see :class:`repro.core.session.TensorStreamApp`).
        Models without an entry stream through the generic tensor app;
        a model named ``"asr"`` whose shape fits the acoustic pipeline
        gets the incremental ASR decoder
        (:class:`repro.tonic.asr.AsrStream`) automatically.
    session_limit / session_idle_s:
        Bounds on the stream session table: at most ``session_limit``
        concurrently open streams (opens past it are rejected with a typed
        SESSION_LIMIT frame), and a session idle longer than
        ``session_idle_s`` is reaped in the background.
    apps:
        Optional dict mapping model name to the :class:`repro.tonic.TonicApp`
        whose pre/postprocess kernels serve that model's v5 ``APP_REQUEST``
        traffic (raw payload in, application answer out).  Models without
        an entry get a default app when their name and shape match one of
        the stateless Tonic apps (``imc``, ``dig``, ``face``, ``asr`` — see
        :func:`repro.tonic.serve.build_default_apps`); the NLP taggers
        carry trained featurizer state and must be passed explicitly.
    """

    #: pool batch envelope when serving without a batching policy — single
    #: requests larger than this fall back to an in-parent legacy forward
    DEFAULT_POOL_BATCH = 32

    def __init__(
        self,
        registry: ModelRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        batching: Optional[BatchPolicy] = None,
        service_floor_s: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
        tracer: Optional[Tracer] = None,
        profile_layers: bool = False,
        workers=None,
        worker_fault_plan=None,
        sched=None,
        stream_apps=None,
        session_limit: int = 64,
        session_idle_s: float = 30.0,
        apps=None,
    ):
        super().__init__(host=host, port=port)
        if service_floor_s < 0:
            raise ValueError(f"service_floor_s must be >= 0, got {service_floor_s}")
        if sched is not None and not batching:
            raise ValueError("sched requires a batching policy "
                             "(the scheduler drives the batch queues)")
        self.registry = registry
        self._clock = clock
        self.tracer = tracer if tracer is not None else get_tracer()
        self.profile_layers = profile_layers
        self.metrics = MetricsRegistry()
        self.stats = ServiceStats(clock=clock, registry=self.metrics)
        self._errors = self.metrics.counter(
            "djinn_errors_total", "Requests rejected, per model and reason.",
            ("model", "reason"))
        self._sched_expired = self.metrics.counter(
            "djinn_sched_expired_total",
            "Requests rejected in queue: deadline expired before forward.",
            ("model",))
        self._slo = self.metrics.counter(
            "djinn_slo_requests_total",
            "Deadline-carrying requests, per model and outcome "
            "(met|missed|expired).", ("model", "outcome"))
        self._stage_seconds = self.metrics.counter(
            "djinn_stage_seconds_total",
            "Request-weighted seconds spent per serving stage, per model.",
            ("model", "stage"))
        self._streams_total = self.metrics.counter(
            "djinn_streams_total",
            "Streams opened, per model and outcome "
            "(completed|aborted|rejected).", ("model", "outcome"))
        self._stream_aborted = self.metrics.counter(
            "djinn_stream_aborted_total",
            "Streams torn down before a final result, per model and reason "
            "(disconnect|idle|drop|error).", ("model", "reason"))
        self._stream_chunks = self.metrics.counter(
            "djinn_stream_chunks_total",
            "Stream chunks accepted, per model.", ("model",))
        self._stream_sessions = self.metrics.gauge(
            "djinn_stream_sessions", "Currently open stream sessions.")
        self._stream_apps = dict(stream_apps) if stream_apps else {}
        #: explicit app table for v5 APP_REQUEST serving; defaults are
        #: merged in lazily on first use (models may register after init)
        self._apps = dict(apps) if apps else {}
        self._apps_built = False
        self.sessions = SessionManager(
            limit=session_limit, idle_timeout_s=session_idle_s,
            clock=clock, on_evict=self._session_evicted)
        #: multi-window error-budget burn over deadline attainment; firing /
        #: resolved transitions land in the structured log
        self.slo_monitor = BurnRateMonitor(
            clock=clock, logger=logging.getLogger("repro.core.server"))
        self._floor_s = service_floor_s
        self._pool = None
        worker_count = parse_workers(workers)
        if worker_count:
            from .procpool import ProcPoolExecutor

            self._pool = ProcPoolExecutor(
                registry, workers=worker_count,
                max_batch=(batching.max_batch if batching
                           else self.DEFAULT_POOL_BATCH),
                metrics=self.metrics, tracer=self.tracer, clock=clock,
                fault_plan=worker_fault_plan,
            )
        if batching:
            self._executor = BatchingExecutor(
                registry, batching, service_floor_s=service_floor_s,
                clock=clock, tracer=self.tracer,
                metrics=self.metrics, profile_layers=profile_layers,
                pool=self._pool, sched=sched)
        else:
            self._executor = self._pool  # may be None: bare threaded serving

    def _on_start(self) -> None:
        self.sessions.start()

    def _on_stop(self) -> None:
        self.sessions.stop()
        if self._executor is not None and self._executor is not self._pool:
            self._executor.close()
        if self._pool is not None:
            self._pool.close()

    def _metrics_dump(self) -> dict:
        """This server's registry dump, merged with pool-worker dumps."""
        dump = self.metrics.dump()
        if self._pool is not None:
            worker_dumps = self._pool.worker_metric_dumps()
            if worker_dumps:
                dump = merge_dumps([dump] + worker_dumps)
        return dump

    # ------------------------------------------------------------- serving
    def _handle(self, conn: socket.socket, request: Message) -> bool:
        if request.type == MessageType.INFER_REQUEST:
            self._handle_infer(conn, request)
            return True
        if request.type == MessageType.APP_REQUEST:
            self._handle_app(conn, request)
            return True
        if request.type == MessageType.LIST_REQUEST:
            self._safe_send(
                conn,
                Message(MessageType.LIST_RESPONSE, text="\n".join(self.registry.names())),
            )
            return True
        if request.type == MessageType.STATS_REQUEST:
            self._safe_send(
                conn,
                Message(MessageType.STATS_RESPONSE, text=json.dumps(self.stats.snapshot())),
            )
            return True
        if request.type == MessageType.METRICS_REQUEST:
            self._safe_send(
                conn,
                Message(MessageType.METRICS_RESPONSE,
                        text=json.dumps(self._metrics_dump())),
            )
            return True
        if request.type == MessageType.STREAM_OPEN:
            self._handle_stream_open(conn, request)
            return True
        if request.type == MessageType.STREAM_CHUNK:
            self._handle_stream_chunk(conn, request)
            return True
        if request.type == MessageType.STREAM_CLOSE:
            self._handle_stream_close(conn, request)
            return True
        if request.type == MessageType.SHUTDOWN:
            self._safe_send(conn, Message(MessageType.SHUTDOWN))
            threading.Thread(target=self.stop, daemon=True).start()
            return False
        self._safe_send(
            conn, Message(MessageType.ERROR, text=f"unexpected message type {request.type}")
        )
        return True

    def _handle_infer(self, conn: socket.socket, request: Message) -> None:
        clock = self._clock
        tracer = self.tracer
        traced = bool(request.trace_id) and tracer.enabled
        span_cm = (
            tracer.span("backend.infer", category="backend",
                        trace_id=request.trace_id, parent_id=request.span_id,
                        model=request.name)
            if traced else nullcontext(None)
        )
        with span_cm as span:
            start = clock()
            lease = None
            # re-anchor the wire's *remaining budget* on this host's clock;
            # the absolute deadline then flows through queueing untouched
            deadline_s = (start + request.deadline_ms / 1e3
                          if request.deadline_ms else None)
            if traced and request.has_qos:
                span.set(deadline_ms=request.deadline_ms,
                         priority=request.priority, tenant=request.tenant)
            try:
                if request.tensor is None:
                    raise ValueError("inference request carries no tensor")
                net = self.registry.get(request.name)
                inputs = request.tensor
                if inputs.shape[1:] != net.input_shape:
                    raise ValueError(
                        f"model {request.name!r} expects inputs of shape "
                        f"(n, {', '.join(map(str, net.input_shape))}), got {inputs.shape}"
                    )
                if deadline_s is not None and clock() >= deadline_s:
                    # dead on arrival: reject on every serve path (the
                    # scheduler handles in-queue expiry; this covers the
                    # bare and pool paths, and budgets spent in transit)
                    now = clock()
                    self._sched_expired.labels(model=request.name or "?").inc()
                    if traced:
                        tracer.add_span(
                            "sched.expire", start, now, span.trace_id,
                            span.span_id, category="sched",
                            model=request.name,
                            late_ms=round((now - deadline_s) * 1e3, 3))
                    raise DeadlineExceededError(request.name, now - deadline_s)
                use_executor = self._executor is not None
                if (use_executor and self._executor is self._pool
                        and len(inputs) > self._pool.max_batch):
                    # a single request larger than the pool slot envelope:
                    # serve it in-parent on the legacy path rather than fail
                    use_executor = False
                pre_end = clock()
                self._stage_seconds.labels(
                    model=request.name,
                    stage="preprocess").inc(pre_end - start)
                if traced:
                    tracer.add_span("preprocess", start, pre_end,
                                    span.trace_id, span.span_id,
                                    category="backend", model=request.name)
                if use_executor:
                    # zero-copy: serialize the response straight from the
                    # batch output (a plan's output slab on the planned
                    # path, a shm response slot on the proc-pool path),
                    # releasing the lease only after the send
                    kwargs = {}
                    if request.has_qos and self._executor is not self._pool:
                        # the bare pool has no queue to schedule; its
                        # deadline handling is the dead-on-arrival check
                        kwargs["qos"] = (
                            deadline_s if deadline_s is not None
                            else float("inf"),
                            request.priority, request.tenant)
                    lease = self._executor.submit_lease(
                        request.name, inputs,
                        trace=(span.trace_id, span.span_id) if traced else None,
                        **kwargs,
                    )
                    outputs = lease.outputs
                else:
                    timer = (LayerTimer(clock)
                             if traced and self.profile_layers else None)
                    forward_start = clock()
                    outputs = net.forward(inputs, timer=timer)
                    forward_end = clock()
                    if traced:
                        fspan = tracer.add_span(
                            "net.forward", forward_start, forward_end,
                            span.trace_id, span.span_id, category="compute",
                            model=request.name, batch_size=len(inputs))
                        if timer is not None:
                            timer.emit_spans(tracer, span.trace_id, fspan.span_id)
                    if self._floor_s:
                        remaining = self._floor_s - (clock() - start)
                        if remaining > 0:
                            time.sleep(remaining)
            except DeadlineExceededError as exc:
                # typed rejection, not an ERROR: the request was valid, its
                # budget was simply spent (the scheduler counts queue-side
                # expiries; the dead-on-arrival check above counts its own)
                self._record_slo(request.name, "expired")
                self._safe_send(conn, Message(MessageType.DEADLINE_EXCEEDED,
                                              text=str(exc),
                                              trace_id=request.trace_id,
                                              span_id=request.span_id))
                return
            except (KeyError, ValueError) as exc:
                reason = "unknown_model" if isinstance(exc, KeyError) else "bad_request"
                self._errors.labels(model=request.name or "?", reason=reason).inc()
                self._safe_send(conn, Message(MessageType.ERROR, text=str(exc),
                                              trace_id=request.trace_id,
                                              span_id=request.span_id))
                return
            try:
                finish = clock()
                # respond starts when the executor handed the result over:
                # the worker's delivery stamp when available (the gap up to
                # ``finish`` is this thread waking up, part of responding)
                respond_start = finish
                if lease is not None:
                    delivered = getattr(lease, "delivered_s", 0.0)
                    if 0.0 < delivered < finish:
                        respond_start = delivered
                self.stats.record(
                    request.name, finish - start, inputs=len(inputs),
                    exemplar=f"{span.trace_id:016x}" if traced else None)
                if deadline_s is not None:
                    self._record_slo(
                        request.name,
                        "met" if finish <= deadline_s else "missed")
                response = Message(MessageType.INFER_RESPONSE, name=request.name,
                                   tensor=outputs, trace_id=request.trace_id,
                                   span_id=request.span_id)
                self._safe_send(conn, response)
                send_end = clock()
                # respond covers everything after the forward: accounting,
                # response serialization (straight from the lease's slab on
                # the zero-copy path), and the socket send
                self._stage_seconds.labels(
                    model=request.name,
                    stage="respond").inc(send_end - respond_start)
                if traced:
                    tracer.add_span("backend.respond", respond_start, send_end,
                                    span.trace_id, span.span_id, category="network")
            finally:
                if lease is not None:
                    lease.release()

    # ----------------------------------------------------------- app serving
    def _app_for(self, name: str):
        """The TonicApp serving ``name``'s APP_REQUEST traffic.

        Explicit ``apps`` entries win; defaults are built from the registry
        on first use.  Raises ``KeyError`` when the model has no app (same
        typed unknown-model error path as inference against an unknown
        name — from the client's view an app that is not served does not
        exist).
        """
        app = self._apps.get(name)
        if app is None and not self._apps_built:
            from ..tonic.serve import build_default_apps

            self._apps_built = True
            for key, built in build_default_apps(self.registry).items():
                self._apps.setdefault(key, built)
            app = self._apps.get(name)
        if app is None:
            raise KeyError(
                f"no serving app for model {name!r}; apps available: "
                f"{sorted(self._apps)}")
        return app

    def _handle_app(self, conn: socket.socket, request: Message) -> None:
        """Serve one v5 APP_REQUEST: raw payload in, application answer out.

        The whole Tonic pipeline runs server-side: the app's batched
        preprocess/postprocess kernels in the executor's worker context
        (coalescing with every other raw request for the model), the DNN
        stage through the same plan/slot-ring path as tensor traffic.
        Without a batching executor the three stages run inline on this
        connection's thread.
        """
        from ..tonic.serve import decode_raw, jsonable_result

        clock = self._clock
        tracer = self.tracer
        traced = bool(request.trace_id) and tracer.enabled
        span_cm = (
            tracer.span("backend.app", category="backend",
                        trace_id=request.trace_id, parent_id=request.span_id,
                        model=request.name)
            if traced else nullcontext(None)
        )
        with span_cm as span:
            start = clock()
            deadline_s = (start + request.deadline_ms / 1e3
                          if request.deadline_ms else None)
            if traced and request.has_qos:
                span.set(deadline_ms=request.deadline_ms,
                         priority=request.priority, tenant=request.tenant)
            try:
                app = self._app_for(request.name)
                raw = decode_raw(request)
                if deadline_s is not None and clock() >= deadline_s:
                    now = clock()
                    self._sched_expired.labels(model=request.name or "?").inc()
                    if traced:
                        tracer.add_span(
                            "sched.expire", start, now, span.trace_id,
                            span.span_id, category="sched",
                            model=request.name,
                            late_ms=round((now - deadline_s) * 1e3, 3))
                    raise DeadlineExceededError(request.name, now - deadline_s)
                trace_ctx = (span.trace_id, span.span_id) if traced else None
                if self._executor is not None and self._executor is not self._pool:
                    kwargs = {}
                    if request.has_qos:
                        kwargs["qos"] = (
                            deadline_s if deadline_s is not None
                            else float("inf"),
                            request.priority, request.tenant)
                    result = self._executor.submit_app(
                        request.name, app, raw, trace=trace_ctx, **kwargs)
                else:
                    result = self._run_app_inline(
                        request.name, app, raw, trace_ctx)
            except DeadlineExceededError as exc:
                self._record_slo(request.name, "expired")
                self._safe_send(conn, Message(MessageType.DEADLINE_EXCEEDED,
                                              text=str(exc),
                                              trace_id=request.trace_id,
                                              span_id=request.span_id))
                return
            except (KeyError, ValueError) as exc:
                reason = ("unknown_model" if isinstance(exc, KeyError)
                          else "bad_request")
                self._errors.labels(model=request.name or "?",
                                    reason=reason).inc()
                self._safe_send(conn, Message(MessageType.ERROR, text=str(exc),
                                              trace_id=request.trace_id,
                                              span_id=request.span_id))
                return
            finish = clock()
            self.stats.record(
                request.name, finish - start, inputs=1,
                exemplar=f"{span.trace_id:016x}" if traced else None)
            if deadline_s is not None:
                self._record_slo(
                    request.name, "met" if finish <= deadline_s else "missed")
            from .protocol import KIND_TEXT

            self._safe_send(conn, Message(
                MessageType.APP_RESPONSE, name=request.name,
                text=json.dumps(jsonable_result(result)),
                payload_kind=KIND_TEXT,
                trace_id=request.trace_id, span_id=request.span_id))
            send_end = clock()
            self._stage_seconds.labels(
                model=request.name, stage="respond").inc(send_end - finish)
            if traced:
                tracer.add_span("backend.respond", finish, send_end,
                                span.trace_id, span.span_id,
                                category="network")

    def _run_app_inline(self, name: str, app, raw, trace_ctx) -> object:
        """Bare serving: preprocess/forward/postprocess on this thread.

        Used when no batching executor is armed (bare threaded serving, or
        a bare proc pool — whose slot ring still runs the forward).
        """
        clock = self._clock
        tracer = self.tracer
        net = self.registry.get(name)
        if faultsite.active is not None:
            faultsite.active.on_preprocess(name)
        pre_start = clock()
        inputs = np.asarray(app.preprocess(raw), dtype=np.float32)
        pre_end = clock()
        self._stage_seconds.labels(
            model=name, stage="preprocess").inc(pre_end - pre_start)
        if trace_ctx is not None:
            tid, parent = trace_ctx
            tracer.add_span("app.preprocess", pre_start, pre_end, tid, parent,
                            category="app", model=name, rows=len(inputs))
        if inputs.shape[1:] != net.input_shape:
            raise ValueError(
                f"model {name!r} expects inputs of shape "
                f"(n, {', '.join(map(str, net.input_shape))}), "
                f"got {inputs.shape}")
        if self._pool is not None and len(inputs) <= self._pool.max_batch:
            outputs = self._pool.submit(name, inputs, trace=trace_ctx)
        else:
            forward_start = clock()
            outputs = net.forward(inputs)
            forward_end = clock()
            self._stage_seconds.labels(
                model=name, stage="net.forward").inc(forward_end - forward_start)
            if trace_ctx is not None:
                tid, parent = trace_ctx
                tracer.add_span("net.forward", forward_start, forward_end,
                                tid, parent, category="compute", model=name,
                                batch_size=len(inputs))
            if self._floor_s:
                remaining = self._floor_s - (clock() - forward_start)
                if remaining > 0:
                    time.sleep(remaining)
        post_start = clock()
        result = app.postprocess(outputs, raw)
        post_end = clock()
        self._stage_seconds.labels(
            model=name, stage="postprocess").inc(post_end - post_start)
        if trace_ctx is not None:
            tid, parent = trace_ctx
            tracer.add_span("app.postprocess", post_start, post_end, tid,
                            parent, category="app", model=name)
        return result

    # ------------------------------------------------------------ streaming
    def _stream_dnn(self, name: str, net) -> Callable:
        """Per-chunk DNN dispatch for a stream application.

        Chunks ride the same executor as unary traffic — with batching
        armed they enter the shared (EDF when scheduled) queues as small
        batches and coalesce with whatever else is in flight; the result is
        copied out because stream decode outlives the lease.
        """
        def dnn(batch: np.ndarray) -> np.ndarray:
            use_executor = self._executor is not None
            if (use_executor and self._executor is self._pool
                    and len(batch) > self._pool.max_batch):
                use_executor = False
            if not use_executor:
                return net.forward(batch)
            lease = self._executor.submit_lease(name, batch)
            try:
                return np.array(lease.outputs, copy=True)
            finally:
                lease.release()
        return dnn

    def _stream_app_for(self, name: str):
        """Instantiate the streaming application for one stream of ``name``.

        Explicit ``stream_apps`` factories win; a model named ``"asr"``
        with the acoustic pipeline's 440-dim input gets the incremental
        ASR decoder; everything else streams through the generic
        :class:`TensorStreamApp`.
        """
        net = self.registry.get(name)  # KeyError -> unknown model
        dnn = self._stream_dnn(name, net)
        factory = self._stream_apps.get(name)
        if factory is not None:
            return factory(net, dnn)
        if name == "asr" and tuple(net.input_shape) == (440,):
            from ..tonic.app import LocalBackend
            from ..tonic.asr import AsrApp, AsrStream

            try:
                app = AsrApp(LocalBackend(net),
                             num_senones=int(np.prod(net.output_shape)))
                return AsrStream(app, dnn=dnn)
            except ValueError:
                pass  # output narrower than the HMM: generic fallback
        return TensorStreamApp(net, dnn)

    def _handle_stream_open(self, conn: socket.socket, request: Message) -> None:
        model = request.name
        try:
            app = self._stream_app_for(model)
        except KeyError as exc:
            self._errors.labels(model=model or "?", reason="unknown_model").inc()
            self._streams_total.labels(model=model or "?",
                                       outcome="rejected").inc()
            self._safe_send(conn, Message(
                MessageType.ERROR, text=str(exc),
                stream_id=request.stream_id,
                trace_id=request.trace_id, span_id=request.span_id))
            return
        try:
            session = self.sessions.open(id(conn), request.stream_id, model, app)
        except SessionLimitError as exc:
            self._streams_total.labels(model=model, outcome="rejected").inc()
            self._safe_send(conn, Message(
                MessageType.SESSION_LIMIT,
                text=json.dumps({"error": str(exc), "limit": exc.limit}),
                stream_id=request.stream_id,
                trace_id=request.trace_id, span_id=request.span_id))
            return
        except ValueError as exc:  # duplicate stream id on this connection
            self._errors.labels(model=model, reason="bad_request").inc()
            self._safe_send(conn, Message(
                MessageType.ERROR, text=str(exc),
                stream_id=request.stream_id,
                trace_id=request.trace_id, span_id=request.span_id))
            return
        session.trace_id, session.span_id = request.trace_id, request.span_id
        session.priority, session.tenant = request.priority, request.tenant
        self._stream_sessions.set(len(self.sessions))
        self._safe_send(conn, Message(
            MessageType.STREAM_OPEN, name=model, stream_id=request.stream_id,
            trace_id=request.trace_id, span_id=request.span_id))

    def _handle_stream_chunk(self, conn: socket.socket, request: Message) -> None:
        clock = self._clock
        session = self.sessions.get(id(conn), request.stream_id)
        if session is None:
            self._safe_send(conn, Message(
                MessageType.ERROR,
                text=f"unknown or closed stream {request.stream_id}",
                stream_id=request.stream_id,
                trace_id=request.trace_id, span_id=request.span_id))
            return
        if (faultsite.active is not None
                and faultsite.active.on_stream_chunk(session.model)):
            # injected mid-stream drop: the chunk is discarded and the
            # stream aborted with a typed, stream-scoped error
            self._abort_session(session, "drop")
            self._safe_send(conn, Message(
                MessageType.ERROR,
                text=f"injected stream chunk drop ({session.model})",
                stream_id=request.stream_id,
                trace_id=request.trace_id, span_id=request.span_id))
            return
        if request.tensor is None:
            self._abort_session(session, "error")
            self._safe_send(conn, Message(
                MessageType.ERROR, text="stream chunk carries no tensor",
                stream_id=request.stream_id,
                trace_id=request.trace_id, span_id=request.span_id))
            return
        start = clock()
        try:
            result = session.app.feed(request.tensor)
            if getattr(session.app, "endpointed", False):
                result = session.app.finish()
                final = True
            else:
                final = False
        except (KeyError, ValueError, RuntimeError) as exc:
            self._abort_session(session, "error")
            self._errors.labels(model=session.model, reason="bad_request").inc()
            self._safe_send(conn, Message(
                MessageType.ERROR, text=str(exc),
                stream_id=request.stream_id,
                trace_id=request.trace_id, span_id=request.span_id))
            return
        session.chunks += 1
        self._stream_chunks.labels(model=session.model).inc()
        if session.trace_id and self.tracer.enabled:
            self.tracer.add_span(
                "stream.chunk", start, clock(), session.trace_id,
                session.span_id, category="stream", model=session.model,
                seq=session.chunks)
        if final:
            self._complete_session(session)
        self._safe_send(conn, Message(
            MessageType.STREAM_RESULT, name=session.model,
            text=json.dumps(result), stream_id=request.stream_id,
            stream_seq=session.chunks, stream_final=final,
            trace_id=request.trace_id, span_id=request.span_id))

    def _handle_stream_close(self, conn: socket.socket, request: Message) -> None:
        session = self.sessions.get(id(conn), request.stream_id)
        if session is None:
            self._safe_send(conn, Message(
                MessageType.ERROR,
                text=f"unknown or closed stream {request.stream_id}",
                stream_id=request.stream_id,
                trace_id=request.trace_id, span_id=request.span_id))
            return
        try:
            final = session.app.finish()
        except (KeyError, ValueError, RuntimeError) as exc:
            self._abort_session(session, "error")
            self._safe_send(conn, Message(
                MessageType.ERROR, text=str(exc),
                stream_id=request.stream_id,
                trace_id=request.trace_id, span_id=request.span_id))
            return
        session.chunks += 1
        self._complete_session(session)
        self._safe_send(conn, Message(
            MessageType.STREAM_RESULT, name=session.model,
            text=json.dumps(final), stream_id=request.stream_id,
            stream_seq=session.chunks, stream_final=True,
            trace_id=request.trace_id, span_id=request.span_id))

    def _complete_session(self, session) -> None:
        self.sessions.close(session.conn_key, session.stream_id)
        self._streams_total.labels(model=session.model,
                                   outcome="completed").inc()
        self._stream_sessions.set(len(self.sessions))
        self._end_stream_span(session, "completed")

    def _abort_session(self, session, reason: str) -> None:
        self.sessions.close(session.conn_key, session.stream_id)
        self._account_abort(session, reason)

    def _session_evicted(self, session, reason: str) -> None:
        """Reaper callback: the manager already removed the session."""
        self._account_abort(session, reason)

    def _account_abort(self, session, reason: str) -> None:
        self._streams_total.labels(model=session.model, outcome="aborted").inc()
        self._stream_aborted.labels(model=session.model, reason=reason).inc()
        self._stream_sessions.set(len(self.sessions))
        self._end_stream_span(session, reason)

    def _end_stream_span(self, session, outcome: str) -> None:
        if session.trace_id and self.tracer.enabled:
            self.tracer.add_span(
                "stream.session", session.opened_s, self._clock(),
                session.trace_id, session.span_id, category="stream",
                model=session.model, chunks=session.chunks, outcome=outcome)

    def _on_disconnect(self, conn: socket.socket) -> None:
        for session in self.sessions.drop_connection(id(conn)):
            self._account_abort(session, "disconnect")

    def _record_slo(self, model: str, outcome: str) -> None:
        """Account one deadline-carrying request's outcome and re-check burn."""
        self._slo.labels(model=model or "?", outcome=outcome).inc()
        self.slo_monitor.record(model or "?", attained=outcome == "met")
        self.slo_monitor.check()
