"""Per-layer timing for the traced run, installed inside the fleet process.

Nothing under ``src/`` changes: :func:`install` replaces the public
functions and methods of each layer with timing wrappers before the fleet
is built, and the fleet process dumps the totals on request.  Wrapped
calls on one thread nest on a thread-local stack, so each record carries
both its wall time and its self time (:func:`stats.self_time`: the span
minus the part of it covered by the wrapped calls made inside it).  While
:attr:`Recorder.on` is false every wrapper is a pass-through after one
attribute test.

Layers and what is wrapped:

* ``protocol`` — ``encode_message`` (wall time, frames, bytes) and
  ``recv_message`` (thread CPU time: its wall time is mostly waiting for
  the peer).
* ``gateway`` — ``Router.route``, ``response_key``, ``ResponseCache.get``
  / ``put``, ``BackendHandle.checkout`` / ``checkin``.
* ``server`` — on backend connection threads, the time from
  ``recv_message`` returning to ``send_message`` starting, minus the
  wrapped calls made in between (``self``), and ``send_message`` itself
  (``respond``).
* ``batching`` — ``BatchingExecutor.submit`` / ``submit_lease`` /
  ``submit_app``.
* ``engine`` — ``ExecutionPlan.execute``, ``Net.forward`` and every layer
  class's ``forward`` / ``forward_into``; FLOPs and bytes per layer call
  come from :func:`repro.nn.workspace.analyze` (computed, not measured).
* ``tonic`` — ``preprocess`` / ``preprocess_batch`` / ``postprocess`` /
  ``postprocess_batch`` per app class, ``AsrStream.feed`` / ``finish``.
* ``session`` — ``SessionManager.open`` / ``close``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from stats import self_time

perf_counter = time.perf_counter
thread_time = time.thread_time


class _Frame:
    __slots__ = ("children", "dnn")

    def __init__(self):
        self.children: List[Tuple[float, float]] = []  # wrapped calls made inside
        self.dnn: List[Tuple[float, float]] = []       # ... the batching-executor ones


class Recorder:
    """Totals of every wrapped call since the last :meth:`reset`."""

    def __init__(self):
        self.on = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self.net_models: Dict[int, str] = {}
        self.layer_ids: Dict[int, Tuple[str, str]] = {}
        #: (model, layer) -> (flops per row, fixed bytes, bytes per row)
        self.layer_costs: Dict[Tuple[str, str], Tuple[float, float, float]] = {}
        self.reset()

    def reset(self) -> None:
        with self._lock:
            #: key -> [calls, wall s, self s, items]
            self.spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0])
            self.counts: Dict[str, float] = defaultdict(float)
            #: top-level forwards: (start, end, model, rows, planned)
            self.forwards: List[Tuple[float, float, str, int, bool]] = []
            #: (model, layer) -> [calls, seconds, rows]
            self.layers: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0, 0.0, 0])

    # ------------------------------------------------------------ binding
    def bind(self, registry) -> None:
        """Learn which net and layer objects belong to which model."""
        from repro.nn.workspace import analyze

        for name in registry.names():
            net = registry.get(name)
            self.net_models[id(net)] = name
            one = {c.name: c for c in analyze(net, 1).layers}
            two = {c.name: c for c in analyze(net, 2).layers}
            for layer in net.layers:
                self.layer_ids[id(layer)] = (name, layer.name)
                c1, c2 = one.get(layer.name), two.get(layer.name)
                if c1 is None or c2 is None:
                    continue
                flops_row = c2.flops - c1.flops
                bytes1 = c1.param_bytes + c1.activation_bytes
                bytes_row = (c2.param_bytes + c2.activation_bytes) - bytes1
                self.layer_costs[(name, layer.name)] = (
                    float(flops_row), float(bytes1 - bytes_row), float(bytes_row))

    # -------------------------------------------------------------- state
    def local(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.engine_depth = 0
            loc.layer_depth = 0
            loc.tonic_depth = 0
            loc.planned = False
            loc.recv_end = None
            loc.top_wall = 0.0
        return loc

    def add(self, key: str, wall: float, self_s: float, items: int = 1) -> None:
        with self._lock:
            rec = self.spans[key]
            rec[0] += 1
            rec[1] += wall
            rec[2] += self_s
            rec[3] += items

    def count(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += value

    def dump(self) -> dict:
        with self._lock:
            layers = {}
            for (model, layer), (calls, secs, rows) in self.layers.items():
                flops_row, bytes_fixed, bytes_row = self.layer_costs.get(
                    (model, layer), (0.0, 0.0, 0.0))
                layers[f"{model}.{layer}"] = {
                    "calls": calls, "s": secs, "rows": rows,
                    "flops": flops_row * rows,
                    "bytes": bytes_fixed * calls + bytes_row * rows,
                }
            return {
                "spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts),
                "forwards": list(self.forwards),
                "layers": layers,
            }


def span(rec: Recorder, fn: Callable, key, items=None, on_exit=None,
         dnn: bool = False) -> Callable:
    """Wrap ``fn`` so each call is timed on the thread's span stack.

    ``key`` is a string or ``f(args) -> str``; ``items(args)`` counts the
    items one call handled; ``on_exit(args, result, start, end, frame)``
    records anything else.  ``dnn`` marks batching-executor calls, which
    stream apps subtract from their own time.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        loc = rec.local()
        stack = loc.stack
        frame = _Frame()
        stack.append(frame)
        start = perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            stack.pop()
            if stack:
                stack[-1].children.append((start, end))
                if dnn:
                    stack[-1].dnn.append((start, end))
            else:
                loc.top_wall += end - start
            name = key(args) if callable(key) else key
            if name is not None:
                rec.add(name, end - start, self_time(start, end, frame.children),
                        items(args) if items is not None else 1)
            if on_exit is not None:
                on_exit(args, result, start, end, frame)
    return wrapper


def _patch_function(original: Callable, replacement: Callable) -> None:
    """Rebind ``original`` in every ``repro`` module that imported it."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_method(cls, name: str, make: Callable[[Callable], Callable]) -> None:
    original = cls.__dict__.get(name)
    if original is None or isinstance(original, (staticmethod, classmethod)):
        return
    setattr(cls, name, make(original))


def install() -> Recorder:
    """Import the layers, wrap their public calls, return the recorder."""
    import repro.core.batching as batching
    import repro.core.protocol as protocol
    import repro.core.server as server_mod
    import repro.core.session as session
    import repro.gateway.cache as cache
    import repro.gateway.pool as pool
    import repro.gateway.router as router
    import repro.nn.engine as engine
    import repro.nn.layers as layers_pkg
    import repro.nn.network as network
    import repro.tonic.app as tonic_app
    import repro.tonic.asr as asr
    # every module that binds a wrapped function by name must be imported
    # before the patches, so that _patch_function reaches it
    import repro.core.client  # noqa: F401
    import repro.gateway  # noqa: F401
    import repro.tonic.serve  # noqa: F401  (and every served app class)

    rec = Recorder()

    # -- protocol ---------------------------------------------------------
    def on_encode(args, frame_bytes, start, end, frame):
        if frame_bytes is not None:
            rec.count("protocol.frames")
            rec.count("protocol.bytes", len(frame_bytes))

    encode = span(rec, protocol.encode_message, "protocol.encode",
                  on_exit=on_encode)
    _patch_function(protocol.encode_message, encode)

    original_recv = protocol.recv_message

    @functools.wraps(original_recv)
    def recv(*args, **kwargs):
        if not rec.on:
            return original_recv(*args, **kwargs)
        cpu = thread_time()
        try:
            return original_recv(*args, **kwargs)
        finally:
            rec.add("protocol.decode_cpu", thread_time() - cpu, 0.0)
            loc = rec.local()
            if threading.current_thread().name.startswith(
                    f"{server_mod.DjinnServer.service_name}-"):
                loc.recv_end = perf_counter()
                loc.top_wall = 0.0

    _patch_function(original_recv, recv)

    # -- server (backend connection threads) ------------------------------
    original_send = protocol.send_message
    backend_prefix = f"{server_mod.DjinnServer.service_name}-"

    def on_send_start():
        # recv_end is only stamped on backend connection threads
        loc = rec.local()
        if loc.recv_end is None or loc.stack:
            return
        rec.add("server.self", perf_counter() - loc.recv_end - loc.top_wall, 0.0)
        loc.recv_end = None

    wrapped_send = span(rec, original_send,
                        lambda a: ("server.respond"
                                   if threading.current_thread().name.startswith(backend_prefix)
                                   else "protocol.send"))

    @functools.wraps(original_send)
    def send(*args, **kwargs):
        if rec.on:
            on_send_start()
        return wrapped_send(*args, **kwargs)

    _patch_function(original_send, send)

    # -- gateway ----------------------------------------------------------
    _patch_method(router.Router, "route",
                  lambda f: span(rec, f, "gateway.route"))
    _patch_function(cache.response_key,
                    span(rec, cache.response_key, "gateway.cache_key"))

    def on_get(args, entry, start, end, frame):
        rec.count("gateway.cache_probes")
        if entry is not None:
            rec.count("gateway.cache_hits")

    _patch_method(cache.ResponseCache, "get",
                  lambda f: span(rec, f, "gateway.cache_get", on_exit=on_get))
    _patch_method(cache.ResponseCache, "put",
                  lambda f: span(rec, f, "gateway.cache_put"))
    _patch_method(pool.BackendHandle, "checkout",
                  lambda f: span(rec, f, "gateway.checkout"))
    _patch_method(pool.BackendHandle, "checkin",
                  lambda f: span(rec, f, "gateway.checkin"))

    # -- batching ---------------------------------------------------------
    for name in ("submit", "submit_lease", "submit_app"):
        _patch_method(batching.BatchingExecutor, name,
                      lambda f, n=name: span(rec, f, f"batching.{n}", dnn=True))

    # -- engine -----------------------------------------------------------
    def engine_wrap(fn: Callable, planned: bool, model_of: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.on:
                return fn(*args, **kwargs)
            loc = rec.local()
            outer = loc.engine_depth == 0
            if outer:
                loc.planned = False
            if planned:
                loc.planned = True
            loc.engine_depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                loc.engine_depth -= 1
                if outer:
                    model, rows = model_of(args)
                    with rec._lock:
                        rec.forwards.append((start, end, model, rows, loc.planned))
        return wrapper

    def plan_model(args):
        plan, n = args[0], args[1]
        return rec.net_models.get(id(plan.net), "?"), int(n)

    def net_model(args):
        net, x = args[0], args[1]
        rows = x.shape[0] if getattr(x, "ndim", 0) > len(net.input_shape) else 1
        return rec.net_models.get(id(net), "?"), int(rows)

    _patch_method(engine.ExecutionPlan, "execute",
                  lambda f: span(rec, engine_wrap(f, True, plan_model), "engine.execute"))
    _patch_method(network.Net, "forward",
                  lambda f: span(rec, engine_wrap(f, False, net_model), "engine.forward"))

    def layer_wrap(fn: Callable, rows_of: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.on:
                return fn(*args, **kwargs)
            loc = rec.local()
            if loc.layer_depth:
                return fn(*args, **kwargs)
            loc.layer_depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                secs = perf_counter() - start
                loc.layer_depth -= 1
                ident = rec.layer_ids.get(id(args[0]))
                if ident is not None:
                    rows = rows_of(args, kwargs)
                    with rec._lock:
                        entry = rec.layers[ident]
                        entry[0] += 1
                        entry[1] += secs
                        entry[2] += rows
        return wrapper

    def forward_rows(args, kwargs):
        x = args[1]
        return int((x[0] if isinstance(x, (list, tuple)) else x).shape[0])

    def forward_into_rows(args, kwargs):
        out = args[2] if len(args) > 2 else kwargs.get("out")
        return int(out.shape[0])

    for _, cls in inspect.getmembers(layers_pkg, inspect.isclass):
        if not issubclass(cls, layers_pkg.Layer):
            continue
        _patch_method(cls, "forward", lambda f: layer_wrap(f, forward_rows))
        _patch_method(cls, "forward_into", lambda f: layer_wrap(f, forward_into_rows))

    # -- tonic ------------------------------------------------------------
    def tonic_wrap(fn: Callable, stage: str, items_of: Callable) -> Callable:
        timed = span(rec, fn, lambda a: f"tonic.{a[0].app}.{stage}",
                     items=items_of)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.on:
                return fn(*args, **kwargs)
            loc = rec.local()
            if loc.tonic_depth:
                return fn(*args, **kwargs)
            loc.tonic_depth += 1
            try:
                return timed(*args, **kwargs)
            finally:
                loc.tonic_depth -= 1
        return wrapper

    def one(args):
        return 1

    def many(args):           # preprocess_batch(self, raws)
        return len(args[1])

    def many_post(args):      # postprocess_batch(self, outputs, raws, counts)
        return len(args[2])

    app_classes = {tonic_app.TonicApp}
    for module in list(sys.modules.values()):
        if module is None or not getattr(module, "__name__", "").startswith("repro.tonic"):
            continue
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, tonic_app.TonicApp):
                app_classes.add(cls)
    for cls in app_classes:
        _patch_method(cls, "preprocess", lambda f: tonic_wrap(f, "pre", one))
        _patch_method(cls, "preprocess_batch", lambda f: tonic_wrap(f, "pre", many))
        _patch_method(cls, "postprocess", lambda f: tonic_wrap(f, "post", one))
        _patch_method(cls, "postprocess_batch", lambda f: tonic_wrap(f, "post", many_post))

    def stream_exit(stage):
        def on_exit(args, result, start, end, frame):
            rec.add(f"tonic.asr_stream.{stage}_self",
                    self_time(start, end, frame.dnn), 0.0)
        return on_exit

    _patch_method(asr.AsrStream, "feed",
                  lambda f: span(rec, f, "tonic.asr_stream.feed",
                                 on_exit=stream_exit("feed")))
    _patch_method(asr.AsrStream, "finish",
                  lambda f: span(rec, f, "tonic.asr_stream.finish",
                                 on_exit=stream_exit("finish")))

    # -- sessions ---------------------------------------------------------
    _patch_method(session.SessionManager, "open",
                  lambda f: span(rec, f, "session.open"))
    _patch_method(session.SessionManager, "close",
                  lambda f: span(rec, f, "session.close"))
    return rec
