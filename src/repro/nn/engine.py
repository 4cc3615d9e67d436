"""Planned execution: compile a net into an arena-backed ``ExecutionPlan``.

The paper's serving path pays its latency in GEMMs; this numpy substrate was
paying it in allocation — every ``Net.forward`` built fresh activation and
im2col buffers, so the "steady state" of a DjiNN backend was a page-fault
loop.  The fix follows the TPU playbook: walk the layer graph once, size
every output and scratch buffer for a maximum batch, and lay them out in one
reusable arena so repeated forwards allocate nothing.

Compilation
-----------
:class:`ExecutionPlan` accepts either a sequential :class:`repro.nn.Net` or a
DAG :class:`repro.nn.GraphNet` (duck-typed on its ``_specs`` table) and
lowers it to a list of steps, one per layer.  Each step's output buffer is
assigned by a liveness scan:

* ``plan_alias`` layers (Dropout at inference, Flatten) produce a *view* of
  their input's buffer — no memory, no kernel;
* ``plan_inplace`` layers (activations, Softmax) write over their input's
  buffer when nothing else reads it later (DAG fan-out disables this);
* everything else gets a first-fit offset among the buffers live at that
  step, so ping/pong reuse falls out of lifetime analysis rather than a
  hard-coded double-buffer scheme.

Per-layer scratch (im2col columns, padded copies, reduction slots — declared
via :meth:`repro.nn.layers.base.Layer.plan_scratch`) shares a single slab
sized by the hungriest step; steps never overlap in time, so the slab needs
no liveness tracking.

Execution
---------
``execute(n)`` runs the compiled steps over the arena for any batch ``n`` up
to ``max_batch`` — partial batches are prefix views, no re-stack, and the
views are cached per ``n`` so the steady state creates no Python garbage
either.  The per-layer ``timer`` hook (:class:`repro.obs.LayerTimer`) fires
for every step, including aliases, so the planned path emits the exact span
taxonomy of the legacy loop.

Because both paths run the same ``forward_into`` kernels, planned output is
byte-identical to the allocating ``forward`` — the equivalence suite in
``tests/test_engine.py`` pins that per model.

Thread safety: a plan is one arena, so callers must hold :attr:`lock` around
gather + execute + result consumption.  ``Net.forward`` and
:class:`repro.core.BatchingExecutor` both do; the latter keeps the lock until
every response view has been serialized (its lease barrier).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from .layers.base import Layer
from .layers.merge import MultiInputLayer

__all__ = ["PlanError", "ExecutionPlan", "measure_steady_state_alloc"]

#: Reserved top name for the network input (mirrors ``repro.nn.graph.INPUT``).
INPUT = "input"

#: Byte alignment of every arena / scratch region.
ALIGN = 64

_F32 = np.dtype(np.float32)


class PlanError(RuntimeError):
    """A net cannot be compiled or a plan is used outside its envelope."""


def _align(nbytes: int) -> int:
    return (nbytes + ALIGN - 1) & ~(ALIGN - 1)


class _Step:
    """One compiled layer invocation."""

    __slots__ = ("layer", "bottoms", "top", "alias", "multi")

    def __init__(self, layer: Layer, bottoms: List[str], top: str):
        self.layer = layer
        self.bottoms = bottoms
        self.top = top
        self.alias = bool(layer.plan_alias)
        self.multi = isinstance(layer, MultiInputLayer)


class _Views:
    """Per-batch-size bound views over the arena (cached per ``n``)."""

    __slots__ = ("input", "output", "steps")

    def __init__(self, input_view, output_view, steps):
        self.input = input_view
        self.output = output_view
        self.steps = steps


class ExecutionPlan:
    """A net compiled for batches up to ``max_batch`` over one arena.

    ``allocate=False`` compiles shapes and layout only (no arena), which is
    what :func:`repro.nn.workspace.plan_footprint` uses to cost a plan
    without committing the memory.
    """

    def __init__(self, net, max_batch: int, allocate: bool = True):
        if max_batch < 1:
            raise PlanError(f"max_batch must be >= 1, got {max_batch}")
        self.net = net
        self.max_batch = int(max_batch)
        self.lock = threading.RLock()
        self._steps, self._output = self._extract(net)
        self._shapes: Dict[str, Tuple[int, ...]] = {INPUT: tuple(net.input_shape)}
        for step in self._steps:
            self._shapes[step.top] = tuple(step.layer.out_shape)
        self._assign_slots()
        self._layout()
        self.scratch_bytes = max(
            (self._scratch_total(step, self.max_batch) for step in self._steps),
            default=0,
        )
        self._arena: Optional[np.ndarray] = None
        self._scratch: Optional[np.ndarray] = None
        self._view_cache: Dict[int, _Views] = {}
        if allocate:
            # zeros (not empty) so a fresh plan is deterministic: stale-data
            # bleed between batches would show up as an exact-equality diff
            self._arena = np.zeros(self.arena_bytes, dtype=np.uint8)
            self._scratch = np.zeros(self.scratch_bytes, dtype=np.uint8)

    # ------------------------------------------------------------ compile
    @staticmethod
    def _extract(net) -> Tuple[List[_Step], str]:
        layers = getattr(net, "layers", None)
        if not layers:
            raise PlanError(f"net {getattr(net, 'name', net)!r} has no layers")
        specs = getattr(net, "_specs", None)
        steps: List[_Step] = []
        if specs is not None:  # GraphNet: named bottoms, declared output
            for layer in layers:
                spec = specs[layer.name]
                steps.append(_Step(layer, list(spec.bottoms), layer.name))
            output = net.spec.output
        else:  # Net: a chain
            prev = INPUT
            for layer in layers:
                steps.append(_Step(layer, [prev], layer.name))
                prev = layer.name
            output = prev
        for step in steps:
            if step.alias and len(step.bottoms) != 1:
                raise PlanError(
                    f"alias layer {step.layer.name!r} must have exactly one bottom")
        return steps, output

    def _sample_bytes(self, name: str) -> int:
        return int(np.prod(self._shapes[name])) * _F32.itemsize

    def _assign_slots(self) -> None:
        """Map every top to a storage slot (alias/in-place merge inputs)."""
        steps = self._steps
        reads: Dict[str, List[int]] = {INPUT: []}
        for i, step in enumerate(steps):
            reads[step.top] = []
            for bottom in step.bottoms:
                reads[bottom].append(i)
        # the network output must survive until after the last step
        reads[self._output].append(len(steps))

        slot_of: Dict[str, int] = {INPUT: 0}
        slot_names: List[List[str]] = [[INPUT]]
        slot_bytes: List[int] = [self._sample_bytes(INPUT)]

        def fresh_slot(name: str) -> int:
            slot_names.append([name])
            slot_bytes.append(self._sample_bytes(name))
            return len(slot_names) - 1

        for i, step in enumerate(steps):
            nbytes = self._sample_bytes(step.top)
            slot = None
            if step.alias or (step.layer.plan_inplace and len(step.bottoms) == 1):
                candidate = slot_of[step.bottoms[0]]
                if step.alias:
                    if nbytes != slot_bytes[candidate]:
                        raise PlanError(
                            f"alias layer {step.layer.name!r} changes buffer size")
                    slot = candidate
                # in-place: legal only if no later step reads anything stored
                # in the candidate slot, and never over the input slab (the
                # serve path gathers the next batch into it)
                elif (candidate != 0 and nbytes == slot_bytes[candidate]
                        and not any(j > i for name in slot_names[candidate]
                                    for j in reads[name])):
                    slot = candidate
            if slot is None:
                slot = fresh_slot(step.top)
            else:
                slot_names[slot].append(step.top)
            slot_of[step.top] = slot

        last_use = [0] * len(slot_names)
        produced_at: Dict[str, int] = {INPUT: -1}
        for i, step in enumerate(steps):
            produced_at[step.top] = i
        for slot, names in enumerate(slot_names):
            last_use[slot] = max(
                max((produced_at[name] for name in names)),
                max((j for name in names for j in reads[name]), default=-1),
            )
        self._slot_of = slot_of
        self._slot_bytes = slot_bytes
        self._slot_last_use = last_use

    def _layout(self) -> None:
        """First-fit offsets driven by slot liveness (the ping/pong slabs)."""
        max_batch = self.max_batch
        offsets: List[Optional[int]] = [None] * len(self._slot_bytes)
        live: List[Tuple[int, int, int]] = []  # (offset, end, slot)

        def place(slot: int) -> None:
            size = _align(self._slot_bytes[slot] * max_batch)
            candidates = sorted({0, *(end for _, end, _ in live)})
            for off in candidates:
                if all(off + size <= o or off >= e for o, e, _ in live):
                    offsets[slot] = off
                    live.append((off, off + size, slot))
                    return
            raise PlanError("first-fit placement failed")  # pragma: no cover

        def release(step_index: int) -> None:
            live[:] = [iv for iv in live
                       if self._slot_last_use[iv[2]] > step_index]

        place(0)  # the input slab
        release(-1)
        for i, step in enumerate(self._steps):
            slot = self._slot_of[step.top]
            if offsets[slot] is None:
                place(slot)  # outputs placed before this step's inputs die
            release(i)
        self._slot_offsets = [off if off is not None else 0 for off in offsets]
        self.arena_bytes = max(
            (self._slot_offsets[s] + _align(self._slot_bytes[s] * max_batch)
             for s in range(len(self._slot_bytes))),
            default=0,
        )

    @staticmethod
    def _scratch_total(step: _Step, batch: int) -> int:
        total = 0
        for shape, dtype in step.layer.plan_scratch(batch).values():
            total += _align(int(np.prod(shape)) * np.dtype(dtype).itemsize)
        return total

    # ------------------------------------------------------------- binding
    def _views_for(self, n: int) -> _Views:
        views = self._view_cache.get(n)
        if views is not None:
            return views
        if not 1 <= n <= self.max_batch:
            raise PlanError(
                f"batch {n} outside plan envelope [1, {self.max_batch}]")
        if self._arena is None:
            raise PlanError("plan was compiled with allocate=False")
        top_view: Dict[str, np.ndarray] = {}
        for name, shape in self._shapes.items():
            off = self._slot_offsets[self._slot_of[name]]
            nbytes = n * self._sample_bytes(name)
            top_view[name] = (
                self._arena[off:off + nbytes].view(_F32).reshape((n,) + shape))
        bound = []
        for step in self._steps:
            scratch: Dict[str, np.ndarray] = {}
            off = 0
            for key, (shape, dtype) in step.layer.plan_scratch(n).items():
                dtype = np.dtype(dtype)
                nbytes = int(np.prod(shape)) * dtype.itemsize
                scratch[key] = (
                    self._scratch[off:off + nbytes].view(dtype).reshape(shape))
                off += _align(nbytes)
            xs = [top_view[b] for b in step.bottoms]
            bound.append((step, xs, top_view[step.top], scratch))
        views = _Views(top_view[INPUT], top_view[self._output], bound)
        self._view_cache[n] = views
        return views

    def input_view(self, n: int) -> np.ndarray:
        """The input slab for a batch of ``n`` — gather payloads into this."""
        return self._views_for(n).input

    def output_view(self, n: int) -> np.ndarray:
        """The output slab view for a batch of ``n`` (valid post-execute)."""
        return self._views_for(n).output

    # ------------------------------------------------------------- execute
    def execute(self, n: int, timer=None) -> np.ndarray:
        """Run the plan over whatever is in the input slab for batch ``n``.

        Returns the output-slab view (owned by the arena: callers copy it or
        hold :attr:`lock` until they are done reading).  ``timer`` is the
        same begin/end hook the legacy loop drives, fired for every step —
        alias steps included — so profiles and ``layer.*`` spans match.
        """
        if not self.net.materialized:
            raise PlanError(f"net {self.net.name!r} is not materialized")
        views = self._views_for(n)
        for step, xs, out, scratch in views.steps:
            layer = step.layer
            if timer is not None:
                timer.begin(layer)
            if not step.alias:
                layer.forward_into(xs if step.multi else xs[0], out, scratch,
                                   train=False)
            if timer is not None:
                timer.end(layer)
        return views.output

    def run(self, x: np.ndarray, timer=None) -> np.ndarray:
        """Gather ``x`` into the arena, execute, return an owned copy.

        This is the safe single-caller surface ``Net.forward`` dispatches
        through; the copy-free path (views + lease barrier) lives in
        :class:`repro.core.BatchingExecutor`.
        """
        x = np.asarray(x, dtype=np.float32)
        n = x.shape[0]
        with self.lock:
            inp = self.input_view(n)
            if x.shape != inp.shape:
                raise PlanError(
                    f"plan expects input of shape {inp.shape}, got {x.shape}")
            np.copyto(inp, x)
            return self.execute(n, timer=timer).copy()

    def run_into(self, x: np.ndarray, out: np.ndarray, timer=None) -> np.ndarray:
        """Gather ``x``, execute, and write the batch result into ``out``.

        The destination-passing twin of :meth:`run`: ``out`` is typically a
        response-slot view over a shared-memory ring
        (:mod:`repro.core.procpool`), so the steady state moves exactly two
        slabs — input into the arena, output into the slot — and allocates
        nothing.  Returns ``out``.
        """
        x = np.asarray(x, dtype=np.float32)
        n = x.shape[0]
        with self.lock:
            inp = self.input_view(n)
            if x.shape != inp.shape:
                raise PlanError(
                    f"plan expects input of shape {inp.shape}, got {x.shape}")
            result_shape = self.output_view(n).shape
            if tuple(out.shape) != result_shape:
                raise PlanError(
                    f"plan produces output of shape {result_shape}, "
                    f"destination has {tuple(out.shape)}")
            np.copyto(inp, x)
            np.copyto(out, self.execute(n, timer=timer))
        return out

    # ------------------------------------------------------------ reports
    def describe(self) -> dict:
        """Layout summary (arena map, slot sharing, scratch high-water)."""
        steps = []
        for step in self._steps:
            slot = self._slot_of[step.top]
            steps.append({
                "layer": step.layer.name,
                "type": step.layer.type_name,
                "top": step.top,
                "bottoms": list(step.bottoms),
                "mode": ("alias" if step.alias else
                         "inplace" if slot == self._slot_of[step.bottoms[0]]
                         and len(step.bottoms) == 1 else "compute"),
                "slot": slot,
                "offset": self._slot_offsets[slot],
                "bytes": self._slot_bytes[slot] * self.max_batch,
                "scratch_bytes": self._scratch_total(step, self.max_batch),
            })
        return {
            "net": self.net.name,
            "max_batch": self.max_batch,
            "arena_bytes": self.arena_bytes,
            "scratch_bytes": self.scratch_bytes,
            "slots": len(self._slot_bytes),
            "steps": steps,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ExecutionPlan({self.net.name!r}, max_batch={self.max_batch}, "
                f"arena={self.arena_bytes}B, scratch={self.scratch_bytes}B)")


def measure_steady_state_alloc(plan: ExecutionPlan, batches=None,
                               iters: int = 3) -> int:
    """Peak bytes of new Python/numpy allocation per steady-state execute.

    Warms the plan (first call per batch size builds cached views), then
    watches ``iters`` full sweeps under :mod:`tracemalloc` and reports the
    peak traced growth.  Snapshot diffs would net alloc/free churn out to
    zero; the *peak* is what catches a kernel that still allocates
    per-call.  A clean plan measures a few hundred bytes of interpreter
    noise; an allocating layer measures its buffer sizes.
    """
    import tracemalloc

    batch_list = sorted(set(batches)) if batches else [plan.max_batch]
    with plan.lock:
        for n in batch_list:
            plan.input_view(n)
            plan.execute(n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in range(iters):
                for n in batch_list:
                    plan.execute(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return max(0, peak - base)
