"""Instrumentation loaded into each live worker of a traced deployment.

:func:`install` runs from ``sitecustomize`` before the worker module
starts. It imports the program (timing that import), then wraps the
worker's entry points with spans on the worker's own thread-CPU clock:

* the event loop — one root span per ``_run_once`` iteration, a child
  per ``select`` and per callback the loop runs, each callback charged
  to the layer of the code it runs (transport tasks, runtime timers,
  the worker's arrival tick, or the loop itself);
* the live runtime, the transport (send, frame decoding), the wire
  codec, the protocol modules, the failure detector, the workload
  source and the worker's sample recording.

The accounting window opens when the worker's warm-up ends and closes
when it writes its final report; the process CPU of the same window is
what the per-layer self times must add up to. At the close, a JSON
report ``live-p<pid>.json`` goes to the output directory, next to the
spans in ``live-p<pid>-spans.jsonl``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

from pb_common import layer_of_file
from pb_protocols import instrument_protocols
from pb_spans import Patcher, SpanTracer, calibrate

#: Spans kept in memory per worker; later spans are timed but not kept.
MAX_SPANS = 300_000

#: Coroutines whose task steps belong to a layer other than the loop.
_TASK_LAYERS = (
    ("Transport.", "live.transport"),
    ("Worker.", "live.worker"),
)


def install(out_dir: str) -> None:
    started = time.perf_counter()
    import repro.live.worker  # noqa: F401  (the program, with all it imports)

    import_s = time.perf_counter() - started
    Hook(out_dir, import_s).install()


class Hook:
    def __init__(self, out_dir: str, import_s: float) -> None:
        self.out_dir = out_dir
        self.import_s = import_s
        clock = time.thread_time_ns
        self.tracer = SpanTracer(clock, *calibrate(clock), max_spans=MAX_SPANS)
        self.patcher = Patcher()
        self.worker_patched = False
        self.active = False
        self.window: dict = {}
        self.ticks = 0
        self.tick_late = 0.0
        self.delivered = 0
        self._classes: dict = {}

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        import asyncio
        import selectors

        from repro.live import transport
        from repro.live.runtime import LiveRuntime

        tracer, patcher = self.tracer, self.patcher
        enter, leave = tracer.enter, tracer.leave
        hook = self

        loop_cls = asyncio.base_events.BaseEventLoop
        run_once = loop_cls._run_once

        def _run_once(loop):
            frame = enter()
            try:
                return run_once(loop)
            finally:
                leave(frame, "live.loop", "live.loop:_run_once")

        patcher.replace(loop_cls, "_run_once", _run_once)
        patcher.wrap_method(tracer, "live.loop", selectors.EpollSelector, "select")

        handle_run = asyncio.events.Handle._run

        def _run(handle):
            if not hook.worker_patched:
                hook.patch_worker()
            layer, name, is_tick = hook.classify(handle._callback)
            if is_tick and hook.active:
                late = handle._loop.time() - handle._when
                hook.ticks += 1
                hook.tick_late += late
            frame = enter()
            try:
                return handle_run(handle)
            finally:
                leave(frame, layer, name)

        patcher.replace(asyncio.events.Handle, "_run", _run)

        for method in (
            "start",
            "inject",
            "on_network_message",
            "on_suspicion_change",
            "fd_send",
            "fd_schedule",
            "_fire_timer",
        ):
            patcher.wrap_method(tracer, "live.runtime", LiveRuntime, method)
        instrument_protocols(tracer, patcher)
        tracer.trace_gc()
        patcher.wrap_method(tracer, "live.transport", transport.Transport, "send")
        patcher.wrap_method(tracer, "live.transport", transport.FrameDecoder, "feed")
        patcher.replace(
            transport, "encode_message",
            tracer.wrap("net.wire", transport.encode_message, label="encode"),
        )
        patcher.replace(
            transport, "decode_message",
            tracer.wrap("net.wire", transport.decode_message, label="decode"),
        )

    def patch_worker(self) -> None:
        """Wrap the methods of the worker class run as ``__main__``."""
        self.worker_patched = True
        worker = getattr(sys.modules.get("__main__"), "Worker", None)
        if worker is None:
            return
        tracer, patcher = self.tracer, self.patcher
        for method in (
            "_on_accept",
            "_drain_samples",
            "_telemetry_document",
            "_backpressure_blocked",
            "_wal_checkpoint",
        ):
            patcher.wrap_method(tracer, "live.worker", worker, method)
        on_adeliver = tracer.wrap("live.worker", worker._on_adeliver)
        at_warmup_end = worker._at_warmup_end
        done_document = worker._done_document
        hook = self

        def _on_adeliver(instance, *args):
            if hook.active:
                hook.delivered += 1
            return on_adeliver(instance, *args)

        def _at_warmup_end(instance):
            at_warmup_end(instance)
            hook.open_window(instance)

        def _done_document(instance):
            hook.close_window(instance)
            return done_document(instance)

        patcher.replace(worker, "_on_adeliver", functools.wraps(worker._on_adeliver)(_on_adeliver))
        patcher.replace(worker, "_at_warmup_end", _at_warmup_end)
        patcher.replace(worker, "_done_document", _done_document)

    # -- classification ---------------------------------------------------

    def classify(self, callback) -> tuple[str, str, bool]:
        """``(layer, span name, is_arrival_tick)`` of a loop callback."""
        owner = getattr(callback, "__self__", None)
        if owner is not None and hasattr(owner, "get_coro"):
            coro = owner.get_coro()
            key = getattr(coro, "cr_code", None) or type(coro)
            entry = self._classes.get(key)
            if entry is None:
                qualname = getattr(coro, "__qualname__", type(coro).__name__)
                layer = "live.loop"
                for prefix, task_layer in _TASK_LAYERS:
                    if qualname.startswith(prefix):
                        layer = task_layer
                entry = self._classes[key] = (layer, f"{layer}:task {qualname}", False)
            return entry
        target = callback
        while isinstance(target, functools.partial):
            target = target.func
        target = getattr(target, "__func__", target)
        code = getattr(target, "__code__", None)
        entry = self._classes.get(code)
        if entry is None:
            qualname = code.co_qualname if code is not None else type(callback).__name__
            is_tick = qualname.endswith("_schedule_arrivals.<locals>.tick")
            if is_tick:
                layer = "live.worker"
            else:
                layer = (layer_of_file(code.co_filename) if code else "") or "live.loop"
            entry = self._classes[code] = (layer, f"{layer}:call {qualname}", is_tick)
        return entry

    # -- accounting window -------------------------------------------------

    def open_window(self, worker) -> None:
        self.tracer.reset_totals()
        self.active = True
        self.ticks = 0
        self.tick_late = 0.0
        self.delivered = 0
        self.window = {
            "cpu0": time.process_time(),
            "crossings0": worker.runtime.boundary_crossings,
        }

    def close_window(self, worker) -> None:
        if not self.active:
            return
        self.active = False
        tracer = self.tracer
        report = {
            "pid": worker.pid,
            "import_s": self.import_s,
            "cpu_s": time.process_time() - self.window["cpu0"],
            "self_ns": dict(tracer.self_time),
            "corrected_ns": dict(tracer.corrected),
            "named_ns": dict(tracer.named),
            "calls": dict(tracer.calls),
            "delivered": self.delivered,
            "ticks": self.ticks,
            "tick_late_s": self.tick_late,
            "crossings": worker.runtime.boundary_crossings - self.window["crossings0"],
            "spans": tracer.span_count,
        }
        # Spans first: the orchestrator stops the worker soon after its
        # final report, so nothing may be left for interpreter exit.
        tracer.keep_spans = False
        tracer.write_jsonl(os.path.join(self.out_dir, f"live-p{worker.pid}-spans.jsonl"))
        path = os.path.join(self.out_dir, f"live-p{worker.pid}.json")
        with open(path, "w", encoding="utf-8") as out:
            json.dump(report, out)
