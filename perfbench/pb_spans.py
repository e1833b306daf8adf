"""In-memory span tracer that times calls into the program from outside.

The benchmark never edits the program: it replaces selected functions
(class attributes or module globals) with wrappers for the duration of a
traced run and restores them afterwards. Each wrapper records one span
(name, start, end, parent span, and the message id when the call carries
one) and keeps a running *self time* per layer: a span's duration minus
the time covered by its child spans.
Because every child's time is subtracted from exactly one parent, the
per-layer self times of all spans below a root add up to the root's
duration.

Span names are ``"<layer>:<label>"``; the layer is everything before the
colon (``consensus``, ``sim.kernel``, ``live.transport``, ...).
"""

from __future__ import annotations

import functools
import gc
import json
import os
import statistics
from array import array
from collections import defaultdict
from typing import Any, Callable


class SpanTracer:
    """Records nested spans and accumulates per-layer self time.

    Besides the raw self time, the tracer keeps a *corrected* self time
    that subtracts its own calibrated cost (see :func:`calibrate`):
    ``c_in`` clock units inside every span and ``c_out`` units that each
    span adds to its parent's self time.
    """

    def __init__(
        self,
        clock: Callable[[], int],
        c_in: float = 0.0,
        c_out: float = 0.0,
        max_spans: int | None = None,
    ) -> None:
        self.clock = clock
        #: Spans kept in memory at most; later spans are timed, not kept.
        self.max_records = 6 * max_spans if max_spans is not None else 1 << 62
        self.c_in = c_in
        self.c_out = c_out
        #: Finished spans, six integers each: enter-order index, name id
        #: (see :attr:`names`), start, end, parent index (-1 for a root)
        #: and the message id packed as ``sender << 32 | seq`` (-1 when
        #: the call carries none). A flat array allocates no object per
        #: span, so tracing does not add garbage-collector work.
        self.records = array("q")
        #: Span name -> name id.
        self.names: dict[str, int] = {}
        #: Open spans, innermost last:
        #: ``[start, child_time, index, parent_index, overhead_from_children]``.
        self._stack: list[list] = []
        self._next_index = 0
        self.keep_spans = True
        self.reset_totals()

    @property
    def span_count(self) -> int:
        return len(self.records) // 6

    # -- recording ------------------------------------------------------

    def enter(self) -> list:
        stack = self._stack
        index = self._next_index
        self._next_index = index + 1
        frame = [0, 0, index, stack[-1][2] if stack else -1, 0.0]
        stack.append(frame)
        frame[0] = self.clock()
        return frame

    def leave(
        self, frame: list, layer: str, name: str, msg: Any = None, extra_out: float = 0.0
    ) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        duration = end - frame[0]
        if stack:
            parent = stack[-1]
            parent[1] += duration
            parent[4] += self.c_out + extra_out
        own = duration - frame[1]
        self.self_time[layer] += own
        corrected = own - self.c_in - frame[4]
        self.corrected[layer] += corrected
        self.named[name] += corrected
        self.calls[name] += 1
        if self.keep_spans:
            name_id = self.names.get(name)
            if name_id is None:
                name_id = self.names[name] = len(self.names)
            packed = -1 if msg is None else (msg[0] << 32) | msg[1]
            self.records.extend((frame[2], name_id, frame[0], end, frame[3], packed))
            if len(self.records) >= self.max_records:
                self.keep_spans = False

    def trace_gc(self) -> Callable[[], None]:
        """Record garbage collections as ``gc`` spans (children of the
        span they interrupt, so no layer is charged for them). Returns
        the function that stops recording."""
        open_frames: list = []

        def callback(phase: str, info: dict) -> None:
            if phase == "start":
                open_frames.append(self.enter())
            elif open_frames:
                self.leave(open_frames.pop(), "gc", "gc:collect")

        gc.callbacks.append(callback)
        return lambda: gc.callbacks.remove(callback)

    def wrap(
        self,
        layer: str,
        fn: Callable,
        label: str | None = None,
        msg_of: Callable[..., Any] | None = None,
        extra_out: float = 0.0,
    ) -> Callable:
        """A wrapper of *fn* that records one span per call.

        *extra_out* is the calibrated cost, beyond ``c_out``, that the
        caller pays around this wrapper (see :func:`calibrate_extra`).
        """
        name = f"{layer}:{label or fn.__qualname__}"
        enter = self.enter
        leave = self.leave

        if msg_of is None:

            def wrapper(*args, **kwargs):
                frame = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(frame, layer, name, None, extra_out)

        else:

            def wrapper(*args, **kwargs):
                frame = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(frame, layer, name, msg_of(*args))

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def reset_totals(self) -> None:
        """Start a new accounting interval (spans are kept)."""
        #: Self time per layer, in clock units.
        self.self_time: dict[str, int] = defaultdict(int)
        #: Self time per layer minus the tracer's own calibrated cost.
        self.corrected: dict[str, float] = defaultdict(float)
        #: Corrected self time per span name.
        self.named: dict[str, float] = defaultdict(float)
        #: Finished spans per name.
        self.calls: dict[str, int] = defaultdict(int)

    # -- output -----------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        """Write every kept span as ``[index, name, start, end, parent,
        [sender, seq] or null]``, one JSON array per line, in the order
        the spans ended."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        by_id = {name_id: name for name, name_id in self.names.items()}
        records = self.records
        with open(path, "w", encoding="utf-8") as out:
            for at in range(0, len(records), 6):
                index, name_id, start, end, parent, packed = records[at:at + 6]
                msg = None if packed < 0 else [packed >> 32, packed & 0xFFFFFFFF]
                out.write(json.dumps([index, by_id[name_id], start, end, parent, msg]) + "\n")


def calibrate(clock: Callable[[], int], rounds: int = 7, calls: int = 2000) -> tuple[float, float]:
    """Measure the tracer's own cost as ``(c_in, c_out)`` clock units.

    ``c_in`` is the self time of a span around a function that does
    nothing; ``c_out`` is what one such child span adds to its parent's
    self time beyond the bare call. Medians over *rounds* trials.
    """

    def noop():
        return None

    def loop(fn):
        for __ in range(calls):
            fn()

    inside, outside = [], []
    for __ in range(rounds):
        bare_start = clock()
        loop(noop)
        bare = clock() - bare_start
        tracer = SpanTracer(clock)
        child = tracer.wrap("child", noop)
        parent = tracer.wrap("parent", lambda: loop(child))
        parent()
        c_in = tracer.self_time["child"] / calls
        parent_self = tracer.self_time["parent"] - bare
        inside.append(c_in)
        outside.append(max(0.0, parent_self / calls))
    return statistics.median(inside), statistics.median(outside)


def calibrate_extra(
    clock: Callable[[], int], outer: Callable, inner: Callable, args: tuple,
    rounds: int = 7, calls: int = 2000,
) -> float:
    """Extra clock units per call of *outer* over *inner* (same *args*)."""
    samples = []
    for __ in range(rounds):
        start = clock()
        for __ in range(calls):
            inner(*args)
        middle = clock()
        for __ in range(calls):
            outer(*args)
        samples.append(((clock() - middle) - (middle - start)) / calls)
    return max(0.0, statistics.median(samples))


def msg_id_of(value: Any) -> Any:
    """The ``(sender, seq)`` of the message an argument carries, if any."""
    msg_id = getattr(value, "msg_id", None)
    if msg_id is None:
        message = getattr(value, "message", None)
        msg_id = getattr(message, "msg_id", None)
    if msg_id is None:
        return None
    return (msg_id.sender, msg_id.seq)


def msg_of_arg(index: int) -> Callable[..., Any]:
    """A ``msg_of`` extractor reading positional argument *index*."""

    def extract(*args):
        return msg_id_of(args[index]) if len(args) > index else None

    return extract


class Patcher:
    """Replaces attributes and puts the originals back on :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any, bool]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        had = attr in vars(owner)
        self._saved.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def wrap_method(
        self,
        tracer: SpanTracer,
        layer: str,
        cls: type,
        name: str,
        msg_of: Callable[..., Any] | None = None,
    ) -> None:
        """Wrap ``cls.name`` if *cls* itself defines it."""
        fn = vars(cls).get(name)
        if fn is not None and callable(fn):
            self.replace(cls, name, tracer.wrap(layer, fn, msg_of=msg_of))

    def restore(self) -> None:
        for owner, attr, value, had in reversed(self._saved):
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._saved.clear()


def defined_methods(cls: type) -> list[str]:
    """Plain functions defined directly on *cls* (no dunders/properties)."""
    return [
        name
        for name, value in vars(cls).items()
        if callable(value)
        and not isinstance(value, (staticmethod, classmethod, type))
        and not (name.startswith("__") and name.endswith("__"))
    ]
