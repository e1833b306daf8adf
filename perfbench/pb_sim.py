"""Simulator workloads: CPU per delivered message, set-up, per-layer cost.

Every run starts with a correctness pass (an ``OrderingChecker`` over the
whole run); every timed repetition after it must reproduce that pass's
modelled outputs exactly. Timed repetitions run with tracing off. The
traced run (``--trace 1``) alternates untraced and traced repetitions,
then makes two deterministic count passes (cProfile calls, tracemalloc
blocks) per layer.
"""

from __future__ import annotations

import cProfile
import functools
import gc
import json
import pstats
import resource
import subprocess
import sys
import time
import tracemalloc

from repro.errors import OrderingViolation
from repro.experiments.runner import Simulation
from repro.metrics.collector import MetricsCollector
from repro.metrics.ordering import OrderingChecker
from repro.net.network import Network
from repro.sim.cpu import Cpu
from repro.sim.eventq import EventQueue
from repro.sim.kernel import Kernel
from repro.stack.runtime import ProcessRuntime
from repro.workload.generator import ArrivalSchedule

from pb_common import (
    OUT_DIR,
    ROOT,
    GateFailure,
    layer_of_file,
    median,
    nearest_rank,
    peak_rss_mb,
)
from pb_spans import (
    Patcher,
    SpanTracer,
    calibrate,
    calibrate_extra,
    msg_of_arg,
)
from pb_protocols import instrument_protocols
from pb_speed import reference_s, scale
from pb_workloads import sim_config

#: Fresh-interpreter set-up probes per run (the median is reported).
SETUP_PROBES = 5
#: Layers the count pass reports (``<layer>.py_calls_per_msg`` ...).
COUNT_LAYERS = (
    "sim.kernel",
    "sim.eventq",
    "sim.cpu",
    "sim.runner",
    "stack.runtime",
    "abcast",
    "consensus",
    "broadcast",
    "net",
    "fd",
    "workload",
    "workload.population",
    "metrics",
)
#: Layers whose span self times are reported (``<layer>.self_us_per_msg``);
#: ``gc`` is the garbage collector, timed apart from the layers.
SPAN_LAYERS = COUNT_LAYERS + ("gc",)


# ---------------------------------------------------------------------------
# Correctness pass
# ---------------------------------------------------------------------------


def fingerprint(result) -> tuple:
    """The modelled outputs every repetition must reproduce exactly."""
    metrics = result.metrics
    return (
        metrics.latency_p50,
        metrics.latency_p99,
        metrics.latency_count,
        metrics.throughput,
        metrics.offered_rate,
        metrics.blocked_attempts,
        metrics.boundary_crossings,
        result.instances_decided,
        result.events_executed,
        result.network.get("messages_sent"),
        result.network.get("bytes_sent"),
    )


def delivered_in_window(result) -> float:
    """Messages adelivered in the window, per process (group mean)."""
    return result.metrics.throughput * result.config.duration


def correctness_pass(name: str, seed: int) -> dict:
    """Run once with an ordering checker; raise :class:`GateFailure` on
    any violation. Returns the reference fingerprint and the modelled
    outputs."""
    config = sim_config(name)
    simulation = Simulation(config, seed)
    checker = OrderingChecker(config.n)
    accepted: list = []  # (msg_id, abcast time)
    deliveries: list[tuple[int, float]] = []
    simulation.add_accept_listener(checker.on_abcast)
    simulation.add_accept_listener(
        lambda message: accepted.append((message.msg_id, message.abcast_time))
    )
    simulation.add_adeliver_listener(checker.on_adeliver)
    simulation.add_adeliver_listener(
        lambda pid, message, when: deliveries.append((pid, when))
    )
    result = simulation.run()

    crashed = {crash.process for crash in config.faultload.crashes}
    correct = set(range(config.n)) - crashed
    try:
        checker.verify(correct)  # integrity and total order, whole run
    except OrderingViolation as violation:
        raise GateFailure(f"ordering check failed: {violation}") from None

    # Agreement and validity, over the messages accepted before the
    # window closed. A saturated sender keeps injecting its queued
    # arrivals while the run drains; the last of those are still in
    # flight when the run stops and are out of scope.
    # Failed: accepted from a correct sender, or delivered anywhere, yet
    # missing at some correct process after the drain. Messages of a
    # crashed sender that no process ever delivered are lost with the
    # crash, which the abcast specification allows; they are counted
    # separately.
    delivered_by = [set(checker.sequence(pid)) for pid in range(config.n)]
    anywhere = set().union(*delivered_by)
    everywhere = set.intersection(*(delivered_by[pid] for pid in correct))
    scoped = [m for m, t0 in accepted if t0 < config.total_time]
    failed = 0
    lost_with_crash = 0
    for msg_id in scoped:
        if msg_id in everywhere:
            continue
        if msg_id.sender in crashed and msg_id not in anywhere:
            lost_with_crash += 1
        else:
            failed += 1
    if failed:
        examples = ", ".join(
            f"p{m.sender}#{m.seq}@{t0:.4f}s"
            for m, t0 in accepted
            if t0 < config.total_time and m not in everywhere
            and not (m.sender in crashed and m not in anywhere)
        )
        raise GateFailure(
            f"{failed} of {len(scoped)} messages accepted before the window "
            f"closed were not delivered by every correct process after the "
            f"drain (agreement/validity; sender#seq@accept time: {examples[:600]})"
        )

    metrics = result.metrics
    if metrics.latency_count == 0 or metrics.throughput <= 0:
        raise GateFailure("no message was delivered in the measurement window")
    modelled = {
        "virtual_latency_p50_ms": metrics.latency_p50 * 1e3,
        "virtual_latency_p99_ms": metrics.latency_p99 * 1e3,
        "virtual_latency_samples": metrics.latency_count,
        "virtual_throughput_per_s": metrics.throughput,
        "offered_per_s": metrics.offered_rate,
    }
    if crashed:
        crash_at = min(crash.time for crash in config.faultload.crashes)
        observer = min(correct)
        times = sorted(when for pid, when in deliveries if pid == observer)
        start, end = config.warmup, config.total_time
        before = [t for t in times if start <= t < crash_at]
        after = [t for t in times if crash_at <= t < end]
        gaps = [b - a for a, b in zip([crash_at] + after, after + [end])]
        modelled["throughput_before_crash_per_s"] = len(before) / (crash_at - start)
        modelled["throughput_after_crash_per_s"] = len(after) / (end - crash_at)
        modelled["time_without_service_ms"] = max(gaps) * 1e3
        modelled["observer_process"] = observer
    return {
        "fingerprint": fingerprint(result),
        "modelled": modelled,
        "attempted": len(scoped),
        "failed": failed,
        "lost_with_crash": lost_with_crash,
        "msgs": delivered_in_window(result),
        "result": result,
    }


# ---------------------------------------------------------------------------
# Timed repetitions
# ---------------------------------------------------------------------------


def timed_rep(name: str, seed: int, reference: tuple) -> dict:
    """One untraced repetition: CPU and wall time of ``Simulation.run``."""
    simulation = Simulation(sim_config(name), seed)
    gc.collect()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    result = simulation.run()
    cpu = time.process_time() - cpu0
    wall = time.perf_counter() - wall0
    if fingerprint(result) != reference:
        raise GateFailure("a timed repetition did not reproduce the modelled outputs")
    return {"cpu": cpu, "wall": wall, "msgs": delivered_in_window(result), "result": result}


def measure_setup(name: str, seed: int, probes: int) -> list[dict]:
    """Spawn *probes* fresh interpreters; time spawn -> first event."""
    samples = []
    for __ in range(probes):
        spawned = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "pb_setup_probe.py"), name, str(seed)],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=str(ROOT),
        )
        if out.returncode != 0:
            raise GateFailure(f"set-up probe failed: {out.stderr.strip()[-400:]}")
        report = json.loads(out.stdout.strip().splitlines()[-1])
        report["setup_s"] = report["ready"] - spawned
        samples.append(report)
    return samples


def run_untraced(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """``--trace 0``: end-to-end metrics plus the printed details."""
    gate = correctness_pass(name, seed)
    setup = measure_setup(name, seed, SETUP_PROBES)
    reps = repeat(lambda: timed_rep(name, seed, gate["fingerprint"]), seconds, 5)
    cpu_per_msg = [rep["cpu"] / rep["msgs"] * 1e6 * rep["scale"] for rep in reps]
    per_wall = [rep["msgs"] / rep["wall"] / rep["scale"] for rep in reps]
    run_ms = [rep["cpu"] * 1e3 * rep["scale"] for rep in reps]
    metrics = {
        "cpu_us_per_msg": median(cpu_per_msg),
        "delivered_per_s": median(per_wall),
        "latency_p50_ms": median(run_ms),
        "setup_s": median([s["setup_s"] for s in setup]),
        "peak_rss_mb": peak_rss_mb(resource.getrusage(resource.RUSAGE_SELF)),
    }
    details = {
        "reps": len(reps),
        "gate": gate,
        "raw_cpu_us_per_msg": median([rep["cpu"] / rep["msgs"] * 1e6 for rep in reps]),
        "scale": median([rep["scale"] for rep in reps]),
        "run_ms_p90": nearest_rank(run_ms, 0.90),
    }
    return metrics, details


def repeat(rep, seconds: float, at_least: int) -> list[dict]:
    """Run *rep* for *seconds* (and at least *at_least* times), timing
    the reference loop between repetitions; each repetition gets the
    speed scale of the references on either side of it."""
    reps = []
    before = reference_s()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(reps) < at_least:
        result = rep()
        after = reference_s()
        result["scale"] = scale((before + after) / 2)
        reps.append(result)
        before = after
    return reps


# ---------------------------------------------------------------------------
# Traced repetitions
# ---------------------------------------------------------------------------


def _callback_target(callback):
    target = callback
    while True:
        if isinstance(target, functools.partial):
            target = target.func
        elif hasattr(target, "__wrapped__"):
            target = target.__wrapped__
        else:
            break
    return getattr(target, "__func__", target)


def _noop() -> None:
    return None


def instrument(tracer: SpanTracer, patcher: Patcher, state: dict) -> None:
    """Wrap the program's layer entry points for one traced repetition."""
    enter, leave = tracer.enter, tracer.leave
    classified: dict = {}

    def wrap_event(callback):
        """Give every kernel event a span named after the code it runs."""
        code = getattr(_callback_target(callback), "__code__", None)
        entry = classified.get(code)
        if entry is None:
            layer = (layer_of_file(code.co_filename) if code else "") or "other"
            label = code.co_qualname if code else type(callback).__name__
            entry = classified[code] = (layer, f"{layer}:event {label}")
        layer, name = entry

        def event():
            frame = enter()
            try:
                callback()
            finally:
                leave(frame, layer, name)

        return event

    def scheduling(method: str):
        """``EventQueue.push``/``post`` as a span, with the callback
        wrapped by :func:`wrap_event`; the wrapping is calibrated as
        extra cost charged to the caller."""
        original = getattr(EventQueue, method)
        plain = tracer.wrap("sim.eventq", original, label=f"EventQueue.{method}")

        def outer(self, when, callback):
            return plain(self, when, wrap_event(callback))

        probe = EventQueue()
        extra = calibrate_extra(tracer.clock, outer, plain, (probe, 0.0, _noop))
        span = tracer.wrap(
            "sim.eventq", original, label=f"EventQueue.{method}", extra_out=extra
        )

        def scheduled(self, when, callback):
            return span(self, when, wrap_event(callback))

        return scheduled

    patcher.replace(EventQueue, "push", scheduling("push"))
    patcher.replace(EventQueue, "post", scheduling("post"))

    run_span = tracer.wrap("sim.kernel", Kernel.run, label="Kernel.run")
    clock = tracer.clock

    def kernel_run(self, until=None):
        tracer.reset_totals()
        start = clock()
        try:
            return run_span(self, until)
        finally:
            state["root"] = clock() - start
            state["self"] = dict(tracer.self_time)
            state["corrected"] = dict(tracer.corrected)
            state["calls"] = dict(tracer.calls)

    patcher.replace(Kernel, "run", kernel_run)
    patcher.wrap_method(tracer, "sim.cpu", Cpu, "execute")
    for method in ("transmit", "_arrive"):
        patcher.wrap_method(tracer, "net", Network, method)
    for method in (
        "start",
        "inject",
        "crash",
        "_on_network_arrival",
        "_dispatch_message",
        "_dispatch_fd_message",
        "_fire_timer",
        "on_suspicion_change",
        "fd_send",
        "fd_schedule",
    ):
        patcher.wrap_method(
            tracer, "stack.runtime", ProcessRuntime, method,
            msg_of=msg_of_arg(1) if method == "inject" else None,
        )
    instrument_protocols(tracer, patcher)
    for method in ("start", "_tick", "catch_up", "resume", "finalize"):
        patcher.wrap_method(tracer, "workload", ArrivalSchedule, method)
    for method in ("on_offered", "on_accept", "on_adeliver", "finalize"):
        patcher.wrap_method(
            tracer, "metrics", MetricsCollector, method,
            msg_of=msg_of_arg(2) if method == "on_adeliver" else (
                msg_of_arg(1) if method == "on_accept" else None
            ),
        )
    for method in ("_on_accept", "_on_adeliver"):
        patcher.wrap_method(
            tracer, "sim.runner", Simulation, method,
            msg_of=msg_of_arg(2) if method == "_on_adeliver" else msg_of_arg(1),
        )


def traced_rep(name: str, seed: int, reference: tuple, cost: tuple[float, float]) -> dict:
    """One traced repetition; the program is restored afterwards.
    *cost* is the tracer's calibrated ``(c_in, c_out)``."""
    tracer = SpanTracer(time.perf_counter_ns, *cost)
    patcher = Patcher()
    state: dict = {}
    instrument(tracer, patcher, state)
    stop_gc_spans = tracer.trace_gc()
    try:
        simulation = Simulation(sim_config(name), seed)
        gc.collect()
        cpu0 = time.process_time()
        result = simulation.run()
        cpu = time.process_time() - cpu0
    finally:
        stop_gc_spans()
        patcher.restore()
    if fingerprint(result) != reference:
        raise GateFailure("tracing changed the modelled outputs")
    return {"cpu": cpu, "msgs": delivered_in_window(result), "tracer": tracer, **state}


# ---------------------------------------------------------------------------
# Deterministic count pass
# ---------------------------------------------------------------------------


def _calls_per_layer(profile: cProfile.Profile) -> dict[str, int]:
    """cProfile call counts per layer; calls into code outside the
    program's layers (builtins, the standard library, generated
    dataclass methods) are charged to the calling layer."""
    stats = pstats.Stats(profile).stats
    resolved: dict = {}

    def layer_of(func, seen=()) -> str:
        if func in resolved:
            return resolved[func]
        own = layer_of_file(func[0])
        if not own:
            callers = stats.get(func, (0, 0, 0, 0, {}))[4]
            ranked = sorted(callers.items(), key=lambda item: (-item[1][1], item[0]))
            own = "other"
            for caller, __ in ranked:
                if caller not in seen and caller != func:
                    own = layer_of(caller, seen + (func,))
                    break
        resolved[func] = own
        return own

    counts: dict[str, int] = {}
    for func, (__, calls, __, __, callers) in sorted(stats.items()):
        own = layer_of_file(func[0])
        if own:
            counts[own] = counts.get(own, 0) + calls
            continue
        for caller, edge in sorted(callers.items()):
            layer = layer_of(caller)
            counts[layer] = counts.get(layer, 0) + edge[1]
    return counts


def _blocks_per_layer(snapshot: tracemalloc.Snapshot) -> dict[str, int]:
    """Live tracemalloc blocks per layer: the innermost frame of the
    allocation's traceback that lies in a program layer decides."""
    counts: dict[str, int] = {}
    cache: dict = {}
    for trace in snapshot.traces:
        layer = ""
        for frame in reversed(trace.traceback):  # innermost first
            layer = cache.get(frame.filename)
            if layer is None:
                layer = cache[frame.filename] = layer_of_file(frame.filename)
            if layer:
                break
        if layer:
            counts[layer] = counts.get(layer, 0) + 1
    return counts


def count_pass(name: str, seed: int, reference: tuple) -> dict:
    """Python calls (cProfile) and tracemalloc blocks still live at the
    end of the run, per layer. Deterministic for a given program and
    seed once lazy set-up is done."""
    simulation = Simulation(sim_config(name), seed)
    profile = cProfile.Profile()
    profile.enable()
    result = simulation.run()
    profile.disable()
    if fingerprint(result) != reference:
        raise GateFailure("the profiled run did not reproduce the modelled outputs")
    calls = _calls_per_layer(profile)

    simulation = Simulation(sim_config(name), seed)
    gc.collect()
    gc.disable()
    tracemalloc.start(16)
    try:
        result = simulation.run()
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
        gc.enable()
    blocks = _blocks_per_layer(snapshot)
    del simulation, snapshot
    return {"calls": calls, "blocks": blocks}


def run_traced(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """``--trace 1``: per-layer metrics."""
    gate = correctness_pass(name, seed)
    reference = gate["fingerprint"]
    timed_rep(name, seed, reference)  # lazy set-up done before timing
    cost = calibrate(time.perf_counter_ns)
    pairs = repeat(
        lambda: {
            "untraced": timed_rep(name, seed, reference),
            "traced": traced_rep(name, seed, reference, cost),
        },
        seconds,
        2,
    )
    untraced = [pair["untraced"] for pair in pairs]
    traced = [pair["traced"] | {"scale": pair["scale"]} for pair in pairs]
    first = count_pass(name, seed, reference)
    second = count_pass(name, seed, reference)
    if first != second:
        raise GateFailure(f"count pass not repeatable: {first} != {second}")
    setup = measure_setup(name, seed, SETUP_PROBES)

    msgs = gate["msgs"]
    result = gate["result"]
    values: dict[str, float] = {}
    for layer in SPAN_LAYERS:
        values[f"{layer}.self_us_per_msg"] = max(0.0, median(
            [rep["corrected"].get(layer, 0) / 1e3 / msgs * rep["scale"] for rep in traced]
        ))

    def span_calls(label: str) -> float:
        return median([rep["calls"].get(label, 0) / msgs for rep in traced])

    values["sim.kernel.events_per_msg"] = result.events_executed / msgs
    values["sim.eventq.push_per_msg"] = span_calls("sim.eventq:EventQueue.push")
    values["sim.eventq.post_per_msg"] = span_calls("sim.eventq:EventQueue.post")
    values["sim.cpu.execute_per_msg"] = span_calls("sim.cpu:Cpu.execute")
    values["stack.runtime.crossings_per_msg"] = result.metrics.boundary_crossings / msgs
    values["consensus.instances_per_msg"] = result.instances_decided / msgs
    values["net.transmits_per_msg"] = result.network["messages_sent"] / msgs
    values["net.wire_bytes_per_msg"] = result.network["bytes_sent"] / msgs
    arrivals = result.metrics.offered_rate * result.config.total_time
    values["workload.accept_ratio"] = gate["attempted"] / arrivals
    for layer in COUNT_LAYERS:
        values[f"{layer}.py_calls_per_msg"] = first["calls"].get(layer, 0) / msgs
        values[f"{layer}.py_allocs_per_msg"] = first["blocks"].get(layer, 0) / msgs
    values["setup.import_s"] = median([s["import_s"] for s in setup])
    values["setup.build_s"] = median([s["build_s"] for s in setup])
    values["trace.overhead_frac"] = median(
        [pair["traced"]["cpu"] / pair["untraced"]["cpu"] for pair in pairs]
    ) - 1.0
    errors = [
        abs(sum(rep["self"].values()) - rep["root"]) / rep["root"] for rep in traced
    ]
    values["trace.sum_error_frac"] = max(errors)
    # How much of the tracer's cost the calibration leaves in the layers:
    # corrected per-layer self times against the untraced run's CPU.
    values["trace.residual_frac"] = median(
        [
            sum(pair["traced"]["corrected"].values()) / 1e9 / pair["untraced"]["cpu"]
            for pair in pairs
        ]
    ) - 1.0

    spans_path = OUT_DIR / f"{name}-spans.jsonl"
    traced[-1]["tracer"].write_jsonl(str(spans_path))
    details = {
        "gate": gate,
        "reps": (len(untraced), len(traced)),
        "spans_path": spans_path,
        "span_count": traced[-1]["tracer"].span_count,
        "other_us_per_msg": median(
            [rep["corrected"].get("other", 0) / 1e3 / msgs for rep in traced]
        ),
        "cost_ns": cost,
    }
    return values, details

