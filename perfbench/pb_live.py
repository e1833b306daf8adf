"""Live workload: n=3 modular stack over localhost TCP at 400 msg/s.

A run makes several deployments (``run_live`` calls) and pools them:
latency percentiles over all latency samples, delivery rate over the
summed windows, CPU per message and set-up as medians over the
deployments. Every deployment
passes the correctness gate first: common-prefix total order, no
duplicates, nothing delivered that was never accepted, and every
accepted message delivered by every worker after the drain.

The traced run (``--trace 1``) makes one untraced and one traced
deployment. The traced one loads :mod:`pb_live_hook` into each worker
(through ``hook/sitecustomize.py``), which times the worker's entry
points on its own thread-CPU clock and reports per-layer self times.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import time

from pb_common import (
    OUT_DIR,
    ROOT,
    GateFailure,
    median,
    nearest_rank,
    peak_rss_mb,
    print_row,
)
from pb_spans import Patcher, SpanTracer, msg_of_arg
from pb_workloads import LIVE_LOAD, live_spec

#: Deployments per untraced run (set-up is their median).
DEPLOYS = 3
#: Shortest measurement window of one deployment, in seconds.
MIN_WINDOW = 2.0
#: Layers whose self time the worker hook reports.
WORKER_LAYERS = (
    "live.loop",
    "live.transport",
    "live.runtime",
    "live.worker",
    "net.wire",
    "abcast",
    "consensus",
    "broadcast",
    "fd",
    "workload",
    "gc",
)


class _Capture:
    """Orchestrator-side observation of one ``run_live`` call.

    Wraps public methods of the program for the call's duration: the
    collector's ``finalize`` (to keep the raw latency samples) and
    ``on_accept`` (to keep the accepted ids), and the control server's
    ``broadcast`` (the ``start`` broadcast follows the last worker's
    ``ready``: that instant ends set-up).
    """

    def __init__(self, tracer: SpanTracer | None = None) -> None:
        self.samples: list[float] = []
        self.accepted: list = []
        self.started_at: float | None = None
        self.tracer = tracer
        self.patcher = Patcher()

    def __enter__(self) -> "_Capture":
        from repro.live import deploy
        from repro.metrics.collector import MetricsCollector

        capture = self
        finalize = MetricsCollector.finalize
        on_accept = MetricsCollector.on_accept
        broadcast = deploy._ControlServer.broadcast

        def _finalize(collector, *args, **kwargs):
            capture.samples = list(collector.latency_samples)
            return finalize(collector, *args, **kwargs)

        def _on_accept(collector, message):
            capture.accepted.append(message.msg_id)
            return on_accept(collector, message)

        def _broadcast(server, document):
            if document.get("type") == "start" and capture.started_at is None:
                capture.started_at = time.monotonic()
            return broadcast(server, document)

        if self.tracer is not None:
            tracer = self.tracer
            _on_accept = tracer.wrap("metrics", _on_accept, label="on_accept",
                                     msg_of=msg_of_arg(1))
            for method in ("on_offered", "on_adeliver"):
                self.patcher.wrap_method(tracer, "metrics", MetricsCollector, method)
        self.patcher.replace(MetricsCollector, "finalize", _finalize)
        self.patcher.replace(MetricsCollector, "on_accept", _on_accept)
        self.patcher.replace(deploy._ControlServer, "broadcast", _broadcast)
        return self

    def __exit__(self, *exc) -> None:
        self.patcher.restore()


def check_deliveries(log: dict, accepted: list, n: int) -> None:
    """Gate one deployment with the program's own ordering checker:
    integrity, common-prefix total order, and every accepted message
    delivered by every worker after the drain."""
    from repro.errors import OrderingViolation
    from repro.metrics.ordering import OrderingChecker
    from repro.types import AppMessage

    if len(set(accepted)) != len(accepted):
        raise GateFailure("integrity: a message id was accepted twice")
    checker = OrderingChecker(n)
    for msg_id in accepted:
        checker.on_abcast(AppMessage(msg_id, size=0, abcast_time=0.0))
    for pid in range(n):
        for msg_id in log.get(pid, ()):
            checker.on_adeliver(pid, AppMessage(msg_id, size=0, abcast_time=0.0), 0.0)
    try:
        checker.verify(expect_all_delivered=True)
    except OrderingViolation as violation:
        raise GateFailure(f"ordering check failed: {violation}") from None


def deploy(
    seed: int, duration: float, *, traced: bool = False, tracer: SpanTracer | None = None
) -> dict:
    """One gated ``run_live`` call."""
    from repro.live.deploy import run_live

    spec = live_spec(seed, duration)
    saved = {key: os.environ.get(key) for key in ("PYTHONPATH", "PERFBENCH_LIVE_TRACE")}
    out_dir = OUT_DIR / "live"
    if traced:
        shutil.rmtree(out_dir, ignore_errors=True)
        os.environ["PERFBENCH_LIVE_TRACE"] = str(out_dir)
        hook_dir = str(ROOT / "perfbench" / "hook")
        os.environ["PYTHONPATH"] = hook_dir + (
            os.pathsep + saved["PYTHONPATH"] if saved["PYTHONPATH"] else ""
        )
    log: dict = {}
    try:
        with _Capture(tracer) as capture:
            called = time.monotonic()
            result = run_live(spec, delivery_log=log)
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    check_deliveries(log, capture.accepted, spec.n)
    metrics = result["metrics"]
    if not capture.samples or metrics["throughput"] <= 0:
        raise GateFailure("no message was delivered in the measurement window")
    delivered = metrics["throughput"] * spec.duration
    reports = []
    if traced:
        for pid in range(spec.n):
            path = out_dir / f"live-p{pid}.json"
            if not path.is_file():
                raise GateFailure(f"worker {pid} wrote no trace report")
            reports.append(json.loads(path.read_text(encoding="utf-8")))
    return {
        "spec": spec,
        "result": result,
        "samples": capture.samples,
        "accepted": len(capture.accepted),
        "setup_s": capture.started_at - called,
        "delivered": delivered,
        "worker_cpu_s": sum(result["cpu_utilization"]) * spec.duration,
        "refused": metrics["backpressure_stalls"],
        "reports": reports,
    }


def _pooled(deploys: list[dict]) -> dict:
    delivered = sum(d["delivered"] for d in deploys)
    window = sum(d["spec"].duration for d in deploys)
    samples = [s for d in deploys for s in d["samples"]]
    offered = sum(d["result"]["metrics"]["offered_rate"] for d in deploys) / len(deploys)
    return {
        "delivered": delivered,
        "delivered_per_s": delivered / window,
        # Median over deployments: one deployment landing in a noisy
        # stretch of the shared host moves it least.
        "cpu_us_per_msg": median(
            [d["worker_cpu_s"] / d["delivered"] * 1e6 for d in deploys]
        ),
        "samples": samples,
        "offered_ratio": offered / LIVE_LOAD,
        "attempted": sum(d["accepted"] + d["refused"] for d in deploys),
        "failed": sum(d["refused"] for d in deploys),
    }


def run_untraced(seed: int, seconds: float) -> tuple[dict, dict]:
    duration = max(MIN_WINDOW, seconds / DEPLOYS)
    deploys = [deploy(seed, duration) for __ in range(DEPLOYS)]
    pooled = _pooled(deploys)
    samples_ms = [s * 1e3 for s in pooled["samples"]]
    values = {
        "cpu_us_per_msg": pooled["cpu_us_per_msg"],
        "delivered_per_s": pooled["delivered_per_s"],
        "latency_p50_ms": nearest_rank(samples_ms, 0.50),
        "setup_s": median([d["setup_s"] for d in deploys]),
        "peak_rss_mb": peak_rss_mb(resource.getrusage(resource.RUSAGE_CHILDREN)),
    }
    details = {
        "mode": "untraced",
        "seed": seed,
        "deploys": deploys,
        "pooled": pooled,
        "attempted": pooled["attempted"],
        "failed": pooled["failed"],
    }
    return values, details


def run_traced(seed: int, seconds: float) -> tuple[dict, dict]:
    duration = max(MIN_WINDOW, seconds / 2)
    plain = deploy(seed, duration)
    tracer = SpanTracer(time.thread_time_ns)
    traced = deploy(seed, duration, traced=True, tracer=tracer)
    reports = traced["reports"]
    # Per delivered message, summed over the group: each worker's window
    # self time over the deliveries one worker saw in its window.
    msgs = median([r["delivered"] for r in reports])
    if msgs <= 0:
        raise GateFailure("traced deployment delivered nothing in its window")

    def per_msg_us(key: str, name: str) -> float:
        total = sum(r[key].get(name, 0.0) for r in reports)
        return max(0.0, total / 1e3 / msgs)

    values: dict[str, float] = {}
    for layer in WORKER_LAYERS:
        values[f"{layer}.self_us_per_msg"] = per_msg_us("corrected_ns", layer)
    values["net.wire.encode_us_per_msg"] = per_msg_us("named_ns", "net.wire:encode")
    values["net.wire.decode_us_per_msg"] = per_msg_us("named_ns", "net.wire:decode")
    values["live.transport.send_us_per_msg"] = per_msg_us(
        "named_ns", "live.transport:Transport.send"
    )
    values["metrics.self_us_per_msg"] = (
        max(0.0, tracer.corrected.get("metrics", 0.0)) / 1e3 / traced["delivered"]
    )
    ticks = sum(r["ticks"] for r in reports)
    values["live.worker.tick_late_ms"] = (
        sum(r["tick_late_s"] for r in reports) / ticks * 1e3 if ticks else 0.0
    )
    values["live.runtime.crossings_per_msg"] = sum(r["crossings"] for r in reports) / msgs
    values["live.deploy.import_s"] = median([r["import_s"] for r in reports])
    errors = [
        abs(sum(r["self_ns"].values()) / 1e9 - r["cpu_s"]) / r["cpu_s"] for r in reports
    ]
    values["live.trace.sum_error_frac"] = max(errors)

    result = plain["result"]
    metrics = result["metrics"]
    spec = plain["spec"]
    window_msgs = plain["delivered"]
    values["live.worker.refused_per_s"] = metrics["backpressure_stalls"] / spec.duration
    values["live.worker.offered_ratio"] = metrics["offered_rate"] / LIVE_LOAD
    values["live.worker.cpu_util_max"] = max(result["cpu_utilization"])
    values["live.transport.frames_per_msg"] = (
        result["network"].get("messages_sent", 0) / window_msgs
    )
    values["live.consensus.instances_per_msg"] = result["instances_decided"] / window_msgs
    plain_cost = plain["worker_cpu_s"] / plain["delivered"]
    traced_cost = traced["worker_cpu_s"] / traced["delivered"]
    values["trace.overhead_frac"] = traced_cost / plain_cost - 1.0
    both = [plain, traced]
    details = {
        "mode": "traced",
        "seed": seed,
        "deploys": both,
        "pooled": _pooled(both),
        "reports": reports,
        "sum_errors": errors,
        "attempted": sum(d["accepted"] + d["refused"] for d in both),
        "failed": sum(d["refused"] for d in both),
    }
    return values, details


def report(details: dict) -> None:
    """Human-readable lines for one run (the metrics follow them)."""
    pooled = details["pooled"]
    deploys = details["deploys"]
    cores = os.cpu_count()
    print(
        f"live-modular-n3 seed={details['seed']} ({details['mode']}): "
        f"{len(deploys)} deployment(s) passed the gate (common-prefix total "
        f"order, integrity, every accepted message delivered everywhere)"
    )
    print(f"  note: 3 workers and the orchestrator share {cores} cores")
    samples = pooled["samples"]
    rows = [
        ("live_delivered_per_s", pooled["delivered_per_s"], "1/s", ""),
        ("live_offered_ratio", pooled["offered_ratio"], "",
         f"requested {LIVE_LOAD:g} msg/s"),
        ("live_latency_p50_ms", nearest_rank(samples, 0.5) * 1e3, "ms",
         f"n={len(samples)}"),
        ("live_latency_p90_ms", nearest_rank(samples, 0.9) * 1e3, "ms",
         f"n={len(samples)}, {len(samples) // 10} beyond; not gated"),
        ("live_latency_p99_ms", nearest_rank(samples, 0.99) * 1e3, "ms",
         f"n={len(samples)}, {len(samples) // 100} beyond; not gated"),
        ("live_cpu_ms_per_msg", pooled["cpu_us_per_msg"] / 1e3, "ms",
         "worker CPU summed over the group, median over deployments"),
        ("setup_s (per deployment)",
         ", ".join(f"{d['setup_s']:.3f}" for d in deploys), "s", ""),
        ("failed_frac", pooled["failed"] / pooled["attempted"], "",
         f"base={pooled['attempted']} arrivals (accepted + refused)"),
    ]
    for row in rows:
        print_row(*row)
    if details["mode"] == "traced":
        for report_ in details["reports"]:
            print(
                f"  worker p{report_['pid']}: window CPU {report_['cpu_s']:.3f} s, "
                f"span self sum {sum(report_['self_ns'].values()) / 1e9:.3f} s, "
                f"{report_['spans']} spans kept"
            )
