"""Span wrappers shared by the simulator and the live worker: the
protocol layers, the failure detectors, the workload source and its
arrival samplers."""

from __future__ import annotations

import sys

from pb_common import layer_of_file
from pb_spans import Patcher, SpanTracer, defined_methods, msg_of_arg

HANDLERS = ("on_start", "handle_event", "handle_message", "handle_timer", "handle_suspicion")


def instrument_protocols(tracer: SpanTracer, patcher: Patcher) -> None:
    """Wrap every ``handle_*`` entry point of the stacks' modules, the
    failure detectors, and the flow-controlled workload source."""
    from repro.abcast.modular import ModularAtomicBroadcast
    from repro.abcast.monolithic import MonolithicAtomicBroadcast
    from repro.broadcast.reliable import ReliableBroadcast
    from repro.consensus.base import BaseConsensus
    from repro.consensus.optimized import OptimizedConsensus
    from repro.fd.base import FailureDetector
    from repro.fd.heartbeat import HeartbeatFailureDetector
    from repro.fd.oracle import OracleFailureDetector
    from repro.flowcontrol.window import BacklogWindow
    from repro.workload import generator, population

    # Each entry point is charged to the layer of the file defining it.
    # The monolithic module inherits its consensus core from
    # BaseConsensus, so calls into those inherited methods are timed as
    # consensus: that splits the merged module into its two layers.
    for cls in (
        ModularAtomicBroadcast,
        MonolithicAtomicBroadcast,
        BaseConsensus,
        OptimizedConsensus,
        ReliableBroadcast,
    ):
        layer = layer_of_file(sys.modules[cls.__module__].__file__)
        for method in HANDLERS:
            patcher.wrap_method(
                tracer, layer, cls, method,
                msg_of=msg_of_arg(1) if method == "handle_event" else None,
            )
    for method in defined_methods(BaseConsensus):
        if method.startswith("handle_") or method in ("instance", "has_instance"):
            continue
        patcher.wrap_method(tracer, "consensus", BaseConsensus, method)
    for cls in (FailureDetector, HeartbeatFailureDetector, OracleFailureDetector):
        for method in defined_methods(cls):
            if method != "attach":
                patcher.wrap_method(tracer, "fd", cls, method)
    sender = generator.FlowControlledSender
    patcher.wrap_method(tracer, "workload", sender, "offer")
    patcher.wrap_method(tracer, "workload", sender, "on_own_delivery", msg_of=msg_of_arg(1))
    for method in ("try_acquire", "release"):
        patcher.wrap_method(tracer, "workload", BacklogWindow, method)
    for cls in (generator.UniformGaps, generator.PoissonGaps):
        patcher.wrap_method(tracer, "workload", cls, "gap")
    for cls in (population.PopulationPoissonGaps, population.BurstyGaps, population.DiurnalGaps):
        patcher.wrap_method(tracer, "workload.population", cls, "gap")
    patcher.wrap_method(tracer, "workload.population", population.ClientPool, "on_arrival")
