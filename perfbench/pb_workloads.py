"""The benchmark's workloads, built from a seed.

Imports of the program happen inside the functions, so the set-up probe
can time ``import repro`` itself.
"""

from __future__ import annotations

SIM_MODULAR = "sim-modular-n3-saturated"
SIM_CLIENTS = "sim-monolithic-n7-clients"
SIM_CRASH = "sim-monolithic-n7-crash"
LIVE_MODULAR = "live-modular-n3"

SIM_WORKLOADS = (SIM_MODULAR, SIM_CLIENTS, SIM_CRASH)
WORKLOADS = SIM_WORKLOADS + (LIVE_MODULAR,)

#: Offered load the live workload requests, in msg/s over the group.
LIVE_LOAD = 400.0
LIVE_SIZE = 1024


def sim_config(name: str):
    """The :class:`~repro.config.RunConfig` of a simulator workload."""
    from repro.config import (
        ClientArrival,
        ClientPopulationConfig,
        CrashEvent,
        FailureDetectorConfig,
        FailureDetectorKind,
        FaultloadConfig,
        RunConfig,
        StackConfig,
        StackKind,
        WorkloadConfig,
    )

    if name == SIM_MODULAR:
        # Fig. 8/10 headline point: 9x overload of a ~750 msg/s stack,
        # oracle FD, no faults. Flow-control window 3, 60 us / 100 MB/s
        # network (the RunConfig defaults).
        return RunConfig(
            n=3,
            stack=StackConfig(kind=StackKind.MODULAR),
            workload=WorkloadConfig(offered_load=7000.0, message_size=16384),
        )
    if name in (SIM_CLIENTS, SIM_CRASH):
        # 10^5 Zipf(1.1) bursty clients behind n=7 monolithic processes
        # with heartbeat failure detection; the crash variant kills the
        # initial coordinator p0 in the middle of the window.
        base = RunConfig()
        crashes = ()
        if name == SIM_CRASH:
            crashes = (CrashEvent(time=base.warmup + base.duration / 2, process=0),)
        return RunConfig(
            n=7,
            stack=StackConfig(kind=StackKind.MONOLITHIC),
            workload=WorkloadConfig(
                offered_load=4000.0,
                message_size=64,
                population=ClientPopulationConfig(
                    clients=100_000, zipf_s=1.1, arrival=ClientArrival.BURSTY
                ),
            ),
            failure_detector=FailureDetectorConfig(kind=FailureDetectorKind.HEARTBEAT),
            faultload=FaultloadConfig(crashes=crashes),
        )
    raise KeyError(name)


def live_spec(seed: int, duration: float):
    """The :class:`~repro.live.deploy.LiveSpec` of the live workload."""
    from repro.live.deploy import LiveSpec

    return LiveSpec(
        n=3,
        stack="modular",
        load=LIVE_LOAD,
        size=LIVE_SIZE,
        duration=duration,
        seed=seed,
        wal_dir=None,
    )
