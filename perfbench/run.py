"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload of ``BENCHMARK.json`` against the program in ``src/``
of the checkout it is started from. Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).

Exit status: 0 on success; 1 when a correctness check fails (nothing
is measured then); 2 when the workload cannot run at all, for example
because the program's sources are missing.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from pb_common import SRC, GateFailure, complete, emit, load_spec, print_row
from pb_workloads import LIVE_MODULAR, SIM_WORKLOADS, WORKLOADS

#: Share of the measured total the per-layer self times may miss by.
SIM_SUM_BOUND = 0.05
LIVE_SUM_BOUND = 0.25


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _report_sim(args, details: dict) -> None:
    gate = details["gate"]
    print(f"{args.workload} seed={args.seed}: correctness pass ok "
          f"(integrity, total order, agreement, validity over correct processes)")
    print_row("attempted (accepted messages)", gate["attempted"])
    print_row("failed_frac", gate["failed"] / gate["attempted"], "",
           f"base={gate['attempted']} accepted messages")
    if gate["lost_with_crash"]:
        print_row("lost with the crashed sender", gate["lost_with_crash"], "msgs",
               "(never delivered anywhere; allowed by the specification)")
    print_row("delivered in window (per process)", gate["msgs"], "msgs")
    for key, value in gate["modelled"].items():
        print_row(f"modelled {key}", value)


def _run_sim(args, spec: dict) -> int:
    import pb_sim

    # Warm-up length is the program's default; its stationarity warning
    # is not a benchmark result.
    warnings.simplefilter("ignore")
    if args.trace:
        values, details = pb_sim.run_traced(args.workload, args.seed, args.seconds)
        _report_sim(args, details)
        print_row("traced / untraced repetitions", f"{details['reps'][0]}/{details['reps'][1]}")
        print_row("spans in last traced repetition", details["span_count"], "",
               f"written to {details['spans_path'].name}")
        print_row("unattributed (other) self time", details["other_us_per_msg"], "us/msg")
        print_row("tracer cost per span (in, out)", "%.0f/%.0f" % details["cost_ns"], "ns")
        if values["trace.sum_error_frac"] > SIM_SUM_BOUND:
            raise GateFailure(
                f"per-layer self times miss Kernel.run by "
                f"{values['trace.sum_error_frac']:.3f} (bound {SIM_SUM_BOUND})"
            )
        declared = spec["per_layer"]
    else:
        values, details = pb_sim.run_untraced(args.workload, args.seed, args.seconds)
        _report_sim(args, details)
        print_row("timed repetitions", details["reps"])
        print_row("host speed scale (median)", details["scale"], "",
               "times below are at reference speed")
        print_row("sim_cpu_us_per_msg", values["cpu_us_per_msg"], "us",
               f"raw {details['raw_cpu_us_per_msg']:.1f} us")
        print_row("Simulation.run CPU p90", details["run_ms_p90"], "ms",
                  f"over {details['reps']} repetitions; not gated")
        declared = spec["end_to_end"]
    metrics, units = complete(values, declared)
    for name, value in metrics.items():
        print_row(name, value, units[name])
    gate = details["gate"]
    emit(True, gate["attempted"], gate["failed"], metrics, units)
    return 0


def _run_live(args, spec: dict) -> int:
    import pb_live

    if args.trace:
        values, details = pb_live.run_traced(args.seed, args.seconds)
        if values["live.trace.sum_error_frac"] > LIVE_SUM_BOUND:
            raise GateFailure(
                f"per-worker layer self times miss worker CPU by "
                f"{values['live.trace.sum_error_frac']:.3f} (bound {LIVE_SUM_BOUND})"
            )
        declared = spec["per_layer"]
    else:
        values, details = pb_live.run_untraced(args.seed, args.seconds)
        declared = spec["end_to_end"]
    pb_live.report(details)
    metrics, units = complete(values, declared)
    for name, value in metrics.items():
        print_row(name, value, units[name])
    emit(True, details["attempted"], details["failed"], metrics, units)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    try:
        if args.workload in SIM_WORKLOADS:
            return _run_sim(args, spec)
        assert args.workload == LIVE_MODULAR
        return _run_live(args, spec)
    except GateFailure as failure:
        print(f"CORRECTNESS FAILURE: {failure}", file=sys.stderr)
        print(f"{args.workload}: correctness check failed, no metrics reported")
        return 1


if __name__ == "__main__":
    sys.exit(main())
