"""Helpers shared by the simulator and live workloads."""

from __future__ import annotations

import json
import os
import statistics
from pathlib import Path

#: Root of the checkout the benchmark runs in (parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: Where spans and worker reports are written (ignored by git).
OUT_DIR = ROOT / ".perfbench_out"
#: The program's sources.
SRC = ROOT / "src"


class GateFailure(Exception):
    """A correctness check failed: the run prints no numbers."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def median(values: list[float]) -> float:
    return statistics.median(values)


def nearest_rank(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (the rule the program's collector uses)."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def layer_of_file(filename: str) -> str:
    """The layer a source file of the program belongs to.

    Files outside ``src/repro`` (the standard library, the benchmark)
    and the program's shared vocabulary (types, events, actions, the
    module base class, configuration) return ``""``: their work is
    charged to the calling layer.
    """
    path = filename.replace(os.sep, "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0 or "/src/repro/" not in path:
        return ""
    rel = path[at + len(marker):]
    if rel.startswith("sim/kernel"):
        return "sim.kernel"
    if rel.startswith("sim/eventq"):
        return "sim.eventq"
    if rel.startswith("sim/cpu"):
        return "sim.cpu"
    if rel.startswith("stack/runtime"):
        return "stack.runtime"
    if rel.startswith("workload/population"):
        return "workload.population"
    if rel.startswith(("workload/", "flowcontrol/")):
        return "workload"
    if rel.startswith("experiments/runner"):
        return "sim.runner"
    if rel.startswith("live/runtime"):
        return "live.runtime"
    if rel.startswith("live/transport"):
        return "live.transport"
    if rel.startswith("live/"):
        return "live.worker"
    for prefix in ("abcast", "consensus", "broadcast", "net", "fd", "metrics"):
        if rel.startswith(prefix + "/"):
            return prefix
    return ""


def print_row(label: str, value, unit: str = "", note: str = "") -> None:
    """One human-readable result line."""
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {label:<40} {text} {unit}{('  ' + note) if note else ''}")


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    """Print the result object as the last line of standard output."""
    document = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(document), flush=True)


def complete(values: dict, declared: list[dict]) -> tuple[dict, dict]:
    """Every declared metric, in declared order; layers a workload does
    not exercise read 0. Returns ``(values, units)``."""
    out = {}
    units = {}
    for entry in declared:
        out[entry["name"]] = values.get(entry["name"], 0.0)
        units[entry["name"]] = entry["unit"]
    return out, units


def peak_rss_mb(usage) -> float:
    """``ru_maxrss`` (KiB on Linux) in MiB."""
    return usage.ru_maxrss / 1024.0
