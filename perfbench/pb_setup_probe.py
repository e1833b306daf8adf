"""Set-up probe: a fresh interpreter imports the program and builds one
simulation up to its first event, then reports its timestamps as JSON.

Usage: ``python3 perfbench/pb_setup_probe.py <workload> <seed>``. The
parent compares the reported ``ready`` (``time.monotonic()``, which is
system-wide on Linux) with the moment it spawned the probe.
"""

from __future__ import annotations

import json
import sys
import time
import warnings
from pathlib import Path


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import repro  # noqa: F401
    from repro.experiments.runner import Simulation

    t1 = time.perf_counter()
    from pb_workloads import sim_config

    warnings.simplefilter("ignore")
    simulation = Simulation(sim_config(workload), seed)
    simulation.start()
    t2 = time.perf_counter()
    ready = time.monotonic()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "ready": ready}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
