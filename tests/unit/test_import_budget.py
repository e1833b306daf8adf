"""Import budget: scipy and numpy load only for confidence intervals.

Importing ``scipy.stats`` costs over a second and ~75 MiB per process.
Every live worker, restarted worker and CLI call would pay that, so the
only user, :func:`~repro.metrics.stats.mean_confidence_interval`,
imports it on first use. The check runs in a fresh interpreter, since
the pytest process has long since loaded scipy itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import json, sys

import repro
import repro.cli
import repro.experiments.runner
import repro.live.worker
from repro import RunConfig, WorkloadConfig, modular_stack
from repro.experiments.runner import Simulation

config = RunConfig(
    n=3,
    stack=modular_stack(),
    workload=WorkloadConfig(offered_load=200.0, message_size=1024),
    duration=0.2,
    warmup=0.05,
)
result = Simulation(config, seed=1).run()
loaded = sorted(m for m in ("scipy", "numpy") if m in sys.modules)

from repro.metrics.stats import mean_confidence_interval

interval = mean_confidence_interval([1.0, 2.0, 4.0])
print(json.dumps({
    "measured": result.metrics.latency_count,
    "loaded": loaded,
    "half_width": interval.half_width,
}))
"""


def test_scipy_and_numpy_load_only_for_a_confidence_interval():
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["measured"] > 0
    assert report["loaded"] == []

    from scipy import stats as scipy_stats

    values = [1.0, 2.0, 4.0]
    centre = sum(values) / 3
    std_error = (sum((v - centre) ** 2 for v in values) / 2 / 3) ** 0.5
    expected = float(scipy_stats.t.ppf(0.975, df=2)) * std_error
    assert report["half_width"] == expected
