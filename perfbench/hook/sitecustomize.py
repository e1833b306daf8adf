"""Loads the benchmark's live-worker instrumentation into a worker.

The live benchmark puts this directory on ``PYTHONPATH`` and sets
``PERFBENCH_LIVE_TRACE`` to an output directory only for its traced
deployment; every other interpreter that finds this file does nothing.
"""

import os

if os.environ.get("PERFBENCH_LIVE_TRACE"):
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import pb_live_hook

    pb_live_hook.install(os.environ["PERFBENCH_LIVE_TRACE"])
