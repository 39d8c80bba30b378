"""Set-up probe: start an interpreter, import uwqkd, build the first session's
config, then print 'ready'.

`run.py` times this process from launch to that line; the median over a few
launches is the benchmark's `setup_s`.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS, session_seeds  # noqa: E402

WORKLOADS[sys.argv[1]].config(next(session_seeds(int(sys.argv[2]))))
print("ready", flush=True)
