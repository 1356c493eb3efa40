"""Set-up time of one fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Times importing ``entweave`` and ``entweave.cli`` from this checkout's
``src/`` and generating the workload's invocations from the seed, then
times run.py's host-speed reference kernel right after (median of nine).
Prints both, in seconds; run.py starts several probes and reports the median rescaled time
as ``setup_s``.
"""

from time import perf_counter

T0 = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import entweave  # noqa: E402,F401
import entweave.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.generate(sys.argv[1], int(sys.argv[2]))
ELAPSED = perf_counter() - T0

from run import reference_time  # noqa: E402

reference_time()   # first use of eigh in this interpreter
print(ELAPSED, sorted(reference_time() for _ in range(9))[4])
