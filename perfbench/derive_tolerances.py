#!/usr/bin/env python3
"""Derive the golden tolerance of the switched-line (n*) curves.

    python3 perfbench/derive_tolerances.py

The continuous regenerator cuts each n* line into slices of length L / n,
where L is the single-line breaking length from ``eb_length``.  That search
stops at a 1e-4 bracket, and tests/test_continuous.py freezes L only to
2e-4, so a more accurate root finder may move L by up to 2e-4.  This script
recomputes every default n* curve with L shifted by -2e-4 and +2e-4 and
prints the largest change of any concurrence or pre-clamp value.
checks.SWITCHED_ATOL is that number rounded up.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from entweave.continuous import (  # noqa: E402
    SwitchedLine,
    concurrence_profile,
    eb_length,
    rotating_ad_liouvillian,
    rotating_pd_liouvillian,
)

FROZEN_LENGTH_TOL = 2e-4   # tests/test_continuous.py
SLICE_COUNTS = (1, 2, 4, 8, 16)
X_MAX, STEPS, X_HI = 6.0, 241, 20.0   # cli defaults; x_hi = max(x_max, 20)


def curve(g1, g2, length: float, n: int) -> np.ndarray:
    pts = concurrence_profile(SwitchedLine(g1, g2, length / n), X_MAX, STEPS)
    return np.array([[p.concurrence, p.pre_clamp] for p in pts])


def main() -> int:
    worst = 0.0
    for family, gen in (("ad", rotating_ad_liouvillian), ("pd", rotating_pd_liouvillian)):
        g1, g2 = gen(1, 1.5, 1.0), gen(2, 1.5, 1.0)
        length = eb_length(g1, X_HI)
        for n in SLICE_COUNTS:
            base = curve(g1, g2, length, n)
            shift = max(np.max(np.abs(curve(g1, g2, length + d, n) - base))
                        for d in (-FROZEN_LENGTH_TOL, FROZEN_LENGTH_TOL))
            worst = max(worst, shift)
            print(f"{family} n{n}: L = {length:.10g}, max change {shift:.3e}")
    print(f"largest change of an n* curve: {worst:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
