"""Machine-speed calibration for the benchmark.

The machine this benchmark was built on runs a fixed pure-Python loop at
speeds that vary by tens of percent from one few-second stretch to the
next, because other work shares its processors. The loop below is timed
beside every op; dividing an op's wall time by the loop's time at that
moment, in units of CAL_REF_S, takes the machine's speed of the moment out
of the figures and leaves the program's cost. Standard library only: the
set-up probe imports this module before it times `import heun_air`.
"""
from __future__ import annotations

import time

#: Loop length and the nominal time it stands for: a figure in calibrated
#: milliseconds is what the op would take while the loop takes CAL_REF_S.
CAL_ITERS = 3000
CAL_REF_S = 1e-3
#: Start of the standard-error line on which run.py reports the loop's
#: median and quartiles over a run: the machine's drift beside it.
REPORT_PREFIX = "perfbench: calibration loop "


def loop_seconds() -> float:
    """Wall time of the fixed loop: complex arithmetic and calls, the
    interpreter work the package's kernels are made of."""
    t = time.perf_counter()
    z, s = 0.5 + 0.25j, 0j
    for k in range(1, CAL_ITERS):
        z = z * (1 - 0.5 / k) + 0.001j
        s += z / (k + abs(z))
    return time.perf_counter() - t


def speed(before: float, after: float) -> float:
    """Factor turning seconds measured between two loop timings into
    calibrated seconds."""
    return 2 * CAL_REF_S / (before + after)
