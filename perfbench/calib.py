"""Machine-speed calibration for the benchmark's timings.

The machine the benchmark was tuned on (2 vCPUs, shared) runs a fixed CPU
loop anywhere from 0.18 s to 0.29 s from one second to the next, and whole
runs drift by half: the raw wall time of the ``diagnose_apps`` batch read
4.4 s in one run and 8.5 s in another.  Every end-to-end time is therefore
reported in *reference seconds*: its wall time times ``REFERENCE_S`` over
the mean time of :func:`probe` just before and just after it.  A slow
phase of the machine slows the probe and the operation alike, and the
ratio cancels most of it.

Most, not all: in that machine's slow phases this probe slowed by about
60%, ``diagnose_apps`` and ``sweep_warm`` by 50-70%, but the numpy-heavy
``symmetric_p4096`` by only about 25%, so a run of it made in a slow phase
reads 10-15% low.  A numpy probe tracked ``symmetric_p4096`` better and
``sweep_warm`` far worse; this one is the better single choice, and
``symmetric_p4096`` stays out of the gated set (see README.md).

The probe is benchmark code, pure Python, shaped like the simulator's hot
path (tuple keys, dict updates, list appends, a sort); no change to the
program under test can change its time.
"""

from __future__ import annotations

import gc
import time

#: the probe's median time on the machine the benchmark was tuned on;
#: scaled values read as seconds on that machine at its median speed
REFERENCE_S = 0.05


def probe() -> float:
    """Seconds for one run of the fixed calibration loop.

    The collector is off while it runs: its passes would walk the
    caller's heap, and the probe must not depend on the program's memory.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc: dict = {}
        buf: list = []
        for i in range(120_000):
            key = (i & 63, i % 17)
            acc[key] = acc.get(key, 0.0) + 1.5
            buf.append((i, i + 1, 0.5))
        sorted(buf, key=lambda row: -row[0])
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Calibration factors for back-to-back timed intervals.

    An interval is scaled by ``REFERENCE_S`` over the mean probe time on
    either side of it; the probe after one interval is the probe before
    the next.  A factor per interval tracks the machine better than one
    factor per run: over seven runs of ``diagnose_apps`` the batch time
    spread by 1.2% (IQR/median) this way and by 5.1% with one factor from
    the run's median probe.
    """

    def __init__(self) -> None:
        self._last = probe()

    def factor(self) -> float:
        """Call right after an interval ends: its calibration factor."""
        after = probe()
        before, self._last = self._last, after
        return 2.0 * REFERENCE_S / (before + after)
