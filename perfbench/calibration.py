"""Machine-speed calibration for timings on a shared, noisy host.

On a host whose cores are shared with other tenants, the same Python code
can run up to twice as slowly from one 100 ms to the next.  To keep runs
comparable, a fixed pure-Python kernel (a Strong-Kleene evaluation of a
built-in tuple formula, independent of mixcons) is timed every
INTERVAL_S from a SIGALRM handler while operations run.  An operation's
calibrated time is its wall time, minus the handler time inside it, scaled
by NOMINAL_S / (mean kernel time during the operation, or over the nearest
MIN_SAMPLES samples when it is shorter than that, leaving out outliers).  A calibrated time is
therefore the wall time the operation would take at the speed at which the
kernel takes NOMINAL_S; when the host runs at that speed, both agree.
The worker pins itself and its child processes to one CPU, so the kernel
also samples the CPU on which a child process runs.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array

INTERVAL_S = 0.01
NOMINAL_S = 1e-4
MIN_SAMPLES = 5
# A sample more than OUTLIER times the median was interrupted (for instance
# by a child process on the same CPU) and is left out; host slowdowns stay
# within about 2x.
OUTLIER = 3.0


def _build(depth: int):
    if depth == 0:
        return ("v", depth % 5)
    sub = _build(depth - 1)
    return ("&" if depth % 2 else "|", sub, ("~", sub) if depth % 3 else sub)


_TREE = _build(6)
_ENVS = [{i: (i * k) % 3 for i in range(5)} for k in range(3)]


def _eval(t, env):
    tag = t[0]
    if tag == "v":
        return env[t[1]]
    if tag == "~":
        return 2 - _eval(t[1], env)
    a, b = _eval(t[1], env), _eval(t[2], env)
    return min(a, b) if tag == "&" else max(a, b)


def kernel() -> float:
    """Time (s) of one run of the calibration kernel."""
    start = time.perf_counter()
    for env in _ENVS:
        _eval(_TREE, env)
    return time.perf_counter() - start


class Calibrator:
    """Samples the kernel every INTERVAL_S while started."""

    def __init__(self):
        self.durations = array("d")

    def _sample(self, signum, frame):
        self.durations.append(kernel())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.durations)

    def calibrate(self, wall_s: float, first: int, last: int, limit: float) -> float:
        """Calibrated time of an operation that saw samples [first, last);
        samples above `limit` are outliers."""
        d = self.durations
        inside = sum(d[first:last])
        lo, hi = first, last
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(d)):
            lo, hi = max(0, lo - 1), min(len(d), hi + 1)
        kept = [x for x in d[lo:hi] if x <= limit]
        speed = sum(kept) / len(kept) if kept else NOMINAL_S
        return (wall_s - inside) * NOMINAL_S / speed

    def outlier_limit(self) -> float:
        return OUTLIER * statistics.median(self.durations) if self.durations else float("inf")
