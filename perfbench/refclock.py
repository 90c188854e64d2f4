"""Timing in reference seconds, steady against a drifting host.

Host speed on a shared VM drifts by a third within minutes, and a single
pass can run at either speed. So while a region is timed, a SIGALRM
timer runs a short reference loop every SAMPLE_EVERY_S; the region's
time less those samples, scaled by REF_S over their mean, is its time in
reference seconds: what it would take at the host's nominal speed.
"""

import signal
import time
from statistics import mean

REF_S = 0.0006  # nominal time of one reference sample
SAMPLE_EVERY_S = 0.02
_REF_TABLE = tuple(tuple((a * b + a) % 61 for b in range(61)) for a in range(61))


def _reference_loop() -> int:
    """Fixed pure-Python work in the style of nilary's kernels: bit masks over a table."""
    acc = 0
    for row in _REF_TABLE:
        m = 0
        for x in row:
            if not m >> x & 1:
                m |= 1 << x
        acc ^= m
    return acc


class Stopwatch:
    """Times regions in raw seconds and in reference seconds.

    on_sample(seconds) is called after each timer sample, so a tracer can
    leave the sample out of the open span's self time.
    """

    def __init__(self, on_sample):
        self.on_sample = on_sample
        self.samples: list[float] = []
        self.spent = 0.0  # seconds taken by samples inside the current region

    def _sample(self) -> float:
        t0 = time.perf_counter()
        _reference_loop()
        took = time.perf_counter() - t0
        self.samples.append(took)
        return took

    def _tick(self, signum, frame) -> None:
        took = self._sample()
        self.spent += took
        self.on_sample(took)

    def measure(self, fn, *args):
        """Run fn(*args); return (result, raw seconds, reference seconds)."""
        self.samples = []
        self.spent = 0.0
        self._sample()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            raw = time.perf_counter() - t0 - self.spent
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()
        return result, raw, raw * REF_S / mean(self.samples)
