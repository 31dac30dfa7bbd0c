"""Calibrated time: durations scaled to a machine of fixed speed.

On a shared host the speed of one core drifts with its neighbours' load.
On the 2-core host this benchmark was tuned on, one fixed pure-Python loop
took anywhere from 35 ms to 60 ms within a single minute, so raw wall times
of the same code spread by a third from run to run.  A short reference loop
is therefore timed next to the measured calls, and every duration is
reported as

    raw duration * REFERENCE_S / (reference time measured around it)

that is, the time the call would take on a machine where one reference
pass takes REFERENCE_S.  The reference loop is benchmark code: no change to
tsalab changes its time, so a faster or slower tsalab shows in full.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.001  # nominal time of one reference pass
SAMPLE_EVERY_S = 0.05  # at most this long between reference samples
PASSES = 3  # a sample is the fastest of this many passes

# How much a slower core slows a call depends on what the call does:
# searches over deep tree stacks stream through long tuples and slow down
# less than the interpreter loop does.  So there are two references, and
# each measured call names the one whose profile matches it.
_LONG = [tuple(range(i, i + 400)) for i in range(200)]


def _short_pass() -> int:
    """Small tuples, hashing, a set and a dict: the work of a shallow
    search, a grammar or the F2 x F2 word problem."""
    seen = set()
    counts: dict[int, int] = {}
    for i in range(2500):
        key = (i, i >> 1, (i * 7) & 255)
        if key not in seen:
            seen.add(key)
        counts[i & 63] = counts.get(i & 63, 0) + len(key)
    return len(seen)


def _long_pass() -> int:
    """Long tuples built, hashed and stored: the work of a search whose
    configurations hold deep tree stacks."""
    seen = set()
    for t in _LONG:
        seen.add(t[1:] + t[:1])
    return len(seen)


PROFILES = {"short": _short_pass, "long": _long_pass}


def reference_s(profile: str = "short") -> float:
    """The fastest of PASSES passes of one reference, so that a pass cut
    short by the scheduler does not read as a slow machine."""
    one_pass = PROFILES[profile]
    best = float("inf")
    for _ in range(PASSES):
        t = perf_counter()
        one_pass()
        best = min(best, perf_counter() - t)
    return best


def calibrated(raw_s: float, before_s: float, after_s: float) -> float:
    """raw_s in calibrated seconds, given reference samples taken just
    before and just after it."""
    return raw_s * 2 * REFERENCE_S / (before_s + after_s)


class Calibrator:
    """Collects raw durations and converts them once the next reference
    sample is due: each is scaled by the samples of its profile's reference
    that bracket it."""

    def __init__(self):
        self.samples = [self._sample()]
        self._at = perf_counter()
        self._pending: list[tuple[float, str]] = []

    @staticmethod
    def _sample() -> dict[str, float]:
        return {profile: reference_s(profile) for profile in PROFILES}

    def add(self, raw_s: float, profile: str) -> None:
        self._pending.append((raw_s, profile))

    def flush(self, force: bool = False) -> list[float]:
        """The calibrated pending durations, in order; none until a sample
        is due, unless forced."""
        if not self._pending or (not force and perf_counter() - self._at < SAMPLE_EVERY_S):
            return []
        before, after = self.samples[-1], self._sample()
        self.samples.append(after)
        self._at = perf_counter()
        out = [calibrated(d, before[p], after[p]) for d, p in self._pending]
        self._pending = []
        return out
