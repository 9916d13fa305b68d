"""Scaling of measured times to one reference host speed.

On a shared virtual machine the same code runs up to twice as slow for
seconds or minutes at a time, as other tenants come and go; run-to-run
spreads of raw timings then reach 30%.  A fixed probe, timed every
`EVERY_S` seconds of a run, tracks that speed: a time measured between two
probes is multiplied by `NOMINAL_NS / their mean`, so that it reads as it
would on a host where the probe takes `NOMINAL_NS`.

The probe does the kind of work `spa` does (tuples hashed into a dict and
walked recursively) but never calls `spa`, so no change to the package can
move it.  The collector is off while it runs, so the objects `spa` keeps
alive cannot slow it either.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter, perf_counter_ns

EVERY_S = 0.5
NOMINAL_NS = 4_000_000  # the probe's time on the baseline host when it is not contended
_ITEMS = 1000


def _size(t) -> int:
    return sum(_size(x) for x in t) if isinstance(t, tuple) else 1


def probe() -> int:
    """Time (ns) of a fixed piece of pure-Python work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter_ns()
        counts: dict = {}
        for i in range(_ITEMS):
            term = ("pair", ("atom", i % 37), ("enc", ("atom", i % 11), "k" + str(i % 5)))
            counts[term] = counts.get(term, 0) + 1
        total = sum(_size(t) * n for t, n in counts.items())
        total += sum(_size(("pair", ("atom", i), ("atom", i))) for i in range(_ITEMS))
        return perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


def seconds_at_nominal(seconds: float, probe_ns: int) -> float:
    return seconds * NOMINAL_NS / probe_ns


class HostSpeed:
    """Probes taken over a run.  A time measured between two probes is
    scaled by their mean, which follows the host through long requests."""

    def __init__(self):
        self.probes: list[int] = []
        self._pending: list = []  # (ns, callback) measured since the last probe
        self._last = float("-inf")

    def update(self, force: bool = False) -> None:
        """Re-probe when the last probe is `EVERY_S` old, or when forced, and
        hand each time measured since the previous probe to its callback,
        scaled."""
        now = perf_counter()
        if not force and now - self._last < EVERY_S:
            return
        self.probes.append(probe())
        self._last = now
        if len(self.probes) > 1:
            mean = (self.probes[-2] + self.probes[-1]) / 2
            for ns, done in self._pending:
                done(seconds_at_nominal(ns, mean))
            self._pending.clear()

    def add(self, ns: float, done) -> None:
        """Scale `ns` at the next probe and pass it to `done`."""
        self._pending.append((ns, done))

    def median_probe_ms(self) -> float:
        return statistics.median(self.probes) * 1e-6 if self.probes else 0.0
