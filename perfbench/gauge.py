"""Host-speed gauge: host seconds scaled to a reference host speed.

On a shared machine the host's speed drifts by tens of percent within
seconds, because other tenants load the same cores, caches and memory.
Process CPU time drifts with it, so neither wall clock nor CPU time of
one run compares with another run's. The gauge times a fixed pure-Python
loop (dictionary, list, sort and JSON work, like the simulator's) at the
edges of each stretch of the timed part. A stretch's host seconds are then
scaled by ``REFERENCE_S`` over the loop's mean time at its two edges: the
seconds the stretch would take on a host where the loop takes
``REFERENCE_S``. The loop is this file's code, so a change to the program
moves the scaled seconds exactly as it moves the host seconds.
"""

from __future__ import annotations

import json
import statistics
import time

#: Seconds one gauge loop takes on the reference host: the median on a
#: 2-vCPU Intel Xeon (2.0 GHz) virtual machine with CPython 3.11.
REFERENCE_S = 0.008

#: A stretch closes at the first experiment boundary this many host
#: seconds after the last gauge sample.
EVERY_S = 1.0

_DOCUMENT = json.dumps(
    [{"id": i, "name": f"k{i}", "counts": list(range(i % 16))}
     for i in range(200)]
)


def _loop() -> int:
    table: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    x = 12345
    for i in range(6000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 1023
        table[key] = table.get(key, 0) + i
        pairs.append((key, i))
    pairs.sort()
    return len(table) + len(json.loads(_DOCUMENT))


def sample() -> float:
    """Host seconds of one gauge loop: the median of three runs."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Scaler:
    """Adds up stretches of host time and their reference-speed seconds."""

    def __init__(self) -> None:
        self.host_s = 0.0
        self.reference_s = 0.0
        self._pending = 0.0
        self.gauge = sample()
        self._sampled_at = time.perf_counter()

    def scale(self, seconds: float) -> float:
        """*seconds* measured just before the last sample, scaled."""
        return seconds * REFERENCE_S / self.gauge

    def add(self, seconds: float) -> None:
        """Count *seconds* of timed host work in the open stretch."""
        self._pending += seconds

    def close(self, force: bool = False) -> None:
        """Sample the gauge and close the stretch, once it is long enough."""
        if not force and time.perf_counter() - self._sampled_at < EVERY_S:
            return
        gauge = sample()
        self.reference_s += (
            self._pending * REFERENCE_S * 2.0 / (self.gauge + gauge)
        )
        self.host_s += self._pending
        self._pending = 0.0
        self.gauge = gauge
        self._sampled_at = time.perf_counter()
