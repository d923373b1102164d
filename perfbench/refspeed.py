"""Reference speed: the benchmark's correction for a host whose speed drifts.

On a shared 2-vCPU Intel Xeon VM, the speed of pure-Python code swung by 30%
or more within a minute.  The swings moved every timing metric, and they
made runs of the same code disagree by more than any useful bound.  So the
benchmark times a fixed, tiny pure-Python computation next to every op.  It
reports op times scaled to *reference speed*: the speed at which
`reference()` takes REFERENCE_S.  A time in ms at reference speed is the raw
time multiplied by REFERENCE_S / (measured reference time).

`reference()` does what the program does in small: big-integer products,
small dicts and strings, and JSON encoding.
"""

from __future__ import annotations

import json
from time import perf_counter

REFERENCE_S = 200e-6


def reference() -> int:
    acc, rows = 1, []
    for i in range(1, 120):
        acc *= 2 * i + 1
        rows.append({"i": i, "s": str(acc % 1000003)})
    return len(json.dumps(rows)) + acc.bit_length()


def reference_time() -> float:
    """Median of three timings of reference(), in seconds, after one untimed
    call so that a fresh process is not timed cold."""
    reference()
    times = []
    for _ in range(3):
        start = perf_counter()
        reference()
        times.append(perf_counter() - start)
    return sorted(times)[1]


def speed_scale(before: float, after: float) -> float:
    """Factor that turns a raw time measured between two reference timings
    into a time at reference speed."""
    return 2 * REFERENCE_S / (before + after)
