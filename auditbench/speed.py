"""Machine-speed sampling for normalizing timings.

On a small shared machine the speed of one CPU changes by up to 1.7x
within seconds, and stays low for minutes at a time, as other tenants
load its core. A wall time measured in a slow stretch says little about
the program. So while the benchmark times an audit, a SIGALRM every
``INTERVAL_S`` runs ``micro_probe()`` twice, a fixed ~0.18 ms piece of
reference work that does not involve badgd. The first run only warms the
caches: its time depends on what the audit was doing (up to 1.4x), the
second's hardly does (within about 2.5%). An audit's time is reported as

    (wall_s - time spent in probes) * mean(REFERENCE_S / second probe_s)

that is, the work it did in seconds at the speed at which the probe takes
REFERENCE_S. A change to badgd moves the wall time and not the probes, so
it moves the normalized time by the same factor.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np
import numpy.random  # imported here: the handler must not trigger a lazy import

INTERVAL_S = 0.04
# a span with fewer samples than this also uses the samples just before it
MIN_SAMPLES = 5
# warm probe duration on a fast stretch of the 2-vCPU machine the baseline
# in README.md was measured on
REFERENCE_S = 0.00018

_ARRAY = np.arange(2000.0)
_VECTOR = np.linspace(0.1, 1.0, 100)


def micro_probe() -> float:
    """Wall seconds for the reference work: the kinds of work badgd does
    (generator set-up, an interpreted loop, array validation, outer
    products and matrix-vector products of small arrays)."""
    start = perf_counter()
    for i in range(3):
        np.random.default_rng([1, i]).standard_normal(2)
        v = np.array(_VECTOR, dtype=float)
        np.isfinite(v).all()
        np.linalg.norm((np.outer(v, v) - 1.0) @ _VECTOR)
    total = 0
    for i in range(1500):
        total += i * i
    (_ARRAY * 2.0).sum()
    return perf_counter() - start


class Sampler:
    """Collects warm ``micro_probe()`` durations every INTERVAL_S while active."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent: list[float] = []  # wall seconds of each tick's two probes
        self._previous = None

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        micro_probe()
        self.samples.append(micro_probe())
        self.spent.append(perf_counter() - start)

    def normalized(self, wall_s: float, since: int) -> dict:
        """Normalize a span that started when ``len(samples) == since``."""
        window = self.samples[max(0, min(since, len(self.samples) - MIN_SAMPLES)):]
        in_span = sum(self.spent[since:])
        factor = speed_factor(window)
        return {"wall_s": wall_s, "probe_s": in_span, "samples": len(self.samples) - since,
                "speed_factor": factor, "normalized_s": (wall_s - in_span) * factor}


def speed_factor(probes: list[float]) -> float:
    """mean(REFERENCE_S / probe_s); probes now (warm) if none are given."""
    probes = probes or [micro_probe() for _ in range(21)][1:]
    return sum(REFERENCE_S / p for p in probes) / len(probes)
