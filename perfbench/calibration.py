"""Machine-speed calibration that makes timings comparable across runs.

On a shared machine the same code runs up to 2x slower for stretches of
milliseconds to minutes, as neighbours load the cores; the operating
system sees no steal time and CPU time tracks wall time.  A fixed kernel
that does the same kind of work as a workload slows down with it.  So
kernel samples are taken around the queries of every pass, and inside
long queries where the program hands control back (see Calibration);
each query's latency is scaled by NOMINAL / (mean kernel time from just
before it to just after it).  Reported times are therefore seconds at
the reference speed, at which the kernel takes its nominal time.  The
nominal values were measured on an unloaded 2-core x86-64 machine
(Python 3.11, numpy 2.4).

Three kernels match the kinds of work the workloads do.  "interpreter"
is per-call Python overhead: frozen dataclasses with validation, small
numpy arrays and float formatting, the profile of an exact cycle at
N <= 100.  "memory" is O(N) numpy passes over 80 KB, 800 KB and 4 MB
arrays, the profile of exact thermal states at N = 1e4 to 1e6.  "scalar"
is pure-Python float loops (a power series and a continued fraction),
the profile of an asymptotic cycle.  Load from neighbours slows the
first two kinds of work up to 2x but scalar loops far less, so a query
is scaled by the kernel of its own kind (see Calibration).  No kernel
touches lmgcycle, so a change to the package cannot move the calibration.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# A long query is followed by up to this many samples, one per interval.
BURST = 4


@dataclass(frozen=True)
class _Point:
    n: int
    value: float

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and self.n >= 1 and math.isfinite(self.value)):
            raise ValueError("bad point")


def _interpreter_kernel() -> float:
    acc = 0.0
    parts = []
    for i in range(150):
        n = 1 + i % 80
        point = _Point(n, 0.01 * i)
        labels = np.arange(-n, n + 1, 2, dtype=np.int64)
        energy = (labels.astype(np.float64) - n * point.value) ** 2 / (2.0 * n)
        logits = -energy / (1.0 + i % 5)
        weights = np.exp(logits - float(logits.max()))
        pop = weights / float(weights.sum())
        pop[pop < 1e-300] = 0.0
        acc += float(pop @ energy) + math.log(float(weights.sum()))
        parts.append(f"{acc:.12g},{point.value:.12g}")
    return acc + len(",".join(parts))


_SIZES = (10_000,) * 8 + (100_000, 500_000)
_LABELS = {n: np.arange(-n, n + 1, 2, dtype=np.int64) for n in set(_SIZES)}


def _memory_kernel() -> float:
    acc = 0.0
    for n in _SIZES:
        labels = _LABELS[n]
        d = labels.astype(np.float64) - n * 0.7
        energy = d * d / (2.0 * n) - 3.0
        logits = -0.5 * (energy - float(energy.min()))
        weights = np.exp(logits)
        pop = weights / float(weights.sum())
        pop[pop < 1e-300] = 0.0
        acc += float(pop @ energy)
    return acc


def _scalar_kernel() -> float:
    acc = 0.0
    for i in range(60):
        x = 0.05 * i
        term = total = x
        xx = x * x
        k = 1
        while abs(term) > 1e-17 * abs(total) and k < 80:
            term *= -xx * (2 * k - 1) / (k * (2 * k + 1))
            total += term
            k += 1
        val = x + 3.0
        for j in range(129, 0, -1):
            val = x + 3.0 + (j / 2.0) / val
        acc += total + math.log(val) + math.exp(-xx)
    return acc


# Kernel, its nominal time, and the busy time after which a sample is
# taken: about eight kernel times for the interpreter kernel, and about
# one large_n query for the memory kernel, whose queries are longer.
# The scalar kernel is only sampled beside the interpreter kernel.
KERNELS = {
    "interpreter": (_interpreter_kernel, 0.0020, 0.016),
    "memory": (_memory_kernel, 0.020, 0.040),
    "scalar": (_scalar_kernel, 0.0008, 0.016),
}


class Calibration:
    """Samples kernels around and inside the queries of a pass.

    begin() opens a pass with a sample.  end_query() is called after each
    query with its measured latency; once the kernel's interval of busy
    time has passed it takes samples (one per interval, up to BURST), so
    samples spread over the timed work in proportion to it.  probe() takes a
    sample inside a running query, at a point where the program hands
    control to the caller, and end_query() removes the probe's time from
    that query's latency.  end() closes the pass and gives each query the
    factor of the samples from just before it to just after it.

    kind names the kernel for every query; by_query_kind maps the kinds
    of query (Pass.kinds) that do another kind of work to another
    kernel.  A sample times every kernel in use, back to back.
    """

    def __init__(self, kind: str, by_query_kind: dict[str, str] | None = None):
        self.by_query_kind = by_query_kind or {}
        self.names = [kind] + sorted(set(self.by_query_kind.values()) - {kind})
        self.interval_s = KERNELS[kind][2]
        self.probing = True
        # One tuple per sample: each kernel's time, in the order of names.
        self.samples: list[tuple[float, ...]] = []
        self._spans: list[tuple[int, int]] = []
        self._first = 0
        self._busy = 0.0
        self._inside = 0.0
        for name in self.names:
            KERNELS[name][0]()

    def sample(self) -> float:
        times = []
        for name in self.names:
            start = perf_counter()
            KERNELS[name][0]()
            times.append(perf_counter() - start)
        self.samples.append(tuple(times))
        return sum(times)

    def begin(self) -> None:
        self.samples, self._spans = [], []
        self.sample()
        self._first, self._busy, self._inside = 0, 0.0, 0.0

    def probe(self) -> None:
        if self.probing:
            self._inside += self.sample()

    def end_query(self, latency_s: float) -> float:
        """The query's latency without the probes taken inside it."""
        latency_s -= self._inside
        self._inside = 0.0
        self._spans.append((self._first, len(self.samples)))
        self._busy += latency_s
        ticks = min(BURST, int(self._busy / self.interval_s))
        if ticks:
            for _ in range(ticks):
                self.sample()
            self._busy = 0.0
        self._first = len(self.samples) - 1
        return latency_s

    def end(self, kinds=None) -> list[float]:
        """Close the pass; per query, reference-speed seconds per second.

        kinds, if given, holds each query's kind, which picks its kernel.
        """
        self.sample()
        kinds = kinds or [None] * len(self._spans)
        return [
            self.factor(self.samples[a : b + 1], self.by_query_kind.get(kind, self.names[0]))
            for (a, b), kind in zip(self._spans, kinds)
        ]

    def factor(self, samples: list[tuple[float, ...]], name: str) -> float:
        """Multiply a measured time by this to get reference-speed seconds.

        The mean, not the median: a query's time is a sum over the fast
        and slow stretches it spans, so it scales with the mean kernel time.
        """
        column = self.names.index(name)
        return KERNELS[name][1] / statistics.fmean(s[column] for s in samples)
