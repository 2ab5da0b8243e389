"""Shared pieces of the benchmark: operation records, timing, environment.

Every workload is a fixed, seeded pool of operations that the benchmark
replays in whole passes ("cycles") until the measuring time is used up.
All inputs of a cycle are identical from one cycle to the next, so
per-cycle counts repeat exactly and a faster program simply completes
more cycles of the same work.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Percentile ladder for the tail metric. The tail is the highest rung with
# at least MIN_BEYOND samples above it in one pool; the rung depends only on
# the pool size, never on how many cycles a run completed, so the level is
# the same on every commit.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
MIN_BEYOND = 10

# The reference loop: interpreter work plus calls into numpy on a 4-vector,
# the same mix detbox's per-call paths run. Each timed call is scaled by
# REFERENCE_S over the loop's time measured shortly before (and, for long
# calls, also after) it. On a shared host the speed of a core swings by up to
# 60% for tens of seconds as other tenants come and go, and the loop slows
# by about as much as the program does, so the ratio keeps that swing out
# of the numbers. REFERENCE_S is the loop's time on an unloaded Intel Xeon
# (KVM, 2 vCPU), so reported times are close to wall-clock time there.
REFERENCE_ITERATIONS = 400
REFERENCE_S = 1e-3
REFERENCE_EVERY_S = 0.02    # re-measure the loop at least this often
REFERENCE_PASSES = 3        # median of this many passes per measurement
_VEC = np.arange(4.0)


def reference_seconds() -> float:
    """Time of one pass of the reference loop, with the collector paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, seen = 0.0, {}
        for i in range(REFERENCE_ITERATIONS):
            x = np.minimum(_VEC, 2.0) * 1.5
            acc += float(x.sum())
            seen[i % 17] = (i, acc)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def lognormal_quantiles(n: int, median: float, maximum: float) -> list[float]:
    """n values at evenly spaced quantiles of a lognormal with the given
    median, whose top quantile is ``maximum``. Quantiles instead of random
    draws give every seed the same distribution, so a long tail is not a
    matter of luck."""
    normal = statistics.NormalDist()
    sigma = np.log(maximum / median) / normal.inv_cdf((n - 0.5) / n)
    return [median * np.exp(sigma * normal.inv_cdf((i + 0.5) / n)) for i in range(n)]


def tail_level(samples: int) -> float:
    """Highest ladder percentile leaving MIN_BEYOND samples above it."""
    for level in TAIL_LADDER:
        # In tenths of a percent, so that 100 samples at p90 leave exactly 10.
        if samples * (1000 - round(level * 10)) >= MIN_BEYOND * 1000:
            return level
    return 50.0


def percentile(values, level: float) -> float:
    """Linear-interpolated percentile; 0 when every operation failed."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * level / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def failure_reason(exc: BaseException) -> str:
    """Stable reason label for an operation that raised."""
    if "does not divide image size" in str(exc):
        return "stride_mismatch"
    return "other"


@dataclass
class Recorder:
    """Outcome and timings of every operation in a run.

    Each operation of a pool has a key and is repeated once per cycle. A
    repeat's time is scaled to the reference speed (see REFERENCE_S), and
    the operation's cost is the median of its repeats. Failed operations
    are counted by reason; their time still counts towards throughput, but
    they are not latency samples, since a call that raised early says
    nothing about the cost of one that completes.
    """

    times: dict = field(default_factory=dict)     # key -> scaled seconds per repeat
    work: dict = field(default_factory=dict)      # key -> work units of one repeat
    samples: set = field(default_factory=set)     # keys that are latency samples
    attempted: int = 0
    failed: dict = field(default_factory=dict)
    mismatches: list = field(default_factory=list)
    reference: list = field(default_factory=list)  # every reference-loop time
    # Called with an operation label before each timed call; the traced
    # run points it at the tracer so spans carry their operation.
    on_begin: object = field(default_factory=lambda: (lambda label: None))
    _last_reference: float = 0.0
    _reference_at: float = -math.inf

    def _measure_reference(self) -> float:
        seconds = statistics.median(reference_seconds() for _ in range(REFERENCE_PASSES))
        self.reference.append(seconds)
        self._reference_at = time.perf_counter()
        self._last_reference = seconds
        return seconds

    def begin(self, key: str) -> None:
        """Call just before starting the clock on operation ``key``."""
        if time.perf_counter() - self._reference_at > REFERENCE_EVERY_S:
            self._measure_reference()
        self.on_begin(key)

    def timed(self, key: str, fn):
        """Run ``fn()`` as operation ``key``; return ``(result, seconds)``.

        A call that raises ValueError is counted as failed by reason, with
        its time, and gives None.
        """
        self.begin(key)
        t0 = time.perf_counter()
        try:
            result = fn()
        except ValueError as exc:
            self.fail(failure_reason(exc), key, time.perf_counter() - t0)
            return None
        return result, time.perf_counter() - t0

    def _time(self, key: str, seconds: float, work: float) -> None:
        speed = self._last_reference
        if seconds > REFERENCE_EVERY_S:
            # The machine may have changed pace during a long call.
            speed = (speed + self._measure_reference()) / 2
        self.times.setdefault(key, []).append(seconds * REFERENCE_S / speed)
        self.work[key] = work

    def ok(self, key: str, seconds: float, work: float = 1.0, sample: bool = True) -> None:
        self.attempted += 1
        self._time(key, seconds, work)
        if sample:
            self.samples.add(key)

    def fail(self, reason: str, key: str | None = None, seconds: float = 0.0) -> None:
        self.attempted += 1
        self.failed[reason] = self.failed.get(reason, 0) + 1
        if key is not None:
            self._time(key, seconds, 0.0)

    def mismatch(self, what: str) -> None:
        """A wrong output: the operation counts as failed and the run as incorrect."""
        self.fail("check_mismatch")
        if len(self.mismatches) < 20:
            self.mismatches.append(what)

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())

    def cost(self, key: str) -> float:
        return statistics.median(self.times[key])

    def latencies(self) -> list[float]:
        """Cost of each latency-sample operation."""
        return [self.cost(k) for k in sorted(self.samples)]

    def rate(self, prefix: str = "") -> float:
        """Work per second over one pass of the operations whose key starts
        with ``prefix``."""
        keys = [k for k in self.times if k.startswith(prefix)]
        seconds = sum(self.cost(k) for k in keys)
        return sum(self.work[k] for k in keys) / seconds if seconds else 0.0


def peak_rss_mb() -> float:
    import resource

    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_lines(root: Path) -> int:
    return sum(
        len(p.read_text().splitlines()) for p in sorted((root / "src" / "detbox").rglob("*.py"))
    )


def environment(root: Path, thread_vars) -> dict:
    import scipy

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "src_detbox_lines": source_lines(root),
        "threads": {k: os.environ.get(k) for k in thread_vars},
        "platform": sys.platform,
    }
