"""Shared pieces of the benchmark: statistics, the host clock, the run
report, scratch space."""

from __future__ import annotations

import contextlib
import os
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

#: Set-up repeats at least ``SETUP_MIN`` (unless a workload sets its
#: own minimum) and at most ``SETUP_MAX`` times, until ``SETUP_SECONDS``
#: (nominal) have passed.
SETUP_MIN = 10
SETUP_MAX = 50
SETUP_SECONDS = 0.5

#: Tail percentiles considered for a timing, highest first.
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)

#: Iterations of the reference loop, a fixed pure-Python integer loop
#: that calls nothing of the simulator, so no change to the program
#: can move it.
REFERENCE_ITERATIONS = 200_000
#: Seconds one reference pass takes on the nominal host (a 2-vCPU
#: shared Linux container, Python 3.11); the scale of every host timing.
REFERENCE_SECONDS = 0.02


def quantile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 <= q <= 1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def timing_note(samples, scale: float = 1.0, unit: str = "") -> str:
    """Median plus the highest percentile with at least ten samples
    beyond it, and the sample count, as one line of text."""
    n = len(samples)
    note = f"median {quantile(samples, 0.5) * scale:.4g}{unit}"
    for tail in _TAILS:
        if n * (1 - tail / 100) >= 10:
            note += f", p{tail:g} {quantile(samples, tail / 100) * scale:.4g}{unit}"
            break
    return note + f", n={n}"


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def reference_pass() -> float:
    """Seconds one pass of the reference loop takes now."""
    start = time.perf_counter()
    x = 0
    for i in range(REFERENCE_ITERATIONS):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - start


class HostClock:
    """Host timings in nominal-host seconds.

    The shared host's speed drifts by tens of percent over seconds to
    minutes, the same for all code that runs on it, and a median over
    one run cannot remove drift that lasts the whole run.  So the clock
    reads the host's speed, ``REFERENCE_SECONDS / pass``, from reference
    passes taken beside the work, and :meth:`time` scales a sample by
    the reading taken just before it: the sample reads what it would
    have taken on the nominal host.  A change to the simulator moves the
    samples but not the reference, so it moves the metrics in full.
    """

    def __init__(self) -> None:
        self.speeds: list[float] = []
        #: Unscaled seconds of all work timed through :meth:`time`.
        self.raw_seconds = 0.0

    def speed(self, passes: int = 1) -> float:
        """The host's speed now relative to nominal (the median of
        ``passes`` reference passes)."""
        speed = REFERENCE_SECONDS / statistics.median(
            reference_pass() for _ in range(passes)
        )
        self.speeds.append(speed)
        return speed

    def time(self, work, passes: int = 1):
        """Run ``work()``; returns its result and nominal seconds."""
        speed = self.speed(passes)
        start = time.perf_counter()
        result = work()
        elapsed = time.perf_counter() - start
        self.raw_seconds += elapsed
        return result, elapsed * speed

    def median_speed(self) -> float:
        return statistics.median(self.speeds)


class Setup:
    """A workload's set-up, repeated and timed.

    Set-up runs in one batch before the timed region, each set-up timed
    in nominal-host seconds by ``clock``.  A second batch after the
    timed region would run on a larger heap, and the median of the two
    would sit between them.  ``discard(result)`` releases a result that
    is not kept.
    """

    def __init__(self, clock: HostClock, build, discard=None, minimum: int = SETUP_MIN) -> None:
        self._clock = clock
        self._build = build
        self._discard = discard or (lambda result: None)
        self._minimum = minimum
        self.times: list[float] = []

    def batch(self):
        """Build at least ``minimum`` times; returns the last result and
        the batch's total unscaled seconds."""
        result = None
        raw_before = self._clock.raw_seconds
        while len(self.times) < self._minimum or (
            len(self.times) < SETUP_MAX and sum(self.times) < SETUP_SECONDS
        ):
            if result is not None:
                self._discard(result)
            result, seconds = self._clock.time(self._build)
            self.times.append(seconds)
        return result, self._clock.raw_seconds - raw_before

    @property
    def median(self) -> float:
        return statistics.median(self.times)


class Report:
    """What one run measured, checked and failed."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str]] = {}
        self.notes: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.errors: list[str] = []

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit)
        if note:
            self.notes[name] = note

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, count: int = 1, why: str = "") -> None:
        """Failed operations (not output mismatches)."""
        self.failed += count
        if why:
            self.errors.append(why)

    def check(self, ok: bool, what: str) -> bool:
        """One output check; a mismatch counts as a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.mismatches.append(what)
        return ok

    def lines(self) -> list[str]:
        out = []
        for name, (value, unit) in self.metrics.items():
            note = self.notes.get(name, "")
            out.append(f"  {name:<38} {value:>16.6g} {unit:<12} {note}".rstrip())
        return out


@contextlib.contextmanager
def scratch_dir(root: Path):
    """A fresh directory under ``root/.perfbench-tmp``, removed on exit."""
    base = root / ".perfbench-tmp"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()
