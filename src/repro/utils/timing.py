"""Wall-clock measurement helpers.

The paper reports both *measured* wall times (engine overhead, §4.3.1)
and *simulated* wall times (multi-GPU schedules).  This module supports
the former; the discrete-event simulator in :mod:`repro.scheduler` owns
the latter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["Stopwatch", "format_hours"]


@dataclass
class Stopwatch:
    """Accumulating stopwatch with lap support.

    Uses ``time.perf_counter`` for monotonic, high-resolution timing.

    >>> sw = Stopwatch()
    >>> with sw:
    ...     pass
    >>> sw.total >= 0.0
    True
    """

    total: float = 0.0
    laps: list = field(default_factory=list)
    _started: float | None = None

    def start(self) -> "Stopwatch":
        """Begin a lap; raises if already running."""
        if self._started is not None:
            raise RuntimeError("Stopwatch already running")
        self._started = time.perf_counter()
        return self

    def stop(self) -> float:
        """End the current lap and return its duration in seconds."""
        if self._started is None:
            raise RuntimeError("Stopwatch not running")
        lap = time.perf_counter() - self._started
        self._started = None
        self.record(lap)
        return lap

    def record(self, lap: float) -> None:
        """Add a lap measured elsewhere (a share of a lap timed for several)."""
        self.laps.append(lap)
        self.total += lap

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def elapsed(self) -> float:
        """Seconds accumulated so far, including any lap in flight.

        Unlike :attr:`total`, this can be read while the stopwatch is
        running — the scheduler pools use it to timestamp job starts
        and ends against the generation clock.
        """
        running = (
            time.perf_counter() - self._started if self._started is not None else 0.0
        )
        return self.total + running

    @property
    def mean_lap(self) -> float:
        """Mean lap duration in seconds (0 if no laps)."""
        return self.total / len(self.laps) if self.laps else 0.0

    @property
    def lap_variance(self) -> float:
        """Population variance of lap durations in seconds² (0 if <2 laps)."""
        if len(self.laps) < 2:
            return 0.0
        mean = self.mean_lap
        return sum((lap - mean) ** 2 for lap in self.laps) / len(self.laps)


def format_hours(seconds: float) -> str:
    """Render seconds as decimal hours (paper-table style, e.g. ``46.55 h``)."""
    return f"{seconds / 3600.0:.2f} h"
