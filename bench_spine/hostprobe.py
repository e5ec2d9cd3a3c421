"""How fast the host was while a timed section ran.

This machine is a few cores of a shared host.  A fixed piece of work
takes either ~1x or ~1.4x its best time here, the host flips between
the two within fractions of a second and stays in one for up to
minutes, and CPU time inflates with the wall (contention inside the
shared processor, not descheduling).  A 15 s section therefore reads
0.1-0.3 apart from one run to the next without any change to the
program, while the fastest of many 30 ms pieces repeats within 0.02.

A timed section is one whole search and cannot be cut into pieces from
outside, so the pieces are taken beside it: an interval timer
interrupts the main thread every ``INTERVAL`` seconds and the handler
runs a small fixed kernel of the workload's kind of work (``KERNELS``)
and notes the CPU time it took.  ``speed`` is the mean of ``nominal /
sample``: the share of the nominal speed the host delivered over the
section.  A cost multiplied by it reads as if the host had run at
nominal speed throughout.

The program is not touched: the handler runs between two bytecodes of
whatever the main thread is doing (interrupted system calls resume,
PEP 475), works on its own arrays only and never raises.  Spawned
workers and child interpreters do not inherit the timer.  It costs
3-4 ms of the main thread in every ``INTERVAL`` (under 2 %), the same
on both sides of any comparison, and is on in every execution, traced
or not.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.optimize import least_squares

__all__ = ["HostProbe", "INTERVAL", "KERNELS"]

#: seconds between two samples
INTERVAL = 0.2

_RNG = np.random.default_rng(0)
_SQUARE = _RNG.standard_normal((128, 128)).astype(np.float32)
_CURVE = _RNG.standard_normal(25)
_EPOCHS = np.arange(1.0, 16.0)
_FITNESS = 90.0 - 60.0 * np.exp(-0.3 * _EPOCHS) + _RNG.standard_normal(15)


def _small_array_calls() -> None:
    for _ in range(150):
        np.exp(-_CURVE * 0.1).sum() + _CURVE.mean()


def mixed() -> None:
    """A third each interpreter loop, small GEMMs, small-array calls."""
    acc = 0
    for i in range(16000):
        acc += i * i % 7
    x = _SQUARE
    for _ in range(20):
        x = np.tanh(x @ _SQUARE * 0.01)
    _small_array_calls()


def fit() -> None:
    """Small-array calls and one bounded least-squares fit of a 15-point curve."""
    _small_array_calls()
    least_squares(
        lambda t: t[0] - t[1] * np.exp(-t[2] * _EPOCHS) - _FITNESS,
        (80.0, 50.0, 0.1),
        bounds=((0.0, 0.0, 0.0), (100.0, 100.0, 10.0)),
        method="trf",
    )


#: kind of work -> (kernel, CPU seconds of one call at the build host's
#: undisturbed speed: the fastest of a minute of calls 20 ms apart, 2026-10-01).  The
#: second is a constant factor on the normalised metrics: another host only
#: rescales them.  A workload names the kind that dominates its wall
#: (``Workload.probe``), because the kinds do not slow down alike: against
#: ``mixed``, curve fitting loses half as much again in the slow state.
KERNELS = {"mixed": (mixed, 0.00305), "fit": (fit, 0.00369)}


class HostProbe:
    """``with HostProbe(kind) as probe: section()``; then ``probe.speed``."""

    def __init__(self, kind: str = "mixed") -> None:
        self.kernel, self.nominal_s = KERNELS[kind]
        self.samples: list = []

    def _sample(self, *_signal_args) -> None:
        start = time.thread_time()
        self.kernel()
        self.samples.append(time.thread_time() - start)

    def __enter__(self) -> "HostProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a section shorter than one interval
            self._sample()

    @property
    def speed(self) -> float:
        """Share of the nominal speed over the section (1.0 = nominal)."""
        return statistics.fmean(self.nominal_s / s for s in self.samples)
