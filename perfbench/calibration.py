"""Machine-speed calibration for the end-to-end timings.

On a small shared host the same work can take 1.7 times as long from one
minute to the next, so raw wall times of separate runs spread far more than
the changes the benchmark must resolve.  While a timed section runs, a
fixed kernel is timed every ``INTERVAL_S`` of wall time from a SIGALRM
handler, which samples the speed the section actually ran at.  The
kernel's own time is taken out of the section, and the rest is reported at
the reference speed: ``work * REFERENCE_S / mean(kernel times)``.

The kernel uses numpy alone, never proctomo, so no change to the program
moves it.  It mixes the two kinds of work the workloads do: small generator
and multinomial calls (as in per-cell sampling) and dense complex LAPACK
calls (as in the estimator and the validators).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median kernel time on a 2-vCPU Xeon (2.0 GHz) guest with one BLAS thread.
# It only sets the scale of the reported times; any constant would do.
REFERENCE_S = 0.006
INTERVAL_S = 0.1
# Consecutive sections are pooled until they hold this many kernel samples.
MIN_SAMPLES = 8

_RNG = np.random.default_rng(20240213)
_G = _RNG.standard_normal((64, 64)) + 1j * _RNG.standard_normal((64, 64))
_H = _G + _G.conj().T
_P = np.full(9, 1.0 / 9.0)


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel (a few milliseconds)."""
    t0 = time.perf_counter()
    for _ in range(3):
        np.linalg.eigh(_H)
    for k in range(60):
        ss = np.random.SeedSequence(entropy=k, spawn_key=(1, 2))
        np.random.Generator(np.random.Philox(ss)).multinomial(100, _P)
    return time.perf_counter() - t0


class SpeedSampler:
    """Times the kernel every INTERVAL_S seconds while ``active`` is set.

    Use as a context manager around the whole measurement; the interval timer
    keeps its phase across sections, so sections shorter than the interval
    are sampled in proportion to their length.
    """

    def __init__(self):
        self.samples = []
        self.active = False

    def _on_alarm(self, signum, frame):
        if self.active:
            self.samples.append(kernel_seconds())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def time(self, fn, *args):
        """Run ``fn(*args)``; return its result, its wall time less the
        kernel's, and the kernel samples taken while it ran."""
        first = len(self.samples)
        self.active = True
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            elapsed = time.perf_counter() - t0
            self.active = False
        taken = self.samples[first:]
        return out, elapsed - sum(taken), taken


def at_reference_speed(sections) -> list:
    """Mean section time at reference speed, per pool of consecutive sections.

    ``sections`` holds ``(work_s, samples)`` pairs.  Sections are pooled until
    a pool holds MIN_SAMPLES samples; a last pool short of samples is topped
    up with kernel runs made now, right after it.
    """
    out, work, count, samples = [], 0.0, 0, []
    for i, (w, s) in enumerate(sections):
        work, count, samples = work + w, count + 1, samples + list(s)
        if i == len(sections) - 1 and len(samples) < MIN_SAMPLES:
            samples += [kernel_seconds() for _ in range(MIN_SAMPLES - len(samples))]
        if len(samples) >= MIN_SAMPLES:
            out.append(work / count * REFERENCE_S / statistics.fmean(samples))
            work, count, samples = 0.0, 0, []
    return out
