"""Host-normalised op timing.

The benchmark was defined on shared virtual CPUs whose speed switches between
two modes about 2x apart, every few seconds, with no steal time reported: the
same decoded sequence took 28 ms or 55 ms, and a 20-second run could spend
anywhere from none to most of its time in the slow mode. Raw wall times then
spread by 30% or more from run to run. So each op's wall time is scaled by
how fast a fixed reference kernel ran around and during it:

    normalised = wall * REF_SECONDS / mean(reference times sampled)

The two modes slow interpreted code and array arithmetic by different
factors, so there are two kernels, and each workload uses the one that is
closer to its own op:

* `python`: a loop of small numpy calls on 32-vectors with dict updates, like
  token-by-token decode. Decoded sequences over it varied by 4% (coefficient
  of variation) across 2.5-second windows whose raw times varied by 18%.
* `arrays`: exp, tanh and a matmul on 105 x 105 arrays, like a training step
  or the theory suite's Monte Carlo. Training steps over it varied by 1%, and
  repeated theory suites by 4%, where raw times varied by 17% and 9%.

REF_SECONDS fixes the unit: a normalised second is the time in which a
kernel takes its REF_SECONDS. The values are the kernels' fastest times seen
on that host (2 vCPU x86_64, Python 3.11, numpy 2.4 with single-threaded
OpenBLAS), so normalised seconds are of the order of wall seconds there. The
kernels touch no `retainkv` code and run with the garbage collector off so
that the program's heap cannot change their time.
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np

_RNG = np.random.default_rng(0)
_A = _RNG.normal(size=(32, 32))
_V = _RNG.normal(size=32)
_M = _RNG.normal(size=(105, 105))
_B = _RNG.normal(size=(105, 32))


def _python_kernel() -> None:
    x = _V
    counts: dict[int, int] = {}
    for i in range(300):
        y = np.tanh(_A @ x)
        e = np.exp(y - y.max())
        x = e / e.sum()
        counts[i % 7] = counts.get(i % 7, 0) + 1


def _arrays_kernel() -> None:
    for _ in range(20):
        z = np.exp(np.tanh(_M)) @ _B
        z /= z.sum(axis=0)


KERNELS = {"python": _python_kernel, "arrays": _arrays_kernel}
REF_SECONDS = {"python": 0.0018, "arrays": 0.0016}


def reference_seconds(kind: str = "python") -> float:
    """Wall time of one call of reference kernel `kind`, garbage collector off."""
    kernel = KERNELS[kind]
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Times ops in host-normalised seconds.

    The reference kernel runs right before and right after each op and, for
    ops longer than SAMPLE_PERIOD_S, also every SAMPLE_PERIOD_S inside it,
    from a SIGALRM handler (between bytecodes of the main thread). Time spent
    in those samples is taken out of the op's wall time, and the op is scaled
    by the mean of all its samples. The kernel touches no program state and
    draws no random numbers, so outputs do not change. With `inside=False`
    only the two boundary samples are taken: for ops that run in a child
    process, which the samples would compete with, and for traced ops, whose
    span times the samples would inflate. A traced op whose boundaries fall
    inside a program span records them as a `bench.*` child span.
    """

    SAMPLE_PERIOD_S = 0.1

    def __init__(self, kind: str = "python", inside: bool = True):
        self.kind = kind
        self.inside = inside
        self._samples: list[float] = []
        self._inside = 0.0
        self._t0 = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        ref = reference_seconds(self.kind)
        self._samples.append(ref)
        self._inside += ref

    def start(self) -> None:
        self._samples = [reference_seconds(self.kind)]
        self._inside = 0.0
        if self.inside:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_PERIOD_S, self.SAMPLE_PERIOD_S)
        self._t0 = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """End the op begun by `start`; return (normalised, wall) seconds."""
        elapsed = time.perf_counter() - self._t0
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        wall = elapsed - self._inside
        self._samples.append(reference_seconds(self.kind))
        ref = sum(self._samples) / len(self._samples)
        return wall * REF_SECONDS[self.kind] / ref, wall
