"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark host's speed drifts: identical calls slow by up to half for
tens of seconds or minutes at a time, and pure-Python and numpy code slow
together.  Timing this kernel next to each workload run and scaling the
run by REF_S / (kernel seconds) takes most of that drift out of the
reported time.  The kernel mixes the operations the transform spends its
time in (complex exponentials, gathers, masked selects and row sums over
arrays of a few MB) with a pure-Python loop; its inputs are fixed, so
its cost never depends on the program under test.

    python3 perfbench/hostref.py

runs the kernel once in a fresh process.  The wall time of that process,
start and numpy import included, is the reference for workloads that are
themselves fresh processes.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Nominal kernel time: scaled times read as wall seconds on a host where
# the kernel takes REF_S.  A whole reference process takes about
# REF_PROCESS_S on such a host.
REF_S = 0.25
REF_PROCESS_S = 0.44

_rng = np.random.default_rng(20201104)
_PHASE = _rng.random((4000, 96))
_INDEX = _rng.integers(0, 16000, size=_PHASE.shape)
_SIGNAL = _rng.random(16000) + 1j * _rng.random(16000)


def kernel_seconds() -> float:
    """Wall seconds of one pass of the reference kernel."""
    t0 = time.perf_counter()
    for _ in range(5):
        atoms = np.exp(2j * np.pi * _PHASE) * np.cos(np.pi * _PHASE) ** 2
        vals = np.where(_PHASE > 0.1, _SIGNAL[_INDEX], 0.0)
        np.sum(vals * np.conj(atoms), axis=1)
    x = 0
    for i in range(200000):
        x += i * i
    return time.perf_counter() - t0


class ScaledTimes:
    """Wall times of runs, each scaled by the kernel timed around it.

    The reference (by default the kernel) is timed once at creation and
    once after every run; a run is scaled by the faster of the two
    reference times on either side of it, since interference can only slow
    the reference.  The reported value is ``nominal`` times the median
    ratio of run to reference seconds.
    """

    def __init__(self, reference=kernel_seconds, nominal: float = REF_S) -> None:
        self.reference = reference
        self.nominal = nominal
        self.kernel = [reference()]
        self.ratios = []

    def add(self, seconds: float, ok: bool = True) -> None:
        """Record one run of ``seconds``; a failed run only times the reference."""
        before = self.kernel[-1]
        self.kernel.append(self.reference())
        if ok:
            self.ratios.append(seconds / min(before, self.kernel[-1]))

    def value(self) -> float:
        return self.nominal * statistics.median(self.ratios)


if __name__ == "__main__":
    kernel_seconds()
