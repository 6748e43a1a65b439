import numpy as np
import pytest
from hypothesis import settings

from ltft import DigitalSignal, LtftParams

# Property tests draw the same examples on every run and are not timed per
# example, so a slow host cannot fail them.
settings.register_profile("ltft", derandomize=True, deadline=None, database=None)
settings.load_profile("ltft")


RATE = 64.0


@pytest.fixture(scope="session")
def params():
    p = LtftParams.for_rate(RATE)
    # Build the spectrum table of the window that every parameter set shares
    # (49,153 closed-form nodes, 4-10 ms in a fresh process) once per
    # session, so that no test's duration includes it.  The table's own
    # tests build theirs on a fresh WindowSpec.
    p.window._freq_table
    return p


@pytest.fixture(scope="session")
def tapered_tone():
    """Band-limited test signal: raised-cosine-tapered tone pair."""

    def build(m, freqs=(9.0, 17.0), rate=RATE, taper=None):
        p = LtftParams.for_rate(rate)
        t = np.arange(-m // 2, m // 2) / rate
        sig = np.zeros(m)
        for i, f in enumerate(freqs):
            sig += (0.7**i) * np.cos(2 * np.pi * f * t + 0.3 * i)
        n_t = int(round((taper if taper is not None else p.s0) * rate))
        ramp = 0.5 * (1 - np.cos(np.pi * np.arange(n_t) / n_t))
        sig[:n_t] *= ramp
        sig[-n_t:] *= ramp[::-1]
        return DigitalSignal(sig, rate)

    return build
