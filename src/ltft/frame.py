"""Frame-operator diagonal H(w) and its inverse for normalized synthesis.

Integrating the squared atom spectra over the oscillation axis first
averages the window's spectral power over a width xi:

    Q(u) = (1/xi) * [G2(u) - G2(u - xi)],   R(u) = integral of Q up to u,

where G2 is the cumulative integral of |w_hat|^2.  Q vanishes off the
window's spectral support and R rises from 0 to ||w_hat||^2 = 1.  The
frequency axis then splits the diagonal into three band contributions:

    q0(w) = R(v) - R(v - gamma),  v = gamma * w / b0      (low STFT band)
    q1(w) = integral over q in [gamma*w/b1, gamma*w/b0] of P1(q)/q dq,
            P1(q) = gamma * Q(q - gamma)                   (wavelet band)
    q2(w) = R(gamma (w - b1) / b1) - R(gamma (w - L) / b1) (high STFT band)

Each band term is one difference of values of one primitive,
:class:`_Integral`: the exact running integral of a piecewise-linear
interpolant tabulated on a fixed grid.  G2 integrates the tabulated power,
R integrates Q, and the wavelet band integrates P1(q)/q; no table depends
on w, so the cost is a fixed tabulation plus O(M) per fold shift.  The
tabulation costs one evaluation per node: G2 is only needed at its own
nodes moved by gamma, gamma + xi and xi, each shift one whole number of
nodes plus one fraction of a cell, so Q and P1 are a few shifted slices of
G2's table, with no per-node search.  A brute-force quadrature of the
atom spectra, ``frame_diagonal_oracle`` in ``tests/oracles.py``, arbitrates
the prefactors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import DigitalSignal, LtftParams, dft
from .core import _TABLE_CHUNK, _check_grid
from .errors import BudgetExceededError, InvalidParameterError

_GRID_STEP = 1.0 / 1024.0  # dimensionless tabulation step
_GRID_MARGIN = 40.0  # spectral tail margin beyond the needed range
_FLOOR_FACTOR = 1e-8  # floor = factor * max(h)
# Nodes of one table, 2^24 (128 MiB of doubles): default parameters need
# about 165k, and the build holds a few tables at once.
_MAX_TABLE_NODES = 1 << 24


@dataclass(frozen=True)
class FrameDiagonal:
    """H(w) = q0 + q1 + q2 on the frequency grid w_k = k L / M.

    H, its floor, _FLOOR_FACTOR * max(H), and the mask of the bins kept
    above the floor are derived from the band terms.  Frozen, and its arrays
    are read-only: :func:`frame_diagonal` hands the same instance to every
    caller with the same configuration.
    """

    omega: np.ndarray
    q0: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    h: np.ndarray = field(init=False)
    floor: float = field(init=False)
    kept: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.q0.size == 0 or not self.q0.shape == self.q1.shape == self.q2.shape:
            raise InvalidParameterError("diagonal components must share one non-empty grid")
        h = self.q0 + self.q1 + self.q2
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "floor", _FLOOR_FACTOR * float(h.max()))
        object.__setattr__(self, "kept", h > self.floor)
        for values in (self.omega, self.h, self.kept, self.q0, self.q1, self.q2):
            values.flags.writeable = False


class _Integral:
    """Exact integral from x0 to t - shift of the piecewise-linear
    interpolant of ``values``, tabulated at x0 + k * _GRID_STEP.  Outside
    the table the integrand is zero: every tabulated integrand vanishes at
    both table edges.

    A call locates each argument in the table on its own, as the per-bin
    terms of the diagonal need.  The table stage only needs the integral at
    the table's own nodes moved by a fixed shift, which :meth:`at_nodes`
    gives as shifted slices of the table."""

    def __init__(self, x0: float, values: np.ndarray) -> None:
        self.x0 = x0
        self.values = values
        # Trapezoid cumulative at the nodes, zero at the first node, summed
        # in place.
        self.cum = np.empty_like(values)
        self.cum[0] = 0.0
        steps = np.add(values[1:], values[:-1], out=self.cum[1:])
        steps *= 0.5 * _GRID_STEP
        np.cumsum(steps, out=steps)

    def __call__(self, t: np.ndarray, shift: float = 0.0) -> np.ndarray:
        # x is the argument in cells from x0, clipped to the table just
        # below its last node, so that cell i = floor(x) has a right
        # neighbour and the top gives the total (the integrand vanishes
        # there).  With a = x - i, the cell adds
        # (step / 2) a (2 v_i + a (v_i+1 - v_i)).
        values = self.values
        x = np.subtract(t, self.x0 + shift)
        x *= 1.0 / _GRID_STEP
        np.clip(x, 0.0, np.nextafter(values.size - 1.0, 0.0), out=x)
        i = np.floor(x)
        x -= i
        i = i.astype(np.intp)
        lo = values.take(i)
        part = values[1:].take(i)
        part -= lo
        part *= x
        part += lo
        part += lo
        part *= x
        part *= 0.5 * _GRID_STEP
        part += self.cum.take(i)
        return part

    def at_nodes(self, shift: float, lo: int, hi: int) -> np.ndarray:
        """The integral at x0 + k * _GRID_STEP - shift for nodes lo <= k < hi:
        0 below the table and the total above it.  Every such argument lies
        the same fraction a of a cell above node k - d, so the values are
        shifted slices of the table: cum, plus two of values unless a = 0."""
        cells = shift / _GRID_STEP  # exact: the step is a power of two
        d = math.ceil(cells)
        a = d - cells
        n = self.values.size
        first = min(max(lo, d), hi)
        last = max(min(hi, n - 1 + d), first)
        out = np.empty(hi - lo)
        out[: first - lo] = 0.0
        out[last - lo :] = self.cum[-1]
        i, j = first - d, last - d
        part = out[first - lo : last - lo]
        if a:
            np.multiply(self.values[i:j], _GRID_STEP * a * (1.0 - 0.5 * a), out=part)
            part += self.cum[i:j]
            part += (0.5 * _GRID_STEP * a * a) * self.values[i + 1 : j + 1]
        else:
            part[...] = self.cum[i:j]
        return out


def _table_nodes(params: LtftParams, sample_rate: float):
    """The first node u_lo and the node count of the frame tables at these
    parameters, refusing a count past the budget (an infinite span too)
    before any table is made.

    The table spans every u at which Q is non-zero, plus a tail margin, so
    every tabulated integrand vanishes at its edges."""
    u_lo = -(params.gamma * sample_rate / params.b1 + params.xi) - _GRID_MARGIN
    u_hi = max(params.gamma * sample_rate / params.b0, params.xi) + _GRID_MARGIN
    n = np.ceil((u_hi - u_lo) / _GRID_STEP) + 1.0
    if not n <= _MAX_TABLE_NODES:
        raise BudgetExceededError(f"a frame table of {n:g} nodes exceeds the budget")
    return u_lo, int(n)


def _integrals(params: LtftParams, sample_rate: float):
    """R, the running integral of the xi-averaged window power Q, and the
    wavelet-band integral of P1(q)/q = gamma Q(q - gamma)/q on q > 0, on
    the nodes of :func:`_table_nodes`.

    G2 is only evaluated at its own nodes moved by gamma, gamma + xi and
    xi, so both tables are slice arithmetic on G2's table
    (:meth:`_Integral.at_nodes`), a chunk at a time: P1 is written into its
    own buffer and Q over u.  The window power is freed once Q and P1 are
    formed, so the build holds few tables at once."""
    g = params.gamma
    xi = params.xi
    u_lo, n = _table_nodes(params, sample_rate)
    u = np.arange(n, dtype=np.float64)
    u *= _GRID_STEP
    u += u_lo
    power = params.window.freq(u)
    g2 = _Integral(u_lo, np.square(power, out=power))
    # P1 on the nodes q > 0: G2(q - gamma) - G2(q - gamma - xi), scaled.
    first = int(np.ceil((_GRID_STEP - u_lo) / _GRID_STEP))
    q = u[first:]
    p1 = np.empty_like(q)
    for lo in range(first, n, _TABLE_CHUNK):
        hi = min(lo + _TABLE_CHUNK, n)
        np.subtract(
            g2.at_nodes(g, lo, hi), g2.at_nodes(g + xi, lo, hi), out=p1[lo - first : hi - first]
        )
    p1 *= g / xi
    np.maximum(p1, 0.0, out=p1)
    p1 /= q
    q_lo = float(q[0])
    # Q at the nodes, the mean window power over [u - xi, u], written over
    # u: G2 at a node is its cumulative.
    for lo in range(0, n, _TABLE_CHUNK):
        hi = min(lo + _TABLE_CHUNK, n)
        np.subtract(g2.cum[lo:hi], g2.at_nodes(xi, lo, hi), out=u[lo:hi])
    u /= xi
    del g2, power
    return _Integral(u_lo, u), _Integral(q_lo, p1)


def frame_diagonal(
    params: LtftParams, sample_rate: float, m: int, folded: bool = False
) -> FrameDiagonal:
    """Closed-form diagonal on the M-point frequency grid: each band term is
    a difference of exact running integrals of tabulated interpolants; H and
    its floor are derived from the band terms by :class:`FrameDiagonal`.

    With ``folded`` the diagonal is summed over the DFT's periodic
    frequency identification (arguments shifted by -L, 0, +L).  Sampled
    atoms whose modulation frequency exceeds the rate alias back into the
    grid, so the digital frame operator sees the folded diagonal; use it
    whenever the diagonal normalizes sampled synthesis output.

    H is a function of (params, sample_rate, m, folded) alone, so the last
    diagonal built is kept and returned again while the same arguments
    repeat (a sweep or repeated runs on one signal).  Only one is kept, so
    at most 5*M doubles stay held between calls.  The returned
    :class:`FrameDiagonal` is shared: it is frozen and its arrays are
    read-only.
    """
    return _build_diagonal(params, sample_rate, _check_grid(m, sample_rate), folded)


@functools.lru_cache(maxsize=1)
def _build_diagonal(
    params: LtftParams, sample_rate: float, m: int, folded: bool
) -> FrameDiagonal:
    # Owns the walk over the bins, a chunk at a time so no temporary is
    # grid-sized.  At the fold shift -L both wavelet arguments are negative,
    # below the table's first node q > 0, so those reads are exactly 0 and
    # are skipped: 16 located reads per bin folded, 6 unfolded.
    g = params.gamma
    high = g / params.b1
    r, wavelet = _integrals(params, sample_rate)
    omega = np.arange(m) * (sample_rate / m)
    shifts = (-sample_rate, 0.0, sample_rate) if folded else (0.0,)
    q0, q1, q2 = np.zeros((3, m))
    for lo in range(0, m, _TABLE_CHUNK):
        bins = slice(lo, lo + _TABLE_CHUNK)
        d = np.empty_like(omega[bins])  # every band term's difference
        for shift in shifts:
            w = omega[bins] + shift
            v = g * w / params.b0
            q0[bins] += np.subtract(r(v), r(v, g), out=d)
            if shift >= 0.0:
                q1[bins] += np.subtract(wavelet(v), wavelet(g * w / params.b1), out=d)
            q2[bins] += np.subtract(r(high * (w - params.b1)), r(high * (w - sample_rate)), out=d)
    return FrameDiagonal(omega, q0, q1, q2)


def apply_inverse_frame(signal: DigitalSignal, hd: FrameDiagonal) -> DigitalSignal:
    """Divide the spectrum by H bin-wise; bins at or below the floor are
    zeroed (band-limited contract, avoids noise blow-up off the covered
    band).  The inverse DFT of :func:`~ltft.core.idft` runs in place on the
    DFT's own bins, so the call makes two signal-length arrays: the bins
    and the output.  These run with numpy's overflow and invalid-value
    warnings off, and a result past the float range is refused once."""
    if hd.h.size != signal.m:
        raise InvalidParameterError("frame diagonal grid does not match the signal")
    with np.errstate(over="ignore", invalid="ignore"):
        bins = dft(signal).bins
        np.divide(bins, hd.h, out=bins, where=hd.kept)
        bins[~hd.kept] = 0.0
        np.fft.ifft(bins, out=bins)
        bins *= signal.sample_rate
    if not np.isfinite(bins).all():
        raise InvalidParameterError(
            "the normalized sum overflows float64: the coefficients, or the values"
            " of the coefficient rule, are too large"
        )
    return DigitalSignal(np.fft.fftshift(bins), signal.sample_rate)
