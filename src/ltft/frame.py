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
on w, so the cost is O(M) per fold shift plus a fixed tabulation.  The
brute-force quadrature, :func:`frame_diagonal_oracle`, arbitrates the
prefactors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .core import DigitalSignal, LtftParams, Spectrum, dft, idft
from .core import _TABLE_CHUNK, _check_grid, _check_int
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

    H and its floor, _FLOOR_FACTOR * max(H), are derived from the band
    terms.  Frozen, and its arrays are read-only: :func:`frame_diagonal`
    hands the same instance to every caller with the same configuration.
    """

    omega: np.ndarray
    q0: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    h: np.ndarray = field(init=False)
    floor: float = field(init=False)

    def __post_init__(self) -> None:
        if self.q0.size == 0 or not self.q0.shape == self.q1.shape == self.q2.shape:
            raise InvalidParameterError("diagonal components must share one non-empty grid")
        h = self.q0 + self.q1 + self.q2
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "floor", _FLOOR_FACTOR * float(h.max()))
        for values in (self.omega, self.h, self.q0, self.q1, self.q2):
            values.flags.writeable = False


class _Integral:
    """Exact integral from x0 to t, or with ``width`` from t - width to t,
    of the piecewise-linear interpolant of ``values``, tabulated at
    x0 + k * _GRID_STEP.  Outside the table the integrand is zero: every
    tabulated integrand vanishes at both table edges.  Arguments are
    evaluated _TABLE_CHUNK at a time, so a long one makes no
    argument-length temporaries."""

    def __init__(self, x0: float, values: np.ndarray) -> None:
        self.x0 = x0
        self.values = values
        # Trapezoid cumulative at the nodes, zero at the first node.
        self.cum = np.zeros_like(values)
        steps = np.add(values[1:], values[:-1])
        steps *= 0.5 * _GRID_STEP
        np.cumsum(steps, out=self.cum[1:])

    def __call__(self, t: np.ndarray, width: float = 0.0) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        out = np.empty_like(t)
        for k in range(0, t.size, _TABLE_CHUNK):
            part = t[k : k + _TABLE_CHUNK]
            out[k : k + _TABLE_CHUNK] = self._eval(part)
            if width:
                out[k : k + _TABLE_CHUNK] -= self._eval(part - width)
        return out

    def _eval(self, t: np.ndarray) -> np.ndarray:
        x0, values, step = self.x0, self.values, _GRID_STEP
        n = values.shape[0]
        tc = np.clip(t, x0, x0 + (n - 1) * step)
        i = np.minimum(((tc - x0) / step).astype(np.int64), n - 2)
        frac = tc - (x0 + i * step)
        vt = values[i] + (values[i + 1] - values[i]) * (frac / step)
        return self.cum[i] + 0.5 * frac * (values[i] + vt)


def _integrals(params: LtftParams, sample_rate: float):
    """R, the running integral of the xi-averaged window power Q, and the
    wavelet-band integral of P1(q)/q = gamma Q(q - gamma)/q on q > 0.

    The table spans every u at which Q is non-zero, plus a tail margin, so
    both integrands vanish at its edges.  The window power is freed once Q
    and P1 are formed, so the build holds few tables at once."""
    g = params.gamma
    xi = params.xi
    u_lo = -(g * sample_rate / params.b1 + xi) - _GRID_MARGIN
    u_hi = max(g * sample_rate / params.b0, xi) + _GRID_MARGIN
    n = np.ceil((u_hi - u_lo) / _GRID_STEP) + 1.0
    if not n <= _MAX_TABLE_NODES:  # an infinite span too
        raise BudgetExceededError(f"a frame table of {n:g} nodes exceeds the budget")
    u = np.arange(int(n)) * _GRID_STEP + u_lo
    power = params.window.freq(u)
    g2 = _Integral(u_lo, np.square(power, out=power))
    q = u[int(np.ceil((_GRID_STEP - u_lo) / _GRID_STEP)) :]
    p1 = g2(q - g, xi)
    p1 *= g / xi
    np.maximum(p1, 0.0, out=p1)
    p1 /= q
    q_lo = float(q[0])
    # Q at the nodes, the mean window power over [u - xi, u], written over
    # u: G2 at a node is its cumulative, so only G2(u - xi) is evaluated.
    u -= xi
    mean = np.subtract(g2.cum, g2(u), out=u)
    mean /= xi
    del g2, power
    return _Integral(u_lo, mean), _Integral(q_lo, p1)


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
    g = params.gamma
    r, wavelet = _integrals(params, sample_rate)
    omega = np.arange(m) * (sample_rate / m)
    shifts = (-sample_rate, 0.0, sample_rate) if folded else (0.0,)
    q0, q1, q2 = np.zeros((3, m))
    for shift in shifts:
        w = omega + shift
        v = g * w / params.b0
        q0 += r(v, g)
        q1 += wavelet(v) - wavelet(g * w / params.b1)
        q2 += r((g / params.b1) * (w - params.b1)) - r((g / params.b1) * (w - sample_rate))
    return FrameDiagonal(omega, q0, q1, q2)


def frame_diagonal_oracle(
    params: LtftParams, sample_rate: float, m: int, quad_res: int = 512
) -> FrameDiagonal:
    """Brute-force diagonal: 2D midpoint quadrature of the atom spectra.

    At each grid frequency, integrates |atom_hat(b, c; w)|^2 with
    quad_res midpoints per axis on each of the three frequency bands and
    on the oscillation interval.  Cost O(M * quad_res^2); test-only.
    """
    m, quad_res = _check_grid(m, sample_rate), _check_int("quad_res", quad_res, 128)
    if m > 1024 or quad_res > 1024:
        raise BudgetExceededError(
            "oracle quadrature limited to m <= 1024 and quad_res <= 1024"
        )
    g = params.gamma
    xi = params.xi
    omega = np.arange(m) * (sample_rate / m)
    c_mid = (np.arange(quad_res) + 0.5) / quad_res
    dc = 1.0 / quad_res

    def band(b_lo: float, b_hi: float, kind: str) -> np.ndarray:
        b_mid = b_lo + (np.arange(quad_res) + 0.5) * (b_hi - b_lo) / quad_res
        db = (b_hi - b_lo) / quad_res
        total = np.zeros(m)
        for c in c_mid:
            if kind == "low":
                beff = params.b0
                center = (xi / g) * c * params.b0 + b_mid
            elif kind == "high":
                beff = params.b1
                center = (xi / g) * c * params.b1 + b_mid
            else:
                beff = b_mid
                center = ((xi / g) * c + 1.0) * b_mid
            scale = g / beff
            arg = scale * (omega[:, None] - center[None, :])
            power = scale * params.window.freq(arg) ** 2
            total += power.sum(axis=1) * db * dc
        return total

    q0 = band(0.0, params.b0, "low")
    q1 = band(params.b0, params.b1, "mid")
    q2 = band(params.b1, sample_rate, "high")
    return FrameDiagonal(omega, q0, q1, q2)


def apply_inverse_frame(signal: DigitalSignal, hd: FrameDiagonal) -> DigitalSignal:
    """Divide the spectrum by H bin-wise; bins at or below the floor are
    zeroed (band-limited contract, avoids noise blow-up off the covered
    band)."""
    if hd.h.size != signal.m:
        raise InvalidParameterError("frame diagonal grid does not match the signal")
    spec = dft(signal)
    safe = hd.h > hd.floor
    bins = np.where(safe, spec.bins / np.where(safe, hd.h, 1.0), 0.0)
    return idft(Spectrum(bins, signal.sample_rate))
