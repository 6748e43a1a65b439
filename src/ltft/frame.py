"""Frame-operator diagonal H(w) and its inverse for normalized synthesis.

Integrating the squared atom spectra over the oscillation and frequency
axes collapses to nested integrals of the window's spectral power, so the
diagonal splits into three band contributions:

    q0(w) = (1/xi) * [G3(v) - G3(v - gamma) - G3(v - xi) + G3(v - gamma - xi)]
            with v = gamma * w / b0   (low STFT band, after substitution)
    q1(w) = integral over q in [gamma*w/b1, gamma*w/b0] of P1(q)/q dq,
            P1(q) = (gamma/xi) * [G2(q - gamma) - G2(q - gamma - xi)]
    q2(w) = same structure as q0 with b1 and an [b1, L] outer window

where G2 is the cumulative integral of |w_hat|^2 and G3 the cumulative of
G2.  Each of the three band terms is a difference of values of one
primitive, :class:`_Integral`: the exact running integral of a
piecewise-linear interpolant tabulated on a fixed grid.  G2 integrates the
tabulated power, G3 integrates G2's cumulative, and the wavelet band
integrates P1(q)/q, tabulated once since it does not depend on w.  The
cost is O(M) per fold shift plus a fixed tabulation.

The low-band and wavelet-band prefactors follow the full derivation of the
diagonal (the low band carries gamma^2/(b0^2 xi) and the oscillation
average is a convolution against an indicator); the brute-force quadrature
oracle arbitrates the convention.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import DigitalSignal, LtftParams, Spectrum, dft, idft
from .errors import BudgetExceededError, InvalidParameterError

_GRID_STEP = 1.0 / 1024.0  # dimensionless tabulation step
_GRID_MARGIN = 40.0  # spectral tail margin beyond the needed range
_FLOOR_FACTOR = 1e-8  # floor = factor * max(h)
_CHUNK = 1 << 13  # arguments per evaluation step of an _Integral


@dataclass(frozen=True)
class FrameDiagonal:
    """H(w) = q0 + q1 + q2 on the frequency grid w_k = k L / M.

    Frozen, and its arrays are read-only: :func:`frame_diagonal` hands the
    same instance to every caller with the same configuration.
    """

    omega: np.ndarray
    h: np.ndarray
    q0: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    floor: float

    def __post_init__(self) -> None:
        if not (
            self.h.shape == self.q0.shape == self.q1.shape == self.q2.shape
        ):
            raise InvalidParameterError("diagonal components must share the grid")
        for values in (self.omega, self.h, self.q0, self.q1, self.q2):
            values.flags.writeable = False

    @property
    def m(self) -> int:
        return self.h.shape[0]


class _Integral:
    """Exact integral from x0 to t of the piecewise-linear interpolant of
    ``values``, tabulated at x0 + k * _GRID_STEP.  Outside the table the
    integrand is zero, or, with ``extend``, held at its edge value (for a
    cumulative integrand, which saturates to a constant).  Arguments are
    evaluated _CHUNK at a time, so a long one makes no argument-length
    temporaries."""

    def __init__(self, x0: float, values: np.ndarray, extend: bool = False) -> None:
        self.x0 = x0
        self.values = values
        self.extend = extend
        # Trapezoid cumulative at the nodes, zero at the first node.
        self.cum = np.zeros_like(values)
        steps = np.add(values[1:], values[:-1])
        steps *= 0.5 * _GRID_STEP
        np.cumsum(steps, out=self.cum[1:])

    def __call__(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        out = np.empty_like(t)
        for k in range(0, t.size, _CHUNK):
            out[k : k + _CHUNK] = self._eval(t[k : k + _CHUNK])
        return out

    def _eval(self, t: np.ndarray) -> np.ndarray:
        x0, values, step = self.x0, self.values, _GRID_STEP
        n = values.shape[0]
        top = x0 + (n - 1) * step
        tc = np.clip(t, x0, top)
        i = np.minimum(((tc - x0) / step).astype(np.int64), n - 2)
        frac = tc - (x0 + i * step)
        vt = values[i] + (values[i + 1] - values[i]) * (frac / step)
        out = self.cum[i] + 0.5 * frac * (values[i] + vt)
        if self.extend:
            out = out + np.where(t > top, (t - top) * values[-1], 0.0)
            out = out + np.where(t < x0, (t - x0) * values[0], 0.0)
        return out


def _integrals(params: LtftParams, sample_rate: float):
    """G3 and the wavelet-band integral of P1(q)/q (positive nodes only).

    The grid and the window power are freed as soon as they are used, and
    the power and P1 are formed in place, so the build holds few tables at
    once."""
    g = params.gamma
    xi = params.xi
    u_lo = -(g * sample_rate / params.b1 + xi) - _GRID_MARGIN
    u_hi = g * sample_rate / params.b0 + _GRID_MARGIN
    n = int(np.ceil((u_hi - u_lo) / _GRID_STEP)) + 1
    u = np.arange(n, dtype=np.float64)
    u *= _GRID_STEP
    u += u_lo
    power = params.window.freq(u)
    del u
    g2 = _Integral(u_lo, np.square(power, out=power))
    first = int(np.ceil((_GRID_STEP - u_lo) / _GRID_STEP))
    q = np.arange(first, n, dtype=np.float64)
    q *= _GRID_STEP
    q += u_lo
    p1 = g2(q - g)
    p1 -= g2(q - g - xi)
    p1 *= g / xi
    g3 = _Integral(u_lo, g2.cum, extend=True)
    del g2, power
    np.maximum(p1, 0.0, out=p1)
    p1 /= q
    return g3, _Integral(q[0], p1)


def frame_diagonal(
    params: LtftParams, sample_rate: float, m: int, folded: bool = False
) -> FrameDiagonal:
    """Closed-form diagonal on the M-point frequency grid: each band term is
    a difference of exact running integrals of tabulated interpolants.

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
    if m < 4 or m % 2 != 0:
        raise InvalidParameterError("grid length must be even and >= 4")
    return _build_diagonal(params, sample_rate, m, folded)


@functools.lru_cache(maxsize=1)
def _build_diagonal(
    params: LtftParams, sample_rate: float, m: int, folded: bool
) -> FrameDiagonal:
    g = params.gamma
    xi = params.xi
    g3, wavelet = _integrals(params, sample_rate)
    omega = np.arange(m) * (sample_rate / m)
    shifts = (-sample_rate, 0.0, sample_rate) if folded else (0.0,)
    q0 = np.zeros(m)
    q1 = np.zeros(m)
    q2 = np.zeros(m)
    for shift in shifts:
        w = omega + shift
        v = g * w / params.b0
        q0 += (g3(v) - g3(v - g) - g3(v - xi) + g3(v - g - xi)) / xi
        q1 += wavelet(g * w / params.b0) - wavelet(g * w / params.b1)
        w_hi = (g / params.b1) * (w - params.b1)
        w_lo = (g / params.b1) * (w - sample_rate)
        q2 += (g3(w_hi) - g3(w_hi - xi) - g3(w_lo) + g3(w_lo - xi)) / xi
    h = q0 + q1 + q2
    return FrameDiagonal(
        omega=omega,
        h=h,
        q0=q0,
        q1=q1,
        q2=q2,
        floor=_FLOOR_FACTOR * float(h.max()),
    )


def frame_diagonal_oracle(
    params: LtftParams, sample_rate: float, m: int, quad_res: int = 512
) -> FrameDiagonal:
    """Brute-force diagonal: 2D midpoint quadrature of the atom spectra.

    At each grid frequency, integrates |atom_hat(b, c; w)|^2 with
    quad_res midpoints per axis on each of the three frequency bands and
    on the oscillation interval.  Cost O(M * quad_res^2); test-only.
    """
    if quad_res < 128:
        raise InvalidParameterError("quad_res must be >= 128")
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
    h = q0 + q1 + q2
    return FrameDiagonal(
        omega=omega,
        h=h,
        q0=q0,
        q1=q1,
        q2=q2,
        floor=_FLOOR_FACTOR * float(h.max()),
    )


def apply_inverse_frame(signal: DigitalSignal, hd: FrameDiagonal) -> DigitalSignal:
    """Divide the spectrum by H bin-wise; bins at or below the floor are
    zeroed (band-limited contract, avoids noise blow-up off the covered
    band)."""
    if hd.m != signal.m:
        raise InvalidParameterError("frame diagonal grid does not match the signal")
    spec = dft(signal)
    safe = hd.h > hd.floor
    bins = np.where(safe, spec.bins / np.where(safe, hd.h, 1.0), 0.0)
    return idft(Spectrum(bins, signal.sample_rate))


def apply_forward_frame(signal: DigitalSignal, hd: FrameDiagonal) -> DigitalSignal:
    """Multiply the spectrum by H bin-wise (diagnostic companion)."""
    if hd.m != signal.m:
        raise InvalidParameterError("frame diagonal grid does not match the signal")
    spec = dft(signal)
    return idft(Spectrum(spec.bins * hd.h, signal.sample_rate))
