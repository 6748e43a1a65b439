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
G2.  Everything reduces to table lookups, so the cost is O(M) plus a fixed
tabulation, and q1 for all bins amounts to a running-window integral whose
endpoints advance monotonically with the bin index.

The low-band and wavelet-band prefactors follow the full derivation of the
diagonal (the low band carries gamma^2/(b0^2 xi) and the oscillation
average is a convolution against an indicator); the brute-force quadrature
oracle arbitrates the convention.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from typing import IO

import numpy as np

from .core import DigitalSignal, LtftParams, Spectrum, dft, idft
from .errors import BudgetExceededError, InvalidParameterError

_GRID_STEP = 1.0 / 1024.0  # dimensionless tabulation step
_GRID_MARGIN = 40.0  # spectral tail margin beyond the needed range
_FLOOR_FACTOR = 1e-8  # floor = factor * max(h)


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

    def write_csv(self, dest: IO[str]) -> None:
        writer = csv.writer(dest)
        writer.writerow(["omega", "h", "q0", "q1", "q2"])
        for row in zip(self.omega, self.h, self.q0, self.q1, self.q2):
            writer.writerow([format(v, ".17g") for v in row])


def _cumulative(step: float, values: np.ndarray) -> np.ndarray:
    # Trapezoid cumulative at the nodes, zero at the first node.
    out = np.zeros_like(values)
    np.cumsum(0.5 * step * (values[1:] + values[:-1]), out=out[1:])
    return out


def _interp_integral(
    x0: float,
    step: float,
    values: np.ndarray,
    cum: np.ndarray,
    t: np.ndarray,
    extend: bool = False,
) -> np.ndarray:
    # Exact integral from the grid start to t of the piecewise-linear
    # interpolant of ``values``.  Outside the grid the integrand is taken
    # as zero (extend=False) or held at the edge value (extend=True; used
    # for cumulative integrands that saturate to a constant).
    n = values.shape[0]
    top = x0 + (n - 1) * step
    tc = np.clip(t, x0, top)
    pos = (tc - x0) / step
    i = np.minimum(pos.astype(np.int64), n - 2)
    frac = tc - (x0 + i * step)
    vt = values[i] + (values[i + 1] - values[i]) * (frac / step)
    out = cum[i] + 0.5 * frac * (values[i] + vt)
    if extend:
        out = out + np.where(t > top, (t - top) * values[-1], 0.0)
        out = out + np.where(t < x0, (t - x0) * values[0], 0.0)
    return out


class _DiagonalTables:
    """Shared tabulations for one (params, L) pair."""

    def __init__(self, params: LtftParams, sample_rate: float) -> None:
        g = params.gamma
        self.params = params
        self.sample_rate = sample_rate
        u_lo = -(g * sample_rate / params.b1 + params.xi) - _GRID_MARGIN
        u_hi = g * sample_rate / params.b0 + _GRID_MARGIN
        n = int(np.ceil((u_hi - u_lo) / _GRID_STEP)) + 1
        self.x0 = u_lo
        self.step = _GRID_STEP
        u = u_lo + self.step * np.arange(n)
        self.g2 = params.window.freq(u) ** 2
        self.cum_g2 = _cumulative(self.step, self.g2)
        self.cum_g3 = _cumulative(self.step, self.cum_g2)
        # The wavelet-band integrand does not depend on omega: tabulate it and
        # its running integral once for all fold shifts.
        self.qgrid, self.integrand = self.wavelet_integrand()
        self.cum_integrand = _cumulative(self.step, self.integrand)

    def power_integral(self, t: np.ndarray) -> np.ndarray:
        # G2(t): integral of |w_hat|^2 up to t; constant (= total power)
        # beyond the tabulated range.
        return _interp_integral(self.x0, self.step, self.g2, self.cum_g2, t)

    def double_integral(self, t: np.ndarray) -> np.ndarray:
        # G3(t): integral of G2 up to t; grows linearly beyond the range
        # because G2 saturates, hence the extension.
        return _interp_integral(
            self.x0, self.step, self.cum_g2, self.cum_g3, t, extend=True
        )

    def wavelet_integral(self, t: np.ndarray) -> np.ndarray:
        # Integral of P1(q)/q from the first positive grid node up to t.
        return _interp_integral(
            self.qgrid[0], self.step, self.integrand, self.cum_integrand, t
        )

    def wavelet_integrand(self):
        """Tabulated P1(q)/q on the positive part of the grid."""
        g = self.params.gamma
        xi = self.params.xi
        first = int(np.ceil((self.step - self.x0) / self.step))
        q = self.x0 + self.step * np.arange(first, self.g2.shape[0])
        p1 = (g / xi) * (
            self.power_integral(q - g) - self.power_integral(q - g - xi)
        )
        return q, np.maximum(p1, 0.0) / q


def _components_at(
    tables: _DiagonalTables, params: LtftParams, sample_rate: float, omega: np.ndarray
):
    g = params.gamma
    xi = params.xi

    def band_term(v: np.ndarray) -> np.ndarray:
        return (
            tables.double_integral(v)
            - tables.double_integral(v - g)
            - tables.double_integral(v - xi)
            + tables.double_integral(v - g - xi)
        ) / xi

    q0 = band_term(g * omega / params.b0)
    w_hi = (g / params.b1) * (omega - params.b1)
    w_lo = (g / params.b1) * (omega - sample_rate)
    q2 = (
        tables.double_integral(w_hi)
        - tables.double_integral(w_hi - xi)
        - tables.double_integral(w_lo)
        + tables.double_integral(w_lo - xi)
    ) / xi

    upper = tables.wavelet_integral(g * omega / params.b0)
    lower = tables.wavelet_integral(g * omega / params.b1)
    return q0, upper - lower, q2


def frame_diagonal(
    params: LtftParams, sample_rate: float, m: int, folded: bool = False
) -> FrameDiagonal:
    """Closed-form diagonal on the M-point frequency grid.

    Band integrals are exact integrals of tabulated interpolants; the
    wavelet-band term is a running integral whose two endpoints move by a
    constant amount per bin.

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
    tables = _DiagonalTables(params, sample_rate)
    omega = np.arange(m) * (sample_rate / m)
    shifts = (-sample_rate, 0.0, sample_rate) if folded else (0.0,)
    q0 = np.zeros(m)
    q1 = np.zeros(m)
    q2 = np.zeros(m)
    for shift in shifts:
        p0, p1, p2 = _components_at(tables, params, sample_rate, omega + shift)
        q0 += p0
        q1 += p1
        q2 += p2
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
