"""References the tests compare the library against, which no pipeline, CLI
command or benchmark calls: the window in time, one atom's spectrum, H by
quadrature, and the continuous-integral size of a wavelet grid."""

import math

import numpy as np

from ltft.baselines import DwtGridParams
from ltft.core import _COS4_NORM, LtftParams, _branch_arrays, _check_grid, _check_int
from ltft.errors import BudgetExceededError, InvalidParameterError
from ltft.frame import FrameDiagonal


def window_time(t) -> np.ndarray:
    """w(t), zero outside the open support (-1/2, 1/2)."""
    t = np.asarray(t, dtype=np.float64)
    inside = np.abs(t) < 0.5
    vals = np.cos(np.pi * t) ** 4 * _COS4_NORM
    return np.where(inside, vals, 0.0)


def ltft_atom_freq(params: LtftParams, b: float, c: float, freq_grid) -> np.ndarray:
    """Spectrum of the atom at (a=0, b, c) on the given frequency grid.

    Per branch: sqrt(gamma/beff) * w_hat((gamma/beff) * (omega - center))
    with center = (xi/gamma) c beff + b on the STFT branches and
    ((xi/gamma) c + 1) b on the wavelet branch.
    """
    if not 0 <= b < np.inf:
        raise InvalidParameterError("frequency must be finite and non-negative")
    if not -np.inf < c < np.inf:
        raise InvalidParameterError("oscillation must be finite")
    omega = np.asarray(freq_grid, dtype=np.float64)
    beff, center = _branch_arrays(
        params, np.asarray([b]), np.asarray([float(c)])
    )
    scale = params.gamma / beff[0]
    return np.sqrt(scale) * params.window.freq(scale * (omega - center[0])).astype(
        np.complex128
    )


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


def dwt_size_estimate(params: DwtGridParams) -> float:
    """Continuous-integral estimate of the grid size, H * (L - b0)."""
    h = (
        params.m
        * params.p
        / (params.sample_rate * math.log(params.r) * (params.gamma + 0.5))
    )
    return h * (params.sample_rate - params.b0)
