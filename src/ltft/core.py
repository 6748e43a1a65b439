"""Digital signals, transform atoms, and the sampled atom operator.

The transform decomposes a signal against a three-parameter atom family
indexed by (time a, frequency b, oscillation c).  Atoms are short-time
Fourier atoms below b0 and above b1 and wavelet atoms in between, with the
oscillation axis scaling the wavelet's cycle count from gamma to
gamma + xi.

The sampled operator evaluates the atom at each of N points of a sample
set on the signal grid, in dense blocks of atoms with equal support
length.  Analysis and synthesis are its two directions: analysis takes the
inner product of the signal with every block, and synthesis adds the
blocks back, scaled by their coefficients and the cubature weight
volume(box)/N.

The block kernel is factored so that complex exponentials are taken per
atom, not per sample.  On the samples t_k = (m0 + k)/L of an atom centred
at a, t_k - a = t0 + k/L with t0 = m0/L - a, so the phase
exp(2 pi i f (t_k - a)) is exp(2 pi i f t0) times the k-th power of
exp(2 pi i f / L), built by a running product along the row.  The cos^4
window is one real cosine per sample, squared twice.  Block indices address the grid with
one zero guard cell on each side; samples off the grid read zero in
analysis and write only into a guard cell in synthesis, so neither
direction masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .errors import InvalidParameterError

# ---------------------------------------------------------------------------
# Digital signals and the frequency grid
# ---------------------------------------------------------------------------


@dataclass
class DigitalSignal:
    """M complex samples at rate L over the symmetric interval [-M/2L, M/2L).

    Sample m lives at t_m = m/L for m = -M/2 .. M/2-1 (M even).
    """

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples)
        if self.samples.ndim != 1:
            raise InvalidParameterError("signal samples must be a 1D array")
        m = self.samples.shape[0]
        if m < 4 or m % 2 != 0:
            raise InvalidParameterError(f"signal length must be even and >= 4, got {m}")
        if not 0 < self.sample_rate < np.inf:
            raise InvalidParameterError("sample rate must be positive and finite")
        if not np.all(np.isfinite(self.samples)):
            raise InvalidParameterError("signal samples must be finite")

    @property
    def m(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        return self.m / self.sample_rate

    @property
    def times(self) -> np.ndarray:
        m = self.m
        return np.arange(-m // 2, m // 2) / self.sample_rate

    def norm(self) -> float:
        """Discrete L2 norm sqrt(dt * sum |s|^2) with dt = 1/L."""
        return float(
            np.sqrt(np.sum(np.abs(self.samples) ** 2) / self.sample_rate)
        )


def relative_error(result: DigitalSignal, reference: DigitalSignal) -> float:
    """Relative L2 distance between two signals on the same grid."""
    if result.m != reference.m or result.sample_rate != reference.sample_rate:
        raise InvalidParameterError("signals must share grid and rate")
    denom = np.linalg.norm(reference.samples)
    if denom == 0.0:
        return float(np.linalg.norm(result.samples))
    return float(np.linalg.norm(result.samples - reference.samples) / denom)


@dataclass
class Spectrum:
    """DFT bins on the frequency grid w_k = k L / M, k = 0 .. M-1."""

    bins: np.ndarray
    sample_rate: float

    @property
    def m(self) -> int:
        return self.bins.shape[0]

    @property
    def frequencies(self) -> np.ndarray:
        return np.arange(self.m) * (self.sample_rate / self.m)


def dft(signal: DigitalSignal) -> Spectrum:
    """X_k = dt * sum_m x_m exp(-2 pi i k m / M) with dt = 1/L.

    The Riemann weight dt makes the bins approximate the continuous Fourier
    transform of the underlying signal on [0, L).
    """
    x = np.fft.ifftshift(np.asarray(signal.samples, dtype=np.complex128))
    bins = np.fft.fft(x) / signal.sample_rate
    return Spectrum(bins, signal.sample_rate)


def idft(spectrum: Spectrum) -> DigitalSignal:
    """Exact inverse of :func:`dft` on the same grid."""
    x = np.fft.fftshift(np.fft.ifft(spectrum.bins)) * spectrum.sample_rate
    return DigitalSignal(x, spectrum.sample_rate)


def to_analytic(signal: DigitalSignal) -> DigitalSignal:
    """Analytic extension of a real signal: keep only non-negative bins.

    Bins 0 and M/2 stay, bins 0 < k < M/2 are doubled, bins above M/2 are
    zeroed.  The real part of the result recovers the input exactly.
    """
    if np.iscomplexobj(signal.samples) and np.any(signal.samples.imag != 0):
        raise InvalidParameterError("analytic conversion expects a real signal")
    spec = dft(DigitalSignal(signal.samples.real.astype(np.float64), signal.sample_rate))
    m = spec.m
    bins = spec.bins.copy()
    bins[m // 2 + 1 :] = 0.0
    bins[1 : m // 2] *= 2.0
    return idft(Spectrum(bins, signal.sample_rate))


def from_analytic(signal: DigitalSignal) -> DigitalSignal:
    """Real part of an analytic signal."""
    return DigitalSignal(np.real(signal.samples).astype(np.float64), signal.sample_rate)


# ---------------------------------------------------------------------------
# Window
# ---------------------------------------------------------------------------

# Raised-cosine power 4 on (-1/2, 1/2): unit-energy constant is
# 1/sqrt(int cos^8) = sqrt(128/35); first spectral null at |nu| = 3.
_WINDOW_KINDS = {
    "cos4": {
        "norm": float(np.sqrt(128.0 / 35.0)),
        "bandwidth": 3.0,
    },
}

_TABLE_SAMPLES = 1 << 13  # midpoint samples of the window
_TABLE_SPACING = 1.0 / 256.0  # frequency grid step of the tabulated spectrum
_TABLE_RANGE = 96.0  # spectrum kept on [-range, range]


class WindowSpec:
    """Compactly supported window with time and frequency evaluators.

    The time evaluator is closed form and vanishes outside (-1/2, 1/2); the
    zero-extension is twice continuously differentiable and has unit L2
    norm.  The frequency evaluator interpolates a dense DFT tabulation of
    the spectrum, computed once per instance.
    """

    def __init__(self, kind: str = "cos4") -> None:
        if kind not in _WINDOW_KINDS:
            raise InvalidParameterError(
                f"unknown window kind {kind!r}; supported: {sorted(_WINDOW_KINDS)}"
            )
        self.kind = kind
        self._norm = _WINDOW_KINDS[kind]["norm"]
        self.bandwidth = _WINDOW_KINDS[kind]["bandwidth"]

    def time(self, t) -> np.ndarray:
        """w(t), zero outside the open support (-1/2, 1/2)."""
        t = np.asarray(t, dtype=np.float64)
        inside = np.abs(t) < 0.5
        vals = np.cos(np.pi * t) ** 4 * self._norm
        return np.where(inside, vals, 0.0)

    @cached_property
    def _freq_table(self) -> Tuple[np.ndarray, np.ndarray]:
        # Dense DFT of midpoint samples; the window is C^3 with vanishing
        # edge derivatives, so the midpoint rule is accurate to rounding.
        k = _TABLE_SAMPLES
        pad = int(round(k / _TABLE_SPACING))
        t0 = 0.5 / k - 0.5
        y = self.time((np.arange(k) + 0.5) / k - 0.5)
        # Only the bins with |frequency| <= range are kept: signed bin
        # numbers in ascending order, with fftfreq's step.
        step = 1.0 / (pad * (1.0 / k))
        last = int(_TABLE_RANGE / step)
        bins = np.arange(-last, last + 1)
        freqs = bins * step
        # The first sample sits at t0, not 0; shift the transform phase.
        table = np.fft.fft(y, n=pad)[bins % pad] * np.exp(-2j * np.pi * freqs * t0) / k
        return freqs, np.real(table)

    def freq(self, nu) -> np.ndarray:
        """Spectrum w_hat(nu) by linear interpolation of the tabulation."""
        grid, vals = self._freq_table
        return np.interp(np.asarray(nu, dtype=np.float64), grid, vals, left=0.0, right=0.0)


def make_window(kind: str = "cos4") -> WindowSpec:
    """Construct a supported window; unknown kinds raise invalid-parameter."""
    return WindowSpec(kind)


# ---------------------------------------------------------------------------
# Transform parameters and phase space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LtftParams:
    """Window, transition frequencies b0 < b1, and oscillation parameters.

    gamma is the minimal wavelet cycle count and xi the oscillation range;
    atoms at oscillation coordinate c carry gamma + xi*c cycles.  Derived
    supports: S0 = gamma/b0 (maximal) and S1 = gamma/b1 (minimal).
    """

    window: WindowSpec
    b0: float
    b1: float
    gamma: float = 6.0
    xi: float = 6.0

    def __post_init__(self) -> None:
        if not (0.0 < self.b0 < self.b1 < np.inf):
            raise InvalidParameterError("need 0 < b0 < b1 < inf")
        if not (0 < self.gamma < np.inf and 0 < self.xi < np.inf):
            raise InvalidParameterError("gamma and xi must be positive and finite")

    @property
    def s0(self) -> float:
        return self.gamma / self.b0

    @property
    def s1(self) -> float:
        return self.gamma / self.b1

    @classmethod
    def for_rate(
        cls,
        sample_rate: float,
        b0_frac: float = 0.1,
        b1_frac: float = 0.4,
        gamma: float = 6.0,
        xi: float = 6.0,
        window_kind: str = "cos4",
    ) -> "LtftParams":
        """Bind transitions to a sample rate: b0 = C1*L, b1 = C2*L.

        Defaults C1 = 0.1, C2 = 0.4 keep b1 at or below the Nyquist band of
        the analytic signal while leaving wavelet atoms well resolved.
        """
        if not (0.0 < b0_frac < b1_frac <= 1.0):
            raise InvalidParameterError("need 0 < b0_frac < b1_frac <= 1")
        return cls(
            window=make_window(window_kind),
            b0=b0_frac * sample_rate,
            b1=b1_frac * sample_rate,
            gamma=gamma,
            xi=xi,
        )


@dataclass(frozen=True)
class PhaseSpaceBox:
    """Rectangular phase-space domain time x [0, freq_hi] x [0, 1]."""

    t_lo: float
    t_hi: float
    freq_hi: float

    def __post_init__(self) -> None:
        if not self.t_lo < self.t_hi:
            raise InvalidParameterError("need t_lo < t_hi")
        if not self.freq_hi > 0:
            raise InvalidParameterError("need freq_hi > 0")

    @property
    def volume(self) -> float:
        return (self.t_hi - self.t_lo) * self.freq_hi

    @classmethod
    def for_signal(
        cls,
        signal: DigitalSignal,
        params: Optional[LtftParams] = None,
        padded: bool = False,
    ) -> "PhaseSpaceBox":
        """Box [-M/2L, M/2L] x [0, L] x [0, 1] for a signal.

        With ``padded`` the time side grows by the maximal atom support S0
        on each end so edge-touching atoms are represented; default off.
        """
        half = signal.m / (2.0 * signal.sample_rate)
        pad = 0.0
        if padded:
            if params is None:
                raise InvalidParameterError("padding requires params (for S0)")
            pad = params.s0
        return cls(t_lo=-half - pad, t_hi=half + pad, freq_hi=signal.sample_rate)

    def scaled(self, time_factor: float) -> "PhaseSpaceBox":
        return PhaseSpaceBox(
            t_lo=self.t_lo * time_factor,
            t_hi=self.t_hi * time_factor,
            freq_hi=self.freq_hi,
        )

    def unit_coords(self, coords: np.ndarray) -> np.ndarray:
        """Inverse of the affine box map, onto [0, 1]^d (d = 2 or 3)."""
        coords = np.atleast_2d(coords)
        out = np.empty_like(coords, dtype=np.float64)
        out[:, 0] = (coords[:, 0] - self.t_lo) / (self.t_hi - self.t_lo)
        out[:, 1] = coords[:, 1] / self.freq_hi
        if coords.shape[1] == 3:
            out[:, 2] = coords[:, 2]
        return out


@dataclass
class SampleSet:
    """N phase-space points (a, b, c) inside a box, with provenance."""

    points: np.ndarray  # (N, 3): time, frequency, oscillation
    box: PhaseSpaceBox
    generator: str
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        self.points = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise InvalidParameterError("sample points must form an (N, 3) array")
        if self.points.shape[0] < 1:
            raise InvalidParameterError("sample set must contain at least one point")
        a, b, c = self.points.T
        eps = 1e-9 * max(1.0, abs(self.box.t_hi - self.box.t_lo))
        if (
            np.any(a < self.box.t_lo - eps)
            or np.any(a > self.box.t_hi + eps)
            or np.any(b < -1e-12)
            or np.any(b > self.box.freq_hi * (1 + 1e-12))
            or np.any(c < -1e-12)
            or np.any(c > 1 + 1e-12)
        ):
            raise InvalidParameterError("sample points must lie inside the box")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def a(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def b(self) -> np.ndarray:
        return self.points[:, 1]

    @property
    def c(self) -> np.ndarray:
        return self.points[:, 2]

    def with_dilated_times(self, factor: float) -> "SampleSet":
        """Same points with time coordinates scaled; box follows."""
        pts = self.points.copy()
        pts[:, 0] = pts[:, 0] * factor
        return SampleSet(
            pts, box=self.box.scaled(factor), generator=self.generator, seed=self.seed
        )


@dataclass
class CoefficientVector:
    """Transform values aligned index-for-index with a sample set."""

    values: np.ndarray
    weight: float  # volume(box) / N

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim != 1:
            raise InvalidParameterError("coefficient values must be a 1D array")
        if not self.weight > 0:
            raise InvalidParameterError("cubature weight must be positive")


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------


def atom_support_length(params: LtftParams, b) -> np.ndarray:
    """Time-support length of the atom at frequency b.

    gamma/b0 for b <= b0, gamma/b in the wavelet band, gamma/b1 for
    b >= b1; continuous across both transitions.
    """
    b = np.asarray(b, dtype=np.float64)
    if np.any(b < 0):
        raise InvalidParameterError("frequency must be non-negative")
    mid = np.clip(b, params.b0, params.b1)
    return params.gamma / mid


def _branch_arrays(params: LtftParams, b: np.ndarray, c: np.ndarray):
    # Effective dilation frequency and modulation frequency per branch.
    # Wavelet branch on b0 <= b < b1 (fixed boundary choice).
    low = b < params.b0
    high = b >= params.b1
    beff = np.where(low, params.b0, np.where(high, params.b1, b))
    k = (params.xi / params.gamma) * c
    freq = np.where(low, k * params.b0 + b, np.where(high, k * params.b1 + b, (k + 1.0) * b))
    return beff, freq


def _atom_values(
    params: LtftParams,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    m_start: np.ndarray,
    length: int,
    sample_rate: float,
) -> np.ndarray:
    # (G, length) block: atom g at (a, b, c)[g] sampled at t = (m_start[g] + k)/L
    # for k < length.  Per row, the phase at k = 0 and the per-sample rotation
    # are computed once; a running product spreads them along the row.
    beff, freq = _branch_arrays(params, b, c)
    scale = beff / params.gamma
    t0 = m_start / sample_rate - a
    atoms = np.empty((a.shape[0], length), dtype=np.complex128)
    atoms[:, 0] = np.exp(2j * np.pi * freq * t0)
    atoms[:, 1:] = np.exp(2j * np.pi * freq / sample_rate)[:, None]
    np.cumprod(atoms, axis=1, out=atoms)
    # The cos^4 window (the only kind); the index range keeps |scale * t| <= 1/2,
    # so no mask is needed.
    env = np.arange(length) / sample_rate + t0[:, None]
    env *= (np.pi * scale)[:, None]
    np.cos(env, out=env)
    env *= env
    env *= env
    env *= (params.window._norm * np.sqrt(scale))[:, None]
    atoms *= env
    return atoms


@dataclass
class SparseAtom:
    """Sampled atom restricted to its support: storage offset + values."""

    start: int  # storage index of the first sample (0-based)
    values: np.ndarray

    @property
    def empty(self) -> bool:
        return self.values.size == 0

    def to_dense(self, m: int) -> np.ndarray:
        out = np.zeros(m, dtype=np.complex128)
        out[self.start : self.start + self.values.size] = self.values
        return out


def _support_index_range(
    params: LtftParams, a: np.ndarray, b: np.ndarray, sample_rate: float
):
    s = atom_support_length(params, b)
    m_start = np.ceil((a - 0.5 * s) * sample_rate).astype(np.int64)
    m_end = np.floor((a + 0.5 * s) * sample_rate).astype(np.int64)
    return m_start, m_end


def ltft_atom_time(
    params: LtftParams, a: float, b: float, c: float, like: DigitalSignal
) -> SparseAtom:
    """Sampled atom at (a, b, c) on the grid of ``like``, support only.

    Returns an empty atom when the support misses the grid entirely.
    """
    m = like.m
    rate = like.sample_rate
    m_start, m_end = _support_index_range(
        params, np.asarray([a]), np.asarray([b]), rate
    )
    lo = max(int(m_start[0]), -m // 2)
    hi = min(int(m_end[0]), m // 2 - 1)
    if lo > hi:
        return SparseAtom(start=0, values=np.zeros(0, dtype=np.complex128))
    vals = _atom_values(
        params,
        np.asarray([a], dtype=np.float64),
        np.asarray([b], dtype=np.float64),
        np.asarray([c], dtype=np.float64),
        np.asarray([lo]),
        hi - lo + 1,
        rate,
    )[0]
    return SparseAtom(start=lo + m // 2, values=vals)


def ltft_atom_freq(params: LtftParams, b: float, c: float, freq_grid) -> np.ndarray:
    """Spectrum of the atom at (a=0, b, c) on the given frequency grid.

    Per branch: sqrt(gamma/beff) * w_hat((gamma/beff) * (omega - center))
    with center = (xi/gamma) c beff + b on the STFT branches and
    ((xi/gamma) c + 1) b on the wavelet branch.
    """
    if b < 0:
        raise InvalidParameterError("frequency must be non-negative")
    omega = np.asarray(freq_grid, dtype=np.float64)
    beff, center = _branch_arrays(
        params, np.asarray([b]), np.asarray([float(c)])
    )
    scale = params.gamma / beff[0]
    return np.sqrt(scale) * params.window.freq(scale * (omega - center[0])).astype(
        np.complex128
    )


# ---------------------------------------------------------------------------
# Analysis and synthesis cubature
# ---------------------------------------------------------------------------


def _atom_blocks(
    params: LtftParams, samples: SampleSet, sample_rate: float, grid_len: int
):
    # The sampled atom operator: atoms grouped by support sample count, one
    # dense (group, length) block per group, in a fixed order.  Yields sample
    # indices, storage indices j into the grid padded by one zero guard cell
    # on each side (off-grid samples are clipped onto a guard cell), and the
    # atoms.
    offset = grid_len // 2 + 1  # storage index of grid sample m is m + offset
    m_start, m_end = _support_index_range(params, samples.a, samples.b, sample_rate)
    lengths = m_end - m_start + 1
    for length in np.unique(lengths[lengths > 0]):
        sel = np.nonzero(lengths == length)[0]
        start = m_start[sel]
        j = start[:, None] + np.arange(offset, offset + length)
        np.clip(j, 0, grid_len + 1, out=j)
        pts = samples.points[sel]
        atoms = _atom_values(
            params, pts[:, 0], pts[:, 1], pts[:, 2], start, int(length), sample_rate
        )
        yield sel, j, atoms


def analyze(
    signal: DigitalSignal, samples: SampleSet, params: LtftParams
) -> CoefficientVector:
    """Transform coefficients <s, atom_n> at every sample point.

    Each value is the Riemann inner product dt * sum_m s(t_m) *
    conj(atom(t_m)) with dt = 1/L, restricted to the atom's support;
    atoms that miss the grid contribute zero.
    """
    if samples.box.freq_hi > signal.sample_rate * (1 + 1e-12):
        raise InvalidParameterError("box frequency side exceeds the signal rate")
    m = signal.m
    rate = signal.sample_rate
    sig = np.zeros(m + 2, dtype=np.complex128)
    sig[1:-1] = signal.samples
    out = np.zeros(samples.n, dtype=np.complex128)
    for sel, j, atoms in _atom_blocks(params, samples, rate, m):
        # vecdot conjugates its first argument.
        out[sel] = np.vecdot(atoms, sig[j]) / rate
    return CoefficientVector(out, weight=samples.box.volume / samples.n)


def synthesize(
    coeffs: CoefficientVector,
    samples: SampleSet,
    params: LtftParams,
    out_len: int,
    sample_rate: float,
) -> DigitalSignal:
    """Cubature synthesis: weight * sum_n F_n * atom_n on the output grid.

    The weight is coeffs.weight = volume(box)/N.  Accumulation order is
    fixed (groups by support length, then flat index), so the result is
    bit-identical across runs.
    """
    if coeffs.values.shape[0] != samples.n:
        raise InvalidParameterError("coefficients and samples must align")
    padded_len = out_len + 2
    acc_re = np.zeros(padded_len, dtype=np.float64)
    acc_im = np.zeros(padded_len, dtype=np.float64)
    scaled = coeffs.weight * coeffs.values
    for sel, j, atoms in _atom_blocks(params, samples, sample_rate, out_len):
        atoms *= scaled[sel][:, None]
        j = j.ravel()
        acc_re += np.bincount(j, weights=atoms.real.ravel(), minlength=padded_len)
        acc_im += np.bincount(j, weights=atoms.imag.ravel(), minlength=padded_len)
    return DigitalSignal(acc_re[1:-1] + 1j * acc_im[1:-1], sample_rate)
