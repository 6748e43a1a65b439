"""Digital signals, transform atoms, and the sampled atom operator.

The transform decomposes a signal against a three-parameter atom family
indexed by (time a, frequency b, oscillation c).  Atoms are short-time
Fourier atoms below b0 and above b1 and wavelet atoms in between, with the
oscillation axis scaling the wavelet's cycle count from gamma to
gamma + xi.

The sampled operator evaluates the atom at each of N points of a sample
set on the signal grid, in dense blocks of atoms with nearby support
lengths.  The atoms are ordered by support length and then by first
sample, and cut into consecutive blocks of a bounded number of
atom-samples whose longest support is at most 5/4 of their shortest;
each row is padded to the block's longest support.  So a small call runs
in a few full blocks, and the operator's working memory is bounded
whatever N and M are.  The plan is a few linear passes: both orders (by
length, and each block's rows by first sample) come from stable argsorts
on narrow unsigned keys, which numpy runs as radix sorts when a key fits
16 bits, and no block is sorted on its own.  Analysis and synthesis are
the operator's two directions: analysis takes the inner product of the
signal with every block, and synthesis sums each block, scaled by its
coefficients and the cubature weight volume(box)/N, over its own index
span and adds the block sums in block order, into an accumulator over
the span the blocks reach.  The blocks of one call run in the calling
thread, on arrays that each thread keeps for its next block; the pipelines
in :mod:`ltft.processing` run tiles of points on a thread pool, and call
these block loops once per tile.

Plain reconstruction synthesizes the atoms it analysed, on the same grid,
so a private round trip does both in one pass: each block is built once,
its coefficients are taken, and the same block, scaled by them, is summed
while it is in hand.  It shares the block sum and the block-order
accumulation with synthesis and gives the same bits as analysis followed
by synthesis.  A coefficient transform needs every coefficient before
synthesis starts, and synthesis at a time dilation uses other atoms, so
those pipelines keep the two passes.

The block kernel takes no transcendental per sample and makes no serial
scan.  A block is sample-major, (length, rows), so each step is one
contiguous vector operation over every atom in it.  On the samples
t_k = (m0 + k)/L of an atom centred at a, t_k - a = t0 + k/L with
t0 = m0/L - a, so the phase exp(2 pi i f (t_k - a)) is exp(2 pi i f t0)
times the k-th power of z = exp(2 pi i f / L).  Row 0 holds the atom's
amplitude times exp(2 pi i f t0), and rows [h, 2h) are rows [0, h) times
z^h, with z^h squared per atom: ceil(log2(length)) vector multiplies.  The
cos^4 window is (Re u)^4 on the same doubling ramp of
u_k = exp(i pi s (t_k - a)), squared twice, and a row's padding past its
own support is set to exactly 0.  Each atom's four unit phasors (first
phase, phase step, first window angle, window step) are the cos and sin of
one angle array.  Block indices address the grid inside a zero guard band
as wide as the plan's longest row on each side, relative to the block's
first sample; samples off the grid read zero in analysis and write only
into the guard band in synthesis, so neither direction masks or clips.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Iterable, List, NamedTuple, Optional, Tuple

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
# 1/sqrt(int cos^8) = sqrt(128/35).
_COS4_NORM = float(np.sqrt(128.0 / 35.0))

_TABLE_SAMPLES = 1 << 13  # midpoint samples of the window
_TABLE_SPACING = 1.0 / 256.0  # frequency grid step of the tabulated spectrum
_TABLE_RANGE = 96.0  # spectrum kept on [-range, range]
_COS4_TERMS = (1.0 / 16.0, 0.25, 0.375, 0.25, 1.0 / 16.0)  # cos^4(pi t) in exp(2 pi i j t), |j| <= 2


class WindowSpec:
    """The cos^4 window, with time and frequency evaluators.

    It is the transform's only window: one instance, ``LtftParams.window``,
    is shared by every parameter set, so its spectrum table is built once
    per process.  The time evaluator is closed form and vanishes outside
    (-1/2, 1/2); the zero-extension is twice continuously differentiable
    and has unit L2 norm.  The frequency evaluator interpolates linearly
    between nodes of the window's midpoint-rule DFT, which are closed-form
    Dirichlet-kernel sums computed on first use.
    """

    bandwidth = 3.0  # first spectral null at |nu| = 3

    def time(self, t) -> np.ndarray:
        """w(t), zero outside the open support (-1/2, 1/2)."""
        t = np.asarray(t, dtype=np.float64)
        inside = np.abs(t) < 0.5
        vals = np.cos(np.pi * t) ** 4 * _COS4_NORM
        return np.where(inside, vals, 0.0)

    @cached_property
    def _freq_table(self) -> Tuple[np.ndarray, np.ndarray]:
        # (1/k) sum_n w(t_n) exp(-2 pi i nu t_n) over the k midpoints t_n of
        # (-1/2, 1/2), accurate to rounding (the window is C^3 with vanishing
        # edge derivatives).  Term j of cos^4 sums to the Dirichlet kernel
        # D_k(nu - j), D_k(x) = sin(pi x) / (k sin(pi x / k)), D_k(0) = 1.
        k = _TABLE_SAMPLES
        last = int(_TABLE_RANGE / _TABLE_SPACING)
        freqs = np.arange(-last, last + 1) * _TABLE_SPACING
        # nu - round(nu) is exact on this grid, so sin(pi nu) is taken on
        # [-1/2, 1/2], where it is accurate; sin(pi (nu - j)) = (-1)^j sin(pi nu).
        turns = np.round(freqs)
        sin_nu = np.sin(np.pi * (freqs - turns)) * (1.0 - 2.0 * (turns % 2))
        table = np.zeros_like(freqs)
        for j, weight in zip(range(-2, 3), _COS4_TERMS):
            den = (-1) ** j * k * np.sin(np.pi * (freqs - j) / k)
            table += weight * np.divide(sin_nu, den, out=np.ones_like(den), where=freqs != j)
        return freqs, _COS4_NORM * table

    def freq(self, nu) -> np.ndarray:
        """Spectrum w_hat(nu) by linear interpolation of the tabulation."""
        grid, vals = self._freq_table
        return np.interp(np.asarray(nu, dtype=np.float64), grid, vals, left=0.0, right=0.0)


# ---------------------------------------------------------------------------
# Transform parameters and phase space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LtftParams:
    """Transition frequencies b0 < b1 and oscillation parameters.

    Every parameter set shares the one cos^4 window, ``window``.  gamma is
    the minimal wavelet cycle count and xi the oscillation range; atoms at
    oscillation coordinate c carry gamma + xi*c cycles.  Derived supports:
    S0 = gamma/b0 (maximal) and S1 = gamma/b1 (minimal).
    """

    window: ClassVar[WindowSpec] = WindowSpec()
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
        cos4 is the only window kind.
        """
        if not (0.0 < b0_frac < b1_frac <= 1.0):
            raise InvalidParameterError("need 0 < b0_frac < b1_frac <= 1")
        if window_kind != "cos4":
            raise InvalidParameterError(
                f"unknown window kind {window_kind!r}; supported: ['cos4']"
            )
        return cls(b0=b0_frac * sample_rate, b1=b1_frac * sample_rate, gamma=gamma, xi=xi)


@dataclass(frozen=True)
class PhaseSpaceBox:
    """Rectangular phase-space domain time x [0, freq_hi] x [0, 1]."""

    t_lo: float
    t_hi: float
    freq_hi: float

    def __post_init__(self) -> None:
        if not np.all(np.isfinite([self.t_lo, self.t_hi, self.freq_hi])):
            raise InvalidParameterError("box sides must be finite")
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
        # Per-column extremes (one strided pass each, far faster here than a
        # reduction over axis 0 of an (N, 3) array); min and max propagate NaN.
        lo = np.array([col.min() for col in self.points.T])
        hi = np.array([col.max() for col in self.points.T])
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise InvalidParameterError("sample points must be finite")
        eps = 1e-9 * max(1.0, abs(self.box.t_hi - self.box.t_lo))
        if (
            lo[0] < self.box.t_lo - eps
            or hi[0] > self.box.t_hi + eps
            or lo[1] < -1e-12
            or hi[1] > self.box.freq_hi * (1 + 1e-12)
            or lo[2] < -1e-12
            or hi[2] > 1 + 1e-12
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
    # Wavelet branch on b0 <= b < b1 (fixed boundary choice); the STFT
    # branches modulate at k * beff + b, the wavelet branch at (k + 1) * b.
    beff = np.clip(b, params.b0, params.b1)
    k = (params.xi / params.gamma) * c
    freq = k * beff
    freq += b
    wavelet = (b >= params.b0) & (b < params.b1)
    np.multiply(k + 1.0, b, out=freq, where=wavelet)
    return beff, freq


def _ramp(out: np.ndarray, first: np.ndarray, step: np.ndarray) -> np.ndarray:
    # out[k] = first * step**k for every row k of a (length, G) array, by
    # doubling: rows [h, 2h) are rows [0, h) times step**h, and step**h is
    # squared per atom while rows remain, so the ramp takes
    # ceil(log2(length)) multiplies and one squaring fewer.
    out[0] = first
    h, n = 1, out.shape[0]
    while h < n:
        np.multiply(out[: min(h, n - h)], step, out=out[h : 2 * h])
        h *= 2
        if h < n:
            step = step * step
    return out


def _unit_phasors(angles: np.ndarray, out: np.ndarray) -> np.ndarray:
    # exp(i angles) into a complex array of the same shape, by one cos and one sin.
    np.cos(angles, out=out.real)
    np.sin(angles, out=out.imag)
    return out


def _atom_values(
    params: LtftParams,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    m_start: np.ndarray,
    own: np.ndarray,
    length: int,
    sample_rate: float,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    # Sample-major (length, G) block: atom g at (a, b, c)[g] sampled at
    # t = (m_start[g] + k)/L in row k < length, and zero from row own[g] on.
    # Four unit phasors per atom (first phase, phase step, first window
    # angle, window step) come from one cos and one sin of a (4, G) angle
    # array, written in place; the rows follow by doubling ramps.  The
    # block is written into `out` when given (a (length, G) complex array),
    # first as the window ramp and then as the phase ramp; the angles, the
    # phasors and the real window are this thread's scratch.
    g = a.shape[0]
    beff, freq = _branch_arrays(params, b, c)
    scale = beff / params.gamma
    t0 = m_start / sample_rate - a
    angles = _scratch("angles", (4, g), np.float64)
    np.multiply(2.0 * np.pi, freq, out=angles[0])
    angles[0] *= t0
    np.multiply(2.0 * np.pi / sample_rate, freq, out=angles[1])
    np.multiply(np.pi, scale, out=angles[2])
    angles[2] *= t0
    np.multiply(np.pi / sample_rate, scale, out=angles[3])
    first, step, window_first, window_step = _unit_phasors(
        angles, _scratch("phasors", (4, g), np.complex128)
    )
    first *= _COS4_NORM * np.sqrt(scale)
    atoms = np.empty((length, g), dtype=np.complex128) if out is None else out
    # The cos^4 window is (Re u)^4 on the ramp u_k = exp(i pi scale (t_k - a)).
    # Rows past an atom's own support, a block's padding, are set to 0.
    env = _scratch("window", (length, g), np.float64)
    np.square(_ramp(atoms, window_first, window_step).real, out=env)
    env *= env
    tail = int(own.min())
    if tail < length:
        env[tail:] *= np.arange(tail, length)[:, None] < own
    # The phase ramp, from the amplitude times the phase at k = 0, reuses the buffer.
    _ramp(atoms, first, step)
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
    # First and last grid sample of each atom's support [a - s/2, a + s/2],
    # s = gamma / clip(b, b0, b1) as in atom_support_length.  b is not
    # checked for sign: a SampleSet already holds it in [0, freq_hi].
    half = np.clip(b, params.b0, params.b1)
    np.divide(params.gamma, half, out=half)
    half *= 0.5
    edge = np.subtract(a, half)
    edge *= sample_rate
    m_start = np.ceil(edge, out=edge).astype(np.int64)
    np.add(a, half, out=edge)
    edge *= sample_rate
    m_end = np.floor(edge, out=edge).astype(np.int64)
    return m_start, m_end


def ltft_atom_time(
    params: LtftParams, a: float, b: float, c: float, like: DigitalSignal
) -> SparseAtom:
    """Sampled atom at (a, b, c) on the grid of ``like``, support only.

    Returns an empty atom when the support misses the grid entirely.
    """
    if b < 0:
        raise InvalidParameterError("frequency must be non-negative")
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
        np.asarray([hi - lo + 1]),
        hi - lo + 1,
        rate,
    )[:, 0]
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


# Atom blocks hold at most this many atom-samples (16 bytes each), so the
# operator's working memory does not grow with N or M.  Blocks of 2^14
# atom-samples and smaller ran slower on a thread pool.
_BLOCK_ATOM_SAMPLES = 1 << 16
# A block takes atoms up to this many times its shortest row's support, so
# small calls run in a few full blocks rather than many short ones; the
# padding costs a few per cent more atom-samples.
_PACK_RATIO = 1.25
# Per-thread scratch arrays up to this many elements are kept for the
# thread's next block; larger ones (a block of very long rows, or the sum of
# a block that spans a long grid) are made afresh each time.
_SCRATCH_KEEP = 1 << 18

_SCRATCH = threading.local()


def _scratch(name: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
    # An uninitialised array of the given shape on this thread's buffer
    # `name` (one dtype per name).  Block loops reuse these buffers rather
    # than allocate per block: freed arrays above glibc's 128 KiB mmap
    # threshold go back to the system and fault in again on the next block.
    # The array is valid until this thread next asks for `name`.
    size = math.prod(shape)
    buf = getattr(_SCRATCH, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(1 << max(size - 1, 0).bit_length(), dtype=dtype)
        if buf.size <= _SCRATCH_KEEP:
            setattr(_SCRATCH, name, buf)
    return buf[:size].reshape(shape)


class _AtomBlock(NamedTuple):
    # One block of the radix-ordered plan (see _atom_blocks).  The arrays are
    # slices of plan-wide int32 arrays when the values fit, and the longest
    # block length sets the zero guard band's width (see _guard).
    sel: np.ndarray  # sample indices, ordered by first sample
    start: np.ndarray  # first grid sample m of each atom
    own: np.ndarray  # each atom's own support sample count; rows pad past it with 0
    length: int  # row length: the longest support sample count in the block


def _narrow(key: np.ndarray) -> np.ndarray:
    # A non-negative integer key in the narrowest unsigned type that holds
    # it; numpy's stable sort is a radix sort for types of 16 bits or less.
    return key.astype(np.min_scalar_type(int(key.max(initial=0))))


def _index_type(low: int, high: int):
    # int32 for integers in [low, high] when they and their differences fit,
    # else int64.
    return np.int32 if -(1 << 30) <= low and high < 1 << 30 else np.int64


def _atom_blocks(
    params: LtftParams, samples: SampleSet, sample_rate: float
) -> Tuple[List[_AtomBlock], int]:
    # The sampled atom operator's plan.  Atoms are ordered by support sample
    # count and then by first sample, and cut into consecutive blocks: a block
    # ends before an atom longer than _PACK_RATIO times its shortest row, or
    # before it would exceed _BLOCK_ATOM_SAMPLES atom-samples with every row
    # padded to its longest.  Within a block the rows are ordered by first
    # sample, ties by support count and then by index.  The partition depends
    # on the samples alone, so the block order is the accumulation order.
    # Returns the blocks and their total atom-sample count, padding included.
    #
    # Both orders come from stable argsorts on narrow unsigned keys (least
    # significant key first), which numpy runs as radix sorts when the key
    # fits 16 bits; block ids are such a key too, so no block is sorted on
    # its own.  Indices, first samples and counts are stored as int32 when
    # they fit.
    m_start, m_end = _support_index_range(params, samples.a, samples.b, sample_rate)
    lengths = m_end - m_start + 1
    del m_end
    kept = None
    if lengths.min(initial=1) <= 0:  # supports shorter than one sample
        kept = np.flatnonzero(lengths > 0)
        m_start, lengths = m_start[kept], lengths[kept]
    if lengths.size == 0:
        return [], 0
    lo, hi = int(m_start.min()), int(m_start.max())
    start_key = _narrow(m_start - lo)
    m_start = m_start.astype(_index_type(lo, hi), copy=False)
    lengths = lengths.astype(_index_type(0, int(lengths.max())), copy=False)
    length_key = _narrow(lengths)
    # by_start: (first sample, count, index); order: (count, first sample, index).
    by_start = np.argsort(length_key, kind="stable")
    by_start = by_start[np.argsort(start_key[by_start], kind="stable")]
    del start_key
    order = by_start[np.argsort(length_key[by_start], kind="stable")]
    del length_key
    sorted_lengths = lengths[order]
    longest = int(sorted_lengths[-1])
    bounds = [0]
    while bounds[-1] < order.size:
        i = bounds[-1]
        shortest = int(sorted_lengths[i])
        # Candidates: atoms up to _PACK_RATIO times the shortest, and no more
        # of them than fit the budget at the shortest length.  The bound has
        # the lengths' own type, so the search does not cast the lengths.
        bound = sorted_lengths.dtype.type(min(int(_PACK_RATIO * shortest), longest))
        end = min(
            int(sorted_lengths.searchsorted(bound, side="right")),
            i + max(1, _BLOCK_ATOM_SAMPLES // shortest),
        )
        # Rows i..k-1, padded to the longest, sorted_lengths[k - 1], fit the budget.
        padded = np.arange(1, end - i + 1) * sorted_lengths[i:end]
        fit = int(np.searchsorted(padded, _BLOCK_ATOM_SAMPLES, side="right"))
        bounds.append(i + max(1, fit))
    block_lengths = [int(sorted_lengths[k - 1]) for k in bounds[1:]]
    del sorted_lengths
    # Each atom's block id, then the rows of every block by first sample.
    block_of = np.empty(order.size, dtype=np.min_scalar_type(len(block_lengths)))
    block_of[order] = np.repeat(np.arange(len(block_lengths)), np.diff(bounds))
    del order
    sel = by_start[np.argsort(block_of[by_start], kind="stable")]
    del by_start, block_of
    start, own = m_start[sel], lengths[sel]
    if kept is not None:
        sel = kept[sel]
    sel = sel.astype(_index_type(0, samples.n - 1), copy=False)
    blocks = [
        _AtomBlock(sel[i:k], start[i:k], own[i:k], length)
        for i, k, length in zip(bounds, bounds[1:], block_lengths)
    ]
    return blocks, sum(block.sel.size * block.length for block in blocks)


def _guard(blocks: List[_AtomBlock]) -> int:
    # Width of the zero guard band on each side of the grid: the longest row
    # (the last block's, as blocks are ordered by support count).
    return blocks[-1].length if blocks else 0


def _block_atoms(
    params: LtftParams,
    samples: SampleSet,
    sample_rate: float,
    grid_len: int,
    guard: int,
    block: _AtomBlock,
) -> Tuple[int, np.ndarray, np.ndarray]:
    # One block's storage indices and atom values.  Storage is the grid with
    # a zero guard band of `guard` >= _guard(blocks) cells on each side, so
    # grid sample m is at m + grid_len // 2 + guard.  Returns the storage
    # index lo of the block's first sample, the block-relative indices j
    # (lo + j is a row's storage span) and the atom values, each row padded
    # to the block's length; j and the atoms are (rows, length) views of
    # sample-major arrays on this thread's scratch.  Rows are ordered by
    # first sample, so j[0, 0] = 0 and j[-1, -1] is the largest.  An atom
    # wholly off the grid gets the indices of the guard cells next to the
    # grid end it lies past (a clip of the block's first samples, not of its
    # indices), so no index leaves the storage and every on-grid index is
    # exact; its reads are zeros and its writes are cropped, as for every
    # off-grid sample.
    first = _clipped_starts(block, grid_len)
    shape = (block.length, block.sel.size)
    j = np.add(np.arange(block.length)[:, None], first - first[0],
               out=_scratch("index", shape, np.intp))
    pts = np.take(samples.points, block.sel, axis=0, mode="wrap",
                  out=_scratch("points", (block.sel.size, 3), np.float64))
    atoms = _atom_values(
        params, pts[:, 0], pts[:, 1], pts[:, 2], block.start, block.own, block.length,
        sample_rate, out=_scratch("atoms", shape, np.complex128),
    )
    return int(first[0]) + grid_len // 2 + guard, j.T, atoms.T


def _clipped_starts(block: _AtomBlock, grid_len: int) -> np.ndarray:
    # The block's first samples, clipped to [-M/2 - length, M/2] when an
    # atom lies wholly off the grid (see _block_atoms).
    half = grid_len // 2
    first = block.start
    if first[0] < -half - block.length or first[-1] > half:
        first = np.clip(first, -half - block.length, half)
    return first


def _max_support_samples(params: LtftParams, sample_rate: float) -> int:
    # A bound on every atom's support sample count: at most S0 * L plus one,
    # and one more for the rounding of the support's ends.
    return int(np.ceil(params.s0 * sample_rate)) + 2


def _predicted_atom_samples(params: LtftParams, sample_rate: float, n: int) -> float:
    # A = gamma N (1 + ln(b1/b0) + (L - b1)/b1): N times the mean support
    # sample count L * S(b) of an atom with b uniform on [0, L].
    return (
        params.gamma * n
        * (1.0 + math.log(params.b1 / params.b0) + (sample_rate - params.b1) / params.b1)
    )


def _analysis_input(signal: DigitalSignal, guard: int) -> np.ndarray:
    # The analysis signal with a zero guard band of `guard` cells on each side.
    sig = np.zeros(signal.m + 2 * guard, dtype=np.complex128)
    sig[guard : guard + signal.m] = signal.samples
    return sig


def _check_box_rate(signal: DigitalSignal, samples: SampleSet) -> None:
    if samples.box.freq_hi > signal.sample_rate * (1 + 1e-12):
        raise InvalidParameterError("box frequency side exceeds the signal rate")


def _block_coeffs(
    sig: np.ndarray, lo: int, j: np.ndarray, atoms: np.ndarray, sample_rate: float
) -> np.ndarray:
    # One block's analysis coefficients, on this thread's scratch; vecdot
    # conjugates its first argument.  The gather wraps rather than checks
    # each index (np.take buffers its output when it checks), so the
    # block's extreme indices, its first and its last, are checked here.
    if lo < 0 or lo + int(j[-1, -1]) >= sig.size:
        raise IndexError("atom block reaches past the analysis guard band")
    gathered = np.take(sig[lo:], j.T, mode="wrap",
                       out=_scratch("gathered", j.T.shape, np.complex128)).T
    values = np.vecdot(atoms, gathered, axis=1,
                       out=_scratch("coeffs", (j.shape[0],), np.complex128))
    return np.divide(values, sample_rate, out=values)


def _block_sum(
    lo: int, j: np.ndarray, atoms: np.ndarray, scaled: np.ndarray
) -> Tuple[int, np.ndarray]:
    # One block's atoms times their scaled coefficients, summed over the
    # block's own storage span from lo on by one unbuffered add in
    # sample-major order, on this thread's scratch.  Scales atoms in place.
    atoms *= scaled[:, None]
    part = _scratch("part", (int(j[-1, -1]) + 1,), np.complex128)
    part.fill(0.0)
    np.add.at(part, j.T.ravel(), atoms.T.ravel())
    return lo, part


def _sum_blocks(
    sums: Iterable[Tuple[int, np.ndarray]],
    blocks: List[_AtomBlock],
    grid_len: int,
    guard: int,
) -> Tuple[int, np.ndarray]:
    # Adds the block sums, made one at a time in this thread, in block order
    # into an accumulator over the blocks' storage span, and crops it to the
    # grid: returns the grid index of the sum's first sample and the sum.
    # The accumulator spans only what the blocks reach, so a tile of points
    # whose times lie in a slab sums over that slab, not over the grid.
    if not blocks:
        return 0, np.zeros(0, dtype=np.complex128)
    base = grid_len // 2 + guard
    firsts = [_clipped_starts(block, grid_len) for block in blocks]
    start = min(int(first[0]) for first in firsts) + base
    stop = max(int(first[-1]) + block.length for first, block in zip(firsts, blocks)) + base
    acc = np.zeros(stop - start, dtype=np.complex128)
    for lo, part in sums:
        acc[lo - start : lo - start + part.size] += part
    lo, hi = max(start, guard), min(stop, guard + grid_len)
    return lo - guard, acc[lo - start : max(hi, lo) - start]


def _placed(sums: Iterable[Tuple[int, np.ndarray]], out_len: int, sample_rate: float) -> DigitalSignal:
    # Adds (grid index, sum) pairs in order into an out_len signal.
    out = np.zeros(out_len, dtype=np.complex128)
    for lo, part in sums:
        out[lo : lo + part.size] += part
    return DigitalSignal(out, sample_rate)


def _tile_coeffs(
    sig: np.ndarray, guard: int, samples: SampleSet, params: LtftParams, grid_len: int,
    sample_rate: float,
) -> np.ndarray:
    # Analysis coefficients of every sample against the padded input `sig`
    # (guard band of `guard` cells, see _analysis_input), block by block in
    # this thread.
    out = np.zeros(samples.n, dtype=np.complex128)
    for block in _atom_blocks(params, samples, sample_rate)[0]:
        lo, j, atoms = _block_atoms(params, samples, sample_rate, grid_len, guard, block)
        out[block.sel] = _block_coeffs(sig, lo, j, atoms, sample_rate)
    return out


def _synthesis_sum(
    scaled: np.ndarray, samples: SampleSet, params: LtftParams, out_len: int,
    sample_rate: float,
) -> Tuple[int, np.ndarray]:
    # sum_n scaled_n * atom_n on the out_len grid, block by block in this
    # thread, as (grid index, sum) over the span the atoms reach.
    blocks = _atom_blocks(params, samples, sample_rate)[0]
    guard = _guard(blocks)

    def sums():
        for block in blocks:
            lo, j, atoms = _block_atoms(params, samples, sample_rate, out_len, guard, block)
            yield _block_sum(lo, j, atoms, np.take(scaled, block.sel))

    return _sum_blocks(sums(), blocks, out_len, guard)


def _round_trip_sum(
    sig: np.ndarray, guard: int, samples: SampleSet, params: LtftParams, grid_len: int,
    sample_rate: float, weight: float,
) -> Tuple[int, np.ndarray]:
    # _synthesis_sum(weight * _tile_coeffs(...)) bit for bit, with each atom
    # block built once: its coefficients are taken and the same block,
    # scaled by them, is summed while it is in hand.
    blocks = _atom_blocks(params, samples, sample_rate)[0]

    def sums():
        for block in blocks:
            lo, j, atoms = _block_atoms(params, samples, sample_rate, grid_len, guard, block)
            coeffs = _block_coeffs(sig, lo, j, atoms, sample_rate)
            yield _block_sum(lo, j, atoms, np.multiply(coeffs, weight, out=coeffs))

    return _sum_blocks(sums(), blocks, grid_len, guard)


def analyze(
    signal: DigitalSignal, samples: SampleSet, params: LtftParams
) -> CoefficientVector:
    """Transform coefficients <s, atom_n> at every sample point.

    Each value is the Riemann inner product dt * sum_m s(t_m) *
    conj(atom(t_m)) with dt = 1/L, restricted to the atom's support;
    atoms that miss the grid contribute zero.
    """
    _check_box_rate(signal, samples)
    rate = signal.sample_rate
    guard = _max_support_samples(params, rate)
    sig = _analysis_input(signal, guard)
    values = _tile_coeffs(sig, guard, samples, params, signal.m, rate)
    return CoefficientVector(values, weight=samples.box.volume / samples.n)


def synthesize(
    coeffs: CoefficientVector,
    samples: SampleSet,
    params: LtftParams,
    out_len: int,
    sample_rate: float,
) -> DigitalSignal:
    """Cubature synthesis: weight * sum_n F_n * atom_n on the output grid.

    The weight is coeffs.weight = volume(box)/N.  Each atom block is summed
    on its own and the block sums are added in block order (by support
    length), which depends on the samples alone, so the result is
    bit-identical across runs.
    """
    if coeffs.values.shape[0] != samples.n:
        raise InvalidParameterError("coefficients and samples must align")
    scaled = coeffs.weight * coeffs.values
    tile = _synthesis_sum(scaled, samples, params, out_len, sample_rate)
    return _placed([tile], out_len, sample_rate)


def _round_trip(
    signal: DigitalSignal, samples: SampleSet, params: LtftParams
) -> DigitalSignal:
    # synthesize(analyze(signal, samples, params), samples, params, M, L), bit
    # for bit, with each atom block built once.
    _check_box_rate(signal, samples)
    rate = signal.sample_rate
    guard = _max_support_samples(params, rate)
    sig = _analysis_input(signal, guard)
    weight = samples.box.volume / samples.n
    tile = _round_trip_sum(sig, guard, samples, params, signal.m, rate, weight)
    return _placed([tile], signal.m, rate)
