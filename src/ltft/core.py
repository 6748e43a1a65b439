"""Digital signals, transform atoms, and the sampled atom operator.

The transform decomposes a signal against a three-parameter atom family
indexed by (time a, frequency b, oscillation c).  Atoms are short-time
Fourier atoms below b0 and above b1 and wavelet atoms in between, with the
oscillation axis scaling the wavelet's cycle count from gamma to
gamma + xi.

The sampled operator evaluates the atom at each row (a, b, c) of an (n, 3)
array of phase-space points on the signal grid, in dense blocks of atoms
with nearby support lengths.  The atoms are ordered by support length and
then by first sample, and cut into consecutive blocks of a bounded number
of atom-samples whose longest support is at most 5/4 of their shortest;
each row is padded to the block's longest support.  So a small call runs
in a few full blocks, and the operator's working memory is bounded
whatever N and M are.  The plan is a few linear passes: both orders (by
length, and each block's rows by first sample) come from stable argsorts
on narrow unsigned keys, which numpy runs as radix sorts when a key fits
16 bits, and no block is sorted on its own.  Analysis and synthesis are
the operator's two directions: analysis takes the inner product of the
signal with every block, and synthesis scales each block by its
coefficients and adds it, one block after another in block order, straight
into one accumulator over the span the blocks reach, with one row per
segment of point indices a caller sums apart; the cubature weight
volume(box)/N scales the sum once.  The blocks of one call run in the
calling thread, on arrays that each thread keeps for its next block: three
block-sized buffers (the atoms, their grid indices and the gathered input)
and the block's points, 2.62 MiB at the default parameters.  The kernel's
per-atom angles, phasors and coefficients take rows of the index and gather
buffers while those are idle, and a block is planned at least four rows
long, so they always fit.
:mod:`ltft.processing` plans the pipelines' tiles and passes, and this
module runs a tile.  Every grid is at most ``_MAX_SIGNAL_SAMPLES`` long.

Both directions walk the blocks with one callback, which gives a block's
coefficients while its atoms are in hand: analysis gathers them into a
vector, synthesis scales the block by them.  A pipeline tile's callback
analyses the block and maps its coefficients by the optional per-point
rule.  At D = 1 the tile synthesizes the atoms it analysed, so each block
is built once; at D > 1 synthesis uses other atoms and reads the vector.

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
phase, phase step, first window angle, window step) come from the tangent
of half their angles, t = tan(theta/2): cos theta = 2/(1 + t^2) - 1 and
sin theta = t 2/(1 + t^2), one vectorised tan over one angle array.  Atoms
with no sample on the grid are not planned, and block indices are grid
indices: analysis reads the input inside a zero guard band on each side as
wide as the longest support any atom can have, and synthesis crops its
accumulator to the grid, so neither direction masks or clips.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, ClassVar, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import BudgetExceededError, InvalidParameterError

# ---------------------------------------------------------------------------
# Argument rules, digital signals and the frequency grid
# ---------------------------------------------------------------------------


def _check_int(name: str, value, least: int) -> int:
    # An integer argument of at least `least`: a Python or numpy integer,
    # not a bool or a float.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InvalidParameterError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _finite_real(value) -> bool:
    # A real number inside the float range: not NaN, an infinity, a complex
    # value or an integer past 2^1024, which math.isfinite cannot convert.
    try:
        return isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:
        return False


def _real(name: str, values) -> np.ndarray:
    # values as float64; a complex, object or string array is refused.
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        raise InvalidParameterError(f"{name} must be real numbers, got dtype {values.dtype}")
    return values.astype(np.float64, copy=False)


def _point_rows(name: str, points, dim: Optional[int] = None, rows: str = "N") -> np.ndarray:
    # A point array: N >= 1 rows of d >= 1 real values (d = dim when given).
    points = _real(name, points)
    if points.ndim != 2 or points.size == 0 or points.shape[1] != (dim or points.shape[1]):
        raise InvalidParameterError(f"{name} must be a non-empty ({rows}, {dim or 'd'}) array")
    return points


# The longest signal array a call makes: a grid, the analysis input with its
# guard band, or a dilated output of D*M samples (2^26 complex samples, 1 GiB).
_MAX_SIGNAL_SAMPLES = 1 << 26


def _check_rate(sample_rate) -> None:
    if not 0 < sample_rate < np.inf:
        raise InvalidParameterError("sample rate must be positive and finite")


def _check_grid(m, sample_rate) -> int:
    # A sampling grid: an even integer length M >= 4 of at most
    # _MAX_SIGNAL_SAMPLES, at a rate in (0, inf).
    m = _check_int("grid length", m, 4)
    if m % 2:
        raise InvalidParameterError(f"grid length must be even, got {m}")
    if m > _MAX_SIGNAL_SAMPLES:
        raise BudgetExceededError(f"a grid of {m} samples exceeds the budget")
    _check_rate(sample_rate)
    return m


@dataclass
class DigitalSignal:
    """M complex samples at rate L over the symmetric interval [-M/2L, M/2L).

    Sample m lives at t_m = m/L for m = -M/2 .. M/2-1 (M even).  Float and
    complex samples are kept as given, bool and integer ones become float64.
    """

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples)
        if self.samples.dtype.kind not in "fc":
            self.samples = _real("signal samples", self.samples)
        if self.samples.ndim != 1:
            raise InvalidParameterError("signal samples must be a 1D array")
        _check_grid(self.samples.shape[0], self.sample_rate)
        if not np.all(np.isfinite(self.samples)):
            raise InvalidParameterError("signal samples must be finite")

    @property
    def m(self) -> int:
        return self.samples.shape[0]


def relative_error(result: DigitalSignal, reference: DigitalSignal) -> float:
    """Relative L2 distance between two signals on the same grid.

    Against a zero reference it is the result's own L2 norm.  Signals
    peaking outside [2^-500, 2^500] are measured at a peak below 2 by one
    power-of-two scale, so no finite input overflows or underflows the
    squares; a distance past the float range is refused.
    """
    if result.m != reference.m or result.sample_rate != reference.sample_rate:
        raise InvalidParameterError("signals must share grid and rate")
    x, y = result.samples, reference.samples
    denom, below = _norm(y)
    if denom == 0.0:
        value, exponent = _norm(x)
    else:
        # The difference is taken at one scale for both, so it cannot overflow.
        scale = _unit_exponent(max(float(np.abs(x).max()), float(np.abs(y).max())))
        if scale:
            x, y = x * math.ldexp(1.0, -scale), y * math.ldexp(1.0, -scale)
        value, exponent = _norm(x - y)
        value, exponent = value / denom, exponent + scale - below
    try:
        return math.ldexp(value, exponent)
    except OverflowError:
        raise InvalidParameterError("the relative error exceeds the float range") from None


def _unit_exponent(peak: float) -> int:
    # 0 when a peak magnitude is 0 or lies in [2^-500, 2^500], else
    # floor(log2 peak) and at least -1022, so 2^-exponent scales the peak
    # exactly into [1, 2), or a subnormal one below 1.
    if peak == 0.0 or 2.0**-500 <= peak <= 2.0**500:
        return 0
    return math.frexp(max(peak, 2.0**-1022))[1] - 1


def _norm(x: np.ndarray) -> Tuple[float, int]:
    # (n, e) with the L2 norm n * 2^e, taken as sqrt(np.sum(|x|^2)) at the
    # scale of _unit_exponent, not by np.linalg.norm: past 10^4 terms its
    # BLAS dot wakes OpenBLAS's threads, whose spinning slows whatever runs
    # next on a host with few cores.
    mag = np.abs(x)
    exponent = _unit_exponent(float(mag.max()))
    if exponent:
        mag *= math.ldexp(1.0, -exponent)
    return math.sqrt(float(np.sum(np.square(mag, out=mag)))), exponent


@dataclass
class Spectrum:
    """DFT bins on the frequency grid w_k = k L / M, k = 0 .. M-1."""

    bins: np.ndarray
    sample_rate: float


def dft(signal: DigitalSignal) -> Spectrum:
    """X_k = dt * sum_m x_m exp(-2 pi i k m / M) with dt = 1/L.

    The Riemann weight dt makes the bins approximate the continuous Fourier
    transform of the underlying signal on [0, L).
    """
    x = np.fft.ifftshift(np.asarray(signal.samples, dtype=np.complex128))  # a new array
    np.fft.fft(x, out=x)
    x /= signal.sample_rate
    return Spectrum(x, signal.sample_rate)


def idft(spectrum: Spectrum) -> DigitalSignal:
    """Exact inverse of :func:`dft` on the same grid."""
    x = np.fft.fftshift(np.fft.ifft(spectrum.bins)) * spectrum.sample_rate
    return DigitalSignal(x, spectrum.sample_rate)


def to_analytic(signal: DigitalSignal) -> DigitalSignal:
    """Analytic extension of a real signal: keep only non-negative bins.

    Bins 0 and M/2 stay, bins 0 < k < M/2 are doubled, bins above M/2 are
    zeroed.  The real part recovers the input up to rounding.  An input
    peaking outside [2^-500, 2^500] is taken at a peak below 2 by an exact
    power-of-two scale, so no finite input overflows the bins; a result past
    the float range is refused.
    """
    a, u = _analytic_at_unit(signal)
    return a if u == 1.0 else DigitalSignal(_times(a.samples, u), a.sample_rate)


def _analytic_at_unit(signal: DigitalSignal) -> Tuple[DigitalSignal, float]:
    # (analytic extension of x/u, u) for a real signal x, with u = 2^e for the
    # _unit_exponent e of max |x|.
    if np.iscomplexobj(signal.samples) and np.any(signal.samples.imag != 0):
        raise InvalidParameterError("analytic conversion expects a real signal")
    x = signal.samples.real.astype(np.float64)
    exponent = _unit_exponent(max(float(x.max()), -float(x.min())))
    x *= math.ldexp(1.0, -exponent)
    spec = dft(DigitalSignal(x, signal.sample_rate))
    half = signal.m // 2
    bins = spec.bins.copy()  # in place, vocoder-cli's peak RSS rose 0.3 MiB (heap layout)
    bins[half + 1 :] = 0.0
    bins[1:half] *= 2.0
    return idft(Spectrum(bins, signal.sample_rate)), math.ldexp(1.0, exponent)


def _times(values: np.ndarray, factor: float) -> np.ndarray:
    # values * factor; a product past the float range is refused.
    try:
        with np.errstate(over="raise"):
            return values * factor
    except FloatingPointError:
        raise InvalidParameterError(f"a value times {factor:g} overflows float64") from None


def from_analytic(signal: DigitalSignal) -> DigitalSignal:
    """Real part of an analytic signal."""
    return DigitalSignal(np.real(signal.samples).astype(np.float64), signal.sample_rate)


# ---------------------------------------------------------------------------
# Window
# ---------------------------------------------------------------------------

# Raised-cosine power 4 on (-1/2, 1/2): unit-energy constant is
# 1/sqrt(int cos^8) = sqrt(128/35).
_COS4_NORM = float(np.sqrt(128.0 / 35.0))

_TABLE_SPACING = 1.0 / 256.0  # frequency grid step of the tabulated spectrum
_TABLE_RANGE = 96.0  # spectrum kept on [-range, range]
# cos^4(pi t) = 3/8 + cos(2 pi t)/2 + cos(4 pi t)/8, as weights of exp(2 pi i j t), |j| <= 2.
_COS4_TERMS = (1.0 / 16.0, 0.25, 0.375, 0.25, 1.0 / 16.0)
# This table's sinc terms, and the frame diagonal's integrals, are taken
# this many nodes at a time.  Their temporaries (64 KiB, 72 KiB for the
# widened sinc pass) stay below glibc's 128 KiB mmap threshold, so they
# reuse heap pages, where full-length ones (384 KiB) would each be mapped
# and faulted in afresh: the build then takes twice the page faults.
_TABLE_CHUNK = 8192


class WindowSpec:
    """The cos^4 window, with a frequency evaluator.

    It is the transform's only window: one instance, ``LtftParams.window``,
    is shared by every parameter set, so its spectrum table is built once
    per process.  The window vanishes outside (-1/2, 1/2); its zero-extension
    is twice continuously differentiable and has unit L2 norm.  The frequency
    evaluator interpolates linearly between nodes of the window's exact
    Fourier transform, closed-form sums of five sinc terms computed on first
    use; the interpolation is its only error, at most 1.08e-6.  The nodes lie
    on a 1/256 grid and the terms are whole units apart, so one sinc pass
    over the grid, widened by two units on each side, gives every term as a
    shifted slice.
    """

    @cached_property
    def _freq_table(self) -> Tuple[np.ndarray, np.ndarray]:
        # Term j of cos^4 transforms to sinc(nu - j) on (-1/2, 1/2).  On the
        # grid, nu_k - j is exactly node k - j * unit, so one sinc pass over
        # a chunk's nodes, two units wider on each side, gives all five terms
        # as shifted slices, summed in the order j = -2..2.  Each node's sum
        # is the same whichever chunk it falls in.
        last = int(_TABLE_RANGE / _TABLE_SPACING)
        unit = int(1.0 / _TABLE_SPACING)
        freqs = np.arange(-last, last + 1, dtype=np.float64)
        freqs *= _TABLE_SPACING
        table = np.zeros_like(freqs)
        for lo in range(0, freqs.size, _TABLE_CHUNK):
            sums = table[lo : lo + _TABLE_CHUNK]
            first = lo - last - 2 * unit
            wide = np.arange(first, first + sums.size + 4 * unit, dtype=np.float64)
            wide *= _TABLE_SPACING
            sinc = np.sinc(wide)
            for j, weight in zip(range(-2, 3), _COS4_TERMS):
                start = (2 - j) * unit
                sums += weight * sinc[start : start + sums.size]
        table *= _COS4_NORM
        return freqs, table

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
    the minimal wavelet cycle count and xi >= 1e-9 the oscillation range;
    atoms at oscillation coordinate c carry gamma + xi*c cycles.  Below that
    floor the frame diagonal loses digits as 1/xi.  The maximal atom
    support is S0 = gamma/b0.
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
        if self.xi < 1e-9:  # H divides differences of window integrals by xi
            raise InvalidParameterError(f"xi must be at least 1e-9, got {self.xi:g}")

    @property
    def s0(self) -> float:
        return self.gamma / self.b0

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
    """Rectangular phase-space domain time x [0, freq_hi] x [0, 1].

    The sides are kept as floats, and the volume must be positive and finite.
    """

    t_lo: float
    t_hi: float
    freq_hi: float

    def __post_init__(self) -> None:
        sides = {"t_lo": self.t_lo, "t_hi": self.t_hi, "freq_hi": self.freq_hi}
        if not all(map(_finite_real, sides.values())):
            raise InvalidParameterError("box sides must be finite real numbers")
        # Each side by its float value, so no box arithmetic mixes a numpy
        # integer with a Python integer past int64.
        for name, side in sides.items():
            object.__setattr__(self, name, float(side))
        if not self.t_lo < self.t_hi:
            raise InvalidParameterError("need t_lo < t_hi")
        if not self.freq_hi > 0:
            raise InvalidParameterError("need freq_hi > 0")
        if not 0.0 < self.volume < math.inf:
            raise InvalidParameterError("box volume must be positive and finite")

    @property
    def volume(self) -> float:
        return (self.t_hi - self.t_lo) * self.freq_hi

    @classmethod
    def for_signal(
        cls,
        signal: DigitalSignal,
        params: LtftParams,
        padded: bool = False,
    ) -> "PhaseSpaceBox":
        """Box [-M/2L, M/2L] x [0, L] x [0, 1] for a signal.

        With ``padded`` the time side grows by the maximal atom support S0
        on each end so edge-touching atoms are represented; default off.
        """
        half = signal.m / (2.0 * signal.sample_rate)
        pad = params.s0 if padded else 0.0
        return cls(t_lo=-half - pad, t_hi=half + pad, freq_hi=signal.sample_rate)


@dataclass
class SampleSet:
    """N phase-space points (a, b, c) inside a box, with provenance."""

    points: np.ndarray  # (N, 3): time, frequency, oscillation
    box: PhaseSpaceBox
    generator: str

    def __post_init__(self) -> None:
        self.points = _point_rows("sample points", self.points, 3)
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

    def with_dilated_times(self, factor: float) -> "SampleSet":
        """Same points with time coordinates scaled; box follows."""
        pts = self.points.copy()
        pts[:, 0] = pts[:, 0] * factor
        box = replace(self.box, t_lo=self.box.t_lo * factor, t_hi=self.box.t_hi * factor)
        return SampleSet(pts, box=box, generator=self.generator)


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


# A per-point coefficient rule, rule(values, a, b, c) -> values: each value
# mapped with its own point (a multiplier symbol, a shrinkage, a phase rule).
# It must be elementwise and pure, as it runs on any slice of the points,
# one analysis block at a time, on the pipelines' threads, and with numpy's
# overflow and invalid-value warnings off (see _tile_coeffs and _tile_sum).
Rule = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------


def atom_support_length(params: LtftParams, b) -> np.ndarray:
    """Time-support length of the atom at frequency b.

    gamma/b0 for b <= b0, gamma/b in the wavelet band, gamma/b1 for
    b >= b1; continuous across both transitions.  b must be finite.
    """
    b = _real("frequency", b)
    if not np.all((b >= 0) & (b < np.inf)):  # NaN too
        raise InvalidParameterError("frequency must be finite and non-negative")
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


def _unit_phasors(half_angles: np.ndarray, out: np.ndarray) -> np.ndarray:
    # exp(2i half_angles) into a complex array of the same shape, from one
    # tangent t = tan(half_angles): cos = 2/(1 + t^2) - 1, sin = t 2/(1 + t^2).
    # numpy's float64 tan is SIMD-dispatched: 2.5-2.7 ns per element on an
    # AVX-512 Xeon (numpy 2.4.6), against 10-29 ns for its scalar cos and
    # sin.  Both parts share the one rounded factor 2/(1 + t^2), so their
    # rounding errors move together.  The textbook cos = (1 - t^2)/(1 + t^2)
    # rounds apart from the sine; the phase step's error, which the doubling
    # ramp multiplies by the row length, then took 6000-sample atoms to 2.03
    # times the kernel's 1e-12 oracle bound, against 0.64 with the shared
    # factor.  The tangent and then the factor are written over the half
    # angles, so the factor takes no buffer of its own: a per-thread (4, G)
    # scratch array for it raised speech-reconstruct's peak RSS by 2-2.5 MiB.
    t = np.tan(half_angles, out=half_angles)
    out.imag = t
    factor = np.square(t, out=t)
    factor += 1.0
    np.divide(2.0, factor, out=factor)
    out.imag *= factor
    np.subtract(factor, 1.0, out=out.real)
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
    atoms: np.ndarray,
    env: np.ndarray,
    phasors: np.ndarray,
) -> np.ndarray:
    # Sample-major (length, G) block: atom g at (a, b, c)[g] sampled at
    # t = (m_start[g] + k)/L in row k < length, and zero from row own[g] on.
    # Four unit phasors per atom (first phase, phase step, first window
    # angle, window step) come from one tangent of a (4, G) array of half
    # angles, written in place; the rows follow by doubling ramps.  The
    # block is written into `atoms` (a (length, G) complex array), first as
    # the window ramp and then as the phase ramp.  `env`, a (max(length, 4),
    # G) float64 array, holds the half angles in its first four rows and
    # then the real window envelope in its first `length`; `phasors`, a
    # (4, G) complex array, the unit phasors.  Both are free again when this
    # returns.
    beff, freq = _branch_arrays(params, b, c)
    scale = beff / params.gamma
    t0 = m_start / sample_rate - a
    # Half of each angle, as _unit_phasors takes them.
    angles = env[:4]
    np.multiply(np.pi, freq, out=angles[0])
    angles[0] *= t0
    np.multiply(np.pi / sample_rate, freq, out=angles[1])
    np.multiply(0.5 * np.pi, scale, out=angles[2])
    angles[2] *= t0
    np.multiply(0.5 * np.pi / sample_rate, scale, out=angles[3])
    first, step, window_first, window_step = _unit_phasors(angles, phasors)
    first *= _COS4_NORM * np.sqrt(scale)
    # The cos^4 window is (Re u)^4 on the ramp u_k = exp(i pi scale (t_k - a)).
    # Rows past an atom's own support, a block's padding, are set to 0.
    env = np.square(_ramp(atoms, window_first, window_step).real, out=env[:length])
    env *= env
    tail = int(own.min())
    if tail < length:
        env[tail:] *= np.arange(tail, length)[:, None] < own
    # The phase ramp, from the amplitude times the phase at k = 0, reuses the buffer.
    _ramp(atoms, first, step)
    atoms *= env
    return atoms


def _support_index_range(
    params: LtftParams, a: np.ndarray, b: np.ndarray, sample_rate: float
):
    # First and last grid sample of each atom's support [a - s/2, a + s/2],
    # s = gamma / clip(b, b0, b1) as in atom_support_length.  b is not
    # checked for sign: the callers hold it in [0, freq_hi], the SampleSet
    # at the public boundary and lds.scale_rows in the pipelines.  The grid
    # and guard rules keep every edge of an atom with a grid sample within
    # +-2 _MAX_SIGNAL_SAMPLES, so edges are bounded there before the cast.
    bound = 2.0 * _MAX_SIGNAL_SAMPLES
    half = np.clip(b, params.b0, params.b1)
    np.divide(params.gamma, half, out=half)
    half *= 0.5
    edge = np.subtract(a, half)
    edge *= sample_rate
    np.clip(edge, -bound, bound, out=edge)
    m_start = np.ceil(edge, out=edge).astype(np.int64)
    np.add(a, half, out=edge)
    edge *= sample_rate
    np.clip(edge, -bound, bound, out=edge)
    m_end = np.floor(edge, out=edge).astype(np.int64)
    return m_start, m_end


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
# thread's next block; larger ones (a block of very long rows) are made
# afresh each time.
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
    # slices of plan-wide int32 arrays when the values fit.
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
    params: LtftParams, points: np.ndarray, sample_rate: float, grid_len: int
) -> List[_AtomBlock]:
    # The sampled atom operator's plan for the (n, 3) rows of `points` on the
    # grid [-M/2, M/2), M = grid_len.
    # Atoms with no sample on the grid (wholly past either end, or a support
    # shorter than one sample) are left out.  The others are ordered by
    # support sample count and then by first sample, and cut into consecutive
    # blocks: a block ends before an atom longer than _PACK_RATIO times its
    # shortest row, or before it would exceed _BLOCK_ATOM_SAMPLES atom-samples
    # with every row padded to its longest, and to at least 4 samples, so a
    # block holds at most _BLOCK_ATOM_SAMPLES // max(length, 4) atoms.  Within
    # a block the rows are ordered by first sample, ties by support count and
    # then by index.  The partition depends on the points and M alone, so the
    # block order is the accumulation order.
    #
    # Both orders come from stable argsorts on narrow unsigned keys (least
    # significant key first), which numpy runs as radix sorts when the key
    # fits 16 bits; block ids are such a key too, so no block is sorted on
    # its own.  Indices, first samples and counts are stored as int32 when
    # they fit.
    m_start, m_end = _support_index_range(params, points[:, 0], points[:, 1], sample_rate)
    lengths = m_end - m_start + 1
    half = grid_len // 2
    kept = None
    if lengths.min() <= 0 or m_end.min() < -half or m_start.max() >= half:
        kept = np.flatnonzero((lengths > 0) & (m_end >= -half) & (m_start < half))
        m_start, lengths = m_start[kept], lengths[kept]
    del m_end
    if lengths.size == 0:
        return []
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
            i + max(1, _BLOCK_ATOM_SAMPLES // max(shortest, 4)),
        )
        # Rows i..k-1, padded to the longest, sorted_lengths[k - 1], and to at
        # least the four rows of the kernel's angles and phasors (see
        # _block_atoms), fit the budget.
        padded = np.arange(1, end - i + 1) * np.maximum(sorted_lengths[i:end], 4)
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
    sel = sel.astype(_index_type(0, points.shape[0] - 1), copy=False)
    return [
        _AtomBlock(sel[i:k], start[i:k], own[i:k], length)
        for i, k, length in zip(bounds, bounds[1:], block_lengths)
    ]


def _block_atoms(
    params: LtftParams, points: np.ndarray, sample_rate: float, block: _AtomBlock
) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    # One block's grid indices, atom values and points.  Returns the grid
    # index lo of the block's first sample, the block-relative indices j
    # (lo + j is a row's span of grid samples, padding included), the atom
    # values, each row padded to the block's length, and the block's (rows,
    # 3) points for a rule (a gather per rule call faulted ~950 more pages in
    # a fresh `ltft vocoder -D 2` on a 2-vCPU Xeon), all on this thread's
    # scratch; j and the atoms are (rows, length) views of sample-major
    # arrays.  Rows are ordered by first sample, so j[0, 0] = 0 and
    # j[-1, -1] is the largest.
    # The kernel's per-atom values live in block buffers that are idle at
    # their step: the index buffer, viewed as float64, holds the half angles
    # in its first four rows, then the window envelope, then j; the gather
    # buffer of _block_coeffs holds the unit phasors in its first four rows
    # until the gather.  So a thread keeps the atoms, the index and the
    # gather buffers and the block's points (2.62 MiB at the defaults);
    # buffers of their own for the angles, the phasors and the coefficients
    # kept 0.88 MiB more.  Both shared buffers have at least four rows,
    # which _atom_blocks counts in the block's budget.
    length, g = block.length, block.sel.size
    index = _scratch("index", (max(length, 4), g), np.int64)
    gathered = _scratch("gathered", index.shape, np.complex128)
    pts = np.take(points, block.sel, axis=0, mode="wrap",
                  out=_scratch("points", (g, 3), np.float64))
    atoms = _atom_values(
        params, pts[:, 0], pts[:, 1], pts[:, 2], block.start, block.own, length,
        sample_rate, _scratch("atoms", (length, g), np.complex128), index.view(np.float64),
        gathered[:4],
    )
    j = np.add(np.arange(length)[:, None], block.start - block.start[0], out=index[:length])
    return int(block.start[0]), j.T, atoms.T, pts


def _predicted_atom_samples(params: LtftParams, sample_rate: float, n: int) -> float:
    # A = gamma N (1 + ln(b1/b0) + (L - b1)/b1): N times the mean support
    # sample count L * S(b) of an atom with b uniform on [0, L].
    return (
        params.gamma * n
        * (1.0 + math.log(params.b1 / params.b0) + (sample_rate - params.b1) / params.b1)
    )


def _guard_samples(params: LtftParams, sample_rate: float, m: float) -> int:
    # The zero guard band on each side of an m-sample analysis input: a bound
    # on every support sample count (S0 * L plus one, and one for the
    # rounding of the ends).  No run could use a band that takes the input
    # past _MAX_SIGNAL_SAMPLES (an infinite one too), so it is refused.
    guard = np.ceil(params.s0 * sample_rate) + 2.0
    if not m + 2.0 * guard <= _MAX_SIGNAL_SAMPLES:
        raise BudgetExceededError(f"a guard band of {guard:g} samples exceeds the budget")
    return int(guard)


def _analysis_input(signal: DigitalSignal, params: LtftParams) -> np.ndarray:
    # The conjugated analysis signal inside a zero guard band on each side,
    # so a planned atom's padded row stays inside.  M is even, so grid
    # sample 0 sits at the centre, index sig.size // 2.
    guard = _guard_samples(params, signal.sample_rate, signal.m)
    sig = np.zeros(signal.m + 2 * guard, dtype=np.complex128)
    np.conjugate(signal.samples, out=sig[guard : guard + signal.m])
    return sig


def _block_coeffs(
    sig: np.ndarray, lo: int, j: np.ndarray, atoms: np.ndarray, sample_rate: float
) -> np.ndarray:
    # One block's analysis coefficients against the conjugated input of
    # _analysis_input: conj(sum_k conj(s_k) atom_k) / L per atom.  The block
    # of input samples is gathered sample-major, multiplied by the atoms and
    # summed pairwise over its rows into row 0, each step one contiguous
    # vector operation over the block's atoms.  lo is a grid index.  The
    # gather wraps rather than checks each index (np.take buffers its output
    # when it checks), so the block's extreme indices, its first and its
    # last, are checked here.  The coefficients are a view of this thread's
    # gather buffer, valid until its next block.
    lo += sig.size // 2
    if lo < 0 or lo + int(j[-1, -1]) >= sig.size:
        raise IndexError("atom block reaches past the analysis guard band")
    terms = np.take(sig[lo:], j.T, mode="wrap",
                    out=_scratch("gathered", j.T.shape, np.complex128))
    terms *= atoms.T
    n = terms.shape[0]
    while n > 1:
        h = n // 2
        np.add(terms[:h], terms[n - h : n], out=terms[:h])
        n -= h
    values = np.conjugate(terms[0], out=terms[0])
    return np.divide(values, sample_rate, out=values)


def _tile_coeffs(
    points: np.ndarray, params: LtftParams, grid_len: int, sample_rate: float,
    coeffs: Callable[..., np.ndarray],
) -> np.ndarray:
    # coeffs(block, lo, j, atoms, pts), as _tile_sum takes it, for every
    # block of the rows of `points` on the grid_len grid, in this thread,
    # gathered into one vector aligned with the rows; atoms left out of the
    # plan give 0.  As in _tile_sum, the block loop runs with numpy's
    # overflow and invalid-value warnings off, and a vector that overflows
    # is refused once, after the loop.
    out = np.zeros(points.shape[0], dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _atom_blocks(params, points, sample_rate, grid_len):
            out[block.sel] = coeffs(block, *_block_atoms(params, points, sample_rate, block))
    if not np.isfinite(out).all():
        raise InvalidParameterError(
            "the analysis overflows float64: the signal's samples are too large"
        )
    return out


def _tile_sum(
    points: np.ndarray, params: LtftParams, grid_len: int, sample_rate: float,
    coeffs: Callable[..., np.ndarray], cuts: Sequence[int] = (),
) -> Tuple[int, np.ndarray]:
    # sum_n coeffs_n * atom_n over the rows n of `points` on the grid_len
    # grid, unweighted, block by block in this thread, in one row per
    # segment of point indices between the ascending `cuts` (row k from
    # cuts[k - 1], or 0, up to cuts[k], or the end).  coeffs(block, lo, j,
    # atoms, pts) gives a block's coefficients while its atoms and points
    # (see _block_atoms) are in hand; the block is scaled in place by them,
    # each atom's indices j are moved into its segment's row, and the block
    # is added, by one unbuffered add in sample-major order, straight into an
    # accumulator over the grid indices the blocks reach, in block order.
    # Returns the output index (M/2 plus the grid index) of the rows' first
    # sample and the rows, cropped to the grid: a tile of points in a time
    # slab sums over that slab, not the grid.  The block loop runs with
    # numpy's overflow and invalid-value warnings off, one errstate per
    # tile; a sum that overflows is refused once, after the loop.
    blocks = _atom_blocks(params, points, sample_rate, grid_len)
    start = min((int(block.start[0]) for block in blocks), default=0)
    stop = max((int(block.start[-1]) + block.length for block in blocks), default=0)
    width = stop - start
    acc = np.zeros((len(cuts) + 1, width), dtype=np.complex128)
    flat, cuts = acc.reshape(-1), np.asarray(cuts, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        for block in blocks:
            lo, j, atoms, pts = _block_atoms(params, points, sample_rate, block)
            atoms *= coeffs(block, lo, j, atoms, pts)[:, None]
            if cuts.size:
                np.add(j.T, np.searchsorted(cuts, block.sel, side="right") * width, out=j.T)
            np.add.at(flat[lo - start :], j.T.ravel(), atoms.T.ravel())
    if not np.isfinite(acc).all():
        raise InvalidParameterError(
            "the synthesis sum overflows float64: the coefficients, or the values"
            " of the coefficient rule, are too large"
        )
    half = grid_len // 2
    lo, hi = max(start, -half), min(stop, half)
    return lo + half, acc[:, lo - start : max(hi, lo) - start]


def _tile_pass(
    sig: np.ndarray, points: np.ndarray, params: LtftParams, grid_len: int,
    sample_rate: float, rule: Optional[Rule] = None, dilation: int = 1, cuts: Sequence[int] = (),
) -> Tuple[int, np.ndarray]:
    # One pipeline tile, as _tile_sum returns it: `points` analysed against
    # the padded input `sig` of a grid_len signal, mapped by the rule block by
    # block, and summed at (D*a, b, c) on the D*grid_len grid, one row per
    # segment between the `cuts`.  At D > 1 the times are dilated in place.
    def coeffs(block, lo, j, atoms, pts):
        values = _block_coeffs(sig, lo, j, atoms, sample_rate)
        if rule is None:
            return values
        out = np.require(rule(values, *pts.T), np.complex128, "W")
        if out.shape != values.shape:
            raise InvalidParameterError("a coefficient rule must return one value per coefficient")
        if not np.isfinite(out).all():
            raise InvalidParameterError("a coefficient rule returned a NaN or infinite value")
        return out

    if dilation == 1:
        return _tile_sum(points, params, grid_len, sample_rate, coeffs, cuts)
    values = _tile_coeffs(points, params, grid_len, sample_rate, coeffs)
    points[:, 0] *= float(dilation)
    return _tile_sum(points, params, dilation * grid_len, sample_rate,
                     lambda block, *_: values[block.sel], cuts)


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
    sig, rate = _analysis_input(signal, params), signal.sample_rate
    analysis = lambda block, lo, j, atoms, pts: _block_coeffs(sig, lo, j, atoms, rate)
    values = _tile_coeffs(samples.points, params, signal.m, rate, analysis)
    return CoefficientVector(values, weight=samples.box.volume / samples.n)


def synthesize(
    coeffs: CoefficientVector,
    samples: SampleSet,
    params: LtftParams,
    out_len: int,
    sample_rate: float,
) -> DigitalSignal:
    """Cubature synthesis: weight * sum_n F_n * atom_n on the output grid.

    The weight is coeffs.weight = volume(box)/N, applied once to the sum.
    Each atom block, scaled by its coefficients, is added straight into one
    accumulator in block order (by support length), which depends on the
    samples alone, so the result is bit-identical across runs.
    """
    out_len = _check_grid(out_len, sample_rate)
    _guard_samples(params, sample_rate, out_len)
    if coeffs.values.shape[0] != samples.n:
        raise InvalidParameterError("coefficients and samples must align")
    lo, (tile,) = _tile_sum(
        samples.points, params, out_len, sample_rate, lambda block, *_: coeffs.values[block.sel]
    )
    out = np.zeros(out_len, dtype=np.complex128)
    out[lo : lo + tile.size] = tile * coeffs.weight
    return DigitalSignal(out, sample_rate)
