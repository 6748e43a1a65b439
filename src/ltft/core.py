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
whatever N and M are.  Analysis and synthesis are its two directions:
analysis takes the inner product of the signal with every block, and
synthesis sums each block, scaled by its coefficients and the cubature
weight volume(box)/N, over its own index span and adds the block sums in
block order.  Large calls spread the blocks over a thread pool, one thread
per usable core; the partition and the order of the sums do not depend on
the thread count, so neither does the output, bit for bit.

Plain reconstruction synthesizes the atoms it analysed, on the same grid,
so a private round trip does both in one pass: each block is built once,
its coefficients are taken, and the same block, scaled by them, is summed
while it is in hand.  It shares the block sum and the block-order
accumulation with synthesis and gives the same bits as analysis followed
by synthesis.  A coefficient transform needs every coefficient before
synthesis starts, and synthesis at a time dilation uses other atoms, so
those pipelines keep the two passes.

The block kernel is factored so that complex exponentials are taken per
atom, not per sample.  On the samples t_k = (m0 + k)/L of an atom centred
at a, t_k - a = t0 + k/L with t0 = m0/L - a, so the phase
exp(2 pi i f (t_k - a)) is exp(2 pi i f t0) times the k-th power of
exp(2 pi i f / L), built by a running product along the row that also
carries the atom's amplitude from its first sample.  The cos^4
window is one real cosine per sample, squared twice; its argument is
clamped at the support's end, so a row's padding carries cos^4(pi/2), about
1e-65 of the row's peak, far below rounding.  Block indices address the
grid with one zero guard cell on each side; samples off the grid read zero
in analysis and write only into a guard cell in synthesis, so neither
direction masks.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, ClassVar, Iterable, Iterator, List, NamedTuple, Optional, Tuple, TypeVar

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
    # for k < length.  Per row, the amplitude times the phase at k = 0 and the
    # per-sample rotation are computed once; a running product spreads them
    # along the row.
    beff, freq = _branch_arrays(params, b, c)
    scale = beff / params.gamma
    t0 = m_start / sample_rate - a
    atoms = np.empty((a.shape[0], length), dtype=np.complex128)
    atoms[:, 0] = (_COS4_NORM * np.sqrt(scale)) * np.exp(2j * np.pi * freq * t0)
    atoms[:, 1:] = np.exp(2j * np.pi * freq / sample_rate)[:, None]
    np.cumprod(atoms, axis=1, out=atoms)
    # The cos^4 window.  A row's own support keeps scale * t >= -1/2; past its
    # end, in a block's padding, the argument is clamped at pi/2, where the
    # window is cos^4(pi/2) ~ 1e-65 of its peak, so no mask is needed.
    env = np.arange(length) / sample_rate + t0[:, None]
    env *= (np.pi * scale)[:, None]
    np.minimum(env, 0.5 * np.pi, out=env)
    np.cos(env, out=env)
    env *= env
    env *= env
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


# Atom blocks hold at most this many atom-samples (16 bytes each), so the
# operator's working memory does not grow with N or M.  Blocks of 2^14
# atom-samples and smaller ran slower on a thread pool.
_BLOCK_ATOM_SAMPLES = 1 << 16
# A block takes atoms up to this many times its shortest row's support, so
# small calls run in a few full blocks rather than many short ones; the
# padding costs a few per cent more atom-samples.
_PACK_RATIO = 1.25
# Calls with fewer atom-samples run their blocks in the calling thread,
# where the pool's threads would save little.  On the error sweep's 32 calls
# of 26k to 1.6M atom-samples (2-vCPU Xeon), the median sweep took
# 0.54 / 0.50 / 0.49 / 0.48 / 0.56 s at thresholds of 2M / 500k / 200k /
# 100k / 50k; below 500k, runs while the host was busy reached 0.6-0.7 s.
_POOL_MIN_ATOM_SAMPLES = 500_000

T = TypeVar("T")


class _AtomBlock(NamedTuple):
    sel: np.ndarray  # sample indices, ordered by first sample
    start: np.ndarray  # first grid sample m of each atom
    length: int  # row length: the longest support sample count in the block


def _atom_blocks(
    params: LtftParams, samples: SampleSet, sample_rate: float
) -> Tuple[List[_AtomBlock], int]:
    # The sampled atom operator's plan.  Atoms are ordered by support sample
    # count and then by first sample, and cut into consecutive blocks: a block
    # ends before an atom longer than _PACK_RATIO times its shortest row, or
    # before it would exceed _BLOCK_ATOM_SAMPLES atom-samples with every row
    # padded to its longest.  Within a block the rows are re-sorted by first
    # sample.  The partition depends on the samples alone, so the block order
    # is the accumulation order.  Returns the blocks and their total
    # atom-sample count, padding included.
    m_start, m_end = _support_index_range(params, samples.a, samples.b, sample_rate)
    lengths = m_end - m_start + 1
    # One stable sort on (length, first sample) packed into one int64 key.
    order = np.argsort((lengths << 32) | (m_start - m_start.min()), kind="stable")
    order = order[lengths[order] > 0]
    sorted_lengths = lengths[order]
    blocks = []
    i = 0
    while i < order.size:
        shortest = int(sorted_lengths[i])
        # Candidates: atoms up to _PACK_RATIO times the shortest (an integer
        # bound, so the search does not cast the lengths to float), and no more
        # of them than fit the budget at the shortest length.
        end = min(
            int(np.searchsorted(sorted_lengths, int(_PACK_RATIO * shortest), side="right")),
            i + max(1, _BLOCK_ATOM_SAMPLES // shortest),
        )
        # Rows i..k-1, padded to the longest, sorted_lengths[k - 1], fit the budget.
        padded = np.arange(1, end - i + 1) * sorted_lengths[i:end]
        k = i + max(1, int(np.searchsorted(padded, _BLOCK_ATOM_SAMPLES, side="right")))
        sel = order[i:k]
        sel = sel[np.argsort(m_start[sel], kind="stable")]
        blocks.append(_AtomBlock(sel, m_start[sel], int(sorted_lengths[k - 1])))
        i = k
    return blocks, sum(block.sel.size * block.length for block in blocks)


def _block_atoms(
    params: LtftParams,
    samples: SampleSet,
    sample_rate: float,
    grid_len: int,
    block: _AtomBlock,
) -> Tuple[np.ndarray, np.ndarray]:
    # Storage indices j into the grid padded by one zero guard cell on each
    # side (off-grid samples are clipped onto a guard cell) and the
    # (rows, length) atom values of one block, each row padded to the block's
    # length.  Rows are ordered by first sample, so j[0, 0] is the block's
    # smallest index.
    offset = grid_len // 2 + 1  # storage index of grid sample m is m + offset
    j = block.start[:, None] + np.arange(offset, offset + block.length)
    np.clip(j, 0, grid_len + 1, out=j)
    pts = samples.points[block.sel]
    atoms = _atom_values(
        params, pts[:, 0], pts[:, 1], pts[:, 2], block.start, block.length, sample_rate
    )
    return j, atoms


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _map_blocks(
    task: Callable[[_AtomBlock], T], blocks: List[_AtomBlock], atom_samples: int
) -> Iterator[T]:
    # task(block) for every block, yielded in block order.  Calls with at
    # least _POOL_MIN_ATOM_SAMPLES atom-samples spread the blocks over one
    # thread per usable core (the kernels release the interpreter lock);
    # smaller calls run them in the caller, where threads would cost more
    # than they save.  Either way the results are the same bits.
    workers = _usable_cores()
    if atom_samples < _POOL_MIN_ATOM_SAMPLES or workers < 2:
        for block in blocks:
            yield task(block)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # map reads every future's result, so a worker's exception is raised here.
        yield from pool.map(task, blocks)


def _padded_input(signal: DigitalSignal, samples: SampleSet) -> np.ndarray:
    # The analysis signal with one zero guard cell on each side.
    if samples.box.freq_hi > signal.sample_rate * (1 + 1e-12):
        raise InvalidParameterError("box frequency side exceeds the signal rate")
    sig = np.zeros(signal.m + 2, dtype=np.complex128)
    sig[1:-1] = signal.samples
    return sig


def _block_coeffs(
    sig: np.ndarray, j: np.ndarray, atoms: np.ndarray, sample_rate: float
) -> np.ndarray:
    # One block's analysis coefficients; vecdot conjugates its first argument.
    return np.vecdot(atoms, sig[j]) / sample_rate


def _block_sum(
    j: np.ndarray, atoms: np.ndarray, scaled: np.ndarray
) -> Tuple[int, np.ndarray, np.ndarray]:
    # One block's atoms times their scaled coefficients, summed over the
    # block's own index span from lo = j[0, 0] on.  Scales atoms and shifts j
    # in place.
    atoms *= scaled[:, None]
    lo = int(j[0, 0])
    j -= lo
    j = j.ravel()
    re = np.bincount(j, weights=atoms.real.ravel())
    im = np.bincount(j, weights=atoms.imag.ravel())
    return lo, re, im


def _sum_blocks(
    sums: Iterable[Tuple[int, np.ndarray, np.ndarray]], out_len: int, sample_rate: float
) -> DigitalSignal:
    # Adds the block sums in block order into an accumulator padded by one
    # guard cell on each side, then crops the guard cells.
    acc_re = np.zeros(out_len + 2, dtype=np.float64)
    acc_im = np.zeros(out_len + 2, dtype=np.float64)
    for lo, re, im in sums:
        acc_re[lo : lo + re.size] += re
        acc_im[lo : lo + im.size] += im
    return DigitalSignal(acc_re[1:-1] + 1j * acc_im[1:-1], sample_rate)


def analyze(
    signal: DigitalSignal, samples: SampleSet, params: LtftParams
) -> CoefficientVector:
    """Transform coefficients <s, atom_n> at every sample point.

    Each value is the Riemann inner product dt * sum_m s(t_m) *
    conj(atom(t_m)) with dt = 1/L, restricted to the atom's support;
    atoms that miss the grid contribute zero.
    """
    sig = _padded_input(signal, samples)
    m = signal.m
    rate = signal.sample_rate
    blocks, atom_samples = _atom_blocks(params, samples, rate)

    def block_coeffs(block: _AtomBlock) -> np.ndarray:
        j, atoms = _block_atoms(params, samples, rate, m, block)
        return _block_coeffs(sig, j, atoms, rate)

    out = np.zeros(samples.n, dtype=np.complex128)
    for block, values in zip(blocks, _map_blocks(block_coeffs, blocks, atom_samples)):
        out[block.sel] = values
    return CoefficientVector(out, weight=samples.box.volume / samples.n)


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
    bit-identical across runs and thread counts.
    """
    if coeffs.values.shape[0] != samples.n:
        raise InvalidParameterError("coefficients and samples must align")
    scaled = coeffs.weight * coeffs.values
    blocks, atom_samples = _atom_blocks(params, samples, sample_rate)

    def block_sum(block: _AtomBlock) -> Tuple[int, np.ndarray, np.ndarray]:
        j, atoms = _block_atoms(params, samples, sample_rate, out_len, block)
        return _block_sum(j, atoms, scaled[block.sel])

    return _sum_blocks(_map_blocks(block_sum, blocks, atom_samples), out_len, sample_rate)


def _round_trip(
    signal: DigitalSignal, samples: SampleSet, params: LtftParams
) -> DigitalSignal:
    # synthesize(analyze(signal, samples, params), samples, params, M, L), bit
    # for bit, with each atom block built once: its coefficients are taken
    # and the same block, scaled by them, is summed while it is in hand.
    sig = _padded_input(signal, samples)
    m = signal.m
    rate = signal.sample_rate
    weight = samples.box.volume / samples.n
    blocks, atom_samples = _atom_blocks(params, samples, rate)

    def block_pass(block: _AtomBlock) -> Tuple[int, np.ndarray, np.ndarray]:
        j, atoms = _block_atoms(params, samples, rate, m, block)
        return _block_sum(j, atoms, weight * _block_coeffs(sig, j, atoms, rate))

    return _sum_blocks(_map_blocks(block_pass, blocks, atom_samples), m, rate)
