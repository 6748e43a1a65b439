"""Phase-space signal processing on sampled transform coefficients.

Every processing step is a per-point rule on the coefficients,
rule(values, a, b, c) (:data:`ltft.core.Rule`).  Multipliers scale each
coefficient by a symbol evaluated at its phase-space point; shrinkage
denoising soft-thresholds each coefficient; the integer-dilation phase
vocoder moves atoms to (D*a, b, c) while raising coefficient phases to the
D-th power, stretching time without dilating frequency content.

The pipelines take their N points in tiles of consecutive indices.  Each
tile is a plain (n, 3) array, generated on its own, bit for bit equal to
the same rows of the whole set, and scaled onto the box in place; it is
then planned, analysed, mapped by the rule and summed by the block loops
of :mod:`ltft.core`, and the tile sums are added in tile order into the
output.  So the memory a call holds does not grow with N, whatever the
rule.  The cubature weight volume(box)/N is applied once, to the
normalized sum, so one pass over the first N points of a sequence whose
rows extend (:func:`ltft.lds.extensible`) also gives the output at every
smaller N: a tile sums the points between two requested counts into a row
of its own, and the rows are added in index order, so the counts do not
change how the points are tiled.  Large calls run the tiles on a thread
pool, one thread per usable core, with a few tiles in flight; the
partition and the order of the sums do not depend on the thread count, so
neither does the output, bit for bit.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from .core import (
    DigitalSignal,
    LtftParams,
    PhaseSpaceBox,
    Rule,
    _MAX_SIGNAL_SAMPLES,
    _analysis_input,
    _check_int,
    _predicted_atom_samples,
    _round_trip_coeffs,
    _ruled,
    _tile_coeffs,
    _tile_sum,
    from_analytic,
    to_analytic,
)
from .errors import BudgetExceededError, InvalidParameterError
from .frame import apply_inverse_frame, frame_diagonal
from .lds import _check_count, _check_rows, extensible, scale_rows, unit_point_rows


def sample_count(m: int, samples, redundancy, default: float) -> int:
    """N = ``samples``, else ceil(A*M) for A = ``redundancy``, or ``default``
    when neither is given; N follows the point-count rule of :mod:`ltft.lds`."""
    if samples is not None:
        if redundancy is not None:
            raise InvalidParameterError("give either samples or redundancy, not both")
        return _check_count(samples)
    a = default if redundancy is None else redundancy
    if not 0 < a * m < np.inf:
        raise InvalidParameterError("redundancy must be positive and finite")
    return _check_count(int(np.ceil(a * m)))


@dataclass(frozen=True)
class VocoderJob:
    """Configuration of one vocoder run.

    The sample count is ``samples`` when given, else N = A*M with A =
    ``redundancy``; with neither it defaults to N = 4*D*M, which is enough
    for a high-quality result; larger values buy little.
    """

    params: LtftParams
    dilation: int = 1
    redundancy: Optional[float] = None
    sequence: str = "hammersley"
    seed: int = 0
    padded: bool = False
    samples: Optional[int] = None

    def __post_init__(self) -> None:
        _check_int("dilation", self.dilation, 1)
        _check_rows(self.sequence, 1, 3, self.seed)  # refuse a bad kind or seed now
        self.sample_count(1)  # and a bad N or A

    def sample_count(self, m: int) -> int:
        return sample_count(m, self.samples, self.redundancy, 4.0 * self.dilation)


def shrinkage(threshold: float, relative: bool = True) -> Callable[[float], Rule]:
    """The rule of :func:`denoise` as a function of max |F|.

    The rule soft-thresholds every coefficient, z -> z * max(0, 1 - lam/|z|)
    with z = 0 kept at 0, at lam = ``threshold`` times max |F| when
    ``relative``, else at ``threshold``.  A threshold that zeroes every
    coefficient, so that the output would be silence, is refused: here when
    it is relative and outside [0, 1) or absolute and negative or not
    finite, and once max |F| is known when it is absolute and at or above it.
    """
    if not 0.0 <= threshold < (1.0 if relative else np.inf):
        if relative:
            raise InvalidParameterError(f"relative threshold {threshold:g} must lie in [0, 1)")
        raise InvalidParameterError(
            f"absolute threshold {threshold:g} must be finite and non-negative"
        )

    def at_peak(peak: float) -> Rule:
        if not relative and 0.0 < threshold >= peak:
            raise InvalidParameterError(
                f"absolute threshold {threshold:g} zeroes every coefficient (max |F| = {peak:g})"
            )
        lam = threshold * peak if relative else threshold

        def rule(values, a, b, c):
            mag = np.abs(values)
            scale = np.maximum(0.0, 1.0 - lam / np.where(mag > 0, mag, 1.0))
            return values * np.where(mag > 0, scale, 0.0)

        return rule

    return at_peak


def vocoder_phase_rule(z, dilation: int):
    """|z| * exp(i * D * arg z); the identity at D = 1.

    Computed as |z| * (z/|z|)^D by complex multiplies, with no complex exp
    or arg; z = 0 maps to 0 and NaN propagates.
    """
    d = _check_int("dilation", dilation, 1)
    if d == 1:
        return z
    z = np.asarray(z, dtype=np.complex128)
    r = np.abs(z)
    with np.errstate(invalid="ignore"):  # NaN / NaN
        unit = np.divide(z, r, out=np.zeros_like(z), where=r != 0)
    np.power(unit, d, out=unit)
    unit *= r
    return unit


# The pipelines take the points in tiles of this many consecutive indices.
# Each tile is generated, planned, analysed and summed on its own, so the
# points, the block plan and the coefficients held at once do not grow with
# N.  Hammersley's time coordinate is n/N, so its tiles are time slabs.  A
# tile's sum holds one row per requested count inside it, and its rows hold
# at most this many complex samples too, the size of the tile's points: a
# tile is cut at a count only where one more row would pass that.
_TILE_POINTS = 1 << 15
# Calls with fewer predicted atom-samples, or one tile, run their tiles in
# the caller, where the pool's threads would save little.  Of the error
# sweep's calls only A = 64 Hammersley (65,536 points, 2 tiles, 1.53M
# atom-samples) comes near the bound; its Monte Carlo passes stay under
# 0.4M.  speech-reconstruct (8 tiles, 5.97M) and vocoder-cli (4 tiles,
# 2.98M) pool either way.  Pooling that call (2-vCPU Xeon, three runs of 15
# interleaved in-process rounds) took 0.046-0.065 s median against
# 0.038-0.053 s in the caller, and the whole sweep 0.178-0.220 s against
# 0.168-0.215 s; the caller won in every run.
_POOL_MIN_ATOM_SAMPLES = 2_000_000

T = TypeVar("T")


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _map_tiles(task: Callable[[int], T], count: int, pooled: bool) -> Iterator[T]:
    # task(k) for k = 0 .. count-1, yielded in tile order.  Pooled, the tiles
    # run on one thread per usable core (the kernels release the interpreter
    # lock), with at most one more tile submitted than there are threads,
    # so the tiles in flight stay few whatever the count.  Either way the
    # results are the same bits, and a task's exception is raised here.
    workers = min(_usable_cores(), count)
    if not pooled or workers < 2:
        for k in range(count):
            yield task(k)
        return
    # Imported here: the pool's modules (logging and queue among them) take
    # milliseconds to load, which a process that pools nothing need not pay.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        try:
            for k in range(count):
                pending.append(pool.submit(task, k))
                if len(pending) > workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:  # after an error, tiles not yet started are not run
            for future in pending:
                future.cancel()


def _analysis_synthesis(
    signal: DigitalSignal,
    params: LtftParams,
    counts: Sequence[int],
    kind: str,
    seed: int,
    padded: bool,
    rule: Optional[Rule] = None,
    dilation: int = 1,
    at_peak: Optional[Callable[[float], Rule]] = None,
) -> List[DigitalSignal]:
    # Analysis of the analytic signal on N points of the phase-space box,
    # the optional per-point rule, synthesis of atoms at (D*a, b, c) onto a
    # D*M grid, inverse-frame normalization at the output resolution, then
    # the real part, at each N of the ascending `counts`.  The sum is scaled
    # once by D times the cubature weight volume(analysis box)/N: the N
    # dilated centers cover a box D times larger, so the sum underweights
    # by 1/D (measured on pure tones).  At D = 1 this is reconstruction.
    #
    # The points run in tiles of _TILE_POINTS consecutive indices, and the
    # output is emitted at each count: the rows of an extensible kind
    # (lds.extensible) are prefixes of one sequence, so one pass serves every
    # count.  Other sets depend on N, and max |F| on all N points, so these
    # take one count.  A tile's rows come straight from the generator, are
    # scaled onto the box in place, and that array is analysed and summed by
    # the block loops of core into one sum row per segment between the
    # counts; each tile gives a (grid index, sum rows) pair, and the rows are
    # added in index order, so the output does not depend on the thread
    # count, bit for bit.  At D = 1 synthesis uses the very atoms analysis
    # built, so a tile takes the one-pass round trip, the rule mapping each
    # block's coefficients while the block is in hand.  At D > 1 a tile is
    # analysed, its coefficients mapped, its times dilated in place and its
    # atoms summed.  With `at_peak` the rule is at_peak(max |F|), and an
    # analysis-only pass over the same tiles finds max |F| first.
    checked = [_check_rows(kind, n, 3, seed) for n in counts]
    if not checked or any(a[0] >= b[0] for a, b in zip(checked, checked[1:])):
        raise InvalidParameterError("point counts must be a non-empty ascending list")
    if len(checked) > 1 and not (extensible(kind) and at_peak is None):
        raise InvalidParameterError("several point counts need an extensible kind, no denoising")
    counts, seed = [n for n, _, _ in checked], checked[0][2]
    n = counts[-1]
    rate = signal.sample_rate
    out_len = dilation * signal.m
    if out_len > _MAX_SIGNAL_SAMPLES:
        raise BudgetExceededError(f"output of {out_len} samples exceeds the budget")
    # The frame diagonal first: its build's temporaries are gone before the
    # tiles allocate.
    hd = frame_diagonal(params, rate, out_len, folded=True)
    box = PhaseSpaceBox.for_signal(signal, params, padded=padded)
    sig = _analysis_input(to_analytic(signal), params)
    # A tile's sum rows each span at most the output grid plus the analysis
    # input's guard band, which bounds every support, on each side.
    width = out_len + sig.size - signal.m
    max_rows = max(1, _TILE_POINTS // width)
    edges = sorted({*range(0, n, _TILE_POINTS), *counts})
    tiles: List[Tuple[int, List[int]]] = []  # (first index, each row's end)
    for start, stop in zip(edges, edges[1:]):
        if start % _TILE_POINTS and len(tiles[-1][1]) < max_rows:
            tiles[-1][1].append(stop)
        else:
            tiles.append((start, [stop]))
    pooled = len(tiles) >= 2 and _predicted_atom_samples(params, rate, n) >= _POOL_MIN_ATOM_SAMPLES

    def tile_points(k: int) -> np.ndarray:
        start, ends = tiles[k]
        return scale_rows(unit_point_rows(kind, n, 3, seed, start, ends[-1]), box)

    def cuts(k: int) -> List[int]:
        start, ends = tiles[k]
        return [end - start for end in ends[:-1]]

    def coeffs_of(points: np.ndarray) -> np.ndarray:
        return _tile_coeffs(sig, points, params, signal.m, rate)

    if at_peak is not None:
        peaks = _map_tiles(lambda k: np.abs(coeffs_of(tile_points(k))).max(), len(tiles), pooled)
        rule = at_peak(float(max(peaks)))

    if dilation == 1:

        def task(k: int) -> Tuple[int, np.ndarray]:
            points = tile_points(k)
            source = _round_trip_coeffs(sig, points, rate, rule)
            return _tile_sum(points, params, signal.m, rate, source, cuts(k))

    else:

        def task(k: int) -> Tuple[int, np.ndarray]:
            points = tile_points(k)
            values = coeffs_of(points)
            if rule is not None:
                values = _ruled(rule, values, points)
            points[:, 0] *= float(dilation)
            return _tile_sum(
                points, params, out_len, rate, lambda block, *_: values[block.sel], cuts(k)
            )

    raw = np.zeros(out_len, dtype=np.complex128)
    outputs = []
    for (lo, rows), (_, ends) in zip(_map_tiles(task, len(tiles), pooled), tiles):
        for row, end in zip(rows, ends):
            raw[lo : lo + row.size] += row
            if end not in counts:
                continue
            normalized = apply_inverse_frame(DigitalSignal(raw, rate), hd).samples
            scaled = normalized * (dilation * box.volume / end)
            outputs.append(from_analytic(DigitalSignal(scaled, rate)))
    return outputs


def reconstruct(
    signal: DigitalSignal,
    params: LtftParams,
    n: int,
    kind: str = "hammersley",
    seed: int = 0,
    padded: bool = False,
    rule: Optional[Rule] = None,
) -> DigitalSignal:
    """Analysis, cubature synthesis, and inverse-frame normalization.

    The input is taken real; it is converted to its analytic form before
    analysis and the real part is returned.  ``rule(values, a, b, c)``,
    when given, maps the analysis coefficients before synthesis, each with
    its own point (a multiplier or a shrinkage rule, for example).  It must
    be elementwise and pure, and return one value per coefficient.  The
    cubature weight volume(box)/N scales the normalized sum once.

    Memory: besides a few signal-length arrays (the input, its zero-padded
    analytic form, the output and the frame diagonal), a call
    holds the points, block plan and partial sums of a few tiles of
    ``_TILE_POINTS`` points, one per worker thread, whatever N is.  The
    rule maps one atom block's coefficients at a time, so it adds nothing
    to that, and each block is built once.
    """
    return _analysis_synthesis(signal, params, [n], kind, seed, padded, rule=rule)[0]


def denoise(
    signal: DigitalSignal,
    params: LtftParams,
    n: int,
    shrink: Callable[[float], Rule],
    kind: str = "hammersley",
    seed: int = 0,
    padded: bool = False,
) -> DigitalSignal:
    """:func:`reconstruct` with the rule shrink(max |F|), from :func:`shrinkage`.

    max |F| over all N coefficients comes from an analysis-only pass over
    the same tiles before the round trip, so each atom block is built
    twice, and the call holds no more memory than :func:`reconstruct`.
    """
    return _analysis_synthesis(signal, params, [n], kind, seed, padded, at_peak=shrink)[0]


def phase_vocoder(signal: DigitalSignal, job: VocoderJob) -> DigitalSignal:
    """Time-stretch by an integer factor D, preserving frequency content.

    The vocoder is reconstruction with two changes: the coefficient rule
    raises each coefficient's phase to the D-th power
    (:func:`vocoder_phase_rule`), and synthesis places the atoms at
    (D*a, b, c) on a D*M grid.  The output has D*M samples.

    Memory: the phase rule acts on each coefficient alone, so the vocoder
    runs tile by tile like :func:`reconstruct`: a few signal-length arrays
    at the output length D*M, and the point arrays, coefficients, block
    plans and partial sums of a few tiles; a tile's times are dilated in
    its own array.  At D = 1 it is the round trip of
    :func:`reconstruct`; at D > 1 synthesis uses other atoms than analysis,
    so each atom block is built twice.
    """
    return _analysis_synthesis(
        signal, job.params, [job.sample_count(signal.m)], job.sequence, job.seed, job.padded,
        rule=lambda z, a, b, c: vocoder_phase_rule(z, job.dilation), dilation=job.dilation,
    )[0]
