"""Phase-space signal processing on sampled transform coefficients.

Multipliers scale each coefficient by a symbol evaluated at its phase-space
point; pointwise nonlinearities act on coefficient values alone (e.g. soft
thresholding for shrinkage denoising); the integer-dilation phase vocoder
moves atoms to (D*a, b, c) while raising coefficient phases to the D-th
power, stretching time without dilating frequency content.

The pipelines behind :func:`reconstruct` and :func:`phase_vocoder` take
their N points in tiles of consecutive indices.  Each tile is generated
on its own, bit for bit equal to the same rows of the whole set, then
planned, analysed and summed by the block loops of :mod:`ltft.core`, and
the tile sums are added in tile order into the output.  So the memory a
call holds does not grow with N.  Large calls run the tiles on a thread
pool, one thread per usable core, with a few tiles in flight; the
partition and the order of the sums do not depend on the thread count, so
neither does the output, bit for bit.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple, TypeVar

import numpy as np

from .core import (
    CoefficientVector,
    DigitalSignal,
    LtftParams,
    PhaseSpaceBox,
    SampleSet,
    _analysis_input,
    _max_support_samples,
    _placed,
    _predicted_atom_samples,
    _round_trip_sum,
    _synthesis_sum,
    _tile_coeffs,
    from_analytic,
    to_analytic,
)
from .errors import BudgetExceededError, InvalidParameterError
from .frame import apply_inverse_frame, frame_diagonal
from .lds import _check_rows, generate_unit_points, scale_rows, scale_to_box, unit_point_rows

_MAX_OUTPUT_SAMPLES = 1 << 26


def samples_for_redundancy(redundancy: float, m: int) -> int:
    """N = ceil(A*M) samples for redundancy A on an M-point signal."""
    if not 0 < redundancy * m < np.inf:
        raise InvalidParameterError("redundancy must be positive and finite")
    return int(np.ceil(redundancy * m))


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
        if (
            isinstance(self.dilation, bool)
            or not float(self.dilation).is_integer()
            or self.dilation < 1
        ):
            raise InvalidParameterError("dilation must be an integer >= 1")
        if self.redundancy is not None:
            samples_for_redundancy(self.redundancy, 1)  # refuse a bad A now
        if self.samples is not None:
            if self.redundancy is not None:
                raise InvalidParameterError("give either samples or redundancy, not both")
            if isinstance(self.samples, bool) or not (
                float(self.samples).is_integer() and self.samples >= 1
            ):
                raise InvalidParameterError("samples must be an integer >= 1")

    def sample_count(self, m: int) -> int:
        if self.samples is not None:
            return int(self.samples)
        a = 4.0 * self.dilation if self.redundancy is None else self.redundancy
        return samples_for_redundancy(a, m)


def multiplier_apply(
    coeffs: CoefficientVector,
    samples: SampleSet,
    symbol: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
) -> CoefficientVector:
    """Multiply each coefficient by symbol(a_n, b_n, c_n)."""
    if coeffs.values.shape[0] != samples.n:
        raise InvalidParameterError("coefficients and samples must align")
    factors = np.asarray(symbol(samples.a, samples.b, samples.c))
    return CoefficientVector(coeffs.values * factors, weight=coeffs.weight)


def pointwise_nonlinearity(
    coeffs: CoefficientVector, rule: Callable[[np.ndarray], np.ndarray]
) -> CoefficientVector:
    """Apply a complex-to-complex rule to every coefficient value."""
    return CoefficientVector(np.asarray(rule(coeffs.values)), weight=coeffs.weight)


def soft_threshold(threshold: float) -> Callable[[np.ndarray], np.ndarray]:
    """Shrinkage rule z -> z * max(0, 1 - threshold/|z|)."""
    if not 0 <= threshold < np.inf:
        raise InvalidParameterError(f"threshold must be finite and non-negative, got {threshold}")

    def rule(values: np.ndarray) -> np.ndarray:
        mag = np.abs(values)
        scale = np.maximum(0.0, 1.0 - threshold / np.where(mag > 0, mag, 1.0))
        return values * np.where(mag > 0, scale, 0.0)

    return rule


def vocoder_phase_rule(z, dilation: int):
    """|z| * exp(i * D * arg z); the identity at D = 1."""
    if int(dilation) != dilation or dilation < 1:
        raise InvalidParameterError("dilation must be an integer >= 1")
    if dilation == 1:
        return z
    z = np.asarray(z, dtype=np.complex128)
    return np.abs(z) * np.exp(1j * dilation * np.angle(z))


def sample_phase_space(
    signal: DigitalSignal,
    params: LtftParams,
    n: int,
    kind: str = "hammersley",
    seed: int = 0,
    padded: bool = False,
) -> SampleSet:
    """N generator points scaled onto the signal's phase-space box."""
    box = PhaseSpaceBox.for_signal(signal, params, padded=padded)
    return scale_to_box(generate_unit_points(kind, n, 3, seed), box)


Transform = Callable[[CoefficientVector, SampleSet], CoefficientVector]

# The pipelines take the points in tiles of this many consecutive indices.
# Each tile is generated, planned, analysed and summed on its own, so the
# points, the block plan and the coefficients held at once do not grow with
# N.  Hammersley's time coordinate is n/N, so its tiles are time slabs.
_TILE_POINTS = 1 << 15
# Calls with fewer predicted atom-samples, or one tile, run their tiles in
# the caller, where the pool's threads would save little.  On the error
# sweep's 32 calls of 26k to 1.6M atom-samples (2-vCPU Xeon, sample-major
# kernel, a pool over atom blocks), the median benchmark run_s was 0.377 /
# 0.386 / 0.41 / 0.415 at thresholds of 2M / 1M / 500k / 250k over 4
# interleaved rounds, and 0.388 / 0.395 / 0.401 at 2M / 1M / 500k over 5
# more; 2M was faster than 500k in all 9.  Two busy processes there ran at
# about 1.1 cores' throughput.  Every sweep call stays below the threshold.
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
    n: int,
    kind: str,
    seed: int,
    padded: bool,
    transform: Optional[Transform] = None,
    rule: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    dilation: int = 1,
) -> DigitalSignal:
    # Analysis of the analytic signal on N points of the phase-space box,
    # the optional coefficient transform or per-coefficient rule, synthesis
    # of atoms at (D*a, b, c) onto a D*M grid, inverse-frame normalization
    # at the output resolution, then the real part.  The output is scaled by
    # D to compensate the thinned density of synthesis centers: the
    # cubature weight stays volume(analysis box)/N while the N dilated
    # centers cover a box D times larger, so the sum underweights by 1/D
    # (measured on pure tones).  At D = 1 this is reconstruction.
    #
    # The points run in tiles of _TILE_POINTS consecutive indices.  A tile's
    # rows come straight from the generator, are scaled onto the box in
    # place, and are analysed and summed by the block loops of core; each
    # tile gives a (grid index, sum) pair, and the pairs are added in tile
    # order, so the output does not depend on the thread count, bit for
    # bit.  Plain reconstruction (no transform or rule, D = 1) synthesizes
    # the very atoms it analysed, so a tile takes the one-pass round trip.
    # With a rule (the vocoder's phase rule) a tile is analysed, its
    # coefficients mapped, its times dilated in place and its atoms summed.
    # A transform keeps its contract, a map of the whole coefficient vector
    # with every point: every tile is analysed first, the transform runs
    # once, and the tiles are then synthesized one by one.
    rate = signal.sample_rate
    out_len = dilation * signal.m
    n, _, seed = _check_rows(kind, n, 3, seed)
    # The frame diagonal first: its build's temporaries are gone before the
    # tiles allocate.
    hd = frame_diagonal(params, rate, out_len, folded=True)
    box = PhaseSpaceBox.for_signal(signal, params, padded=padded)
    weight = box.volume / n
    guard = _max_support_samples(params, rate)
    sig = _analysis_input(to_analytic(signal), guard)
    count = -(-n // _TILE_POINTS)
    pooled = count >= 2 and _predicted_atom_samples(params, rate, n) >= _POOL_MIN_ATOM_SAMPLES
    tag = seed if kind == "mc" else None

    def span(k: int) -> slice:
        return slice(k * _TILE_POINTS, min((k + 1) * _TILE_POINTS, n))

    def tile_points(k: int) -> SampleSet:
        tile = span(k)
        rows = unit_point_rows(kind, n, 3, seed, tile.start, tile.stop)
        return SampleSet(scale_rows(rows, box), box, kind, tag)

    def coeffs_of(samples: SampleSet) -> np.ndarray:
        return _tile_coeffs(sig, guard, samples, params, signal.m, rate)

    def synthesized(rows: np.ndarray, scaled: np.ndarray) -> Tuple[int, np.ndarray]:
        # The atoms at (D*a, b, c) of a tile's rows, dilated in place, times
        # their scaled coefficients, summed.
        rows[:, 0] *= float(dilation)
        samples = SampleSet(rows, box.scaled(float(dilation)), kind, tag)
        return _synthesis_sum(scaled, samples, params, out_len, rate)

    if transform is not None:
        every = sample_phase_space(signal, params, n, kind, seed, padded)
        values = np.empty(n, dtype=np.complex128)

        def analyse(k: int) -> None:
            tile = SampleSet(every.points[span(k)], box, kind, tag)
            values[span(k)] = coeffs_of(tile)

        for _ in _map_tiles(analyse, count, pooled):
            pass
        coeffs = transform(CoefficientVector(values, weight=weight), every)
        if coeffs.values.shape[0] != n:
            raise InvalidParameterError("coefficients and samples must align")
        scaled = coeffs.weight * coeffs.values

        def task(k: int) -> Tuple[int, np.ndarray]:
            return synthesized(every.points[span(k)].copy(), scaled[span(k)])

    elif rule is None and dilation == 1:

        def task(k: int) -> Tuple[int, np.ndarray]:
            return _round_trip_sum(sig, guard, tile_points(k), params, signal.m, rate, weight)

    else:

        def task(k: int) -> Tuple[int, np.ndarray]:
            samples = tile_points(k)
            values = coeffs_of(samples)
            if rule is not None:
                values = rule(values)
            return synthesized(samples.points, weight * values)

    raw = _placed(_map_tiles(task, count, pooled), out_len, rate)
    normalized = apply_inverse_frame(raw, hd)
    return from_analytic(DigitalSignal(normalized.samples * dilation, rate))


def reconstruct(
    signal: DigitalSignal,
    params: LtftParams,
    n: int,
    kind: str = "hammersley",
    seed: int = 0,
    padded: bool = False,
    transform: Optional[Transform] = None,
) -> DigitalSignal:
    """Analysis, cubature synthesis, and inverse-frame normalization.

    The input is taken real; it is converted to its analytic form before
    analysis and the real part is returned.  ``transform(coeffs, samples)``,
    when given, maps the analysis coefficients before synthesis (a
    multiplier or a shrinkage rule, for example).

    Memory: besides a few signal-length arrays (the input, its analytic
    form with a guard band, the output and the frame diagonal), a call
    holds the points, block plan and partial sums of a few tiles of
    ``_TILE_POINTS`` points, one per worker thread, whatever N is.  A
    transform needs every coefficient and point at once, so with one the
    call also holds all N points and N coefficients.
    """
    return _analysis_synthesis(signal, params, n, kind, seed, padded, transform=transform)


def phase_vocoder(signal: DigitalSignal, job: VocoderJob) -> DigitalSignal:
    """Time-stretch by an integer factor D, preserving frequency content.

    The vocoder is reconstruction with two changes: the coefficient
    transform raises each coefficient's phase to the D-th power
    (:func:`vocoder_phase_rule`), and synthesis places the atoms at
    (D*a, b, c) on a D*M grid.  The output has D*M samples.

    Memory: the phase rule acts on each coefficient alone, so the vocoder
    runs tile by tile like :func:`reconstruct` without a transform: a few
    signal-length arrays at the output length D*M, and the points,
    coefficients, block plans and partial sums of a few tiles.
    """
    d = int(job.dilation)
    out_len = d * signal.m
    if out_len > _MAX_OUTPUT_SAMPLES:
        raise BudgetExceededError(f"output of {out_len} samples exceeds the budget")
    return _analysis_synthesis(
        signal, job.params, job.sample_count(signal.m), job.sequence, job.seed, job.padded,
        rule=lambda z: vocoder_phase_rule(z, d), dilation=d,
    )
