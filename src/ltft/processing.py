"""Phase-space signal processing on sampled transform coefficients.

Every processing step is a per-point rule on the coefficients,
rule(values, a, b, c) (:data:`ltft.core.Rule`).  Multipliers scale each
coefficient by a symbol evaluated at its phase-space point; shrinkage
denoising soft-thresholds each coefficient; the integer-dilation phase
vocoder moves atoms to (D*a, b, c) while raising coefficient phases to the
D-th power, stretching time without dilating frequency content.

This module plans the tiles and the passes; :mod:`ltft.core` runs a tile.
The pipelines take their N points in tiles of consecutive indices.  Each
tile is a plain (n, 3) array, generated on its own, bit for bit equal to
the same rows of the whole set, and scaled onto the box in place; one core
routine then analyses it, maps it by the rule and sums it, and the tile
sums are added in tile order into the output.  So the memory a call holds
does not grow with N, whatever the rule.  The cubature weight
volume(box)/N is applied once, to the normalized sum, so one pass over
the first N points of a sequence whose rows extend
(:func:`ltft.lds.extensible`) also gives the output at every smaller N: a
tile sums the points between two requested counts into a row of its own,
and the rows are added in index order, so the counts do not change how
the points are tiled.  Other point sets take one pass per count.  Large
passes use a fixed schedule: tile k runs on worker k mod W, worker 0 being
the calling thread and the others one plain thread per further usable core,
each starting a tile only once the caller has taken its last; those threads
end with the pass.  The partition and the order of the sums do not depend
on the thread count, so neither does the output, bit for bit.  The frame
diagonal H is built with no pool thread alive: after a one-count pass's
last tile, and before the tiles of a pass with more counts.  Its budget
rules are checked before any point is made.

An input peaking outside [2^-500, 2^500] is divided by a power of two u
that brings its peak below 2, and the outputs are multiplied by u, so
no finite input overflows a sum.  A rule still maps F in the input's units,
as rule(u*F, a, b, c)/u; the vocoder's phase rule keeps |F| and maps F.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from .core import (
    DigitalSignal,
    LtftParams,
    PhaseSpaceBox,
    Rule,
    _analysis_input,
    _analytic_at_unit,
    _check_grid,
    _check_int,
    _predicted_atom_samples,
    _times,
    _tile_pass,
    dft,
)
from .errors import BudgetExceededError, InvalidParameterError
from .frame import _table_nodes, apply_inverse_frame, frame_diagonal
from .lds import _check_count, _check_rows, extensible, scale_rows, unit_point_rows


def sample_count(m: int, samples, redundancy, default: float) -> int:
    """N = ``samples``, else ceil(A*M) for A = ``redundancy``, or ``default``
    when neither is given; N follows the point-count rule of :mod:`ltft.lds`."""
    if samples is not None:
        if redundancy is not None:
            raise InvalidParameterError("give either samples or redundancy, not both")
        return _check_count(samples)
    a = default if redundancy is None else redundancy
    if not 0 < a < np.inf:
        raise InvalidParameterError("redundancy must be positive and finite")
    n = a * m
    if not n < np.inf:  # past the budget, like any finite A*M above it
        raise BudgetExceededError(f"A*M = {a:g} * {m} overflows the point budget")
    return _check_count(math.ceil(n))


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


def shrinkage(lam: float) -> Rule:
    """The soft-threshold rule z -> z * max(0, 1 - lam/|z|), 0 at z = 0.
    A negative or non-finite ``lam`` is refused."""
    if not 0.0 <= lam < np.inf:
        raise InvalidParameterError(f"threshold {lam:g} must be finite and non-negative")

    def rule(values, a, b, c):
        mag = np.abs(values)
        kept = mag > lam
        return np.where(kept, values * (1.0 - lam / np.where(kept, mag, np.inf)), 0.0)

    return rule


def _in_units(rule: Optional[Rule], unit: float) -> Optional[Rule]:
    # `rule`, which maps the coefficients of an input x, on those of x/unit.
    if rule is None or unit == 1.0:
        return rule
    return lambda values, a, b, c: np.asarray(rule(_times(values, unit), a, b, c)) / unit


def vocoder_phase_rule(z, dilation: int):
    """|z| * exp(i * D * arg z); the identity at D = 1.

    Computed as |z| * (z/|z|)^D by complex multiplies, with no complex exp
    or arg; z = 0 maps to 0 and NaN propagates.
    """
    d = _check_int("dilation", dilation, 1)
    if d == 1:
        return z
    with np.errstate(invalid="ignore"):  # NaN / NaN
        return _phase_power(np.asarray(z, dtype=np.complex128), d)


def _phase_power(z: np.ndarray, d: int) -> np.ndarray:
    # vocoder_phase_rule on a complex128 array z at a checked D > 1.
    r = np.abs(z)
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
# Passes with fewer predicted atom-samples run their tiles in the caller,
# where the pool's threads would save little.  Of the error sweep's passes
# only A = 64 Hammersley (65,536 points, 2 tiles, 1.53M atom-samples) comes
# near the bound; its Monte Carlo passes stay under 0.4M.
# speech-reconstruct (8 tiles, 5.97M) and vocoder-cli (4 tiles, 2.98M) pool
# either way.  Pooling that pass, its two tiles on the caller and one
# thread (2-vCPU Xeon, three runs of 15 interleaved in-process rounds), took
# 0.038-0.048 s median against 0.035-0.043 s in the caller, and the whole
# sweep with that pass pooled 0.138-0.165 s against 0.131-0.158 s; the
# caller won in every run.
_POOL_MIN_ATOM_SAMPLES = 2_000_000

T = TypeVar("T")


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _map_tiles(task: Callable[[int], T], count: int, pooled: bool) -> Iterator[T]:
    # task(k) for k = 0 .. count-1, yielded in tile order.  Pooled, tile k
    # runs on worker k mod W, W = min(usable cores, count): worker 0 is the
    # caller, the others threads with one result slot each, which start a
    # tile once their last was taken and end with their last tile.  Most of
    # the kernel's numpy calls release the interpreter lock, but the
    # scatter, np.add.at, holds it: two threads each running np.add.at on
    # their own arrays used 1.3 CPU-seconds per wall-second on a 2-vCPU
    # Xeon, against 1.6-2.0 for np.take and np.vecdot, so two cores gain
    # well under twice.  All are joined before the last tile is yielded, so
    # their block scratch is gone before the last normalization, which in a
    # one-count pass builds H.  A task's error is raised here and ends the
    # pass.
    workers = min(_usable_cores(), count)
    if not pooled or workers < 2:
        yield from map(task, range(count))
        return
    slots: List[Optional[T]] = [None] * workers
    ready = [threading.Semaphore(0) for _ in range(workers)]  # a result in the slot
    taken = [threading.Semaphore(1) for _ in range(workers)]  # the slot empty
    stop = threading.Event()
    errors: List[BaseException] = []

    def work(w: int) -> None:
        for k in range(w, count, workers):
            taken[w].acquire()
            try:
                if not stop.is_set():  # no tile starts after an error
                    slots[w] = task(k)  # held by the slot alone
            except BaseException as exc:  # raised in the caller
                errors.append(exc)
                stop.set()
            ready[w].release()

    def take(k: int) -> T:
        w = k % workers
        if w:
            ready[w].acquire()
        if errors:
            raise errors[0]
        if not w:
            return task(k)
        result, slots[w] = slots[w], None
        taken[w].release()
        return result

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        for k in range(count - 1):
            yield take(k)
        last = take(count - 1)
    finally:
        stop.set()
        for w, thread in enumerate(threads, 1):
            taken[w].release(count)  # one per tile left; the thread waits on no other gate
            thread.join()
    yield last


def _analysis_synthesis(
    signal: DigitalSignal,
    params: LtftParams,
    counts: Sequence[int],
    kind: str,
    seed: int,
    padded: bool,
    rule: Optional[Rule] = None,
    dilation: int = 1,
) -> List[DigitalSignal]:
    # Analysis of the analytic signal on N points of the phase-space box,
    # the optional per-point rule, synthesis of atoms at (D*a, b, c) onto a
    # D*M grid, inverse-frame normalization at the output resolution, then
    # the real part, at each N of the ascending `counts`.  The sum is scaled
    # once by D times the cubature weight volume(analysis box)/N: the N
    # dilated centers cover a box D times larger, so the sum underweights
    # by 1/D (measured on pure tones).  At D = 1 this is reconstruction.
    #
    # The rows of an extensible kind (lds.extensible) are prefixes of one
    # sequence, so one pass serves every count.  Other sets depend on N, so
    # these take one pass per count.  A pass runs its points in tiles of
    # _TILE_POINTS consecutive indices; a tile's rows come straight from the
    # generator, are scaled onto the box in place, and core._tile_pass sums
    # them into one row per segment between the counts.  Each tile gives a
    # (grid index, sum rows) pair, and the rows are added in index order, so
    # the output does not depend on the thread count, bit for bit.
    checked = [_check_rows(kind, n, 3, seed) for n in counts]
    if not checked or any(a[0] >= b[0] for a, b in zip(checked, checked[1:])):
        raise InvalidParameterError("point counts must be a non-empty ascending list")
    counts, seed = [n for n, _, _ in checked], checked[0][2]
    dilation = _check_int("dilation", dilation, 1)
    rate = signal.sample_rate
    out_len = dilation * signal.m
    # The frame diagonal's rules, its grid's and its tables', refuse an
    # output past the budget before anything else is made; H itself is built
    # in run_pass.
    _check_grid(out_len, rate)
    _table_nodes(params, rate)
    box = PhaseSpaceBox.for_signal(signal, params, padded=padded)
    sig, unit = _analytic_at_unit(signal)
    sig = _analysis_input(sig, params)  # holding no second copy of the input
    if rule is None and dilation > 1:  # the vocoder's, on the scaled F
        # An analysis block's coefficients are finite complex128, and D is
        # checked, so each block skips the public rule's checks.
        rule = lambda z, a, b, c: _phase_power(z, dilation)
    else:
        rule = _in_units(rule, unit)
    # A tile's sum rows each span at most the output grid plus the analysis
    # input's guard band, which bounds every support, on each side.
    max_rows = max(1, _TILE_POINTS // (out_len + sig.size - signal.m))

    def run_pass(ns: List[int]) -> List[DigitalSignal]:
        n = ns[-1]
        edges = sorted({*range(0, n, _TILE_POINTS), *ns})
        tiles: List[Tuple[int, List[int]]] = []  # (first index, each row's end)
        for start, stop in zip(edges, edges[1:]):
            if start % _TILE_POINTS and len(tiles[-1][1]) < max_rows:
                tiles[-1][1].append(stop)
            else:
                tiles.append((start, [stop]))
        pooled = _predicted_atom_samples(params, rate, n) >= _POOL_MIN_ATOM_SAMPLES
        # H is built with no pool thread alive: after the tiles of a one-count
        # pass, whose one normalization follows its last tile, and before
        # those of a pass with more counts, whose first normalization falls
        # among them.  Before a pool's tiles, H's build leaves 4.6 MiB of the
        # caller's heap resident, which the threads, allocating from their
        # own malloc arenas, cannot reuse: `ltft vocoder -D 2` on 1 s at
        # 16 kHz peaked at 47.3 MiB RSS, against 45.1 with H after the tiles.
        # Among them its build stacks on their scratch: `ltft bench-error -M
        # 16000 --methods halton --redundancies 4,8,16`, one pooled pass,
        # peaked at 53.1 MiB, against 51.1 with H first.
        hd = frame_diagonal(params, rate, out_len, folded=True) if len(ns) > 1 else None

        def task(k: int) -> Tuple[int, np.ndarray]:
            start, ends = tiles[k]
            points = scale_rows(unit_point_rows(kind, n, 3, seed, start, ends[-1]), box)
            cuts = [end - start for end in ends[:-1]]
            return _tile_pass(sig, points, params, signal.m, rate, rule, dilation, cuts)

        raw = np.zeros(out_len, dtype=np.complex128)
        outputs = []
        for (lo, rows), (_, ends) in zip(_map_tiles(task, len(tiles), pooled), tiles):
            for row, end in zip(rows, ends):
                raw[lo : lo + row.size] += row
                if end not in ns:
                    continue
                if hd is None:
                    hd = frame_diagonal(params, rate, out_len, folded=True)
                normalized = apply_inverse_frame(DigitalSignal(raw, rate), hd).samples
                weight = dilation * box.volume / end * unit
                outputs.append(DigitalSignal(_times(normalized.real, weight), rate))
        return outputs

    passes = [counts] if extensible(kind) else [[n] for n in counts]
    return [out for ns in passes for out in run_pass(ns)]


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
    analytic form and the output), a call holds the points, block plan and
    partial sums of a few tiles of ``_TILE_POINTS`` points, whatever N is,
    and one block scratch per thread running tiles (2.62 MiB on 1 s of
    16 kHz audio at the default parameters): the caller's, plus, in a
    pooled pass, one per further usable core.  Tile k runs on worker k mod
    W, and a thread holds at most one tile not yet taken.  The threads end
    with their last tile, and their scratch with them; only then are the
    frame diagonal and its build's tables made, for the one normalization.
    The rule maps one atom block's coefficients at a time, so it adds
    nothing to that, and each block is built once.
    """
    return _analysis_synthesis(signal, params, [n], kind, seed, padded, rule=rule)[0]


def _rms_coefficient(signal: DigitalSignal, params: LtftParams, padded: bool) -> float:
    # sqrt(E / volume(box)) in input units (see denoise), from the pass's own
    # memoised folded H and the DFT of the analytic input at its unit.  np.sum,
    # not a BLAS dot: past 10^4 terms OpenBLAS wakes its threads, whose
    # spinning slowed the pass that follows by a third on two cores.
    hd = frame_diagonal(params, signal.sample_rate, signal.m, folded=True)
    sig, unit = _analytic_at_unit(signal)
    energy = float(np.sum(hd.h * np.abs(dft(sig).bins) ** 2)) * (signal.sample_rate / signal.m)
    box = PhaseSpaceBox.for_signal(signal, params, padded=padded)
    return math.sqrt(energy / box.volume) * unit


def denoise(
    signal: DigitalSignal,
    params: LtftParams,
    n: int,
    threshold: float,
    relative: bool = True,
    kind: str = "hammersley",
    seed: int = 0,
    padded: bool = False,
) -> DigitalSignal:
    """:func:`reconstruct` with the rule :func:`shrinkage` at lam = ``threshold``
    times the RMS coefficient when ``relative``, else at ``threshold``.

    The RMS coefficient sqrt(E / volume(box)) is exact: E, the integral of
    |F|^2 over the box, is sum_k H(w_k) |Z_k|^2 L/M by the frame identity,
    Z the DFT of the analytic input.  So lam is fixed before any tile and
    does not depend on N, and each atom block is built once.  A threshold
    that is negative or not finite is refused, and so, after the pass, is a
    positive one that zeroes every coefficient of a non-zero input.
    """
    shrinkage(threshold)
    lam = threshold * _rms_coefficient(signal, params, padded) if relative else threshold
    rule = shrinkage(min(lam, np.finfo(np.float64).max))  # an overflowed lam zeroes every |F|
    out = _analysis_synthesis(signal, params, [n], kind, seed, padded, rule=rule)[0]
    if threshold > 0 and not np.any(out.samples) and np.any(signal.samples):
        raise InvalidParameterError(f"threshold {threshold:g} zeroes every coefficient")
    return out


def phase_vocoder(signal: DigitalSignal, job: VocoderJob) -> DigitalSignal:
    """Time-stretch by an integer factor D, preserving frequency content.

    The vocoder is reconstruction with two changes: the coefficient rule
    raises each coefficient's phase to the D-th power
    (:func:`vocoder_phase_rule`), and synthesis places the atoms at
    (D*a, b, c) on a D*M grid.  The output has D*M samples.

    Memory: the phase rule acts on each coefficient alone, so the vocoder
    runs tile by tile like :func:`reconstruct`: a few signal-length arrays
    at the output length D*M, the point arrays, coefficients, block plans
    and partial sums of a few tiles, and one block scratch per thread
    running tiles (2.62 MiB at the default parameters), the caller's plus,
    pooled, one per further usable core, on the fixed schedule of
    :func:`reconstruct`, whose threads end before the frame diagonal at D*M
    is built for the one normalization; a tile's times are dilated in its
    own array.
    At D = 1 it is the round trip of :func:`reconstruct`.  At D > 1
    synthesis uses other atoms than analysis, so each atom block is built
    twice; the phase rule maps each analysis block's coefficients while that
    block is in hand, as at D = 1.
    """
    return _analysis_synthesis(
        signal, job.params, [job.sample_count(signal.m)], job.sequence, job.seed, job.padded,
        dilation=job.dilation,
    )[0]
