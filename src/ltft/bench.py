"""Benchmark harness: test signals, error curves, and complexity accounting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .core import (
    DigitalSignal,
    LtftParams,
    SampleSet,
    _check_grid,
    _check_int,
    _guard_samples,
    _predicted_atom_samples,
    atom_support_length,
    relative_error,
)
from .errors import InvalidParameterError
from .lds import _check_rows, extensible, seeded
from .processing import _analysis_synthesis, sample_count

_NOISE_FLOOR_DB = -60.0


def make_test_signal(
    m: int, sample_rate: float, seed: int = 0, params: Optional[LtftParams] = None
) -> DigitalSignal:
    """Deterministic bench signal exercising both atom branches.

    Eight tones log-spaced across [2*b0, b1], two Gaussian-windowed chirps
    sweeping that band in opposite directions, and a seeded noise floor at
    -60 dB relative to the tone mix.
    """
    m, seed = _check_grid(m, sample_rate), _check_int("seed", seed, 0)
    if params is None:
        params = LtftParams.for_rate(sample_rate)
    rng = np.random.default_rng(seed)
    t = np.arange(-m // 2, m // 2) / sample_rate
    lo, hi = 2.0 * params.b0, params.b1
    freqs = np.geomspace(lo, hi, 8)
    phases = rng.uniform(0.0, 2.0 * np.pi, freqs.size)
    sig = np.zeros(m)
    for f, ph in zip(freqs, phases):
        sig += np.cos(2.0 * np.pi * f * t + ph)

    span = m / sample_rate
    for center, f_start, f_end in (
        (-span / 4.0, lo, hi),
        (span / 4.0, hi, lo),
    ):
        width = span / 16.0
        u = t - center
        rate = (f_end - f_start) / span
        env = 2.0 * np.exp(-0.5 * (u / width) ** 2)
        sig += env * np.cos(2.0 * np.pi * (f_start * u + 0.5 * rate * u**2))

    noise = rng.standard_normal(m)
    noise *= 10.0 ** (_NOISE_FLOOR_DB / 20.0) * np.std(sig) / np.std(noise)
    sig += noise

    # Raised-cosine edge taper over one maximal atom support: truncating a
    # full-amplitude tone at the interval edge leaks across the whole
    # spectrum, which would break the band-limited premise of the benches.
    taper = int(round(params.s0 * sample_rate))
    if 0 < taper <= m // 2:
        ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(taper) / taper))
        sig[:taper] *= ramp
        sig[-taper:] *= ramp[::-1]
    return DigitalSignal(sig / np.max(np.abs(sig)), sample_rate)


@dataclass
class ErrorRow:
    method: str
    redundancy: float
    n: int
    rel_error: float
    rel_error_std: float


def bench_reconstruction(
    signal: DigitalSignal,
    params: LtftParams,
    methods: Sequence[str],
    redundancies: Sequence[float],
    mc_seeds: Sequence[int] = tuple(range(10)),
    padded: bool = False,
) -> List[ErrorRow]:
    """Reconstruction error per method and redundancy.

    Error is the relative L2 distance between the input and the
    analyze/synthesize/inverse-frame output; Monte Carlo rows average over
    the given seeds and record the spread.  Every argument is checked
    before the first reconstruction.  Extensible rows (lds.extensible)
    are prefixes of one sequence, so one pass per seed over the largest N
    gives every row, each count a sum row of the tile it falls in, so the
    pass runs the same tiles as a single reconstruction at that N; a
    Hammersley set depends on N, so each row is a call.
    """
    if not all(1 <= a < np.inf for a in redundancies):
        raise InvalidParameterError("redundancies must be finite and >= 1")
    counts = [sample_count(signal.m, None, a, default=a) for a in redundancies]
    ladder = sorted(set(counts))
    mc_seeds = list(mc_seeds)
    for method in methods:
        if seeded(method) and not mc_seeds:
            raise InvalidParameterError(f"{method} needs at least one seed")
        for seed in mc_seeds if seeded(method) else (0,):
            _check_rows(method, max(ladder, default=1), 3, seed)
    if not ladder:
        return []
    rows: List[ErrorRow] = []
    for method in methods:
        passes = [ladder] if extensible(method) else [[n] for n in ladder]
        errs: Dict[int, List[float]] = {n: [] for n in ladder}
        for seed in mc_seeds if seeded(method) else (0,):
            for ns in passes:
                outs = _analysis_synthesis(signal, params, ns, method, seed, padded)
                for n, out in zip(ns, outs):
                    errs[n].append(relative_error(out, signal))
        rows += [
            ErrorRow(method, a, n, float(np.mean(errs[n])), float(np.std(errs[n])))
            for a, n in zip(redundancies, counts)
        ]
    return rows


def complexity_count(
    samples: SampleSet, params: LtftParams, sample_rate: float
):
    """Actual atom-sample total against the cubature prediction.

    Returns (C_actual, A_predicted) with C = sum round(L * S(b_n)) and
    A = gamma * N * (1 + ln(b1/b0) + (L - b1)/b1).  Supports that no run on
    the grid of the samples' box could use raise BudgetExceededError.
    """
    _guard_samples(params, sample_rate, (samples.box.t_hi - samples.box.t_lo) * sample_rate)
    supports = atom_support_length(params, samples.b)
    c_actual = int(np.round(sample_rate * supports).sum())
    return c_actual, _predicted_atom_samples(params, sample_rate, samples.n)


def complexity_per_point_bound(params: LtftParams, sample_rate: float) -> float:
    """Uniform bound on C/N: the predicted atom-samples of one point, plus one."""
    return _predicted_atom_samples(params, sample_rate, 1) + 1.0
