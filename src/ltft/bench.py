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
    _check_rate,
    _guard_samples,
    _predicted_atom_samples,
    atom_support_length,
    relative_error,
)
from .errors import InvalidParameterError
from .lds import _check_rows, seeded
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
    span = m / sample_rate  # past these spans a chirp's u**2 or its rate ~L/span overflows
    if not 1e-150 <= span <= 1e150:
        raise InvalidParameterError(
            f"rate {sample_rate:g} Hz spans {m} samples in {span:g} s, not in [1e-150, 1e150] s"
        )
    if params is None:
        params = LtftParams.for_rate(sample_rate)
    if not params.b1 <= sample_rate:  # the tones and chirps run up to b1
        raise InvalidParameterError(f"b1 = {params.b1:g} Hz exceeds the rate {sample_rate:g} Hz")
    rng = np.random.default_rng(seed)
    t = np.arange(-m // 2, m // 2) / sample_rate
    lo, hi = 2.0 * params.b0, params.b1
    freqs = np.geomspace(lo, hi, 8)
    phases = rng.uniform(0.0, 2.0 * np.pi, freqs.size)
    sig = np.zeros(m)
    for f, ph in zip(freqs, phases):
        sig += np.cos(2.0 * np.pi * f * t + ph)

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
    before the first reconstruction.  Each method and seed is one pipeline
    call over every count, which plans its own passes: one in all for
    extensible rows (lds.extensible), each count a sum row of the tile it
    falls in, and one per count for a Hammersley set, which depends on N.
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
        errs: Dict[int, List[float]] = {n: [] for n in ladder}
        for seed in mc_seeds if seeded(method) else (0,):
            outs = _analysis_synthesis(signal, params, ladder, method, seed, padded)
            for n, out in zip(ladder, outs):
                errs[n].append(relative_error(out, signal))
        rows += [
            ErrorRow(method, a, n, float(np.mean(errs[n])), float(np.std(errs[n])))
            for a, n in zip(redundancies, counts)
        ]
    return rows


def complexity_count(
    samples: SampleSet, params: LtftParams, sample_rate: float
):
    """The support model's atom-sample total against the cubature prediction.

    Returns (C, A_predicted) with C = sum round(L * S(b_n)) and
    A = gamma * N * (1 + ln(b1/b0) + (L - b1)/b1).  C models the work; it is
    not the sampled operator's own count, which leaves out atoms with no
    sample on the grid and counts the grid points inside each support (C
    was 0.984-1.0004 times that count for Hammersley, Halton and MC points
    at N = 256-16384, L = 64 and 16000).  A rate outside (0, inf) raises InvalidParameterError,
    and supports that no run on the grid of the samples' box could use raise
    BudgetExceededError.
    """
    _check_rate(sample_rate)
    _guard_samples(params, sample_rate, (samples.box.t_hi - samples.box.t_lo) * sample_rate)
    supports = atom_support_length(params, samples.b)
    c_model = int(np.round(sample_rate * supports).sum())
    return c_model, _predicted_atom_samples(params, sample_rate, samples.n)


def complexity_per_point_bound(params: LtftParams, sample_rate: float) -> float:
    """Uniform bound on C/N: the largest count one atom can have, round(L * S0).

    Every atom's round(L * S(b)) is at most this, because S(b) <= S0.  A
    rate outside (0, inf) raises InvalidParameterError.
    """
    _check_rate(sample_rate)
    return float(np.round(sample_rate * params.s0))
