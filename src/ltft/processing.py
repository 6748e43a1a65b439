"""Phase-space signal processing on sampled transform coefficients.

Multipliers scale each coefficient by a symbol evaluated at its phase-space
point; pointwise nonlinearities act on coefficient values alone (e.g. soft
thresholding for shrinkage denoising); the integer-dilation phase vocoder
moves atoms to (D*a, b, c) while raising coefficient phases to the D-th
power, stretching time without dilating frequency content.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    CoefficientVector,
    DigitalSignal,
    LtftParams,
    PhaseSpaceBox,
    SampleSet,
    _round_trip,
    analyze,
    from_analytic,
    synthesize,
    to_analytic,
)
from .errors import BudgetExceededError, InvalidParameterError
from .frame import apply_inverse_frame, frame_diagonal
from .lds import generate_unit_points, scale_to_box

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


def _analysis_synthesis(
    signal: DigitalSignal, params: LtftParams, samples: SampleSet, transform, dilation: int
) -> DigitalSignal:
    # Analysis of the analytic signal, the optional coefficient transform,
    # synthesis of atoms at (D*a, b, c) onto a D*M grid, inverse-frame
    # normalization at the output resolution, then the real part.  The
    # output is scaled by D to compensate the thinned density of synthesis
    # centers: the cubature weight stays volume(analysis box)/N while the N
    # dilated centers cover a box D times larger, so the sum underweights
    # by 1/D (measured on pure tones).  At D = 1 this is reconstruction.
    #
    # Plain reconstruction (no transform, D = 1) synthesizes the very atoms
    # it analysed, so it takes the one-pass round trip, which builds each
    # atom block once and gives the same bits.  A transform needs every
    # coefficient before synthesis starts, and at D > 1 synthesis uses other
    # atoms, so those runs analyse, transform and synthesize in turn.
    out_len = dilation * signal.m
    rate = signal.sample_rate
    if transform is None and dilation == 1:
        raw = _round_trip(to_analytic(signal), samples, params)
    else:
        coeffs = analyze(to_analytic(signal), samples, params)
        if transform is not None:
            coeffs = transform(coeffs, samples)
        out_samples = samples.with_dilated_times(float(dilation))
        raw = synthesize(coeffs, out_samples, params, out_len, rate)
    hd = frame_diagonal(params, rate, out_len, folded=True)
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
    """
    samples = sample_phase_space(signal, params, n, kind, seed, padded)
    return _analysis_synthesis(signal, params, samples, transform, 1)


def phase_vocoder(signal: DigitalSignal, job: VocoderJob) -> DigitalSignal:
    """Time-stretch by an integer factor D, preserving frequency content.

    The vocoder is reconstruction with two changes: the coefficient
    transform raises each coefficient's phase to the D-th power
    (:func:`vocoder_phase_rule`), and synthesis places the atoms at
    (D*a, b, c) on a D*M grid.  The output has D*M samples.
    """
    d = int(job.dilation)
    out_len = d * signal.m
    if out_len > _MAX_OUTPUT_SAMPLES:
        raise BudgetExceededError(f"output of {out_len} samples exceeds the budget")
    samples = sample_phase_space(
        signal, job.params, job.sample_count(signal.m), job.sequence, job.seed, job.padded
    )

    def phase_rule(coeffs: CoefficientVector, _samples: SampleSet) -> CoefficientVector:
        return pointwise_nonlinearity(coeffs, lambda z: vocoder_phase_rule(z, d))

    return _analysis_synthesis(signal, job.params, samples, phase_rule, d)
