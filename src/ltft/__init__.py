"""Quasi-Monte Carlo time-frequency analysis toolkit.

Low-discrepancy sampling of a 3D time-frequency-oscillation phase space,
analysis/synthesis cubature for a hybrid STFT/wavelet atom family,
closed-form frame normalization, phase-space processing (multipliers,
shrinkage, an integer-dilation phase vocoder), and a benchmark harness.

The names of the comparison baselines (:mod:`ltft.baselines`:
``CoverageReport``, ``DwtGridParams``, ``coverage_queries``,
``discrepancy_scaling``, ``dwt_grid``, ``dwt_grid_with_size``,
``funnel_coverage``) and of the benchmark harness (:mod:`ltft.bench`:
``bench_reconstruction``, ``complexity_count``,
``complexity_per_point_bound``, ``make_test_signal``) load on first access,
so a process that only transforms or processes audio never imports those
two modules.  Each such name is the module's own object and is listed by
``dir(ltft)``.
"""

from importlib import import_module as _import_module

from .core import (
    CoefficientVector,
    DigitalSignal,
    LtftParams,
    PhaseSpaceBox,
    SampleSet,
    Spectrum,
    WindowSpec,
    analyze,
    atom_support_length,
    dft,
    from_analytic,
    idft,
    ltft_atom_freq,
    relative_error,
    synthesize,
    to_analytic,
)
from .errors import (
    BudgetExceededError,
    InvalidParameterError,
    LtftError,
    ParseError,
    UnsupportedDimensionError,
    UnsupportedFormatError,
)
from .frame import (
    FrameDiagonal,
    apply_inverse_frame,
    frame_diagonal,
    frame_diagonal_oracle,
)
from .lds import (
    UnitPointSet,
    generate_unit_points,
    radical_inverse,
    scale_to_box,
    star_discrepancy,
    star_discrepancy_scan,
)
from .processing import (
    VocoderJob,
    denoise,
    phase_vocoder,
    reconstruct,
    shrinkage,
    vocoder_phase_rule,
)
from .wavio import WavAudio, wav_read, wav_write

__version__ = "0.1.0"

# Name -> the submodule that defines it, imported on first access.
_LAZY = {
    **dict.fromkeys(
        (
            "CoverageReport",
            "DwtGridParams",
            "coverage_queries",
            "discrepancy_scaling",
            "dwt_grid",
            "dwt_grid_with_size",
            "funnel_coverage",
        ),
        "baselines",
    ),
    **dict.fromkeys(
        (
            "bench_reconstruction",
            "complexity_count",
            "complexity_per_point_bound",
            "make_test_signal",
        ),
        "bench",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
