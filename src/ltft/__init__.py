"""Quasi-Monte Carlo time-frequency analysis toolkit.

Low-discrepancy sampling of a 3D time-frequency-oscillation phase space,
analysis/synthesis cubature for a hybrid STFT/wavelet atom family,
closed-form frame normalization, phase-space processing (multipliers,
shrinkage, an integer-dilation phase vocoder), and a benchmark harness.
"""

from .baselines import (
    CoverageReport,
    DwtGridParams,
    coverage_queries,
    discrepancy_scaling,
    dwt_grid,
    dwt_grid_with_size,
    funnel_coverage,
)
from .bench import (
    bench_reconstruction,
    complexity_count,
    complexity_per_point_bound,
    make_test_signal,
)
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
