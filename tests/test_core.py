import math
import os
import sys
import threading
import time
import tracemalloc
import types
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ltft import (
    BudgetExceededError,
    CoefficientVector,
    DigitalSignal,
    InvalidParameterError,
    LtftParams,
    PhaseSpaceBox,
    VocoderJob,
    WindowSpec,
    analyze,
    atom_support_length,
    dft,
    frame_diagonal,
    from_analytic,
    idft,
    make_test_signal,
    phase_vocoder,
    relative_error,
    synthesize,
    to_analytic,
)
from ltft import core, processing
from ltft.core import SampleSet, _atom_blocks, _block_atoms
from ltft.lds import generate_unit_points, scale_rows, scale_to_box, unit_point_rows
from ltft.processing import reconstruct, shrinkage
from oracles import ltft_atom_freq, window_time

RATE = 64.0


def _round_trip(signal, samples, params, rule=None):
    # The one-pass round trip over one sample set on the signal's own grid.
    rate = signal.sample_rate
    points = samples.points
    lo, (tile,) = core._tile_pass(core._analysis_input(signal, params), points, params,
                                  signal.m, rate, rule)
    out = np.zeros(signal.m, dtype=np.complex128)
    out[lo : lo + tile.size] = tile * (samples.box.volume / samples.n)
    return DigitalSignal(out, rate)


def _dense_atom(params, point, m, rate=RATE):
    # The atom at one point on an m-sample grid, from the shipped operator:
    # the synthesis of one unit coefficient at weight 1.0.
    half = abs(point[0]) + 1.0
    box = PhaseSpaceBox(t_lo=-half, t_hi=half, freq_hi=rate)
    one = SampleSet(np.array([point]), box=box, generator="regular")
    return synthesize(CoefficientVector(np.ones(1), weight=1.0), one, params, m, rate).samples


def _low_pass(values, a, b, c):
    return values * (b < 12.0).astype(float)


# ---------------------------------------------------------------------------
# window
# ---------------------------------------------------------------------------


def test_window_vanishes_smoothly_at_edges():
    assert window_time(0.5) == 0.0 and window_time(-0.5) == 0.0
    # value and first two derivatives tend to zero approaching the edge
    h = 1e-4
    x = 0.5 - 2 * h
    assert abs(window_time(x)) < 1e-12
    d1 = (window_time(x + h) - window_time(x - h)) / (2 * h)
    d2 = (window_time(x + h) - 2 * window_time(x) + window_time(x - h)) / h**2
    assert abs(d1) < 1e-7
    assert abs(d2) < 1e-2  # third power of h remains in cos^4


def test_window_unit_energy_midpoint_quadrature():
    k = 1 << 14
    t = (np.arange(k) + 0.5) / k - 0.5
    assert abs(np.sum(window_time(t) ** 2) / k - 1.0) <= 1e-8


def test_window_peak_at_zero():
    t = np.linspace(-0.6, 0.6, 1201)
    assert window_time(0.0) == np.max(np.abs(window_time(t)))


def test_window_unknown_kind():
    with pytest.raises(InvalidParameterError):
        LtftParams.for_rate(RATE, window_kind="boxcar")


def test_window_spectrum_matches_cosine_sum():
    # Independent closed form: cos^4 is a 3-term cosine sum, so the
    # spectrum is a 6-term sinc sum.
    w = WindowSpec()
    c = np.sqrt(128.0 / 35.0)

    def ref(nu):
        return c * (
            3.0 / 8.0 * np.sinc(nu)
            + 1.0 / 4.0 * (np.sinc(nu - 1) + np.sinc(nu + 1))
            + 1.0 / 16.0 * (np.sinc(nu - 2) + np.sinc(nu + 2))
        )

    nu = np.linspace(-30.0, 30.0, 4001)
    assert np.max(np.abs(w.freq(nu) - ref(nu))) < 5e-6


def test_window_table_is_the_unchunked_sum_at_a_small_peak():
    # The table sums its five sinc terms a chunk of nodes at a time, so no
    # temporary is signal-table sized; each node gets the same bits as the
    # whole-array sum.  Whole-array temporaries peaked at 2.25 MiB.
    import tracemalloc

    from ltft.core import _COS4_NORM, _COS4_TERMS

    w = WindowSpec()
    tracemalloc.start()
    try:
        grid, vals = w._freq_table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    freqs = np.arange(-24576, 24577) * (1.0 / 256.0)
    table = np.zeros_like(freqs)
    for j, weight in zip(range(-2, 3), _COS4_TERMS):
        table += weight * np.sinc(freqs - j)
    assert np.array_equal(grid, freqs)
    assert np.array_equal(vals, _COS4_NORM * table)
    assert peak < 1.25 * 2**20


def test_window_table_matches_direct_midpoint_sum():
    # The table's nodes are the closed-form transform, at nu = m / 256.  The
    # midpoint-rule DFT of the window over 8192 samples equals it to rounding
    # (the window is C^3 with vanishing edge derivatives), so it is an
    # independent check of the nodes.  Summed directly with math.fsum, the
    # phase nu * t_n = m (2n + 1 - k) / 2**22 cycles is reduced exactly in
    # integers.
    w = WindowSpec()
    grid, vals = w._freq_table
    assert np.array_equal(grid, np.arange(-24576, 24577) / 256)
    k = 8192
    n = np.arange(k, dtype=np.int64)
    samples = window_time((n + 0.5) / k - 0.5)
    special = [0, 1, -1, 256, -256, 512, -512, 24576, -24576]
    spread = np.random.default_rng(0).integers(-24576, 24577, size=191)
    for m in special + spread.tolist():
        cycles = (m * (2 * n + 1 - k)) % (1 << 22) / float(1 << 22)
        direct = math.fsum(samples * np.cos(2.0 * np.pi * cycles)) / k
        assert abs(vals[m + 24576] - direct) <= 1e-15, m


# ---------------------------------------------------------------------------
# signals, dft, analytic form
# ---------------------------------------------------------------------------


def test_signal_validation():
    with pytest.raises(InvalidParameterError):
        DigitalSignal(np.zeros(5), RATE)
    with pytest.raises(InvalidParameterError):
        DigitalSignal(np.zeros(2), RATE)
    with pytest.raises(InvalidParameterError):
        DigitalSignal(np.zeros(8), -1.0)


def test_signal_infinite_rate_is_invalid():
    with pytest.raises(InvalidParameterError):
        DigitalSignal(np.zeros(8), np.inf)


def test_signal_nan_sample_is_invalid():
    x = np.zeros(8)
    x[3] = np.nan
    with pytest.raises(InvalidParameterError):
        DigitalSignal(x, RATE)


def test_signal_infinite_sample_is_invalid():
    x = np.zeros(8, dtype=complex)
    x[5] = complex(0.0, np.inf)
    with pytest.raises(InvalidParameterError):
        DigitalSignal(x, RATE)


def test_params_nan_gamma_is_invalid():
    with pytest.raises(InvalidParameterError):
        LtftParams.for_rate(RATE, gamma=np.nan)


def test_params_infinite_xi_is_invalid():
    with pytest.raises(InvalidParameterError):
        LtftParams.for_rate(RATE, xi=np.inf)


@pytest.mark.parametrize(
    "make",
    [lambda xi: LtftParams(b0=0.1 * RATE, b1=0.4 * RATE, xi=xi),
     lambda xi: LtftParams.for_rate(RATE, xi=xi)],
    ids=["init", "for_rate"],
)
def test_params_xi_below_its_floor_is_invalid(make):
    # Below xi = 1e-9 the frame diagonal loses digits as 1/xi; the floor
    # itself is accepted.
    for xi in (1e-300, 5e-10):
        with pytest.raises(InvalidParameterError, match="at least 1e-9"):
            make(xi)
    assert make(1e-9).xi == 1e-9


def test_dft_round_trip():
    rng = np.random.default_rng(3)
    sig = DigitalSignal(rng.standard_normal(128) + 1j * rng.standard_normal(128), RATE)
    back = idft(dft(sig))
    assert np.max(np.abs(back.samples - sig.samples)) < 1e-12
    spec = dft(sig)
    again = dft(idft(spec))
    assert np.max(np.abs(again.bins - spec.bins)) < 1e-12 * np.max(np.abs(spec.bins))


def test_dft_constant_signal():
    sig = DigitalSignal(np.full(64, 2.0), RATE)
    spec = dft(sig)
    assert np.argmax(np.abs(spec.bins)) == 0
    assert np.max(np.abs(spec.bins[1:])) < 1e-12


def test_dft_pure_tone_single_bin():
    m, k = 128, 11
    t = np.arange(-m // 2, m // 2) / RATE
    sig = DigitalSignal(np.exp(2j * np.pi * (k * RATE / m) * t), RATE)
    bins = dft(sig).bins
    assert abs(bins[k] - m / RATE) < 1e-10
    others = np.delete(np.abs(bins), k)
    assert others.max() < 1e-10


def test_analytic_round_trip_and_magnitude():
    m = 256
    t = np.arange(-m // 2, m // 2) / RATE
    s = DigitalSignal(np.cos(2 * np.pi * 12.0 * t + 0.4), RATE)
    analytic = to_analytic(s)
    back = from_analytic(analytic)
    assert np.max(np.abs(back.samples - s.samples)) < 1e-10
    # cosine becomes a unit-magnitude complex tone
    assert np.allclose(np.abs(analytic.samples), 1.0, atol=1e-10)
    zero = to_analytic(DigitalSignal(np.zeros(16), RATE))
    assert np.all(zero.samples == 0)


def test_to_analytic_rejects_complex():
    with pytest.raises(InvalidParameterError):
        to_analytic(DigitalSignal(np.full(8, 1j), RATE))


@pytest.mark.parametrize(
    "amplitude", [2.0**1020, 1e307, 1.7e308, 1e-310], ids=["2^1020", "1e307", "1.7e308", "1e-310"]
)
def test_to_analytic_takes_every_finite_amplitude(amplitude):
    # Past a peak of 2^500 the bins are taken at a peak below 2: a sum of
    # 1e307 samples overflowed the FFT, and the input was then refused as
    # not finite.
    m = 256
    t = np.arange(-m // 2, m // 2) / RATE
    unit = to_analytic(DigitalSignal(np.cos(2 * np.pi * 12.0 * t + 0.4), RATE)).samples
    scaled = to_analytic(DigitalSignal(amplitude * np.cos(2 * np.pi * 12.0 * t + 0.4), RATE))
    assert np.all(np.isfinite(scaled.samples))
    if amplitude == 2.0**1020:  # a power-of-two scale moves no bit
        assert np.array_equal(scaled.samples, unit * amplitude)
    tol = 1e-14 * amplitude if amplitude > 1e-300 else 1e-9 * amplitude
    assert np.max(np.abs(scaled.samples - unit * amplitude)) <= tol


def test_to_analytic_refuses_a_result_past_the_float_range():
    # A square wave's analytic extension peaks about (2/pi) ln M above the
    # wave: at 1.7e308 its imaginary part is past the largest double.
    wave = np.where(np.arange(256) < 128, 1.7e308, -1.7e308)
    with pytest.raises(InvalidParameterError, match="overflows"):
        to_analytic(DigitalSignal(wave, RATE))


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------


def test_support_length_branches(params):
    g = params.gamma
    assert atom_support_length(params, params.b0 / 2) == pytest.approx(g / params.b0)
    assert atom_support_length(params, params.b1) == pytest.approx(g / params.b1)
    below = atom_support_length(params, params.b0 * (1 - 1e-9))
    above = atom_support_length(params, params.b0 * (1 + 1e-9))
    assert below == pytest.approx(above, rel=1e-6)
    with pytest.raises(InvalidParameterError):
        atom_support_length(params, -1.0)


def test_support_length_refuses_complex_frequencies(params):
    # 10 + 1j was taken as 10, with only a ComplexWarning.
    with pytest.raises(InvalidParameterError, match="real"):
        atom_support_length(params, [10 + 1j])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_frequencies_are_refused(params, bad):
    # Neither the support length nor the spectrum takes a non-finite
    # coordinate, where it would give NaN or a wrong finite value.
    grid = np.arange(8) * (RATE / 8)
    with pytest.raises(InvalidParameterError, match="finite"):
        atom_support_length(params, bad)
    with pytest.raises(InvalidParameterError, match="finite"):
        atom_support_length(params, np.array([1.0, bad]))
    with pytest.raises(InvalidParameterError, match="finite"):
        ltft_atom_freq(params, bad, 0.5, grid)
    with pytest.raises(InvalidParameterError, match="finite"):
        ltft_atom_freq(params, 10.0, bad, grid)


@pytest.mark.parametrize("ratio,tol", [(4, 0.10), (8, 0.04), (16, 0.02)])
def test_atom_norm_tolerance_ladder(ratio, tol):
    rate = 64.0
    p = LtftParams.for_rate(rate, b0_frac=1.0 / (4 * ratio), b1_frac=1.0 / ratio)
    for b in np.linspace(p.b0 / 2, rate / 2, 7):
        for c in (0.0, 0.5, 1.0):
            atom = _dense_atom(p, (0.0, float(b), c), 4096, rate)
            norm = np.sqrt(np.sum(np.abs(atom) ** 2) / rate)
            assert abs(norm - 1.0) <= tol


def test_atom_oscillation_count(params):
    # c = 0 wavelet atom: gamma cycles across the support, so the real
    # part crosses zero close to 2*gamma times.
    for b in (8.0, 12.0, 20.0):
        signs = np.sign(np.real(_dense_atom(params, (0.0, b, 0.0), 4096)))
        signs = signs[signs != 0]
        crossings = int(np.sum(signs[1:] != signs[:-1]))
        assert abs(crossings - 2 * params.gamma) <= 1


def test_atom_grid_shift_exact(params):
    base = _dense_atom(params, (0.125, 14.0, 0.5), 512)
    moved = _dense_atom(params, (0.125 + 16 / RATE, 14.0, 0.5), 512)
    assert np.any(base)
    assert np.array_equal(moved, np.roll(base, 16))


def test_atom_outside_grid_is_empty(params):
    assert not np.any(_dense_atom(params, (100.0, 12.0, 0.0), 64))


def test_atom_freq_peak_and_parseval(params):
    m = 2048
    freqs = np.arange(m) * (RATE / m)
    b, c = 14.0, 0.5
    spec = ltft_atom_freq(params, b, c, freqs)
    expected = ((params.xi / params.gamma) * c + 1.0) * b
    peak = freqs[np.argmax(np.abs(spec))]
    assert abs(peak - expected) <= RATE / m
    atom = _dense_atom(params, (0.0, b, c), m)
    direct = dft(DigitalSignal(atom, RATE)).bins
    time_energy = np.sum(np.abs(atom) ** 2) / RATE
    freq_energy = np.sum(np.abs(spec) ** 2) * (RATE / m)
    assert abs(freq_energy - time_energy) <= 0.01 * time_energy
    # the tabulated-spectrum atom matches the DFT of the sampled atom
    assert np.max(np.abs(np.abs(direct) - np.abs(spec))) < 0.02 * np.max(np.abs(spec))


def test_atom_freq_disjoint_support(params):
    b = params.b1 * 2.5  # far above b1 plus window bandwidth
    val = ltft_atom_freq(params, b, 0.0, np.array([0.0]))
    assert abs(val[0]) < 1e-12


# ---------------------------------------------------------------------------
# analysis / synthesis
# ---------------------------------------------------------------------------


def _toy_setup(params, m=512, n=256):
    sig = DigitalSignal(np.zeros(m), RATE)
    box = PhaseSpaceBox.for_signal(sig, params)
    samples = scale_to_box(generate_unit_points("hammersley", n, 3, 0), box)
    return sig, samples


def test_analyze_zero_signal(params):
    sig, samples = _toy_setup(params)
    coeffs = analyze(sig, samples, params)
    assert np.all(coeffs.values == 0)
    assert coeffs.weight == pytest.approx(samples.box.volume / samples.n)


def test_analysis_that_overflows_is_refused_once(params):
    # A finite input near the float range: numpy warned of the overflow in
    # the block loop (an error under the test configuration), and the
    # non-finite coefficients were returned.  The analysis refuses them,
    # naming the overflow.
    sig = DigitalSignal(np.full(256, 1e308), RATE)
    box = PhaseSpaceBox.for_signal(sig, params)
    samples = scale_to_box(generate_unit_points("hammersley", 256, 3), box)
    with pytest.raises(InvalidParameterError, match="analysis overflows"):
        analyze(sig, samples, params)


def test_analyze_self_inner_product(params):
    point = (0.55, 13.0, 0.4)
    sig = DigitalSignal(_dense_atom(params, point, 1024), RATE)
    box = PhaseSpaceBox.for_signal(sig, params)
    samples = SampleSet(np.array([point]), box=box, generator="regular")
    value = analyze(sig, samples, params).values[0]
    assert abs(value - 1.0) <= 0.02


def test_analyze_translation_covariance_bitexact(params):
    # Power-of-two rate and grid-aligned times keep every float operation
    # identical between the shifted and unshifted evaluations.
    m = 512
    rng = np.random.default_rng(11)
    bump = np.zeros(m)
    bump[180:260] = rng.standard_normal(80)
    sig = DigitalSignal(bump, RATE)
    shift_samples = 32
    delta = shift_samples / RATE
    shifted = DigitalSignal(np.roll(bump, shift_samples), RATE)
    box = PhaseSpaceBox.for_signal(sig, params)
    a0 = 0.25  # grid-aligned: 16/64
    pts = np.array([[a0, 12.0, 0.3], [a0, 22.0, 0.8], [a0, 3.0, 0.1]])
    pts_shifted = pts.copy()
    pts_shifted[:, 0] += delta
    base = analyze(
        sig, SampleSet(pts, box=box, generator="regular"), params
    ).values
    moved = analyze(
        shifted, SampleSet(pts_shifted, box=box, generator="regular"), params
    ).values
    assert np.array_equal(base, moved)


def test_analyze_linearity(params, tapered_tone):
    m = 512
    x1 = tapered_tone(m, freqs=(9.0,))
    x2 = tapered_tone(m, freqs=(17.0,))
    box = PhaseSpaceBox.for_signal(x1, params)
    samples = scale_to_box(generate_unit_points("hammersley", 400, 3, 0), box)
    alpha, beta = 1.7, -0.45 + 0.3j
    mix = DigitalSignal(alpha * x1.samples + beta * x2.samples, RATE)
    direct = analyze(mix, samples, params).values
    combo = alpha * analyze(x1, samples, params).values + beta * analyze(
        x2, samples, params
    ).values
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(direct - combo)) <= 1e-12 * max(scale, 1.0)


def test_synthesize_zero_and_single_atom(params):
    sig, samples = _toy_setup(params, n=64)
    zeros = CoefficientVector(np.zeros(samples.n, complex), weight=samples.box.volume / samples.n)
    out = synthesize(zeros, samples, params, sig.m, RATE)
    assert np.all(out.samples == 0)

    box = samples.box
    one_point = SampleSet(np.array([[0.25, 14.0, 0.5]]), box=box, generator="regular")
    coeff = CoefficientVector(np.array([1.0 + 0j]), weight=box.volume / 1)
    out = synthesize(coeff, one_point, params, sig.m, RATE)
    atom = _naive_atom(params, 0.25, 14.0, 0.5, (np.arange(sig.m) - sig.m // 2) / RATE)
    assert np.max(np.abs(out.samples - box.volume * atom)) < 1e-12 * box.volume


def test_synthesize_linearity(params):
    sig, samples = _toy_setup(params, n=128)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(samples.n) + 1j * rng.standard_normal(samples.n)
    g = rng.standard_normal(samples.n) + 1j * rng.standard_normal(samples.n)
    w = samples.box.volume / samples.n
    alpha, beta = 0.3 - 1.1j, 2.2
    direct = synthesize(
        CoefficientVector(alpha * f + beta * g, w), samples, params, sig.m, RATE
    ).samples
    combo = (
        alpha * synthesize(CoefficientVector(f, w), samples, params, sig.m, RATE).samples
        + beta * synthesize(CoefficientVector(g, w), samples, params, sig.m, RATE).samples
    )
    assert np.max(np.abs(direct - combo)) <= 1e-12 * np.max(np.abs(direct))


def test_adjointness_identity(params, tapered_tone):
    # <synthesize(F), s> = w * sum_n F_n * conj(analyze(s)_n)
    m = 512
    s = tapered_tone(m)
    box = PhaseSpaceBox.for_signal(s, params)
    samples = scale_to_box(generate_unit_points("hammersley", 300, 3, 0), box)
    rng = np.random.default_rng(9)
    f = rng.standard_normal(samples.n) + 1j * rng.standard_normal(samples.n)
    w = samples.box.volume / samples.n
    synth = synthesize(CoefficientVector(f, w), samples, params, m, RATE)
    lhs = np.sum(synth.samples * np.conj(s.samples)) / RATE
    rhs = w * np.sum(f * np.conj(analyze(s, samples, params).values))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_branch_continuity(params, tapered_tone):
    m = 512
    s = tapered_tone(m)
    box = PhaseSpaceBox.for_signal(s, params)

    def coeff(b):
        pts = np.array([[0.125, b, 0.5]])
        return analyze(s, SampleSet(pts, box=box, generator="regular"), params).values[0]

    for edge in (params.b0, params.b1):
        d3 = abs(coeff(edge + 1e-3) - coeff(edge - 1e-3))
        d6 = abs(coeff(edge + 1e-6) - coeff(edge - 1e-6))
        assert d6 < d3
        assert d6 <= 1e-4


def test_reconstruction_error_at_redundancy_16(params, tapered_tone):
    m = 1024
    s = tapered_tone(m)
    out = reconstruct(s, params, 16 * m, "hammersley")
    assert relative_error(out, s) <= 0.1


def test_analyze_box_rate_guard(params):
    sig = DigitalSignal(np.zeros(64), RATE)
    box = PhaseSpaceBox(t_lo=-0.5, t_hi=0.5, freq_hi=2 * RATE)
    samples = SampleSet(np.array([[0.0, 1.0, 0.0]]), box=box, generator="regular")
    with pytest.raises(InvalidParameterError):
        analyze(sig, samples, params)


@pytest.mark.parametrize(
    "bad",
    [
        LtftParams(b0=1e-300, b1=1.0),
        LtftParams(b0=0.1 * RATE, b1=0.4 * RATE, gamma=1e300),
        LtftParams(b0=1e-10, b1=0.4 * RATE, gamma=1e300),  # S0 * L overflows to inf
    ],
    ids=["b0", "gamma", "inf"],
)
def test_unbounded_support_is_budget_exceeded(bad):
    # The frame table and the analysis input's guard band grow with the
    # longest support S0 = gamma/b0; both are refused before they allocate.
    sig = DigitalSignal(np.zeros(64), RATE)
    samples = SampleSet(np.array([[0.0, 1.0, 0.0]]), PhaseSpaceBox.for_signal(sig, bad), "regular")
    with pytest.raises(BudgetExceededError):
        frame_diagonal(bad, RATE, 64)
    with pytest.raises(BudgetExceededError):
        analyze(sig, samples, bad)


def test_a_grid_past_the_signal_budget_is_refused_before_it_is_made(params):
    # The grid rule caps every signal length: a grid of 2**44 samples would
    # take 256 TiB, so each entry point refuses it before making anything.
    one = SampleSet(np.zeros((1, 3)), PhaseSpaceBox(t_lo=-1.0, t_hi=1.0, freq_hi=RATE), "mc")
    coeffs = CoefficientVector(np.ones(1), weight=1.0)
    for make in (
        lambda: synthesize(coeffs, one, params, 2**44, RATE),
        lambda: frame_diagonal(params, RATE, 2**44),
        lambda: make_test_signal(2**44, RATE),
    ):
        with pytest.raises(BudgetExceededError, match="grid of 17592186044416 samples"):
            make()


def test_synthesis_takes_the_support_budget_of_analysis(monkeypatch):
    # At b0 = 0.08 the longest support is S0 * L = 4800 samples: under a cap
    # of 4096 analysis refuses its guard band, and synthesis refuses the same
    # supports before any atom is planned.  At b0 = 1e-300 synthesis planned
    # atoms whose support edges, 6e300 samples, overflowed the int64 cast.
    monkeypatch.setattr(core, "_MAX_SIGNAL_SAMPLES", 4096)
    planned = []
    monkeypatch.setattr(core, "_atom_blocks", lambda *args: planned.append(args) or [])
    box = PhaseSpaceBox(t_lo=-2.0, t_hi=2.0, freq_hi=RATE)
    two = SampleSet(np.array([[-1.0, 3.0, 0.2], [1.5, 40.0, 0.7]]), box, "mc")
    coeffs = CoefficientVector(np.ones(2), weight=1.0)
    for p in (LtftParams(b0=0.08, b1=25.6), LtftParams(b0=1e-300, b1=1.0)):
        with pytest.raises(BudgetExceededError, match="guard band"):
            analyze(DigitalSignal(np.zeros(256), RATE), two, p)
        with pytest.raises(BudgetExceededError, match="guard band"):
            synthesize(coeffs, two, p, 256, RATE)
    assert planned == []


def test_atoms_far_off_the_grid_leave_the_plan_without_an_overflowing_cast(params):
    # Atoms at a = +-1e299 have support edges near +-6.4e300 samples, past
    # int64: the plan bounds them before the cast, so both atoms are left
    # out and the one on the grid is kept as it was.
    box = PhaseSpaceBox(t_lo=-1e300, t_hi=1e300, freq_hi=RATE)
    near = SampleSet(np.array([[0.5, 10.0, 0.3]]), box, "mc")
    far = SampleSet(np.vstack([near.points, [[1e299, 10.0, 0.3], [-1e299, 20.0, 0.6]]]), box, "mc")
    sig = make_test_signal(256, RATE)
    got = analyze(sig, far, params).values
    assert np.array_equal(got, np.concatenate([analyze(sig, near, params).values, [0.0, 0.0]]))
    ones = CoefficientVector(np.ones(3), weight=1.0)
    want = synthesize(CoefficientVector(np.ones(1), weight=1.0), near, params, 256, RATE)
    assert np.array_equal(synthesize(ones, far, params, 256, RATE).samples, want.samples)


def test_digital_signal_takes_the_grid_budget(monkeypatch):
    monkeypatch.setattr(core, "_MAX_SIGNAL_SAMPLES", 64)
    assert DigitalSignal(np.zeros(64), RATE).m == 64
    with pytest.raises(BudgetExceededError):
        DigitalSignal(np.zeros(66), RATE)


# ---------------------------------------------------------------------------
# sampled atom operator: naive oracle and property tests
# ---------------------------------------------------------------------------


def _naive_atom(params, a, b, c, t):
    # sqrt(s) * w(s (t - a)) * exp(2 pi i f (t - a)), per branch of b.
    k = (params.xi / params.gamma) * c
    if b < params.b0:
        beff, f = params.b0, k * params.b0 + b
    elif b >= params.b1:
        beff, f = params.b1, k * params.b1 + b
    else:
        beff, f = b, (k + 1.0) * b
    s = beff / params.gamma
    return np.sqrt(s) * window_time(s * (t - a)) * np.exp(2j * np.pi * f * (t - a))


def _oracle_samples(p, m):
    # Every branch, and atoms straddling either grid end or off it.
    half = m / (2 * RATE)
    bs = [0.3 * p.b0, 0.5 * (p.b0 + p.b1), p.b1, 0.45 * RATE]
    a_s = [0.0, 0.3, -half, half - 1 / RATE, -half - 0.2, half + 0.2]
    pts = np.array([[a, b, c] for a in a_s for b in bs for c in (0.0, 0.7)])
    box = PhaseSpaceBox(t_lo=-half - 1.0, t_hi=half + 1.0, freq_hi=RATE)
    return SampleSet(pts, box=box, generator="regular")


def _check_blocks(p, samples, m):
    # Every row of every block against the naive formula on its own support,
    # with the padding up to the block's length below 1e-60 of the row's peak,
    # and its indices against the grid indices of its span; indices off the
    # grid stay inside the analysis input's zero guard band.  Rows ordered by
    # first sample; every sample with a sample on the grid in exactly one
    # block, and no other sample in any.  Returns the blocks.
    pts = samples.points
    blocks = _atom_blocks(p, pts, RATE, m)
    guard = (core._analysis_input(DigitalSignal(np.zeros(m), RATE), p).size - m) // 2
    assert max(block.length for block in blocks) <= guard
    seen = []
    for block in blocks:
        lo, j, atoms, block_pts = _block_atoms(p, pts, RATE, block)
        assert j.shape == atoms.shape == (block.sel.size, block.length)
        assert np.array_equal(block_pts, pts[block.sel])
        assert np.all(np.diff(block.start) >= 0)
        assert j[0, 0] == 0 and j[-1, -1] == j.max()
        for row, n in enumerate(block.sel):
            a, b, c = pts[n]
            s_len = p.gamma / min(max(b, p.b0), p.b1)
            idx = np.arange(np.ceil((a - s_len / 2) * RATE), np.floor((a + s_len / 2) * RATE) + 1)
            own = idx.size
            assert block.own[row] == own <= block.length
            ref = _naive_atom(p, a, b, c, idx / RATE)
            peak = np.max(np.abs(ref))
            assert np.max(np.abs(atoms[row, :own] - ref)) <= 1e-12 * peak
            assert np.all(np.abs(atoms[row, own:]) <= 1e-60 * peak)
            full = idx[0] + np.arange(block.length)
            on_grid = (full >= -(m // 2)) & (full < m // 2)
            stored = lo + j[row]
            assert np.array_equal(stored, full.astype(np.int64))
            off = stored[~on_grid]
            assert np.all((off >= -(m // 2) - guard) & (off < m // 2 + guard))
        seen.extend(block.sel)
    assert sorted(seen) == [n for n in range(samples.n) if _has_grid_sample(p, pts[n], m)]
    return blocks


def _has_grid_sample(p, point, m):
    # Whether the atom at `point` has a sample in [-M/2, M/2), one index at a time.
    a, b, _ = point
    s_len = p.gamma / min(max(b, p.b0), p.b1)
    idx = np.arange(np.ceil((a - s_len / 2) * RATE), np.floor((a + s_len / 2) * RATE) + 1)
    return bool(np.any((idx >= -(m // 2)) & (idx < m // 2)))


@pytest.mark.parametrize("b0_frac", [0.1, 0.01, 0.001])
def test_atom_blocks_match_naive_formula(b0_frac):
    # With b0_frac = 0.01 supports are about 600 samples long, and with 0.001
    # about 6000, where the doubling ramps' squared steps lose the most digits.
    p = LtftParams.for_rate(RATE, b0_frac=b0_frac)
    blocks = _check_blocks(p, _oracle_samples(p, 256), 256)
    assert max(block.length for block in blocks) >= int(p.s0 * RATE)


def test_unit_phasors_match_cos_and_sin():
    # The kernel's unit phasors from a tangent, against numpy's cos and sin
    # over the angle ranges the kernel meets: first phases up to 1e3 rad,
    # phase steps up to 4 pi, window angles from -pi/2 on, and exact
    # multiples of pi/2; at +-pi and 3 pi the half-angle tangent is about
    # 1e16.  A less accurate float64 tan fails here rather than in the 1e-12
    # oracle bounds.
    rng = np.random.default_rng(7)
    angles = np.concatenate([
        rng.uniform(-1e3, 1e3, 20000),
        rng.uniform(0.0, 4 * np.pi, 20000),
        -np.pi / 2 + rng.uniform(0.0, 1e-3, 5000),
        rng.uniform(-np.pi / 2, np.pi / 2, 5000),
        [0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 3 * np.pi],
    ])
    out = np.empty(angles.shape, dtype=np.complex128)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        core._unit_phasors(angles / 2, out)
    assert np.all(np.isfinite(out))
    assert np.max(np.abs(out.real - np.cos(angles))) <= 4.5e-16
    assert np.max(np.abs(out.imag - np.sin(angles))) <= 4.5e-16
    assert np.max(np.abs(np.abs(out) - 1.0)) <= 4.5e-16


def _check_dense_sums(params, samples, grid_len, dense, rng):
    # analyze and synthesize against the dense sums over the rows of `dense`,
    # each point's _naive_atom on the full grid.  Each direction's error is
    # paired with the other direction's input by Cauchy-Schwarz, so the bound
    # is the adjoint property's 1e-12 * scale.
    sig = DigitalSignal(rng.standard_normal(grid_len) + 1j * rng.standard_normal(grid_len), RATE)
    g = rng.standard_normal(samples.n) + 1j * rng.standard_normal(samples.n)
    w = samples.box.volume / samples.n
    sig_norm = np.sqrt(np.sum(np.abs(sig.samples) ** 2) / RATE)
    scale = w * np.sum(np.abs(g)) * sig_norm
    coeffs = analyze(sig, samples, params).values
    expected = dense.conj() @ sig.samples / RATE
    assert w * np.sum(np.abs(g)) * np.max(np.abs(coeffs - expected)) <= 1e-12 * scale
    synth = synthesize(CoefficientVector(g, w), samples, params, grid_len, RATE).samples
    gap = np.sqrt(np.sum(np.abs(synth - w * (g @ dense)) ** 2) / RATE)
    assert gap * sig_norm <= 1e-12 * scale


@pytest.mark.parametrize("dilation", [1, 2])
@pytest.mark.parametrize("padded", [False, True], ids=["unpadded", "padded"])
def test_operator_matches_dense_naive_sums(params, padded, dilation, monkeypatch):
    # analyze and synthesize against dense sums over _naive_atom on the full
    # grid.  The adjoint and linearity properties cannot see a gather and a
    # scatter that are wrong in the same way; this oracle can.  With 64
    # atom-samples per block, dozens of Halton blocks of one to four rows,
    # scattered over the grid, add into one accumulator at their own offsets.
    m = 128
    base = DigitalSignal(np.zeros(m), RATE)
    box = PhaseSpaceBox.for_signal(base, params, padded=padded)
    samples = scale_to_box(generate_unit_points("halton", 160, 3, 0), box)
    samples = samples.with_dilated_times(float(dilation))
    grid_len = dilation * m
    t = (np.arange(grid_len) - grid_len // 2) / RATE
    dense = np.array([_naive_atom(params, a, b, c, t) for a, b, c in samples.points])
    # Atoms cross both grid ends, and padded boxes put some wholly off the grid.
    half = grid_len / (2 * RATE)
    support = atom_support_length(params, samples.b)
    assert np.any(samples.a - support / 2 < -half) and np.any(samples.a + support / 2 > half)
    assert padded == bool(np.any(~dense.any(axis=1)))
    rng = np.random.default_rng(7)
    for budget in (core._BLOCK_ATOM_SAMPLES, 64):
        monkeypatch.setattr(core, "_BLOCK_ATOM_SAMPLES", budget)
        assert budget > 64 or len(_atom_blocks(params, samples.points, RATE, grid_len)) >= 40
        _check_dense_sums(params, samples, grid_len, dense, rng)


def test_supports_shorter_than_four_samples_match_dense_naive_sums(monkeypatch):
    # With b1 at the rate and gamma = 2.4, supports run from 2 to 24 samples.
    # A block of rows shorter than four samples keeps the kernel's four rows
    # of half angles and of unit phasors in its index and gather buffers, so
    # _atom_blocks counts it as four rows long: at 64 atom-samples per block,
    # a block of two- or three-sample rows takes at most 16 atoms, where 32
    # or 21 would fit its rows.
    p = LtftParams.for_rate(RATE, b1_frac=1.0, gamma=2.4)
    m = 128
    samples = scale_to_box(generate_unit_points("halton", 320, 3, 0),
                           PhaseSpaceBox.for_signal(DigitalSignal(np.zeros(m), RATE), p))
    t = (np.arange(m) - m // 2) / RATE
    dense = np.array([_naive_atom(p, a, b, c, t) for a, b, c in samples.points])
    rng = np.random.default_rng(8)
    for budget in (core._BLOCK_ATOM_SAMPLES, 64):
        monkeypatch.setattr(core, "_BLOCK_ATOM_SAMPLES", budget)
        blocks = _atom_blocks(p, samples.points, RATE, m)
        assert min(block.length for block in blocks) < 4
        assert all(block.sel.size * max(block.length, 4) <= budget for block in blocks)
        assert budget > 64 or any(block.length < 4 and block.sel.size == 16 for block in blocks)
        _check_dense_sums(p, samples, m, dense, rng)


def test_atom_blocks_split_groups_in_order(monkeypatch):
    # With 64 atom-samples per block, groups of equal support length span
    # several blocks: consecutive, ordered by length and then first sample.
    monkeypatch.setattr(core, "_BLOCK_ATOM_SAMPLES", 64)
    p = LtftParams.for_rate(RATE)
    blocks = _check_blocks(p, _oracle_samples(p, 256), 256)
    assert all(b.sel.size * b.length <= 64 or b.sel.size == 1 for b in blocks)
    lengths = [b.length for b in blocks]
    assert max(lengths.count(n) for n in lengths) >= 3
    for prev, block in zip(blocks, blocks[1:]):
        assert np.all(np.diff(block.start) >= 0)
        assert prev.length < block.length or (
            prev.length == block.length and prev.start[-1] <= block.start[0]
        )


def _reference_blocks(own, m_start, m):
    # The plan by its definition, one atom at a time: leave out the atoms
    # whose span [m_start, m_start + own) misses [-M/2, M/2), order the rest
    # by support count, then first sample (np.lexsort), cut greedily where
    # the next atom is longer than _PACK_RATIO times the block's shortest or
    # its padded rows, at least four, would pass _BLOCK_ATOM_SAMPLES, and
    # order each block's rows by first sample, then support count, then index.
    order = np.lexsort((m_start, own))
    meets = np.maximum(m_start, -(m // 2)) < np.minimum(m_start + own, m // 2)
    order = order[meets[order]]
    blocks, i = [], 0
    while i < order.size:
        shortest, k = own[order[i]], i + 1
        while (
            k < order.size
            and own[order[k]] <= int(core._PACK_RATIO * shortest)
            and (k - i + 1) * max(own[order[k]], 4) <= core._BLOCK_ATOM_SAMPLES
        ):
            k += 1
        chunk = order[i:k]
        blocks.append(chunk[np.lexsort((own[chunk], m_start[chunk]))])
        i = k
    return blocks


@pytest.mark.parametrize("m, n", [(1024, 8192), (70000, 6000)], ids=["span16", "span32"])
@pytest.mark.parametrize("padded", [False, True], ids=["unpadded", "padded"])
@pytest.mark.parametrize("kind", ["hammersley", "halton", "mc"])
def test_plan_order_matches_lexsort_reference(kind, padded, m, n):
    # First-sample spans below and above 2**16 take the 16- and 32-bit sort keys.
    p = LtftParams.for_rate(RATE)
    sig = DigitalSignal(np.zeros(m), RATE)
    box = PhaseSpaceBox.for_signal(sig, p, padded=padded)
    samples = scale_to_box(generate_unit_points(kind, n, 3, 4), box)
    m_start, _ = core._support_index_range(p, samples.a, samples.b, RATE)
    assert (np.ptp(m_start) < 1 << 16) == (m < 1 << 16)
    _check_plan_order(p, samples, m)


def _check_plan_order(p, samples, m):
    m_start, m_end = core._support_index_range(p, samples.a, samples.b, RATE)
    own = m_end - m_start + 1
    blocks = _atom_blocks(p, samples.points, RATE, m)
    expected = _reference_blocks(own, m_start, m)
    assert len(blocks) == len(expected)
    for block, sel in zip(blocks, expected):
        assert np.array_equal(block.sel, sel)
        assert np.array_equal(block.start, m_start[sel])
        assert np.array_equal(block.own, own[sel])
        assert block.length == own[sel].max()


def test_plan_leaves_out_supports_shorter_than_a_sample():
    # gamma / b1 is 0.56 samples, so some atoms cover no grid sample, and a
    # padded box also puts atoms wholly past both grid ends: they are in no
    # block, their coefficients are 0, and the round trip still equals
    # analysis followed by synthesis.
    p = LtftParams(b0=0.1 * RATE, b1=0.9 * RATE, gamma=0.5, xi=1.0)
    m = 256
    rng = np.random.default_rng(9)
    sig = DigitalSignal(rng.standard_normal(m) + 1j * rng.standard_normal(m), RATE)
    for padded in (False, True):
        box = PhaseSpaceBox.for_signal(sig, p, padded=padded)
        samples = scale_to_box(generate_unit_points("halton", 4 * m, 3, 0), box)
        m_start, m_end = core._support_index_range(p, samples.a, samples.b, RATE)
        empty = m_end < m_start
        before, past = m_end < -(m // 2), m_start >= m // 2
        assert 0 < empty.sum() < samples.n
        assert padded == (np.any(before & ~empty) and np.any(past & ~empty))
        left_out = empty | before | past
        _check_plan_order(p, samples, m)
        coeffs = analyze(sig, samples, p)
        assert np.all(coeffs.values[left_out] == 0) and np.all(coeffs.values[~left_out] != 0)
        expected = synthesize(coeffs, samples, p, m, RATE)
        assert np.array_equal(_round_trip(sig, samples, p).samples, expected.samples)


def test_small_call_packs_neighbouring_lengths(monkeypatch):
    # An MC call at M = N = 1024 runs in a few full blocks, each row's own
    # support within a factor _PACK_RATIO of its block's length; blocks of
    # equal length give the same output up to rounding.
    m = 1024
    p = LtftParams.for_rate(RATE)
    rng = np.random.default_rng(3)
    sig = DigitalSignal(rng.standard_normal(m), RATE)
    samples = scale_to_box(generate_unit_points("mc", m, 3, 1), PhaseSpaceBox.for_signal(sig, p))
    blocks = _atom_blocks(p, samples.points, RATE, m)
    assert len(blocks) <= 8
    m_start, m_end = core._support_index_range(p, samples.a, samples.b, RATE)
    own = m_end - m_start + 1
    for block in blocks:
        assert np.all(own[block.sel] <= block.length)
        assert np.all(own[block.sel] * core._PACK_RATIO >= block.length)
    packed = reconstruct(sig, p, m, kind="mc", seed=1)
    monkeypatch.setattr(core, "_PACK_RATIO", 1.0)
    # Unpacked, the rows follow np.lexsort by support length, then first sample.
    unpacked_blocks = _atom_blocks(p, samples.points, RATE, m)
    assert len(unpacked_blocks) > 8
    order = np.lexsort((m_start, own))
    assert np.array_equal(np.concatenate([b.sel for b in unpacked_blocks]), order[own[order] > 0])
    unpacked = reconstruct(sig, p, m, kind="mc", seed=1)
    assert relative_error(packed, unpacked) <= 1e-13


def test_operator_bit_identical_across_worker_counts(monkeypatch):
    # The tile pool forced on with tiles of 2**11 points: one worker (tiles
    # run in the caller) against three and more workers than cores, with
    # frequent thread switches, for the round trip, the vocoder and a rule.
    m = 2048
    p = LtftParams.for_rate(RATE)
    rng = np.random.default_rng(5)
    sig = DigitalSignal(rng.standard_normal(m), RATE)
    monkeypatch.setattr(processing, "_POOL_MIN_ATOM_SAMPLES", 0)
    monkeypatch.setattr(processing, "_TILE_POINTS", 1 << 11)
    job = VocoderJob(params=p, dilation=2, redundancy=6.0, sequence="mc", seed=3)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 3, (os.cpu_count() or 1) + 3):
            monkeypatch.setattr(processing, "_usable_cores", lambda: workers)
            results.append([
                reconstruct(sig, p, 16 * m, "halton", padded=True).samples,
                phase_vocoder(sig, job).samples,
                reconstruct(sig, p, 8 * m, rule=_low_pass).samples,
                # 8 tiles, the last of 5 points: no worker count above 1 divides it.
                reconstruct(sig, p, 7 * (1 << 11) + 5, "mc").samples,
            ])
    finally:
        sys.setswitchinterval(interval)
    for one, *many in zip(*results):
        assert all(np.array_equal(one, other) for other in many)


@pytest.mark.parametrize("pooled", [False, True], ids=["caller", "pool"])
@pytest.mark.parametrize("padded", [False, True], ids=["unpadded", "padded"])
@pytest.mark.parametrize("kind", ["hammersley", "halton", "mc"])
def test_round_trip_equals_analyze_then_synthesize(kind, padded, pooled):
    # Pooled, four threads run the round trip at once, each block loop on
    # its own thread's scratch arrays, with frequent thread switches.  The
    # rule maps one block's coefficients at a time and gives the same bits
    # as analysis, the rule over every coefficient, then synthesis.
    m = 1024
    p = LtftParams.for_rate(RATE)
    rng = np.random.default_rng(11)
    sig = DigitalSignal(rng.standard_normal(m) + 1j * rng.standard_normal(m), RATE)
    box = PhaseSpaceBox.for_signal(sig, p, padded=padded)
    samples = scale_to_box(generate_unit_points(kind, 8 * m, 3, 2), box)
    assert len(_atom_blocks(p, samples.points, RATE, m)) >= 4
    coeffs = analyze(sig, samples, p)
    shrink = shrinkage(0.5 * np.median(np.abs(coeffs.values)))
    for rule in (None, _low_pass, shrink):
        values = coeffs.values
        if rule is not None:
            values = rule(values, samples.a, samples.b, samples.points[:, 2])
        expected = synthesize(CoefficientVector(values, coeffs.weight), samples, p, m, RATE)
        if pooled:
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with ThreadPoolExecutor(max_workers=4) as pool:
                    outs = list(pool.map(lambda _: _round_trip(sig, samples, p, rule), range(4)))
            finally:
                sys.setswitchinterval(interval)
        else:
            outs = [_round_trip(sig, samples, p, rule)]
        for out in outs:
            assert out.sample_rate == RATE
            assert np.array_equal(out.samples, expected.samples)


@pytest.mark.parametrize("kind", ["halton", "mc"])
def test_tile_sum_rows_split_the_sum_by_sample_index(kind):
    # Row k of a tile sum takes the samples between cuts k - 1 and k.  With
    # every sample in one row, that row is the uncut sum bit for bit and the
    # other is zero; with a cut inside, each row is the sum of its own
    # samples alone, to rounding.
    m = 1024
    p = LtftParams.for_rate(RATE)
    rng = np.random.default_rng(12)
    sig = DigitalSignal(rng.standard_normal(m) + 1j * rng.standard_normal(m), RATE)
    box = PhaseSpaceBox.for_signal(sig, p)
    samples = scale_to_box(generate_unit_points(kind, 8 * m, 3, 2), box)
    padded = core._analysis_input(sig, p)

    def on_grid(points, cuts=()):
        lo, rows = core._tile_pass(padded, points, p, m, RATE, _low_pass, cuts=cuts)
        out = np.zeros((rows.shape[0], m), dtype=np.complex128)
        out[:, lo : lo + rows.shape[1]] = rows
        return out

    (whole,) = on_grid(samples.points)
    for cuts, row in (([samples.n], 0), ([0], 1)):
        rows = on_grid(samples.points, cuts)
        assert np.array_equal(rows[row], whole) and not rows[1 - row].any()
    cut = 3 * m + 17
    rows = on_grid(samples.points, [cut])
    for row, part in zip(rows, (samples.points[:cut], samples.points[cut:])):
        (alone,) = on_grid(part.copy())
        assert np.linalg.norm(row - alone) <= 1e-13 * np.linalg.norm(alone)


def test_map_blocks_keeps_order_and_raises_worker_errors(monkeypatch):
    # The tile pool yields in tile order and raises a tile's error.
    monkeypatch.setattr(processing, "_usable_cores", lambda: 3)
    assert list(processing._map_tiles(lambda k: k * k, 20, pooled=True)) == [
        k * k for k in range(20)
    ]

    def task(k):
        if k == 7:
            raise ValueError("tile 7")
        return k

    with pytest.raises(ValueError, match="tile 7"):
        list(processing._map_tiles(task, 20, pooled=True))


def _slow_tile(k):
    # A tile that lets the other threads run meanwhile.
    time.sleep(0.002)
    return k


def test_tile_pool_runs_tiles_on_the_caller_too(monkeypatch):
    # Pooled, the caller and workers - 1 threads run the tiles, no more than
    # `workers` tiles run at once, and a slow consumer holds the tiles
    # started ahead of it to workers - 1, one per pool thread, with more
    # workers than cores and frequent thread switches; the results come in
    # tile order.
    workers = (os.cpu_count() or 1) + 3
    monkeypatch.setattr(processing, "_usable_cores", lambda: workers)
    lock = threading.Lock()
    running, most, started, runners = 0, 0, 0, set()

    def task(k):
        nonlocal running, most, started
        with lock:
            running += 1
            started += 1
            most = max(most, running)
            runners.add(threading.get_ident())
        try:
            return _slow_tile(k)
        finally:
            with lock:
                running -= 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    out, ahead = [], 0
    try:
        for k in processing._map_tiles(task, 40, pooled=True):
            out.append(k)
            with lock:
                ahead = max(ahead, started - len(out))
            time.sleep(0.004)
    finally:
        sys.setswitchinterval(interval)
    assert out == list(range(40))
    assert threading.get_ident() in runners
    assert len(runners) <= workers and most <= workers
    assert ahead <= workers - 1


def test_tile_pool_runs_tile_k_on_worker_k_mod_w(monkeypatch):
    # The thread that runs tile k depends on k mod W alone, the same in two
    # passes, with a tile count that W does not divide: the caller runs
    # exactly the tiles k = 0 mod W, and each other residue has a thread.
    workers = 3
    monkeypatch.setattr(processing, "_usable_cores", lambda: workers)
    caller = threading.get_ident()
    residues = [list(range(w, 20, workers)) for w in range(workers)]
    for _ in range(2):
        runner = {}

        def task(k):
            runner[k] = threading.get_ident()
            return _slow_tile(k)

        assert list(processing._map_tiles(task, 20, pooled=True)) == list(range(20))
        threads = {ident: [k for k in range(20) if runner[k] == ident] for ident in runner.values()}
        assert threads[caller] == residues[0]
        assert sorted(threads.values()) == residues


@pytest.mark.parametrize("on_caller", [False, True], ids=["worker", "caller"])
def test_tile_pool_error_stops_the_pass_and_its_threads(monkeypatch, on_caller):
    # A tile that raises on a worker thread, or on the caller, ends the pass
    # with its error; the tiles not yet started are not run, and every
    # thread the pass started has ended.
    monkeypatch.setattr(processing, "_usable_cores", lambda: 3)
    caller = threading.get_ident()
    before = threading.active_count()
    started = []

    def task(k):
        started.append(k)
        if k >= 5 and (threading.get_ident() == caller) == on_caller:
            raise ValueError(f"tile {k}")
        return _slow_tile(k)

    with pytest.raises(ValueError, match="tile"):
        list(processing._map_tiles(task, 40, pooled=True))
    assert threading.active_count() == before
    assert len(started) < 40


def test_tile_pool_worker_error_stops_the_hand_out_at_once(monkeypatch):
    # A worker's error stops the other threads from starting tiles while
    # the caller is still busy with a tile of its own: three tiles start,
    # where the hand-out limit would let a fourth.
    monkeypatch.setattr(processing, "_usable_cores", lambda: 3)
    caller = threading.get_ident()
    lock = threading.Lock()
    caller_busy = threading.Event()
    started, failed = [], []

    def task(k):
        with lock:
            started.append(k)
            fail = threading.get_ident() != caller and not any(failed)
            failed.append(fail)
        if threading.get_ident() == caller:
            caller_busy.set()
            time.sleep(0.1)
        elif fail:
            caller_busy.wait(timeout=5)
            raise ValueError(f"tile {k}")
        return _slow_tile(k)

    with pytest.raises(ValueError, match="tile"):
        list(processing._map_tiles(task, 40, pooled=True))
    assert caller_busy.is_set()
    assert len(started) <= 3


def test_tile_pool_ends_its_threads_with_the_pass(monkeypatch):
    # After a whole pass, and after a generator closed half-way, no thread
    # the pass started is alive.
    monkeypatch.setattr(processing, "_usable_cores", lambda: 3)
    before = threading.active_count()
    assert list(processing._map_tiles(_slow_tile, 20, pooled=True)) == list(range(20))
    assert threading.active_count() == before
    tiles = processing._map_tiles(_slow_tile, 20, pooled=True)
    assert [next(tiles) for _ in range(5)] == list(range(5))
    assert threading.active_count() > before
    tiles.close()
    assert threading.active_count() == before


def test_tile_pool_frees_thread_state_before_the_last_tile(monkeypatch):
    # Each pool thread's thread-local state, where core._scratch keeps its
    # block scratch, is freed before the pass yields its last tile, even
    # when freeing it is slow.
    monkeypatch.setattr(processing, "_usable_cores", lambda: 3)
    local = threading.local()
    caller = threading.get_ident()
    made, freed = [], []

    class Held:
        def __del__(self):
            time.sleep(0.02)
            freed.append(self)

    def task(k):
        if threading.get_ident() != caller and not hasattr(local, "held"):
            local.held = Held()
            made.append(1)
        return _slow_tile(k)

    seen = [(k, len(freed)) for k in processing._map_tiles(task, 12, pooled=True)]
    assert [k for k, _ in seen] == list(range(12))
    assert made and seen[-1][1] == len(made)


@pytest.mark.parametrize(
    "rate, b1_frac, gamma, m, n, k",
    [(16000.0, 0.4, 6.0, 16000, 256000, 3), (RATE, 1.0, 2.4, 1024, 1 << 15, 0)],
    ids=["speech", "short-supports"],
)
def test_a_thread_keeps_at_most_2_75_mib_of_block_scratch(rate, b1_frac, gamma, m, n, k):
    # Tile k of 2^15 Hammersley points on a fresh thread: the fourth of
    # N = 256,000 at 16 kHz and M = 16,000, and the first at 64 Hz and
    # M = 1024 with supports of 2 to 24 samples, whose shortest blocks have
    # fewer rows than the kernel's four of angles and phasors.  The block
    # scratch the thread keeps after the tile is at most 2.75 MiB (2.62 and
    # 2.75), and releasing it frees that much traced memory, plus the
    # buffers' array objects.  The angles and phasors share the block's
    # index and gather buffers, and the coefficients the gather buffer;
    # buffers of their own kept 3.50 and 3.62 MiB.
    p = LtftParams.for_rate(rate, b1_frac=b1_frac, gamma=gamma)
    sig = DigitalSignal(np.random.default_rng(2).standard_normal(m), rate)
    start, stop = k * processing._TILE_POINTS, (k + 1) * processing._TILE_POINTS
    points = scale_rows(unit_point_rows("hammersley", n, 3, 0, start, stop),
                        PhaseSpaceBox.for_signal(sig, p))
    assert (min(block.length for block in _atom_blocks(p, points, rate, m)) < 4) == (gamma < 6)
    padded = core._analysis_input(sig, p)
    kept = []

    def tile():
        tracemalloc.start()
        try:
            core._tile_pass(padded, points, p, m, rate)
            held = tracemalloc.get_traced_memory()[0]
            scratch = vars(core._SCRATCH)
            kept.append(sum(buf.nbytes for buf in scratch.values()))
            scratch.clear()
            kept.append(held - tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()

    thread = threading.Thread(target=tile)
    thread.start()
    thread.join()
    data, freed = kept
    assert 0 < data <= 2.75 * 2**20
    assert data <= freed <= data + 4096


def test_tile_pool_threads_end_before_the_last_normalization(monkeypatch):
    # The pass joins its threads before it yields its last tile, so the
    # inverse-frame normalization after it runs with no pool thread alive
    # (their block scratch freed), for the round trip and the vocoder.
    m = 1024
    p = LtftParams.for_rate(RATE)
    sig = DigitalSignal(np.random.default_rng(6).standard_normal(m), RATE)
    monkeypatch.setattr(processing, "_POOL_MIN_ATOM_SAMPLES", 0)
    monkeypatch.setattr(processing, "_TILE_POINTS", 1 << 11)
    monkeypatch.setattr(processing, "_usable_cores", lambda: 3)
    runners, alive = set(), []
    tile_pass, normalize = processing._tile_pass, processing.apply_inverse_frame

    def recording_tile(*args):
        runners.add(threading.get_ident())
        return tile_pass(*args)

    def recording_normalize(*args):
        alive.append(threading.active_count())
        return normalize(*args)

    monkeypatch.setattr(processing, "_tile_pass", recording_tile)
    monkeypatch.setattr(processing, "apply_inverse_frame", recording_normalize)
    before = threading.active_count()
    reconstruct(sig, p, 16 * m)
    phase_vocoder(sig, VocoderJob(params=p, dilation=2, redundancy=4.0))
    assert len(runners) > 1
    assert alive == [before, before]

    # A normalization that raises half-way through a multi-count pass ends
    # it, with no pool thread left while its error is in hand.
    def failing(*args):
        raise RuntimeError("normalization")

    monkeypatch.setattr(processing, "apply_inverse_frame", failing)
    with pytest.raises(RuntimeError, match="normalization"):
        try:
            processing._analysis_synthesis(sig, p, [3000, 16 * m], "mc", 0, False)
        finally:
            assert threading.active_count() == before


def test_relative_error_matches_the_norm_formula():
    # sqrt(sum |x|^2) gives the values of np.linalg.norm to 1e-15 relative,
    # real and complex, with a zero reference too.
    rng = np.random.default_rng(13)
    for m in (4, 1024, 20000):
        for x, y in (
            (rng.standard_normal(m), rng.standard_normal(m)),
            (rng.standard_normal(m) + 1j * rng.standard_normal(m), rng.standard_normal(m)),
        ):
            result, reference = DigitalSignal(x, RATE), DigitalSignal(y, RATE)
            old = np.linalg.norm(x - y) / np.linalg.norm(y)
            assert abs(relative_error(result, reference) - old) <= 1e-15 * old
            zero = DigitalSignal(np.zeros(m), RATE)
            old = np.linalg.norm(x)
            assert abs(relative_error(result, zero) - old) <= 1e-15 * old
    assert relative_error(zero, zero) == 0.0


@pytest.mark.parametrize(
    "result, reference, expected",
    [(1e300, 5e299, 1.0), (1e-170, 2e-170, 0.5), (1e-320, 2e-320, 0.5),
     (1.5e308, -1.5e308, 2.0), (3.0, 0.0, 6.0), (1e308, 0.0, math.inf)],
    ids=str,
)
def test_relative_error_at_extreme_magnitudes(result, reference, expected):
    # Squaring overflowed to nan at 1e300, and underflowed to 0.0 at 1e-170.
    # Against a zero reference the value is the result's norm, which for four
    # samples of 1e308 lies past the float range.
    signals = [DigitalSignal(np.full(4, v), RATE) for v in (result, reference)]
    if expected == math.inf:
        with pytest.raises(InvalidParameterError, match="float range"):
            relative_error(*signals)
    else:
        assert relative_error(*signals) == pytest.approx(expected, rel=1e-15)


def test_integer_and_bool_signals_are_measured_as_floats():
    # Their squares wrapped around in int64 (2^62 against -2^62 read 0.0)
    # and raised a raw UFuncTypeError for bool samples.
    big = DigitalSignal(np.array([2**62, 0, 0, 0]), RATE)
    assert big.samples.dtype == np.float64
    assert relative_error(big, DigitalSignal(-big.samples.astype(np.int64), RATE)) == 2.0
    ones = DigitalSignal(np.array([True, False, True, True]), RATE)
    assert relative_error(ones, DigitalSignal(np.ones(4, dtype=bool), RATE)) == 0.5


_NORMAL = st.floats(min_value=2.0**-60, max_value=2.0**60).flatmap(
    lambda v: st.sampled_from([v, -v])
)


@settings(max_examples=60)
@given(
    st.lists(st.tuples(_NORMAL, _NORMAL), min_size=4, max_size=4),
    st.integers(-1000, 1000),
)
@example([(1e-170, 2e-170)] * 4, 0)
@example([(1.0, 0.5)] * 4, 996)
def test_relative_error_is_invariant_under_a_power_of_two_scale(pairs, j):
    # relative_error(k x, k y) == relative_error(x, y) for k = 2^j, wherever
    # k x and k y are finite and normal.
    x, y = (np.array(column) for column in zip(*pairs))
    with np.errstate(over="ignore"):
        kx, ky = np.ldexp(x, j), np.ldexp(y, j)
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    assume(np.all((np.abs(kx) >= tiny) & (np.abs(ky) >= tiny)))
    assume(np.all((np.abs(kx) <= huge) & (np.abs(ky) <= huge)))
    scaled = relative_error(DigitalSignal(kx, RATE), DigitalSignal(ky, RATE))
    assert scaled == relative_error(DigitalSignal(x, RATE), DigitalSignal(y, RATE))


def test_relative_error_calls_no_blas(monkeypatch):
    # The norms are np.sum reductions: no np.dot and no np.linalg call, so
    # no BLAS thread wakes for a large signal.
    def refuse(*args, **kwargs):
        raise AssertionError("BLAS call")

    class Refusing(types.ModuleType):
        def __getattr__(self, name):
            raise AssertionError(f"np.linalg.{name}")

    rng = np.random.default_rng(14)
    x, y = rng.standard_normal(20000), rng.standard_normal(20000)
    monkeypatch.setattr(np, "dot", refuse)
    monkeypatch.setattr(np, "vdot", refuse)
    monkeypatch.setattr(np, "linalg", Refusing("linalg"))
    assert relative_error(DigitalSignal(x, RATE), DigitalSignal(y, RATE)) > 0.0
    assert relative_error(DigitalSignal(x, RATE), DigitalSignal(0 * y, RATE)) > 0.0


def test_support_index_range_matches_the_support_length_formula(params):
    # The plan's support ends equal ceil / floor of (a -/+ S(b)/2) * L, with
    # S from atom_support_length, bit for bit, on both branches and the band.
    sig = DigitalSignal(np.zeros(1024), RATE)
    box = PhaseSpaceBox.for_signal(sig, params, padded=True)
    samples = scale_to_box(generate_unit_points("mc", 5000, 3, 8), box)
    a, b = samples.a, samples.b
    m_start, m_end = core._support_index_range(params, a, b, RATE)
    s = atom_support_length(params, b)
    assert np.array_equal(m_start, np.ceil((a - 0.5 * s) * RATE).astype(np.int64))
    assert np.array_equal(m_end, np.floor((a + 0.5 * s) * RATE).astype(np.int64))


_operator_cases = st.fixed_dictionaries(
    {
        "half_m": st.integers(8, 160),
        "n": st.integers(1, 200),
        "sequence": st.sampled_from(["hammersley", "halton", "mc"]),
        "padded": st.booleans(),
        "dilation": st.integers(1, 3),
        "seed": st.integers(0, 2**16),
    }
)


def _operator_case(params, case):
    # Samples on the box of an M-sample signal, dilated by D onto a D*M grid,
    # and a random complex signal on that grid; D > 1 and padding put atoms
    # off the grid.
    m = 2 * case["half_m"]
    base = DigitalSignal(np.zeros(m), RATE)
    samples = scale_to_box(
        generate_unit_points(case["sequence"], case["n"], 3, case["seed"]),
        PhaseSpaceBox.for_signal(base, params, padded=case["padded"]),
    ).with_dilated_times(float(case["dilation"]))
    rng = np.random.default_rng(case["seed"])
    grid_len = case["dilation"] * m
    sig = DigitalSignal(
        rng.standard_normal(grid_len) + 1j * rng.standard_normal(grid_len), RATE
    )
    return samples, sig, rng


@given(_operator_cases)
def test_adjoint_identity_property(params, case):
    # w * <G, analyze(s)> = (1/L) * <synthesize(G), s>
    samples, sig, rng = _operator_case(params, case)
    g = rng.standard_normal(samples.n) + 1j * rng.standard_normal(samples.n)
    w = samples.box.volume / samples.n
    synth = synthesize(CoefficientVector(g, w), samples, params, sig.m, RATE)
    lhs = w * np.sum(g * np.conj(analyze(sig, samples, params).values))
    rhs = np.sum(synth.samples * np.conj(sig.samples)) / RATE
    scale = w * np.sum(np.abs(g)) * np.sqrt(np.sum(np.abs(sig.samples) ** 2) / RATE)
    assert abs(lhs - rhs) <= 1e-12 * scale


@given(_operator_cases)
def test_operator_linearity_property(params, case):
    samples, sig, rng = _operator_case(params, case)
    other = DigitalSignal(rng.standard_normal(sig.m) + 1j * rng.standard_normal(sig.m), RATE)
    alpha, beta = 0.7 - 1.3j, -2.1
    mix = DigitalSignal(alpha * sig.samples + beta * other.samples, RATE)
    direct = analyze(mix, samples, params).values
    combo = alpha * analyze(sig, samples, params).values + beta * analyze(
        other, samples, params
    ).values
    assert np.max(np.abs(direct - combo)) <= 1e-12 * max(np.max(np.abs(direct)), 1.0)

    w = samples.box.volume / samples.n
    f = rng.standard_normal(samples.n) + 1j * rng.standard_normal(samples.n)
    g = rng.standard_normal(samples.n) + 1j * rng.standard_normal(samples.n)

    def synth(values):
        return synthesize(CoefficientVector(values, w), samples, params, sig.m, RATE).samples

    direct = synth(alpha * f + beta * g)
    combo = alpha * synth(f) + beta * synth(g)
    assert np.max(np.abs(direct - combo)) <= 1e-12 * max(np.max(np.abs(direct)), w)
