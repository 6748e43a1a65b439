import threading
import tracemalloc

import numpy as np
import pytest

from ltft import (
    BudgetExceededError,
    DigitalSignal,
    InvalidParameterError,
    LtftParams,
    PhaseSpaceBox,
    VocoderJob,
    analyze,
    denoise,
    dft,
    make_test_signal,
    phase_vocoder,
    relative_error,
    scale_to_box,
    shrinkage,
    to_analytic,
    vocoder_phase_rule,
)
from ltft import core, processing
from ltft.lds import generate_unit_points
from ltft.processing import reconstruct

RATE = 64.0


def _low_pass(cut):
    return lambda values, a, b, c: values * (b < cut).astype(float)


def test_multiplier_identity_and_zero(params, tapered_tone):
    s = tapered_tone(512)
    plain = reconstruct(s, params, 8 * 512)
    same = reconstruct(s, params, 8 * 512, rule=lambda z, a, b, c: z * np.ones_like(b))
    assert np.array_equal(same.samples, plain.samples)
    nil = reconstruct(s, params, 8 * 512, rule=lambda z, a, b, c: z * np.zeros_like(b))
    assert np.all(nil.samples == 0)


def test_multiplier_low_pass_attenuation(params, tapered_tone):
    # Retained atoms (b < cut) reach center frequencies up to roughly
    # (1 + xi/gamma) * cut plus the spectral width, so attenuation is
    # promised only above that edge; the 17 Hz tone sits beyond it.
    m = 1024
    s = tapered_tone(m, freqs=(9.0, 17.0))
    out = reconstruct(s, params, 64 * m, rule=_low_pass(6.0))
    spec_out = np.abs(dft(out).bins)
    spec_in = np.abs(dft(s).bins)
    k17 = int(round(17.0 * m / RATE))
    incoming = spec_in[k17 - 2 : k17 + 3].max()
    leaked = spec_out[k17 - 2 : k17 + 3].max()
    assert 20 * np.log10(incoming / leaked) >= 40.0


def test_soft_threshold_rule():
    rule = shrinkage(0.0)
    z = np.array([1 + 1j, -0.2, 0.0, 3j])
    assert np.array_equal(rule(z, None, None, None), z)
    rule = shrinkage(1.0)
    small = np.array([0.5, -0.3j, 0.99, 0.0])
    assert np.all(rule(small, None, None, None) == 0)
    out = rule(np.array([2.0 + 0j]), None, None, None)
    assert out[0] == pytest.approx(1.0)  # magnitude shrinks by lambda


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -1.0])
def test_soft_threshold_refuses_non_finite_or_negative(threshold):
    with pytest.raises(InvalidParameterError, match="threshold"):
        shrinkage(threshold)


def test_pointwise_nonlinearity_elementwise(monkeypatch, params, tapered_tone):
    # The rule sees each coefficient once, with its own point: every
    # (a, b, c, value) it is given matches the analysis of that point.
    _tiles(monkeypatch, 700)
    s = tapered_tone(512)
    n = 3000
    seen = []

    def doubling(values, a, b, c):
        seen.append(np.column_stack([a, b, c, values.real, values.imag]))
        return 2 * values

    doubled = reconstruct(s, params, n, "halton", rule=doubling)
    assert np.array_equal(doubled.samples, 2 * reconstruct(s, params, n, "halton").samples)
    seen = np.concatenate(seen)
    samples = scale_to_box(
        generate_unit_points("halton", n, 3, 0), PhaseSpaceBox.for_signal(s, params)
    )
    coeffs = analyze(to_analytic(s), samples, params).values
    assert seen.shape[0] == n
    order = np.lexsort(seen[:, 2::-1].T)
    expected = np.lexsort(samples.points[:, ::-1].T)
    assert np.array_equal(seen[order, :3], samples.points[expected])
    got = seen[order, 3] + 1j * seen[order, 4]
    assert np.allclose(got, coeffs[expected], rtol=1e-12, atol=1e-12 * np.abs(coeffs).max())


def test_denoise_improves_snr(params, tapered_tone):
    m = 1024
    clean = tapered_tone(m, freqs=(12.0,))
    rng = np.random.default_rng(4)
    noise = rng.standard_normal(m)
    noise *= np.linalg.norm(clean.samples) / np.linalg.norm(noise)  # 0 dB SNR
    noisy = DigitalSignal(clean.samples + noise, RATE)

    def snr_after(multiple):
        out = denoise(noisy, params, 16 * m, multiple)
        resid = out.samples - clean.samples
        return 10 * np.log10(
            np.sum(clean.samples**2) / np.sum(resid**2)
        )

    best = max(snr_after(t) for t in (0.25, 0.5, 1.0, 2.0))
    assert best >= 5.0


def test_the_rms_coefficient_is_the_sampled_energy_per_volume(params):
    # The frame identity: the closed-form integral of |F|^2 over the box is
    # what Hammersley's cubature vol/N sum |F_n|^2 gives at A = 256.
    s = make_test_signal(1024, RATE)
    box = PhaseSpaceBox.for_signal(s, params)
    samples = scale_to_box(generate_unit_points("hammersley", 256 * s.m, 3, 0), box)
    coeffs = analyze(to_analytic(s), samples, params).values
    sampled = box.volume / samples.n * np.sum(np.abs(coeffs) ** 2)
    closed = processing._rms_coefficient(s, params, False) ** 2 * box.volume
    assert closed == pytest.approx(sampled, rel=1e-3)


def test_denoise_is_reconstruct_with_one_threshold_at_every_count(params):
    # The relative threshold does not depend on N.
    s = make_test_signal(256, RATE, seed=1)
    rule = shrinkage(0.5 * processing._rms_coefficient(s, params, False))
    for n in (4 * s.m, 64 * s.m):
        expected = reconstruct(s, params, n, rule=rule).samples
        assert np.array_equal(denoise(s, params, n, 0.5).samples, expected)


def test_denoise_converges_at_the_cubature_rate(params):
    # Against the A = 2048 output at the same threshold, Hammersley's error
    # falls like ~1/N: the fitted log-log slope over A = 16..256 is >= 0.9.
    # With the threshold a fraction of the sampled max |F|, which grows with
    # N, it was 0.82 here.
    s = make_test_signal(1024, RATE, seed=1)
    reference = denoise(s, params, 2048 * s.m, 0.5)
    ladder = [16, 64, 256]
    errors = [relative_error(denoise(s, params, a * s.m, 0.5), reference) for a in ladder]
    slope = -np.polyfit(np.log(ladder), np.log(errors), 1)[0]
    assert slope >= 0.9


@pytest.mark.parametrize("relative, threshold", [(True, -0.1), (False, -1.0),
                                                 (False, np.nan), (False, np.inf)])
def test_shrinkage_refuses_a_threshold_before_any_analysis(
    monkeypatch, params, tapered_tone, relative, threshold
):
    # In either mode, before the RMS coefficient or any atom block is made.
    def never(*args):
        raise AssertionError("analysis ran")

    monkeypatch.setattr(processing, "_analytic_at_unit", never)
    monkeypatch.setattr(core, "_block_atoms", never)
    with pytest.raises(InvalidParameterError, match="threshold"):
        denoise(tapered_tone(256), params, 1024, threshold, relative)


def test_shrinkage_refuses_an_absolute_threshold_above_every_coefficient(params, tapered_tone):
    # After the pass: an absolute threshold at or above max |F| zeroes every
    # coefficient and is refused, one just below it runs.
    s = tapered_tone(256)
    samples = scale_to_box(
        generate_unit_points("hammersley", 1024, 3, 0), PhaseSpaceBox.for_signal(s, params)
    )
    peak = np.abs(analyze(to_analytic(s), samples, params).values).max()
    with pytest.raises(InvalidParameterError, match="zeroes every coefficient"):
        denoise(s, params, 1024, peak * (1 + 1e-9), relative=False)
    assert np.any(denoise(s, params, 1024, peak * (1 - 1e-6), relative=False).samples)
    zero = DigitalSignal(np.zeros(256), RATE)  # silence in, silence out
    assert not np.any(denoise(zero, params, 1024, 1.0).samples)
    # A relative lam past the float range is refused by name, not as lam = inf.
    loud = DigitalSignal(s.samples * 2.0**600, RATE)
    with pytest.raises(InvalidParameterError, match="threshold 1e\\+300 zeroes every coefficient"):
        denoise(loud, params, 1024, 1e300)


def _hard_threshold(t):
    return lambda v, a, b, c: np.where(np.abs(v) > t, v, 0)


@pytest.mark.parametrize("exponent", [-1, -600, 600])
def test_a_rule_maps_the_coefficients_in_the_input_units(params, exponent):
    # A hard threshold does not scale with its input.  Past a peak of 2^500
    # (or below 2^-500) the pipeline runs on a scaled input, yet the rule
    # still sees the coefficients in the input's units: scaling the input
    # and the threshold by 2^k scales the output by 2^k, bit for bit.
    s = make_test_signal(256, RATE)
    scale = 2.0**exponent
    unit = reconstruct(s, params, 4 * s.m, rule=_hard_threshold(0.1)).samples
    assert not np.array_equal(unit, reconstruct(s, params, 4 * s.m).samples)
    scaled = reconstruct(
        DigitalSignal(s.samples * scale, RATE), params, 4 * s.m, rule=_hard_threshold(0.1 * scale)
    )
    assert np.array_equal(scaled.samples, unit * scale)


def test_a_rule_input_past_the_float_range_is_refused():
    rule = processing._in_units(lambda v, a, b, c: v, 2.0**1000)
    assert np.array_equal(rule(np.array([2.0**20 + 0j]), None, None, None), [2.0**20])
    with pytest.raises(InvalidParameterError, match="overflows float64"):
        rule(np.array([2.0**30 + 0j]), None, None, None)


def _pipelines(params, absolute=1e-3):
    return {
        "reconstruct": lambda s: reconstruct(s, params, 4 * s.m),
        "denoise": lambda s: denoise(s, params, 4 * s.m, 0.1),
        "denoise-absolute": lambda s, t=absolute: denoise(s, params, 4 * s.m, t, relative=False),
        "vocoder": lambda s: phase_vocoder(s, VocoderJob(params, dilation=2)),
    }


@pytest.mark.parametrize("name", ["reconstruct", "denoise", "denoise-absolute", "vocoder"])
@pytest.mark.parametrize("exponent", [-7, 1020])
def test_pipelines_move_no_bit_under_a_power_of_two_scale(params, name, exponent):
    # A power-of-two input scale scales the output bit for bit, inside
    # [2^-500, 2^500] by homogeneity and past it through the exact scale;
    # at 2^1020 the FFT overflowed before, and the input was refused as not
    # finite.
    s = make_test_signal(256, RATE)
    scale = 2.0**exponent
    unit = _pipelines(params)[name](s).samples
    scaled = _pipelines(params, 1e-3 * scale)[name](DigitalSignal(s.samples * scale, RATE))
    assert np.array_equal(scaled.samples, unit * scale)


@pytest.mark.parametrize("name", ["reconstruct", "denoise", "vocoder"])
@pytest.mark.parametrize("amplitude", [1e307, 1.5e308, 1e-310])
def test_pipelines_take_every_finite_amplitude(params, name, amplitude):
    # 1e-310 is subnormal: the vocoder's phase rule overflowed dividing by
    # its coefficients' magnitudes, and a naive scale 2.0**k overflowed.
    s = make_test_signal(256, RATE)
    unit = _pipelines(params)[name](s).samples
    out = _pipelines(params)[name](DigitalSignal(s.samples * amplitude, RATE)).samples
    assert np.all(np.isfinite(out))
    # Subnormal outputs keep only their leading bits.
    tol = 1e-14 if amplitude > 1e-300 else 1e-9
    assert np.max(np.abs(out / amplitude - unit)) <= tol * np.max(np.abs(unit))


def test_an_output_past_the_float_range_is_refused(params):
    # At N = 4M the vocoder's output peaks 1.35 times above its input's.
    s = DigitalSignal(make_test_signal(256, RATE).samples * 1.5e308, RATE)
    with pytest.raises(InvalidParameterError, match="overflows"):
        phase_vocoder(s, VocoderJob(params, dilation=2, redundancy=4.0))


def test_rule_that_changes_the_shape_is_refused(params, tapered_tone):
    s = tapered_tone(256)
    for rule in (lambda z, a, b, c: z[:-1], lambda z, a, b, c: np.sum(z)):
        with pytest.raises(InvalidParameterError, match="one value per coefficient"):
            reconstruct(s, params, 4 * 256, rule=rule)
    with pytest.raises(InvalidParameterError, match="one value per coefficient"):
        processing._analysis_synthesis(
            s, params, [4 * 256], "hammersley", 0, False,
            rule=lambda z, a, b, c: np.repeat(z, 2), dilation=2,
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_rule_with_a_non_finite_value_is_refused(params, tapered_tone, bad):
    # Refused where the rule runs, before any block is scaled by the value.
    def rule(z, a, b, c):
        out = z.copy()
        out[-1] = bad
        return out

    s = tapered_tone(256)
    with pytest.raises(InvalidParameterError, match="rule"):
        reconstruct(s, params, 4 * 256, rule=rule)
    box = PhaseSpaceBox.for_signal(s, params)
    points = scale_to_box(generate_unit_points("hammersley", 4 * 256, 3), box).points.copy()
    with pytest.raises(InvalidParameterError, match="rule"):
        core._tile_pass(core._analysis_input(s, params), points, params, s.m, RATE, rule,
                        dilation=2)


@pytest.mark.parametrize("dilation", [1, 2])
def test_a_rule_whose_synthesis_sum_overflows_is_refused_once(params, tapered_tone, dilation):
    # Every value finite, but the synthesis sum past the float range: numpy
    # warned of the overflow in the block loop (an error under the test
    # configuration), and the sum was refused only later, as samples that
    # are not finite.  The tile refuses it, naming the overflow and the rule.
    s = tapered_tone(256)
    with pytest.raises(InvalidParameterError, match="synthesis sum overflows.*coefficient rule"):
        processing._analysis_synthesis(s, params, [4 * 256], "hammersley", 0, False,
                                       rule=lambda z, a, b, c: np.full_like(z, 1e308),
                                       dilation=dilation)
    box = PhaseSpaceBox.for_signal(s, params)
    samples = scale_to_box(generate_unit_points("hammersley", 256, 3), box)
    coeffs = core.CoefficientVector(np.full(samples.n, 1e308), 1.0)
    with pytest.raises(InvalidParameterError, match="synthesis sum overflows"):
        core.synthesize(coeffs, samples, params, s.m, RATE)


def test_a_rule_whose_normalized_sum_overflows_is_refused_once(params):
    # The synthesis sum is finite, but its DFT passes the float range: numpy
    # warned of the overflow in its fft, and the output was refused only as
    # samples that are not finite.  The normalization refuses it, naming the
    # overflow and the rule.
    with pytest.raises(InvalidParameterError, match="normalized sum overflows.*coefficient rule"):
        reconstruct(make_test_signal(256, RATE), params, 1024,
                    rule=lambda z, a, b, c: np.full_like(z, 1e306))


def test_vocoder_phase_rule_values():
    assert vocoder_phase_rule(1.0 + 0j, 5) == 1.0 + 0j
    assert vocoder_phase_rule(1j, 2) == pytest.approx(-1.0 + 0j)
    assert vocoder_phase_rule(0.0 + 0j, 3) == 0.0
    z = np.array([0.3 - 0.7j, 2.0 + 1.0j])
    assert vocoder_phase_rule(z, 1) is z
    for d in (2, 3, 4):
        assert np.allclose(np.abs(vocoder_phase_rule(z, d)), np.abs(z))
    with pytest.raises(InvalidParameterError):
        vocoder_phase_rule(1.0, 0)


@pytest.mark.parametrize("dilation", [2, 3, 4, 5])
def test_vocoder_phase_rule_matches_polar_form(dilation):
    # |z| (z/|z|)^D against the polar form |z| exp(i D arg z), relative to |z|,
    # over magnitudes from 1e-300 to 1e300, on both axes and at zeros.
    rng = np.random.default_rng(dilation)
    z = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    z *= 10.0 ** rng.uniform(-300, 300, z.size)
    z[:8] = [0, -0.0, 1, -1, 1j, -1j, 3.5, -2j]
    z[8:16] = 0.0
    polar = np.abs(z) * np.exp(1j * dilation * np.angle(z))
    out = vocoder_phase_rule(z, dilation)
    assert np.all(np.abs(out - polar) <= 1e-14 * np.abs(z))
    assert np.all(out[z == 0] == 0)
    nan = vocoder_phase_rule(np.array([complex(np.nan, 1.0), 1.0]), dilation)
    assert np.isnan(nan[0]) and nan[1] == 1.0


def test_vocoder_job_defaults(params):
    job = VocoderJob(params=params, dilation=2)
    assert job.sample_count(1024) == 4 * 2 * 1024
    job = VocoderJob(params=params, dilation=3, redundancy=5.0)
    assert job.sample_count(100) == 500
    with pytest.raises(InvalidParameterError):
        VocoderJob(params=params, dilation=-1)


def test_vocoder_job_sample_count_from_samples(params):
    assert VocoderJob(params=params, dilation=2, samples=300).sample_count(1024) == 300
    for bad in (dict(samples=0), dict(samples=True), dict(samples=2.5), dict(samples=2.0),
                dict(samples=100, redundancy=2.0)):
        with pytest.raises(InvalidParameterError):
            VocoderJob(params=params, dilation=2, **bad)


def test_sample_count_past_the_float_range_is_budget_exceeded():
    # A*M overflows to infinity; the CLI's check at M = 1 never gets here.
    with pytest.raises(BudgetExceededError, match="overflows the point budget"):
        processing.sample_count(2**20, None, 1e303, 1.0)


@pytest.mark.parametrize("bad", [dict(sequence="sobol"), dict(sequence="mc", seed=-1),
                                 dict(sequence="mc", seed=1.5)], ids=str)
def test_vocoder_job_refuses_a_bad_sequence_or_seed(params, bad):
    # Refused when the job is made, not when its points are drawn.
    with pytest.raises(InvalidParameterError, match="kind|seed"):
        VocoderJob(params=params, dilation=2, **bad)


@pytest.mark.parametrize("dilation", [float("inf"), float("nan"), True, 0, 2.5, -1, 2.0])
def test_bad_dilation_is_invalid_parameter(params, dilation):
    # One check behind both library entry points: no OverflowError or
    # ValueError, and True is not D = 1.
    with pytest.raises(InvalidParameterError, match="dilation"):
        VocoderJob(params=params, dilation=dilation)
    with pytest.raises(InvalidParameterError, match="dilation"):
        vocoder_phase_rule(np.array([1.0 + 1.0j]), dilation)


def test_vocoder_job_boolean_dilation_is_invalid(params):
    with pytest.raises(InvalidParameterError):
        VocoderJob(params=params, dilation=True)


def test_vocoder_dilation_one_reduces_to_reconstruction(params, tapered_tone):
    m = 512
    s = tapered_tone(m)
    v = phase_vocoder(s, VocoderJob(params=params, dilation=1, redundancy=8.0))
    r = reconstruct(s, params, 8 * m, "hammersley")
    assert np.array_equal(v.samples, r.samples)


def test_pipelines_build_no_sample_set(monkeypatch, params, tapered_tone):
    # The tiles are plain point arrays, so neither a two-tile reconstruction
    # nor a D = 2 vocoder run builds a SampleSet, each of which would check
    # every point against its box.
    m = 512
    s = tapered_tone(m)
    built = []
    original = core.SampleSet.__post_init__

    def counting(self):
        built.append(1)
        original(self)

    monkeypatch.setattr(core.SampleSet, "__post_init__", counting)
    monkeypatch.setattr(processing, "_TILE_POINTS", 2 * m)
    reconstruct(s, params, 4 * m)
    phase_vocoder(s, VocoderJob(params=params, dilation=2, samples=4 * m))
    assert built == []
    core.SampleSet(np.zeros((1, 3)), PhaseSpaceBox(t_lo=-1.0, t_hi=1.0, freq_hi=RATE), "mc")
    assert built == [1]


def test_reconstruct_builds_each_atom_block_once(monkeypatch, params, tapered_tone):
    # Reconstruction, with a rule or without, denoising, whose threshold is
    # fixed before the pass, and the vocoder at D = 1 take the one-pass round
    # trip; the vocoder at D = 2 analyses and then synthesizes other atoms,
    # so it builds every block twice.
    m = 512
    s = tapered_tone(m)
    calls = []
    original = core._block_atoms

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(core, "_block_atoms", counting)
    samples = scale_to_box(
        generate_unit_points("hammersley", 8 * m, 3, 0), PhaseSpaceBox.for_signal(s, params)
    )
    blocks = core._atom_blocks(params, samples.points, RATE, m)
    runs = [
        (1, lambda: reconstruct(s, params, 8 * m)),
        (1, lambda: reconstruct(s, params, 8 * m, rule=_low_pass(12.0))),
        (1, lambda: phase_vocoder(s, VocoderJob(params=params, dilation=1, redundancy=8.0))),
        (1, lambda: denoise(s, params, 8 * m, 0.5)),
        (2, lambda: phase_vocoder(s, VocoderJob(params=params, dilation=2, redundancy=8.0))),
    ]
    for builds, run in runs:
        calls.clear()
        run()
        assert len(calls) == builds * len(blocks)


def test_vocoder_zero_input(params):
    zero = DigitalSignal(np.zeros(256), RATE)
    out = phase_vocoder(zero, VocoderJob(params=params, dilation=2, redundancy=4.0))
    assert np.max(np.abs(out.samples)) == 0.0


def test_vocoder_pure_tone_dilation(params, tapered_tone):
    m = 1024
    bstar = 16.0
    s = tapered_tone(m, freqs=(bstar,))
    out = phase_vocoder(s, VocoderJob(params=params, dilation=2))
    assert out.m == 2 * m
    spec = np.abs(dft(out).bins)
    peak = np.argmax(spec[: out.m // 2]) * RATE / out.m
    assert abs(peak - bstar) <= 0.01 * bstar
    # intensity is preserved, not just frequency
    assert np.sqrt(np.mean(out.samples**2)) == pytest.approx(
        np.sqrt(np.mean(s.samples**2)), rel=0.25
    )


@pytest.mark.parametrize("dilation", [2, 3])
def test_vocoder_multi_tone_frequency_preservation(params, tapered_tone, dilation):
    # tones separated by much more than the atom bandwidth b/gamma
    m = 1024
    freqs = (9.0, 22.0)
    s = tapered_tone(m, freqs=freqs)
    out = phase_vocoder(s, VocoderJob(params=params, dilation=dilation))
    assert out.m == dilation * m
    spec = np.abs(dft(out).bins)
    for f in freqs:
        k = int(round(f * out.m / RATE))
        width = max(2, int(round(0.05 * f * out.m / RATE)))
        window = spec[k - width : k + width + 1]
        peak = (k - width + np.argmax(window)) * RATE / out.m
        # a genuine local maximum, at the right place
        assert abs(peak - f) <= 0.01 * f
        assert window.max() > 5 * np.median(spec)


def test_vocoder_deterministic(params, tapered_tone):
    s = tapered_tone(512)
    job = VocoderJob(params=params, dilation=2, redundancy=6.0, sequence="mc", seed=9)
    first = phase_vocoder(s, job)
    second = phase_vocoder(s, job)
    assert np.array_equal(first.samples, second.samples)


def _tiles(monkeypatch, points):
    # Tiles of `points` points on the tile pool whatever the call's size; on
    # one core (as under `taskset -c 0`) they run in the caller.
    monkeypatch.setattr(processing, "_TILE_POINTS", points)
    monkeypatch.setattr(processing, "_POOL_MIN_ATOM_SAMPLES", 0)


def _single_tile(monkeypatch):
    monkeypatch.setattr(processing, "_TILE_POINTS", 1 << 30)


@pytest.mark.parametrize("padded", [False, True], ids=["unpadded", "padded"])
@pytest.mark.parametrize("kind", ["hammersley", "halton", "mc"])
def test_tiled_reconstruct_matches_one_tile(monkeypatch, params, tapered_tone, kind, padded):
    # Tiles of 1000 points (the last one short) sum in another order than one
    # tile does, so they agree to rounding; the time slabs of Hammersley
    # tiles sum over their own spans.
    m = 1024
    s = tapered_tone(m)
    n = 12 * m + 5
    _tiles(monkeypatch, 1000)
    tiled = reconstruct(s, params, n, kind, seed=6, padded=padded)
    _single_tile(monkeypatch)
    whole = reconstruct(s, params, n, kind, seed=6, padded=padded)
    assert relative_error(tiled, whole) <= 1e-13


@pytest.mark.parametrize("dilation", [1, 2, 3])
def test_tiled_vocoder_matches_one_tile(monkeypatch, params, tapered_tone, dilation):
    s = tapered_tone(512)
    job = VocoderJob(params=params, dilation=dilation, redundancy=9.0, sequence="halton")
    _tiles(monkeypatch, 700)
    tiled = phase_vocoder(s, job)
    _single_tile(monkeypatch)
    assert relative_error(tiled, phase_vocoder(s, job)) <= 1e-13


def test_tiled_transform_sees_every_coefficient_once(monkeypatch, params, tapered_tone):
    # Under tiles a rule maps every one of the N coefficients once, one
    # analysis block at a time at every D, each value with its own point:
    # in one tile of all N points too, where it is called per block.
    s = tapered_tone(512)
    n = 10 * 512
    sizes = []
    shrink = shrinkage(1e-3)

    def rule(values, a, b, c):
        assert values.shape == a.shape == b.shape == c.shape
        sizes.append(values.size)
        return shrink(values, a, b, c)

    for dilation in (1, 2):
        outs = []
        for tile in (999, 1 << 30):
            _tiles(monkeypatch, tile)
            sizes.clear()
            outs += processing._analysis_synthesis(
                s, params, [n], "mc", 2, False, rule=rule, dilation=dilation
            )
            assert sum(sizes) == n
        assert len(sizes) > 1 and n not in sizes
        assert relative_error(*outs) <= 1e-13


def test_reconstruct_memory_does_not_grow_with_tile_count(monkeypatch, params, tapered_tone):
    # At fixed M, the traced peak of a call on 16 tiles is within 10% of one
    # on 4 tiles: a call holds a tile's points, plan and sums, not all N,
    # with a rule or without.  The tiles run in the caller, so the peak does
    # not depend on how threads overlap, and the frame diagonal is built
    # before tracing.
    monkeypatch.setattr(processing, "_usable_cores", lambda: 1)
    m = 1024
    s = tapered_tone(m)
    tile = processing._TILE_POINTS
    for rule in (None, _low_pass(12.0)):
        reconstruct(s, params, 4 * tile, rule=rule)
        peaks = []
        for tiles in (4, 16):
            tracemalloc.start()
            try:
                reconstruct(s, params, tiles * tile, rule=rule)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0]


@pytest.mark.parametrize("dilation", [1, 2])
@pytest.mark.parametrize("kind", ["halton", "mc"])
def test_one_pass_gives_the_output_at_every_count(monkeypatch, params, tapered_tone, kind, dilation):
    # One pass over ascending counts, on tiles of 700 points that the counts
    # cut, gives each count's single-count output to rounding.
    s = tapered_tone(512)
    counts = [512, 1200, 2100, 2800]
    _tiles(monkeypatch, 700)
    outs = processing._analysis_synthesis(
        s, params, counts, kind, 4, False, rule=_low_pass(20.0), dilation=dilation
    )
    assert len(outs) == len(counts)
    for n, out in zip(counts, outs):
        one = processing._analysis_synthesis(
            s, params, [n], kind, 4, False, rule=_low_pass(20.0), dilation=dilation
        )[0]
        assert relative_error(out, one) <= 1e-13


def test_a_dilated_output_past_the_signal_budget_is_refused_before_any_tile(
    monkeypatch, params, tapered_tone
):
    # Under a cap of 1024 samples a 512-sample input, its guard band
    # included, and a D = 2 output fit; a D = 3 output of 1536 samples does
    # not, and the grid rule refuses it before any point is made.
    monkeypatch.setattr(core, "_MAX_SIGNAL_SAMPLES", 1024)
    s = tapered_tone(512)
    tiles = []
    original = processing.unit_point_rows

    def counting(*args):
        tiles.append(args)
        return original(*args)

    monkeypatch.setattr(processing, "unit_point_rows", counting)
    assert phase_vocoder(s, VocoderJob(params, dilation=2, redundancy=2.0)).m == 1024
    tiles.clear()
    with pytest.raises(BudgetExceededError, match="grid of 1536 samples"):
        phase_vocoder(s, VocoderJob(params, dilation=3, redundancy=2.0))
    assert tiles == []


def test_a_frame_table_past_its_budget_is_refused_before_any_tile(monkeypatch):
    # At 16 kHz, b0_frac = 1e-4 passes the analysis guard band's rule, but
    # the frame tables would take 6.15e7 nodes, past their 2^24.  H is built
    # after the tiles, yet its tables' rule refuses the call before any
    # point is made, for the round trip and the vocoder.
    rate = 16000.0
    p = LtftParams.for_rate(rate, b0_frac=1e-4)
    s = DigitalSignal(np.cos(2 * np.pi * 440.0 * np.arange(256) / rate), rate)
    core._guard_samples(p, rate, s.m)
    spans = _point_spans(monkeypatch)
    with pytest.raises(BudgetExceededError, match="frame table of 6.15434e"):
        reconstruct(s, p, 1024)
    with pytest.raises(BudgetExceededError, match="frame table of 6.15434e"):
        phase_vocoder(s, VocoderJob(p, dilation=2, samples=1024))
    assert spans == []


@pytest.mark.parametrize("call", ["reconstruct", "vocoder", "counts"])
def test_the_frame_diagonal_is_built_with_no_pool_thread_alive(
    monkeypatch, params, tapered_tone, call
):
    # A one-count pass builds H at its one normalization, after its last
    # tile, when every pool thread has ended; a pass with more counts, whose
    # first normalization falls among its tiles, builds H before them.  So
    # H's build and what it leaves on the caller's heap never sit under a
    # worker's tiles.  The pool is forced on, so this holds on one core too.
    monkeypatch.setattr(processing, "_POOL_MIN_ATOM_SAMPLES", 0)
    monkeypatch.setattr(processing, "_TILE_POINTS", 1 << 11)
    monkeypatch.setattr(processing, "_usable_cores", lambda: 3)
    s = tapered_tone(1024)
    events, runners = [], set()
    tile_pass, diagonal = processing._tile_pass, processing.frame_diagonal

    def recording_tile(*args):
        runners.add(threading.get_ident())
        events.append("tile")
        return tile_pass(*args)

    def recording_diagonal(*args, **kwargs):
        events.append(threading.active_count())
        return diagonal(*args, **kwargs)

    monkeypatch.setattr(processing, "_tile_pass", recording_tile)
    monkeypatch.setattr(processing, "frame_diagonal", recording_diagonal)
    before = threading.active_count()
    if call == "reconstruct":
        reconstruct(s, params, 16 * 1024)
    elif call == "vocoder":
        phase_vocoder(s, VocoderJob(params, dilation=2, redundancy=8.0))
    else:
        processing._analysis_synthesis(s, params, [3000, 16 * 1024], "mc", 0, False)
    tiles = ["tile"] * (len(events) - 1)
    assert len(runners) > 1
    assert events == ([before] + tiles if call == "counts" else tiles + [before])


@pytest.mark.parametrize(
    "kind, counts",
    [("halton", [1024, 512]), ("mc", [512, 512]), ("mc", [])],
    ids=["descending", "repeated", "empty"],
)
def test_counts_a_pass_cannot_share_are_refused(params, tapered_tone, kind, counts):
    s = tapered_tone(256)
    with pytest.raises(InvalidParameterError):
        processing._analysis_synthesis(s, params, counts, kind, 0, False)


@pytest.mark.parametrize("kind", ["hammersley"])
def test_counts_a_pass_cannot_share_run_one_pass_each(monkeypatch, params, tapered_tone, kind):
    # A Hammersley set depends on N, so each count takes a pass of its own:
    # the outputs are those of one-count calls bit for bit, with the points
    # of each count generated from index 0.
    s = tapered_tone(256)
    counts = [300, 512, 1024]
    spans = _point_spans(monkeypatch)
    outs = processing._analysis_synthesis(s, params, counts, kind, 0, False)
    assert spans == [(n, 0, n) for n in counts]
    assert len(outs) == len(counts)
    for n, out in zip(counts, outs):
        (one,) = processing._analysis_synthesis(s, params, [n], kind, 0, False)
        assert np.array_equal(out.samples, one.samples)


def test_a_shrinkage_rule_shares_one_pass_over_every_count(monkeypatch, params, tapered_tone):
    # A soft threshold is fixed before the pass, so on an extensible kind it
    # takes the one pass of any other rule.
    s = tapered_tone(256)
    counts = [300, 512, 1024]
    spans = _point_spans(monkeypatch)
    rule = shrinkage(0.5 * processing._rms_coefficient(s, params, False))
    outs = processing._analysis_synthesis(s, params, counts, "halton", 0, False, rule=rule)
    assert spans == [(1024, 0, 1024)]
    for n, out in zip(counts, outs):
        (one,) = processing._analysis_synthesis(s, params, [n], "halton", 0, False, rule=rule)
        assert relative_error(out, one) <= 1e-13


def _point_spans(monkeypatch):
    # The (n, start, stop) of every tile of points the pipelines generate.
    spans = []
    original = processing.unit_point_rows

    def counting(kind, n, dim, seed, start, stop):
        spans.append((n, start, stop))
        return original(kind, n, dim, seed, start, stop)

    monkeypatch.setattr(processing, "unit_point_rows", counting)
    return spans


@pytest.mark.parametrize("m", [1024, 16000])
def test_many_counts_in_one_tile_hold_a_bounded_accumulator(
    monkeypatch, params, tapered_tone, m
):
    # 200 counts inside one tile of _TILE_POINTS points.  A tile's rows hold
    # at most _TILE_POINTS complex samples, so the tile is cut where the
    # next row would not fit: 28 rows of 1,148 samples at M = 1024, two of
    # 16,124 at M = 16000, where 200 rows would take 3.7 and 52 MB.  Besides
    # the outputs it returns, the pass's traced peak is within that bound of
    # a one-count pass over the same points, the tiles running in the caller.
    # Its outputs are those of one-count calls to rounding.
    monkeypatch.setattr(processing, "_usable_cores", lambda: 1)
    tile = processing._TILE_POINTS
    s = tapered_tone(m)
    counts = [160 * k for k in range(1, 201)]
    assert counts[-1] < tile
    sums = []
    original = core._tile_sum

    def counting(*args):
        lo, rows = original(*args)
        sums.append(rows.shape)
        return lo, rows

    monkeypatch.setattr(core, "_tile_sum", counting)
    processing._analysis_synthesis(s, params, counts[-1:], "halton", 0, False)
    outs = processing._analysis_synthesis(s, params, counts, "halton", 0, False)
    assert max(rows * width for rows, width in sums) <= tile
    width = m + 2 * core._guard_samples(params, RATE, m)
    assert len(sums) - 1 == -(-len(counts) // max(1, tile // width))
    extra = []
    for ns in (counts[-1:], counts):
        tracemalloc.start()
        try:
            kept = processing._analysis_synthesis(s, params, ns, "halton", 0, False)
            extra.append(tracemalloc.get_traced_memory()[1] - sum(o.samples.nbytes for o in kept))
        finally:
            tracemalloc.stop()
        del kept
    assert extra[1] - extra[0] <= 16 * tile
    for k in (0, 57, 143, 199):
        one = processing._analysis_synthesis(s, params, [counts[k]], "halton", 0, False)[0]
        assert relative_error(outs[k], one) <= 1e-13


@pytest.mark.parametrize("pooled", [False, True], ids=["caller", "pool"])
@pytest.mark.parametrize("dilation", [1, 2])
def test_counts_that_fit_leave_the_tile_partition_alone(
    monkeypatch, params, tapered_tone, dilation, pooled
):
    # Counts inside tiles, and one on a tile edge, become rows of the tiles'
    # sums: the pass generates ceil(N / _TILE_POINTS) tiles of points, as a
    # one-count pass over N points does, the pool gives the same bits, and
    # the outputs are those of one-count calls to rounding.
    if pooled:
        monkeypatch.setattr(processing, "_POOL_MIN_ATOM_SAMPLES", 0)
        monkeypatch.setattr(processing, "_usable_cores", lambda: 2)
    tile = processing._TILE_POINTS
    s = tapered_tone(256)
    counts = [300, 1000, 5000, tile, tile + 7000, 2 * tile + 5000]
    spans = []
    original = processing.unit_point_rows

    def counting(kind, n, dim, seed, start, stop):
        spans.append((start, stop))
        return original(kind, n, dim, seed, start, stop)

    monkeypatch.setattr(processing, "unit_point_rows", counting)
    outs = processing._analysis_synthesis(s, params, counts, "mc", 1, False, dilation=dilation)
    assert sorted(spans) == [(0, tile), (tile, 2 * tile), (2 * tile, counts[-1])]
    assert len(outs) == len(counts)
    monkeypatch.undo()
    same = processing._analysis_synthesis(s, params, counts, "mc", 1, False, dilation=dilation)
    assert all(np.array_equal(a.samples, b.samples) for a, b in zip(outs, same))
    for k in (1, 4):
        one = processing._analysis_synthesis(
            s, params, [counts[k]], "mc", 1, False, dilation=dilation
        )[0]
        assert relative_error(outs[k], one) <= 1e-13
