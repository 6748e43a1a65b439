import numpy as np
import pytest

from ltft import (
    CoefficientVector,
    DigitalSignal,
    InvalidParameterError,
    LtftParams,
    VocoderJob,
    analyze,
    dft,
    from_analytic,
    multiplier_apply,
    phase_vocoder,
    pointwise_nonlinearity,
    relative_error,
    soft_threshold,
    synthesize,
    to_analytic,
    vocoder_phase_rule,
)
from ltft.frame import apply_inverse_frame, frame_diagonal
from ltft.processing import reconstruct, sample_phase_space

RATE = 64.0


def _coeff_fixture(params, m=512, n=300, signal=None):
    sig = signal if signal is not None else DigitalSignal(np.zeros(m), RATE)
    samples = sample_phase_space(sig, params, n)
    rng = np.random.default_rng(2)
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return CoefficientVector(values, samples.box.volume / n), samples


def test_multiplier_identity_and_zero(params):
    coeffs, samples = _coeff_fixture(params)
    same = multiplier_apply(coeffs, samples, lambda a, b, c: np.ones_like(b))
    assert np.array_equal(same.values, coeffs.values)
    nil = multiplier_apply(coeffs, samples, lambda a, b, c: np.zeros_like(b))
    assert np.all(nil.values == 0)


def test_multiplier_low_pass_attenuation(params, tapered_tone):
    # Retained atoms (b < cut) reach center frequencies up to roughly
    # (1 + xi/gamma) * cut plus the spectral width, so attenuation is
    # promised only above that edge; the 17 Hz tone sits beyond it.
    m = 1024
    s = tapered_tone(m, freqs=(9.0, 17.0))
    analytic = to_analytic(s)
    samples = sample_phase_space(s, params, 64 * m)
    coeffs = analyze(analytic, samples, params)
    cut = 6.0
    filtered = multiplier_apply(
        coeffs, samples, lambda a, b, c: (b < cut).astype(float)
    )
    raw = synthesize(filtered, samples, params, m, RATE)
    hd = frame_diagonal(params, RATE, m, folded=True)
    out = from_analytic(apply_inverse_frame(raw, hd))
    spec_out = np.abs(dft(out).bins)
    spec_in = np.abs(dft(s).bins)
    k17 = int(round(17.0 * m / RATE))
    incoming = spec_in[k17 - 2 : k17 + 3].max()
    leaked = spec_out[k17 - 2 : k17 + 3].max()
    assert 20 * np.log10(incoming / leaked) >= 40.0


def test_soft_threshold_rule():
    rule = soft_threshold(0.0)
    z = np.array([1 + 1j, -0.2, 0.0, 3j])
    assert np.array_equal(rule(z), z)
    rule = soft_threshold(1.0)
    small = np.array([0.5, -0.3j, 0.99, 0.0])
    assert np.all(rule(small) == 0)
    out = rule(np.array([2.0 + 0j]))
    assert out[0] == pytest.approx(1.0)  # magnitude shrinks by lambda


def test_pointwise_nonlinearity_elementwise(params):
    coeffs, _ = _coeff_fixture(params)
    doubled = pointwise_nonlinearity(coeffs, lambda z: 2 * z)
    assert np.array_equal(doubled.values, 2 * coeffs.values)


def test_denoise_improves_snr(params, tapered_tone):
    m = 1024
    clean = tapered_tone(m, freqs=(12.0,))
    rng = np.random.default_rng(4)
    noise = rng.standard_normal(m)
    noise *= np.linalg.norm(clean.samples) / np.linalg.norm(noise)  # 0 dB SNR
    noisy = DigitalSignal(clean.samples + noise, RATE)

    analytic = to_analytic(noisy)
    samples = sample_phase_space(noisy, params, 16 * m)
    coeffs = analyze(analytic, samples, params)
    hd = frame_diagonal(params, RATE, m, folded=True)

    def snr_after(lam):
        shrunk = pointwise_nonlinearity(coeffs, soft_threshold(lam))
        raw = synthesize(shrunk, samples, params, m, RATE)
        out = from_analytic(apply_inverse_frame(raw, hd))
        resid = out.samples - clean.samples
        return 10 * np.log10(
            np.sum(clean.samples**2) / np.sum(resid**2)
        )

    scale = np.max(np.abs(coeffs.values))
    best = max(snr_after(f * scale) for f in (0.05, 0.1, 0.2, 0.4))
    assert best >= 5.0


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


def test_vocoder_job_defaults(params):
    job = VocoderJob(params=params, dilation=2)
    assert job.sample_count(1024) == 4 * 2 * 1024
    job = VocoderJob(params=params, dilation=3, redundancy=5.0)
    assert job.sample_count(100) == 500
    with pytest.raises(InvalidParameterError):
        VocoderJob(params=params, dilation=-1)


def test_vocoder_job_boolean_dilation_is_invalid(params):
    with pytest.raises(InvalidParameterError):
        VocoderJob(params=params, dilation=True)


def test_vocoder_dilation_one_reduces_to_reconstruction(params, tapered_tone):
    m = 512
    s = tapered_tone(m)
    v = phase_vocoder(s, VocoderJob(params=params, dilation=1, redundancy=8.0))
    r = reconstruct(s, params, 8 * m, "hammersley")
    assert np.array_equal(v.samples, r.samples)


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
