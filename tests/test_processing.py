import tracemalloc

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
from ltft import core, processing
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


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -1.0])
def test_soft_threshold_refuses_non_finite_or_negative(threshold):
    with pytest.raises(InvalidParameterError, match="threshold"):
        soft_threshold(threshold)


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


def test_vocoder_job_sample_count_from_samples(params):
    assert VocoderJob(params=params, dilation=2, samples=300).sample_count(1024) == 300
    for bad in (dict(samples=0), dict(samples=True), dict(samples=2.5),
                dict(samples=100, redundancy=2.0)):
        with pytest.raises(InvalidParameterError):
            VocoderJob(params=params, dilation=2, **bad)


def test_vocoder_job_boolean_dilation_is_invalid(params):
    with pytest.raises(InvalidParameterError):
        VocoderJob(params=params, dilation=True)


def test_vocoder_dilation_one_reduces_to_reconstruction(params, tapered_tone):
    m = 512
    s = tapered_tone(m)
    v = phase_vocoder(s, VocoderJob(params=params, dilation=1, redundancy=8.0))
    r = reconstruct(s, params, 8 * m, "hammersley")
    assert np.array_equal(v.samples, r.samples)


def test_reconstruct_builds_each_atom_block_once(monkeypatch, params, tapered_tone):
    # Plain reconstruction takes the one-pass round trip; the vocoder, even
    # at D = 1, analyses and then synthesizes, building every block twice.
    m = 512
    s = tapered_tone(m)
    calls = []
    original = core._block_atoms

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(core, "_block_atoms", counting)
    blocks = core._atom_blocks(params, sample_phase_space(s, params, 8 * m), RATE)[0]
    reconstruct(s, params, 8 * m)
    assert len(calls) == len(blocks)
    calls.clear()
    phase_vocoder(s, VocoderJob(params=params, dilation=1, redundancy=8.0))
    assert len(calls) == 2 * len(blocks)


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
    # A transform keeps its whole-vector contract under tiles: one call, with
    # all N coefficients and points.
    s = tapered_tone(512)
    n = 10 * 512
    calls = []

    def shrink(coeffs, samples):
        calls.append((coeffs.values.size, samples.n))
        return pointwise_nonlinearity(coeffs, soft_threshold(1e-3))

    _tiles(monkeypatch, 999)
    tiled = reconstruct(s, params, n, "mc", seed=2, transform=shrink)
    _single_tile(monkeypatch)
    whole = reconstruct(s, params, n, "mc", seed=2, transform=shrink)
    assert calls == [(n, n), (n, n)]
    assert relative_error(tiled, whole) <= 1e-13


def test_reconstruct_memory_does_not_grow_with_tile_count(monkeypatch, params, tapered_tone):
    # At fixed M, the traced peak of a call on 16 tiles is within 10% of one
    # on 4 tiles: a call holds a tile's points, plan and sums, not all N.
    # The tiles run in the caller, so the peak does not depend on how
    # threads overlap, and the frame diagonal is built before tracing.
    monkeypatch.setattr(processing, "_usable_cores", lambda: 1)
    m = 1024
    s = tapered_tone(m)
    tile = processing._TILE_POINTS
    reconstruct(s, params, 4 * tile)
    peaks = []
    for tiles in (4, 16):
        tracemalloc.start()
        try:
            reconstruct(s, params, tiles * tile)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0]
