import tracemalloc

import numpy as np
import pytest

from ltft import (
    DigitalSignal,
    InvalidParameterError,
    PhaseSpaceBox,
    VocoderJob,
    analyze,
    denoise,
    dft,
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
    rule = shrinkage(0.0, relative=False)(3.0)
    z = np.array([1 + 1j, -0.2, 0.0, 3j])
    assert np.array_equal(rule(z, None, None, None), z)
    rule = shrinkage(1.0, relative=False)(3.0)
    small = np.array([0.5, -0.3j, 0.99, 0.0])
    assert np.all(rule(small, None, None, None) == 0)
    out = rule(np.array([2.0 + 0j]), None, None, None)
    assert out[0] == pytest.approx(1.0)  # magnitude shrinks by lambda


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -1.0])
def test_soft_threshold_refuses_non_finite_or_negative(threshold):
    with pytest.raises(InvalidParameterError, match="threshold"):
        shrinkage(threshold, relative=False)(3.0)


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

    def snr_after(fraction):
        out = denoise(noisy, params, 16 * m, shrinkage(fraction))
        resid = out.samples - clean.samples
        return 10 * np.log10(
            np.sum(clean.samples**2) / np.sum(resid**2)
        )

    best = max(snr_after(f) for f in (0.05, 0.1, 0.2, 0.4))
    assert best >= 5.0


@pytest.mark.parametrize("relative, threshold", [(True, 1.0), (True, -0.1), (False, -1.0),
                                                 (False, np.nan), (False, np.inf)])
def test_shrinkage_refuses_a_threshold_before_any_analysis(relative, threshold):
    with pytest.raises(InvalidParameterError, match="threshold"):
        shrinkage(threshold, relative)


def test_shrinkage_refuses_an_absolute_threshold_above_every_coefficient():
    at_peak = shrinkage(2.0, relative=False)
    with pytest.raises(InvalidParameterError, match="zeroes every coefficient"):
        at_peak(2.0)
    z = np.array([3.0 + 0j, 1.0j])
    soft = z * np.maximum(0.0, 1.0 - 2.0 / np.abs(z))  # soft threshold at 2
    assert np.array_equal(at_peak(3.0)(z, None, None, None), soft)
    assert np.array_equal(shrinkage(0.5)(4.0)(z, None, None, None), soft)


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
    # Reconstruction, with a rule or without, and the vocoder at D = 1 take
    # the one-pass round trip; denoising first finds max |F| by an analysis
    # pass, and the vocoder at D = 2 analyses and then synthesizes other
    # atoms, so each builds every block twice.
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
        (2, lambda: denoise(s, params, 8 * m, shrinkage(0.1))),
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
    # Under tiles a rule maps every one of the N coefficients once, a block
    # (D = 1) or a tile (D = 2) at a time, each value with its own point.
    s = tapered_tone(512)
    n = 10 * 512
    sizes = []
    shrink = shrinkage(1e-3, relative=False)(1.0)

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


@pytest.mark.parametrize(
    "kind, counts, at_peak",
    [
        ("hammersley", [512, 1024], None),
        ("halton", [1024, 512], None),
        ("mc", [512, 512], None),
        ("mc", [], None),
        ("halton", [512, 1024], shrinkage(0.1)),
    ],
    ids=["hammersley", "descending", "repeated", "empty", "denoise"],
)
def test_counts_a_pass_cannot_share_are_refused(params, tapered_tone, kind, counts, at_peak):
    s = tapered_tone(256)
    with pytest.raises(InvalidParameterError):
        processing._analysis_synthesis(s, params, counts, kind, 0, False, at_peak=at_peak)


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
    original = processing._tile_sum

    def counting(*args):
        lo, rows = original(*args)
        sums.append(rows.shape)
        return lo, rows

    monkeypatch.setattr(processing, "_tile_sum", counting)
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
