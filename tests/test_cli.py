import contextlib
import io
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ltft
from ltft import (
    LtftParams,
    ParseError,
    UnsupportedFormatError,
    WavAudio,
    frame_diagonal,
    wav_read,
    wav_write,
)
from ltft.cli import main, parse_config
from ltft.errors import InvalidParameterError

RATE = 16000


def _sine_wav(path, freq=440.0, seconds=0.064, rate=RATE, amplitude=0.5):
    n = int(seconds * rate)
    t = np.arange(n) / rate
    wav_write(str(path), WavAudio(amplitude * np.sin(2 * np.pi * freq * t), rate))
    return str(path)


# ---------------------------------------------------------------------------
# WAV I/O
# ---------------------------------------------------------------------------


def test_wav_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    pcm = rng.integers(-32768, 32768, size=1000).astype(np.int16)
    audio = WavAudio(pcm / 32768.0, RATE)
    path = tmp_path / "x.wav"
    wav_write(str(path), audio)
    back = wav_read(str(path))
    assert back.rate == RATE
    assert np.array_equal(back.samples, audio.samples)


def test_wav_sine_peak_bin(tmp_path):
    path = _sine_wav(tmp_path / "sine.wav", freq=440.0, seconds=0.128)
    audio = wav_read(path)
    sig = audio.to_signal()
    spec = np.abs(np.fft.fft(sig.samples))
    k = np.argmax(spec[: sig.m // 2])
    assert abs(k * RATE / sig.m - 440.0) <= RATE / sig.m


def test_wav_stereo_downmix(tmp_path):
    import wave

    path = tmp_path / "st.wav"
    left = (np.arange(100) % 50 * 100).astype("<i2")
    right = np.zeros(100, dtype="<i2")
    inter = np.empty(200, dtype="<i2")
    inter[0::2] = left
    inter[1::2] = right
    with wave.open(str(path), "wb") as h:
        h.setnchannels(2)
        h.setsampwidth(2)
        h.setframerate(RATE)
        h.writeframes(inter.tobytes())
    audio = wav_read(str(path))
    assert np.array_equal(audio.samples, 0.5 * left / 32768.0)


def test_wav_empty_file_is_parse_error(tmp_path):
    path = tmp_path / "empty.wav"
    path.write_bytes(b"")
    with pytest.raises(ParseError):
        wav_read(str(path))


def test_wav_without_frames_is_parse_error(tmp_path, capsys):
    # A well-formed header with no audio frames is refused, not padded to
    # four zero samples.
    path = tmp_path / "zero.wav"
    wav_write(str(path), WavAudio(np.zeros(0), RATE))
    with pytest.raises(ParseError):
        wav_read(str(path))
    out = tmp_path / "out.wav"
    assert main(["reconstruct", str(path), str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: parse-error:")
    assert not out.exists()


@pytest.mark.parametrize("channels, cut", [(1, 1), (2, 1), (2, 2), (2, 3), (1, 2), (2, 4)])
def test_wav_cut_inside_a_frame_is_parse_error(tmp_path, capsys, channels, cut):
    # A data chunk that ends inside a frame is refused, not decoded as a
    # misaligned buffer.  So is one cut on a frame boundary (the last two
    # cases), which would decode to fewer frames than the header declares.
    import wave

    path = tmp_path / "cut.wav"
    with wave.open(str(path), "wb") as h:
        h.setnchannels(channels)
        h.setsampwidth(2)
        h.setframerate(RATE)
        h.writeframes(np.arange(1000 * channels, dtype="<i2").tobytes())
    path.write_bytes(path.read_bytes()[:-cut])
    out = tmp_path / "out.wav"
    assert main(["reconstruct", str(path), str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: parse-error: malformed WAV file: truncated"]
    assert not out.exists()


def test_wav_frame_rate_zero_is_parse_error(tmp_path, capsys):
    # A header's frame rate of 0 is a malformed file, like every other bad
    # header field, not an invalid sample-rate parameter.
    path = tmp_path / "r0.wav"
    wav_write(str(path), WavAudio(np.zeros(100), RATE))
    raw = bytearray(path.read_bytes())
    raw[24:32] = bytes(8)  # the fmt chunk's frame rate and byte rate
    path.write_bytes(bytes(raw))
    out = tmp_path / "out.wav"
    assert main(["reconstruct", str(path), str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: parse-error: malformed WAV file: frame rate 0"]
    assert not out.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_wav_audio_refuses_non_finite_samples(bad):
    # Written as PCM they would become 0, 32767 and -32768 without a word.
    with pytest.raises(InvalidParameterError, match="finite"):
        WavAudio([0.1, bad, 0.2], RATE)


def test_wav_audio_refuses_complex_samples():
    # They were kept as their real parts, with only a ComplexWarning.
    with pytest.raises(InvalidParameterError, match="real"):
        WavAudio(np.array([0.25 + 0.5j, -0.5j]), 8000)


@pytest.mark.parametrize("rate", [1.5, 0.4, True], ids=str)
def test_wav_audio_refuses_a_rate_that_is_not_a_positive_integer(rate):
    # 1.5 was written as a 2 Hz file, 0.4 failed inside the wave module,
    # and True stood for 1 Hz.
    with pytest.raises(InvalidParameterError, match="sample rate"):
        WavAudio(np.zeros(8), rate)


@pytest.mark.parametrize("rate", [2**31, 2**32 - 1, 2**32])
def test_wav_audio_refuses_a_rate_past_the_header_field(tmp_path, rate):
    # The header holds the rate and the byte rate, twice the rate, in 32
    # bits each; these ended in a struct.error.
    with pytest.raises(InvalidParameterError, match="sample rate"):
        wav_write(str(tmp_path / "fast.wav"), WavAudio(np.zeros(8), rate))


def test_wav_largest_rate_round_trips(tmp_path):
    path = str(tmp_path / "fast.wav")
    wav_write(path, WavAudio(np.zeros(8), 2**31 - 1))
    assert wav_read(path).rate == 2**31 - 1


def test_non_finite_output_is_one_line_invalid_parameter(tmp_path, capsys, monkeypatch):
    # A pipeline that returned non-finite samples is refused at the WAV
    # boundary: one line, exit status 1, no output file.
    def non_finite(signal, *args, **kwargs):
        return SimpleNamespace(samples=np.array([0.1, np.nan, np.inf, -np.inf] * 4))

    monkeypatch.setattr(ltft.cli, "reconstruct", non_finite)
    out = tmp_path / "o.wav"
    assert main(["reconstruct", _sine_wav(tmp_path / "in.wav"), str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: invalid-parameter: audio samples must be finite"]
    assert not out.exists()


def test_wav_wrong_width_unsupported(tmp_path):
    import wave

    path = tmp_path / "w8.wav"
    with wave.open(str(path), "wb") as h:
        h.setnchannels(1)
        h.setsampwidth(1)
        h.setframerate(RATE)
        h.writeframes(b"\x00" * 64)
    with pytest.raises(UnsupportedFormatError):
        wav_read(str(path))


def test_wav_odd_length_padded_to_even(tmp_path):
    path = tmp_path / "odd.wav"
    wav_write(str(path), WavAudio(np.linspace(-0.5, 0.5, 101), RATE))
    sig = wav_read(str(path)).to_signal()
    assert sig.m == 102


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def test_reconstruct_subcommand(tmp_path):
    src = _sine_wav(tmp_path / "in.wav")
    out = tmp_path / "out.wav"
    code = main(["reconstruct", "--redundancy", "4", src, str(out)])
    assert code == 0
    result = wav_read(str(out))
    assert result.samples.size == wav_read(src).to_signal().m


def test_vocoder_doubles_duration(tmp_path):
    src = _sine_wav(tmp_path / "in.wav")
    out = tmp_path / "out.wav"
    code = main(["vocoder", "--dilation", "2", "--redundancy", "8", src, str(out)])
    assert code == 0
    assert wav_read(str(out)).samples.size == 2 * wav_read(src).to_signal().m


def test_vocoder_samples_flag_sets_the_count(tmp_path, capsys):
    src = _sine_wav(tmp_path / "in.wav")
    outs = {}
    for name, flags in [("n", ["-N", "64"]), ("a", ["-A", "0.0625"]), ("none", [])]:
        outs[name] = tmp_path / f"{name}.wav"
        assert main(["vocoder", "-D", "2", *flags, src, str(outs[name])]) == 0
    # 1024 input samples: -N 64 and -A 1/16 pick the same 64 points.
    assert outs["n"].read_bytes() == outs["a"].read_bytes()
    assert outs["n"].read_bytes() != outs["none"].read_bytes()
    code = main(["vocoder", "-N", "64", "-A", "2", src, str(tmp_path / "both.wav")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid-parameter:")


def test_odd_length_input_keeps_its_frame_count(tmp_path):
    # The input is padded to even length for processing; the output holds
    # the input's frame count, times D for the vocoder.
    src = _sine_wav(tmp_path / "in.wav", seconds=801 / RATE)
    assert wav_read(src).samples.size == 801
    runs = [
        (1, ["reconstruct", "-A", "2"]),
        (1, ["denoise", "-A", "2"]),
        (1, ["multiplier", "--low-pass", "900", "-A", "2"]),
        # A padded Halton box puts atoms wholly off the grid, which the plan
        # leaves out.
        (1, ["reconstruct", "-A", "2", "--padded", "--sequence", "halton"]),
        (1, ["vocoder", "-D", "1", "-A", "2"]),
        (2, ["vocoder", "-D", "2", "-A", "2"]),
    ]
    for dilation, args in runs:
        out = tmp_path / "out.wav"
        assert main(args + [src, str(out)]) == 0
        assert wav_read(str(out)).samples.size == 801 * dilation


def test_three_frame_input_keeps_its_frame_count(tmp_path):
    # A WAV shorter than the 4-sample grid is padded to 4 and cropped back.
    src = tmp_path / "in.wav"
    wav_write(str(src), WavAudio(np.array([0.1, -0.2, 0.3]), RATE))
    assert wav_read(str(src)).to_signal().m == 4
    for dilation, args in [(1, ["reconstruct"]), (3, ["vocoder", "-D", "3"])]:
        out = tmp_path / "out.wav"
        assert main(args + [str(src), str(out)]) == 0
        assert wav_read(str(out)).samples.size == 3 * dilation


def test_denoise_and_multiplier_run(tmp_path, capsys):
    src = _sine_wav(tmp_path / "in.wav")
    assert main(["denoise", "--threshold", "0.2", "--redundancy", "4",
                 src, str(tmp_path / "d.wav")]) == 0
    assert main(["multiplier", "--low-pass", "900", "--redundancy", "4",
                 src, str(tmp_path / "m.wav")]) == 0
    # No band, or two.
    for bands in ([], ["--low-pass", "1000", "--high-pass", "2000"]):
        out = tmp_path / "m2.wav"
        assert main(["multiplier", *bands, src, str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: invalid-parameter: give exactly one of --low-pass or --high-pass"]
        assert not out.exists()


@pytest.mark.parametrize(
    "command", ["vocoder -D 2 -A 2", "denoise -A 2", "multiplier --low-pass 1000 -A 2"]
)
def test_fixed_configuration_writes_a_byte_identical_wav(tmp_path, command):
    # The vocoder's phase rule, the denoise threshold, fixed before the
    # pass, and a multiplier's symbol all give the same WAV on every run.
    src = _sine_wav(tmp_path / "in.wav", seconds=0.25)
    outs = [tmp_path / "a.wav", tmp_path / "b.wav"]
    for out in outs:
        assert main(command.split() + [src, str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize(
    "command",
    [
        "multiplier --low-pass nan",
        "multiplier --high-pass inf",
        "denoise --threshold nan",
        "denoise --threshold inf",
    ],
)
def test_non_finite_cutoff_or_threshold_is_invalid_parameter(tmp_path, capsys, command):
    # Refused up front, with a message naming the setting: not an all-zero
    # WAV, nor a late "signal samples must be finite".
    out = tmp_path / "o.wav"
    args = command.split() + ["-A", "2", _sine_wav(tmp_path / "in.wav"), str(out)]
    assert main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid-parameter:")
    assert ("threshold" if command.startswith("denoise") else "cutoff") in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, cutoff",
    [("--low-pass", "-5"), ("--low-pass", "0"), ("--high-pass", "16000"), ("--high-pass", "1e9"),
     ("--low-pass", "16000"), ("--low-pass", "20000")],
)
def test_cutoff_outside_the_band_is_invalid_parameter(tmp_path, capsys, flag, cutoff):
    # A cutoff outside (0, L) would keep no atom and write an all-zero WAV.
    out = tmp_path / "o.wav"
    args = ["multiplier", flag, cutoff, "-A", "2", _sine_wav(tmp_path / "in.wav"), str(out)]
    assert main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid-parameter:")
    assert "cutoff" in err[0] and f"{float(cutoff):g}" in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, threshold",
    [
        ("relative", "30"),
        ("relative", "1e9"),
        ("relative", "-0.5"),
        ("absolute", "1e9"),
        ("absolute", "inf"),
    ],
)
def test_threshold_that_zeroes_every_coefficient_is_invalid_parameter(
    tmp_path, capsys, mode, threshold
):
    # A threshold that zeroes every coefficient, 30 or 1e9 RMS coefficients
    # or an absolute one at or above max |F|, would write an all-zero WAV; a
    # relative one below 0 is named as given, not scaled by the RMS.
    src = str(tmp_path / "in.wav")
    t = np.arange(4000) / RATE
    tones = 0.4 * np.sin(2 * np.pi * 440.0 * t) + 0.3 * np.sin(2 * np.pi * 1250.0 * t)
    wav_write(src, WavAudio(tones, RATE))
    out = tmp_path / "o.wav"
    args = ["denoise", "--threshold", threshold, "--threshold-mode", mode, "-A", "2", src, str(out)]
    assert main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid-parameter:")
    assert f"threshold {float(threshold):g}" in err[0]
    assert not out.exists()


def test_threshold_refusal_keeps_legal_edges(tmp_path):
    # Just below the edge and an all-zero input at threshold 0 still run.
    src = _sine_wav(tmp_path / "in.wav")
    for mode, threshold in [("relative", "0.99"), ("absolute", "1e-6")]:
        out = tmp_path / f"{mode}.wav"
        args = ["denoise", "--threshold", threshold, "--threshold-mode", mode, "-A", "2", src, str(out)]
        assert main(args) == 0
        assert np.max(np.abs(wav_read(str(out)).samples)) > 0
    zero = tmp_path / "zero.wav"
    wav_write(str(zero), WavAudio(np.zeros(1024), RATE))
    for mode in ("relative", "absolute"):
        out = tmp_path / f"zero-{mode}.wav"
        args = ["denoise", "--threshold", "0", "--threshold-mode", mode, "-A", "2", str(zero), str(out)]
        assert main(args) == 0
        assert np.all(wav_read(str(out)).samples == 0)


# Thresholds at every float boundary, and ordinary multiples of the RMS.
_THRESHOLDS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 2.2e-308,
                     1e9, 1e300, sys.float_info.max]),
    st.floats(min_value=0.0, max_value=4.0),
    st.floats(),
)


@settings(max_examples=40)
@given(threshold=_THRESHOLDS, mode=st.sampled_from(["relative", "absolute"]))
def test_denoise_writes_a_finite_wav_or_refuses_the_threshold(tmp_path_factory, threshold, mode):
    # Exit 0 with a finite WAV, or exit 1 with one invalid-parameter line and
    # no file; a threshold that is negative or not finite never runs.
    src = tmp_path_factory.getbasetemp() / "denoise-in.wav"
    if not src.exists():
        _sine_wav(src, seconds=1024 / RATE)
    out = src.with_name("denoise-out.wav")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["denoise", f"--threshold={threshold!r}", "--threshold-mode", mode, "-A", "2",
                     str(src), str(out)])
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == [] and 0 <= threshold < math.inf
        assert np.all(np.isfinite(wav_read(str(out)).samples))
        out.unlink()
    else:
        assert code == 1 and not out.exists()
        assert len(lines) == 1 and lines[0].startswith("error: invalid-parameter:")


def test_relative_threshold_is_refused_before_the_wav_is_read(tmp_path, capsys):
    # A negative one in either mode, and a NaN one: a missing input is not
    # reached.
    missing = str(tmp_path / "missing.wav")
    for mode, threshold in [("relative", "-1"), ("absolute", "-1"), ("absolute", "nan")]:
        args = ["denoise", "--threshold", threshold, "--threshold-mode", mode, missing,
                str(tmp_path / "o.wav")]
        assert main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid-parameter:")
        assert f"threshold {float(threshold):g}" in err[0]


@pytest.mark.parametrize(
    "command",
    [
        "vocoder -D 0",
        "vocoder -D -2",
        "multiplier --low-pass nan",
        "multiplier --high-pass inf",
        "multiplier --low-pass 0",
    ],
)
def test_dilation_or_cutoff_is_refused_before_the_wav_is_read(tmp_path, capsys, command):
    # Neither needs the WAV: only the cutoff's upper bound L does.
    args = command.split() + [str(tmp_path / "missing.wav"), str(tmp_path / "o.wav")]
    assert main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid-parameter:")
    assert ("dilation" if command.startswith("vocoder") else "cutoff") in err[0]


@pytest.mark.parametrize(
    "command",
    [
        "reconstruct --sequence mc --seed -1",
        "vocoder --sequence mc --seed -1",
        "denoise --sequence mc --seed -1",
        "multiplier --low-pass 1000 --sequence mc --seed -1",
    ],
)
def test_seed_is_refused_before_the_wav_is_read(tmp_path, capsys, command):
    args = command.split() + [str(tmp_path / "missing.wav"), str(tmp_path / "o.wav")]
    assert main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid-parameter:")
    assert "seed" in err[0]


@pytest.mark.parametrize(
    "command",
    [
        "reconstruct -N 0",
        "reconstruct -A -1",
        "reconstruct -A nan",
        "vocoder -N 0",
        "denoise --gamma -1",
        "reconstruct --gamma -1",
        "reconstruct --b0-frac 0.5 --b1-frac 0.2",
        "multiplier --low-pass 1000 --xi 0",
        "vocoder --window hann",
    ],
)
def test_count_or_transform_is_refused_before_the_wav_is_read(tmp_path, capsys, command):
    # N, A and the transform's parameters need nothing from the WAV, so a
    # bad one is refused, and nothing written, before the missing input is
    # opened.
    out = tmp_path / "o.wav"
    assert main(command.split() + [str(tmp_path / "missing.wav"), str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid-parameter:")
    assert not out.exists()


def test_bench_error_csv(tmp_path):
    # Halton and Monte Carlo rows come from one multi-count pass each.
    out = tmp_path / "fig.csv"
    for methods, redundancies in [("hammersley,mc", "1,2,4"), ("hammersley,halton,mc", "1,2")]:
        code = main([
            "bench-error", "--csv", str(out), "-M", "256", "--rate", "64",
            "--methods", methods, "--redundancies", redundancies,
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# config: subcommand=bench-error")
        assert lines[1].split(",") == ["method", "redundancy", "n", "rel_error", "rel_error_std"]
        rows = [line.split(",") for line in lines[2:]]
        # One row per (method, redundancy).
        assert len(rows) == len(methods.split(",")) * len(redundancies.split(","))
        assert all(math.isfinite(float(row[3])) for row in rows)


def test_frame_diag_csv(tmp_path):
    # The last case is the defaults; at gamma = 2.4 and xi = 0.37, no whole
    # number of frame-table nodes, every H is finite and non-negative too.
    out = tmp_path / "h.csv"
    cases = [
        (["-M", "128", "--gamma", "5"], 128, 5.0, 6.0),
        (["-M", "512", "--gamma", "2.4", "--xi", "0.37"], 512, 2.4, 0.37),
        ([], 1024, 6.0, 6.0),
    ]
    for flags, m, gamma, xi in cases:
        assert main(["frame-diag", "--csv", str(out), *flags]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1].split(",") == ["omega", "h", "q0", "q1", "q2"]
        assert len(lines) == 2 + m
        # 17 significant digits round-trip float64, so the CSV is the diagonal.
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
        hd = frame_diagonal(LtftParams.for_rate(64.0, gamma=gamma, xi=xi), 64.0, m)
        assert np.array_equal(parsed, np.column_stack([hd.omega, hd.h, hd.q0, hd.q1, hd.q2]))
        assert np.all(np.isfinite(hd.h)) and hd.h.min() >= 0.0 and hd.h.max() > 0.0


def test_csv_config_line_lists_every_option_sorted(tmp_path):
    out = tmp_path / "h.csv"
    assert main(["frame-diag", "--csv", str(out), "-M", "8"]) == 0
    config = out.read_text().splitlines()[0]
    assert config == (
        f"# config: subcommand=frame-diag b0_frac=0.1 b1_frac=0.4 csv={out} gamma=6.0"
        " rate=64.0 resolution=8 window=cos4 xi=6.0"
    )


_GRID_COMMANDS = ["frame-diag", "bench-error", "bench-complexity", "coverage"]


@pytest.mark.parametrize("command", _GRID_COMMANDS)
def test_grid_length_below_four_is_refused_by_the_grid_rule(tmp_path, capsys, command):
    # Before any phase-space box, whose "need t_lo < t_hi" came first in
    # bench-complexity and coverage.
    out = tmp_path / "x.csv"
    assert main([command, "-M", "0", "--csv", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: invalid-parameter: grid length must be >= 4, got 0"]
    assert not out.exists()


@pytest.mark.parametrize("command", _GRID_COMMANDS)
def test_odd_grid_length_is_refused_by_the_grid_rule(tmp_path, capsys, command):
    # bench-complexity and coverage wrote a CSV for M = 7.
    out = tmp_path / "x.csv"
    assert main([command, "-M", "7", "--csv", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: invalid-parameter: grid length must be even, got 7"]
    assert not out.exists()


@pytest.mark.parametrize("rate", ["1e200", "1e-200"])
def test_bench_error_refuses_a_rate_past_the_test_signal(tmp_path, capsys, rate):
    # The transform runs at these rates, but the test signal's chirps
    # overflow: refused in one line naming the rate, where a numpy warning
    # came first.
    out = tmp_path / "e.csv"
    args = ["bench-error", "--rate", rate, "-M", "64", "--redundancies", "1",
            "--methods", "mc", "--csv", str(out)]
    assert main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: invalid-parameter: rate {float(rate):g} Hz")
    assert not out.exists()


def test_bench_discrepancy_csv(tmp_path):
    # The wavelet grid is built end to end, at the sizes of its rule.
    out = tmp_path / "d.csv"
    for generators in ("hammersley,regular", "dwt,regular"):
        assert main([
            "bench-discrepancy", "--csv", str(out),
            "--generators", generators, "--sizes", "8,16,32",
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1].split(",") == ["generator", "n", "d_star", "slope"]
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 2 * 3
        assert all(math.isfinite(float(v)) for row in rows for v in row[1:])


@pytest.mark.parametrize(
    "args",
    [
        ["--generators", "hammersley", "--sizes", "8"],
        ["--generators", "regular", "--sizes", "8,9"],  # both lattices hold 9 points
    ],
    ids=["one size", "two sizes, one N"],
)
def test_bench_discrepancy_refuses_a_slope_through_one_n(tmp_path, capsys, args):
    out = tmp_path / "d.csv"
    assert main(["bench-discrepancy", *args, "--csv", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid-parameter:")
    assert not out.exists()


def test_bench_complexity_csv(tmp_path):
    # Two sizes, then the defaults: four sizes on 64 Hz and M = 1024.
    out = tmp_path / "c.csv"
    for flags, count in [(["--sizes", "256,1024"], 2), ([], 4)]:
        assert main(["bench-complexity", "--csv", str(out), *flags]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1].split(",") == ["n", "c_actual", "a_predicted", "per_point_bound"]
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == count
        for row in rows:
            assert all(math.isfinite(float(v)) for v in row)
            assert float(row[1]) / float(row[0]) <= float(row[3])


@pytest.mark.parametrize(
    "args",
    [
        ["bench-discrepancy", "--generators", "hammersley,sobol", "--sizes", "8,16,32"],
        ["bench-complexity", "--sizes", "256,0"],
    ],
    ids=["unknown generator after a good one", "bad size after a good one"],
)
def test_failing_bench_leaves_no_csv(tmp_path, args):
    out = tmp_path / "partial.csv"
    assert main(args + ["--csv", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "args, code",
    [
        ("bench-discrepancy --generators dwt --sizes 0,8", "invalid-parameter"),
        ("bench-discrepancy --generators dwt --sizes=-4,8", "invalid-parameter"),
        ("bench-discrepancy --generators regular --sizes=-4,8", "invalid-parameter"),
        ("bench-discrepancy --generators regular --sizes 0,8", "invalid-parameter"),
        ("coverage --generator dwt -N 0", "invalid-parameter"),
        ("coverage --generator dwt -N -5", "invalid-parameter"),
        ("coverage --generator dwt -N 100000000000", "budget-exceeded"),
        ("bench-discrepancy --generators hammersley --sizes 8,20000000", "budget-exceeded"),
    ],
)
def test_point_count_outside_the_rule_is_one_line_and_no_csv(tmp_path, capsys, args, code):
    # Every generator's sizes follow the point-count rule, refused before
    # any grid or point set is built.
    out = tmp_path / "x.csv"
    assert main(args.split() + ["--csv", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {code}:")
    assert not out.exists()


def test_coverage_csv(tmp_path, capsys):
    # 20 queries at M = 256, then the defaults: 100 queries at M = 1024.
    out = tmp_path / "cov.csv"
    for flags, queries in [(["-M", "256", "--queries", "20"], 20), ([], 100)]:
        assert main(["coverage", "--csv", str(out), *flags]) == 0
        printed = capsys.readouterr().out
        assert "max/min" in printed
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[2:]]
        assert len(rows) == queries
        assert all(math.isfinite(float(v)) for row in rows for v in row)


def test_coverage_csv_of_the_wavelet_grid(tmp_path, capsys):
    out = tmp_path / "cov.csv"
    assert main(["coverage", "--generator", "dwt", "-A", "1", "-M", "256",
                 "--queries", "20", "--csv", str(out)]) == 0
    assert capsys.readouterr().out.startswith("coverage mean=")
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[2:]]
    assert len(rows) == 20
    assert all(np.isfinite(float(v)) for row in rows for v in row)


def test_unknown_flag_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["bench-error", "--nope", "--csv", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command",
    [
        "bench-discrepancy --gamma 3",
        "bench-discrepancy -M 7",
        "bench-discrepancy --rate 8000",
        "frame-diag --padded",
        "bench-complexity --padded",
        "coverage --padded",
        "bench-complexity --xi 3",
        "coverage --xi 3",
    ],
)
def test_flag_the_command_does_not_read_is_usage_error(tmp_path, command):
    # A flag that would change nothing is refused, not recorded in the
    # config line of an unchanged CSV.
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(command.split() + ["--csv", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_config_key_the_command_does_not_read_is_parse_error(tmp_path, capsys):
    # --csv is required on the command line, which would override the file.
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "d.csv"
    for line in ("gamma=3", f"csv={tmp_path / 'x.csv'}"):
        cfg.write_text(line + "\n")
        code = main(["bench-discrepancy", "--csv", str(out), "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: parse-error: unknown config key")
        assert not out.exists() and not (tmp_path / "x.csv").exists()


def test_missing_input_is_io_error(tmp_path):
    code = main(["reconstruct", str(tmp_path / "absent.wav"), str(tmp_path / "o.wav")])
    assert code == 1


def test_samples_and_redundancy_conflict(tmp_path):
    src = _sine_wav(tmp_path / "in.wav")
    code = main(["reconstruct", "-N", "100", "-A", "2", src, str(tmp_path / "o.wav")])
    assert code == 1


def test_config_file_layering(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("resolution=128\nrate=32.0\n# comment\n")
    config = parse_config([
        "frame-diag", "--csv", str(tmp_path / "h.csv"),
        "--config", str(cfg), "-M", "64",
    ])
    # explicit flag wins over the file; file wins over the default
    assert config.options["resolution"] == 64
    assert config.options["rate"] == 32.0


def test_config_file_bad_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("not a pair\n")
    code = main(["frame-diag", "--csv", str(tmp_path / "h.csv"),
                 "--config", str(cfg)])
    assert code == 1


def test_config_file_bad_value_is_parse_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma=abc\n")
    code = main(["frame-diag", "--csv", str(tmp_path / "h.csv"),
                 "--config", str(cfg)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: parse-error:")


@pytest.mark.parametrize(
    "line",
    ["samples=abc", "gamam=3", "sequence=sobol", "padded=maybe", "not a pair",
     "input=other.wav", "output=o2.wav"],
)
def test_config_file_bad_key_or_value_is_parse_error(tmp_path, capsys, line):
    # samples has no default to take a type from; gamam is a typo of gamma;
    # a line without '=' is not a key=value pair; the input and output paths
    # come from the command line, which would override the file.
    src = _sine_wav(tmp_path / "in.wav")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code = main(["reconstruct", "--config", str(cfg), src, str(tmp_path / "o.wav")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: parse-error:")


def test_config_file_values_take_flag_types(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples=300\npadded=Yes\nsequence=mc\n")
    config = parse_config(["reconstruct", "--config", str(cfg), "in.wav", "out.wav"])
    assert config.options["samples"] == 300
    assert config.options["padded"] is True
    assert config.options["sequence"] == "mc"


def test_negative_mc_seed_is_invalid_parameter(tmp_path, capsys):
    src = _sine_wav(tmp_path / "in.wav")
    code = main(["reconstruct", "--sequence", "mc", "--seed", "-1",
                 src, str(tmp_path / "o.wav")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid-parameter:")


@pytest.mark.parametrize("subcommand", ["bench-error", "coverage"])
def test_negative_seed_is_invalid_parameter(tmp_path, capsys, subcommand):
    code = main([subcommand, "--seed", "-1", "--csv", str(tmp_path / "x.csv"), "-M", "256"])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid-parameter:")


@pytest.mark.parametrize(
    "command",
    [
        "reconstruct -A inf",
        "reconstruct -A nan",
        "denoise -A nan",
        "vocoder -A inf",
        "coverage -A inf",
        "bench-error --redundancies nan",
        "bench-error --redundancies inf",
    ],
)
def test_non_finite_redundancy_is_invalid_parameter(tmp_path, capsys, command):
    # A must be positive and finite for N = ceil(A*M) to be a count.
    args = command.split()
    if args[0] in ("coverage", "bench-error"):
        args += ["--csv", str(tmp_path / "x.csv"), "-M", "64"]
    else:
        args += [_sine_wav(tmp_path / "in.wav"), str(tmp_path / "o.wav")]
    assert main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid-parameter:")


def _run_python(args, **kwargs):
    # A child Python process that imports the same ltft as this process.
    src = os.path.dirname(os.path.dirname(ltft.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        **kwargs,
    )


def _run_cli(args, **kwargs):
    return _run_python(["-m", "ltft.cli", *args], **kwargs)


# Names of the top-level package that load their module on first access.
_LAZY_EXPORTS = {
    "baselines": [
        "CoverageReport", "DwtGridParams", "coverage_queries", "discrepancy_scaling",
        "dwt_grid", "dwt_grid_with_size", "funnel_coverage",
    ],
    "bench": [
        "bench_reconstruction", "complexity_count", "complexity_per_point_bound",
        "make_test_signal",
    ],
}


def test_cli_import_loads_neither_bench_modules_nor_the_pool():
    # A fresh process: `import ltft.cli` runs no benchmark module and loads
    # no thread pool, and each lazy name then resolves to its module's own
    # object and is listed by dir(ltft).
    code = f"""
import importlib, sys
import ltft.cli
loaded = {{"ltft.baselines", "ltft.bench", "concurrent.futures"}} & set(sys.modules)
assert not loaded, loaded
import ltft
for module, names in {_LAZY_EXPORTS!r}.items():
    for name in names:
        assert name in dir(ltft), name
        assert getattr(ltft, name) is getattr(importlib.import_module("ltft." + module), name)
"""
    proc = _run_python(["-c", code], timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_pooled_vocoder_leaves_no_thread_and_loads_no_pool_module(tmp_path):
    # A fresh process runs `ltft vocoder` through cli.main with the tile pool
    # forced on: the tiles run on two threads, and afterwards only the main
    # thread is alive and concurrent.futures was never imported.
    code = """
import sys, threading
import numpy as np
from ltft import WavAudio, cli, processing, wav_write
processing._usable_cores = lambda: 2
processing._POOL_MIN_ATOM_SAMPLES = 0
processing._TILE_POINTS = 1 << 11
runners = set()
tile_pass = processing._tile_pass
def recording(*args):
    runners.add(threading.get_ident())
    return tile_pass(*args)
processing._tile_pass = recording
t = np.arange(2000) / 16000
wav_write(sys.argv[1], WavAudio(0.5 * np.sin(2 * np.pi * 440 * t), 16000))
assert cli.main(["vocoder", "-D", "2", sys.argv[1], sys.argv[2]]) == 0
assert len(runners) == 2, runners
assert threading.active_count() == 1, threading.enumerate()
assert "concurrent.futures" not in sys.modules
"""
    proc = _run_python(["-c", code, str(tmp_path / "in.wav"), str(tmp_path / "out.wav")],
                       timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_star_import_binds_the_lazy_names():
    # `from ltft import *` binds every public name, the lazy ones included,
    # while a plain `import ltft.cli` still loads neither benchmark module.
    code = """
import sys, types
import ltft.cli
assert not {"ltft.baselines", "ltft.bench"} & set(sys.modules)
from ltft import *
make_test_signal, funnel_coverage
import ltft
public = {name for name in dir(ltft)
          if not name.startswith("_") and not isinstance(getattr(ltft, name), types.ModuleType)}
assert sorted(ltft.__all__) == sorted(public), set(ltft.__all__) ^ public
"""
    proc = _run_python(["-c", code], timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_unknown_package_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ltft.no_such_name


@pytest.mark.parametrize(
    "command",
    [
        "reconstruct -A 1e300",
        # A*M overflows: past the budget, like any A*M above it.
        "reconstruct -A 1e308",
        "reconstruct -N 100000000000000",
        "vocoder -N 100000000000000",
        # Past the budget at M = 1, so refused before the WAV is opened.
        "vocoder -A 1e300 missing.wav",
    ],
)
def test_huge_sample_count_is_budget_exceeded(tmp_path, command):
    # The point generators refuse the count before they allocate anything.
    args = command.split()
    missing = args.pop() if args[-1].endswith(".wav") else None
    wav = str(tmp_path / missing) if missing else _sine_wav(tmp_path / "in.wav")
    args += [wav, str(tmp_path / "o.wav")]
    proc = _run_cli(args, timeout=60)
    err = proc.stderr.splitlines()
    assert proc.returncode == 1
    assert len(err) == 1 and err[0].startswith("error: budget-exceeded:")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o.wav").exists()


@pytest.mark.parametrize(
    "command",
    [
        "reconstruct -A 2 --gamma 1e300",
        "reconstruct -A 2 --xi 1e300",
        "reconstruct -A 2 --b0-frac 1e-300",
        # The guard band's rule lets this one through; the table's does not.
        "vocoder --b0-frac 1e-4",
        "frame-diag --xi 1e300",
        "frame-diag --gamma 1e300 --b0-frac 1e-10",
        "coverage --gamma 1e300",
        "bench-complexity --gamma 1e300",
        "bench-complexity --b0-frac 1e-300",
    ],
)
def test_unbounded_frame_table_is_budget_exceeded(tmp_path, capsys, command):
    # The frame table's node count, infinite for the frame-diag --b0-frac
    # case, is refused before anything is allocated; coverage and
    # bench-complexity refuse the analysis guard band's width, as no run
    # could use such supports.
    if command.startswith(("reconstruct", "vocoder")):
        out = tmp_path / "o.wav"
        args = command.split() + [_sine_wav(tmp_path / "in.wav"), str(out)]
    else:
        out = tmp_path / "f.csv"
        args = command.split() + ["--csv", str(out)]
    assert main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: budget-exceeded:")
    assert not out.exists()


@pytest.mark.parametrize(
    "command", ["--b0-frac 0.4 --b1-frac 0.401", "--b0-frac 0.1 --b1-frac 0.1001 --rate 1e4"]
)
def test_coverage_band_narrower_than_its_queries_is_invalid(tmp_path, capsys, command):
    # Queries are drawn log-uniform in (1.01 b0, 0.99 b1); a band with
    # b1 < 1.0202 b0 ended in numpy's "high - low < 0" traceback.
    out = tmp_path / "c.csv"
    assert main(["coverage", *command.split(), "--csv", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid-parameter:") and "band" in err[0]
    assert not out.exists()


def test_coverage_margin_wider_than_the_box_is_invalid(tmp_path, capsys):
    # The guard band at gamma = 1e5 is within budget, but no query time
    # clears gamma/b of the 16 s box on both sides: one invalid-parameter
    # line and no CSV, where the queries once fell outside the box.
    out = tmp_path / "c.csv"
    assert main(["coverage", "--gamma", "1e5", "--csv", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid-parameter:")
    assert not out.exists()


@pytest.mark.parametrize("command", ["frame-diag --xi 1e-300", "bench-error --xi 1e-300 -M 64"])
def test_xi_below_its_floor_is_invalid(tmp_path, capsys, command):
    # Below xi = 1e-9 the frame diagonal loses digits as 1/xi: one
    # invalid-parameter line naming the floor, and no CSV, where bench-error
    # once wrote rel_error 1 on every row.
    out = tmp_path / "f.csv"
    assert main(command.split() + ["--csv", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid-parameter:") and "1e-9" in err[0]
    assert not out.exists()


def test_out_of_memory_is_budget_exceeded(tmp_path, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 GiB for an array")

    monkeypatch.setattr(ltft.cli, "reconstruct", no_memory)
    args = ["reconstruct", _sine_wav(tmp_path / "in.wav"), str(tmp_path / "o.wav")]
    assert main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: budget-exceeded: Unable to allocate 8.00 GiB for an array"]


@pytest.mark.parametrize(
    "command",
    [
        "bench-error --redundancies 1,x",
        "bench-error --redundancies=",
        "bench-error --methods ,",
        "bench-discrepancy --sizes 8,x",
        "bench-discrepancy --generators=",
        "bench-complexity --sizes x",
    ],
)
def test_bad_list_flag_is_parse_error(tmp_path, capsys, command):
    args = command.split() + ["--csv", str(tmp_path / "x.csv")]
    if args[0] != "bench-discrepancy":  # which has no grid, so no -M
        args += ["-M", "64"]
    code = main(args)
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: parse-error:")


def test_csv_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bench-error", "-M", "256", "--methods", "mc",
            "--redundancies", "1,2", "--seed", "3"]
    assert main(args + ["--csv", str(a)]) == 0
    assert main(args + ["--csv", str(b)]) == 0
    assert a.read_bytes()[: 10**6] != b""
    content_a = a.read_bytes().replace(str(a).encode(), b"CSV")
    content_b = b.read_bytes().replace(str(b).encode(), b"CSV")
    assert content_a == content_b


def test_console_entry_point():
    # The child imports the same ltft as this process, installed or not.
    proc = _run_cli(["--help"])
    assert proc.returncode == 0
    assert "subcommand" in proc.stdout or "usage" in proc.stdout.lower()
