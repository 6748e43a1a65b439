import os
import subprocess
import sys

import numpy as np
import pytest

import ltft
from ltft import ParseError, UnsupportedFormatError, WavAudio, wav_read, wav_write
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


def test_denoise_and_multiplier_run(tmp_path):
    src = _sine_wav(tmp_path / "in.wav")
    assert main(["denoise", "--threshold", "0.2", "--redundancy", "4",
                 src, str(tmp_path / "d.wav")]) == 0
    assert main(["multiplier", "--low-pass", "900", "--redundancy", "4",
                 src, str(tmp_path / "m.wav")]) == 0
    assert main(["multiplier", src, str(tmp_path / "m2.wav")]) == 1  # no band given


def test_bench_error_csv(tmp_path):
    out = tmp_path / "fig.csv"
    code = main([
        "bench-error", "--csv", str(out), "-M", "256",
        "--methods", "hammersley,mc", "--redundancies", "1,2,4",
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# config: subcommand=bench-error")
    assert lines[1].split(",") == ["method", "redundancy", "n", "rel_error", "rel_error_std"]
    assert len(lines) == 2 + 2 * 3  # one row per (method, redundancy)


def test_frame_diag_csv(tmp_path):
    out = tmp_path / "h.csv"
    assert main(["frame-diag", "--csv", str(out), "-M", "128"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1].split(",") == ["omega", "h", "q0", "q1", "q2"]
    assert len(lines) == 2 + 128


def test_bench_discrepancy_csv(tmp_path):
    out = tmp_path / "d.csv"
    assert main([
        "bench-discrepancy", "--csv", str(out),
        "--generators", "hammersley,regular", "--sizes", "8,16,32",
    ]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1].split(",") == ["generator", "n", "d_star", "slope"]
    assert len(lines) == 2 + 2 * 3


def test_bench_complexity_csv(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["bench-complexity", "--csv", str(out), "--sizes", "256,1024"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1].split(",") == ["n", "c_actual", "a_predicted", "per_point_bound"]
    rows = [line.split(",") for line in lines[2:]]
    for row in rows:
        assert float(row[1]) / float(row[0]) <= float(row[3])


def test_coverage_csv(tmp_path, capsys):
    out = tmp_path / "cov.csv"
    assert main(["coverage", "--csv", str(out), "-M", "256", "--queries", "20"]) == 0
    printed = capsys.readouterr().out
    assert "max/min" in printed
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2 + 20


def test_unknown_flag_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["bench-error", "--nope", "--csv", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


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
    src = os.path.dirname(os.path.dirname(ltft.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ltft.cli", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "subcommand" in proc.stdout or "usage" in proc.stdout.lower()
