"""Workload inputs, end-to-end entry points and correctness checks.

Shared by the runner (run.py) and its worker processes (worker.py).
Importing this module imports numpy and ltft, so the caller puts the
checkout's src/ directory first on sys.path.  End-to-end calls go through
the top-level entry points only (reconstruct, bench_reconstruction and
the CLI), so a change inside a layer cannot break them; the traced run in
worker.py rebuilds the same pipelines from the layers' public functions.
"""

from __future__ import annotations

import math
import wave
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import ltft
from ltft import (
    LtftParams,
    WavAudio,
    atom_support_length,
    bench_reconstruction,
    make_test_signal,
    reconstruct,
    wav_write,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_SEED = 0

# speech-reconstruct: the roadmap's headline size, 1 s of 16 kHz audio at
# redundancy A = 16 with Hammersley points (N = 256000).
SPEECH_RATE = 16000.0
SPEECH_M = 16000
SPEECH_N = 16 * SPEECH_M

# error-sweep: the paper's accuracy experiment at L = 64, M = 1024.
SWEEP_RATE = 64.0
SWEEP_M = 1024
SWEEP_HAMMERSLEY = (1, 2, 4, 8, 16, 32, 64)
SWEEP_MC = (1, 2, 4, 8, 16)
SWEEP_MC_SEEDS = tuple(range(5))

# vocoder-cli: `ltft vocoder -D 2` on 1 s of 16 kHz PCM16.
VOCODER_RATE = 16000
VOCODER_M = 16000
VOCODER_D = 2

# Sanity ceilings that hold at every workload seed; the values at the
# golden seed sit well below them (0.12, 0.030 and 0.73).
SPEECH_ERROR_CEILING = 0.3
SWEEP_ERROR_CEILING = 0.1
VOCODER_SPECTRUM_CEILING = 0.9
SPECTRUM_BANDS = 32
GOLDEN_REL_TOL = 1e-9


def check_checkout_import() -> None:
    """Refuse to measure an ltft that is not the checkout's own source."""
    src = (ROOT / "src").resolve()
    if src not in Path(ltft.__file__).resolve().parents:
        raise SystemExit(f"ltft imported from {ltft.__file__}, not from {src}")


def speech_inputs(seed: int):
    params = LtftParams.for_rate(SPEECH_RATE)
    return make_test_signal(SPEECH_M, SPEECH_RATE, seed=seed, params=params), params


def speech_e2e(signal, params):
    return reconstruct(signal, params, SPEECH_N, "hammersley", 0)


def sweep_inputs(seed: int):
    params = LtftParams.for_rate(SWEEP_RATE)
    return make_test_signal(SWEEP_M, SWEEP_RATE, seed=seed, params=params), params


def sweep_e2e(signal, params):
    """Both halves of the accuracy experiment; 32 reconstruct calls."""
    return bench_reconstruction(
        signal, params, ["hammersley"], SWEEP_HAMMERSLEY
    ) + bench_reconstruction(
        signal, params, ["mc"], SWEEP_MC, mc_seeds=SWEEP_MC_SEEDS
    )


def row_tuples(rows):
    return [[r.method, r.redundancy, r.n, r.rel_error, r.rel_error_std] for r in rows]


def error_order(rows, method: str) -> float:
    """Minus the least-squares log-log slope of error against N."""
    sel = [r for r in rows if r[0] == method]
    x = np.log([r[2] for r in sel])
    y = np.log([r[3] for r in sel])
    return float(-np.polyfit(x, y, 1)[0])


def sweep_rel_error(rows) -> float:
    """The Hammersley row at the largest redundancy."""
    return [r[3] for r in rows if r[0] == "hammersley"][-1]


def sweep_summary(seed: int) -> dict:
    """Run the accuracy experiment once and reduce it to its metrics."""
    signal, params = sweep_inputs(seed)
    rows = row_tuples(sweep_e2e(signal, params))
    return {
        "rows": rows,
        "rel_error": sweep_rel_error(rows),
        "err_order_hammersley": error_order(rows, "hammersley"),
        "err_order_mc": error_order(rows, "mc"),
    }


def write_vocoder_input(seed: int, path: Path) -> None:
    params = LtftParams.for_rate(float(VOCODER_RATE))
    signal = make_test_signal(VOCODER_M, float(VOCODER_RATE), seed=seed, params=params)
    wav_write(str(path), WavAudio(np.real(signal.samples), VOCODER_RATE))


def vocoder_argv(src: Path, dest: Path):
    return ["vocoder", "-D", str(VOCODER_D), str(src), str(dest)]


def read_pcm(path: Path):
    """(int16 samples, rate) of a mono PCM16 WAV file."""
    with wave.open(str(path), "rb") as handle:
        rate = handle.getframerate()
        data = np.frombuffer(handle.readframes(handle.getnframes()), dtype="<i2")
    return data, rate


def band_energy_error(output: np.ndarray, reference: np.ndarray) -> float:
    """Relative L2 distance between normalised band-energy spectra.

    A time stretch keeps frequency content, not samples, so the vocoder's
    output is compared with its input on the share of energy in each of
    SPECTRUM_BANDS equal bands between 0 and Nyquist.
    """

    def bands(x):
        power = np.abs(np.fft.rfft(np.asarray(x, dtype=np.float64))) ** 2
        edges = np.linspace(0, power.size, SPECTRUM_BANDS + 1).astype(int)
        energy = np.add.reduceat(power, edges[:-1])
        return energy / energy.sum()

    ref = bands(reference)
    return float(np.linalg.norm(bands(output) - ref) / np.linalg.norm(ref))


def close(value: float, golden: float) -> bool:
    return math.isclose(value, golden, rel_tol=GOLDEN_REL_TOL, abs_tol=1e-15)


def rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return math.inf
    denom = np.linalg.norm(b)
    return float(np.linalg.norm(a - b) / denom) if denom else float(np.linalg.norm(a))


def signal_ok(out, length: int) -> bool:
    return out.m == length and bool(np.all(np.isfinite(out.samples)))


def grid_counts(params, samples, rate: float, grid_len: int):
    """(atom-samples computed, of those on the grid) for one cubature pass.

    Mirrors the support rule of the transform: atom n covers the sample
    indices ceil((a - S/2) L) .. floor((a + S/2) L), S from
    atom_support_length; the grid holds indices -M/2 .. M/2 - 1.
    """
    s = atom_support_length(params, samples.b)
    lo = np.ceil((samples.a - 0.5 * s) * rate).astype(np.int64)
    hi = np.floor((samples.a + 0.5 * s) * rate).astype(np.int64)
    computed = np.maximum(hi - lo + 1, 0)
    on_grid = np.maximum(
        np.minimum(hi, grid_len // 2 - 1) - np.maximum(lo, -grid_len // 2) + 1, 0
    )
    return int(computed.sum()), int(on_grid.sum())


@contextmanager
def count_calls(name: str, modules):
    """Count calls to ``name`` through each module that binds it."""
    counter = {"calls": 0}
    saved = []
    for module in modules:
        original = getattr(module, name, None)
        if original is None:
            continue

        def counting(*args, _original=original, **kwargs):
            counter["calls"] += 1
            return _original(*args, **kwargs)

        saved.append((module, original))
        setattr(module, name, counting)
    try:
        yield counter
    finally:
        for module, original in saved:
            setattr(module, name, original)


def frame_modules():
    import ltft.cli
    import ltft.frame
    import ltft.processing

    return (ltft, ltft.frame, ltft.processing, ltft.cli)
