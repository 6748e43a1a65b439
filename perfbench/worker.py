"""Worker process for the benchmark runner; prints one JSON line.

Modes (the runner starts one worker at a time):

  setup --rate R            time `import ltft.cli`, LtftParams and the first
                            WindowSpec.freq call in this fresh process, then
                            the host reference kernel
  lib --workload W ...      run a library workload in this fresh process:
                            untimed warm-up, then timed end-to-end runs with
                            the host reference kernel timed after each, or
                            with --trace 1 timed runs alternating with the
                            traced rebuild of the same pipeline
  trace-vocoder IN OUT      the traced rebuild of `ltft vocoder` in a fresh
                            process; with --alloc also work counters and
                            tracemalloc peaks

Only the standard library and spans.py are imported at start, so the setup
clock sees the whole cost of importing ltft and numpy; hostref.py, which
imports numpy, is loaded only after that clock stops.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback

from spans import Tracer


def _emit(payload) -> None:
    print(json.dumps(payload))


def cmd_setup(args) -> None:
    t0 = time.perf_counter()
    import ltft.cli  # noqa: F401  (the import is what is timed)

    t1 = time.perf_counter()
    params = ltft.LtftParams.for_rate(args.rate)
    params.window.freq(0.0)
    t2 = time.perf_counter()
    from hostref import kernel_seconds
    from workloads import check_checkout_import

    check_checkout_import()
    _emit({
        "import_s": t1 - t0,
        "window_s": t2 - t1,
        "setup_s": t2 - t0,
        "kernel_s": kernel_seconds(),
    })


# ---------------------------------------------------------------------------
# Rebuilt pipelines: the top-level entry points re-assembled from the layers'
# public functions, one span per call into a layer.
# ---------------------------------------------------------------------------


def traced_reconstruct(tr, notes, signal, params, n, kind="hammersley", seed=0):
    """processing.reconstruct, step by step."""
    from ltft import (
        PhaseSpaceBox,
        analyze,
        apply_inverse_frame,
        frame_diagonal,
        from_analytic,
        scale_to_box,
        synthesize,
        to_analytic,
    )
    from ltft.lds import generate_unit_points

    with tr.span("processing.reconstruct"):
        analytic = tr.call("core.to_analytic", to_analytic, signal)
        box = PhaseSpaceBox.for_signal(signal, params)
        unit = tr.call("lds.generate_unit_points", generate_unit_points, kind, n, 3, seed)
        samples = tr.call("lds.scale_to_box", scale_to_box, unit, box)
        coeffs = tr.call("core.analyze", analyze, analytic, samples, params)
        raw = tr.call(
            "core.synthesize", synthesize, coeffs, samples, params,
            signal.m, signal.sample_rate,
        )
        hd = tr.call(
            "frame.frame_diagonal", frame_diagonal, params, signal.sample_rate,
            signal.m, folded=True,
        )
        normalized = tr.call("frame.apply_inverse_frame", apply_inverse_frame, raw, hd)
        out = tr.call("core.from_analytic", from_analytic, normalized)
    notes.append({
        "params": params, "rate": signal.sample_rate, "samples": samples,
        "grid": signal.m, "out_samples": samples, "out_grid": signal.m,
        "coeffs": coeffs, "raw": raw, "hd": hd, "out": out,
    })
    return out


def traced_sweep(tr, notes, signal, params):
    """bench.bench_reconstruction for both halves of the sweep."""
    import numpy as np
    from ltft import relative_error
    from workloads import SWEEP_HAMMERSLEY, SWEEP_MC, SWEEP_MC_SEEDS

    rows = []
    with tr.span("bench.bench_reconstruction"):
        for a in SWEEP_HAMMERSLEY:
            n = int(math.ceil(a * signal.m))
            out = traced_reconstruct(tr, notes, signal, params, n)
            err = tr.call("core.relative_error", relative_error, out, signal)
            rows.append(["hammersley", a, n, err, 0.0])
        for a in SWEEP_MC:
            n = int(math.ceil(a * signal.m))
            errs = [
                tr.call(
                    "core.relative_error", relative_error,
                    traced_reconstruct(tr, notes, signal, params, n, "mc", s), signal,
                )
                for s in SWEEP_MC_SEEDS
            ]
            rows.append(["mc", a, n, float(np.mean(errs)), float(np.std(errs))])
    return rows


def traced_vocoder(tr, notes, argv):
    """`ltft vocoder`: CLI parsing, WAV I/O and processing.phase_vocoder."""
    with tr.span("cli.import"):
        import numpy as np
        import ltft.cli
        from ltft import (
            CoefficientVector,
            DigitalSignal,
            LtftParams,
            PhaseSpaceBox,
            VocoderJob,
            WavAudio,
            analyze,
            apply_inverse_frame,
            frame_diagonal,
            from_analytic,
            scale_to_box,
            synthesize,
            to_analytic,
            vocoder_phase_rule,
            wav_read,
            wav_write,
        )
        from ltft.lds import generate_unit_points

    options = tr.call("cli.parse_config", ltft.cli.parse_config, argv).options
    audio = tr.call("wavio.wav_read", wav_read, str(options["input"]))
    signal = audio.to_signal()
    params = LtftParams.for_rate(
        signal.sample_rate,
        b0_frac=float(options["b0_frac"]),
        b1_frac=float(options["b1_frac"]),
        gamma=float(options["gamma"]),
        xi=float(options["xi"]),
        window_kind=str(options["window"]),
    )
    tr.call("core.window_setup", params.window.freq, 0.0)
    job = VocoderJob(
        params=params,
        dilation=int(options["dilation"]),
        sequence=str(options["sequence"]),
        seed=int(options["seed"]),
        padded=bool(options["padded"]),
    )
    with tr.span("processing.phase_vocoder"):
        d = job.dilation
        out_len = d * signal.m
        rate = signal.sample_rate
        analytic = tr.call("core.to_analytic", to_analytic, signal)
        box = PhaseSpaceBox.for_signal(signal, params, padded=job.padded)
        unit = tr.call(
            "lds.generate_unit_points", generate_unit_points, job.sequence,
            job.sample_count(signal.m), 3, job.seed,
        )
        samples = tr.call("lds.scale_to_box", scale_to_box, unit, box)
        coeffs = tr.call("core.analyze", analyze, analytic, samples, params)
        shifted = CoefficientVector(
            tr.call("processing.vocoder_phase_rule", vocoder_phase_rule, coeffs.values, d),
            weight=coeffs.weight,
        )
        out_samples = tr.call("core.with_dilated_times", samples.with_dilated_times, float(d))
        raw = tr.call(
            "core.synthesize", synthesize, shifted, out_samples, params, out_len, rate
        )
        hd = tr.call(
            "frame.frame_diagonal", frame_diagonal, params, rate, out_len, folded=True
        )
        normalized = tr.call("frame.apply_inverse_frame", apply_inverse_frame, raw, hd)
        normalized = DigitalSignal(normalized.samples * d, rate)
        out = tr.call("core.from_analytic", from_analytic, normalized)
    tr.call(
        "wavio.wav_write", wav_write, str(options["output"]),
        WavAudio(np.real(out.samples), audio.rate),
    )
    notes.append({
        "params": params, "rate": rate, "samples": samples, "grid": signal.m,
        "out_samples": out_samples, "out_grid": out_len, "coeffs": coeffs,
        "raw": raw, "hd": hd, "out": out,
    })
    return out


# ---------------------------------------------------------------------------
# Work and health counters, derived from outside the program
# ---------------------------------------------------------------------------


def work_counters(notes, diagonal_calls: int, wav_bytes: int) -> dict:
    import numpy as np
    from ltft import complexity_count, dft
    from workloads import grid_counts

    atoms = predicted = points = computed = on_grid = 0
    for note in notes:
        c, a = complexity_count(note["samples"], note["params"], note["rate"])
        atoms += c
        predicted += a
        points += note["samples"].n
        for samples, grid in (
            (note["samples"], note["grid"]),
            (note["out_samples"], note["out_grid"]),
        ):
            comp, on = grid_counts(note["params"], samples, note["rate"], grid)
            computed += comp
            on_grid += on
    # Health of the frame normalisation on the largest Hammersley call.
    head = headline(notes)
    hd = head["hd"]
    power = np.abs(dft(head["raw"]).bins) ** 2
    kept = hd.h > hd.floor
    return {
        "atom_samples": atoms,
        "predicted": predicted,
        "points": points,
        "computed": computed,
        "on_grid": on_grid,
        "diagonal_calls": diagonal_calls,
        "floor_dropped_energy_frac": float(power[~kept].sum() / power.sum()),
        "h_kept_min": float(hd.h[kept].min()),
        "h_kept_max": float(hd.h[kept].max()),
        "wav_bytes": wav_bytes,
    }


def headline(notes):
    return max(
        (n for n in notes if n["samples"].generator == "hammersley"),
        key=lambda n: n["samples"].n,
    )


def probe_layers(tr, notes, work_dir: str) -> int:
    """Time the layers a library pipeline does not call, on its own data.

    The output is saved as PCM16 and read back, as `ltft reconstruct`
    would, and the D = 2 phase rule is applied to the coefficients.
    Returns the WAV bytes moved.
    """
    import numpy as np
    from ltft import WavAudio, vocoder_phase_rule, wav_read, wav_write
    from workloads import VOCODER_D

    head = headline(notes)
    path = os.path.join(work_dir, "probe.wav")
    audio = WavAudio(np.real(head["out"].samples), int(round(head["rate"])))
    tr.call("wavio.wav_write", wav_write, path, audio)
    back = tr.call("wavio.wav_read", wav_read, path)
    if np.max(np.abs(back.samples - np.clip(audio.samples, -1.0, 32767 / 32768))) > 1.0 / 32768:
        raise RuntimeError("PCM16 round trip moved a sample by more than 1 LSB")
    tr.call("processing.vocoder_phase_rule", vocoder_phase_rule, head["coeffs"].values, VOCODER_D)
    return 2 * os.path.getsize(path)


# ---------------------------------------------------------------------------
# Library workloads
# ---------------------------------------------------------------------------


def _library(workload: str):
    import numpy as np
    import workloads as w
    from ltft import relative_error

    def rows_ok(rows):
        return bool(np.all(np.isfinite([r[3:] for r in rows])))

    if workload == "speech-reconstruct":
        return {
            "inputs": w.speech_inputs,
            "e2e": w.speech_e2e,
            "rebuild": lambda tr, notes, s, p: traced_reconstruct(tr, notes, s, p, w.SPEECH_N),
            "ok": lambda out: w.signal_ok(out, w.SPEECH_M),
            "diff": lambda a, b: w.rel_diff(a.samples, b.samples),
            "result": lambda out, signal: {"rel_error": relative_error(out, signal)},
        }
    return {
        "inputs": w.sweep_inputs,
        "e2e": lambda s, p: w.row_tuples(w.sweep_e2e(s, p)),
        "rebuild": traced_sweep,
        "ok": rows_ok,
        "diff": lambda a, b: w.rel_diff([r[3:] for r in a], [r[3:] for r in b]),
        "result": lambda rows, signal: {
            "rows": rows,
            "rel_error": w.sweep_rel_error(rows),
            "err_order_hammersley": w.error_order(rows, "hammersley"),
            "err_order_mc": w.error_order(rows, "mc"),
        },
    }


def cmd_lib(args) -> None:
    import workloads as w
    from hostref import ScaledTimes

    w.check_checkout_import()
    spec = _library(args.workload)
    signal, params = spec["inputs"](args.seed)
    tally = {"attempted": 0, "failed": 0}

    def attempt(fn, *fargs):
        tally["attempted"] += 1
        try:
            out = fn(*fargs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            tally["failed"] += 1
            return None
        if not spec["ok"](out):
            tally["failed"] += 1
            return None
        return out

    if args.trace:
        with w.count_calls("frame_diagonal", w.frame_modules()) as counter:
            first = attempt(spec["e2e"], signal, params)
    else:
        first = attempt(spec["e2e"], signal, params)
    if first is None:
        _emit({"ok": False, **tally})
        return
    payload = {"ok": True, **spec["result"](first, signal)}
    payload["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    times = []
    scaled = ScaledTimes()
    tr = Tracer()
    walls = []
    notes = []
    max_diff = 0.0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out = attempt(spec["e2e"], signal, params)
        elapsed = time.perf_counter() - t0
        scaled.add(elapsed, ok=out is not None)
        if out is not None:
            times.append(elapsed)
        if out is not None and args.trace:
            run_notes = []
            t0 = time.perf_counter()
            rebuilt = spec["rebuild"](tr, run_notes, signal, params)
            walls.append(time.perf_counter() - t0)
            tr.run += 1
            notes = notes or run_notes
            max_diff = max(max_diff, spec["diff"](rebuilt, out))
        if time.perf_counter() - start >= args.seconds:
            break
    payload["times"] = times
    payload["kernel_s"] = scaled.kernel
    payload.update(tally)
    if not times:
        payload["ok"] = False
        _emit(payload)
        return
    payload["run_s"] = scaled.value()
    if args.trace:
        mem = Tracer(track_alloc=True)
        spec["rebuild"](mem, [], signal, params)
        probe = Tracer()
        wav_bytes = probe_layers(probe, notes, args.work_dir)
        payload.update({
            "spans": tr.spans,
            "walls": walls,
            "probe_spans": probe.spans,
            "alloc_peak": dict(mem.alloc_peak),
            "counters": work_counters(notes, counter["calls"], wav_bytes),
            "rebuild_max_rel_diff": max_diff,
        })
    _emit(payload)


def cmd_trace_vocoder(args) -> None:
    tr = Tracer(track_alloc=args.alloc)
    notes = []
    argv = ["vocoder", "-D", str(args.dilation), args.input, args.output]
    traced_vocoder(tr, notes, argv)
    import workloads as w  # after the cli.import span, which must see ltft load

    payload = {"spans": tr.spans}
    if args.alloc:
        w.check_checkout_import()
        wav_bytes = os.path.getsize(args.input) + os.path.getsize(args.output)
        payload["alloc_peak"] = dict(tr.alloc_peak)
        payload["counters"] = work_counters(notes, 0, wav_bytes)
    _emit(payload)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sp = sub.add_parser("setup")
    sp.add_argument("--rate", type=float, required=True)
    sp = sub.add_parser("lib")
    sp.add_argument("--workload", choices=("speech-reconstruct", "error-sweep"), required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--seconds", type=float, required=True)
    sp.add_argument("--trace", type=int, choices=(0, 1), required=True)
    sp.add_argument("--work-dir", required=True)
    sp = sub.add_parser("trace-vocoder")
    sp.add_argument("input")
    sp.add_argument("output")
    sp.add_argument("--dilation", type=int, required=True)
    sp.add_argument("--alloc", action="store_true")
    args = parser.parse_args()
    {"setup": cmd_setup, "lib": cmd_lib, "trace-vocoder": cmd_trace_vocoder}[args.mode](args)


if __name__ == "__main__":
    main()
