"""Benchmark runner for the ltft QMC analysis/synthesis pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed makes the workload's input
signal; the program receives only that input.  With --trace 0 the last
stdout line holds every end-to-end metric named in BENCHMARK.json, with
--trace 1 every per-layer metric.  Worker processes run one at a time.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
TRACES = ROOT / ".perfbench-out"
SETUP_PROCESSES = 11
# Library workloads: share of each traced run that leaf spans must cover.
MIN_LEAF_COVERAGE = 0.9
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(argv, tag: str):
    """Run one Python process to completion.

    Returns (exit code, wall seconds, peak RSS in MiB, stdout).  Output goes
    to files, so the wait cannot block on a full pipe.
    """
    out_path = WORK / f"{tag}.out"
    err_path = WORK / f"{tag}.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=child_env(), stdout=out, stderr=err
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    sys.stderr.write(err_path.read_text())
    return proc.returncode, wall, usage.ru_maxrss / 1024, out_path.read_text()


def run_worker(*argv) -> dict:
    code, _, _, out = run_process([str(PERF / "worker.py"), *argv], "worker")
    if code != 0:
        raise RuntimeError(f"worker {argv[0]} exited with status {code}")
    return json.loads(out.strip().splitlines()[-1])


def measure_setup(workload: str) -> dict:
    """Set-up time over fresh processes.

    ``setup_s`` is scaled to the reference host speed (see hostref.py), as
    ``run_s`` is, by the kernel timed in each set-up process after its
    clock stops; the import and window parts are plain medians.
    """
    import workloads as w
    from hostref import REF_S

    rate = {
        "speech-reconstruct": w.SPEECH_RATE,
        "vocoder-cli": float(w.VOCODER_RATE),
        "error-sweep": w.SWEEP_RATE,
    }[workload]
    runs = [run_worker("setup", "--rate", repr(rate)) for _ in range(SETUP_PROCESSES)]
    return {
        "setup_s": REF_S * statistics.median(r["setup_s"] / r["kernel_s"] for r in runs),
        "import_s": statistics.median(r["import_s"] for r in runs),
        "window_s": statistics.median(r["window_s"] for r in runs),
        "raw_setup_s": statistics.median(r["setup_s"] for r in runs),
        "kernel_s": statistics.median(r["kernel_s"] for r in runs),
    }


def merge_spans(span_lists):
    """Concatenate per-process span lists; run id = position in the list."""
    merged = []
    for run, spans in enumerate(span_lists):
        base = len(merged)
        for s in spans:
            parent = None if s["parent"] is None else s["parent"] + base
            merged.append({**s, "parent": parent, "run": run})
    return merged


class Gates:
    """Named correctness checks; the run is correct when all pass."""

    def __init__(self) -> None:
        self.failed = []

    def check(self, name: str, ok: bool) -> None:
        if not ok:
            self.failed.append(name)
            print(f"correctness check failed: {name}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def library(args, golden):
    import workloads as w

    res = run_worker(
        "lib", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", str(WORK),
    )
    if not res["ok"]:
        raise RuntimeError(f"{args.workload}: no run succeeded")
    gates = Gates()
    tally = {"attempted": res["attempted"], "failed": res["failed"]}
    if args.workload == "speech-reconstruct":
        gates.check("rel_error under ceiling", res["rel_error"] < w.SPEECH_ERROR_CEILING)
        if args.seed == w.GOLDEN_SEED:
            gates.check(
                "rel_error matches golden",
                w.close(res["rel_error"], golden["speech-reconstruct"]["rel_error"]),
            )
    else:
        gates.check("rel_error under ceiling", res["rel_error"] < w.SWEEP_ERROR_CEILING)
        if args.seed == w.GOLDEN_SEED:
            rows = golden["error-sweep"]["rows"]
            gates.check("row count matches golden", len(rows) == len(res["rows"]))
            gates.check(
                "rows match golden",
                all(
                    mine[:3] == gold[:3] and w.close(mine[3], gold[3]) and w.close(mine[4], gold[4])
                    for mine, gold in zip(res["rows"], rows)
                ),
            )
    setup = measure_setup(args.workload)
    if args.trace:
        gates.check(
            "traced rebuild matches end-to-end output",
            res["rebuild_max_rel_diff"] <= w.GOLDEN_REL_TOL,
        )
        from spans import layer_metrics

        metrics = layer_metrics(
            res["spans"], res["walls"], res["times"], res["probe_spans"],
            res["counters"], setup, res["alloc_peak"],
        )
        metrics["host.kernel_s"] = setup["kernel_s"]
        gates.check(
            "leaf spans cover at least 90% of the traced run",
            metrics["trace.leaf_coverage_frac"] >= MIN_LEAF_COVERAGE,
        )
        save_trace(args, res["spans"], metrics)
        return gates, tally, metrics
    if args.workload == "error-sweep":
        orders = res
    else:
        orders = w.sweep_summary(args.seed)
        tally["attempted"] += 1
    print_raw(res["times"], res["kernel_s"], setup)
    metrics = {
        "run_s": res["run_s"],
        "setup_s": setup["setup_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "rel_error": res["rel_error"],
        "err_order_hammersley": orders["err_order_hammersley"],
        "err_order_mc": orders["err_order_mc"],
    }
    return gates, tally, metrics


def vocoder(args, golden):
    import numpy as np
    import workloads as w
    from hostref import REF_PROCESS_S, ScaledTimes

    src = WORK / "in.wav"
    dest = WORK / "out.wav"
    traced_dest = WORK / "traced.wav"
    w.write_vocoder_input(args.seed, src)
    cli = ["-m", "ltft.cli", *w.vocoder_argv(src, dest)]
    traced = [str(PERF / "worker.py"), "trace-vocoder", str(src), str(traced_dest),
              "--dilation", str(w.VOCODER_D)]
    gates = Gates()
    tally = {"attempted": 1, "failed": 0}

    # Untimed first run: fills the bytecode and file caches.
    code, _, _, _ = run_process(cli, "cli")
    if code != 0:
        raise RuntimeError(f"ltft vocoder exited with status {code}")
    reference = dest.read_bytes()
    times, rss, walls, span_lists = [], [], [], []
    scaled = ScaledTimes(reference_process_seconds, REF_PROCESS_S)
    max_diff = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        code, wall, peak, _ = run_process(cli, "cli")
        tally["attempted"] += 1
        ok = code == 0 and dest.read_bytes() == reference
        scaled.add(wall, ok=ok)
        if not ok:
            tally["failed"] += 1
            continue
        times.append(wall)
        rss.append(peak)
        if args.trace:
            code, wall, _, out = run_process(traced, "traced")
            if code != 0:
                raise RuntimeError(f"traced vocoder exited with status {code}")
            walls.append(wall)
            span_lists.append(json.loads(out.strip().splitlines()[-1])["spans"])
            max_diff = max(
                max_diff, w.rel_diff(w.read_pcm(traced_dest)[0], w.read_pcm(dest)[0])
            )
    if not times:
        raise RuntimeError("every ltft vocoder run failed")

    data, rate = w.read_pcm(dest)
    gates.check("output length is D*M", data.size == w.VOCODER_D * w.VOCODER_M)
    gates.check("output rate is the input rate", rate == w.VOCODER_RATE)
    spectrum_error = w.band_energy_error(data, w.read_pcm(src)[0])
    gates.check("band-energy error under ceiling", spectrum_error < w.VOCODER_SPECTRUM_CEILING)
    if args.seed == w.GOLDEN_SEED:
        gold, gold_rate = w.read_pcm(w.GOLDEN_DIR / golden["vocoder-cli"]["wav"])
        gates.check(
            "output within 1 LSB of golden WAV",
            gold_rate == rate and gold.size == data.size
            and int(np.max(np.abs(gold.astype(np.int32) - data))) <= 1,
        )
    setup = measure_setup(args.workload)
    if args.trace:
        gates.check("traced rebuild matches end-to-end output", max_diff <= w.GOLDEN_REL_TOL)
        # Work counters, tracemalloc peaks and frame_diagonal calls come from
        # untimed passes: a traced process with tracemalloc on, and the CLI
        # entry point called in this process with the calls counted.
        code, _, _, out = run_process([*traced, "--alloc"], "alloc")
        if code != 0:
            raise RuntimeError(f"traced vocoder exited with status {code}")
        alloc = json.loads(out.strip().splitlines()[-1])
        import ltft.cli

        with w.count_calls("frame_diagonal", w.frame_modules()) as counter:
            tally["attempted"] += 1
            if ltft.cli.main(w.vocoder_argv(src, WORK / "counted.wav")) != 0:
                tally["failed"] += 1
        counters = {**alloc["counters"], "diagonal_calls": counter["calls"]}
        from spans import layer_metrics

        spans = merge_spans(span_lists)
        metrics = layer_metrics(
            spans, walls, times, [], counters, setup, alloc["alloc_peak"]
        )
        metrics["host.kernel_s"] = setup["kernel_s"]
        save_trace(args, spans, metrics)
        return gates, tally, metrics
    orders = w.sweep_summary(args.seed)
    tally["attempted"] += 1
    print_raw(times, scaled.kernel, setup)
    metrics = {
        "run_s": scaled.value(),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": statistics.median(rss),
        "rel_error": spectrum_error,
        "err_order_hammersley": orders["err_order_hammersley"],
        "err_order_mc": orders["err_order_mc"],
    }
    return gates, tally, metrics


def reference_process_seconds() -> float:
    """Wall seconds of a fresh process that runs the reference kernel once."""
    code, wall, _, _ = run_process([str(PERF / "hostref.py")], "reference")
    if code != 0:
        raise RuntimeError(f"reference process exited with status {code}")
    return wall


def print_raw(times, kernel, setup) -> None:
    """The unscaled times behind run_s and setup_s, for the record."""
    print(
        f"raw wall seconds: run fastest {min(times):.4f} median "
        f"{statistics.median(times):.4f} over {len(times)} runs; reference "
        f"median {statistics.median(kernel):.4f}; setup median "
        f"{setup['raw_setup_s']:.4f}"
    )


def save_trace(args, spans, metrics) -> None:
    """Write the spans out and print each layer's self time."""
    from spans import layer_self_seconds

    TRACES.mkdir(exist_ok=True)
    path = TRACES / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"host": host_info(), "spans": spans, "metrics": metrics}))
    print(f"spans written to {path.relative_to(ROOT)}")
    for layer, seconds in layer_self_seconds(spans).items():
        print(f"self time per traced run  {layer:<12} {seconds:.6f} s")


def host_info() -> dict:
    """CPU, usable cores and versions, printed with every result."""
    cpu = platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        models = [l.split(":", 1)[1].strip() for l in cpuinfo.read_text().splitlines()
                  if l.startswith("model name")]
        cpu = models[0] if models else cpu
    import numpy

    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


WORKLOADS = {
    "speech-reconstruct": library,
    "error-sweep": library,
    "vocoder-cli": vocoder,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ltft" / "__init__.py").is_file():
        print(f"error: no ltft sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(SRC), str(PERF)]
    import workloads as w

    w.check_checkout_import()
    golden = json.loads((w.GOLDEN_DIR / "golden.json").read_text())
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        gates, tally, metrics = WORKLOADS[args.workload](args, golden)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if not args.trace:
        metrics["ok_ops_frac"] = (tally["attempted"] - tally["failed"]) / tally["attempted"]
    gates.check("no failed operations", tally["failed"] == 0)
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    result = {
        "correct": not gates.failed,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print("host " + json.dumps(host_info()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
