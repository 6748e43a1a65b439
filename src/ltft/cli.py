"""Command-line front end: audio processing and benchmark subcommands.

Every subcommand is deterministic for a fixed configuration (seeds
included): CSV and WAV outputs are byte-identical across runs.  CSV files
carry a leading comment line recording the resolved configuration.

Each subcommand takes only the flags its handler reads, plus --config.  A
config-file key is the long name of one of the subcommand's optional
flags, without its leading dashes (b0-frac or b0_frac); the input and
output paths and --csv are given on the command line only.  So a flag or
key that would change nothing is an error, never silently ignored:
bench-discrepancy takes no transform, rate or resolution flags,
bench-complexity and coverage (which xi does not change) take no --xi,
and only the audio subcommands and bench-error take --padded.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .core import DigitalSignal, LtftParams, PhaseSpaceBox, _check_grid, _check_int
from .errors import InvalidParameterError, LtftError, ParseError
from .frame import frame_diagonal
from .lds import KINDS, _check_rows, scale_to_box, generate_unit_points
from .processing import (
    VocoderJob,
    denoise,
    phase_vocoder,
    reconstruct,
    sample_count,
    shrinkage,
)
from .wavio import WavAudio, wav_read, wav_write


@dataclass
class RunConfig:
    """Resolved subcommand plus its option map (flags over config file)."""

    subcommand: str
    options: Dict[str, object]


def _params_from(options: Dict[str, object], sample_rate: float) -> LtftParams:
    return LtftParams.for_rate(
        sample_rate,
        b0_frac=float(options["b0_frac"]),
        b1_frac=float(options["b1_frac"]),
        gamma=float(options["gamma"]),
        xi=float(options.get("xi", LtftParams.xi)),
        window_kind=str(options["window"]),
    )


def _write_csv(config: RunConfig, header: List[str], rows: Iterable[Sequence]) -> None:
    # The CSV format: the config line, the header, then one row per line
    # with floats at 17 significant digits.  Callers compute every row
    # first, so a failing command leaves no file.  Only the benchmark
    # subcommands write CSV, so only they load the csv module.
    import csv

    with open(str(config.options["csv"]), "w", newline="") as handle:
        pairs = " ".join(f"{key}={config.options[key]}" for key in sorted(config.options))
        handle.write(f"# config: subcommand={config.subcommand} {pairs}\r\n")
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(
            [format(v, ".17g") if isinstance(v, float) else str(v) for v in row] for row in rows
        )


def _list_option(options: Dict[str, object], key: str, convert=str) -> list:
    # A comma-separated flag value of at least one item; blanks are skipped.
    text = str(options[key])
    try:
        items = [convert(s.strip()) for s in text.split(",") if s.strip()]
    except ValueError:
        items = []
    if not items:
        raise ParseError(f"bad list value {key}={text!r}")
    return items


def _sample_count(m: int, options: Dict[str, object]) -> int:
    # N from -N or -A, at the one default A = 16 that _load_audio checks too.
    return sample_count(m, options.get("samples"), options.get("redundancy"), 16.0)


def _load_audio(options: Dict[str, object]) -> tuple:
    # Every argument that needs nothing from the WAV is refused before it is
    # read: the sequence and seed, N or A, and the transform, checked at the
    # lowest rate a WAV can have.  N or A is checked at M = 1: a count past
    # the budget there is past it at every M.
    _check_rows(str(options["sequence"]), 1, 3, options["seed"])
    _sample_count(1, options)
    _params_from(options, 1.0)
    audio = wav_read(str(options["input"]))
    signal = audio.to_signal()
    params = _params_from(options, signal.sample_rate)
    return audio, signal, params


def _grid_options(options: Dict[str, object]) -> tuple:
    # The rate L, grid length M and transform of a grid subcommand, M and L
    # checked by the grid rule before any box is built from them.
    rate = float(options["rate"])
    m = _check_grid(options["resolution"], rate)
    return rate, m, _params_from(options, rate)


def _grid_box(rate: float, m: int) -> PhaseSpaceBox:
    # The box [-M/2L, M/2L] x [0, L] of an M-sample grid, in the arithmetic
    # of PhaseSpaceBox.for_signal.
    half = m / (2.0 * rate)
    return PhaseSpaceBox(t_lo=-half, t_hi=half, freq_hi=rate)


def _write_audio(path: str, signal: DigitalSignal, audio: WavAudio, dilation: int = 1) -> None:
    # The input's frame count times D: to_signal pads an odd or short input
    # with zeros, which are cropped here.
    frames = dilation * audio.samples.size
    wav_write(path, WavAudio(np.real(signal.samples[:frames]), audio.rate))


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

# The benchmark handlers import ltft.bench and ltft.baselines themselves, so
# the audio commands never load those modules.


def _cmd_reconstruct(config: RunConfig, loaded: tuple = (), rule=None, threshold=None) -> int:
    # reconstruct with the rule, or denoise at the threshold when given, on
    # the audio `loaded` by _load_audio or loaded here.
    options = config.options
    audio, signal, params = loaded or _load_audio(options)
    n = _sample_count(signal.m, options)
    sampling = dict(
        kind=str(options["sequence"]), seed=int(options["seed"]), padded=bool(options["padded"])
    )
    if threshold is None:
        out = reconstruct(signal, params, n, rule=rule, **sampling)
    else:
        relative = options["threshold_mode"] == "relative"
        out = denoise(signal, params, n, threshold, relative, **sampling)
    _write_audio(str(options["output"]), out, audio)
    return 0


def _cmd_vocoder(config: RunConfig) -> int:
    options = config.options
    dilation = _check_int("dilation", options["dilation"], 1)  # refused before the WAV is read
    audio, signal, params = _load_audio(options)
    job = VocoderJob(
        params=params,
        dilation=dilation,
        redundancy=options.get("redundancy"),
        sequence=str(options["sequence"]),
        seed=int(options["seed"]),
        padded=bool(options["padded"]),
        samples=options.get("samples"),
    )
    out = phase_vocoder(signal, job)
    _write_audio(str(options["output"]), out, audio, job.dilation)
    return 0


def _cmd_denoise(config: RunConfig) -> int:
    threshold = float(config.options["threshold"])
    shrinkage(threshold)  # a negative or non-finite one is refused before the WAV is read
    return _cmd_reconstruct(config, threshold=threshold)


def _cmd_multiplier(config: RunConfig) -> int:
    options = config.options
    low = options.get("low_pass")
    high = options.get("high_pass")
    if (low is None) == (high is None):
        raise InvalidParameterError("give exactly one of --low-pass or --high-pass")
    # A cutoff outside (0, L) keeps no atom, so the output would be silence,
    # or every atom, so nothing would be filtered.  Only L needs the WAV.
    cutoff = float(low if low is not None else high)
    if not 0.0 < cutoff < np.inf:
        raise InvalidParameterError(f"cutoff frequency {cutoff:g} Hz must be positive and finite")
    loaded = _load_audio(options)
    rate = loaded[1].sample_rate
    if not cutoff < rate:
        raise InvalidParameterError(f"cutoff frequency {cutoff:g} Hz must lie in (0, {rate:g}) Hz")

    def rule(values, a, b, c):
        kept = b < cutoff if low is not None else b >= cutoff
        return values * kept.astype(float)

    return _cmd_reconstruct(config, loaded, rule=rule)


def _cmd_bench_error(config: RunConfig) -> int:
    from . import bench as bench_mod

    options = config.options
    rate, m, params = _grid_options(options)
    signal = bench_mod.make_test_signal(m, rate, seed=int(options["seed"]), params=params)
    methods = _list_option(options, "methods")
    redundancies = _list_option(options, "redundancies", float)
    rows = bench_mod.bench_reconstruction(
        signal, params, methods, redundancies, padded=bool(options["padded"])
    )
    _write_csv(
        config,
        ["method", "redundancy", "n", "rel_error", "rel_error_std"],
        [[r.method, r.redundancy, r.n, r.rel_error, r.rel_error_std] for r in rows],
    )
    return 0


def _cmd_bench_discrepancy(config: RunConfig) -> int:
    from .baselines import discrepancy_scaling

    options = config.options
    generators = _list_option(options, "generators")
    sizes = _list_option(options, "sizes", int)
    rows = []
    for gen in generators:
        points, slope = discrepancy_scaling(gen, sizes)
        rows += [[row.generator, row.n, row.d_star, slope] for row in points]
    _write_csv(config, ["generator", "n", "d_star", "slope"], rows)
    return 0


def _cmd_bench_complexity(config: RunConfig) -> int:
    from . import bench as bench_mod

    options = config.options
    rate, m, params = _grid_options(options)
    sizes = _list_option(options, "sizes", int)
    box = _grid_box(rate, m)
    bound = bench_mod.complexity_per_point_bound(params, rate)
    rows = []
    for n in sizes:
        units = generate_unit_points(str(options["sequence"]), n, 3, int(options["seed"]))
        c_actual, a_pred = bench_mod.complexity_count(scale_to_box(units, box), params, rate)
        rows.append([n, c_actual, a_pred, bound])
    _write_csv(config, ["n", "c_actual", "a_predicted", "per_point_bound"], rows)
    return 0


def _cmd_frame_diag(config: RunConfig) -> int:
    rate, m, params = _grid_options(config.options)
    hd = frame_diagonal(params, rate, m)
    _write_csv(config, ["omega", "h", "q0", "q1", "q2"], zip(hd.omega, hd.h, hd.q0, hd.q1, hd.q2))
    return 0


def _cmd_coverage(config: RunConfig) -> int:
    from .baselines import coverage_queries, dwt_grid_with_size, funnel_coverage

    options = config.options
    rate, m, params = _grid_options(options)
    box = _grid_box(rate, m)
    n = _sample_count(m, options)
    kind = str(options["generator"])
    if kind == "dwt":
        samples = dwt_grid_with_size(n, params.b0, rate, m, gamma=params.gamma)
    else:
        samples = scale_to_box(generate_unit_points(kind, n, 3, int(options["seed"])), box)
    queries = coverage_queries(box, params, int(options["queries"]), seed=int(options["seed"]))
    report = funnel_coverage(samples, queries, params)
    rows = [[q[0], q[1], v, int(f)] for q, v, f in zip(queries, report.values, report.flagged)]
    _write_csv(config, ["a", "b", "value", "flagged"], rows)
    print(f"coverage mean={report.mean:.6g} max/min={report.max_min_ratio:.6g}")
    return 0


_HANDLERS = {
    "reconstruct": _cmd_reconstruct,
    "vocoder": _cmd_vocoder,
    "denoise": _cmd_denoise,
    "multiplier": _cmd_multiplier,
    "bench-error": _cmd_bench_error,
    "bench-discrepancy": _cmd_bench_discrepancy,
    "bench-complexity": _cmd_bench_complexity,
    "frame-diag": _cmd_frame_diag,
    "coverage": _cmd_coverage,
}


# ---------------------------------------------------------------------------
# Argument parsing and config-file layering
# ---------------------------------------------------------------------------


def _add_param_flags(sp: argparse.ArgumentParser, xi: bool = True) -> None:
    sp.add_argument("--b0-frac", dest="b0_frac", type=float, default=0.1)
    sp.add_argument("--b1-frac", dest="b1_frac", type=float, default=0.4)
    sp.add_argument("--gamma", type=float, default=6.0)
    if xi:
        sp.add_argument("--xi", type=float, default=6.0)
    sp.add_argument("--window", default="cos4")


def _add_padded_flag(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--padded", action="store_true", default=False,
                    help="pad the phase-space box time side by S0")


def _add_sampling_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--sequence", choices=KINDS, default="hammersley")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("-N", "--samples", type=int, default=None)
    sp.add_argument("-A", "--redundancy", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltft",
        description="Quasi-Monte Carlo time-frequency processing and benchmarks",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name in ("reconstruct", "vocoder", "denoise", "multiplier"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="key=value config file")
        _add_param_flags(sp)
        _add_padded_flag(sp)
        _add_sampling_flags(sp)
        if name == "vocoder":
            sp.add_argument("-D", "--dilation", type=int, default=2)
        if name == "denoise":
            sp.add_argument("--threshold", type=float, default=0.5,
                            help="RMS coefficients (relative) or a magnitude of F (absolute)")
            sp.add_argument("--threshold-mode", dest="threshold_mode",
                            choices=("relative", "absolute"), default="relative")
        if name == "multiplier":
            sp.add_argument("--low-pass", dest="low_pass", type=float, default=None)
            sp.add_argument("--high-pass", dest="high_pass", type=float, default=None)
        sp.add_argument("input")
        sp.add_argument("output")

    for name in ("bench-error", "bench-discrepancy", "bench-complexity",
                 "frame-diag", "coverage"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="key=value config file")
        sp.add_argument("--csv", required=True)
        if name == "bench-discrepancy":
            # Exact discrepancy of unit-square point sets: no transform.
            sp.add_argument("--generators", default="hammersley,mc,dwt,regular")
            sp.add_argument("--sizes", default="8,16,32,64,128")
            continue
        _add_param_flags(sp, xi=name not in ("bench-complexity", "coverage"))
        sp.add_argument("--rate", type=float, default=64.0)
        sp.add_argument("-M", "--resolution", type=int, default=1024)
        if name != "frame-diag":
            sp.add_argument("--seed", type=int, default=0)
        if name == "bench-error":
            _add_padded_flag(sp)
            sp.add_argument("--methods", default="hammersley,mc")
            sp.add_argument("--redundancies", default="1,2,4,8,16,32,64")
        if name == "bench-complexity":
            sp.add_argument("--sizes", default="256,1024,4096,16384")
            sp.add_argument("--sequence", choices=KINDS, default="hammersley")
        if name == "coverage":
            sp.add_argument("--generator", choices=(*KINDS, "dwt"), default="hammersley")
            sp.add_argument("--queries", type=int, default=100)
            sp.add_argument("-N", "--samples", type=int, default=None)
            sp.add_argument("-A", "--redundancy", type=float, default=None)

    return parser


_BOOLEANS = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}


def _coerce(action: argparse.Action, text: str) -> object:
    # A config value takes the type and choices of the flag it stands for.
    key = action.dest
    try:
        if action.nargs == 0:  # store_true flags
            value = _BOOLEANS[text.lower()]
        else:
            value = action.type(text) if action.type is not None else text
    except (KeyError, ValueError):
        raise ParseError(f"bad config value {key}={text!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ParseError(f"bad config value {key}={text!r}; choose from {list(action.choices)}")
    return value


def _read_config_file(path: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"bad config line (need key=value): {line!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def parse_config(argv: Sequence[str]) -> RunConfig:
    """Parse argv into a RunConfig, layering: defaults < config file < flags."""
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    subcommand = args.pop("subcommand")
    config_path = args.pop("config")
    if config_path:
        # Config values become the subparser's defaults; parsing argv again
        # lets the flags given explicitly override them.  So only optional
        # flags may be set there: argv always gives the positionals and the
        # required flags, which would override the file's value unseen.
        sp = parser._subparsers._group_actions[0].choices[subcommand]
        actions = {
            action.dest: action for action in sp._actions
            if action.option_strings and not action.required and action.dest in args
        }
        defaults = {}
        for key, text in _read_config_file(config_path).items():
            if key not in actions:
                raise ParseError(f"unknown config key {key!r} for {subcommand}")
            defaults[key] = _coerce(actions[key], text)
        sp.set_defaults(**defaults)
        args = vars(parser.parse_args(argv))
        del args["subcommand"], args["config"]
    return RunConfig(subcommand=subcommand, options=args)


def run(config: RunConfig) -> int:
    """Dispatch a resolved configuration; returns the process exit code."""
    return _HANDLERS[config.subcommand](config)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else list(argv))
        return run(config)
    except LtftError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io-error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # An allocation the point budgets let through but this host cannot hold.
        print(f"error: budget-exceeded: {exc or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
