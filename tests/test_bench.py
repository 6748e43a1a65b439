import numpy as np
import pytest

from ltft import (
    BudgetExceededError,
    DigitalSignal,
    InvalidParameterError,
    LtftParams,
    PhaseSpaceBox,
    bench_reconstruction,
    complexity_count,
    complexity_per_point_bound,
    dft,
    make_test_signal,
    reconstruct,
    relative_error,
    scale_to_box,
)
from ltft import bench, core, processing
from ltft.core import SampleSet, atom_support_length
from ltft.lds import generate_unit_points

RATE = 64.0


def test_test_signal_deterministic_and_normalized():
    a = make_test_signal(1024, RATE, seed=0)
    b = make_test_signal(1024, RATE, seed=0)
    assert np.array_equal(a.samples, b.samples)
    assert np.max(np.abs(a.samples)) == pytest.approx(1.0)
    c = make_test_signal(1024, RATE, seed=1)
    assert not np.array_equal(a.samples, c.samples)


def test_test_signal_band_limited(params):
    sig = make_test_signal(2048, RATE)
    spec = np.abs(dft(sig).bins)
    m = sig.m
    freqs = np.arange(m) * RATE / m
    # positive-frequency content concentrates inside [b0, b1] plus skirts
    band = (freqs >= params.b0 * 0.7) & (freqs <= params.b1 * 1.3)
    mirror = (freqs >= RATE - params.b1 * 1.3) & (freqs <= RATE - params.b0 * 0.7)
    inside = np.sum(spec[band | mirror] ** 2)
    total = np.sum(spec**2)
    assert inside / total > 0.999


@pytest.mark.parametrize(
    "m, seed", [(0, 0), (256, 1.5)], ids=["empty-grid", "non-integer-seed"]
)
def test_test_signal_refuses_a_bad_grid_or_seed(m, seed):
    # M = 0 divided by zero, and a float seed failed inside numpy.
    with pytest.raises(InvalidParameterError):
        make_test_signal(m, RATE, seed=seed)


def _box(m):
    half = m / (2.0 * RATE)
    return PhaseSpaceBox(t_lo=-half, t_hi=half, freq_hi=RATE)


def test_complexity_constant_branch(params):
    # all samples in the high band: every atom has the minimal support
    box = _box(256)
    pts = np.column_stack(
        [np.zeros(50), np.linspace(params.b1, RATE, 50), np.full(50, 0.5)]
    )
    samples = SampleSet(pts, box=box, generator="regular")
    c_actual, _ = complexity_count(samples, params, RATE)
    assert c_actual == 50 * round(RATE * params.gamma / params.b1)


def test_complexity_prediction_tracks_actual(params):
    n = 1 << 10
    samples = scale_to_box(generate_unit_points("hammersley", n, 3), _box(1024))
    c_actual, a_pred = complexity_count(samples, params, RATE)
    kappa = 10.0
    budget = kappa * RATE * (params.gamma / params.b0) * np.log(n) ** 2
    assert abs(c_actual - a_pred) <= budget


@pytest.mark.parametrize("log_n", [8, 10, 12, 14])
def test_complexity_per_point_bound(params, log_n):
    n = 1 << log_n
    samples = scale_to_box(generate_unit_points("hammersley", n, 3), _box(1024))
    c_actual, _ = complexity_count(samples, params, RATE)
    assert c_actual / n <= complexity_per_point_bound(params, RATE)


def test_per_point_bound_value(params):
    # gamma (1 + ln(C2/C1) + (1-C2)/C2) + 1 at the defaults
    expected = 6.0 * (1.0 + np.log(4.0) + 1.5) + 1.0
    assert complexity_per_point_bound(params, RATE) == pytest.approx(expected)


def test_bench_rows_monotone(params):
    signal = make_test_signal(256, RATE)
    rows = bench_reconstruction(
        signal, params, ["hammersley"], [1, 2, 4, 8], mc_seeds=range(3)
    )
    errs = [r.rel_error for r in rows]
    assert all(b <= 1.5 * a for a, b in zip(errs, errs[1:]))
    assert [r.n for r in rows] == [256, 512, 1024, 2048]


def test_bench_mc_rows_average(params):
    signal = make_test_signal(256, RATE)
    rows = bench_reconstruction(signal, params, ["mc"], [4], mc_seeds=range(3))
    assert rows[0].method == "mc"
    assert rows[0].rel_error_std > 0


@pytest.mark.parametrize("pooled", [False, True], ids=["caller", "pool"])
def test_one_pass_rows_match_one_call_per_redundancy(monkeypatch, params, pooled):
    # Redundancies out of order and repeated, on tiles of 500 points, so the
    # counts 256, 640 and 1024 straddle tile edges: each Halton and Monte
    # Carlo row, from one pass per seed, agrees to rounding with the mean
    # error of one reconstruct call per seed; Hammersley rows are those
    # calls' errors exactly.
    monkeypatch.setattr(processing, "_TILE_POINTS", 500)
    if pooled:
        monkeypatch.setattr(processing, "_POOL_MIN_ATOM_SAMPLES", 0)
    signal = make_test_signal(256, RATE, params=params)
    redundancies = [4, 1, 2.5, 1]
    rows = bench_reconstruction(
        signal, params, ["hammersley", "halton", "mc"], redundancies, mc_seeds=[3, 0]
    )
    assert [(r.method, r.redundancy, r.n) for r in rows] == [
        (method, a, int(np.ceil(a * 256)))
        for method in ("hammersley", "halton", "mc") for a in redundancies
    ]
    for row in rows:
        seeds = [3, 0] if row.method == "mc" else [0]
        errs = [
            relative_error(reconstruct(signal, params, row.n, row.method, seed), signal)
            for seed in seeds
        ]
        if row.method == "hammersley":
            assert row.rel_error == errs[0] and row.rel_error_std == 0.0
        else:
            assert row.rel_error == pytest.approx(np.mean(errs), rel=1e-12, abs=0)
            assert row.rel_error_std == pytest.approx(np.std(errs), rel=1e-9, abs=1e-15)


def test_mc_sweep_builds_atoms_for_the_largest_count_once_per_seed(monkeypatch, params):
    # Over redundancies [1, 2, 4] each seed's pass builds atom blocks for
    # 4 M points, where one call per redundancy built them for 7 M.
    m = 256
    signal = make_test_signal(m, RATE, params=params)
    rows = []
    original = core._block_atoms

    def counting(params, samples, rate, block):
        rows.append(block.sel.size)
        return original(params, samples, rate, block)

    monkeypatch.setattr(core, "_block_atoms", counting)
    bench_reconstruction(signal, params, ["mc"], [1, 2, 4], mc_seeds=range(3))
    assert sum(rows) == 3 * 4 * m


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(methods=["hammersley", "sobol"]),
        dict(redundancies=[16, 0.5]),
        dict(redundancies=[2, float("nan")]),
        dict(redundancies=[2, float("inf")]),
        dict(mc_seeds=[]),
        dict(mc_seeds=[1, -1]),
        dict(mc_seeds=[0, 1.5]),
    ],
)
def test_bench_refuses_every_bad_argument_before_reconstructing(monkeypatch, params, kwargs):
    calls = []
    monkeypatch.setattr(bench, "_analysis_synthesis", lambda *args, **kw: calls.append(1))
    signal = make_test_signal(256, RATE, params=params)
    args = dict(methods=["hammersley", "mc"], redundancies=[1, 2], mc_seeds=[0, 1])
    with pytest.raises(InvalidParameterError):
        bench_reconstruction(signal, params, **{**args, **kwargs})
    assert calls == []


@pytest.mark.parametrize(
    "bad",
    [LtftParams(b0=1e-300, b1=1.0), LtftParams(b0=0.1 * RATE, b1=0.4 * RATE, gamma=1e300)],
    ids=["b0", "gamma"],
)
def test_complexity_count_refuses_supports_no_run_could_use(bad):
    # A support past the analysis guard band's budget is refused, as a
    # reconstruction refuses it, not counted.
    box = PhaseSpaceBox(t_lo=-8.0, t_hi=8.0, freq_hi=RATE)
    samples = scale_to_box(generate_unit_points("hammersley", 64, 3), box)
    with pytest.raises(BudgetExceededError, match="guard band"):
        complexity_count(samples, bad, RATE)
