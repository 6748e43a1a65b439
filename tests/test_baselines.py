import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltft import (
    BudgetExceededError,
    DwtGridParams,
    InvalidParameterError,
    LtftError,
    LtftParams,
    PhaseSpaceBox,
    coverage_queries,
    discrepancy_scaling,
    dwt_grid,
    dwt_grid_with_size,
    funnel_coverage,
    scale_to_box,
)
from ltft import baselines
from ltft.core import SampleSet
from ltft.lds import generate_unit_points, star_discrepancy
from oracles import dwt_size_estimate

RATE = 64.0


def test_dwt_params_validation():
    with pytest.raises(InvalidParameterError):
        DwtGridParams(r=1.0, p=1.0, b0=6.4, sample_rate=64.0, m=256)
    with pytest.raises(InvalidParameterError):
        # (gamma+0.5)/(gamma-0.5) = 13/11 for gamma = 6
        DwtGridParams(r=1.25, p=1.0, b0=6.4, sample_rate=64.0, m=256)
    DwtGridParams(r=1.15, p=1.0, b0=6.4, sample_rate=64.0, m=256)


@pytest.mark.parametrize(
    "bad",
    [dict(sample_rate=np.inf), dict(m=2.5), dict(m=0), dict(m=True),
     dict(gamma=np.nan), dict(gamma=np.inf)],
    ids=str,
)
def test_dwt_params_refuse_an_infinite_rate_or_a_non_integer_m(bad):
    # An infinite rate overflowed in scale_exponents; M = 2.5 built a grid.
    # A NaN or infinite gamma was refused for a dilation step "in (1, nan)".
    with pytest.raises(InvalidParameterError, match="gamma" if "gamma" in bad else None):
        DwtGridParams(**{**dict(r=1.15, p=1.0, b0=6.4, sample_rate=64.0, m=256), **bad})


@pytest.mark.parametrize(
    "p, error",
    [(np.inf, InvalidParameterError), (np.nan, InvalidParameterError),
     (1e15, BudgetExceededError)],
    ids=["inf", "nan", "1e15"],
)
def test_dwt_time_density_is_finite_and_its_grid_a_point_count(p, error):
    # inf ended in a raw OverflowError, nan in a ValueError, and 1e15 in a
    # MemoryError for 28.4 PiB: the total row count is put under the
    # point-count rule before any row is made.
    with pytest.raises(error):
        dwt_grid(DwtGridParams(r=1.15, p=p, b0=6.4, sample_rate=64.0, m=256))


@pytest.mark.parametrize("m", [1, 2, 5, 1023])
def test_dwt_params_refuse_an_odd_or_short_m(m):
    # A wavelet grid takes the even grid of at least 4 samples that every
    # other grid takes.
    with pytest.raises(InvalidParameterError, match="grid length"):
        DwtGridParams(r=1.15, p=1.0, b0=6.4, sample_rate=64.0, m=m)


@pytest.mark.parametrize("m", [2**26 + 2, 2**50])
def test_dwt_params_take_the_grid_budget(m):
    # The grid rule caps every signal length, so a grid that would run out
    # of memory is refused before any row is made.
    with pytest.raises(BudgetExceededError, match="grid of"):
        DwtGridParams(r=1.15, p=1.0, b0=6.4, sample_rate=64.0, m=m)


def test_dwt_scale_exponents_hand_case():
    # L=4, gamma=1, b0=0.5, r=2: K0 = log2(1/3), K1 = log2(8) = 3
    p = DwtGridParams(r=2.0, p=1.0, b0=0.5, sample_rate=4.0, m=16, gamma=1.0)
    assert list(p.scale_exponents()) == [-1, 0, 1, 2, 3]


def test_dwt_grid_reference_geometry():
    # L=4, gamma=1, b0=0.5, M=6, r=1.2, p=1
    p = DwtGridParams(r=1.2, p=1.0, b0=0.5, sample_rate=4.0, m=6, gamma=1.0)
    grid = dwt_grid(p)
    assert grid.n > 0
    assert grid.generator == "dwt-grid"
    assert np.all(grid.points[:, 2] == 0.0)
    freqs = np.unique(grid.points[:, 1])
    assert freqs.min() >= p.b0 * 1.0 / (p.gamma + 0.5)
    assert grid.box.freq_hi >= freqs.max()


def test_dwt_adjacent_scale_bands_overlap():
    p = DwtGridParams(r=1.15, p=2.0, b0=6.4, sample_rate=64.0, m=256, gamma=6.0)
    ks = list(p.scale_exponents())
    for k in ks[:-1]:
        hi_of_lower = p.r**k * (p.gamma + 0.5)
        lo_of_upper = p.r ** (k + 1) * (p.gamma - 0.5)
        assert lo_of_upper < hi_of_lower


@pytest.mark.parametrize("r", [1.1, 1.3])
@pytest.mark.parametrize("p_factor", [1.0, 4.0])
def test_dwt_size_matches_estimate(r, p_factor):
    # gamma = 3 keeps both dilation steps inside the legal interval
    p = DwtGridParams(r=r, p=p_factor, b0=6.4, sample_rate=64.0, m=256, gamma=3.0)
    grid = dwt_grid(p)
    estimate = dwt_size_estimate(p)
    assert estimate / 2 <= grid.n <= estimate * 2


def test_dwt_row_sizes_are_the_grid_rows():
    # L=4, gamma=1, b0=0.5, M=16, r=2: scales -1..3, rows of round(2^k * 4).
    p = DwtGridParams(r=2.0, p=1.0, b0=0.5, sample_rate=4.0, m=16, gamma=1.0)
    assert p.row_sizes() == [2, 4, 8, 16, 32]
    _, counts = np.unique(dwt_grid(p).b, return_counts=True)
    assert counts.tolist() == p.row_sizes()


def test_sized_wavelet_grids_build_one_grid_each(monkeypatch):
    # The size searches read row_sizes; only the chosen grid is built.
    built = []
    original = baselines.dwt_grid
    monkeypatch.setattr(baselines, "dwt_grid", lambda p: built.append(p) or original(p))
    rows, _ = discrepancy_scaling("dwt", [8, 16, 32])
    assert len(built) == 3
    assert [row.n for row in rows] == [sum(grid.row_sizes()) for grid in built]
    built.clear()
    assert dwt_grid_with_size(4096, 6.4, 64.0, 1024).n == sum(built[0].row_sizes())
    assert len(built) == 1


def test_lattice_discrepancy_slope():
    rows, slope = discrepancy_scaling("regular", [16, 64, 256])
    assert -0.6 <= slope <= -0.4


def test_hammersley_vs_mc_vs_dwt_slopes():
    sizes = [8, 16, 32, 64, 128]
    _, ham = discrepancy_scaling("hammersley", sizes)
    assert -1.25 <= ham <= -0.75
    _, mc = discrepancy_scaling("mc", sizes)
    assert -0.65 <= mc <= -0.35
    rows, dwt = discrepancy_scaling("dwt", sizes)
    assert -0.65 <= dwt <= -0.35
    # One Halton set per size, no averaging: the rows are its exact values.
    rows, halton = discrepancy_scaling("halton", sizes)
    assert [(r.generator, r.n, r.d_star) for r in rows] == [
        ("halton", n, star_discrepancy(generate_unit_points("halton", n, 2))) for n in sizes
    ]
    assert halton < mc


def test_discrepancy_ordering_at_matched_n():
    sizes = [64, 128]
    ham_rows, _ = discrepancy_scaling("hammersley", sizes)
    mc_rows, _ = discrepancy_scaling("mc", sizes)
    dwt_rows, _ = discrepancy_scaling("dwt", sizes)
    for h, m, d in zip(ham_rows, mc_rows, dwt_rows):
        assert h.d_star < m.d_star
        assert h.d_star < d.d_star


def test_unknown_generator():
    with pytest.raises(InvalidParameterError):
        discrepancy_scaling("sobol", [8])


@pytest.mark.parametrize("generator", ["mc", "dwt", "regular"])
@pytest.mark.parametrize("size", [0, -4])
def test_discrepancy_sizes_below_one_are_invalid(generator, size):
    # Sizes are point counts: no ZeroDivisionError, math domain error or
    # one-point lattice row for them.
    with pytest.raises(InvalidParameterError):
        discrepancy_scaling(generator, [size, 8])


@pytest.mark.parametrize("generator", ["hammersley", "halton", "mc", "dwt", "regular"])
def test_discrepancy_size_past_the_exact_budget_builds_no_set(monkeypatch, generator):
    # Every size is checked against the 1024-point 2D budget of
    # star_discrepancy before the first set is built, so a size past it
    # costs no set of that size.
    built = []
    for name in ("generate_unit_points", "_dwt_unit_points", "_lattice_unit_points"):
        monkeypatch.setattr(baselines, name, lambda *args: built.append(args))
    with pytest.raises(BudgetExceededError, match="N <= 1024"):
        discrepancy_scaling(generator, [8, 20_000_000])
    assert built == []


@pytest.mark.parametrize(
    "target, error",
    [(0, InvalidParameterError), (-5, InvalidParameterError), (2.0, InvalidParameterError),
     (10**11, BudgetExceededError)],
)
def test_dwt_grid_size_is_a_point_count(params, target, error):
    # Refused before any grid is built, where 0 gave a grid of ~70 points
    # and 10**11 tried to allocate 8 GiB.
    with pytest.raises(error):
        dwt_grid_with_size(target, params.b0, RATE, 1024, gamma=params.gamma)


def _hammersley_samples(params, m, redundancy=16):
    half = m / (2.0 * RATE)
    box = PhaseSpaceBox(t_lo=-half, t_hi=half, freq_hi=RATE)
    n = redundancy * m
    return scale_to_box(generate_unit_points("hammersley", n, 3), box)


def test_funnel_coverage_uniform_for_hammersley(params):
    m = 1024
    samples = _hammersley_samples(params, m)
    queries = coverage_queries(samples.box, params, 100, seed=0)
    report = funnel_coverage(samples, queries, params)
    assert not report.flagged.any()
    assert report.max_min_ratio <= 3.0
    assert abs(report.mean - 1.0) < 0.3


def test_funnel_coverage_dwt_is_less_uniform(params):
    m = 1024
    ham = _hammersley_samples(params, m)
    queries = coverage_queries(ham.box, params, 100, seed=0)
    ham_ratio = funnel_coverage(ham, queries, params).max_min_ratio
    dwt = dwt_grid_with_size(16 * m, params.b0, RATE, m, gamma=params.gamma)
    dwt_ratio = funnel_coverage(dwt, queries, params).max_min_ratio
    assert dwt_ratio > ham_ratio


def test_funnel_coverage_single_sample_cases(params):
    half = 8.0
    box = PhaseSpaceBox(t_lo=-half, t_hi=half, freq_hi=RATE)
    query = np.array([[0.5, 12.0]])
    at_query = SampleSet(np.array([[0.5, 12.0, 0.5]]), box=box, generator="mc")
    report = funnel_coverage(at_query, query, params)
    assert report.values[0] == pytest.approx(box.volume / 1 / 4.0)
    far = SampleSet(np.array([[-7.0, 50.0, 0.5]]), box=box, generator="mc")
    report = funnel_coverage(far, query, params)
    assert report.values[0] == 0.0


def test_funnel_coverage_flags_boundary_queries(params):
    half = 2.0
    box = PhaseSpaceBox(t_lo=-half, t_hi=half, freq_hi=RATE)
    samples = SampleSet(np.array([[0.0, 12.0, 0.5]]), box=box, generator="mc")
    # time margin gamma/b = 0.5 at b = 12; a query at the edge violates it,
    # and a query at b <= 0 has no adjoint box
    queries = np.array([[half - 0.1, 12.0], [0.0, 12.0], [0.0, 0.0], [0.0, -1.0]])
    report = funnel_coverage(samples, queries, params)
    assert report.flagged.tolist() == [True, False, True, True]


@pytest.mark.parametrize("shape", [(40, 3), (40, 1), (2,), (), (2, 20, 2)], ids=str)
def test_funnel_coverage_refuses_queries_that_are_not_a_b_rows(params, shape):
    # Queries are (a, b) rows, as coverage_queries makes them; the
    # star-discrepancy scan measures evenness in (a, b, c).
    samples = _hammersley_samples(params, 64)
    with pytest.raises(InvalidParameterError, match=r"\(Q, 2\)"):
        funnel_coverage(samples, np.full(shape, 0.5), params)


@pytest.mark.parametrize(
    "query", [(0.5, np.inf), (0.5, -np.inf), (np.inf, 12.0), (np.nan, 12.0), (0.5, np.nan)],
    ids=str,
)
def test_funnel_coverage_refuses_non_finite_queries(params, query):
    # b = inf took inf - inf, with numpy's RuntimeWarning, before it was
    # flagged; a NaN was flagged as if it lay near an edge.
    samples = _hammersley_samples(params, 64)
    with pytest.raises(InvalidParameterError, match="finite"):
        funnel_coverage(samples, np.array([[0.5, 12.0], query]), params)


def test_funnel_coverage_flags_a_query_whose_time_half_width_overflows(params):
    # gamma/b overflows for the smallest positive b; the flag needs no warning.
    samples = _hammersley_samples(params, 64)
    report = funnel_coverage(samples, np.array([[0.0, 5e-324], [0.0, 1e308]]), params)
    assert report.flagged.tolist() == [True, True]


@pytest.mark.parametrize(
    "bad",
    [LtftParams(b0=1e-300, b1=1.0), LtftParams(b0=0.1 * RATE, b1=0.4 * RATE, gamma=1e300)],
    ids=["b0", "gamma"],
)
def test_coverage_queries_refuse_supports_no_run_could_use(bad):
    # Query times at least gamma/b from the edges would lie far outside the
    # box; such supports are refused as a reconstruction refuses them.
    box = PhaseSpaceBox(t_lo=-8.0, t_hi=8.0, freq_hi=RATE)
    with pytest.raises(BudgetExceededError, match="guard band"):
        coverage_queries(box, bad, 10)


def test_coverage_queries_refuse_a_margin_wider_than_the_box():
    # At gamma = 1e5 the guard band is within budget, but a query needs
    # gamma/b of clearance from each time edge, more than the 16 s box has,
    # so its time would fall outside the box.  At gamma = 100 some queries
    # fit and some do not; the margin at b = b0 is 2 * 100 / 6.4 = 31 s.
    box = PhaseSpaceBox(t_lo=-8.0, t_hi=8.0, freq_hi=RATE)
    for gamma in (1e5, 100.0):
        params = LtftParams.for_rate(RATE, gamma=gamma)
        with pytest.raises(InvalidParameterError, match="time margin"):
            coverage_queries(box, params, 10)
    fits = coverage_queries(box, LtftParams.for_rate(RATE), 200)
    assert np.all((fits[:, 0] > box.t_lo) & (fits[:, 0] < box.t_hi))


@settings(max_examples=60)
@given(
    b0_frac=st.floats(0.05, 0.5),
    ratio=st.floats(1.0, 1.1, exclude_min=True),
    count=st.integers(1, 20),
    seed=st.integers(0, 3),
)
def test_coverage_queries_lie_in_the_band_or_are_refused(b0_frac, ratio, count, seed):
    # Frequencies are drawn log-uniform in (1.01 b0, 0.99 b1); a band with
    # b1 < 1.0202 b0 ended in numpy's "high - low < 0" ValueError.
    box = PhaseSpaceBox(t_lo=-16.0, t_hi=16.0, freq_hi=RATE)
    try:
        params = LtftParams.for_rate(RATE, b0_frac=b0_frac, b1_frac=b0_frac * ratio)
        queries = coverage_queries(box, params, count, seed=seed)
    except LtftError:
        return
    assert queries.shape == (count, 2)
    a, b = queries.T
    assert np.all((box.t_lo < a) & (a < box.t_hi))
    assert np.all((params.b0 < b) & (b < params.b1))


@pytest.mark.parametrize("count, seed", [(2.5, 0), (3, 1.5)], ids=["count", "seed"])
def test_coverage_queries_refuse_a_non_integer_count_or_seed(params, count, seed):
    box = PhaseSpaceBox(t_lo=-8.0, t_hi=8.0, freq_hi=RATE)
    with pytest.raises(InvalidParameterError):
        coverage_queries(box, params, count, seed=seed)
