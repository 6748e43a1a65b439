from fractions import Fraction

import numpy as np
import pytest

from ltft import (
    BudgetExceededError,
    InvalidParameterError,
    PhaseSpaceBox,
    SampleSet,
    UnsupportedDimensionError,
    generate_unit_points,
    radical_inverse,
    scale_to_box,
    star_discrepancy,
    star_discrepancy_scan,
)
from ltft.lds import (
    _MAX_POINTS,
    _PRIMES,
    KINDS,
    UnitPointSet,
    _radical_inverses,
    extensible,
    seeded,
    unit_point_rows,
)


def test_radical_inverse_hand_values():
    assert radical_inverse(0, 2) == 0.0
    assert radical_inverse(1, 2) == 0.5  # 1 -> 0.1 in base 2
    assert radical_inverse(3, 2) == 0.75  # 11 -> 0.11 in base 2
    assert radical_inverse(1, 3) == pytest.approx(1.0 / 3.0)
    assert radical_inverse(5, 3) == pytest.approx(7.0 / 9.0)  # digits (2,1) -> 2/3 + 1/9


def test_radical_inverse_bad_base():
    with pytest.raises(InvalidParameterError):
        radical_inverse(3, 1)


def test_radical_inverse_index_beyond_int64_is_invalid():
    with pytest.raises(InvalidParameterError):
        radical_inverse(1 << 63, 2)


@pytest.mark.parametrize(
    "n, base", [(2**54 - 1, 2), (2**63 - 1, 2), (3**39 - 1, 3), (5**27 - 1, 5)]
)
def test_radical_inverse_just_below_one_stays_below_one(n, base):
    # Every digit is base - 1, so the reversal 1 - base**-K rounds to 1.0;
    # the nearest value in [0, 1) is the largest double below 1.
    assert radical_inverse(n, base) == np.nextafter(1.0, 0.0)


def _exact_radical_inverse(n, base):
    value, scale = Fraction(0), Fraction(1)
    while n > 0:
        n, digit = divmod(n, base)
        scale /= base
        value += digit * scale
    return float(value)


@pytest.mark.parametrize("base", _PRIMES)
def test_radical_inverse_is_correctly_rounded(base):
    indices = list(range(5000)) + [2**31 - 1, 3**19, 2**40 + 3]
    exact = [_exact_radical_inverse(n, base) for n in indices]
    assert _radical_inverses(5000, base).tolist() == exact[:5000]
    assert [radical_inverse(n, base) for n in indices[::97] + indices[-3:]] == (
        exact[::97] + exact[-3:]
    )


def test_radical_inverse_base_two_matches_running_sum():
    # The digit-by-digit running sum used before the table rule: in base 2
    # every partial sum is exact, so the two agree in every bit.
    def running_sum(indices):
        n = np.array(indices, dtype=np.int64)
        out = np.zeros(n.shape)
        denom = 1.0
        while n.max(initial=0) > 0:
            n, digit = np.divmod(n, 2)
            denom *= 2
            out += digit / denom
        return out

    assert np.array_equal(_radical_inverses(70000, 2), running_sum(np.arange(70000)))
    large = [2**31 - 1, 2**40 + 3, 2**47 + 12345]
    assert [radical_inverse(n, 2) for n in large] == running_sum(large).tolist()


def _exact_prefix(stop, base):
    # Radical inverses of 0 .. stop-1 by an exact Fraction digit reversal.
    return [_exact_radical_inverse(n, base) for n in range(stop)]


@pytest.mark.parametrize("base, digits", [(2, 11), (3, 7), (5, 5)])
def test_point_columns_match_fraction_reversal_at_digit_boundaries(base, digits):
    # Counts base**K - 1, base**K and base**K + 1 need K or K + 1 digits for
    # the largest index n + 1 = count.
    exact = _exact_prefix(base**digits + 2, base)
    column = _PRIMES.index(base)
    for count in (base**digits - 1, base**digits, base**digits + 1):
        halton = generate_unit_points("halton", count, 3).points
        assert halton[:, column].tolist() == exact[1 : count + 1]
        hammersley = generate_unit_points("hammersley", count, 4).points
        assert hammersley[:, column + 1].tolist() == exact[1 : count + 1]
        times = [float(Fraction(n, count)) for n in range(count)]
        assert hammersley[:, 0].tolist() == times


@pytest.mark.parametrize("base, digits", [(2, 11), (3, 7), (5, 5)])
def test_tile_columns_match_fraction_reversal_at_digit_boundaries(base, digits):
    # Tiles that start or end where the index n + 1 is base**K - 1, base**K
    # or base**K + 1, against the exact reversal and n/N.
    count = base**digits + 2
    exact = _exact_prefix(count + 1, base)
    column = _PRIMES.index(base)
    edge = base**digits
    for start in (edge - 2, edge - 1, edge):
        for stop in (start + 1, start + 2, count):
            halton = unit_point_rows("halton", count, 3, 0, start, stop)
            assert halton[:, column].tolist() == exact[start + 1 : stop + 1]
            hammersley = unit_point_rows("hammersley", count, 4, 0, start, stop)
            assert hammersley[:, column + 1].tolist() == exact[start + 1 : stop + 1]
            times = [float(Fraction(n, count)) for n in range(start, stop)]
            assert hammersley[:, 0].tolist() == times


@pytest.mark.parametrize("kind", ["hammersley", "halton", "mc"])
def test_tile_rows_equal_the_whole_sets_rows(kind):
    # Any index range, and tiles of any size laid end to end, give the whole
    # set's rows bit for bit; Monte Carlo rows are those of one PCG64 draw.
    count = 3**7 + 5
    whole = generate_unit_points(kind, count, 4, seed=3).points
    if kind == "mc":
        assert np.array_equal(whole, np.random.default_rng(3).random((count, 4)))
    edges = [0, 1, 255, 256, 257, 728, 729, 730, 1024, 2186, 2187, 2188, count - 1, count]
    for start, stop in zip(edges, edges[1:]):
        assert np.array_equal(unit_point_rows(kind, count, 4, 3, start, stop), whole[start:stop])
    for size in (1, 7, 1 << 10, count - 1):
        tiles = [
            unit_point_rows(kind, count, 4, 3, start, min(start + size, count))
            for start in range(0, count, size)
        ]
        assert np.array_equal(np.concatenate(tiles), whole)


@pytest.mark.parametrize(
    "start, stop", [(-1, 4), (4, 4), (5, 3), (0, 11), (1.0, 4)], ids=str
)
def test_tile_rows_refuse_ranges_outside_the_set(start, stop):
    with pytest.raises(InvalidParameterError):
        unit_point_rows("halton", 10, 3, 0, start, stop)


@pytest.mark.parametrize(
    "call",
    [
        lambda: radical_inverse(5, 2.5),
        lambda: radical_inverse(2.0, 3),
        lambda: generate_unit_points("hammersley", 2.5, 3),
        lambda: generate_unit_points("halton", True, 3),
        lambda: generate_unit_points("mc", 4.0, 3, 0),
        # A scan resolution follows the count rule: 0 ended in an IndexError
        # and 2.5 scanned corners past 1.
        lambda: star_discrepancy_scan(generate_unit_points("halton", 16, 2), resolution=0),
        lambda: star_discrepancy_scan(generate_unit_points("halton", 16, 2), resolution=2.5),
    ],
    ids=["radical-base", "radical-index", "hammersley-count", "halton-bool", "mc-count",
         "scan-resolution-0", "scan-resolution-float"],
)
def test_non_integer_count_or_base_is_invalid(call):
    with pytest.raises(InvalidParameterError):
        call()


@pytest.mark.parametrize("kind", ["hammersley", "halton", "mc"])
def test_count_beyond_the_budget_is_refused_before_allocation(kind):
    # 10**14 points would need petabytes; the refusal comes before any array.
    assert _MAX_POINTS < 10**14
    with pytest.raises(BudgetExceededError):
        generate_unit_points(kind, 10**14, 3)


@pytest.mark.parametrize("kind", KINDS)
def test_kind_predicates_match_the_rows(kind):
    # The pipelines plan their passes from these flags alone: a kind
    # registered with the wrong one would give wrong outputs, not an error.
    rows = generate_unit_points(kind, 64, 3, seed=0).points
    longer = generate_unit_points(kind, 128, 3, seed=0).points
    assert np.array_equal(rows, longer[:64]) == extensible(kind)
    reseeded = generate_unit_points(kind, 64, 3, seed=1).points
    assert (not np.array_equal(rows, reseeded)) == seeded(kind)


@pytest.mark.parametrize("column", [0, 1, 2])
def test_unit_point_set_refuses_nan(column):
    pts = np.full((4, 3), 0.5)
    pts[2, column] = np.nan
    with pytest.raises(InvalidParameterError):
        UnitPointSet(pts, generator="mc")


@pytest.mark.parametrize("column", [0, 1, 2])
def test_sample_set_refuses_nan(column):
    box = PhaseSpaceBox(t_lo=-1.0, t_hi=1.0, freq_hi=64.0)
    pts = np.array([[0.0, 10.0, 0.5]] * 4)
    pts[1, column] = np.nan
    with pytest.raises(InvalidParameterError):
        SampleSet(pts, box=box, generator="mc")


@pytest.mark.parametrize(
    "sides", [(-np.inf, 1.0, 64.0), (-1.0, np.inf, 64.0), (-1.0, 1.0, np.inf)]
)
def test_phase_space_box_refuses_non_finite_sides(sides):
    with pytest.raises(InvalidParameterError):
        PhaseSpaceBox(*sides)


def test_halton_first_points():
    pts = generate_unit_points("halton", 1, 2).points
    assert pts[0, 0] == 0.5
    assert pts[0, 1] == pytest.approx(1.0 / 3.0)
    one_d = generate_unit_points("halton", 2, 1).points
    assert one_d[:, 0].tolist() == [0.5, 0.25]


def test_halton_prefix_property():
    short = generate_unit_points("halton", 2, 3).points
    long = generate_unit_points("halton", 4, 3).points
    assert np.array_equal(long[:2], short)
    # and for a larger slice
    assert np.array_equal(
        generate_unit_points("halton", 200, 4).points[:57],
        generate_unit_points("halton", 57, 4).points,
    )


def test_halton_prefix_stable_across_digit_chunks():
    # 2187 = 3**7 and 4096 = 2**12 are table sizes: one more index adds a
    # chunk of digits in base 3 or base 2.
    full = generate_unit_points("halton", 5000, 8).points
    for count in (2186, 2187, 2188, 4095, 4096, 4097):
        assert np.array_equal(generate_unit_points("halton", count, 8).points, full[:count])


def test_halton_range_and_dim_guard():
    pts = generate_unit_points("halton", 500, 8).points
    assert pts.min() >= 0.0 and pts.max() < 1.0
    with pytest.raises(UnsupportedDimensionError):
        generate_unit_points("halton", 4, 9)


def test_hammersley_hand_values():
    pts = generate_unit_points("hammersley", 2, 2).points
    assert pts.tolist() == [[0.0, 0.5], [0.5, 0.25]]
    four = generate_unit_points("hammersley", 4, 2).points
    assert four[:, 0].tolist() == [0.0, 0.25, 0.5, 0.75]


def test_hammersley_needs_two_dims():
    with pytest.raises(InvalidParameterError):
        generate_unit_points("hammersley", 4, 1)


def test_hammersley_discrepancy_decreasing():
    values = [
        star_discrepancy(generate_unit_points("hammersley", n, 2)) for n in (4, 8, 16, 32)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_mc_points_contract():
    a = generate_unit_points("mc", 100, 3, seed=7)
    b = generate_unit_points("mc", 100, 3, seed=7)
    assert np.array_equal(a.points, b.points)
    # Prefixes are stable, as for Halton.
    assert np.array_equal(generate_unit_points("mc", 40, 3, seed=7).points, a.points[:40])
    one = generate_unit_points("mc", 1, 3, 123).points
    assert one.shape == (1, 3) and one.min() >= 0 and one.max() < 1
    big = generate_unit_points("mc", 10_000, 2, seed=1).points
    assert np.all(np.abs(big.mean(axis=0) - 0.5) < 0.02)


def test_scale_to_box_corners_and_volume():
    box = PhaseSpaceBox(t_lo=-3.0, t_hi=3.0, freq_hi=40.0)
    unit = UnitPointSet(
        np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [0.25, 1.0 - 1e-12, 0.75]]),
        generator="halton",
    )
    samples = scale_to_box(unit, box)
    assert samples.points[0].tolist() == [-3.0, 0.0, 0.0]
    assert samples.points[1].tolist() == [0.0, 20.0, 0.5]
    assert samples.box.volume == 6.0 * 40.0
    assert samples.generator == "halton"


def test_scale_to_box_dim_mismatch():
    box = PhaseSpaceBox(t_lo=0.0, t_hi=1.0, freq_hi=1.0)
    with pytest.raises(InvalidParameterError):
        scale_to_box(UnitPointSet(np.array([[0.1, 0.2]]), "halton"), box)


def test_star_discrepancy_hand_values():
    assert star_discrepancy(UnitPointSet(np.array([[0.5, 0.5]]), "mc")) == pytest.approx(0.75)
    assert star_discrepancy(UnitPointSet(np.array([[0.5]]), "mc")) == pytest.approx(0.5)


@pytest.mark.parametrize("n", [4, 9, 32])
def test_star_discrepancy_centered_ladder(n):
    pts = ((np.arange(n) + 0.5) / n)[:, None]
    assert star_discrepancy(UnitPointSet(pts, "regular")) == pytest.approx(1.0 / (2 * n))


def test_star_discrepancy_budget():
    with pytest.raises(BudgetExceededError):
        star_discrepancy(generate_unit_points("mc", 2**11, 2, 0))
    with pytest.raises(BudgetExceededError):
        star_discrepancy(generate_unit_points("mc", 2**8, 3, 0))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_star_discrepancy_grid_scan_oracle(seed):
    # The 1/512 corner scan only evaluates true values of the discrepancy
    # function, so it lower-bounds the exact supremum; the gap is at most
    # the volume resolution plus the densest coordinate slab.
    pts = generate_unit_points("mc", 32, 2, seed)
    exact = star_discrepancy(pts)
    scan = star_discrepancy_scan(pts, resolution=512)
    assert exact >= scan - 1e-12
    slab = 0
    for j in range(2):
        edges = np.floor(pts.points[:, j] * 512)
        slab = max(slab, int(np.max(np.bincount(edges.astype(int)))))
    assert exact - scan <= 2.0 / 512.0 + slab / pts.n


def test_hammersley_scaling_slope():
    ns = [8, 16, 32, 64, 128]
    vals = [star_discrepancy(generate_unit_points("hammersley", n, 2)) for n in ns]
    slope = np.polyfit(np.log(ns), np.log(vals), 1)[0]
    assert -1.25 <= slope <= -0.75


@pytest.mark.parametrize("n", [64, 128])
def test_hammersley_beats_mc(n):
    ham = star_discrepancy(generate_unit_points("hammersley", n, 2))
    wins = sum(
        star_discrepancy(generate_unit_points("mc", n, 2, seed)) > ham
        for seed in range(10)
    )
    assert wins >= 9

