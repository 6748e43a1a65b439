"""Comparison sample-set generators and geometric diagnostics.

A discrete-wavelet-style grid (geometric frequency ladder, uniform time
rows), exact-discrepancy scaling tables for all generator families, and
funnel coverage statistics that measure how evenly a sample set represents
the (a, b) time-frequency plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from .core import (LtftParams, PhaseSpaceBox, SampleSet, _check_grid, _check_int,
                   _guard_samples, _point_rows)
from .errors import InvalidParameterError
from .lds import (
    KINDS,
    UnitPointSet,
    _check_count,
    _check_exact_budget,
    generate_unit_points,
    seeded,
    star_discrepancy,
)


@dataclass(frozen=True)
class DwtGridParams:
    """Geometry of a discrete-wavelet grid over the band [b0, L].

    The dilation step r must satisfy 1 < r < (gamma+0.5)/(gamma-0.5) so
    that the frequency bands of adjacent scales overlap; p scales the
    per-row time density.  The grid spans an even M >= 4 samples at a
    finite rate L, under the grid rule of :mod:`ltft.core`.
    """

    r: float
    p: float
    b0: float
    sample_rate: float
    m: int
    gamma: float = 6.0

    def __post_init__(self) -> None:
        if not 0.5 < self.gamma < np.inf:
            raise InvalidParameterError(f"gamma must be finite and exceed 0.5, got {self.gamma}")
        r_max = (self.gamma + 0.5) / (self.gamma - 0.5)
        if not 1.0 < self.r < r_max:
            raise InvalidParameterError(
                f"dilation step must lie in (1, {r_max:.6g}), got {self.r}"
            )
        if not 0 < self.p < np.inf:
            raise InvalidParameterError(
                f"time-spacing factor p must be positive and finite, got {self.p}"
            )
        if not 0 < self.b0 < self.sample_rate < np.inf:
            raise InvalidParameterError("need 0 < b0 < sample rate < inf")
        _check_grid(self.m, self.sample_rate)

    def scale_exponents(self) -> range:
        """Integer scales k with r^k covering [b0, L]: ceil(K0)..ceil(K1)."""
        k0 = math.log(self.b0 / (self.gamma + 0.5)) / math.log(self.r)
        k1 = math.log(self.sample_rate / (self.gamma - 0.5)) / math.log(self.r)
        return range(math.ceil(k0), math.ceil(k1) + 1)

    def row_sizes(self) -> List[int]:
        """Points per scale k of :meth:`scale_exponents`, round(r^k (M/L) p)
        and at least 1, whose sum is a count under the rule of :mod:`ltft.lds`."""
        ks = self.scale_exponents()
        # A row past 2^62 points is past any budget; the cap keeps round()
        # off an overflowed size.
        duration = self.m / self.sample_rate
        sizes = [max(1, round(min(self.r**k * duration * self.p, 2.0**62))) for k in ks]
        _check_count(sum(sizes), "wavelet grid size")
        return sizes


def dwt_grid(params: DwtGridParams) -> SampleSet:
    """Wavelet-grid sample set: per scale k, a uniform row of
    :meth:`DwtGridParams.row_sizes` time midpoints at frequency r^k * gamma.

    All points carry oscillation coordinate 0.  The box's frequency side
    extends to the top scale's band edge r^K1 * (gamma + 0.5), which can
    exceed the sample rate.
    """
    ks, sizes = params.scale_exponents(), params.row_sizes()
    half = params.m / (2.0 * params.sample_rate)
    rows = []
    for k, n_t in zip(ks, sizes):
        times = -half + (np.arange(n_t) + 0.5) * (2.0 * half / n_t)
        freq = params.r**k * params.gamma
        rows.append(
            np.column_stack([times, np.full(n_t, freq), np.zeros(n_t)])
        )
    pts = np.concatenate(rows, axis=0)
    top = params.r ** ks[-1] * (params.gamma + 0.5)
    box = PhaseSpaceBox(t_lo=-half, t_hi=half, freq_hi=top)
    return SampleSet(pts, box=box, generator="dwt-grid")


@dataclass
class ScalingRow:
    generator: str
    n: int
    d_star: float


# Desk-scale wavelet-grid geometry matching the transform defaults (b0 = 0.1 L).
_DWT_BASE = DwtGridParams(r=1.15, p=1.0, b0=6.4, sample_rate=64.0, m=256, gamma=6.0)


def _dwt_unit_points(target_n: int) -> UnitPointSet:
    # A wavelet grid refined at the N^(-1/2) obstruction balance: the two
    # empty-rectangle bounds (last frequency gap ~ 1 - 1/r and the time
    # spacing ~ 1/(N ln r)) are equal when 1 - 1/r ~ 1/sqrt(N), so the
    # dilation step tightens with the target size while p tunes the rows.
    gamma = _DWT_BASE.gamma
    r_max = (gamma + 0.5) / (gamma - 0.5)
    r = min(1.0 / (1.0 - min(0.5 / math.sqrt(target_n), 0.6)), 0.999 * r_max)

    base = replace(_DWT_BASE, r=r)
    unit_p = sum(base.row_sizes())
    trials = np.linspace(0.4 * target_n / unit_p, 2.5 * target_n / unit_p, 61)
    # The grid of the first trial nearest the target in size.
    best = dwt_grid(min((replace(base, p=float(p)) for p in trials),
                        key=lambda trial: abs(sum(trial.row_sizes()) - target_n)))
    box = best.box
    unit = np.column_stack([(best.a - box.t_lo) / (box.t_hi - box.t_lo), best.b / box.freq_hi])
    # Row frequencies sit strictly inside (0, 1); keep [0, 1) by clipping
    # the time coordinate's floating tail only.
    unit = np.clip(unit, 0.0, np.nextafter(1.0, 0.0))
    return UnitPointSet(unit, generator="dwt-grid")


def _lattice_unit_points(target_n: int) -> UnitPointSet:
    side = max(1, round(math.sqrt(target_n)))
    g = (np.arange(side) + 0.5) / side
    aa, bb = np.meshgrid(g, g, indexing="ij")
    return UnitPointSet(
        np.column_stack([aa.ravel(), bb.ravel()]), generator="regular"
    )


def discrepancy_scaling(generator: str, sizes: Sequence[int]) -> Tuple[List[ScalingRow], float]:
    """Exact 2D star discrepancy per size plus the fitted log-log slope.

    Monte Carlo rows average over seeds 0..9; wavelet grids vary the time
    density p at fixed r and are rescaled to the unit square; the regular
    lattice uses a side of roughly sqrt(N).  Sizes are point counts under
    the rule of :mod:`ltft.lds`, within the exact-discrepancy budget, and
    give at least two distinct N.
    """
    targets = [_check_count(n) for n in sizes]
    _check_exact_budget(max(targets, default=0), 2)
    rows: List[ScalingRow] = []
    for target in targets:
        if generator in KINDS:
            seeds = range(10) if seeded(generator) else [0]
            vals = [
                star_discrepancy(generate_unit_points(generator, target, 2, seed))
                for seed in seeds
            ]
            rows.append(ScalingRow(generator, target, float(np.mean(vals))))
            continue
        if generator == "dwt":
            pts = _dwt_unit_points(target)
        elif generator == "regular":
            pts = _lattice_unit_points(target)
        else:
            raise InvalidParameterError(f"unknown generator {generator!r}")
        rows.append(ScalingRow(generator, pts.n, star_discrepancy(pts)))
    if len({r.n for r in rows}) < 2:
        raise InvalidParameterError(f"a {generator} slope needs two or more distinct N")
    # Least-squares slope of log D* against log N.
    lx = np.log(np.asarray([r.n for r in rows], dtype=np.float64))
    ly = np.log(np.asarray([r.d_star for r in rows], dtype=np.float64))
    return rows, float(np.polyfit(lx, ly, 1)[0])


def dwt_grid_with_size(
    target_n: int,
    b0: float,
    sample_rate: float,
    m: int,
    gamma: float = 6.0,
) -> SampleSet:
    """Wavelet grid at dilation step 1.15, with the time density tuned to
    roughly target_n points (a count under the rule of :mod:`ltft.lds`)."""
    target_n = _check_count(target_n)
    base = DwtGridParams(r=1.15, p=1.0, b0=b0, sample_rate=sample_rate, m=m, gamma=gamma)
    return dwt_grid(replace(base, p=max(target_n / sum(base.row_sizes()), 1e-6)))


def coverage_queries(
    box: PhaseSpaceBox, params: LtftParams, count: int, seed: int = 0
) -> np.ndarray:
    """Seeded 2D queries in the wavelet band, clear of the box edges.

    Frequencies are log-uniform in (1.01 b0, 0.99 b1); times are uniform
    at least gamma/b away from the time edges, so every adjoint box fits the
    box.  Supports that no run on the box's grid, at rate freq_hi, could use
    raise BudgetExceededError.  A band narrower than that frequency range
    (b1 < 1.0202 b0), or a query whose adjoint box, 2 gamma/b wide, is wider
    than the box's time side, raises InvalidParameterError.
    """
    count, seed = _check_count(count, "query count"), _check_int("seed", seed, 0)
    _guard_samples(params, box.freq_hi, (box.t_hi - box.t_lo) * box.freq_hi)
    lo, hi = np.log(params.b0 * 1.01), np.log(params.b1 * 0.99)
    if hi < lo:
        raise InvalidParameterError(
            f"the wavelet band ({params.b0:g}, {params.b1:g}) is too narrow for queries, "
            f"which need b1 >= {1.01 / 0.99:.5g} b0"
        )
    rng = np.random.default_rng(seed)
    b = np.exp(rng.uniform(lo, hi, count))
    margin = params.gamma / b
    side = box.t_hi - box.t_lo
    if 2.0 * margin.max() > side:
        raise InvalidParameterError(
            f"a query at b = {b.min():g} needs a time margin of {2.0 * margin.max():g} s, "
            f"more than the box's {side:g} s"
        )
    a = box.t_lo + margin + rng.random(count) * (side - 2 * margin)
    return np.column_stack([a, b])


@dataclass
class CoverageReport:
    """Per-query funnel coverage values; near 1 under uniform coverage."""

    values: np.ndarray
    flagged: np.ndarray  # queries too close to a boundary, excluded

    @property
    def kept(self) -> np.ndarray:
        return self.values[~self.flagged]

    @property
    def mean(self) -> float:
        kept = self.kept
        return float(kept.mean()) if kept.size else float("nan")

    @property
    def max_min_ratio(self) -> float:
        kept = self.kept
        if not kept.size:
            return float("nan")
        lo = kept.min()
        if lo <= 0.0:
            return float("inf")
        return float(kept.max() / lo)


def funnel_coverage(
    samples: SampleSet,
    queries: np.ndarray,
    params: LtftParams,
) -> CoverageReport:
    """Coverage of each (a, b) query by the funnels around the sample points.

    Membership is evaluated through the adjoint box at the query: time
    within gamma/b', frequency within b'/gamma.  Each count is weighted by
    volume(box)/N and normalized by the adjoint box's area 4.  Queries
    whose adjoint box leaves the sample box are flagged and excluded from
    ratio statistics.  A query array that is not (Q, 2) finite real rows
    raises InvalidParameterError.
    """
    queries = _point_rows("queries", queries, 2, "Q")
    if not np.all(np.isfinite(queries)):
        raise InvalidParameterError("queries must be finite")
    box = samples.box
    values = np.zeros(queries.shape[0])
    flagged = np.zeros(queries.shape[0], dtype=bool)
    # Python floats, whose arithmetic overflows to inf without a warning.
    for i, (aq, bq) in enumerate(queries.tolist()):
        # A query at b <= 0 has no adjoint box: its infinite time half-width
        # leaves every box.
        dt = params.gamma / bq if bq > 0 else np.inf
        df = bq / params.gamma
        if not (box.t_lo <= aq - dt and aq + dt <= box.t_hi
                and 0.0 <= bq - df and bq + df <= box.freq_hi):
            flagged[i] = True
            continue
        hit = (np.abs(samples.a - aq) <= dt) & (np.abs(samples.b - bq) <= df)
        values[i] = (box.volume / samples.n) * hit.sum() / 4.0
    return CoverageReport(values=values, flagged=flagged)
