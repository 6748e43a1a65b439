"""Comparison sample-set generators and geometric diagnostics.

A discrete-wavelet-style grid (geometric frequency ladder, uniform time
rows), exact-discrepancy scaling tables for all generator families, and
funnel coverage statistics that measure how evenly a sample set represents
the time-frequency plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from .core import LtftParams, PhaseSpaceBox, SampleSet, _check_int, _guard_samples
from .errors import BudgetExceededError, InvalidParameterError
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
    per-row time density.  The grid spans M >= 1 samples, odd M included,
    at a finite rate L.
    """

    r: float
    p: float
    b0: float
    sample_rate: float
    m: int
    gamma: float = 6.0

    def __post_init__(self) -> None:
        if self.gamma <= 0.5:
            raise InvalidParameterError("gamma must exceed 0.5")
        r_max = (self.gamma + 0.5) / (self.gamma - 0.5)
        if not 1.0 < self.r < r_max:
            raise InvalidParameterError(
                f"dilation step must lie in (1, {r_max:.6g}), got {self.r}"
            )
        if self.p <= 0:
            raise InvalidParameterError("time-spacing factor p must be positive")
        if not 0 < self.b0 < self.sample_rate < np.inf:
            raise InvalidParameterError("need 0 < b0 < sample rate < inf")
        _check_int("grid length", self.m, 1)  # odd M is legal here

    def scale_exponents(self) -> range:
        """Integer scales k with r^k covering [b0, L]: ceil(K0)..ceil(K1)."""
        k0 = math.log(self.b0 / (self.gamma + 0.5)) / math.log(self.r)
        k1 = math.log(self.sample_rate / (self.gamma - 0.5)) / math.log(self.r)
        return range(math.ceil(k0), math.ceil(k1) + 1)

    def size_estimate(self) -> float:
        """Continuous-integral estimate of the grid size, H * (L - b0)."""
        h = (
            self.m
            * self.p
            / (self.sample_rate * math.log(self.r) * (self.gamma + 0.5))
        )
        return h * (self.sample_rate - self.b0)


def dwt_grid(params: DwtGridParams) -> SampleSet:
    """Wavelet-grid sample set: per scale k, a uniform row of
    round(r^k * (M/L) * p) time midpoints at frequency r^k * gamma.

    All points carry oscillation coordinate 0.  The box's frequency side
    extends to the top scale's band edge r^K1 * (gamma + 0.5), which can
    exceed the sample rate.
    """
    ks = params.scale_exponents()
    if len(ks) == 0:
        raise InvalidParameterError("empty scale range; increase L/b0 or r")
    half = params.m / (2.0 * params.sample_rate)
    rows = []
    for k in ks:
        n_t = max(1, round(params.r**k * (params.m / params.sample_rate) * params.p))
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

    def sized(p: float) -> SampleSet:
        return dwt_grid(replace(_DWT_BASE, r=r, p=p))

    unit_p = sized(1.0).n
    best = None
    for trial in np.linspace(0.4 * target_n / unit_p, 2.5 * target_n / unit_p, 61):
        grid = sized(float(trial))
        if best is None or abs(grid.n - target_n) < abs(best.n - target_n):
            best = grid
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
    return dwt_grid(replace(base, p=max(target_n / dwt_grid(base).n, 1e-6)))


def coverage_queries(
    box: PhaseSpaceBox, params: LtftParams, count: int, seed: int = 0
) -> np.ndarray:
    """Seeded 2D queries in the wavelet band, clear of the box edges.

    Frequencies are log-uniform in (b0, b1); times are uniform at least
    gamma/b away from the time edges, so every adjoint box fits the box.
    Supports that no run on the box's grid, at rate freq_hi, could use raise
    BudgetExceededError, and a query whose adjoint box, 2 gamma/b wide, is
    wider than the box's time side raises InvalidParameterError.
    """
    count, seed = _check_count(count, "query count"), _check_int("seed", seed, 0)
    _guard_samples(params, box.freq_hi, (box.t_hi - box.t_lo) * box.freq_hi)
    rng = np.random.default_rng(seed)
    b = np.exp(rng.uniform(np.log(params.b0 * 1.01), np.log(params.b1 * 0.99), count))
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
    """Coverage of each query by the funnels around the sample points.

    Membership is evaluated through the adjoint box at the query: time
    within kappa/b', frequency within b'/kappa, and (for 3D queries)
    oscillation within nu = 1/4, where kappa = gamma for 2D queries and the
    atom's cycle count gamma + xi*c' for 3D ones.  Each count is weighted
    by volume(box)/N and normalized by the adjoint-box volume.  Queries
    whose adjoint box leaves the sample box are flagged and excluded from
    ratio statistics.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if queries.shape[1] not in (2, 3):
        raise InvalidParameterError("queries must be (a, b) or (a, b, c)")
    three_d = queries.shape[1] == 3
    nu = 0.25  # oscillation half-width of a 3D query's adjoint box
    box = samples.box
    a, b, c = samples.a, samples.b, samples.c
    values = np.zeros(queries.shape[0])
    flagged = np.zeros(queries.shape[0], dtype=bool)
    for i, q in enumerate(queries):
        aq, bq = q[0], q[1]
        if bq <= 0:
            flagged[i] = True
            continue
        kappa = params.gamma + (params.xi * q[2] if three_d else 0.0)
        dt = kappa / bq
        df = bq / kappa
        inside_box = (
            box.t_lo <= aq - dt
            and aq + dt <= box.t_hi
            and 0.0 <= bq - df
            and bq + df <= box.freq_hi
        )
        if three_d:
            inside_box = inside_box and nu <= q[2] <= 1.0 - nu
        if not inside_box:
            flagged[i] = True
            continue
        hit = (np.abs(a - aq) <= dt) & (np.abs(b - bq) <= df)
        vol = 4.0
        if three_d:
            hit &= np.abs(c - q[2]) <= nu
            vol *= 2.0 * nu
        values[i] = (box.volume / samples.n) * hit.sum() / vol
    return CoverageReport(values=values, flagged=flagged)
