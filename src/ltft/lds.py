"""Low-discrepancy point generation and exact star-discrepancy evaluation.

Provides the Halton sequence (extendable prefix), the Hammersley point set
(fixed N), a seeded uniform Monte Carlo baseline, affine rescaling of unit
points onto phase-space boxes, and an exact star-discrepancy computation for
small point sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import PhaseSpaceBox, SampleSet
from .errors import (
    BudgetExceededError,
    InvalidParameterError,
    UnsupportedDimensionError,
)

# First eight primes; one radix per coordinate beyond what is needed in 3D.
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)

# Exact star-discrepancy enumerates a candidate-corner tensor of size
# (N+1)^d; these caps keep that tensor at a few million entries.
_EXACT_BUDGET = {1: 1 << 16, 2: 1 << 10, 3: 1 << 7}


def radical_inverse(n: int, base: int) -> float:
    """Digit-reversal of ``n`` in the given base, mapped into [0, 1).

    Writing n = sum(d_j * base**j), returns sum(d_j * base**(-j-1)).
    """
    if base < 2:
        raise InvalidParameterError(f"radix base must be >= 2, got {base}")
    if n < 0:
        raise InvalidParameterError(f"index must be non-negative, got {n}")
    if max(n, base) >= 1 << 63:
        raise InvalidParameterError("index and radix base must be below 2**63")
    return float(_radical_inverse_many(np.array([n]), base)[0])


def _radical_inverse_many(indices: np.ndarray, base: int) -> np.ndarray:
    # Digits go k at a time through a table of every k-digit reversal, the
    # largest k with base**k <= 4096 (one digit is its own reversal).  They
    # build an integer r < base**K, K the digits taken, and r / base**K is the
    # radical inverse, correctly rounded and independent of the other indices,
    # while base**K < 2**53 (every index below 2**41 when base <= 4096).
    # Further digits build further such integers, added at their own scale.
    size, rev = base, None
    while size * base <= 4096:
        low = np.arange(base)
        rev = (low * size + (low if rev is None else rev)[:, None]).ravel()
        size *= base
    n = np.asarray(indices, dtype=np.int64)
    top, scale = int(n.max(initial=0)), 1.0
    out = np.zeros(n.shape, dtype=np.float64)
    while top > 0:
        r, width = np.zeros(n.shape, dtype=np.int64), 1
        while top > 0 and (width == 1 or width * size < 1 << 53):
            n, chunk = np.divmod(n, size)
            r = r * size + (chunk if rev is None else rev[chunk])
            width, top = width * size, top // size
        scale *= width
        out += r / scale
    # Reversals within half an ulp of 1 (only past 2**53) round up to 1.0;
    # the largest double below 1 is the nearest value in [0, 1).
    return np.minimum(out, np.nextafter(1.0, 0.0), out=out)


@dataclass
class UnitPointSet:
    """Ordered points in the half-open unit cube [0, 1)^d."""

    points: np.ndarray  # (N, d) float64
    generator: str
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        self.points = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        if self.points.ndim != 2 or self.points.shape[0] < 1:
            raise InvalidParameterError("point set must be a non-empty (N, d) array")
        if np.any(self.points < 0.0) or np.any(self.points >= 1.0):
            raise InvalidParameterError("unit points must lie in [0, 1)")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass
class DiscrepancyReport:
    star_value: float
    n: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.star_value <= 1.0:
            raise InvalidParameterError(
                f"star discrepancy must be in [0, 1], got {self.star_value}"
            )


def halton_sequence(count: int, dim: int) -> UnitPointSet:
    """First ``count`` points of the Halton sequence in ``dim`` dimensions.

    Point n (0-indexed) has coordinate j equal to the radical inverse of
    n + 1 in the j-th prime base.  Indexing starts at 1 so that no sample
    sits exactly on the origin corner, which degrades small-N discrepancy.
    Prefixes are stable: the first N points never change as count grows.
    """
    if count < 1:
        raise InvalidParameterError("count must be >= 1")
    if dim < 1:
        raise InvalidParameterError("dim must be >= 1")
    if dim > len(_PRIMES):
        raise UnsupportedDimensionError(f"halton supports dim <= {len(_PRIMES)}")
    idx = np.arange(1, count + 1, dtype=np.int64)
    pts = np.column_stack(
        [_radical_inverse_many(idx, _PRIMES[j]) for j in range(dim)]
    )
    return UnitPointSet(pts, generator="halton")


def hammersley_set(count: int, dim: int) -> UnitPointSet:
    """The N-point Hammersley set in ``dim`` dimensions (not extendable).

    Point n (0-indexed) is (n/N, h_0(n), ..., h_{d-2}(n)) where h_j(n) is
    the j-th Halton coordinate of point n, i.e. the radical inverse of
    n + 1 in the j-th prime base.
    """
    if count < 1:
        raise InvalidParameterError("count must be >= 1")
    if dim < 2:
        raise InvalidParameterError(
            "hammersley needs dim >= 2; use halton_sequence for 1D"
        )
    if dim > len(_PRIMES):
        raise UnsupportedDimensionError(f"hammersley supports dim <= {len(_PRIMES)}")
    idx = np.arange(count, dtype=np.int64)
    cols = [idx / float(count)]
    cols += [_radical_inverse_many(idx + 1, _PRIMES[j]) for j in range(dim - 1)]
    return UnitPointSet(np.column_stack(cols), generator="hammersley")


def mc_uniform(count: int, dim: int, seed: int) -> UnitPointSet:
    """``count`` i.i.d.-uniform points from a seeded PCG64 generator."""
    if count < 1:
        raise InvalidParameterError("count must be >= 1")
    if dim < 1:
        raise InvalidParameterError("dim must be >= 1")
    if seed < 0:
        raise InvalidParameterError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    return UnitPointSet(rng.random((count, dim)), generator="mc", seed=seed)


def generate_unit_points(kind: str, count: int, dim: int, seed: int = 0) -> UnitPointSet:
    """Dispatch on generator tag: halton | hammersley | mc."""
    if kind == "halton":
        return halton_sequence(count, dim)
    if kind == "hammersley":
        return hammersley_set(count, dim)
    if kind == "mc":
        return mc_uniform(count, dim, seed)
    raise InvalidParameterError(f"unknown generator kind {kind!r}")


def scale_to_box(points: UnitPointSet, box: PhaseSpaceBox) -> SampleSet:
    """Affine map of unit points onto a 3D phase-space box.

    Coordinate-wise lo + u * (hi - lo); preserves point order and the
    generator tag, and records the box (hence its volume) on the output.
    """
    if points.dim != 3:
        raise InvalidParameterError(
            f"phase-space box is 3D but points have dim {points.dim}"
        )
    lo = np.array([box.t_lo, 0.0, 0.0])
    hi = np.array([box.t_hi, box.freq_hi, 1.0])
    coords = lo + points.points * (hi - lo)
    return SampleSet(coords, box=box, generator=points.generator, seed=points.seed)


def _corner_counts(points: np.ndarray, candidates: Sequence[np.ndarray], side: str):
    # Tensor of point counts at every candidate corner, cumulative per axis.
    # side='left' counts coord <= corner (closed), side='right' counts
    # coord < corner (strict); every coordinate occurs in its axis grid.
    shape = tuple(len(c) for c in candidates)
    counts = np.zeros(shape, dtype=np.int64)
    idx = tuple(
        np.searchsorted(candidates[j], points[:, j], side=side)
        for j in range(points.shape[1])
    )
    np.add.at(counts, idx, 1)
    for axis in range(points.shape[1]):
        np.cumsum(counts, axis=axis, out=counts)
    return counts


def star_discrepancy(points: UnitPointSet) -> DiscrepancyReport:
    """Exact star discrepancy over anchored boxes [0, u).

    Enumerates candidate corners from the per-axis coordinate multisets
    (with 1 appended) and evaluates both the strict count (the box [0, u)
    itself) and the closed count (the limit from above); the supremum over
    half-open boxes is attained at one of these values.
    """
    pts = points.points
    n, d = pts.shape
    budget = _EXACT_BUDGET.get(d)
    if budget is None or n > budget:
        raise BudgetExceededError(
            f"exact star discrepancy supports N <= {budget or 0} in d={d}; "
            f"got N={n} (subsample or reduce the set)"
        )
    candidates = [
        np.concatenate([np.unique(pts[:, j]), [1.0]]) for j in range(d)
    ]
    closed = _corner_counts(pts, candidates, side="left")
    strict = _corner_counts(pts, candidates, side="right")
    vol = candidates[0].copy()
    for j in range(1, d):
        vol = np.multiply.outer(vol, candidates[j])
    dev_closed = np.abs(closed / n - vol).max()
    dev_strict = np.abs(strict / n - vol).max()
    return DiscrepancyReport(float(max(dev_closed, dev_strict)), n=n)


def star_discrepancy_scan(points: UnitPointSet, resolution: int = 512) -> float:
    """Brute-force lower bound: evaluate both counts on a uniform corner grid.

    Every returned value is a true value (or one-sided limit) of the
    discrepancy function, so this never exceeds the exact supremum.
    """
    pts = points.points
    n, d = pts.shape
    grid = [np.arange(1, resolution + 1) / resolution] * d
    closed = _corner_counts(pts, grid, side="left")
    strict = _corner_counts(pts, grid, side="right")
    vol = grid[0].copy()
    for j in range(1, d):
        vol = np.multiply.outer(vol, grid[j])
    return float(
        max(np.abs(closed / n - vol).max(), np.abs(strict / n - vol).max())
    )
