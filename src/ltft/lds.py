"""Low-discrepancy point generation and exact star-discrepancy evaluation.

Provides the Halton sequence (extendable prefix), the Hammersley point set
(fixed N), a seeded uniform Monte Carlo baseline, affine rescaling of unit
points onto phase-space boxes, and an exact star-discrepancy computation for
small point sets.

A radical-inverse coordinate of N points is one linear pass: a table of
the digit reversals of 0 .. N, built by doubling the digit count (the
reversal of 2k digits is an outer sum of the k-digit table with itself),
divided by the power of the base that bounds N.  The quotient is correctly
rounded, as is the exact-integer scalar :func:`radical_inverse`, so both
agree in every bit.  Generators refuse counts beyond ``_MAX_POINTS``
before they allocate.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

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

# Point generators refuse larger counts before they allocate: 2**30 points
# in 3D take 24 GiB of coordinates alone.
_MAX_POINTS = 1 << 30


def _check_int(name: str, value) -> int:
    # An integer argument: a Python or numpy integer, not a bool or a float.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_count(count, dim: int) -> Tuple[int, int]:
    # A point count of at least 1 within the budget, and an integer dimension.
    count, dim = _check_int("count", count), _check_int("dim", dim)
    if count < 1:
        raise InvalidParameterError("count must be >= 1")
    if count > _MAX_POINTS:
        raise BudgetExceededError(f"{count} points exceed the budget of {_MAX_POINTS}")
    return count, dim


def radical_inverse(n: int, base: int) -> float:
    """Digit-reversal of ``n`` in the given base, mapped into [0, 1).

    Writing n = sum(d_j * base**j), returns sum(d_j * base**(-j-1)).  The
    reversal is an exact integer r over base**K, K the digit count, and the
    one division r / base**K is correctly rounded.
    """
    n, base = _check_int("index", n), _check_int("radix base", base)
    if base < 2:
        raise InvalidParameterError(f"radix base must be >= 2, got {base}")
    if n < 0:
        raise InvalidParameterError(f"index must be non-negative, got {n}")
    if max(n, base) >= 1 << 63:
        raise InvalidParameterError("index and radix base must be below 2**63")
    r, scale = 0, 1
    while n > 0:
        n, digit = divmod(n, base)
        r, scale = r * base + digit, scale * base
    # Reversals within half an ulp of 1 (only past 2**53) round up to 1.0;
    # the largest double below 1 is the nearest value in [0, 1).
    return min(r / scale, float(np.nextafter(1.0, 0.0)))


def _reversal_table(digits: int, base: int, stop: int, dtype) -> np.ndarray:
    # rev[n] for n < min(stop, base**digits): n's `digits` base-`base` digits
    # in reverse order, read as an integer.  The table doubles its digit
    # count per level: with n = hi * base**p + lo and lo < base**p,
    # rev(n) = rev_p(lo) * base**q + rev_q(hi) for q = digits - p, one outer
    # sum of the full p-digit table and the rows of the q-digit table that
    # indices below stop reach.
    if digits <= 1:
        return np.arange(min(base**digits, stop), dtype=dtype)
    p = digits // 2
    q = digits - p
    low = _reversal_table(p, base, base**p, dtype)
    high = _reversal_table(q, base, -(-stop // base**p), dtype)
    return (low * base**q + high[:, None]).ravel()[:stop]


def _radical_inverses(stop: int, base: int) -> np.ndarray:
    # The radical inverses of 0 .. stop-1: rev(n) / base**K, rev from
    # _reversal_table for the fewest digits K with base**K >= stop.  rev(n)
    # and base**K are exact doubles below 2**53 (stop <= _MAX_POINTS + 1), so
    # the one division is correctly rounded; it does not depend on K, since
    # one more digit multiplies both by base.
    digits = 0
    while base**digits < stop:
        digits += 1
    scale = base**digits
    rev = _reversal_table(digits, base, stop, np.int32 if scale <= 1 << 31 else np.int64)
    return rev / float(scale)


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
        # min and max propagate NaN, which fails both comparisons.
        if not (self.points.min() >= 0.0 and self.points.max() < 1.0):
            raise InvalidParameterError("unit points must be finite and lie in [0, 1)")

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
    Each coordinate is one digit-reversal table divided by a power of its
    base (see ``_radical_inverses``), correctly rounded.
    """
    count, dim = _check_count(count, dim)
    if dim < 1:
        raise InvalidParameterError("dim must be >= 1")
    if dim > len(_PRIMES):
        raise UnsupportedDimensionError(f"halton supports dim <= {len(_PRIMES)}")
    pts = np.empty((count, dim))
    for j in range(dim):
        pts[:, j] = _radical_inverses(count + 1, _PRIMES[j])[1:]
    return UnitPointSet(pts, generator="halton")


def hammersley_set(count: int, dim: int) -> UnitPointSet:
    """The N-point Hammersley set in ``dim`` dimensions (not extendable).

    Point n (0-indexed) is (n/N, h_0(n), ..., h_{d-2}(n)) where h_j(n) is
    the j-th Halton coordinate of point n, i.e. the radical inverse of
    n + 1 in the j-th prime base, taken from a digit-reversal table as in
    :func:`halton_sequence`.
    """
    count, dim = _check_count(count, dim)
    if dim < 2:
        raise InvalidParameterError(
            "hammersley needs dim >= 2; use halton_sequence for 1D"
        )
    if dim > len(_PRIMES):
        raise UnsupportedDimensionError(f"hammersley supports dim <= {len(_PRIMES)}")
    pts = np.empty((count, dim))
    np.divide(np.arange(count), float(count), out=pts[:, 0])
    for j in range(dim - 1):
        pts[:, j + 1] = _radical_inverses(count + 1, _PRIMES[j])[1:]
    return UnitPointSet(pts, generator="hammersley")


def mc_uniform(count: int, dim: int, seed: int) -> UnitPointSet:
    """``count`` i.i.d.-uniform points from a seeded PCG64 generator."""
    count, dim = _check_count(count, dim)
    seed = _check_int("seed", seed)
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

    Coordinate-wise lo + u * (hi - lo), one column at a time; preserves
    point order and the generator tag, and records the box (hence its
    volume) on the output.
    """
    if points.dim != 3:
        raise InvalidParameterError(
            f"phase-space box is 3D but points have dim {points.dim}"
        )
    u = points.points
    coords = np.empty_like(u)
    np.multiply(u[:, 0], box.t_hi - box.t_lo, out=coords[:, 0])
    coords[:, 0] += box.t_lo
    np.multiply(u[:, 1], box.freq_hi, out=coords[:, 1])
    coords[:, 2] = u[:, 2]
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
