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
agree in every bit.  Any index range of a set is made on its own, bit for
bit equal to the same rows of the whole set (:func:`unit_point_rows`), so
a pipeline can hold one tile of points at a time.

This module owns the generator list (:data:`KINDS`), which generators extend
(:func:`extensible`) and read the seed (:func:`seeded`), and the point-count
rule: a count is an integer in [1, ``_MAX_POINTS``], refused before anything
is allocated.  No other module tests the name of a kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .core import PhaseSpaceBox, SampleSet, _check_int
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

KINDS = ("hammersley", "halton", "mc")


def extensible(kind: str) -> bool:
    """Whether the rows of ``kind`` at count N are the first N at any larger count."""
    return kind != "hammersley"


def seeded(kind: str) -> bool:
    """Whether the rows of ``kind`` read the seed."""
    return kind == "mc"


def _check_count(count, name: str = "count") -> int:
    count = _check_int(name, count, 1)
    if count > _MAX_POINTS:
        raise BudgetExceededError(f"{count} points exceed the budget of {_MAX_POINTS}")
    return count


def radical_inverse(n: int, base: int) -> float:
    """Digit-reversal of ``n`` in the given base, mapped into [0, 1).

    Writing n = sum(d_j * base**j), returns sum(d_j * base**(-j-1)).  The
    reversal is an exact integer r over base**K, K the digit count, and the
    one division r / base**K is correctly rounded.
    """
    n, base = _check_int("index", n, 0), _check_int("radix base", base, 2)
    if max(n, base) >= 1 << 63:
        raise InvalidParameterError("index and radix base must be below 2**63")
    r, scale = 0, 1
    while n > 0:
        n, digit = divmod(n, base)
        r, scale = r * base + digit, scale * base
    # Reversals within half an ulp of 1 (only past 2**53) round up to 1.0;
    # the largest double below 1 is the nearest value in [0, 1).
    return min(r / scale, float(np.nextafter(1.0, 0.0)))


def _reversal_table(digits: int, base: int, start: int, stop: int, dtype) -> np.ndarray:
    # rev[n] for start <= n < stop <= base**digits: n's `digits` base-`base`
    # digits in reverse order, read as an integer.  The table doubles its
    # digit count per level: with n = hi * base**p + lo and lo < base**p,
    # rev(n) = rev_p(lo) * base**q + rev_q(hi) for q = digits - p, one outer
    # sum of the full p-digit table and the rows of the q-digit table that
    # indices in [start, stop) reach.
    if digits <= 1:
        return np.arange(start, stop, dtype=dtype)
    p = digits // 2
    q = digits - p
    size = base**p
    low = _reversal_table(p, base, 0, size, dtype)
    first = start // size
    high = _reversal_table(q, base, first, -(-stop // size), dtype)
    skip = first * size
    return (low * base**q + high[:, None]).ravel()[start - skip : stop - skip]


def _radical_inverses(stop: int, base: int, start: int = 0) -> np.ndarray:
    # The radical inverses of start .. stop-1: rev(n) / base**K, rev from
    # _reversal_table for the fewest digits K with base**K >= stop.  rev(n)
    # and base**K are exact doubles below 2**53 (stop <= _MAX_POINTS + 1), so
    # the one division is correctly rounded; it does not depend on K, since
    # one more digit multiplies both by base.  So any index range gives the
    # same bits as the same rows of a longer one.
    digits = 0
    while base**digits < stop:
        digits += 1
    scale = base**digits
    dtype = np.int32 if scale <= 1 << 31 else np.int64
    return _reversal_table(digits, base, start, stop, dtype) / float(scale)


@dataclass
class UnitPointSet:
    """Ordered points in the half-open unit cube [0, 1)^d."""

    points: np.ndarray  # (N, d) float64
    generator: str

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


def _check_rows(kind: str, count, dim, seed) -> Tuple[int, int, int]:
    # The arguments of a point set, checked before anything is allocated.
    if kind not in KINDS:
        raise InvalidParameterError(f"unknown generator kind {kind!r}")
    count, dim = _check_count(count), _check_int("dim", dim, 1)
    if seeded(kind):
        seed = _check_int("seed", seed, 0)
    if kind == "hammersley" and dim < 2:
        raise InvalidParameterError("hammersley needs dim >= 2; use the halton kind for 1D")
    if kind != "mc" and dim > len(_PRIMES):
        raise UnsupportedDimensionError(f"{kind} supports dim <= {len(_PRIMES)}")
    return count, dim, seed


def unit_point_rows(
    kind: str, count: int, dim: int, seed: int, start: int, stop: int
) -> np.ndarray:
    """Rows [start, stop) of ``generate_unit_points(kind, count, dim, seed)``.

    The rows equal those of the whole set bit for bit, and only they are
    made: Hammersley's first column is n/N, each radical-inverse column is
    one digit-reversal table over the index range, and Monte Carlo rows
    come from a PCG64 stream advanced past the rows before ``start``.
    Returns a fresh (stop - start, dim) float64 array.
    """
    count, dim, seed = _check_rows(kind, count, dim, seed)
    start, stop = _check_int("start", start, 0), _check_int("stop", stop, 1)
    if not start < stop <= count:
        raise InvalidParameterError(f"need 0 <= start < stop <= count, got [{start}, {stop})")
    pts = np.empty((stop - start, dim))
    if kind == "mc":
        bits = np.random.PCG64(seed)
        bits.advance(start * dim)  # one 64-bit draw per coordinate
        np.random.Generator(bits).random(out=pts)
        return pts
    first = 0
    if kind == "hammersley":
        np.divide(np.arange(start, stop), float(count), out=pts[:, 0])
        first = 1
    # Point n's radical-inverse columns are those of index n + 1.
    for j in range(dim - first):
        pts[:, first + j] = _radical_inverses(stop + 1, _PRIMES[j], start + 1)
    return pts


def generate_unit_points(kind: str, count: int, dim: int, seed: int = 0) -> UnitPointSet:
    """The first ``count`` points in [0, 1)^dim of a halton, hammersley or mc set.

    Halton point n (0-indexed) has coordinate j equal to the radical
    inverse of n + 1 in the j-th prime base; indexing starts at 1 so that
    no point sits on the origin corner, which degrades small-N discrepancy.
    Hammersley point n is (n/N, Halton coordinates of point n), so it needs
    dim >= 2 and its rows do not extend (:func:`extensible`).  Monte Carlo
    points are i.i.d. uniform from a PCG64 stream seeded by ``seed``, the
    only kind that reads it (:func:`seeded`); the set does not record it.
    """
    return UnitPointSet(unit_point_rows(kind, count, dim, seed, 0, count), generator=kind)


def scale_rows(rows: np.ndarray, box: PhaseSpaceBox) -> np.ndarray:
    """Map (n, 3) unit rows onto a phase-space box in place; returns ``rows``.

    Coordinate-wise lo + u * (hi - lo), one column at a time.
    """
    rows[:, 0] *= box.t_hi - box.t_lo
    rows[:, 0] += box.t_lo
    rows[:, 1] *= box.freq_hi
    return rows


def scale_to_box(points: UnitPointSet, box: PhaseSpaceBox) -> SampleSet:
    """Affine map of unit points onto a 3D phase-space box.

    A copy of the points mapped by :func:`scale_rows`; preserves point order
    and the generator tag, and records the box (hence its volume) on the
    output.
    """
    if points.dim != 3:
        raise InvalidParameterError(
            f"phase-space box is 3D but points have dim {points.dim}"
        )
    coords = scale_rows(points.points.copy(), box)
    return SampleSet(coords, box=box, generator=points.generator)


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


def _check_exact_budget(n: int, d: int) -> None:
    # Refuses N points in d dimensions past the exact-discrepancy budget.
    budget = _EXACT_BUDGET.get(d)
    if budget is None or n > budget:
        raise BudgetExceededError(
            f"exact star discrepancy supports N <= {budget or 0} in d={d}; "
            f"got N={n} (subsample or reduce the set)"
        )


def star_discrepancy(points: UnitPointSet) -> float:
    """Exact star discrepancy over anchored boxes [0, u), a value in [0, 1].

    Enumerates candidate corners from the per-axis coordinate multisets
    (with 1 appended) and evaluates both the strict count (the box [0, u)
    itself) and the closed count (the limit from above); the supremum over
    half-open boxes is attained at one of these values, which is returned.
    """
    pts = points.points
    n, d = pts.shape
    _check_exact_budget(n, d)
    candidates = [
        np.concatenate([np.unique(pts[:, j]), [1.0]]) for j in range(d)
    ]
    closed = _corner_counts(pts, candidates, side="left")
    strict = _corner_counts(pts, candidates, side="right")
    vol = candidates[0].copy()
    for j in range(1, d):
        vol = np.multiply.outer(vol, candidates[j])
    value = float(max(np.abs(closed / n - vol).max(), np.abs(strict / n - vol).max()))
    if not 0.0 <= value <= 1.0:
        raise InvalidParameterError(f"star discrepancy must be in [0, 1], got {value}")
    return value


def star_discrepancy_scan(points: UnitPointSet, resolution: int = 512) -> float:
    """Brute-force lower bound: evaluate both counts on a uniform corner grid.

    Every returned value is a true value (or one-sided limit) of the
    discrepancy function, so this never exceeds the exact supremum.
    """
    pts = points.points
    n, d = pts.shape
    resolution = _check_count(resolution, "resolution")
    grid = [np.arange(1, resolution + 1) / resolution] * d
    closed = _corner_counts(pts, grid, side="left")
    strict = _corner_counts(pts, grid, side="right")
    vol = grid[0].copy()
    for j in range(1, d):
        vol = np.multiply.outer(vol, grid[j])
    return float(
        max(np.abs(closed / n - vol).max(), np.abs(strict / n - vol).max())
    )
