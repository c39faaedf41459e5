"""Asymptotic direction sets, links, and the inversion exchange.

Directions of samples near the origin approximate the asymptotic set at
0; directions of the outermost samples approximate the one at infinity.
Inversion preserves directions, so the two exchange under it; the
residuals here measure exactly that.  All comparisons are angular, and
exact: a pair of directions is skipped only when its chord provably
cannot be the nearest one (see ``angular_hausdorff``).
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InsufficientPoints
from .geometry import PointCloud, invert, norms, sum_squares

MAX_DIRECTIONS = 10**4  # per set as given, before folding; the dense pass may compare every pair
MIN_SHELL_POINTS = 8  # a rank shell takes at least this many points when the cloud has them
_BLOCK_PAIRS = 2**16  # squared chords held per block of either Hausdorff pass
_NEIGHBOURS = 8  # rows of the other set, nearest in coordinate 0, that bound each nearest chord
# Windows that hold more than this share of the pairs run the dense pass instead: with
# windows of hundreds of rows a windowed pair costs 7-10 dense ones (ragged gathers
# against a broadcast; q = 2, 3, 6, 2-core Xeon), so both cost about the same there.
_DENSE_SHARE = 1 / 8


class ConeKind(enum.Enum):
    AT_ORIGIN = "AtOrigin"
    AT_INFINITY = "AtInfinity"


@dataclasses.dataclass(frozen=True)
class DirectionSet:
    """Unit vectors with the radii of the samples that produced them."""

    directions: np.ndarray
    source_radii: np.ndarray

    def __post_init__(self) -> None:
        dirs = np.asarray(self.directions, dtype=np.float64)
        radii = np.asarray(self.source_radii, dtype=np.float64)
        if dirs.ndim != 2 or len(dirs) != len(radii):
            raise DomainError("directions and source radii must align")
        if len(dirs) and np.max(np.abs(norms(dirs) - 1.0)) > 1e-12:
            raise DomainError("directions must be unit vectors")
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "source_radii", radii)

    def __len__(self) -> int:
        return len(self.directions)

    @property
    def dim(self) -> int:
        return int(self.directions.shape[1])


class ExchangeResiduals(NamedTuple):
    infinity_to_origin: float
    origin_to_infinity: float


def check_fraction(fraction: float) -> None:
    if not 0.0 < fraction <= 1.0:
        raise DomainError("shell fraction must lie in (0, 1]")


def asymptotic_directions(cloud: PointCloud, kind: ConeKind, fraction: float = 0.1) -> DirectionSet:
    """Directions of the innermost or outermost fraction of a cloud.

    The shell is ``fraction`` of the nonzero points, and at least
    ``MIN_SHELL_POINTS`` of them, taken from the inner or outer end of
    the radius order; exact-zero points are skipped.  Selection is by
    radius rank with a stable sort, so equal radii keep their index
    order and scaling the cloud never changes the selection.  Rank-based
    selection is scale-free and exactly inversion-equivariant whenever
    radii are distinct, because r -> 1/r reverses the order.

    Raises:
        DomainError: if ``fraction`` lies outside (0, 1].
        InsufficientPoints: if fewer than 2 usable points exist.
    """
    check_fraction(fraction)
    r = cloud.radii()
    usable = np.flatnonzero(r > 0.0)
    if len(usable) < 2:
        raise InsufficientPoints("need at least two nonzero points for directions")
    order = usable[np.argsort(r[usable], kind="stable")]
    k = min(len(order), max(MIN_SHELL_POINTS, math.ceil(fraction * len(order))))
    chosen = order[:k] if kind is ConeKind.AT_ORIGIN else order[-k:]
    pts = cloud.points[chosen]
    radii = r[chosen]
    return DirectionSet(pts / radii[:, None], radii)


def link(cloud: PointCloud, r_min: float, r_max: float) -> np.ndarray:
    """Indices, in cloud order, of the samples with r_min <= |x| <= r_max.

    Indices rather than points, so slice identities (such as the
    exchange with inversion) are testable as array equalities.  The
    shell is closed because inversion carries exactly the closed shell
    [r_min, r_max] onto [1/r_max, 1/r_min], and sigma onto the closed
    chordal annulus [2/sqrt(1 + r_max^2), 2/sqrt(1 + r_min^2)] around N.

    Raises:
        DomainError: unless 0 < r_min < r_max.
        InsufficientPoints: if the shell is empty.
    """
    if not 0.0 < r_min < r_max:
        raise DomainError("link shell needs 0 < r_min < r_max")
    r = cloud.radii()
    keep = np.flatnonzero((r >= r_min) & (r <= r_max))
    if len(keep) == 0:
        raise InsufficientPoints(f"no points in the shell [{r_min}, {r_max}]")
    return keep


def angular_hausdorff(a: DirectionSet, b: DirectionSet) -> float:
    """Symmetric sup-inf of angles between two direction sets, exact.

    Angles come from chord lengths, angle = 2 asin(|u - v| / 2), which is
    exact for unit vectors and keeps full precision near zero where the
    arccos of a dot product bottoms out around 1e-8.  Sets are capped at
    10^4 directions as given, before any folding.

    Each squared chord is the ``geometry.sum_squares`` of the coordinate
    differences, in index order.  The square root and arcsine run only on
    the nearest squared chord of each row of ``a`` and of ``b``; sqrt is
    monotone and correctly rounded, so sqrt(min d^2) == min sqrt(d^2).
    The result is that of comparing every pair, bit for bit, because a
    pair is skipped only when it cannot be the nearest:

    * Repeated rows are folded first; that changes no minimum and no
      maximum.  The folded rows are sorted by coordinate 0.
    * For each row x, the chords to the ``_NEIGHBOURS`` rows y of the other
      set nearest in coordinate 0 give an upper bound U >= min_y d^2(x, y).
      Rounding to nearest is monotone, so a sum of non-negative squares
      never falls below its first term: d^2(x, y) >= fl(x_0 - y_0)^2, and a
      y with fl(x_0 - y_0)^2 > U is never the nearest.
    * Every other y has |x_0 - y_0| <= reach = sqrt(U) (1 + 2^-20) + 2^-500:
      the factor covers the rounding of the difference, the square and the
      root, and the term a square that underflows.  Rounding is monotone
      again, so these y_0 lie between fl(x_0 - reach) and fl(x_0 + reach):
      one run of the sorted set (the window), found by ``searchsorted``.
    * Row minima a -> b and b -> a come from two such directed passes.
      fl(u - v) == -fl(v - u), so the squares, and h(a, b) == h(b, a),
      keep every bit.

    The dense pass, one broadcast block of rows at a time, computes every
    pair of the folded sets instead when they hold at most 2^16 pairs, or
    when the windows hold more than ``_DENSE_SHARE`` of the pairs; that is
    decided from the window sizes, before any windowed pair is computed.
    Sets of at most 2^16 pairs go to the dense pass unfolded.  Spread sets
    in three or more dimensions take it: neighbours in coordinate 0 are
    then far apart in the others, so the windows stay wide.
    Neither pass needs scipy: a kd-tree would import it, and that import
    costs a command several times what these passes take on two sets of
    5000.
    """
    if len(a) == 0 or len(b) == 0:
        raise InsufficientPoints("cannot compare empty direction sets")
    if a.dim != b.dim:
        raise DomainError("direction sets must share a dimension")
    if len(a) > MAX_DIRECTIONS or len(b) > MAX_DIRECTIONS:
        raise DomainError(f"direction sets are capped at {MAX_DIRECTIONS} members")
    minima = None
    if len(a) * len(b) <= _BLOCK_PAIRS:
        # coordinate-major copies: each coordinate of a block is one contiguous slice
        u, v = np.ascontiguousarray(a.directions.T), np.ascontiguousarray(b.directions.T)
    else:
        u, v = _folded(a.directions), _folded(b.directions)
        if u.shape[1] * v.shape[1] > _BLOCK_PAIRS:
            minima = _windowed_minima(u, v)
    row, col = _dense_minima(u, v) if minima is None else minima
    chords = np.minimum(np.sqrt(np.concatenate((row, col))), 2.0)
    return float(np.max(2.0 * np.arcsin(chords / 2.0)))


def _folded(rows: np.ndarray) -> np.ndarray:
    """The distinct rows, sorted by coordinate 0, as a coordinate-major copy."""
    order = np.argsort(rows[:, 0])
    first = rows[order, 0]
    if np.any(first[1:] == first[:-1]):
        # equal rows fold only where they are adjacent, so ties go to the next coordinates
        order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    distinct = np.ones(len(rows), dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=distinct[1:])
    return np.ascontiguousarray(rows[distinct].T)


def _dense_minima(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least squared chord from each column of u to all of v, and from each column of v to all of u.

    One pass over blocks of columns of ``u`` computes each squared chord
    once and serves both directions: the row minima of a block, and the
    column minima folded across blocks.
    """
    n, m = u.shape[1], v.shape[1]
    step = max(1, _BLOCK_PAIRS // m)
    # two buffers reused by every block, not fresh 2^16-entry temporaries per block:
    # those took 81 ms against 60 ms at q = 2 and 109 ms against 71 ms at q = 3
    # (5000 x 5000 directions, best of 15, 2-core Xeon)
    d2_buf, sq_buf = np.empty((step, m)), np.empty((step, m))
    row = np.empty(n)
    col = np.full(m, np.inf)
    for start in range(0, n, step):
        stop = min(start + step, n)
        d2, sq = d2_buf[: stop - start], sq_buf[: stop - start]
        sum_squares(np.subtract(u[k, start:stop, None], v[k], out=sq if k else d2) for k in range(len(u)))
        d2.min(axis=1, out=row[start:stop])
        np.minimum(col, d2.min(axis=0), out=col)
    return row, col


def _windowed_minima(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The minima of ``_dense_minima`` from the pairs in the windows alone, for folded u and v;
    None, before any windowed pair is computed, when the windows hold too many pairs."""
    budget = _DENSE_SHARE * u.shape[1] * v.shape[1]
    passes = []
    for x, y in ((u, v), (v, u)):
        lo, hi = _windows(x, y)
        budget -= int(np.sum(hi - lo))
        if budget < 0:
            return None
        passes.append((x, y, lo, hi))
    return tuple(_nearest_in_windows(*p) for p in passes)


def _windows(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each column of x, the run lo..hi-1 of columns of y that holds every candidate nearest one.

    Both are folded, so sorted by coordinate 0; see ``angular_hausdorff``
    for why no other column of y can be the nearest.
    """
    m = y.shape[1]
    half = _NEIGHBOURS // 2
    near = np.clip(np.searchsorted(y[0], x[0]) + np.arange(-half, half)[:, None], 0, m - 1)
    bound = sum_squares(x[k] - y[k, near] for k in range(len(x))).min(axis=0)
    reach = np.sqrt(bound) * (1.0 + 2.0**-20) + 2.0**-500
    return np.searchsorted(y[0], x[0] - reach, "left"), np.searchsorted(y[0], x[0] + reach, "right")


def _nearest_in_windows(x: np.ndarray, y: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The least squared chord from each column i of x to the columns lo[i]..hi[i]-1 of y.

    Every window holds the neighbour its bound came from, so none is empty.
    """
    counts = hi - lo
    ends = np.cumsum(counts)
    nearest = np.empty(len(counts))
    start = 0
    while start < len(counts):
        # the rows start..stop-1 hold at most _BLOCK_PAIRS pairs, or are one row
        base = ends[start] - counts[start]
        stop = max(start + 1, int(np.searchsorted(ends, base + _BLOCK_PAIRS, "right")))
        c = counts[start:stop]
        firsts = ends[start:stop] - c - base
        rows = np.repeat(np.arange(start, stop), c)
        cols = np.arange(ends[stop - 1] - base) + np.repeat(lo[start:stop] - firsts, c)
        d2 = sum_squares(x[k, rows] - y[k, cols] for k in range(len(x)))
        nearest[start:stop] = np.minimum.reduceat(d2, firsts)
        start = stop
    return nearest


def verify_cone_exchange(cloud: PointCloud, fraction: float = 0.1) -> ExchangeResiduals:
    """Residuals of the exchange of asymptotic sets under inversion.

    The directions at infinity of a cloud must match the directions at
    the origin of its inversion, and vice versa; since inversion
    preserves directions exactly, matched rank shells of ``fraction``
    (see ``asymptotic_directions``) drive both residuals to roundoff.
    """
    check_fraction(fraction)
    r = cloud.radii()
    nonzero = cloud.points[r > 0.0]
    if len(nonzero) < 2:
        raise InsufficientPoints("need at least two nonzero points")
    inverted = PointCloud(invert(nonzero), cloud.label)
    inf_dirs = asymptotic_directions(cloud, ConeKind.AT_INFINITY, fraction)
    origin_of_inv = asymptotic_directions(inverted, ConeKind.AT_ORIGIN, fraction)
    origin_dirs = asymptotic_directions(cloud, ConeKind.AT_ORIGIN, fraction)
    inf_of_inv = asymptotic_directions(inverted, ConeKind.AT_INFINITY, fraction)
    return ExchangeResiduals(
        infinity_to_origin=angular_hausdorff(inf_dirs, origin_of_inv),
        origin_to_infinity=angular_hausdorff(origin_dirs, inf_of_inv),
    )
