"""Asymptotic direction sets, links, and the inversion exchange.

Directions of samples near the origin approximate the asymptotic set at
0; directions of the outermost samples approximate the one at infinity.
Inversion preserves directions, so the two exchange under it; the
residuals here measure exactly that.  All comparisons are angular, and
exact: every pair of directions is compared.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InsufficientPoints
from .geometry import PointCloud, invert, norms

MAX_DIRECTIONS = 10**4  # per set; the Hausdorff distance compares every pair
MIN_SHELL_POINTS = 8  # a rank shell takes at least this many points when the cloud has them
_BLOCK_PAIRS = 2**16  # squared chords held per block of the Hausdorff pass


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
    10^4 directions.

    One pass over blocks of rows of ``a`` computes each squared chord once
    and serves both directions: the row minima are the nearest squared
    chords a -> b, the column minima, folded across blocks, those b -> a.
    Squares are summed coordinate by coordinate in index order, the rule
    of the distortion kernel too, so every squared chord has the bits of
    the plain sequential sum for any q, blocking or memory layout, and
    h(a, b) == h(b, a) bit for bit.  The square root and arcsine run only
    on the len(a) + len(b) minima; sqrt is monotone and correctly rounded,
    so sqrt(min d^2) == min sqrt(d^2).
    The pass needs numpy alone: a kd-tree would import scipy, and that
    import costs a command several times what this pass takes on two sets
    of 5000.
    """
    if len(a) == 0 or len(b) == 0:
        raise InsufficientPoints("cannot compare empty direction sets")
    if a.dim != b.dim:
        raise DomainError("direction sets must share a dimension")
    if len(a) > MAX_DIRECTIONS or len(b) > MAX_DIRECTIONS:
        raise DomainError(f"direction sets are capped at {MAX_DIRECTIONS} members")
    # coordinate-major copies: each coordinate of a block is one contiguous slice
    u = np.ascontiguousarray(a.directions.T)
    v = np.ascontiguousarray(b.directions.T)
    n, m = len(a), len(b)
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
        np.subtract(u[0, start:stop, None], v[0], out=d2)
        np.multiply(d2, d2, out=d2)
        for k in range(1, a.dim):
            np.subtract(u[k, start:stop, None], v[k], out=sq)
            np.multiply(sq, sq, out=sq)
            np.add(d2, sq, out=d2)
        d2.min(axis=1, out=row[start:stop])
        np.minimum(col, d2.min(axis=0), out=col)
    chords = np.minimum(np.sqrt(np.concatenate((row, col))), 2.0)
    return float(np.max(2.0 * np.arcsin(chords / 2.0)))


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
