"""Pointwise transforms and the identities that tie them together.

Euclidean inversion x -> x/|x|^2, the inverse stereographic embedding of
R^q into the unit sphere of R^(q+1), the half-ball chart at the north
pole, and residual checks for the exact distance identities these maps
satisfy.  Each takes a stack ``(n, q)`` of points, the pair checks two
equally shaped stacks paired by row, and returns one value (or one
point) per row.  Any other shape is a ``DomainError`` that names it.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DomainError, OriginError, PoleError

ORIGIN_EPSILON = 1e-300  # reject only genuine underflow, not small radii
POLE_EPSILON = 1e-12  # gap 1 - p_last below which projection is refused
SPHERE_TOLERANCE = 1e-9  # how far off the unit sphere a point may sit
RESIDUAL_FLOOR = 1e-30  # denominator floor for relative residuals
CHART_RADIUS = 0.5  # the half-ball chart is defined on |y| <= 1/2
CHART_BOUNDARY_SLACK = 1e-12  # rounding allowance at the chart boundary

_LARGE_RADIUS = 1e150  # beyond this, |x|^2 risks overflow; switch forms


def _as_batch(x) -> np.ndarray:
    """The points as a float64 stack shaped (n, q)."""
    # C order: numpy's summation order follows memory layout, so a batch
    # matches its rows bit for bit only if every input is laid out alike
    p = np.asarray(x, dtype=np.float64, order="C")
    if p.ndim != 2 or p.shape[1] == 0:
        raise DomainError(f"expected an (n, q) stack of coordinates, got shape {p.shape}")
    _reject_rows(~np.isfinite(p), DomainError, "non-finite coordinates")
    return p


def _as_pairs(x1, x2) -> tuple[np.ndarray, np.ndarray]:
    """Two equally shaped point stacks whose rows pair up."""
    a, b = _as_batch(x1), _as_batch(x2)
    if a.shape != b.shape:
        raise DomainError(f"paired points must share a shape, got {a.shape} and {b.shape}")
    return a, b


def _reject_rows(bad: np.ndarray, error: type[Exception], message: str) -> None:
    """Raise ``error`` if ``bad`` flags anything, naming the first flagged row (axis 0)."""
    if np.any(bad):
        raise error(f"{message} (row {np.unravel_index(np.argmax(bad), bad.shape)[0]})")


def dot_rows(x1, x2) -> np.ndarray:
    """Row-wise dot products of two paired stacks, each the 1-D ``a[k] @ b[k]`` bit for bit."""
    a, b = _as_pairs(x1, x2)
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _max_abs(p: np.ndarray) -> np.ndarray:
    """Largest |coordinate| of each row of a stack."""
    # one column at a time: with numpy 2.4, a reduction along the short row
    # axis took 20x as long for 1e5 rows at q = 2; a maximum is exact in any order
    a = np.abs(p)
    m = a[:, 0].copy()
    for k in range(1, p.shape[1]):
        np.maximum(m, a[:, k], out=m)
    return m


def sum_squares(diffs: Iterable[np.ndarray]) -> np.ndarray:
    """The sum of the squares of ``diffs``, added in index order; each array is squared in place.

    The rule of every pair distance and chord: each entry has the bits of
    the plain sequential sum of squares for any q, blocking or layout.
    """
    diffs = iter(diffs)
    total = next(diffs)
    np.multiply(total, total, out=total)
    for d in diffs:
        total += np.multiply(d, d, out=d)
    return total


def norms(x) -> np.ndarray:
    """Euclidean norms of the rows, safe against overflow and underflow of |x|^2."""
    p = _as_batch(x)
    m = _max_abs(p)
    # a zero row divides by 1 and keeps norm 0
    scaled = p / np.where(m > 0.0, m, 1.0)[:, None]
    return m * np.sqrt(np.einsum("ij,ij->i", scaled, scaled))


def invert(x) -> np.ndarray:
    """Euclidean inversion x -> x / |x|^2.

    Computed as (x/|x|)/|x| so radii down to 1e-300 and up to 1e300
    survive without overflowing the intermediate square.

    Raises:
        OriginError: if any input radius is below 1e-300.
    """
    p = _as_batch(x)
    _reject_rows(_max_abs(p) < ORIGIN_EPSILON, OriginError, "inversion is undefined at the origin")
    r = norms(p)
    return (p / r[:, None]) / r[:, None]


def stereo_embed(x) -> np.ndarray:
    """Inverse stereographic embedding of R^q into S^q minus the pole.

    Maps x to (2x/(1+|x|^2), (|x|^2-1)/(|x|^2+1)).  Defined for every
    finite x; the image approaches the north pole as |x| grows.
    """
    p = _as_batch(x)
    n, q = p.shape
    out = np.empty((n, q + 1))
    r = norms(p)
    big = r > _LARGE_RADIUS
    if np.any(~big):
        r2 = r[~big] ** 2
        out[~big, :q] = 2.0 * p[~big] / (1.0 + r2)[:, None]
        out[~big, q] = (r2 - 1.0) / (r2 + 1.0)
    if np.any(big):
        # for huge radii work with t = 1/|x| to dodge |x|^2 overflow
        u = p[big] / r[big, None]
        t = 1.0 / r[big]
        t2 = t * t
        out[big, :q] = u * (2.0 * t / (1.0 + t2))[:, None]
        out[big, q] = (1.0 - t2) / (1.0 + t2)
    return out


def stereo_project(p) -> np.ndarray:
    """Stereographic projection from S^q minus the pole back to R^q.

    The denominator 1 - p_last is rewritten as |p'|^2 / (1 + p_last) on
    the northern half (p_last > 1/2), where the direct subtraction would
    surrender most of its precision; for a point on the sphere the two
    forms agree exactly.

    Raises:
        DomainError: if the input is off the unit sphere by more than 1e-9.
        PoleError: if 1 - p_last <= 1e-12 (the pole has no preimage).
    """
    pts = _as_batch(p)
    if pts.shape[1] < 2:
        raise DomainError("sphere points need at least two coordinates")
    _reject_rows(np.abs(norms(pts) - 1.0) > SPHERE_TOLERANCE, DomainError, "point is not on the unit sphere")
    first = pts[:, :-1]
    t = pts[:, -1]
    gap = 1.0 - t
    north = t > 0.5
    if np.any(north):
        fn = first[north]
        gap[north] = np.einsum("ij,ij->i", fn, fn) / (1.0 + t[north])
    _reject_rows(gap <= POLE_EPSILON, PoleError, "projection is undefined at the north pole")
    return first / gap[:, None]


def north_pole(q: int) -> np.ndarray:
    """The north pole (0, ..., 0, 1) of S^q as a point of R^(q+1)."""
    p = np.zeros(q + 1)
    p[q] = 1.0
    return p


def _chart_domain(y) -> tuple[np.ndarray, np.ndarray]:
    pts = _as_batch(y)
    r = norms(pts)
    _reject_rows(r > CHART_RADIUS + CHART_BOUNDARY_SLACK, DomainError, "half-ball chart is defined only for |y| <= 1/2")
    return pts, r


def pole_chart(y) -> np.ndarray:
    """Half-ball chart at the north pole, verbatim printed form.

    Maps y in the closed half-ball |y| <= 1/2 to
    (y/(1+|y|^2), (1-|y|)/(1+|y|^2)).  The image is not on the unit
    sphere away from y = 0.  See ``pole_chart_exact`` for the variant
    that lands on the sphere identically and satisfies the gluing
    identity with ``stereo_embed``.
    """
    pts, r = _chart_domain(y)
    n, q = pts.shape
    denom = 1.0 + r * r
    out = np.empty((n, q + 1))
    out[:, :q] = pts / denom[:, None]
    out[:, q] = (1.0 - r) / denom
    return out


def pole_chart_exact(y) -> np.ndarray:
    """Half-ball chart at the north pole, sphere-exact form.

    Maps y in the closed half-ball |y| <= 1/2 to
    (2y/(1+|y|^2), (1-|y|^2)/(1+|y|^2)): ``stereo_embed(y)`` with its
    last coordinate negated, that is, the embedding seen from the south
    pole.  The image lies on the unit sphere, sends 0 to the pole and
    the boundary |y| = 1/2 to the latitude 3/5, and satisfies
    chart(invert(x)) = stereo_embed(x) for every |x| >= 2.
    """
    out = stereo_embed(_chart_domain(y)[0])
    out[:, -1] = -out[:, -1]
    return out


def inversion_derivative_norm(x) -> np.ndarray:
    """Finite-difference operator norm of the derivative of inversion at each row.

    Central differences with step 1e-6 * |x| along an orthonormal frame
    whose first vector is radial; the largest singular value of the
    assembled Jacobian estimates |D invert(x)| = 1/|x|^2.
    """
    p = _as_batch(x)
    n, q = p.shape
    r = norms(p)
    _reject_rows(r < ORIGIN_EPSILON, OriginError, "derivative of inversion is undefined at the origin")
    step = 1e-6 * r
    # a Householder frame is symmetric, so its row i is its column i
    offset = step[:, None, None] * _radial_frames(p / r[:, None])
    ahead = invert((p[:, None, :] + offset).reshape(-1, q)).reshape(n, q, q)
    behind = invert((p[:, None, :] - offset).reshape(-1, q)).reshape(n, q, q)
    jac = np.swapaxes((ahead - behind) / (2.0 * step)[:, None, None], 1, 2)
    return np.linalg.svd(jac, compute_uv=False)[:, 0]


def _radial_frames(u: np.ndarray) -> np.ndarray:
    """Orthonormal frames, shape (n, q, q), whose first columns are the rows of u.

    Householder reflection sending e1 to each unit row; near u = e1 the
    identity frame is used, which is still orthonormal and radial-first.
    """
    q = u.shape[1]
    w = u - np.eye(q)[0]
    wn2 = dot_rows(w, w)
    flat = wn2 < 1e-30
    outer = 2.0 * (w[:, :, None] * w[:, None, :])
    frames = np.eye(q) - outer / np.where(flat, 1.0, wn2)[:, None, None]
    frames[flat] = np.eye(q)
    return frames


class SeparationBounds(NamedTuple):
    """Two-sided bound on |x_far - x| from the radii alone, one entry per row."""

    lower: np.ndarray
    upper: np.ndarray
    distance: np.ndarray
    holds: np.ndarray


def separation_bounds(x, x_far) -> SeparationBounds:
    """Sandwich |x_far - x| between radius-ratio multiples of |x_far|.

    With C = |x_far|/|x| - 1 > 0, the distance satisfies
    C/(1+C) * |x_far| <= |x_far - x| <= (2+C)/(1+C) * |x_far|,
    attained by same-direction and opposite-direction collinear pairs.
    ``holds`` allows 1e-12 relative slack so an attained bound is not
    flipped by the final rounding.

    Raises:
        OriginError: if |x| = 0 (no valid C).
        DomainError: if |x_far| <= |x|.
    """
    a, b = _as_pairs(x, x_far)
    ra, rb = norms(a), norms(b)
    _reject_rows(ra < ORIGIN_EPSILON, OriginError, "reference point must be nonzero")
    _reject_rows(rb <= ra, DomainError, "|x_far| must exceed |x|")
    c = rb / ra - 1.0
    lower = c / (1.0 + c) * rb
    upper = (2.0 + c) / (1.0 + c) * rb
    dist = norms(b - a)
    slack = 1e-12 * upper
    holds = ((lower - slack) <= dist) & (dist <= (upper + slack))
    return SeparationBounds(lower, upper, dist, holds)


def inverted_distance_residual(x1, x2) -> np.ndarray:
    """Relative residual of |i(x1)-i(x2)| = |i(x1)| |i(x2)| |x1-x2|.

    Both sides are computed independently: the left from the inverted
    points, the right from their norms and the original distance,
    multiplied smaller radius first so it stays finite at any radius.
    """
    a, b = _as_pairs(x1, x2)
    ya, yb = invert(a), invert(b)
    big = norms(ya - yb)
    r1, r2 = norms(ya), norms(yb)
    rhs = (norms(a - b) * np.minimum(r1, r2)) * np.maximum(r1, r2)
    return np.abs(big - rhs) / np.maximum(big, RESIDUAL_FLOOR)


def law_of_cosines_residual(x1, x2) -> np.ndarray:
    """Relative residual of the squared-distance law at the origin.

    With r1 >= r2 the radii, 2*theta in [0, pi] the angle between the
    points (clamped arccos of the normalized dot product), the law reads
    |x1-x2|^2 = (r1-r2)^2 cos^2(theta) + (r1+r2)^2 sin^2(theta).
    Left side from coordinates, right side from radii and angle, both
    divided by r1^2 so that they stay finite at any radius.
    """
    a, b = _as_pairs(x1, x2)
    ra, rb = norms(a), norms(b)
    _reject_rows(np.minimum(ra, rb) < ORIGIN_EPSILON, OriginError,
                 "angle at the origin is undefined for a zero radius")
    r1 = np.maximum(ra, rb)
    cos_full = np.clip(dot_rows(a / ra[:, None], b / rb[:, None]), -1.0, 1.0)
    theta = np.arccos(cos_full) / 2.0
    rhs = (np.abs(ra - rb) / r1) ** 2 * np.cos(theta) ** 2 + ((ra + rb) / r1) ** 2 * np.sin(theta) ** 2
    e2 = (norms(a - b) / r1) ** 2
    return np.abs(e2 - rhs) / np.maximum(e2, RESIDUAL_FLOOR)


@dataclasses.dataclass(frozen=True)
class PointCloud:
    """A finite stack of points sharing one ambient dimension.

    ``points`` is an (n, dim) float64 array; rows are points.  Clouds
    never drop or reorder points, so index-paired structures stay aligned.
    """

    points: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
            raise DomainError(f"cloud needs an (n, q) array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise DomainError("cloud has non-finite coordinates")
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    def __len__(self) -> int:
        return int(self.points.shape[0])

    def radii(self) -> np.ndarray:
        return norms(self.points)
