"""Sampled and analytic maps.

A SampledMap represents a homeomorphism by index-paired domain/codomain
clouds with origin and unboundedness bookkeeping.  Operations conjugate
a map by inversion, compactify it onto spheres, or restrict it to a
radial shell.  AnalyticMap wraps a closed-form map with an independently
known bi-Lipschitz constant, and the registry collects the oracle family
used throughout the verification suites.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable

import numpy as np

from .errors import DomainError, EmptyRestriction, HypothesisError
from .geometry import (
    SPHERE_TOLERANCE,
    PointCloud,
    invert,
    north_pole,
    norms,
    stereo_embed,
)

ORIGIN_GUARD = 1e-9  # radius below which a sample counts as "at the origin"


class Ambient(enum.Enum):
    AFFINE = "Affine"
    SPHERE = "Sphere"


@dataclasses.dataclass(frozen=True)
class SampledMap:
    """A homeomorphism represented by positionally paired samples.

    Row i of ``domain`` maps to row i of ``codomain``.  The samples
    decide the two origin flags: ``fixes_origin`` holds when exactly one
    domain row sits at radius 0 and maps to 0, ``avoids_origin`` when
    every domain and codomain radius is at least ``ORIGIN_GUARD``; on
    the sphere both are false.  A value passed for either flag is a
    statement (a sidecar's, say) that must agree with the samples.
    ``unbounded_domain`` is a declaration about the underlying set that
    no sample can show.
    """

    domain: PointCloud
    codomain: PointCloud
    fixes_origin: bool | None = None
    avoids_origin: bool | None = None
    unbounded_domain: bool = False
    ambient: Ambient = Ambient.AFFINE

    def __post_init__(self) -> None:
        if len(self.domain) != len(self.codomain):
            raise DomainError("domain and codomain must pair by index")
        if len(self.domain) < 2:
            raise DomainError("a sampled map needs at least two pairs")
        dom_radii = self.domain.radii()
        cod_radii = self.codomain.radii()
        if self.ambient is Ambient.SPHERE:
            for radii in (dom_radii, cod_radii):
                if np.max(np.abs(radii - 1.0)) > SPHERE_TOLERANCE:
                    raise DomainError("sphere-ambient samples must lie on the unit sphere")
            derived = {"fixes_origin": False, "avoids_origin": False}
        else:
            zero = np.flatnonzero(dom_radii == 0.0)
            derived = {
                "fixes_origin": len(zero) == 1 and bool(cod_radii[zero[0]] == 0.0),
                "avoids_origin": bool(min(dom_radii.min(), cod_radii.min()) >= ORIGIN_GUARD),
            }
        for name, value in derived.items():
            stated = getattr(self, name)
            if stated is not None and stated != value:
                raise HypothesisError(f"{name!r} says {stated}, but the samples say {value}")
            object.__setattr__(self, name, value)

    @property
    def n_pairs(self) -> int:
        return len(self.domain)

    @property
    def dim_in(self) -> int:
        return self.domain.dim

    @property
    def dim_out(self) -> int:
        return self.codomain.dim


def invert_map(m: SampledMap) -> SampledMap:
    """Conjugate a sampled map by inversion on both sides.

    Every nonzero pair (x, y) becomes (invert(x), invert(y)).  An
    origin pair is dropped (inversion is undefined there); when the
    domain is declared unbounded a (0, 0) pair is appended, encoding the
    bi-Lipschitz extension at 0.  So the result is unbounded iff the
    input fixed the origin.

    Raises:
        HypothesisError: if the map neither fixes nor avoids the origin
            (the message names the first row under ``ORIGIN_GUARD``), or
            a nonzero sample maps to the origin.
    """
    if m.ambient is not Ambient.AFFINE:
        raise DomainError("inversion applies to affine-ambient maps")
    if not (m.fixes_origin or m.avoids_origin):
        dom_radii, cod_radii = m.domain.radii(), m.codomain.radii()
        row = int(np.argmax(np.minimum(dom_radii, cod_radii) < ORIGIN_GUARD))
        raise HypothesisError(
            f"row {row} has domain radius {dom_radii[row]:g} and codomain radius "
            f"{cod_radii[row]:g}: inversion needs one (0, 0) pair or every radius >= {ORIGIN_GUARD:g}"
        )
    keep = m.domain.radii() > 0.0  # drops the origin pair, the only row at radius 0
    dom = m.domain.points[keep]
    cod = m.codomain.points[keep]
    if np.any(norms(cod) == 0.0):
        raise HypothesisError("a nonzero sample maps to the origin; inversion undefined")
    new_dom = invert(dom)
    new_cod = invert(cod)
    if m.unbounded_domain:
        new_dom = np.vstack([new_dom, np.zeros(m.dim_in)])
        new_cod = np.vstack([new_cod, np.zeros(m.dim_out)])
    if len(new_dom) < 2:
        raise DomainError("fewer than two pairs survive inversion")
    label = f"inverted {m.domain.label}".strip()
    return SampledMap(
        domain=PointCloud(new_dom, label),
        codomain=PointCloud(new_cod, label),
        unbounded_domain=m.fixes_origin,
        ambient=Ambient.AFFINE,
    )


def compactify_map(m: SampledMap) -> SampledMap:
    """Push a sampled map onto spheres via the stereographic embedding.

    Each pair (x, y) becomes (stereo_embed(x), stereo_embed(y)); when
    the domain is declared unbounded the pole pair (N, N) is appended,
    extending the map over the point at infinity.  The result keeps
    ``unbounded_domain`` as a record of whether the pole pair is there.
    """
    if m.ambient is not Ambient.AFFINE:
        raise DomainError("only affine-ambient maps can be compactified")
    new_dom = stereo_embed(m.domain.points)
    new_cod = stereo_embed(m.codomain.points)
    if m.unbounded_domain:
        new_dom = np.vstack([new_dom, north_pole(m.dim_in)])
        new_cod = np.vstack([new_cod, north_pole(m.dim_out)])
    label = f"compactified {m.domain.label}".strip()
    return SampledMap(
        domain=PointCloud(new_dom, label),
        codomain=PointCloud(new_cod, label),
        unbounded_domain=m.unbounded_domain,
        ambient=Ambient.SPHERE,
    )


def restrict_map(m: SampledMap, r_min: float, r_max: float) -> SampledMap:
    """Keep the pairs whose domain radius lies in [r_min, r_max).

    The half-open convention makes adjacent shells partition a map;
    r_max = inf closes the upper end.  The surviving samples decide the
    origin flags; ``unbounded_domain`` survives only an unbounded
    restriction.

    Raises:
        EmptyRestriction: if fewer than two pairs survive.
    """
    if m.ambient is not Ambient.AFFINE:
        raise DomainError("shell restriction applies to affine-ambient maps")
    if not 0.0 <= r_min < r_max:
        raise DomainError("need 0 <= r_min < r_max")
    radii = m.domain.radii()
    keep = (radii >= r_min) & (radii < r_max)
    if int(keep.sum()) < 2:
        raise EmptyRestriction(f"shell [{r_min}, {r_max}) keeps {int(keep.sum())} pairs")
    label = m.domain.label
    return SampledMap(
        domain=PointCloud(m.domain.points[keep], label),
        codomain=PointCloud(m.codomain.points[keep], label),
        unbounded_domain=m.unbounded_domain and bool(np.isinf(r_max)),
        ambient=Ambient.AFFINE,
    )


@dataclasses.dataclass(frozen=True)
class AnalyticMap:
    """A closed-form map with independently known distortion data.

    ``func`` acts on a batch (n, dim_in) and returns (n, dim_out).
    ``bilip_constant`` is the true bi-Lipschitz constant on
    ``domain_radii`` when known, None otherwise (as for the deliberate
    non-example).  ``singular_dirs`` are unit directions attaining the
    extremal ratios of a non-conformal map, along which
    ``sample_analytic`` adds probe rows.  Whether the map fixes the
    origin is not stated: ``sample_analytic`` asks ``func``.
    """

    name: str
    dim_in: int
    dim_out: int
    func: Callable[[np.ndarray], np.ndarray]
    bilip_constant: float | None
    domain_radii: tuple[float, float] = (0.0, np.inf)
    singular_dirs: tuple = ()


@dataclasses.dataclass(frozen=True)
class SamplerConfig:
    """Deterministic sampling plan: log-uniform radii, uniform directions."""

    count: int
    r_min: float
    r_max: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.count < 2:
            raise DomainError("need at least two samples")
        if not 0.0 < self.r_min <= self.r_max or not np.isfinite(self.r_max):
            raise DomainError("need 0 < r_min <= r_max < inf")


def unit_directions(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """An (n, dim) stack of uniform random unit vectors, drawn from ``rng``.

    Raises:
        DomainError: if ``dim`` < 1, where no unit vector exists.
    """
    if dim < 1:
        raise DomainError(f"directions need dim >= 1, got {dim}")
    dirs = rng.normal(size=(n, dim))
    lengths = np.linalg.norm(dirs, axis=1)
    while np.any(lengths < 1e-12):
        bad = lengths < 1e-12
        dirs[bad] = rng.normal(size=(int(bad.sum()), dim))
        lengths = np.linalg.norm(dirs, axis=1)
    return dirs / lengths[:, None]


def sample_analytic(f: AnalyticMap, config: SamplerConfig) -> SampledMap:
    """Sample an analytic map into a SampledMap, deterministically.

    Radii are log-uniform on [r_min, r_max] intersected with the map's
    own radial domain; directions are uniform on the sphere.  The map,
    not the config, decides the rest: +/- rows along each singular
    direction (so non-conformal linear maps attain their extremal ratios
    exactly), the (0, 0) pair when the domain reaches radius 0 and
    ``func`` maps 0 to 0, and ``unbounded_domain`` when the domain has
    no outer radius.  The same seed and config reproduce the clouds bit
    for bit.
    """
    lo = max(config.r_min, f.domain_radii[0])
    hi = min(config.r_max, f.domain_radii[1])
    if lo <= 0.0 or not lo <= hi:
        raise DomainError(
            f"radius range [{config.r_min}, {config.r_max}] misses the domain of {f.name}"
        )
    rng = np.random.default_rng(config.seed)
    dirs = unit_directions(rng, config.count, f.dim_in)
    radii = np.exp(rng.uniform(np.log(lo), np.log(hi), size=config.count))
    dom = dirs * radii[:, None]
    if f.singular_dirs:
        probe_r = float(np.sqrt(lo * hi))
        probes = []
        for u in f.singular_dirs:
            probes.append(probe_r * np.asarray(u, dtype=np.float64))
            probes.append(-probe_r * np.asarray(u, dtype=np.float64))
        dom = np.vstack([dom, np.array(probes)])
    origin = np.zeros((1, f.dim_in))
    # an image that overflows is rejected below, by the name of the map
    with np.errstate(over="ignore", invalid="ignore"):
        if f.domain_radii[0] == 0.0 and not np.any(f.func(origin)):
            dom = np.vstack([dom, origin])
        cod = np.asarray(f.func(dom), dtype=np.float64)
    if cod.shape != (len(dom), f.dim_out) or not np.all(np.isfinite(cod)):
        raise DomainError(f"evaluator of {f.name} returned a malformed image")
    return SampledMap(
        domain=PointCloud(dom, f.name),
        codomain=PointCloud(cod, f"{f.name} image"),
        unbounded_domain=bool(np.isinf(f.domain_radii[1])),
        ambient=Ambient.AFFINE,
    )


def linear_analytic(name: str, matrix) -> AnalyticMap:
    """Wrap a square matrix; the constant comes from an SVD oracle.

    The bi-Lipschitz constant of x -> Mx is max(s_max, 1/s_min).  When
    s_max > s_min, the top and bottom right-singular directions are kept
    as attainment probes; a conformal map attains its constant at every
    pair, so it gets none.

    Raises:
        DomainError: if the matrix is not square, has a non-finite entry
            or is singular.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("linear registry maps must be square")
    if not np.all(np.isfinite(m)):
        raise DomainError(f"matrix of {name} has non-finite entries")
    _, s, vt = np.linalg.svd(m)
    if s[-1] <= 0.0:
        raise DomainError("singular matrix is not bi-Lipschitz")
    return AnalyticMap(
        name=name,
        dim_in=m.shape[1],
        dim_out=m.shape[0],
        func=lambda pts, _m=m: pts @ _m.T,
        bilip_constant=float(max(s[0], 1.0 / s[-1])),
        singular_dirs=(vt[0].copy(), vt[-1].copy()) if s[0] > s[-1] else (),
    )


def scaling_analytic(factor: float, dim: int = 2) -> AnalyticMap:
    """The linear map x -> factor * x of R^dim, from outside options.

    Raises:
        DomainError: unless 0 < factor < inf and dim >= 1.
    """
    if not factor > 0.0:
        raise DomainError("scaling factor must be positive")
    if dim < 1:
        raise DomainError(f"directions need dim >= 1, got {dim}")
    if not np.isfinite(factor):
        raise DomainError(f"scaling factor must be finite, got {factor}")
    return linear_analytic(f"scale-{factor:g}", factor * np.eye(dim))


def radial_power_analytic(exponent: float, r_lo: float, r_hi: float) -> AnalyticMap:
    """x -> |x|^(t-1) x on the planar shell r_lo <= |x| <= r_hi, t >= 1.

    Write a pair as (a u, b v) with unit u, v.  The squared chord ratio
    is a mediant of the squared radial difference quotient
    ((a^t - b^t)/(a - b))^2, which lies in [t^2 r_lo^(2t-2), t^2 r_hi^(2t-2)],
    and of (ab)^(t-1), which lies in [r_lo^(2t-2), r_hi^(2t-2)].  So the
    constant is max(t r_hi^(t-1), r_lo^(1-t)): the expansion is approached
    radially at the outer edge, and the contraction r_lo^(t-1) is the
    ratio of every same-radius pair at the inner edge.  When r_lo = 0 <
    t - 1 the contraction is unbounded and the constant is None.
    """
    if exponent < 1.0:
        raise DomainError("shell constant formula assumes exponent >= 1")
    if not 0.0 <= r_lo <= r_hi:
        raise DomainError("need 0 <= r_lo <= r_hi")

    def func(pts: np.ndarray, _t=exponent) -> np.ndarray:
        r = norms(pts)
        return np.power(r, _t - 1.0)[:, None] * pts

    constant = None
    if r_lo > 0.0 or exponent == 1.0:
        constant = float(max(exponent * r_hi ** (exponent - 1.0), r_lo ** (1.0 - exponent)))
    return AnalyticMap(
        name=f"radial-shell-{exponent:g}",
        dim_in=2,
        dim_out=2,
        func=func,
        bilip_constant=constant,
        domain_radii=(r_lo, r_hi),
    )


def registry() -> dict[str, AnalyticMap]:
    """The oracle family: maps with independently known constants.

    Two constructors build every member.  ``linear_analytic`` gives the
    identity, the scalings by 1/2, 2 and 10, a diagonal linear map and
    the unit shear, with constants from its SVD oracle.
    ``radial_power_analytic`` gives two radial shell maps and the
    flagged non-example ``radial-square``: t = 2 on [0, 1], which is not
    bi-Lipschitz near 0 and so has no constant.
    """
    members = [
        linear_analytic("identity", np.eye(2)),
        *(linear_analytic(f"scale-{c:g}", c * np.eye(2)) for c in (0.5, 2.0, 10.0)),
        linear_analytic("diag-1-3", [[1.0, 0.0], [0.0, 3.0]]),
        linear_analytic("shear", [[1.0, 0.0], [0.5, 1.0]]),
        radial_power_analytic(1.0, 1.0, 2.0),
        radial_power_analytic(1.25, 1.0, 2.0),
        dataclasses.replace(radial_power_analytic(2.0, 0.0, 1.0), name="radial-square"),
    ]
    return {f.name: f for f in members}
