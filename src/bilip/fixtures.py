"""Deterministic fixture generators shared by the CLI and the suites.

Every generator is a pure function of its arguments: the same seed and
counts reproduce the same cloud bit for bit.  The shifted line always
contains its largest parameter exactly, because the direction check at
the far end of that cloud is sensitive to whether the endpoint is hit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .geometry import PointCloud
from .maps import SampledMap, SamplerConfig, registry, sample_analytic

CLOUD_KINDS = ("ray", "shifted-line", "spiral")


def ray(dim: int = 2, count: int = 100, seed: int = 0,
        r_min: float = 1e-2, r_max: float = 1e2) -> PointCloud:
    """Log-spaced samples along one random direction through the origin."""
    if count < 2 or dim < 1 or not 0.0 < r_min < r_max:
        raise DomainError("ray needs count >= 2, dim >= 1, 0 < r_min < r_max")
    rng = np.random.default_rng(seed)
    u = rng.normal(size=dim)
    u = u / np.linalg.norm(u)
    radii = np.logspace(math.log10(r_min), math.log10(r_max), count)
    return PointCloud(radii[:, None] * u[None, :], "ray")


def shifted_line(count: int = 200, t_min: float = 1.0, t_max: float = 1000.0) -> PointCloud:
    """The horizontal line {(t, 1)}, log-sampled, with t_max exact."""
    if count < 2 or not 0.0 < t_min < t_max:
        raise DomainError("shifted line needs count >= 2 and 0 < t_min < t_max")
    t = np.logspace(math.log10(t_min), math.log10(t_max), count)
    t[-1] = t_max
    return PointCloud(np.column_stack([t, np.ones(count)]), "shifted-line")


def spiral(count: int = 150, r_min: float = 10.0 ** -1.5, r_max: float = 10.0 ** 1.5) -> PointCloud:
    """A logarithmic spiral: radius sweeps the range while the angle makes three turns."""
    if count < 2 or not 0.0 < r_min < r_max:
        raise DomainError("spiral needs count >= 2 and 0 < r_min < r_max")
    theta = np.linspace(0.0, 6.0 * np.pi, count)
    r = np.logspace(math.log10(r_min), math.log10(r_max), count)
    return PointCloud(np.column_stack([r * np.cos(theta), r * np.sin(theta)]), "spiral")


def cloud(kind: str, dim: int, count: int, seed: int, r_min: float, r_max: float) -> PointCloud:
    """One of ``CLOUD_KINDS``; the shifted line takes [r_min, r_max] as its t range."""
    if kind == "ray":
        return ray(dim=dim, count=count, seed=seed, r_min=r_min, r_max=r_max)
    if kind == "shifted-line":
        return shifted_line(count=count, t_min=r_min, t_max=r_max)
    if kind == "spiral":
        return spiral(count=count, r_min=r_min, r_max=r_max)
    raise DomainError(f"unknown cloud kind {kind!r}; expected one of {CLOUD_KINDS}")


def map_samples(name: str, count: int = 200, seed: int = 0,
                r_min: float = 1e-2, r_max: float = 1e2) -> SampledMap:
    """Sample a registry map; its domain decides the origin pair and unboundedness.

    Full-space members are declared unbounded and keep their origin
    pair; shell members come out avoiding the origin.
    """
    family = registry()
    if name not in family:
        raise DomainError(f"unknown registry map {name!r}; try one of {sorted(family)}")
    return sample_analytic(family[name], SamplerConfig(count, r_min, r_max, seed))
