"""Direction sets, links, and the exchange under inversion.

Angular oracles here are frozen by hand: perpendicular unit vectors sit
a quarter turn apart, a rotated ray recovers the rotation angle, and
matched rank shells make the inversion exchange exact to roundoff.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilip.cones import (
    ConeKind,
    DirectionSet,
    ShellConfig,
    angular_hausdorff,
    asymptotic_directions,
    link,
    verify_cone_exchange,
)
from bilip.errors import DomainError, InsufficientPoints
from bilip.geometry import PointCloud, invert

HALF_PI = math.pi / 2.0


def unit_rows(rng: np.random.Generator, n: int, q: int) -> np.ndarray:
    v = rng.normal(size=(n, q))
    return v / np.linalg.norm(v, axis=1)[:, None]


def direction_set(rows, kind=ConeKind.AT_INFINITY) -> DirectionSet:
    d = np.asarray(rows, dtype=np.float64)
    return DirectionSet(d, np.ones(len(d)), kind)


def shifted_line(count: int = 200, t_max: float = 1000.0) -> PointCloud:
    t = np.logspace(0.0, math.log10(t_max), count)
    t[-1] = t_max
    return PointCloud(np.column_stack([t, np.ones_like(t)]), "shifted-line")


def log_spiral(count: int = 150) -> PointCloud:
    theta = np.linspace(0.0, 6.0 * np.pi, count)
    r = np.logspace(-1.5, 1.5, count)
    return PointCloud(np.column_stack([r * np.cos(theta), r * np.sin(theta)]), "spiral")


def ray_cloud(u: np.ndarray, count: int = 120) -> PointCloud:
    r = np.logspace(-2.0, 2.0, count)
    return PointCloud(r[:, None] * u[None, :], "ray")


class TestAngularHausdorff:
    def test_perpendicular_singletons(self):
        a = direction_set([[1.0, 0.0]])
        b = direction_set([[0.0, 1.0]])
        assert abs(angular_hausdorff(a, b) - HALF_PI) < 1e-12

    def test_asymmetric_containment_still_half_turn(self):
        # {e1} sits inside {e1, e2}, so one directed distance is zero;
        # the symmetric value is still driven by the unmatched e2.
        a = direction_set([[1.0, 0.0]])
        both = direction_set([[1.0, 0.0], [0.0, 1.0]])
        assert abs(angular_hausdorff(a, both) - HALF_PI) < 1e-12

    def test_identical_sets_measure_zero(self):
        rng = np.random.default_rng(3)
        a = direction_set(unit_rows(rng, 17, 4))
        assert angular_hausdorff(a, a) == 0.0

    def test_opposite_directions_half_circle(self):
        a = direction_set([[1.0, 0.0, 0.0]])
        b = direction_set([[-1.0, 0.0, 0.0]])
        assert abs(angular_hausdorff(a, b) - math.pi) < 1e-12

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(11)
        a = direction_set(unit_rows(rng, 9, 3))
        b = direction_set(unit_rows(rng, 14, 3))
        assert angular_hausdorff(a, b) == angular_hausdorff(b, a)

    def test_dimension_mismatch_rejected(self):
        a = direction_set([[1.0, 0.0]])
        b = direction_set([[1.0, 0.0, 0.0]])
        with pytest.raises(DomainError):
            angular_hausdorff(a, b)

    def test_oversized_set_rejected(self):
        rows = np.tile(np.array([[1.0, 0.0]]), (10_001, 1))
        big = DirectionSet(rows, np.ones(len(rows)), ConeKind.AT_ORIGIN)
        with pytest.raises(DomainError):
            angular_hausdorff(big, direction_set([[1.0, 0.0]]))

    def test_empty_set_rejected(self):
        empty = DirectionSet(np.zeros((0, 2)), np.zeros(0), ConeKind.AT_ORIGIN)
        with pytest.raises(InsufficientPoints):
            angular_hausdorff(empty, direction_set([[1.0, 0.0]]))

    def test_non_unit_rows_rejected(self):
        with pytest.raises(DomainError):
            DirectionSet(np.array([[2.0, 0.0]]), np.ones(1), ConeKind.AT_ORIGIN)


class TestDirectionSelection:
    def test_axis_ray_directions_are_exact(self):
        cloud = ray_cloud(np.array([1.0, 0.0]), count=30)
        ds = asymptotic_directions(cloud, ConeKind.AT_ORIGIN)
        assert np.all(ds.directions == np.array([1.0, 0.0]))

    def test_generic_ray_directions_match_axis(self):
        rng = np.random.default_rng(7)
        u = unit_rows(rng, 1, 3)[0]
        ds = asymptotic_directions(ray_cloud(u), ConeKind.AT_INFINITY)
        target = DirectionSet(u[None, :], np.ones(1), ConeKind.AT_INFINITY)
        assert angular_hausdorff(ds, target) < 1e-12

    def test_origin_sample_is_skipped(self):
        pts = np.vstack([np.zeros((1, 2)), ray_cloud(np.array([0.0, 1.0]), count=20).points])
        ds = asymptotic_directions(PointCloud(pts, "with-origin"), ConeKind.AT_ORIGIN)
        assert np.all(ds.source_radii > 0.0)

    def test_single_usable_point_rejected(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(InsufficientPoints):
            asymptotic_directions(PointCloud(pts, "thin"), ConeKind.AT_ORIGIN)

    def test_shell_covers_small_clouds(self):
        pts = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        ds = asymptotic_directions(PointCloud(pts, "three"), ConeKind.AT_INFINITY)
        assert len(ds) == 3

    def test_shells_pick_opposite_ends(self):
        cloud = log_spiral()
        inner = asymptotic_directions(cloud, ConeKind.AT_ORIGIN)
        outer = asymptotic_directions(cloud, ConeKind.AT_INFINITY)
        assert inner.source_radii.max() < outer.source_radii.min()

    def test_power_of_two_scaling_is_bitwise_invariant(self):
        cloud = log_spiral()
        scaled = PointCloud(4.0 * cloud.points, "scaled")
        a = asymptotic_directions(cloud, ConeKind.AT_INFINITY)
        b = asymptotic_directions(scaled, ConeKind.AT_INFINITY)
        assert np.array_equal(a.directions, b.directions)

    def test_fraction_validation(self):
        with pytest.raises(DomainError):
            ShellConfig(fraction=0.0)
        with pytest.raises(DomainError):
            ShellConfig(fraction=1.5)
        with pytest.raises(DomainError):
            ShellConfig(min_points=1)

    def test_shifted_line_outermost_direction(self):
        # The outermost sample of {(t, 1)} at t = 1000 points within
        # atan(1/1000) = 9.99999667e-4 radians of the horizontal axis.
        ds = asymptotic_directions(shifted_line(), ConeKind.AT_INFINITY)
        outer = ds.directions[np.argmax(ds.source_radii)]
        angle = 2.0 * math.asin(np.linalg.norm(outer - np.array([1.0, 0.0])) / 2.0)
        assert 9.9e-4 < angle < 1e-3


@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 100.0))
@settings(max_examples=50, deadline=None)
def test_scaling_leaves_directions_fixed(seed, scale):
    rng = np.random.default_rng(seed)
    pts = unit_rows(rng, 40, 3) * np.exp(rng.uniform(-3, 3, size=40))[:, None]
    cloud = PointCloud(pts, "cloud")
    scaled = PointCloud(scale * pts, "scaled")
    a = asymptotic_directions(cloud, ConeKind.AT_ORIGIN)
    b = asymptotic_directions(scaled, ConeKind.AT_ORIGIN)
    assert len(a) == len(b)
    assert angular_hausdorff(a, b) < 1e-12


class TestLink:
    def test_band_zero_keeps_exact_radius(self):
        rng = np.random.default_rng(5)
        cloud = PointCloud(unit_rows(rng, 50, 3), "sphere")
        sl = link(cloud, 1.0, 0.0)
        assert len(sl.indices) == 50

    def test_middle_shell_only(self):
        pts = np.array([[0.5, 0.0], [0.0, 1.0], [2.0, 0.0]])
        sl = link(PointCloud(pts, "three"), 1.0, 0.1)
        assert np.array_equal(sl.indices, np.array([1]))

    def test_origin_never_in_log_band(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        sl = link(PointCloud(pts, "pair"), 1.0, 0.5)
        assert np.array_equal(sl.indices, np.array([1]))

    def test_empty_band_raises(self):
        cloud = PointCloud(np.array([[1.0, 0.0], [2.0, 0.0]]), "pair")
        with pytest.raises(InsufficientPoints):
            link(cloud, 100.0, 0.01)

    def test_parameter_validation(self):
        cloud = PointCloud(np.array([[1.0, 0.0], [2.0, 0.0]]), "pair")
        with pytest.raises(DomainError):
            link(cloud, 0.0, 0.1)
        with pytest.raises(DomainError):
            link(cloud, 1.0, 1.0)

    def test_inversion_exchanges_log_bands(self):
        # |log r - log R| <= b is carried to |log r' - log(1/R)| <= b,
        # so the slice indices agree after inverting the cloud.
        cloud = log_spiral()
        direct = link(cloud, 2.0, 0.4)
        mirrored = link(PointCloud(invert(cloud.points), "inv"), 0.5, 0.4)
        assert np.array_equal(direct.indices, mirrored.indices)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_link_band_exchange_property(seed):
    rng = np.random.default_rng(seed)
    radii = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=60))
    # keep draws away from the band edge so a one-ulp disagreement in
    # log radius cannot flip membership between the two slices
    radii = radii[np.abs(np.abs(np.log(radii) - math.log(2.0)) - 0.4) > 1e-6]
    if len(radii) == 0:
        return
    pts = unit_rows(rng, len(radii), 2) * radii[:, None]
    cloud = PointCloud(pts, "cloud")
    try:
        direct = link(cloud, 2.0, 0.4)
    except InsufficientPoints:
        with pytest.raises(InsufficientPoints):
            link(PointCloud(invert(pts), "inv"), 0.5, 0.4)
        return
    mirrored = link(PointCloud(invert(pts), "inv"), 0.5, 0.4)
    assert np.array_equal(direct.indices, mirrored.indices)


class TestConeOver:
    """Links of the cone {t * u} over a direction set."""

    def test_link_of_cone_recovers_directions(self):
        rng = np.random.default_rng(13)
        base = direction_set(unit_rows(rng, 6, 3))
        cone = PointCloud(np.vstack([t * base.directions for t in (1.0, 2.0, 4.0)]), "cone")
        sl = link(cone, 2.0, 0.0)
        r = sl.points.radii()
        recovered = DirectionSet(sl.points.points / r[:, None], r, ConeKind.AT_INFINITY)
        assert len(recovered) == len(base)
        assert angular_hausdorff(base, recovered) < 1e-12


class TestExchange:
    def test_ray(self):
        rng = np.random.default_rng(7)
        res = verify_cone_exchange(ray_cloud(unit_rows(rng, 1, 3)[0]))
        assert res.infinity_to_origin < 1e-12
        assert res.origin_to_infinity < 1e-12

    def test_spiral(self):
        res = verify_cone_exchange(log_spiral())
        assert max(res) < 1e-12

    def test_shifted_line(self):
        res = verify_cone_exchange(shifted_line())
        assert max(res) < 1e-12

    def test_needs_two_nonzero_points(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]]), "thin")
        with pytest.raises(InsufficientPoints):
            verify_cone_exchange(cloud)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_exchange_property_random_clouds(seed):
    rng = np.random.default_rng(seed)
    radii = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=60))
    pts = unit_rows(rng, 60, 3) * radii[:, None]
    res = verify_cone_exchange(PointCloud(pts, "cloud"))
    assert max(res) < 1e-12


class TestCompareCones:
    """Angular Hausdorff distance between the direction sets of two clouds."""

    def test_rotated_ray_recovers_the_angle(self):
        phi = 0.3
        rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        ray = ray_cloud(np.array([1.0, 0.0]), count=40)
        turned = PointCloud(ray.points @ rot.T, "turned")
        kind = ConeKind.AT_INFINITY
        got = angular_hausdorff(asymptotic_directions(ray, kind), asymptotic_directions(turned, kind))
        assert abs(got - phi) < 1e-12

    def test_power_of_two_scaling_is_free(self):
        cloud = log_spiral()
        scaled = PointCloud(4.0 * cloud.points, "scaled")
        kind = ConeKind.AT_INFINITY
        got = angular_hausdorff(asymptotic_directions(cloud, kind), asymptotic_directions(scaled, kind))
        assert got == 0.0

    def test_parallel_shifted_lines(self):
        # {(t, 1)} and {(t, 2)} limit to the same horizontal ray, but a
        # finite outer shell keeps them about atan(2/t) - atan(1/t)
        # apart at the shell's inner edge, near 2e-3 for these samples.
        a = shifted_line()
        b = PointCloud(np.column_stack([a.points[:, 0], 2.0 * np.ones(len(a))]), "higher")
        kind = ConeKind.AT_INFINITY
        got = angular_hausdorff(asymptotic_directions(a, kind), asymptotic_directions(b, kind))
        assert 1.5e-3 < got < 2.5e-3

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(2)
        flat = PointCloud(unit_rows(rng, 12, 2), "flat")
        tall = PointCloud(unit_rows(rng, 12, 3), "tall")
        kind = ConeKind.AT_ORIGIN
        with pytest.raises(DomainError):
            angular_hausdorff(asymptotic_directions(flat, kind), asymptotic_directions(tall, kind))
