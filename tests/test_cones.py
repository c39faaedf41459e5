"""Direction sets, links, and the exchange under inversion.

Angular oracles here are frozen by hand: perpendicular unit vectors sit
a quarter turn apart, a rotated ray recovers the rotation angle, and
matched rank shells make the inversion exchange exact to roundoff.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bilip import cones
from bilip.cones import (
    ConeKind,
    DirectionSet,
    angular_hausdorff,
    asymptotic_directions,
    link,
    verify_cone_exchange,
)
from bilip.errors import DomainError, InsufficientPoints
from bilip.geometry import PointCloud, invert, north_pole, norms, stereo_embed

HALF_PI = math.pi / 2.0


def unit_rows(rng: np.random.Generator, n: int, q: int) -> np.ndarray:
    v = rng.normal(size=(n, q))
    return v / np.linalg.norm(v, axis=1)[:, None]


def direction_set(rows) -> DirectionSet:
    d = np.asarray(rows, dtype=np.float64)
    return DirectionSet(d, np.ones(len(d)))


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


def angles_of_nearest(nearest_sq) -> float:
    """The kernel's last step: the largest angle among the nearest squared chords."""
    chords = np.minimum(np.sqrt(np.asarray(nearest_sq)), 2.0)
    return float(np.max(2.0 * np.arcsin(chords / 2.0)))


def per_pair_hausdorff(a: DirectionSet, b: DirectionSet) -> float:
    """Reference: each squared chord on its own, coordinates summed in index order."""
    u, v = a.directions.tolist(), b.directions.tolist()
    d2 = []
    for x in u:
        row = []
        for y in v:
            total = 0.0
            for xk, yk in zip(x, y):
                total += (xk - yk) * (xk - yk)
            row.append(total)
        d2.append(row)
    return angles_of_nearest([min(row) for row in d2] + [min(col) for col in zip(*d2)])


def einsum_hausdorff(a: DirectionSet, b: DirectionSet) -> float:
    """Reference: the earlier form, one einsum over the difference block per direction."""

    def directed(u, v):
        diff = u[:, None, :] - v[None, :, :]
        return angles_of_nearest(np.einsum("ijk,ijk->ij", diff, diff).min(axis=1))

    return max(directed(a.directions, b.directions), directed(b.directions, a.directions))


def laid_out(rows: np.ndarray, layout: str) -> np.ndarray:
    if layout == "F":
        return np.asfortranarray(rows)
    if layout == "strided":
        spaced = np.zeros((2 * len(rows), 2 * rows.shape[1]))
        spaced[::2, ::2] = rows
        return spaced[::2, ::2]
    return rows


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    q=st.integers(1, 20),
    n_a=st.integers(1, 300),
    n_b=st.integers(1, 300),
    layout=st.sampled_from(("C", "F", "strided")),
)
def test_hausdorff_kernel_matches_per_pair_reference(seed, q, n_a, n_b, layout):
    rng = np.random.default_rng(seed)
    a_rows, b_rows = unit_rows(rng, n_a, q), unit_rows(rng, n_b, q)
    # duplicates inside a set, and copies and antipodes across the sets
    a_rows[rng.integers(0, n_a, n_a // 3)] = a_rows[rng.integers(0, n_a, n_a // 3)]
    shared = rng.integers(0, min(n_a, n_b) + 1)
    b_rows[:shared] = a_rows[rng.integers(0, n_a, shared)] * rng.choice([-1.0, 1.0], (shared, 1))
    a = direction_set(laid_out(a_rows, layout))
    b = direction_set(laid_out(b_rows, layout))
    got = angular_hausdorff(a, b)
    assert got == per_pair_hausdorff(a, b)
    assert angular_hausdorff(b, a) == got
    if q <= 2:
        assert got == einsum_hausdorff(a, b)


def dense_hausdorff(a: DirectionSet, b: DirectionSet) -> float:
    """Reference: the dense pass over every pair of the sets as given, unfolded."""
    u, v = np.ascontiguousarray(a.directions.T), np.ascontiguousarray(b.directions.T)
    return angles_of_nearest(np.concatenate(cones._dense_minima(u, v)))


def partnered_sets(rng: np.random.Generator, q: int, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Clustered rows of a, and rows of b that each copy one of them: exactly, within 1 ulp in
    one coordinate, or within 1e-10; with duplicates in and across the sets, a few antipodes,
    and pairs of rows mirrored in all but coordinate 0, which tie there."""
    centres = unit_rows(rng, int(rng.integers(1, 40)), q)
    a = centres[rng.integers(0, len(centres), n)] + rng.normal(size=(n, q)) * 10.0 ** rng.uniform(-12, -2, (n, 1))
    a /= np.linalg.norm(a, axis=1)[:, None]
    mirrored = n // 10
    a[:mirrored] = a[mirrored : 2 * mirrored] * np.r_[1.0, -np.ones(q - 1)]
    a[rng.integers(0, n, n // 10)] = a[rng.integers(0, n, n // 10)]
    b = a[np.resize(rng.permutation(n), m)]
    ulp, noisy = rng.random(m) < 0.3, rng.random(m) < 0.3
    k = rng.integers(0, q, m)
    b[ulp, k[ulp]] = np.nextafter(b[ulp, k[ulp]], rng.choice([-np.inf, np.inf], ulp.sum()))
    b[noisy] += rng.normal(size=(noisy.sum(), q)) * 1e-10
    b[noisy] /= np.linalg.norm(b[noisy], axis=1)[:, None]
    b[rng.integers(0, m, m // 10)] = b[rng.integers(0, m, m // 10)]
    b[rng.integers(0, m, 3)] *= -1.0
    return a, b


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(2, 6), n=st.integers(340, 420), m=st.integers(340, 420))
def test_windowed_pass_matches_dense_pass(seed, q, n, m):
    # above the dense shortcut even after folding, and with every row near a partner, so the
    # windowed pass must run; q = 1 cannot reach it, having at most two distinct directions
    a_rows, b_rows = partnered_sets(np.random.default_rng(seed), q, n, m)
    a, b = direction_set(a_rows), direction_set(b_rows)
    want = dense_hausdorff(a, b)
    with mock.patch.object(cones, "_dense_minima", side_effect=AssertionError("dense pass ran")):
        assert angular_hausdorff(a, b) == want
        assert angular_hausdorff(b, a) == want


class TestAngularHausdorff:
    def test_one_row_blocks(self, monkeypatch):
        # more than 2**16 directions on the column side: every block is one row
        monkeypatch.setattr(cones, "MAX_DIRECTIONS", 2**17)
        rng = np.random.default_rng(5)
        a = direction_set(unit_rows(rng, 3, 3))
        b = direction_set(np.vstack([unit_rows(rng, 2**16 + 2, 3), -a.directions]))
        got = angular_hausdorff(a, b)
        assert got == per_pair_hausdorff(a, b)
        assert angular_hausdorff(b, a) == got

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
        # exactly pi: an antipodal chord of exactly unit vectors is exactly 2
        for q in range(1, 7):
            axes = np.vstack([np.eye(q), -np.eye(q)])
            for k in range(q):
                a, b = direction_set(axes[k : k + 1]), direction_set(axes[q + k : q + k + 1])
                assert angular_hausdorff(a, b) == math.pi
                # -e_k among the signed axes lies a half turn from e_k
                assert angular_hausdorff(direction_set(axes), a) == math.pi
        half = np.full((1, 4), 0.5)
        assert angular_hausdorff(direction_set(half), direction_set(-half)) == math.pi

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
        # one distinct direction: the cap counts the rows given, not the folded ones
        rows = np.tile(np.array([[1.0, 0.0]]), (10_001, 1))
        big = DirectionSet(rows, np.ones(len(rows)))
        for pair in ((big, direction_set([[1.0, 0.0]])), (direction_set(unit_rows(np.random.default_rng(2), 9, 2)), big)):
            with pytest.raises(DomainError, match="capped at 10000"):
                angular_hausdorff(*pair)

    def test_ray_like_shells_fold_to_their_distinct_rows(self, monkeypatch):
        # 5000 rows each over 25 and 26 distinct vectors that differ by a few ulps and tie in
        # coordinate 0, as on a sampled ray; folded, 25 x 26 pairs take the dense pass.  A
        # Hausdorff distance depends only on the sets, so the reference compares the distinct rows
        rng = np.random.default_rng(17)
        u = unit_rows(rng, 1, 3)[0]
        steps = np.arange(26)
        variants = np.tile(u, (26, 1))
        variants[:, 0] += (steps % 4) * np.spacing(u[0])
        variants[:, 1] += (steps // 4) * np.spacing(u[1])
        a_rows, b_rows = variants[1:][rng.integers(0, 25, 5000)], variants[rng.integers(0, 26, 5000)]
        b_rows[:26] = variants
        dense_sizes = []
        dense = cones._dense_minima

        def counted(u, v):
            dense_sizes.append(u.shape[1] * v.shape[1])
            return dense(u, v)

        monkeypatch.setattr(cones, "_dense_minima", counted)
        a, b = direction_set(a_rows), direction_set(b_rows)
        got = angular_hausdorff(a, b)
        assert got == angular_hausdorff(b, a) == per_pair_hausdorff(direction_set(variants[1:]), direction_set(variants))
        assert dense_sizes == [25 * 26, 26 * 25]

    def test_spread_sets_take_the_dense_pass(self, monkeypatch):
        # 300 x 300 spread directions on S^2: coordinate-0 neighbours are far apart in the
        # other coordinates, so the windows are too wide and every pair is compared
        rng = np.random.default_rng(19)
        a, b = direction_set(unit_rows(rng, 300, 3)), direction_set(unit_rows(rng, 300, 3))
        monkeypatch.setattr(cones, "_nearest_in_windows", mock.Mock(side_effect=AssertionError("windowed pass ran")))
        got = angular_hausdorff(a, b)
        assert got == angular_hausdorff(b, a) == per_pair_hausdorff(a, b)

    def test_close_partners_take_the_windowed_pass(self, monkeypatch):
        # each of 400 directions on the circle has a partner within 1e-12 in the other set
        rng = np.random.default_rng(23)
        a_rows = unit_rows(rng, 400, 2)
        b_rows = a_rows[rng.permutation(400)] + rng.normal(size=(400, 2)) * 1e-12
        a, b = direction_set(a_rows), direction_set(b_rows / np.linalg.norm(b_rows, axis=1)[:, None])
        monkeypatch.setattr(cones, "_dense_minima", mock.Mock(side_effect=AssertionError("dense pass ran")))
        got = angular_hausdorff(a, b)
        assert got == angular_hausdorff(b, a) == per_pair_hausdorff(a, b)

    def test_empty_set_rejected(self):
        empty = DirectionSet(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(InsufficientPoints):
            angular_hausdorff(empty, direction_set([[1.0, 0.0]]))

    def test_non_unit_rows_rejected(self):
        with pytest.raises(DomainError):
            DirectionSet(np.array([[2.0, 0.0]]), np.ones(1))


class TestDirectionSelection:
    def test_axis_ray_directions_are_exact(self):
        cloud = ray_cloud(np.array([1.0, 0.0]), count=30)
        ds = asymptotic_directions(cloud, ConeKind.AT_ORIGIN)
        assert np.all(ds.directions == np.array([1.0, 0.0]))

    def test_generic_ray_directions_match_axis(self):
        rng = np.random.default_rng(7)
        u = unit_rows(rng, 1, 3)[0]
        ds = asymptotic_directions(ray_cloud(u), ConeKind.AT_INFINITY)
        target = DirectionSet(u[None, :], np.ones(1))
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
        cloud = log_spiral()
        # a lone nonzero point, so the fraction must be checked before the point count
        lone = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]]), "lone")
        for fraction in (0.0, 1.5, math.nan):
            with pytest.raises(DomainError, match=r"shell fraction must lie in \(0, 1\]"):
                asymptotic_directions(cloud, ConeKind.AT_INFINITY, fraction)
            for target in (cloud, lone):
                with pytest.raises(DomainError, match=r"shell fraction must lie in \(0, 1\]"):
                    verify_cone_exchange(target, fraction)
        with pytest.raises(InsufficientPoints):
            verify_cone_exchange(lone, 1.0)

    def test_shell_keeps_min_points(self):
        # 10% of 150 is 15; 1% would be 2, so the shell floor of 8 applies
        cloud = log_spiral()
        assert len(asymptotic_directions(cloud, ConeKind.AT_ORIGIN, 0.1)) == 15
        assert len(asymptotic_directions(cloud, ConeKind.AT_ORIGIN, 0.01)) == cones.MIN_SHELL_POINTS == 8

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
    def test_closed_shell_keeps_its_bound_radii(self):
        # radii 1, 1, 5, 5, 10, all exact in floating point
        pts = np.array([[1.0, 0.0], [0.0, -1.0], [3.0, 4.0], [0.0, 5.0], [6.0, 8.0]])
        cloud = PointCloud(pts, "exact")
        assert np.array_equal(link(cloud, 1.0, 5.0), np.arange(4))
        assert np.array_equal(link(cloud, 5.0, 10.0), np.array([2, 3, 4]))

    def test_middle_shell_only(self):
        pts = np.array([[0.5, 0.0], [0.0, 1.0], [2.0, 0.0]])
        assert np.array_equal(link(PointCloud(pts, "three"), 0.9, 1.1), np.array([1]))

    def test_origin_never_in_a_shell(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert np.array_equal(link(PointCloud(pts, "pair"), 1e-300, 1.0), np.array([1]))

    def test_empty_band_raises(self):
        cloud = PointCloud(np.array([[1.0, 0.0], [2.0, 0.0]]), "pair")
        with pytest.raises(InsufficientPoints, match=r"no points in the shell \[10.0, 100.0\]"):
            link(cloud, 10.0, 100.0)

    def test_parameter_validation(self):
        cloud = PointCloud(np.array([[1.0, 0.0], [2.0, 0.0]]), "pair")
        for r_min, r_max in ((0.0, 1.0), (-1.0, 1.0), (2.0, 2.0), (2.0, 1.0), (math.nan, 1.0)):
            with pytest.raises(DomainError, match=r"link shell needs 0 < r_min < r_max"):
                link(cloud, r_min, r_max)

    def test_wide_shell_is_the_range_itself(self):
        # a range wider than any log band below 1 could reach (factor e^2)
        cloud = log_spiral()
        r = cloud.radii()
        want = np.flatnonzero((r >= 0.05) & (r <= 20.0))
        assert np.array_equal(link(cloud, 0.05, 20.0), want)
        assert len(want) < len(cloud)

    def test_inversion_exchanges_shells(self):
        # r in [lo, hi] iff 1/r in [1/hi, 1/lo], so the indices agree after inverting the cloud
        cloud = log_spiral()
        direct = link(cloud, 0.3, 4.0)
        mirrored = link(PointCloud(invert(cloud.points), "inv"), 0.25, 1.0 / 0.3)
        assert np.array_equal(direct, mirrored)


def chordal_annulus(cloud: PointCloud, r_min: float, r_max: float) -> np.ndarray:
    """Indices of the samples whose image under sigma lies in the annulus the shell maps to."""
    gap = norms(stereo_embed(cloud.points) - north_pole(cloud.dim))
    lo, hi = 2.0 / math.sqrt(1.0 + r_max**2), 2.0 / math.sqrt(1.0 + r_min**2)
    return np.flatnonzero((gap >= lo) & (gap <= hi))


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3),
       bounds=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
@settings(max_examples=100, deadline=None)
def test_link_band_exchange_property(seed, dim, bounds):
    # the closed shell is carried onto [1/hi, 1/lo] by inversion and onto the chordal
    # annulus by sigma; bounds kept 1e-9 relative off every radius leave no sample on an edge
    lo, hi = 10.0 ** min(bounds), 10.0 ** max(bounds)
    assume(lo < hi)
    rng = np.random.default_rng(seed)
    radii = 10.0 ** rng.uniform(-2.0, 2.0, size=60)
    assume(np.all(np.abs(radii / lo - 1.0) > 1e-9) and np.all(np.abs(radii / hi - 1.0) > 1e-9))
    cloud = PointCloud(unit_rows(rng, 60, dim) * radii[:, None], "cloud")
    inverted = PointCloud(invert(cloud.points), "inv")
    selected = chordal_annulus(cloud, lo, hi)
    if len(selected) == 0:
        for shell in ((cloud, lo, hi), (inverted, 1.0 / hi, 1.0 / lo)):
            with pytest.raises(InsufficientPoints):
                link(*shell)
        return
    direct = link(cloud, lo, hi)
    assert np.array_equal(direct, np.flatnonzero((radii >= lo) & (radii <= hi)))
    assert np.array_equal(direct, link(inverted, 1.0 / hi, 1.0 / lo))
    assert np.array_equal(direct, selected)


class TestConeOver:
    """Links of the cone {t * u} over a direction set."""

    def test_link_of_cone_recovers_directions(self):
        rng = np.random.default_rng(13)
        base = direction_set(unit_rows(rng, 6, 3))
        cone = PointCloud(np.vstack([t * base.directions for t in (1.0, 2.0, 4.0)]), "cone")
        pts = cone.points[link(cone, 1.5, 3.0)]
        r = np.linalg.norm(pts, axis=1)
        recovered = DirectionSet(pts / r[:, None], r)
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
