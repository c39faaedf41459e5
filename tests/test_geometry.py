"""Frozen oracles and invariants for the pointwise transforms."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bilip import geometry
from bilip.errors import DomainError, OriginError, PoleError
from bilip.geometry import (
    _LARGE_RADIUS,
    ORIGIN_EPSILON,
    POLE_EPSILON,
    PointCloud,
    dot_rows,
    inversion_derivative_norm,
    invert,
    inverted_distance_residual,
    law_of_cosines_residual,
    norms,
    north_pole,
    pole_chart,
    pole_chart_exact,
    separation_bounds,
    stereo_embed,
    stereo_project,
)


def unit_rows(rng: np.random.Generator, n: int, q: int) -> np.ndarray:
    v = rng.normal(size=(n, q))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def log_uniform_radii(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))


class TestInvert:
    def test_frozen_example(self):
        # |x|^2 = 25, so (3,4) -> (3/25, 4/25)
        assert invert([[3.0, 4.0]])[0] == pytest.approx([0.12, 0.16], rel=1e-14)

    def test_origin_rejected(self):
        with pytest.raises(OriginError):
            invert([[0.0, 0.0]])

    def test_tiny_and_huge_radii_survive(self):
        out = invert([[1e-300, 0.0]])[0]
        assert out == pytest.approx([1e300, 0.0])
        back = invert([[1e300, 0.0]])[0]
        assert back == pytest.approx([1e-300, 0.0])

    def test_involution(self):
        rng = np.random.default_rng(11)
        for q in (1, 2, 3, 6):
            x = unit_rows(rng, 500, q) * log_uniform_radii(rng, 500, 1e-6, 1e6)[:, None]
            err = np.linalg.norm(invert(invert(x)) - x, axis=1)
            assert np.all(err <= 1e-10 * norms(x))

    def test_radius_law(self):
        rng = np.random.default_rng(12)
        x = unit_rows(rng, 1000, 3) * log_uniform_radii(rng, 1000, 1e-6, 1e6)[:, None]
        prod = norms(invert(x)) * norms(x)
        assert np.max(np.abs(prod - 1.0)) <= 1e-12

    def test_direction_preserved(self):
        rng = np.random.default_rng(13)
        x = unit_rows(rng, 1000, 4) * log_uniform_radii(rng, 1000, 1e-3, 1e3)[:, None]
        y = invert(x)
        ux = x / norms(x)[:, None]
        uy = y / norms(y)[:, None]
        assert np.max(np.linalg.norm(ux - uy, axis=1)) <= 1e-12


class TestStereo:
    def test_frozen_plane_example(self):
        # |x|^2 = 25: (3,4) -> (6/26, 8/26, 24/26)
        out = stereo_embed([[3.0, 4.0]])[0]
        assert out == pytest.approx([6 / 26, 8 / 26, 24 / 26], rel=1e-14)

    def test_frozen_line_examples(self):
        assert stereo_embed([[0.0]])[0] == pytest.approx([0.0, -1.0], abs=1e-15)
        assert stereo_embed([[1.0]])[0] == pytest.approx([1.0, 0.0], abs=1e-15)
        assert stereo_embed([[2.0]])[0] == pytest.approx([0.8, 0.6], rel=1e-14)
        assert stereo_embed([[4.0]])[0] == pytest.approx([8 / 17, 15 / 17], rel=1e-14)

    def test_south_pole_round_trip(self):
        assert stereo_project([[0.0, -1.0]])[0] == pytest.approx([0.0], abs=1e-15)

    def test_sphere_membership(self):
        rng = np.random.default_rng(21)
        for q in (1, 2, 3, 6):
            x = unit_rows(rng, 500, q) * log_uniform_radii(rng, 500, 1e-6, 1e6)[:, None]
            r = norms(stereo_embed(x))
            assert np.max(np.abs(r - 1.0)) <= 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(22)
        for q in (1, 2, 3, 6):
            x = unit_rows(rng, 500, q) * log_uniform_radii(rng, 500, 1e-6, 1e6)[:, None]
            back = stereo_project(stereo_embed(x))
            err = np.linalg.norm(back - x, axis=1)
            assert np.all(err <= 1e-10 * (1.0 + norms(x)))

    def test_frozen_projection(self):
        assert stereo_project([[0.6, 0.8]])[0] == pytest.approx([3.0], rel=1e-14)

    def test_pole_rejected(self):
        with pytest.raises(PoleError):
            stereo_project([[0.0, 0.0, 1.0]])
        # embedding a huge point lands within pole_epsilon of the pole
        with pytest.raises(PoleError):
            stereo_project(stereo_embed([[1e200, 0.0]]))

    def test_off_sphere_rejected(self):
        with pytest.raises(DomainError):
            stereo_project([[0.5, 0.5]])

    def test_bad_row_of_a_stack_is_named(self):
        good = stereo_embed(np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 3.0]]))
        off = good.copy()
        off[2] = [0.5, 0.5, 0.5]
        pole = good.copy()
        pole[1] = [0.0, 0.0, 1.0]
        with pytest.raises(DomainError, match=r"not on the unit sphere \(row 2\)"):
            stereo_project(off)
        with pytest.raises(PoleError, match=r"north pole \(row 1\)"):
            stereo_project(pole)
        # a one-row stack names its row 0
        with pytest.raises(PoleError, match=r"north pole \(row 0\)$"):
            stereo_project(pole[1:2])

    def test_huge_radius_membership(self):
        p = stereo_embed([[1e200, 0.0]])
        assert abs(norms(p)[0] - 1.0) <= 1e-12


class TestPoleChart:
    def test_frozen_verbatim(self):
        # (0.5, 0): |y| = 1/2, denominator 5/4
        assert pole_chart([[0.5, 0.0]])[0] == pytest.approx([0.4, 0.0, 0.4], rel=1e-14)

    def test_frozen_exact(self):
        assert pole_chart_exact([[0.5, 0.0]])[0] == pytest.approx([0.8, 0.0, 0.6], rel=1e-14)

    def test_zero_maps_to_pole(self):
        assert pole_chart([[0.0, 0.0]])[0] == pytest.approx(north_pole(2), abs=1e-15)
        assert pole_chart_exact([[0.0, 0.0, 0.0]])[0] == pytest.approx(north_pole(3), abs=1e-15)

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            pole_chart([[0.6, 0.0]])
        with pytest.raises(DomainError, match=r"\|y\| <= 1/2 \(row 1\)"):
            pole_chart_exact([[0.5, 0.0], [0.51, 0.0]])

    @pytest.mark.parametrize("q", [1, 2, 3, 6])
    def test_exact_variant_is_its_printed_formula(self, q):
        rng = np.random.default_rng(30 + q)
        y = unit_rows(rng, 200, q) * rng.uniform(0.0, 0.5, size=200)[:, None]
        y[0] = 0.0
        r2 = norms(y) ** 2
        want = np.column_stack([2.0 * y / (1.0 + r2)[:, None], (1.0 - r2) / (1.0 + r2)])
        assert np.array_equal(pole_chart_exact(y), want)

    def test_exact_variant_on_sphere_and_latitude(self):
        rng = np.random.default_rng(31)
        y = unit_rows(rng, 300, 3) * rng.uniform(0.0, 0.5, size=300)[:, None]
        out = pole_chart_exact(y)
        assert np.max(np.abs(norms(out) - 1.0)) <= 1e-12
        assert np.min(out[:, -1]) >= 0.6 - 1e-12

    def test_renormalized_lands_on_sphere(self):
        rng = np.random.default_rng(32)
        y = unit_rows(rng, 300, 2) * rng.uniform(0.0, 0.5, size=300)[:, None]
        chart = pole_chart(y)
        out = chart / norms(chart)[:, None]
        assert np.max(np.abs(norms(out) - 1.0)) <= 1e-12

    def test_gluing_exact_variant(self):
        # chart(invert(x)) must equal stereo_embed(x) for |x| >= 2
        rng = np.random.default_rng(33)
        for q in (1, 2, 3, 6):
            x = unit_rows(rng, 400, q) * log_uniform_radii(rng, 400, 2.0, 1e3)[:, None]
            res = np.linalg.norm(pole_chart_exact(invert(x)) - stereo_embed(x), axis=1)
            assert np.max(res) <= 1e-12

    def test_gluing_verbatim_baseline(self):
        # the printed form does not glue; the mismatch at x=(2,0) is sqrt(0.2)
        x = np.array([[2.0, 0.0]])
        res = np.linalg.norm(pole_chart(invert(x)) - stereo_embed(x))
        assert res == pytest.approx(np.sqrt(0.2), rel=1e-12)

    def test_gluing_renormalized_baseline(self):
        # radial projection onto the sphere does not rescue the gluing
        x = np.array([[2.0, 0.0]])
        chart = pole_chart(invert(x))
        res = np.linalg.norm(chart / norms(chart)[:, None] - stereo_embed(x))
        assert res == pytest.approx(0.14177804018135862, rel=1e-9)


class TestDerivativeNorm:
    def test_line(self):
        # d/dx (1/x) = -1/x^2, so the norm at 0.5 is 4
        assert inversion_derivative_norm([[0.5]]) == pytest.approx([4.0], rel=1e-5)

    def test_space(self):
        est = inversion_derivative_norm([[1.0, 1.0, 1.0]])
        assert est == pytest.approx([1.0 / 3.0], rel=1e-5)

    def test_frozen_examples(self):
        assert inversion_derivative_norm([[1.0, 0.0]]) == pytest.approx([1.0], rel=1e-6)
        assert inversion_derivative_norm([[2.0, 0.0, 0.0]]) == pytest.approx([0.25], rel=1e-6)

    def test_sweep(self):
        rng = np.random.default_rng(41)
        for q in (1, 2, 4, 6):
            for _ in range(50):
                x = unit_rows(rng, 1, q) * float(log_uniform_radii(rng, 1, 0.1, 10.0)[0])
                r = norms(x)[0]
                est = inversion_derivative_norm(x)
                assert est == pytest.approx([1.0 / r**2], rel=1e-5)


class TestSeparationBounds:
    def test_frozen_collinear(self):
        b = separation_bounds([[1.0, 0.0]], [[3.0, 0.0]])
        assert b.lower == pytest.approx([2.0], rel=1e-14)
        assert b.upper == pytest.approx([4.0], rel=1e-14)
        assert b.distance == pytest.approx([2.0])
        assert b.holds.all()

    def test_frozen_antipodal(self):
        b = separation_bounds([[1.0, 0.0]], [[-3.0, 0.0]])
        assert b.distance == pytest.approx([4.0])
        assert b.upper == pytest.approx([4.0], rel=1e-14)
        assert b.holds.all()

    def test_rejects_inner_farther(self):
        with pytest.raises(DomainError):
            separation_bounds([[2.0, 0.0]], [[1.0, 0.0]])
        with pytest.raises(DomainError):
            separation_bounds([[1.0, 0.0]], [[1.0, 0.0]])

    def test_rejects_origin(self):
        with pytest.raises(OriginError):
            separation_bounds([[0.0, 0.0]], [[1.0, 0.0]])

    def test_sweep_holds(self):
        rng = np.random.default_rng(51)
        for _ in range(2000):
            q = int(rng.integers(1, 7))
            u = unit_rows(rng, 2, q)
            r = float(log_uniform_radii(rng, 1, 1e-3, 1e3)[0])
            grow = 1.0 + float(log_uniform_radii(rng, 1, 1e-9, 1e3)[0])
            b = separation_bounds(u[:1] * r, u[1:] * r * grow)
            assert b.holds.all()


class TestDistanceIdentities:
    def test_frozen_inverted_distance(self):
        # (1,0),(2,0): e = 1, E = 1/2, R1 R2 = 1/2
        assert inverted_distance_residual([[1.0, 0.0]], [[2.0, 0.0]]) <= 1e-15

    def test_frozen_perpendicular_law(self):
        # r1 = r2 = 1, full angle pi/2: rhs = 4 sin^2(pi/4) = 2 = e^2
        assert law_of_cosines_residual([[1.0, 0.0]], [[0.0, 1.0]]) <= 1e-14

    def test_sweeps(self):
        rng = np.random.default_rng(61)
        for q in (1, 2, 3, 6):
            n = 2000
            x1 = unit_rows(rng, n, q) * log_uniform_radii(rng, n, 1e-3, 1e3)[:, None]
            x2 = unit_rows(rng, n, q) * log_uniform_radii(rng, n, 1e-3, 1e3)[:, None]
            assert np.all(inverted_distance_residual(x1, x2) <= 1e-10)
            assert np.all(law_of_cosines_residual(x1, x2) <= 1e-10)

    def test_law_rejects_origin(self):
        with pytest.raises(OriginError):
            law_of_cosines_residual([[0.0, 0.0]], [[1.0, 0.0]])

    def test_coincident_points(self):
        assert inverted_distance_residual([[1.0, 2.0]], [[1.0, 2.0]]) == 0.0

    def test_collinear_law(self):
        assert law_of_cosines_residual([[2.0, 0.0]], [[1.0, 0.0]]) <= 1e-14


class TestBatchContract:
    """The pair and point checks take (n, q) stacks only, like the transforms."""

    # every public point function, with valid one-row stacks for each argument
    ONE_ROW_CALLS = [
        (norms, ([[1.0, 0.0]],)),
        (invert, ([[1.0, 0.0]],)),
        (stereo_embed, ([[1.0, 0.0]],)),
        (stereo_project, ([[0.6, 0.8]],)),
        (pole_chart, ([[0.1, 0.0]],)),
        (pole_chart_exact, ([[0.1, 0.0]],)),
        (inversion_derivative_norm, ([[1.0, 0.0]],)),
        (separation_bounds, ([[1.0, 0.0]], [[3.0, 0.0]])),
        (inverted_distance_residual, ([[1.0, 0.0]], [[2.0, 0.0]])),
        (law_of_cosines_residual, ([[1.0, 0.0]], [[0.0, 1.0]])),
        (dot_rows, ([[1.0, 0.0]], [[0.0, 1.0]])),
    ]

    @pytest.mark.parametrize("fn, stacks", ONE_ROW_CALLS, ids=[fn.__name__ for fn, _ in ONE_ROW_CALLS])
    def test_single_point_rejected_naming_its_shape(self, fn, stacks):
        fn(*stacks)  # the one-row stacks are valid input
        for k in range(len(stacks)):
            args = list(stacks)
            args[k] = stacks[k][0]  # the same point as a (q,) array
            with pytest.raises(DomainError, match=r"\(n, q\) stack.*got shape \(2,\)"):
                fn(*args)

    def test_batch_equals_rows(self):
        rng = np.random.default_rng(71)
        for q in (1, 2, 3, 6):
            x1 = unit_rows(rng, 50, q) * log_uniform_radii(rng, 50, 1e-3, 1e3)[:, None]
            x2 = unit_rows(rng, 50, q) * log_uniform_radii(rng, 50, 1e-3, 1e3)[:, None]
            # a Fortran-ordered stack must give the bits of its C-ordered rows
            f1 = np.asfortranarray(x1)
            assert invert(f1).tolist() == [invert(row[None])[0].tolist() for row in x1]
            for fn, args in (
                (inverted_distance_residual, (x1, x2)),
                (inverted_distance_residual, (f1, x2)),
                (law_of_cosines_residual, (x1, x2)),
                (inversion_derivative_norm, (x1,)),
                (inversion_derivative_norm, (f1,)),
            ):
                batch = fn(*args)
                assert batch.shape == (50,)
                assert batch.tolist() == [fn(*(a[None] for a in row))[0] for row in zip(*args)]
            far = x2 * (2.0 * norms(x1) / norms(x2))[:, None]
            bounds = separation_bounds(x1, far)
            rows = [separation_bounds(a[None], b[None]) for a, b in zip(x1, far)]
            assert bounds.holds.all()
            for k, field in enumerate(bounds):
                assert field.shape == (50,)
                assert field.tolist() == [row[k][0] for row in rows]

    def test_offending_row_is_named(self):
        good = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 3.0]])
        zero = good.copy()
        zero[1] = 0.0
        nan = good.copy()
        nan[2, 0] = np.nan
        same_radius = 2.0 * good
        same_radius[2] = good[2]
        with pytest.raises(DomainError, match=r"non-finite.*\(row 2\)"):
            inverted_distance_residual(good, nan)
        with pytest.raises(OriginError, match=r"\(row 1\)"):
            inverted_distance_residual(zero, good)
        with pytest.raises(OriginError, match=r"\(row 1\)"):
            law_of_cosines_residual(good, zero)
        with pytest.raises(OriginError, match=r"\(row 1\)"):
            separation_bounds(zero, same_radius)
        with pytest.raises(DomainError, match=r"must exceed.*\(row 2\)"):
            separation_bounds(good, same_radius)
        with pytest.raises(OriginError, match=r"\(row 1\)"):
            inversion_derivative_norm(zero)

    def test_mismatched_shapes_rejected(self):
        good = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 3.0]])
        for fn in (inverted_distance_residual, law_of_cosines_residual, dot_rows):
            with pytest.raises(DomainError, match="share a shape"):
                fn(good, good[:2])
            with pytest.raises(DomainError, match=r"share a shape, got \(3, 2\) and \(1, 2\)"):
                fn(good, good[:1])  # one row must not broadcast against three
            with pytest.raises(DomainError, match="share a shape"):
                fn([[1.0, 0.0]], [[1.0, 0.0, 0.0]])
        with pytest.raises(DomainError, match="share a shape"):
            separation_bounds(good[:1], 2.0 * good)


# radii from just above the origin guard to just below the square of the
# large-radius switch, 1e-299..1e299
_LOG_RADIUS_LO = round(np.log10(ORIGIN_EPSILON)) + 1
_LOG_RADIUS_HI = 2 * round(np.log10(_LARGE_RADIUS)) - 1


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    q=st.sampled_from((1, 2, 3, 6)),
    decade_1=st.integers(_LOG_RADIUS_LO, _LOG_RADIUS_HI - 1),
    decade_2=st.integers(_LOG_RADIUS_LO, _LOG_RADIUS_HI - 1),
)
def test_identities_at_extreme_radii(seed: int, q: int, decade_1: int, decade_2: int) -> None:
    rng = np.random.default_rng(seed)
    n = 8
    x1 = unit_rows(rng, n, q) * (10.0 ** (decade_1 + rng.uniform(size=n)))[:, None]
    x2 = unit_rows(rng, n, q) * (10.0 ** (decade_2 + rng.uniform(size=n)))[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for residual in (inverted_distance_residual, law_of_cosines_residual):
            batch = residual(x1, x2)
            assert batch.tolist() == [residual(a[None], b[None])[0] for a, b in zip(x1, x2)]
            assert np.all(batch <= 1e-10), residual.__name__


# the embedding of a point of radius r sits 2 / (1 + r^2) below the pole
# in its last coordinate, so projection refuses radii from about here on
_POLE_RADIUS = np.sqrt(2.0 / POLE_EPSILON - 1.0)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    q=st.integers(1, 6),
    decade=st.integers(_LOG_RADIUS_LO, _LOG_RADIUS_HI - 1),
)
@example(seed=0, q=3, decade=int(np.log10(_POLE_RADIUS)))  # the decade holding the pole edge
def test_sphere_round_trip_at_extreme_radii(seed: int, q: int, decade: int) -> None:
    rng = np.random.default_rng(seed)
    n = 8
    radii = 10.0 ** (decade + rng.uniform(size=n))
    x = unit_rows(rng, n, q) * radii[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        embedded = stereo_embed(x)
        for row, point, radius in zip(x, embedded, radii):
            if radius > _POLE_RADIUS * (1.0 + 1e-6):
                with pytest.raises(PoleError):
                    stereo_project(point[None])
                continue
            try:
                back = stereo_project(point[None])[0]
            except PoleError:
                assert radius >= _POLE_RADIUS * (1.0 - 1e-6)  # only at the edge
                continue
            assert np.all(np.isfinite(back))
            # coordinate maxima, not norms: squares underflow at 1e-299
            assert np.max(np.abs(back - row)) <= 1e-10 * np.max(np.abs(row))
        far = radii < _POLE_RADIUS * (1.0 - 1e-6)
        if np.all(far):
            assert stereo_project(embedded).tolist() == [stereo_project(p[None])[0].tolist() for p in embedded]
        elif np.any(radii > _POLE_RADIUS * (1.0 + 1e-6)):
            with pytest.raises(PoleError):
                stereo_project(embedded)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 6))
def test_involution_property(seed: int, q: int) -> None:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=q)
    n = np.linalg.norm(v)
    if n < 1e-12:
        return
    x = (v / n * np.exp(rng.uniform(np.log(1e-6), np.log(1e6))))[None]
    err = np.linalg.norm(invert(invert(x)) - x)
    assert err <= 1e-10 * np.linalg.norm(x)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 6))
def test_radius_law_property(seed: int, q: int) -> None:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=q)
    n = np.linalg.norm(v)
    if n < 1e-12:
        return
    x = (v / n * np.exp(rng.uniform(np.log(1e-6), np.log(1e6))))[None]
    assert abs(norms(invert(x))[0] * np.linalg.norm(x) - 1.0) <= 1e-12


class TestPointCloud:
    def test_validation(self):
        with pytest.raises(DomainError):
            PointCloud(np.empty((0, 2)))
        with pytest.raises(DomainError):
            PointCloud(np.array([[np.nan, 0.0]]))
        with pytest.raises(DomainError):
            PointCloud(np.array([1.0, 2.0]))


def test_norms_overflow_safe():
    assert norms(np.array([[1e200, 0.0]]))[0] == pytest.approx(1e200)
    assert norms(np.array([[3e-300, 4e-300]]))[0] == pytest.approx(5e-300)


def mixed_rows(seed: int, n: int, q: int) -> np.ndarray:
    """Rows from radius 1e-299 to 1e299 and a few zero rows."""
    rng = np.random.default_rng(seed)
    x = unit_rows(rng, n, q) * 10.0 ** rng.uniform(-299, 299, size=(n, 1))
    x[rng.integers(0, n, size=n // 10)] = 0.0
    return x


@pytest.mark.parametrize("q", [1, 2, 3, 9, 129])
def test_norms_do_not_depend_on_the_row_block(q):
    x = mixed_rows(q, 50, q)
    want = norms(x)
    for rows in (1, 3, 7):
        with mock.patch.object(geometry, "_NORM_ROWS", rows):
            assert norms(x).tobytes() == want.tobytes()
    assert want.tolist() == [norms(row[None])[0] for row in x]


def test_norms_memory_is_bounded(traced_peak):
    # the result (0.8 MB) and the temporaries of one block of 8192 rows, 1.2 MiB;
    # temporaries of every row took 3.8 MiB
    x = np.random.default_rng(3).normal(size=(10**5, 2))
    r, peak = traced_peak(lambda: norms(x))
    assert len(r) == 10**5
    assert peak <= 1.5 * 2**20


@pytest.mark.parametrize("q", [1, 2, 5])
def test_embedding_of_a_row_does_not_depend_on_the_others(q):
    # a row past _LARGE_RADIUS takes the 1/|x| form; the rows beside it keep their bits,
    # in a fresh result or written into a given one
    x = unit_rows(np.random.default_rng(q), 40, q) * 10.0 ** np.linspace(-200, 149, 40)[:, None]
    huge = np.vstack([x, np.full((1, q), 1e200)])
    in_place = stereo_embed(x)
    assert in_place.tobytes() == stereo_embed(huge)[:-1].tobytes()
    out = np.full((len(x) + 1, q + 1), np.nan)
    stereo_embed(x, out=out[1:])
    assert out[1:].tobytes() == in_place.tobytes() and np.isnan(out[0]).all()
    stereo_embed(huge[::-1], out=out)
    assert out.tobytes() == stereo_embed(huge[::-1]).tobytes()


def test_inversion_into_its_own_input():
    x = mixed_rows(5, 30, 3)
    x = x[norms(x) > 0.0]
    want = invert(x)
    invert(x, out=x)
    assert x.tobytes() == want.tobytes()
