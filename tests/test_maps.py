"""Sampled-map transforms, the analytic registry, and the sampler."""

import numpy as np
import pytest

from bilip.errors import DomainError, EmptyRestriction, HypothesisError
from bilip.geometry import SPHERE_TOLERANCE, PointCloud, invert, norms, stereo_embed
from bilip.maps import (
    Ambient,
    AnalyticMap,
    SampledMap,
    SamplerConfig,
    compactify_map,
    invert_map,
    linear_analytic,
    radial_power_analytic,
    registry,
    restrict_map,
    sample_analytic,
    scaling_analytic,
    unit_directions,
)


def make_map(domain, codomain, **options) -> SampledMap:
    return SampledMap(
        domain=PointCloud(np.asarray(domain, dtype=float)),
        codomain=PointCloud(np.asarray(codomain, dtype=float)),
        **options,
    )


def zero_rows(m: SampledMap) -> list[int]:
    return np.flatnonzero(m.domain.radii() == 0.0).tolist()


def sorted_rows(a: np.ndarray) -> np.ndarray:
    return a[np.lexsort(a.T[::-1])]


class TestSampledMapValidation:
    def test_pairing_lengths(self):
        with pytest.raises(DomainError):
            make_map([[1.0, 0.0], [2.0, 0.0]], [[1.0, 0.0]])

    def test_minimum_pairs(self):
        with pytest.raises(DomainError):
            SampledMap(
                domain=PointCloud(np.array([[1.0, 0.0]])),
                codomain=PointCloud(np.array([[1.0, 0.0]])),
            )

    # (domain, codomain, ambient, fixes_origin, avoids_origin)
    DERIVED_FLAGS = {
        "origin-pair": ([[0.0, 0.0], [2.0, 0.0]], [[0.0, 0.0], [4.0, 0.0]], Ambient.AFFINE, True, False),
        "zero-maps-off": ([[0.0, 0.0], [2.0, 0.0]], [[1.0, 0.0], [4.0, 0.0]], Ambient.AFFINE, False, False),
        "two-zero-rows": ([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]], [[0.0, 0.0], [0.0, 0.0], [4.0, 0.0]],
                          Ambient.AFFINE, False, False),
        "radius-1e-10": ([[1e-10, 0.0], [2.0, 0.0]], [[1.0, 0.0], [4.0, 0.0]], Ambient.AFFINE, False, False),
        "clearance": ([[1e-9, 0.0], [2.0, 0.0]], [[1.0, 0.0], [0.0, 1e-9]], Ambient.AFFINE, False, True),
        "sphere": ([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [-1.0, 0.0]], Ambient.SPHERE, False, False),
    }

    @pytest.mark.parametrize("case", DERIVED_FLAGS)
    def test_samples_decide_the_origin_flags(self, case):
        dom, cod, ambient, fixes, avoids = self.DERIVED_FLAGS[case]
        m = make_map(dom, cod, ambient=ambient)
        assert (m.fixes_origin, m.avoids_origin) == (fixes, avoids)
        # a statement of the derived value is accepted; its negation names the field
        stated = make_map(dom, cod, ambient=ambient, fixes_origin=fixes, avoids_origin=avoids)
        assert (stated.fixes_origin, stated.avoids_origin) == (fixes, avoids)
        for name, value in (("fixes_origin", fixes), ("avoids_origin", avoids)):
            with pytest.raises(HypothesisError, match=f"'{name}' says {not value}, but the samples say {value}"):
                make_map(dom, cod, ambient=ambient, **{name: not value})

    def test_sphere_ambient_checks_membership(self):
        with pytest.raises(DomainError):
            make_map(
                [[1.0, 0.0], [0.5, 0.5]],
                [[1.0, 0.0], [0.5, 0.5]],
                ambient=Ambient.SPHERE,
            )

    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["outside", "inside"])
    def test_sphere_tolerance_on_either_side_of_one(self, side):
        # radii a few ulps around 1 +/- SPHERE_TOLERANCE, in either cloud: a map is
        # refused exactly when |r - 1| exceeds the tolerance
        radii = [1.0 + side * SPHERE_TOLERANCE]
        for _ in range(4):
            radii = [np.nextafter(radii[0], 1.0), *radii, np.nextafter(radii[-1], 1.0 + side)]
        refused = [abs(r - 1.0) > SPHERE_TOLERANCE for r in radii]
        assert any(refused) and not all(refused)
        unit = [[0.0, 1.0], [1.0, 0.0]]
        for r, out in zip(radii, refused):
            for dom, cod in (([[r, 0.0], [0.0, 1.0]], unit), (unit, [[0.0, 1.0], [0.0, -r]])):
                if out:
                    with pytest.raises(DomainError, match="must lie on the unit sphere"):
                        make_map(dom, cod, ambient=Ambient.SPHERE)
                else:
                    assert make_map(dom, cod, ambient=Ambient.SPHERE).ambient is Ambient.SPHERE


class TestInvertMap:
    def test_golden_scaling(self):
        # 2x on {(1,0),(2,0),(0,0)}: conjugation by inversion is y/2
        m = make_map(
            [[1.0, 0.0], [2.0, 0.0], [0.0, 0.0]],
            [[2.0, 0.0], [4.0, 0.0], [0.0, 0.0]],
            unbounded_domain=True,
        )
        out = invert_map(m)
        assert out.domain.points == pytest.approx(
            np.array([[1.0, 0.0], [0.5, 0.0], [0.0, 0.0]])
        )
        assert out.codomain.points == pytest.approx(
            np.array([[0.5, 0.0], [0.25, 0.0], [0.0, 0.0]])
        )
        assert out.fixes_origin and out.unbounded_domain and not out.avoids_origin

    def test_identity_stays_identity(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(20, 3)) + 5.0
        m = make_map(pts, pts)
        out = invert_map(m)
        assert out.domain.points == pytest.approx(out.codomain.points)

    def test_involution_on_pairs(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(30, 2)) * 3.0
        pts = pts[np.linalg.norm(pts, axis=1) > 0.1]
        m = make_map(pts, 2.0 * pts)
        back = invert_map(invert_map(m))
        assert sorted_rows(back.domain.points) == pytest.approx(
            sorted_rows(m.domain.points), rel=1e-10
        )
        assert sorted_rows(back.codomain.points) == pytest.approx(
            sorted_rows(m.codomain.points), rel=1e-10
        )

    def test_flag_exchange(self):
        m = make_map(
            [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
            [[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]],
            unbounded_domain=False,
        )
        out = invert_map(m)
        assert not out.fixes_origin
        assert out.avoids_origin
        assert out.unbounded_domain

    def test_requires_origin_hypothesis(self):
        m = make_map([[2.0, 0.0], [1e-10, 0.0]], [[4.0, 0.0], [1e-10, 0.0]])
        with pytest.raises(HypothesisError, match="row 1 has domain radius 1e-10 and codomain radius 1e-10"):
            invert_map(m)

    def test_rejects_zero_image(self):
        # a nonzero sample collapsing to 0 leaves the conjugation undefined
        m = make_map(
            [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0], [4.0, 0.0]],
        )
        with pytest.raises(HypothesisError):
            invert_map(m)


    @pytest.mark.parametrize("origin, unbounded", [(True, True), (True, False), (False, True), (False, False)])
    def test_rows_are_the_inverted_samples(self, origin, unbounded):
        rng = np.random.default_rng(10)
        dom = rng.normal(size=(40, 3)) * 10.0 ** rng.uniform(-8, 8, size=(40, 1))
        if origin:
            dom[17] = 0.0
        m = make_map(dom, dom @ rng.normal(size=(3, 3)), unbounded_domain=unbounded)
        keep = m.domain.radii() > 0.0
        out = invert_map(m)
        for got, cloud in ((out.domain, m.domain), (out.codomain, m.codomain)):
            want = invert(cloud.points[keep])
            if unbounded:
                want = np.vstack([want, np.zeros(cloud.dim)])
            assert got.points.tobytes() == want.tobytes()

    def test_memory_is_bounded(self, traced_peak):
        # the two results (3.2 MB) and the checks of the new map, 5.4 MiB; masked copies
        # and an appended (0, 0) row took 10.8 MiB
        m = sample_analytic(registry()["shear"], SamplerConfig(count=10**5, r_min=0.1, r_max=10.0))
        assert m.fixes_origin and m.unbounded_domain
        out, peak = traced_peak(lambda: invert_map(m))
        assert out.n_pairs == m.n_pairs
        assert peak <= 6 * 2**20


class TestCompactifyMap:
    def test_golden_identity_line(self):
        m = make_map(
            [[-1.0], [0.0], [1.0]],
            [[-1.0], [0.0], [1.0]],
            unbounded_domain=True,
        )
        out = compactify_map(m)
        expected = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        assert out.domain.points == pytest.approx(expected, abs=1e-15)
        assert out.codomain.points == pytest.approx(expected, abs=1e-15)
        assert out.ambient is Ambient.SPHERE

    def test_golden_doubling(self):
        m = make_map([[1.0], [2.0]], [[2.0], [4.0]])
        out = compactify_map(m)
        assert out.domain.points == pytest.approx(
            np.array([[1.0, 0.0], [0.8, 0.6]]), rel=1e-14
        )
        assert out.codomain.points == pytest.approx(
            np.array([[0.8, 0.6], [8 / 17, 15 / 17]]), rel=1e-14
        )
        assert out.n_pairs == 2  # bounded: no pole pair

    def test_pole_pair_only_when_unbounded(self):
        m = make_map([[1.0], [2.0]], [[2.0], [4.0]], unbounded_domain=True)
        out = compactify_map(m)
        assert out.n_pairs == 3
        assert out.domain.points[-1] == pytest.approx([0.0, 1.0])
        assert out.codomain.points[-1] == pytest.approx([0.0, 1.0])

    def test_sphere_membership_everywhere(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(50, 3)) * np.exp(rng.uniform(-3, 3, size=(50, 1)))
        m = make_map(pts, 2.0 * pts, unbounded_domain=True)
        out = compactify_map(m)
        for cloud in (out.domain, out.codomain):
            assert np.max(np.abs(cloud.radii() - 1.0)) <= 1e-12


    @pytest.mark.parametrize("unbounded", [True, False])
    def test_rows_are_the_embedded_samples(self, unbounded):
        rng = np.random.default_rng(11)
        dom = rng.normal(size=(40, 2)) * 10.0 ** rng.uniform(-8, 200, size=(40, 1))
        m = make_map(dom, 2.0 * dom, unbounded_domain=unbounded)
        out = compactify_map(m)
        for got, cloud in ((out.domain, m.domain), (out.codomain, m.codomain)):
            want = stereo_embed(cloud.points)
            if unbounded:
                want = np.vstack([want, [0.0, 0.0, 1.0]])
            assert got.points.tobytes() == want.tobytes()

    def test_memory_is_bounded(self, traced_peak):
        # the two results (4.8 MB) and the sphere checks of the new map, 6.7 MiB;
        # masked copies and an appended pole row took 10.1 MiB, |r - 1| arrays 7.6 MiB
        m = sample_analytic(registry()["shear"], SamplerConfig(count=10**5, r_min=0.1, r_max=10.0))
        out, peak = traced_peak(lambda: compactify_map(m))
        assert out.n_pairs == m.n_pairs + 1
        assert peak <= 7 * 2**20


class TestRestrictMap:
    def make(self):
        return make_map(
            [[0.5, 0.0], [1.0, 0.0], [2.0, 0.0]],
            [[1.0, 0.0], [2.0, 0.0], [4.0, 0.0]],
        )

    def test_noop(self):
        m = self.make()
        out = restrict_map(m, 0.0, np.inf)
        assert out.n_pairs == 3

    def test_single_survivor_raises(self):
        with pytest.raises(EmptyRestriction):
            restrict_map(self.make(), 0.9, 1.1)

    def test_half_open_partition(self):
        m = make_map(
            [[0.25, 0.0], [0.5, 0.0], [1.0, 0.0], [2.0, 0.0], [4.0, 0.0]],
            [[0.5, 0.0], [1.0, 0.0], [2.0, 0.0], [4.0, 0.0], [8.0, 0.0]],
        )
        lower = restrict_map(m, 0.0, 1.0)
        upper = restrict_map(m, 1.0, np.inf)
        assert lower.n_pairs + upper.n_pairs == m.n_pairs
        # the radius-1.0 pair belongs to the upper shell
        assert 1.0 in [float(r) for r in upper.domain.radii()]

    def test_bounded_restriction_clears_unbounded(self):
        m = make_map(
            [[0.5, 0.0], [1.0, 0.0], [2.0, 0.0]],
            [[1.0, 0.0], [2.0, 0.0], [4.0, 0.0]],
            unbounded_domain=True,
        )
        assert restrict_map(m, 0.0, 3.0).unbounded_domain is False
        assert restrict_map(m, 0.0, np.inf).unbounded_domain is True

    def test_origin_pair_survives_at_zero_left_edge(self):
        m = make_map(
            [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
            [[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]],
        )
        out = restrict_map(m, 0.0, 1.5)
        assert out.fixes_origin
        assert out.n_pairs == 2

    def test_validates_range(self):
        with pytest.raises(DomainError):
            restrict_map(self.make(), -1.0, 2.0)
        with pytest.raises(DomainError):
            restrict_map(self.make(), 2.0, 2.0)


class TestSampler:
    def test_identity_pairs(self):
        reg = registry()
        m = sample_analytic(reg["identity"], SamplerConfig(count=100, r_min=0.1, r_max=10.0, seed=7))
        assert m.n_pairs == 101  # 100 draws + the origin pair
        assert m.domain.points == pytest.approx(m.codomain.points)

    def test_memory_is_bounded(self, traced_peak):
        # the samples (3.05 MiB) and the checks of the new map, 6.1 MiB;
        # two stacked copies of the domain and np.linalg.norm's copy of the directions took 8.0 MiB
        f, cfg = registry()["shear"], SamplerConfig(count=10**5, r_min=0.1, r_max=10.0)
        m, peak = traced_peak(lambda: sample_analytic(f, cfg))
        assert m.n_pairs == 10**5 + 5  # the draws, four probe rows and the origin pair
        assert peak <= 6.5 * 2**20

    def test_determinism(self):
        f = scaling_analytic(2.0)
        cfg = SamplerConfig(count=64, r_min=0.01, r_max=100.0, seed=123)
        a = sample_analytic(f, cfg)
        b = sample_analytic(f, cfg)
        assert np.array_equal(a.domain.points, b.domain.points)
        assert np.array_equal(a.codomain.points, b.codomain.points)

    def test_radius_range_and_distribution(self):
        f = scaling_analytic(2.0)
        m = sample_analytic(f, SamplerConfig(count=2000, r_min=0.01, r_max=100.0, seed=5))
        assert zero_rows(m) == [2000]
        r = m.domain.radii()[:2000]
        assert r.min() >= 0.01 and r.max() <= 100.0
        # log-uniform: the median log-radius sits near the middle
        mid = np.median(np.log(r))
        assert abs(mid - np.log(1.0)) < 0.5

    def test_domain_clipping(self):
        reg = registry()
        shell = reg["radial-shell-1.25"]
        m = sample_analytic(shell, SamplerConfig(count=100, r_min=0.01, r_max=100.0, seed=3))
        r = m.domain.radii()
        assert r.min() >= 1.0 and r.max() <= 2.0

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dimension_below_one_rejected(self, dim):
        with pytest.raises(DomainError, match=f"directions need dim >= 1, got {dim}"):
            unit_directions(np.random.default_rng(0), 5, dim)
        with pytest.raises(DomainError, match=f"directions need dim >= 1, got {dim}"):
            sample_analytic(scaling_analytic(2.0, dim=dim), SamplerConfig(count=5, r_min=0.1, r_max=1.0))

    def test_disjoint_domain_rejected(self):
        reg = registry()
        shell = reg["radial-shell-1.25"]
        with pytest.raises(DomainError):
            sample_analytic(shell, SamplerConfig(count=10, r_min=5.0, r_max=9.0, seed=0))

    def test_origin_pair_included_on_request(self):
        # the map asks for the pair: it fixes the origin and its domain starts at 0
        f = scaling_analytic(2.0)
        m = sample_analytic(f, SamplerConfig(count=10, r_min=0.1, r_max=1.0, seed=1))
        assert m.fixes_origin
        assert zero_rows(m) == [10]
        assert np.array_equal(m.codomain.points[10], np.zeros(2))

    def test_singular_probes_appended(self):
        reg = registry()
        f = reg["diag-1-3"]
        m = sample_analytic(f, SamplerConfig(count=10, r_min=1.0, r_max=1.0, seed=1))
        assert m.n_pairs == 15  # 10 draws + 2 directions * 2 signs + the origin pair
        expected = []
        for u in f.singular_dirs:
            expected.append(np.asarray(u, dtype=np.float64))
            expected.append(-np.asarray(u, dtype=np.float64))
        assert np.allclose(m.domain.points[10:14], np.array(expected), rtol=0, atol=1e-15)

    # per member: (singular probe rows, origin pair, unbounded domain)
    POLICY = {
        "identity": (0, True, True),
        "scale-0.5": (0, True, True),
        "scale-2": (0, True, True),
        "scale-10": (0, True, True),
        "diag-1-3": (4, True, True),  # 2 singular directions * 2 signs
        "shear": (4, True, True),
        "radial-shell-1": (0, False, False),
        "radial-shell-1.25": (0, False, False),
        "radial-square": (0, True, False),  # [0, 1] holds the origin but is bounded
    }

    def test_each_member_decides_its_own_policy(self):
        reg = registry()
        assert set(reg) == set(self.POLICY)
        for name, (probes, origin, unbounded) in self.POLICY.items():
            m = sample_analytic(reg[name], SamplerConfig(count=10, r_min=1.0, r_max=1.5, seed=1))
            assert m.n_pairs == 10 + probes + origin, name
            assert zero_rows(m) == ([10 + probes] if origin else []), name
            assert m.fixes_origin == origin and m.avoids_origin == (not origin), name
            assert m.unbounded_domain == unbounded, name

    def test_sandwich_against_constant(self):
        reg = registry()
        f = reg["diag-1-3"]
        m = sample_analytic(f, SamplerConfig(count=400, r_min=0.1, r_max=10.0, seed=11))
        d = m.domain.points
        c = m.codomain.points
        iu = np.triu_indices(len(d), k=1)
        dx = np.linalg.norm(d[iu[0]] - d[iu[1]], axis=1)
        dy = np.linalg.norm(c[iu[0]] - c[iu[1]], axis=1)
        ratio = dy / dx
        a = f.bilip_constant
        assert ratio.max() <= a + 1e-9
        assert ratio.min() >= 1.0 / a - 1e-9


class TestRegistry:
    def test_built_once_and_read_only(self):
        first, second = registry(), registry()
        assert first is second
        with pytest.raises(TypeError):
            first["identity"] = first["shear"]
        # the members are shared, so their arrays are frozen too
        with pytest.raises(ValueError, match="read-only"):
            first["shear"].singular_dirs[0][0] = 0.0

    def test_minimum_contents(self):
        reg = registry()
        for name in (
            "identity",
            "scale-0.5",
            "scale-2",
            "scale-10",
            "diag-1-3",
            "shear",
            "radial-shell-1",
            "radial-shell-1.25",
            "radial-square",
        ):
            assert name in reg

    def test_shear_constant_matches_closed_form(self):
        # independent oracle (SVD) against the hand-derived (1+sqrt(17))/4
        shear = registry()["shear"]
        assert shear.bilip_constant == pytest.approx((1 + np.sqrt(17)) / 4, rel=1e-12)

    def test_scaling_constants(self):
        reg = registry()
        assert reg["scale-0.5"].bilip_constant == 2.0
        assert reg["scale-2"].bilip_constant == 2.0
        assert reg["scale-10"].bilip_constant == 10.0

    def test_radial_constants(self):
        reg = registry()
        assert reg["radial-shell-1"].bilip_constant == pytest.approx(1.0)
        assert reg["radial-shell-1.25"].bilip_constant == pytest.approx(1.25 * 2**0.25)

    def test_non_example_flagged(self):
        f = registry()["radial-square"]
        assert f.bilip_constant is None
        assert sample_analytic(f, SamplerConfig(count=10, r_min=0.1, r_max=1.0)).fixes_origin

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_merged_members_sample_their_reference_formulas(self, seed):
        reg = registry()
        cfg = SamplerConfig(count=300, r_min=1e-2, r_max=1e2, seed=seed)
        for name, factor in (("identity", 1.0), ("scale-0.5", 0.5), ("scale-2", 2.0), ("scale-10", 10.0)):
            m = sample_analytic(reg[name], cfg)
            assert m.n_pairs == 301, name  # the draws and the origin pair, no probe rows
            assert np.array_equal(m.codomain.points, factor * m.domain.points), name
        m = sample_analytic(reg["radial-square"], cfg)
        d = m.domain.points
        assert np.array_equal(m.codomain.points, norms(d)[:, None] * d)

    def test_non_finite_matrix_rejected_before_the_svd(self):
        with pytest.raises(DomainError, match="non-finite"):
            linear_analytic("bad", [[np.inf, 0.0], [0.0, 1.0]])

    def test_evaluators_vectorized(self):
        reg = registry()
        pts = np.array([[1.0, 0.0], [1.5, 0.5]])
        for name, f in reg.items():
            out = f.func(pts)
            assert out.shape == (2, f.dim_out), name


class TestAnalyticSandwichProperty:
    # shells reaching inside the unit circle, where the contraction r_lo^(1-t)
    # is the constant: each once stated only the expansion t r_hi^(t-1)
    INNER_SHELLS = [(1.25, 0.01, 2.0), (1.5, 0.1, 1.0), (2.0, 0.05, 0.5)]

    def test_all_known_constants_hold_on_samples(self):
        shells = [radial_power_analytic(*args) for args in self.INNER_SHELLS]
        rng_seed = 17
        for f in [*registry().values(), *shells]:
            if f.bilip_constant is None:
                continue
            lo, hi = f.domain_radii
            cfg = SamplerConfig(
                count=200,
                r_min=max(lo, 0.05),
                r_max=min(hi, 20.0),
                seed=rng_seed,
            )
            m = sample_analytic(f, cfg)
            d = m.domain.points
            c = m.codomain.points
            iu = np.triu_indices(len(d), k=1)
            dx = np.linalg.norm(d[iu[0]] - d[iu[1]], axis=1)
            dy = np.linalg.norm(c[iu[0]] - c[iu[1]], axis=1)
            keep = dx > 1e-12
            ratio = dy[keep] / dx[keep]
            a = f.bilip_constant
            assert ratio.max() <= a + 1e-9, (f.name, f.domain_radii)
            assert ratio.min() >= 1.0 / a - 1e-9, (f.name, f.domain_radii)
