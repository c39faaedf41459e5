"""Distortion estimation: frozen ratios, strategy behavior, bounds."""

import contextlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bilip import distortion
from bilip.errors import DegenerateMap, DomainError
from bilip.geometry import PointCloud
from bilip.distortion import AllPairs, SeededRandom, estimate_bilip, radial_comparability
from bilip.fixtures import map_samples
from bilip.maps import SampledMap, SamplerConfig, compactify_map, invert_map, registry, sample_analytic


def make_map(domain, codomain, **options) -> SampledMap:
    return SampledMap(
        domain=PointCloud(np.asarray(domain, dtype=float)),
        codomain=PointCloud(np.asarray(codomain, dtype=float)),
        **options,
    )


def walk_blocks(size: int | None):
    """The walk's AllPairs bands and SeededRandom blocks both of ``size`` pairs; as shipped when None."""
    if size is None:
        return contextlib.nullcontext()
    return mock.patch.multiple(distortion, _BLOCK_PAIRS=size, _BLOCK_DRAWS=size)


def random_cloud(seed: int, n: int, q: int, lo: float = 0.1, hi: float = 10.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n, q))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs * np.exp(rng.uniform(np.log(lo), np.log(hi), size=(n, 1)))


class TestEstimate:
    def test_identity_constant_one(self):
        pts = random_cloud(1, 50, 3)
        rep = estimate_bilip(make_map(pts, pts))
        assert rep.l_expand == 1.0
        assert rep.l_contract == 1.0
        assert rep.bilip_constant == 1.0

    def test_doubling_frozen(self):
        pts = random_cloud(2, 40, 2)
        rep = estimate_bilip(make_map(pts, 2.0 * pts))
        assert rep.l_expand == pytest.approx(2.0, rel=1e-15)
        assert rep.l_contract == pytest.approx(0.5, rel=1e-15)
        assert rep.bilip_constant == pytest.approx(2.0, rel=1e-15)

    def test_consistency_invariant(self):
        pts = random_cloud(3, 60, 2)
        shear = pts @ np.array([[1.0, 0.0], [0.5, 1.0]]).T
        rep = estimate_bilip(make_map(pts, shear))
        assert rep.l_expand >= 1.0 / rep.l_contract * (1.0 - 1e-12)
        assert rep.bilip_constant >= 1.0

    def test_shear_attains_constant_with_probes(self):
        f = registry()["shear"]
        cfg = SamplerConfig(count=1995, r_min=0.1, r_max=10.0, seed=4)  # + 4 probes + origin
        m = sample_analytic(f, cfg)
        rep = estimate_bilip(m, AllPairs())
        assert m.n_pairs == 2000
        assert rep.bilip_constant == pytest.approx(f.bilip_constant, abs=1e-6)
        assert rep.bilip_constant <= f.bilip_constant + 1e-9

    def test_all_pairs_budget_enforced(self):
        # 8 samples name 28 pairs: within a budget of 28, one pair over a budget of 27
        pts = random_cloud(5, 8, 2)
        with mock.patch.object(distortion, "PAIR_BUDGET", 28):
            assert estimate_bilip(make_map(pts, pts), AllPairs()).pairs_evaluated == 28
        with mock.patch.object(distortion, "PAIR_BUDGET", 27):
            with pytest.raises(DomainError, match="8 samples give 28 pairs, over the pair budget 27"):
                estimate_bilip(make_map(pts, pts), AllPairs())

    def test_seeded_random_budget_enforced(self):
        pts = random_cloud(5, 8, 2)
        with mock.patch.object(distortion, "PAIR_BUDGET", 100):
            rep = estimate_bilip(make_map(pts, pts), SeededRandom(samples=100, seed=0))
            assert rep.pairs_evaluated + rep.pairs_skipped + rep.pairs_self == 100
            with pytest.raises(DomainError, match="101 sampled pairs exceed the pair budget 100"):
                estimate_bilip(make_map(pts, pts), SeededRandom(samples=101, seed=0))

    def test_coincident_pairs_skipped_and_counted(self):
        pts = np.array([[1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        rep = estimate_bilip(make_map(pts, pts))
        assert rep.pairs_skipped == 1
        assert rep.pairs_evaluated == 2
        assert rep.pairs_self == 0

    def test_self_pairs_are_counted(self):
        # two samples: a draw names the same index twice with probability 1/2
        pts = np.array([[1.0, 0.0], [2.0, 0.0]])
        rep = estimate_bilip(make_map(pts, pts), SeededRandom(samples=1000, seed=0))
        assert 400 < rep.pairs_self < 600
        assert rep.pairs_evaluated + rep.pairs_skipped + rep.pairs_self == 1000

    def test_zero_rows_and_tiny_radii_follow_the_relative_floor(self):
        # the two zero rows (0, 1) are skipped, and so are (2, 3), 2^-44 apart at radius 1e-300;
        # every zero row against a point at radius 1e-300 is kept, though its squares underflow
        tiny = np.array([[0.0, 0.0], [0.0, 0.0], [1e-300, 0.0], [1e-300 * (1.0 + 2.0**-44), 0.0]])
        for strategy in (AllPairs(), SeededRandom(samples=200, seed=0)):
            rep = estimate_bilip(make_map(tiny, 2.0 * tiny), strategy)
            assert (rep.l_expand, rep.l_contract, rep.bilip_constant) == (2.0, 0.5, 2.0)
            assert rep.witness_expand == rep.witness_contract == (0, 2)
            if strategy == AllPairs():
                assert (rep.pairs_evaluated, rep.pairs_skipped) == (4, 2)

    def test_degenerate_map(self):
        pts = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DegenerateMap, match="coincident in the domain"):
            estimate_bilip(make_map(pts, pts))

    def test_self_pair_draws_are_named(self):
        # two distinct samples, but the single pair seed 0 draws is (1, 1)
        pts = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(DegenerateMap, match=r"self-pairs \(i == j\); samples=1"):
            estimate_bilip(make_map(pts, pts), SeededRandom(samples=1, seed=0))

    def test_infinite_contract_on_codomain_collision(self):
        dom = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        cod = np.array([[1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        rep = estimate_bilip(make_map(dom, cod))
        assert rep.l_contract == np.inf
        assert rep.bilip_constant == np.inf
        assert rep.witness_contract == (0, 1)

    def test_witness_lexicographic_tie_break(self):
        # two pairs attain ratio 1 exactly; (0,1) beats (1,2)
        dom = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        rep = estimate_bilip(make_map(dom, dom))
        assert rep.witness_expand == (0, 1)
        assert rep.witness_contract == (0, 1)

    def test_seeded_random_deterministic(self):
        pts = random_cloud(6, 500, 3)
        m = make_map(pts, 2.0 * pts)
        a = estimate_bilip(m, SeededRandom(samples=10_000, seed=42))
        b = estimate_bilip(m, SeededRandom(samples=10_000, seed=42))
        assert a == b

    def test_sphere_ambient_chordal(self):
        from bilip.maps import compactify_map

        pts = random_cloud(7, 30, 2)
        m = compactify_map(make_map(pts, pts, unbounded_domain=True))
        rep = estimate_bilip(m)
        assert rep.bilip_constant == 1.0


def drawn_pairs(n: int, strategy: SeededRandom) -> list[tuple[int, int]]:
    """The distinct-index pairs a SeededRandom strategy draws, as (min, max), in draw order."""
    rng = np.random.default_rng(strategy.seed)
    a = rng.integers(0, n, size=strategy.samples)
    b = rng.integers(0, n, size=strategy.samples)
    return [(min(x, y), max(x, y)) for x, y in zip(a.tolist(), b.tolist()) if x != y]


def row_norm(v: np.ndarray) -> float:
    """|v| from its squares added one by one in index order, the kernel's rule for any q."""
    total = 0.0
    for x in v.tolist():
        total += x * x
    return math.sqrt(total)


def per_pair_reference(m: SampledMap, pairs) -> dict | None:
    """The report's fields from one pass over the pairs, or None if no pair is kept."""
    dom, cod, r = m.domain.points, m.codomain.points, m.domain.radii()
    kept, skipped = [], 0
    for i, j in pairs:
        dx = row_norm(dom[i] - dom[j])
        if dx <= distortion.COINCIDENCE_EPSILON * max(r[i], r[j]):
            skipped += 1
            continue
        dy = row_norm(cod[i] - cod[j])
        kept.append((dy / dx, math.inf if dy == 0.0 else dx / dy, (i, j)))
    if not kept:
        return None
    l_expand = max(e for e, _, _ in kept)
    l_contract = max(c for _, c, _ in kept)
    return {
        "l_expand": l_expand,
        "l_contract": l_contract,
        "witness_expand": min(p for e, _, p in kept if e == l_expand),
        "witness_contract": min(p for _, c, p in kept if c == l_contract),
        "pairs_evaluated": len(kept),
        "pairs_skipped": skipped,
    }


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    q=st.integers(1, 20),
    lattice=st.booleans(),
    drawn=st.booleans(),
    block=st.sampled_from((1, 3, None)),
)
def test_walk_matches_per_pair_reference(seed, n, q, lattice, drawn, block):
    rng = np.random.default_rng(seed)
    if lattice:  # small integer points: exact ties, coincident rows and codomain collisions
        dom = rng.integers(-1, 2, size=(n, q)).astype(float)
        cod = dom @ rng.integers(-1, 2, size=(q, q)).astype(float)
    else:
        dom = rng.normal(size=(n, q)) * np.exp(rng.normal(size=(n, 1)))
        cod = np.tanh(dom) * 3.0
        copies = rng.integers(0, n, size=(2, n // 4))
        dom[copies[0]] = dom[copies[1]]  # coincident domain rows
        cod[copies[1][::-1]] = cod[copies[0]]  # codomain collisions
    m = make_map(dom, cod)
    strategy = SeededRandom(samples=int(rng.integers(1, 3 * n * n)), seed=seed) if drawn else AllPairs()
    pairs = drawn_pairs(n, strategy) if drawn else list(itertools.combinations(range(n), 2))
    want = per_pair_reference(m, pairs)
    with walk_blocks(block):
        if want is None:
            with pytest.raises(DegenerateMap):
                estimate_bilip(m, strategy)
            return
        rep = estimate_bilip(m, strategy)
    got = {name: getattr(rep, name) for name in want}
    assert got == want
    assert [type(value) for value in got.values()] == [type(value) for value in want.values()]
    assert rep.pairs_self == (strategy.samples - len(pairs) if drawn else 0)
    assert rep.bilip_constant == max(want["l_expand"], want["l_contract"])


@pytest.mark.parametrize("q", [8, 9, 127, 128, 129, 300])
@pytest.mark.parametrize("drawn", [False, True], ids=["all", "random"])
def test_wide_rows_match_per_pair_reference(q, drawn):
    # q = 8 is the first width where index order and numpy's pairwise row sum can
    # differ; 127..129 straddle numpy's 128-wide blocks and 300 its split in halves
    rng = np.random.default_rng(q)
    dom = rng.normal(size=(12, q)) * np.exp(rng.normal(size=(12, q)))
    m = make_map(dom, np.tanh(dom) * 3.0)
    strategy = SeededRandom(samples=50, seed=q) if drawn else AllPairs()
    pairs = drawn_pairs(12, strategy) if drawn else list(itertools.combinations(range(12), 2))
    want = per_pair_reference(m, pairs)
    rep = estimate_bilip(m, strategy)
    assert {name: getattr(rep, name) for name in want} == want


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(("shear", "diag-1-3", "radial-shell-1.25", "scale-10")),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-1013, 999),
    drawn=st.booleans(),
    block=st.sampled_from((1, None)),
)
def test_scaled_map_gives_the_unscaled_report(name, seed, k, drawn, block):
    # squares of distances below 2^-240 underflow and above 2^512 overflow; the floor is relative
    m = map_samples(name, count=35, seed=seed)
    assert m.n_pairs <= 40
    # a coordinate, difference or distance scaled below 2^-1022 is a subnormal float and
    # keeps fewer than 53 bits, so only scalings that keep each of them normal are exact
    parts = [np.abs(p[:, None] - p[None, :]).ravel() for p in (m.domain.points, m.codomain.points)]
    parts += [np.abs(m.domain.points).ravel(), np.abs(m.codomain.points).ravel()]
    magnitudes = np.concatenate(parts)
    assume(np.ldexp(magnitudes[magnitudes > 0.0].min(), k) >= 2.0**-1022)
    scaled = make_map(np.ldexp(m.domain.points, k), np.ldexp(m.codomain.points, k))
    strategy = SeededRandom(samples=300, seed=seed) if drawn else AllPairs()
    with walk_blocks(block):
        assert estimate_bilip(scaled, strategy) == estimate_bilip(m, strategy)


class TestWalk:
    def test_tied_pair_drawn_first_loses_to_the_smaller_pair(self):
        # every pair of three collinear, evenly spaced samples has ratio 1
        dom = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        strategy = SeededRandom(samples=20, seed=1)
        pairs = drawn_pairs(3, strategy)
        assert pairs[0] > (0, 1) and (0, 1) in pairs
        for block in (1, None):
            with walk_blocks(block):
                rep = estimate_bilip(make_map(dom, dom), strategy)
            assert rep.witness_expand == rep.witness_contract == (0, 1)
            assert rep.pairs_evaluated == len(pairs)

    def test_all_pairs_memory_is_bounded(self, traced_peak):
        # no pair list: one band of 2^15 pairs, 1.7 MiB;
        # an index list of every pair alone takes 32 MB at n = 2000
        pts = random_cloud(22, 2000, 3)
        rep, peak = traced_peak(lambda: estimate_bilip(make_map(pts, 2.0 * pts), AllPairs()))
        assert rep.pairs_evaluated == 2000 * 1999 // 2
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("name, constant", [("identity", 1.0), ("scale-2", 2.0)])
    def test_conformal_maps_tie_at_every_pair(self, traced_peak, name, constant):
        # every pair ties at the top, and a band's first hit is its witness: 1.5 MiB,
        # where an index per tied pair took 4.6 MiB
        m = map_samples(name, 1990)
        rep, peak = traced_peak(lambda: estimate_bilip(m, AllPairs()))
        assert rep.bilip_constant == constant
        assert rep.witness_expand == rep.witness_contract == (0, 1)
        assert peak <= 2 * 2**20

    @staticmethod
    def assert_seeded_random_peak(traced_peak, q: int):
        pts = random_cloud(23, 10**5, q)
        m = make_map(pts, 2.0 * pts)
        rep, peak = traced_peak(lambda: estimate_bilip(m, SeededRandom(samples=10**6, seed=0)))
        assert rep.pairs_evaluated + rep.pairs_skipped > 0.99 * 10**6
        assert peak < 3 * 2**20

    def test_seeded_random_memory_is_bounded(self, traced_peak):
        # the radii floor (0.8 MB) and the temporaries of one block of 2^14 draws, 2.4 MiB;
        # whole draw arrays took 8 MB more as int32, 16 MB as int64
        self.assert_seeded_random_peak(traced_peak, 2)

    def test_seeded_random_memory_is_bounded_at_q3(self, traced_peak):
        # 2.4 MiB; copies of both point sets add 4.8 MB, blocks of 2^16 draws 4 MB
        self.assert_seeded_random_peak(traced_peak, 3)

    def test_seeded_random_memory_does_not_grow_with_the_draws(self, traced_peak):
        # draws come in blocks: 4x the draws may not hold more (whole draw arrays took 24 MB more)
        pts = random_cloud(24, 1000, 2)
        m = make_map(pts, 2.0 * pts)
        few, many = (traced_peak(lambda: estimate_bilip(m, SeededRandom(samples=s, seed=0)))[1]
                     for s in (2**20, 2**22))
        assert many <= few + 64 * 2**10

    @pytest.mark.parametrize("n", [2, 3, 1990, 100005, 100006, 5 * 10**6, 2**31 - 1])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_int32_draws_are_the_int64_draws(self, n, seed):
        # the walk draws int32 indices: numpy serves every range below 2^32 from one buffered
        # 32-bit stream whatever the dtype, so they are the int64 draws, call after call
        narrow, wide = np.random.default_rng(seed), np.random.default_rng(seed)
        for size in (1, 7, 10**5, 10**6, 99_999):
            drawn = narrow.integers(0, n, size=size, dtype=np.int32)
            assert drawn.dtype == np.int32
            assert np.array_equal(drawn, wide.integers(0, n, size=size))

    @pytest.mark.parametrize("n", [2, 3, 2**31 - 1, 2**31, 2**33 + 7])
    @pytest.mark.parametrize("block, counts", [(1, (1, 2, 29)), (3, (1, 5, 100)),
                                               (2**14, (1, 7, 2**14 + 5, 3 * 2**14 - 1))])
    def test_draw_blocks_are_the_one_call_draws(self, n, block, counts):
        # the second stream starts where the first ends, after any draws Lemire's method
        # rejected; int32 blocks below 2^31, int64 above, and 2^33 + 7 takes 64-bit draws
        for samples, seed in zip(counts, itertools.cycle((0, 1, 7))):
            rng = np.random.default_rng(seed)
            want = rng.integers(0, n, size=samples), rng.integers(0, n, size=samples)
            with walk_blocks(block):
                blocks = list(distortion._draw_blocks(n, samples, seed))
            assert [len(a) for a, _ in blocks] == [len(b) for _, b in blocks]
            assert max(len(a) for a, _ in blocks) == min(block, samples)
            assert {a.dtype for pair in blocks for a in pair} == {np.dtype(np.int32 if n < 2**31 else np.int64)}
            for k in (0, 1):
                assert np.array_equal(np.concatenate([pair[k] for pair in blocks]), want[k])

    def test_witnesses_past_index_46341(self):
        # i*n + j passes 2^31 here, so a key formed in int32 would wrap and name other pairs
        n = 50_000
        strategy = SeededRandom(samples=20_000, seed=3)
        pairs = drawn_pairs(n, strategy)
        (i, j), (k, l) = [p for p in pairs if p[0] > 46341][:2]
        assert len({i, j, k, l}) == 4
        dom = random_cloud(24, n, 2)
        cod = 2.0 * dom
        dom[j] = dom[i] + [1e-6, 0.0]
        cod[j] = cod[i] + [1.0, 0.0]  # expands by 1e6
        cod[l] = cod[k] + [1e-6, 0.0]  # contracts by about 1e6
        m = make_map(dom, cod)
        rep = estimate_bilip(m, strategy)
        assert (rep.witness_expand, rep.witness_contract) == ((i, j), (k, l))
        want = per_pair_reference(m, pairs)
        assert {name: getattr(rep, name) for name in want} == want

    def test_distance_beyond_the_float_range_raises(self):
        # |1.5e308 - (-1.5e308)| overflows even after the power-of-two rescaling
        far = np.array([[1.5e308, 0.0], [-1.5e308, 0.0], [2.0, 0.0]])
        near = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0]])
        for domain, codomain in ((far, far), (near, far)):
            for strategy in (AllPairs(), SeededRandom(samples=50, seed=0)):
                with pytest.raises(DomainError, match=r"pair \(0, 1\) exceeds the float range"):
                    estimate_bilip(make_map(domain, codomain), strategy)

    def test_skipped_pair_may_lie_beyond_the_float_range(self):
        # the coincident domain pair (0, 1) is skipped, so its image distance is never used
        dom = np.array([[1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        cod = np.array([[1.5e308, 0.0], [-1.5e308, 0.0], [2.0, 0.0]])
        report = estimate_bilip(make_map(dom, cod))
        assert (report.pairs_evaluated, report.pairs_skipped) == (2, 1)


class TestProperties:
    def test_monotonicity_nested_subsets(self):
        pts = random_cloud(8, 80, 2)
        cod = pts @ np.array([[1.0, 0.0], [0.5, 1.0]]).T
        prev_expand = prev_contract = 0.0
        for n in (10, 20, 40, 80):
            rep = estimate_bilip(make_map(pts[:n], cod[:n]))
            assert rep.l_expand >= prev_expand
            assert rep.l_contract >= prev_contract
            prev_expand, prev_contract = rep.l_expand, rep.l_contract

    def test_symmetry_swap(self):
        pts = random_cloud(9, 60, 2)
        cod = pts @ np.array([[2.0, 0.0], [0.0, 0.5]]).T
        fwd = estimate_bilip(make_map(pts, cod))
        bwd = estimate_bilip(make_map(cod, pts))
        assert fwd.l_expand == bwd.l_contract
        assert fwd.l_contract == bwd.l_expand

    def test_scale_equivariance(self):
        pts = random_cloud(10, 50, 3)
        cod = 1.7 * pts
        base = estimate_bilip(make_map(pts, cod))
        scaled = estimate_bilip(make_map(3.0 * pts, cod))
        assert scaled.l_contract == pytest.approx(3.0 * base.l_contract, rel=1e-12)
        assert scaled.l_expand == pytest.approx(base.l_expand / 3.0, rel=1e-12)

    def test_linear_constants_attained_within_two_percent(self):
        reg = registry()
        for name in ("diag-1-3", "shear"):
            f = reg[name]
            cfg = SamplerConfig(count=1995, r_min=0.1, r_max=10.0, seed=12)
            rep = estimate_bilip(sample_analytic(f, cfg), AllPairs())
            assert rep.bilip_constant == pytest.approx(f.bilip_constant, rel=0.02), name
            assert rep.bilip_constant <= f.bilip_constant + 1e-9, name


class TestRadial:
    def test_identity(self):
        pts = random_cloud(13, 30, 2)
        rep = radial_comparability(make_map(pts, pts))
        assert rep.max_ratio == rep.min_ratio == 1.0

    def test_doubling(self):
        pts = random_cloud(14, 30, 2)
        rep = radial_comparability(make_map(pts, 2.0 * pts))
        assert rep.max_ratio == pytest.approx(2.0, rel=1e-15)
        assert rep.min_ratio == pytest.approx(2.0, rel=1e-15)

    def test_origin_pair_skipped(self):
        dom = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        cod = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
        rep = radial_comparability(make_map(dom, cod))
        assert rep.points == 2

    def test_inverted_shear_within_cube_sandwich(self):
        f = registry()["shear"]
        m = sample_analytic(f, SamplerConfig(count=300, r_min=0.5, r_max=2.0, seed=15))
        rep = radial_comparability(invert_map(m))
        a3 = f.bilip_constant**3
        assert rep.max_ratio <= a3 + 1e-9
        assert rep.min_ratio >= 1.0 / a3 - 1e-9


class TestCubeBound:
    """Inversion keeps a bi-Lipschitz map fixing 0 under the cube of its constant."""

    @staticmethod
    def inverted(name, cfg):
        """(constant of the inverted sample, cube of the map's known constant)."""
        f = registry()[name]
        return estimate_bilip(invert_map(sample_analytic(f, cfg))).bilip_constant, f.bilip_constant**3

    def test_doubling(self):
        constant, bound = self.inverted("scale-2", SamplerConfig(count=200, r_min=0.1, r_max=10.0, seed=16))
        assert bound == 8.0
        assert constant == pytest.approx(2.0, rel=1e-12)
        assert constant <= bound + 1e-6

    def test_identity(self):
        constant, bound = self.inverted("identity", SamplerConfig(count=200, r_min=0.1, r_max=10.0, seed=17))
        assert constant == 1.0
        assert constant <= bound + 1e-6

    def test_diag_bound(self):
        constant, bound = self.inverted("diag-1-3", SamplerConfig(count=400, r_min=0.1, r_max=10.0, seed=18))
        assert bound == 27.0
        assert constant <= bound + 1e-6


class TestCompareCompactified:
    """A map and its stereographic compactification, estimated side by side."""

    def test_identity_line(self):
        m = make_map(
            [[-1.0], [0.0], [1.0]],
            [[-1.0], [0.0], [1.0]],
            unbounded_domain=True,
        )
        original, compactified = estimate_bilip(m), estimate_bilip(compactify_map(m))
        assert original.bilip_constant == 1.0
        assert compactified.bilip_constant == 1.0

    def test_doubling_both_finite(self):
        f = registry()["scale-2"]
        cfg = SamplerConfig(count=300, r_min=0.01, r_max=100.0, seed=20)
        m = sample_analytic(f, cfg)
        original, compactified = estimate_bilip(m), estimate_bilip(compactify_map(m))
        assert np.isfinite(original.bilip_constant)
        assert np.isfinite(compactified.bilip_constant)

    def test_non_example_contract_divergence(self):
        f = registry()["radial-square"]
        reports = {}
        for t_min in (1e-2, 1e-4):
            cfg = SamplerConfig(count=300, r_min=t_min, r_max=1.0, seed=21)
            m = sample_analytic(f, cfg)
            reports[t_min] = (estimate_bilip(m), estimate_bilip(compactify_map(m)))
        assert reports[1e-4][0].l_contract >= 2.0 * reports[1e-2][0].l_contract
        assert reports[1e-4][1].l_contract >= 2.0 * reports[1e-2][1].l_contract
