"""Empirical bi-Lipschitz constants from extremal pairwise ratios.

The expansion constant is the largest |f(x)-f(x')| / |x-x'| over the
evaluated pairs, the contraction constant the largest reciprocal ratio;
their max is the empirical bi-Lipschitz constant, which only ever
underestimates the true one.  Distances are Euclidean in the stored
coordinates, which on sphere-ambient maps is exactly the chordal metric.

One kernel serves both strategies.  It walks blocks of pairs over
coordinate-major views of the two point sets, so no list of pairs is
ever built and no point is copied: AllPairs holds one band of about 2^15
pairs (a peak of 1.5 MiB at 2000 samples in the plane), SeededRandom one
block of 2^14 draws from each of two generators whatever the number of
draws (a peak of 2.4 MiB at 1e5 samples in the plane, their radii
included); neither names more than PAIR_BUDGET pairs.  A maximum tied
at many pairs costs an AllPairs band one argmax: its witness is the
band's first hit in row-major order, which is the order of the pairs.
Squares are summed by ``geometry.sum_squares``.  Every rule is relative,
so a report keeps its bits when both point sets are scaled by 2^k and
distances stay normal: pairs within COINCIDENCE_EPSILON * max(r_i, r_j)
are coincident, and out-of-range squares are rescaled exactly.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, NamedTuple, Union

import numpy as np

from .errors import DegenerateMap, DomainError
from .geometry import sum_squares
from .maps import SampledMap

# domain pairs no farther apart than eps * max(r_i, r_j) are skipped: relative at every
# radius, so scaling a map by 2^k skips the same pairs; two zero rows are always skipped
COINCIDENCE_EPSILON = 1e-12
# 2-core Xeon: AllPairs at n = 5793 takes 0.25 s, 2^24 random draws on 1e5 samples 1.5-1.8 s and 2.4 MiB
PAIR_BUDGET = 2**24
DEFAULT_RANDOM_PAIRS = 10**6
# AllPairs walks row bands of about _BLOCK_PAIRS pairs, SeededRandom blocks of _BLOCK_DRAWS
# draws; each bounds its block's temporaries for any n.  Bands of 2^15 pairs hold half the
# temporaries of 2^16 (a peak of 1.5 MiB, not 2.8, at n = 1995) in the same time at n = 1990
# and n = 5793; bands of 2^14 would cost 5 % and 25 % there in per-band overhead.  Blocks of
# 2^14 draws cost SeededRandom no time and hold 3.7 MiB less than blocks of 2^16
_BLOCK_PAIRS = 2**15
_BLOCK_DRAWS = 2**14


@dataclasses.dataclass(frozen=True)
class AllPairs:
    """Evaluate every unordered pair of a map whose n(n-1)/2 pairs fit in PAIR_BUDGET."""


@dataclasses.dataclass(frozen=True)
class SeededRandom:
    """Evaluate a fixed number, at most PAIR_BUDGET, of seeded random pairs (with replacement)."""

    samples: int = DEFAULT_RANDOM_PAIRS
    seed: int = 0


PairStrategy = Union[AllPairs, SeededRandom]


@dataclasses.dataclass(frozen=True)
class DistortionReport:
    """Extremal ratios with witnessing pair indices.

    ``witness_expand`` and ``witness_contract`` are (i, j) sample
    indices of the map, i < j, ties broken by smallest lexicographic
    pair.  An infinite ``l_contract`` records a codomain collision
    between distinct domain samples ("not injective at sample scale").
    ``pairs_self`` counts the SeededRandom draws with i == j, which are
    neither evaluated nor skipped (always 0 for AllPairs), so
    ``pairs_evaluated + pairs_skipped + pairs_self`` is the number of
    pairs the strategy names.
    """

    l_expand: float
    l_contract: float
    bilip_constant: float
    witness_expand: tuple[int, int]
    witness_contract: tuple[int, int]
    pairs_evaluated: int
    pairs_skipped: int
    pairs_self: int


class RadialReport(NamedTuple):
    """Range of |f(x)|/|x| over the usable (nonzero) samples."""

    max_ratio: float
    min_ratio: float
    points: int


def _pair_blocks(
    n: int, strategy: PairStrategy
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
    """The strategy's pairs i < j as blocks (i, j, valid).

    ``i`` and ``j`` broadcast to the block's shape and ``valid``, when not
    None, masks the pairs the block holds.  AllPairs blocks are row bands
    of the upper triangle, rows s:e against columns s+1:n, with about
    _BLOCK_PAIRS entries; SeededRandom blocks are _BLOCK_DRAWS draws with
    their self-pairs removed.  The budget checks raise at the first next(),
    the check that some draw is not a self-pair after the last block.
    """
    if isinstance(strategy, AllPairs):
        pairs = n * (n - 1) // 2
        if pairs > PAIR_BUDGET:
            raise DomainError(f"{n} samples give {pairs} pairs, over the pair budget {PAIR_BUDGET}; use SeededRandom")
        start = 0
        while start < n - 1:
            stop = min(n - 1, start + max(1, _BLOCK_PAIRS // (n - 1 - start)))
            i, j = np.arange(start, stop)[:, None], np.arange(start + 1, n)
            yield i, j, j > i
            start = stop
    elif isinstance(strategy, SeededRandom):
        if strategy.samples < 1:
            raise DomainError("need at least one sampled pair")
        if strategy.samples > PAIR_BUDGET:
            raise DomainError(f"{strategy.samples} sampled pairs exceed the pair budget {PAIR_BUDGET}")
        distinct = False
        for a, b in _draw_blocks(n, strategy.samples, strategy.seed):
            keep = a != b
            distinct = distinct or bool(keep.any())
            # intp indices: gathers need no cast, and the key i*n + j cannot overflow
            yield (np.minimum(a, b)[keep].astype(np.intp),
                   np.maximum(a, b)[keep].astype(np.intp), None)
        if not distinct:
            raise DegenerateMap(
                f"all drawn pairs were self-pairs (i == j); samples={strategy.samples}"
            )
    else:
        raise DomainError(f"unknown pair strategy: {strategy!r}")


def _draw_blocks(n: int, samples: int, seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The draws ``a = rng.integers(0, n, samples)``, then ``b`` alike, of
    ``rng = np.random.default_rng(seed)``, as blocks (a[s:e], b[s:e]) of
    _BLOCK_DRAWS draws, bit for bit.

    A bounded draw is Lemire's method on a stream that each call continues
    where the last one stopped, so blocks of draws are the one-call draws.
    The stream of ``b`` starts where ``a`` ends, which depends on how many
    draws Lemire's method rejected; so ``b`` comes from a second generator
    seeded alike that first draws and drops ``samples`` draws, in blocks.
    """
    # below 2^32 numpy draws every integer dtype from one 32-bit stream, so int32
    # draws are the int64 draws in half the memory
    dtype = np.int32 if n < 2**31 else np.int64
    first, second = np.random.default_rng(seed), np.random.default_rng(seed)
    sizes = [min(_BLOCK_DRAWS, samples - start) for start in range(0, samples, _BLOCK_DRAWS)]
    for size in sizes:
        second.integers(0, n, size=size, dtype=dtype)
    for size in sizes:
        yield first.integers(0, n, size=size, dtype=dtype), second.integers(0, n, size=size, dtype=dtype)


def _distances(w: np.ndarray, i: np.ndarray, j: np.ndarray, counted: np.ndarray | None) -> np.ndarray:
    """|w_i - w_j| over a block, for w the transposed view (q, n) of an (n, q) point array.

    A pair that ``counted`` marks (every pair when None) whose distance is
    infinite or below 2^-240 is recomputed from its differences scaled by
    the power of two of their largest magnitude: squares that overflowed or
    underflowed get the bits they have at a scale that needs no rescaling.
    A counted pair still beyond the float range raises DomainError.
    """
    with np.errstate(over="ignore", under="ignore"):
        d = np.sqrt(sum_squares(w[k][i] - w[k][j] for k in range(len(w))))
    redo = (d < 2.0**-240) | (d == np.inf)
    if counted is not None:
        redo &= counted
    if redo.any():
        ib, jb = (x[redo] for x in np.broadcast_arrays(i, j))
        with np.errstate(over="ignore"):
            diff = w[:, ib] - w[:, jb]
        exp = np.frexp(np.abs(diff).max(axis=0))[1]  # 0 for a zero difference
        d[redo] = np.ldexp(np.sqrt(sum_squares(np.ldexp(diff, -exp))), exp)
        over = np.isinf(d[redo])
        if over.any():
            k = over.argmax()
            raise DomainError(f"the distance of pair ({ib[k]}, {jb[k]}) exceeds the float range")
    return d


def estimate_bilip(m: SampledMap, strategy: PairStrategy = AllPairs()) -> DistortionReport:
    """Empirical bi-Lipschitz constant of a sampled map.

    Pairs no farther apart in the domain than COINCIDENCE_EPSILON *
    max(r_i, r_j) are skipped and counted, never silently dropped.  The
    result is a pure function of the map and the strategy.

    Raises:
        DegenerateMap: if every candidate pair was skipped, or every
            SeededRandom draw was a self-pair.
        DomainError: if the strategy names more than PAIR_BUDGET pairs, or
            an evaluated pair is farther apart than the largest float.
    """
    n = m.n_pairs
    # coordinate-major views: w[k] is coordinate k of every sample; contiguous copies
    # cost 8 bytes per coordinate and sample and were no faster
    u, v = m.domain.points.T, m.codomain.points.T
    # max(floor_i, floor_j) is the pair's threshold eps * max(r_i, r_j), bit for bit,
    # because rounding is monotone
    floor = COINCIDENCE_EPSILON * m.domain.radii()
    # per ratio (value, -(i*n + j)): max keeps the largest value, ties the smallest pair
    best = [(-np.inf, 0), (-np.inf, 0)]
    evaluated = skipped = 0
    for i, j, valid in _pair_blocks(n, strategy):
        dx = _distances(u, i, j, valid)
        keep = dx > np.maximum(floor[i], floor[j])
        if valid is not None:
            keep &= valid
        kept = int(np.count_nonzero(keep))
        evaluated += kept
        skipped += (keep.size if valid is None else int(np.count_nonzero(valid))) - kept
        if not kept:
            continue
        dx[~keep] = np.nan  # both ratios are nan at a dropped pair, and fmax passes over nan
        dy = _distances(v, i, j, keep)
        ib, jb = np.broadcast_arrays(i, j)
        with np.errstate(divide="ignore"):
            for slot, ratio in enumerate((dy / dx, dx / dy)):
                top = np.fmax.reduce(ratio, axis=None)
                if isinstance(strategy, AllPairs):
                    # a band's rows and columns ascend, so row-major order is key order;
                    # invalid and dropped entries are nan and never hit
                    r, c = divmod(int(np.argmax(ratio == top)), ratio.shape[1])
                    key = int(ib[r, c]) * n + int(jb[r, c])
                else:  # drawn pairs come in draw order: the least key over the hits
                    hit = ratio == top
                    key = int((ib[hit] * n + jb[hit]).min())
                best[slot] = max(best[slot], (float(top), -key))
    if not evaluated:
        raise DegenerateMap("all candidate pairs are coincident in the domain")
    (l_expand, expand_key), (l_contract, contract_key) = best
    # SeededRandom draws with i == j never reach a block
    self_pairs = strategy.samples - evaluated - skipped if isinstance(strategy, SeededRandom) else 0
    return DistortionReport(
        l_expand=l_expand,
        l_contract=l_contract,
        bilip_constant=max(l_expand, l_contract),
        witness_expand=divmod(-expand_key, n),
        witness_contract=divmod(-contract_key, n),
        pairs_evaluated=evaluated,
        pairs_skipped=skipped,
        pairs_self=self_pairs,
    )


def radial_comparability(m: SampledMap) -> RadialReport:
    """Range of |f(x)|/|x| over the samples, skipping the exact-0 pair."""
    dom_r = m.domain.radii()
    cod_r = m.codomain.radii()
    usable = dom_r > 0.0
    if not np.any(usable):
        raise DegenerateMap("no nonzero samples for radial comparison")
    ratio = cod_r[usable] / dom_r[usable]
    return RadialReport(float(ratio.max()), float(ratio.min()), int(usable.sum()))

