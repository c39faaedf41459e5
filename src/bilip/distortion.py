"""Empirical bi-Lipschitz constants from extremal pairwise ratios.

The expansion constant is the largest |f(x)-f(x')| / |x-x'| over the
evaluated pairs, the contraction constant the largest reciprocal ratio;
their max is the empirical bi-Lipschitz constant, which only ever
underestimates the true one.  Distances are Euclidean in the stored
coordinates, which on sphere-ambient maps is exactly the chordal metric.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, NamedTuple, Union

import numpy as np

from .errors import DegenerateMap, DomainError
from .maps import SampledMap

COINCIDENCE_EPSILON = 1e-12  # relative; closer domain pairs are skipped
ALL_PAIRS_CAP = 2000  # keeps all-pairs runs under a second; larger n uses SeededRandom
DEFAULT_RANDOM_PAIRS = 10**6
_BLOCK_PAIRS = 2**16  # pairs per slice of the walk; bounds its temporaries for any n and q


@dataclasses.dataclass(frozen=True)
class AllPairs:
    """Evaluate every unordered pair of a map with at most ALL_PAIRS_CAP samples."""


@dataclasses.dataclass(frozen=True)
class SeededRandom:
    """Evaluate a fixed number of seeded random pairs (with replacement)."""

    samples: int = DEFAULT_RANDOM_PAIRS
    seed: int = 0


PairStrategy = Union[AllPairs, SeededRandom]


@dataclasses.dataclass(frozen=True)
class DistortionReport:
    """Extremal ratios with witnessing pair indices.

    ``witness_expand`` and ``witness_contract`` are (i, j) indices into
    the map's pair list, i < j, ties broken by smallest lexicographic
    pair.  An infinite ``l_contract`` records a codomain collision
    between distinct domain samples ("not injective at sample scale").
    """

    l_expand: float
    l_contract: float
    bilip_constant: float
    witness_expand: tuple[int, int]
    witness_contract: tuple[int, int]
    pairs_evaluated: int
    pairs_skipped: int


class RadialReport(NamedTuple):
    """Range of |f(x)|/|x| over the usable (nonzero) samples."""

    max_ratio: float
    min_ratio: float
    points: int


def _pair_blocks(n: int, strategy: PairStrategy) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The strategy's pairs i < j in slices of _BLOCK_PAIRS; its checks raise at the first next()."""
    if isinstance(strategy, AllPairs):
        if n > ALL_PAIRS_CAP:
            raise DomainError(
                f"{n} samples exceed the all-pairs cap {ALL_PAIRS_CAP}; use SeededRandom"
            )
        i, j = np.triu_indices(n, k=1)
    elif isinstance(strategy, SeededRandom):
        if strategy.samples < 1:
            raise DomainError("need at least one sampled pair")
        rng = np.random.default_rng(strategy.seed)
        a = rng.integers(0, n, size=strategy.samples)
        b = rng.integers(0, n, size=strategy.samples)
        keep = a != b
        if not np.any(keep):
            raise DegenerateMap(
                f"all drawn pairs were self-pairs (i == j); samples={strategy.samples}"
            )
        i, j = np.minimum(a, b)[keep], np.maximum(a, b)[keep]
    else:
        raise DomainError(f"unknown pair strategy: {strategy!r}")
    for start in range(0, len(i), _BLOCK_PAIRS):
        yield i[start:start + _BLOCK_PAIRS], j[start:start + _BLOCK_PAIRS]


def estimate_bilip(m: SampledMap, strategy: PairStrategy = AllPairs()) -> DistortionReport:
    """Empirical bi-Lipschitz constant of a sampled map.

    Pairs whose domain points are within the relative coincidence
    threshold are skipped and counted, never silently dropped.  The
    result is a pure function of the map and the strategy.

    Raises:
        DegenerateMap: if every candidate pair was skipped, or every
            SeededRandom draw was a self-pair.
    """
    n = m.n_pairs
    dom = m.domain.points
    cod = m.codomain.points
    r = m.domain.radii()
    # per ratio (value, -(i*n + j)): max keeps the largest value, ties the smallest pair
    best = [(-np.inf, 0), (-np.inf, 0)]
    evaluated = skipped = 0
    for i, j in _pair_blocks(n, strategy):
        dx = np.linalg.norm(dom[i] - dom[j], axis=1)
        keep = dx >= COINCIDENCE_EPSILON * (1.0 + np.maximum(r[i], r[j]))
        i, j, dx = i[keep], j[keep], dx[keep]
        evaluated += len(dx)
        skipped += len(keep) - len(dx)
        if not len(dx):
            continue
        dy = np.linalg.norm(cod[i] - cod[j], axis=1)
        key = i * n + j
        with np.errstate(divide="ignore"):
            for slot, ratio in enumerate((dy / dx, dx / dy)):
                top = ratio.max()
                best[slot] = max(best[slot], (float(top), -int(key[ratio == top].min())))
    if not evaluated:
        raise DegenerateMap("all candidate pairs are coincident in the domain")
    (l_expand, expand_key), (l_contract, contract_key) = best
    return DistortionReport(
        l_expand=l_expand,
        l_contract=l_contract,
        bilip_constant=max(l_expand, l_contract),
        witness_expand=divmod(-expand_key, n),
        witness_contract=divmod(-contract_key, n),
        pairs_evaluated=evaluated,
        pairs_skipped=skipped,
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

