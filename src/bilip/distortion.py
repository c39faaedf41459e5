"""Empirical bi-Lipschitz constants from extremal pairwise ratios.

The expansion constant is the largest |f(x)-f(x')| / |x-x'| over the
evaluated pairs, the contraction constant the largest reciprocal ratio;
their max is the empirical bi-Lipschitz constant, which only ever
underestimates the true one.  Distances are Euclidean in the stored
coordinates, which on sphere-ambient maps is exactly the chordal metric.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple, Union

import numpy as np

from .errors import DegenerateMap, DomainError
from .maps import SampledMap

COINCIDENCE_EPSILON = 1e-12  # relative; closer domain pairs are skipped
ALL_PAIRS_CAP = 2000  # keeps all-pairs runs under a second; larger n uses SeededRandom
DEFAULT_RANDOM_PAIRS = 10**6


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
    strategy: PairStrategy


class RadialReport(NamedTuple):
    """Range of |f(x)|/|x| over the usable (nonzero) samples."""

    max_ratio: float
    min_ratio: float
    points: int


def _pair_indices(n: int, strategy: PairStrategy) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(strategy, AllPairs):
        if n > ALL_PAIRS_CAP:
            raise DomainError(
                f"{n} samples exceed the all-pairs cap {ALL_PAIRS_CAP}; use SeededRandom"
            )
        return np.triu_indices(n, k=1)
    if isinstance(strategy, SeededRandom):
        if strategy.samples < 1:
            raise DomainError("need at least one sampled pair")
        rng = np.random.default_rng(strategy.seed)
        i = rng.integers(0, n, size=strategy.samples)
        j = rng.integers(0, n, size=strategy.samples)
        lo = np.minimum(i, j)
        hi = np.maximum(i, j)
        keep = lo != hi
        if not np.any(keep):
            raise DegenerateMap(
                f"all drawn pairs were self-pairs (i == j); samples={strategy.samples}"
            )
        return lo[keep], hi[keep]
    raise DomainError(f"unknown pair strategy: {strategy!r}")


def _lex_min_witness(values: np.ndarray, i: np.ndarray, j: np.ndarray) -> tuple[int, int]:
    best = values.max()
    cand = np.flatnonzero(values == best)
    order = np.lexsort((j[cand], i[cand]))
    k = cand[order[0]]
    return int(i[k]), int(j[k])


def estimate_bilip(m: SampledMap, strategy: PairStrategy = AllPairs()) -> DistortionReport:
    """Empirical bi-Lipschitz constant of a sampled map.

    Pairs whose domain points are within the relative coincidence
    threshold are skipped and counted, never silently dropped.  The
    result is a pure function of the map and the strategy.

    Raises:
        DegenerateMap: if every candidate pair was skipped, or every
            SeededRandom draw was a self-pair.
    """
    i, j = _pair_indices(m.n_pairs, strategy)
    dom = m.domain.points
    cod = m.codomain.points
    r = m.domain.radii()
    dx = np.linalg.norm(dom[i] - dom[j], axis=1)
    limit = COINCIDENCE_EPSILON * (1.0 + np.maximum(r[i], r[j]))
    keep = dx >= limit
    skipped = int((~keep).sum())
    if not np.any(keep):
        raise DegenerateMap("all candidate pairs are coincident in the domain")
    i = i[keep]
    j = j[keep]
    dx = dx[keep]
    dy = np.linalg.norm(cod[i] - cod[j], axis=1)
    expand = dy / dx
    with np.errstate(divide="ignore"):
        contract = dx / dy
    l_expand = float(expand.max())
    l_contract = float(contract.max())
    return DistortionReport(
        l_expand=l_expand,
        l_contract=l_contract,
        bilip_constant=max(l_expand, l_contract),
        witness_expand=_lex_min_witness(expand, i, j),
        witness_contract=_lex_min_witness(contract, i, j),
        pairs_evaluated=int(len(dx)),
        pairs_skipped=skipped,
        strategy=strategy,
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

