"""Property suites behind ``bilip verify`` and the acceptance tests.

Each suite runs a family of named numerical checks and returns a plain
dict ready for JSON serialization: every check carries the measured
value, the bound it is held to, and whether it passed.  Checks whose
``tolerance`` is None are informational; they are reported but never
gate the suite.  All randomness is a pure function of the seed.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .cones import ConeKind, asymptotic_directions, verify_cone_exchange
from .distortion import estimate_bilip, radial_comparability
from .errors import DomainError
from .fixtures import map_samples, ray, shifted_line, spiral
from .geometry import (
    dot_rows,
    invert,
    inversion_derivative_norm,
    inverted_distance_residual,
    law_of_cosines_residual,
    north_pole,
    norms,
    pole_chart,
    pole_chart_exact,
    separation_bounds,
    stereo_embed,
    stereo_project,
)
from .maps import compactify_map, invert_map, registry, unit_directions

IDENTITY_DIMS = (1, 2, 3, 6)
CUBE_BOUND_MEMBERS = ("identity", "scale-0.5", "scale-2", "scale-10", "diag-1-3", "shear")
BILIPSCHITZ_MEMBERS = CUBE_BOUND_MEMBERS + ("radial-shell-1", "radial-shell-1.25")
CHART_TOLERANCE = 1e-9  # gate on the near-pole chart gluing residual
IDENTITY_TOLERANCE = 1e-10  # gate on the identity and round-trip residuals
CUBE_SLACK = 1e-6  # added to A^3 in the gate on each inverted constant
COMPACTIFIED_IDENTITY_TOLERANCE = 1e-9  # gate on |constant - 1| of the compactified identity
CONE_EXCHANGE_TOLERANCE = 1e-10  # gate on the cone-exchange residuals
CHART_SAMPLES = 200  # points per dimension in the chart gluing sweep
DERIVATIVE_SAMPLES = 250  # points per dimension in the derivative norm sweep
CUBE_BOUND_SAMPLES = 500  # samples per registry map in cube-bound
COMPACTIFY_IFF_SAMPLES = 300  # samples per map in compactify-iff and its non-example


def _check(name: str, measured: float, tolerance, passed: bool) -> dict:
    return {
        "name": name,
        "measured": float(measured),
        "tolerance": None if tolerance is None else float(tolerance),
        "passed": bool(passed),
    }


def _at_most(name: str, measured: float, tolerance: float) -> dict:
    return _check(name, measured, tolerance, measured <= tolerance)


def _info(name: str, measured: float) -> dict:
    return _check(name, measured, None, True)


def _suite(name: str, checks: list[dict]) -> dict:
    gated = [c for c in checks if c["tolerance"] is not None]
    return {"suite": name, "passed": all(c["passed"] for c in gated), "checks": checks}


def random_pairs(rng: np.random.Generator, count: int, dim: int,
                 r_lo: float = 1e-3, r_hi: float = 1e3) -> tuple[np.ndarray, np.ndarray]:
    """Two (count, dim) stacks of random directions at log-uniform radii."""
    def draw():
        u = unit_directions(rng, count, dim)
        r = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), size=count))
        return u * r[:, None]

    return draw(), draw()


def chart_gluing_residuals(seed: int = 0) -> dict[str, float]:
    """Max residual of chart(invert(x)) vs stereo_embed(x), |x| in [2, 1e3].

    Three variants of the near-pole chart: the formula exactly as
    printed, its unit renormalization onto the sphere, and the
    corrected chart whose first block carries the factor 2.  Only the
    corrected one satisfies the gluing identity.
    """
    rng = np.random.default_rng(seed)
    worst = {"verbatim": 0.0, "renormalized": 0.0, "corrected": 0.0}
    for dim in (2, 3):
        u = unit_directions(rng, CHART_SAMPLES, dim)
        radii = np.logspace(math.log10(2.0), 3.0, CHART_SAMPLES)
        x = u * radii[:, None]
        target = stereo_embed(x)
        y = invert(x)
        verbatim = pole_chart(y)
        for label, chart in (
            ("verbatim", verbatim),
            ("renormalized", verbatim / norms(verbatim)[:, None]),
            ("corrected", pole_chart_exact(y)),
        ):
            residual = float(np.max(np.linalg.norm(chart - target, axis=1)))
            worst[label] = max(worst[label], residual)
    return worst


def run_identities(seed: int = 0, pairs: int = 2000) -> dict:
    """Distance identities, round trips, derivative norm, radial sandwich.

    The corrected near-pole chart is asserted at ``CHART_TOLERANCE``; the
    renormalized and verbatim printed charts are only reported.

    Raises:
        DomainError: if ``pairs`` < 1.
    """
    if pairs < 1:
        raise DomainError(f"identity sweeps need pairs >= 1, got {pairs}")
    rng = np.random.default_rng(seed)
    checks: list[dict] = []
    for dim in IDENTITY_DIMS:
        a, b = random_pairs(rng, pairs, dim)
        worst_e = float(np.max(inverted_distance_residual(a, b)))
        worst_c = float(np.max(law_of_cosines_residual(a, b)))
        checks.append(_at_most(f"distance product identity, dim {dim}", worst_e, IDENTITY_TOLERANCE))
        checks.append(_at_most(f"law of cosines identity, dim {dim}", worst_c, IDENTITY_TOLERANCE))

    for dim in IDENTITY_DIMS:
        x, _ = random_pairs(rng, pairs, dim, r_lo=1e-6, r_hi=1e6)
        back = invert(invert(x))
        rel = np.linalg.norm(back - x, axis=1) / np.linalg.norm(x, axis=1)
        checks.append(_at_most(f"inversion involution, dim {dim}", float(rel.max()), IDENTITY_TOLERANCE))
        round_trip = stereo_project(stereo_embed(x))
        rel = np.linalg.norm(round_trip - x, axis=1) / np.linalg.norm(x, axis=1)
        checks.append(_at_most(f"sphere round trip, dim {dim}", float(rel.max()), IDENTITY_TOLERANCE))

    worst_d = 0.0
    for dim in IDENTITY_DIMS:
        x, _ = random_pairs(rng, DERIVATIVE_SAMPLES, dim)
        r2 = dot_rows(x, x)
        error = np.abs(inversion_derivative_norm(x) - 1.0 / r2) * r2
        worst_d = max(worst_d, float(error.max()))
    checks.append(_at_most(f"derivative norm vs 1/|x|^2, dims <= {IDENTITY_DIMS[-1]}", worst_d, 1e-5))

    inner, outer = random_pairs(rng, pairs, 3)
    grow = np.linalg.norm(inner, axis=1) * 1.5 / np.linalg.norm(outer, axis=1)
    outer = outer * np.maximum(1.0, grow * 1.001)[:, None]
    base = np.array([1.0, 0.0, 0.0])  # with 3*base and -3*base it attains both bounds
    inner = np.vstack([inner, base, base])
    outer = np.vstack([outer, 3.0 * base, -3.0 * base])
    failures = np.count_nonzero(~separation_bounds(inner, outer).holds)
    checks.append(_at_most("radial sandwich violations", float(failures), 0.0))

    glue = chart_gluing_residuals(seed=seed)
    checks.append(_at_most("corrected near-pole chart gluing residual", glue["corrected"], CHART_TOLERANCE))
    checks.append(_info("renormalized near-pole chart gluing residual (reported)", glue["renormalized"]))
    checks.append(_info("verbatim near-pole chart gluing residual (reported)", glue["verbatim"]))
    return _suite("identities", checks)


def run_cube_bound(seed: int = 0) -> dict:
    """Inverted registry maps stay under the cubed constant.

    For a bi-Lipschitz map fixing the origin the derivative bound caps
    the inverted map's true constant at A^3, and the empirical constant
    only ever underestimates the true one.
    """
    family = registry()
    checks: list[dict] = []
    for name in CUBE_BOUND_MEMBERS:
        cube = family[name].bilip_constant**3
        inverted = invert_map(map_samples(name, count=CUBE_BOUND_SAMPLES, seed=seed))
        report = estimate_bilip(inverted)
        checks.append(
            _at_most(f"inverted constant of {name} (bound {cube:g})",
                     report.bilip_constant, cube + CUBE_SLACK)
        )
        radial = radial_comparability(inverted)
        overshoot = max(radial.max_ratio - cube, 1.0 / cube - radial.min_ratio, 0.0)
        checks.append(_at_most(f"inverted radial ratios of {name} within cubed range", overshoot, 1e-9))
    return _suite("cube-bound", checks)


def run_compactify_iff(seed: int = 0) -> dict:
    """Positive and negative faces of the bi-Lipschitz iff statements.

    Positive: every registry member keeps a finite, internally
    consistent constant after inversion and after compactification,
    with the pole pair recorded.  Negative: the non-example's
    contraction bound at least doubles between refinement levels toward
    the origin, before and after inversion.
    """
    checks: list[dict] = []
    for name in BILIPSCHITZ_MEMBERS:
        m = map_samples(name, count=COMPACTIFY_IFF_SAMPLES, seed=seed)
        inverted = estimate_bilip(invert_map(m))
        checks.append(
            _check(f"inverted estimate of {name} is finite",
                   inverted.bilip_constant, math.inf,
                   math.isfinite(inverted.bilip_constant))
        )
        margin = 1.0 / inverted.l_contract - inverted.l_expand
        checks.append(_at_most(f"expansion/contraction consistency of inverted {name}", margin, 1e-12))

        # shell members are declared unbounded too, so every member's pole pair is checked
        compact = compactify_map(dataclasses.replace(m, unbounded_domain=True))
        report = estimate_bilip(compact)
        checks.append(
            _check(f"compactified estimate of {name} is finite",
                   report.bilip_constant, math.inf, math.isfinite(report.bilip_constant))
        )
        pole = (np.array_equal(compact.domain.points[-1], north_pole(m.dim_in))
                and np.array_equal(compact.codomain.points[-1], north_pole(m.dim_out)))
        checks.append(_info(f"compactified {name} carries the pole pair", float(pole)))
        if name == "identity":
            checks.append(_at_most("compactified identity constant is 1", abs(report.bilip_constant - 1.0),
                                   COMPACTIFIED_IDENTITY_TOLERANCE))

    grow_plain, grow_inverted = non_example_divergence(seed=seed)
    checks.append(
        _check("non-example contraction growth toward 0 (factor, needs >= 2)",
               grow_plain, 2.0, grow_plain >= 2.0)
    )
    checks.append(
        _check("inverted non-example constant growth (factor, needs >= 2)",
               grow_inverted, 2.0, grow_inverted >= 2.0)
    )
    return _suite("compactify-iff", checks)


def non_example_divergence(seed: int = 0) -> tuple[float, float]:
    """Growth factors of the non-example's bounds between refinements.

    Samples x -> |x| x on [t_min, 1] for t_min = 1e-2 then 1e-4 and
    returns (contraction growth of the plain map, constant growth of
    the inverted map).  Both diverge for the genuine non-example.
    """
    reports = []
    for t_min in (1e-2, 1e-4):
        m = map_samples("radial-square", count=COMPACTIFY_IFF_SAMPLES, seed=seed, r_min=t_min, r_max=1.0)
        reports.append((estimate_bilip(m), estimate_bilip(invert_map(m))))
    (coarse, coarse_inv), (fine, fine_inv) = reports
    grow_plain = fine.l_contract / coarse.l_contract
    grow_inverted = fine_inv.bilip_constant / coarse_inv.bilip_constant
    return float(grow_plain), float(grow_inverted)


def run_cone_exchange(seed: int = 0) -> dict:
    """Exchange of asymptotic direction sets under inversion, per fixture."""
    fixtures = [
        ("ray, dim 2", ray(dim=2, count=120, seed=seed)),
        ("ray, dim 3", ray(dim=3, count=120, seed=seed + 1)),
        ("spiral", spiral(count=150)),
        ("shifted line", shifted_line(count=200)),
    ]
    checks: list[dict] = []
    for label, cloud in fixtures:
        res = verify_cone_exchange(cloud)
        checks.append(_at_most(f"cone exchange residual, {label}", max(res), CONE_EXCHANGE_TOLERANCE))
    line = shifted_line(count=200)
    ds = asymptotic_directions(line, ConeKind.AT_INFINITY)
    outer = ds.directions[int(np.argmax(ds.source_radii))]
    axis = np.zeros(line.dim)
    axis[0] = 1.0
    angle = 2.0 * math.asin(float(np.linalg.norm(outer - axis)) / 2.0)
    checks.append(_at_most("shifted line outermost direction vs horizontal axis", angle, 1e-3))
    return _suite("cone-exchange", checks)


_SUITES = {
    "identities": run_identities,
    "cube-bound": run_cube_bound,
    "compactify-iff": run_compactify_iff,
    "cone-exchange": run_cone_exchange,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = 0, **kwargs) -> dict:
    """Run one suite; only ``run_identities`` takes an option, ``pairs``."""
    if name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    return _SUITES[name](seed=seed, **kwargs)
