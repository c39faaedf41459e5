"""The acceptance gate: one test per numbered criterion.

Each test prints a single PASS/FAIL line (echoed again in the terminal
summary) and then asserts.  Criterion 8 is expected to fail: it holds
the unit-renormalized near-pole chart to a gluing tolerance of 1e-9,
and that chart misses the identity by about 0.18 no matter how it is
sampled; the corrected chart's machine-precision residual is recorded
in the same line.  The check is kept at its stated tolerance rather
than weakened.
"""

import dataclasses
import json
import math

import numpy as np

from bilip.cones import ConeKind, asymptotic_directions, verify_cone_exchange
from bilip.distortion import estimate_bilip, radial_comparability
from bilip.fixtures import map_samples, ray, shifted_line, spiral
from bilip.geometry import (
    inversion_derivative_norm,
    inverted_distance_residual,
    law_of_cosines_residual,
    north_pole,
    separation_bounds,
)
from bilip.maps import compactify_map, invert_map, registry
from bilip.verify import (
    BILIPSCHITZ_MEMBERS,
    CUBE_BOUND_MEMBERS,
    IDENTITY_DIMS,
    chart_gluing_residuals,
    non_example_divergence,
    random_pairs,
)
from cli_runner import run_cli


def test_criterion_1_distance_identities(criterion_report):
    rng = np.random.default_rng(101)
    worst = 0.0
    for dim in IDENTITY_DIMS:
        a, b = random_pairs(rng, 10_000, dim)
        worst = max(worst, float(np.max(inverted_distance_residual(a, b))))
        worst = max(worst, float(np.max(law_of_cosines_residual(a, b))))
    ok = worst < 1e-10
    criterion_report(
        1, "distance product and law-of-cosines identities < 1e-10",
        ok, f"worst residual {worst:.3e} over 4x10^4 pairs, dims {IDENTITY_DIMS}",
    )
    assert ok, f"worst identity residual {worst:.3e} >= 1e-10"


def test_criterion_2_derivative_norm(criterion_report):
    rng = np.random.default_rng(202)
    worst = 0.0
    per_dim = math.ceil(1000 / 6)
    for dim in range(1, 7):
        x, _ = random_pairs(rng, per_dim, dim)
        r2 = np.einsum("ij,ij->i", x, x)
        error = np.abs(inversion_derivative_norm(x) - 1.0 / r2) * r2
        worst = max(worst, float(error.max()))
    ok = worst < 1e-5
    criterion_report(
        2, "finite-difference derivative norm matches 1/|x|^2 within 1e-5",
        ok, f"worst relative error {worst:.3e} over {6 * per_dim} points",
    )
    assert ok, f"worst derivative error {worst:.3e} >= 1e-5"


def test_criterion_3_radial_sandwich(criterion_report):
    rng = np.random.default_rng(303)
    inner, outer = random_pairs(rng, 10_000, 3)
    grow = 1.5 * np.linalg.norm(inner, axis=1) / np.linalg.norm(outer, axis=1)
    outer = outer * np.maximum(1.0, grow * 1.001)[:, None]
    violations = int(np.count_nonzero(~separation_bounds(inner, outer).holds))
    base = np.array([[1.0, 0.0, 0.0]])
    collinear = separation_bounds(base, 3.0 * base)
    antipodal = separation_bounds(base, -3.0 * base)
    attained = bool(np.all(
        collinear.holds
        & antipodal.holds
        & (np.abs(collinear.distance - collinear.lower) <= 1e-12 * collinear.upper)
        & (np.abs(antipodal.distance - antipodal.upper) <= 1e-12 * antipodal.upper)
    ))
    ok = violations == 0 and attained
    criterion_report(
        3, "radial separation sandwich holds with exact attainment cases",
        ok, f"{violations} violations over 10^4 pairs; attainment {'exact' if attained else 'missed'}",
    )
    assert ok


def test_criterion_4_cube_bound(criterion_report):
    details = []
    ok = True
    for name in CUBE_BOUND_MEMBERS:
        cube = registry()[name].bilip_constant**3
        inverted = invert_map(map_samples(name, count=500, seed=404))
        constant = estimate_bilip(inverted).bilip_constant
        radial = radial_comparability(inverted)
        radial_ok = (
            radial.max_ratio <= cube + 1e-9 and radial.min_ratio >= 1.0 / cube - 1e-9
        )
        ok = ok and constant <= cube + 1e-6 and radial_ok
        details.append(f"{name} {constant:.6g}<={cube:.6g}")
    criterion_report(
        4, "inverted registry maps stay under the cubed constant (AllPairs, 500)",
        ok, "; ".join(details),
    )
    assert ok


def test_criterion_5_iff_positive_and_negative(criterion_report):
    ok = True
    worst_margin = -math.inf
    for name in BILIPSCHITZ_MEMBERS:
        report = estimate_bilip(invert_map(map_samples(name, count=300, seed=505)))
        margin = 1.0 / report.l_contract - report.l_expand
        worst_margin = max(worst_margin, margin)
        ok = ok and math.isfinite(report.bilip_constant) and margin <= 1e-12
    grow_plain, grow_inverted = non_example_divergence(seed=505)
    negative_ok = grow_plain >= 2.0 and grow_inverted >= 2.0
    ok = ok and negative_ok
    criterion_report(
        5, "inverted estimates finite and consistent; non-example diverges",
        ok,
        f"worst consistency margin {worst_margin:.2e}; "
        f"non-example growth x{grow_plain:.1f} plain, x{grow_inverted:.1f} inverted",
    )
    assert ok


def test_criterion_6_compactification(criterion_report):
    ok = True
    identity_gap = None
    for name in BILIPSCHITZ_MEMBERS:
        m = map_samples(name, count=300, seed=606)
        # the shell members too are declared unbounded, so each one gets the pole pair
        compact = compactify_map(dataclasses.replace(m, unbounded_domain=True))
        pole_ok = compact.unbounded_domain and np.array_equal(
            compact.domain.points[-1], north_pole(m.dim_in)
        )
        report = estimate_bilip(compact)
        ok = ok and pole_ok and math.isfinite(report.bilip_constant)
        if name == "identity":
            identity_gap = abs(report.bilip_constant - 1.0)
            ok = ok and identity_gap <= 1e-9
    criterion_report(
        6, "compactified registry maps finite with pole pair; identity at 1",
        ok, f"identity constant gap {identity_gap:.2e}",
    )
    assert ok


def test_criterion_7_cone_exchange(criterion_report):
    fixtures = [
        ("ray2", ray(dim=2, count=120, seed=707)),
        ("ray3", ray(dim=3, count=120, seed=708)),
        ("spiral", spiral(count=150)),
        ("shifted-line", shifted_line(count=200)),
    ]
    worst = 0.0
    for _, cloud in fixtures:
        worst = max(worst, max(verify_cone_exchange(cloud)))
    line = shifted_line(count=200, t_max=1000.0)
    ds = asymptotic_directions(line, ConeKind.AT_INFINITY)
    outer = ds.directions[int(np.argmax(ds.source_radii))]
    axis = np.array([1.0, 0.0])
    angle = 2.0 * math.asin(float(np.linalg.norm(outer - axis)) / 2.0)
    ok = worst <= 1e-10 and angle <= 1e-3
    criterion_report(
        7, "cone exchange residuals <= 1e-10; shifted-line direction within 1e-3",
        ok, f"worst exchange residual {worst:.2e}; outermost angle {angle:.6e} rad",
    )
    assert ok


def test_criterion_8_chart_gluing(criterion_report):
    glue = chart_gluing_residuals(seed=808)
    ok = glue["renormalized"] <= 1e-9
    criterion_report(
        8, "renormalized near-pole chart glues within 1e-9",
        ok,
        f"renormalized {glue['renormalized']:.3e}; verbatim baseline "
        f"{glue['verbatim']:.3e}; corrected chart {glue['corrected']:.3e}",
    )
    assert ok, (
        "the chart formula as printed does not glue with the stereographic "
        f"embedding even after unit renormalization: measured residual "
        f"{glue['renormalized']:.3e} over |x| in [2, 1e3] against a 1e-9 "
        f"tolerance (best possible in range is about 1e-3 at |x| = 1e3). "
        f"The corrected chart, whose first block carries the factor 2, "
        f"reaches {glue['corrected']:.3e}. The assertion is kept at its "
        "stated tolerance instead of being weakened."
    )


def test_criterion_9_cli_determinism(criterion_report, tmp_path):
    def run(*argv):
        return run_cli(*argv, cwd=tmp_path)

    def json_report(out):
        try:
            return out.returncode == 0 and isinstance(json.loads(out.stdout), dict)
        except ValueError:
            return False

    checks = []
    first = run("generate", "ray", "--n", "80", "--seed", "9", "--output", "a.csv")
    second = run("generate", "ray", "--n", "80", "--seed", "9", "--output", "b.csv")
    checks.append(first.returncode == 0 and second.returncode == 0)
    checks.append((tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes())

    gen = run("generate", "shear", "--n", "70", "--seed", "9", "--output", "m.csv")
    checks.append(gen.returncode == 0)
    args = ("distortion", "m.csv", "--strategy", "random", "--pairs", "4000", "--seed", "13")
    reports = [run(*args), run(*args)]
    checks.append(all(json_report(out) for out in reports))
    checks.append(reports[0].stdout == reports[1].stdout)

    args = ("verify", "cone-exchange", "--seed", "2", "--output", "r.json")
    report = tmp_path / "r.json"
    written = []
    for _ in range(2):
        report.unlink(missing_ok=True)
        checks.append(run(*args).returncode == 0 and report.is_file())
        written.append(report.read_bytes() if checks[-1] else None)
    checks.append(written[0] == written[1])

    ok = all(checks)
    criterion_report(
        9, "repeated CLI invocations are byte-identical",
        ok, "generate, random-strategy distortion, verify report",
    )
    assert ok
