"""Shape and outcome checks for the property suites.

The frozen chart-gluing numbers matter: the formula as printed misses
the sphere by a wide margin (residual 0.447 at its inner edge), its
unit renormalization still misses the gluing identity by about 0.18,
and only the corrected chart reaches machine precision.
"""

import pytest

from bilip import verify
from bilip.errors import DomainError
from bilip.maps import registry
from bilip.verify import (
    SUITE_NAMES,
    chart_gluing_residuals,
    non_example_divergence,
    run_suite,
)

CHECK_KEYS = {"name", "measured", "tolerance", "passed"}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suites_pass_with_small_budgets(name):
    kwargs = {"pairs": 300} if name == "identities" else {}
    out = run_suite(name, seed=0, **kwargs)
    assert out["suite"] == name
    assert out["passed"] is True
    for check in out["checks"]:
        assert set(check) == CHECK_KEYS
        if check["tolerance"] is not None:
            assert check["passed"]


def gate_table() -> list[tuple[str, str, float, int]]:
    """(suite, check name prefix, fixed gate, number of checks it gates) for every named gate."""
    cubes = [("cube-bound", f"inverted constant of {name} ",
              registry()[name].bilip_constant**3 + verify.CUBE_SLACK, 1)
             for name in verify.CUBE_BOUND_MEMBERS]
    dims = len(verify.IDENTITY_DIMS)
    return [
        ("identities", "distance product identity", verify.IDENTITY_TOLERANCE, dims),
        ("identities", "law of cosines identity", verify.IDENTITY_TOLERANCE, dims),
        ("identities", "inversion involution", verify.IDENTITY_TOLERANCE, dims),
        ("identities", "sphere round trip", verify.IDENTITY_TOLERANCE, dims),
        ("identities", "corrected near-pole chart", verify.CHART_TOLERANCE, 1),
        *cubes,
        ("compactify-iff", "compactified identity constant is 1",
         verify.COMPACTIFIED_IDENTITY_TOLERANCE, 1),
        ("cone-exchange", "cone exchange residual", verify.CONE_EXCHANGE_TOLERANCE, 4),
    ]


def test_reports_print_the_named_gates():
    # the gates are fixed values: no option or parameter moves them
    assert verify.IDENTITY_TOLERANCE == verify.CONE_EXCHANGE_TOLERANCE == 1e-10
    assert verify.CHART_TOLERANCE == verify.COMPACTIFIED_IDENTITY_TOLERANCE == 1e-9
    assert verify.CUBE_SLACK == 1e-6
    reports = {name: run_suite(name, seed=0) for name in SUITE_NAMES}
    for suite, prefix, gate, count in gate_table():
        gated = [c for c in reports[suite]["checks"] if c["name"].startswith(prefix)]
        assert len(gated) == count, prefix
        assert all(c["tolerance"] == gate for c in gated), prefix


def test_suites_are_deterministic():
    a = run_suite("cone-exchange", seed=3)
    b = run_suite("cone-exchange", seed=3)
    assert a == b


def test_unknown_suite_rejected():
    with pytest.raises(DomainError, match="unknown suite 'everything'"):
        run_suite("everything", seed=0)


class TestChartGluing:
    def test_frozen_residual_values(self):
        glue = chart_gluing_residuals(seed=0)
        assert 0.44 < glue["verbatim"] < 0.45
        assert 0.17 < glue["renormalized"] < 0.19
        assert glue["corrected"] < 1e-12


def test_non_example_divergence_is_strong():
    grow_plain, grow_inverted = non_example_divergence(seed=0)
    assert grow_plain >= 2.0
    assert grow_inverted >= 2.0
    # the quadratic radial profile gains a factor near 100 per two
    # decades of refinement; anywhere close means the probe is healthy
    assert grow_plain < 1e4
    assert grow_inverted < 1e4
