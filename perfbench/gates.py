"""Correctness gates on the CLI's outputs.

Each gate returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import json
import math

CONE_RESIDUAL_LIMIT = 1e-10
EQUALS_TOLERANCE = 1e-9


def parse_report(stdout: bytes) -> tuple[dict | None, list[str]]:
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return None, [f"report is not JSON: {exc}"]
    if not isinstance(report, dict):
        return None, ["report is not a JSON object"]
    return report, []


def shell_gap_log(report: dict) -> float:
    """log(inner radius of the outer shell / outer radius of the inner shell); > 0 when apart."""
    return math.log(report["at_infinity"]["radius_min"] / report["at_origin"]["radius_max"])


def check_report(command, report: dict) -> list[str]:
    """The content gates for one command's report."""
    try:
        return _check_fields(command, report)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"report lacks or garbles a field: {exc!r}"]


def _check_fields(command, report: dict) -> list[str]:
    if report.get("command") != command.name:
        return [f"report names command {report.get('command')!r}"]
    if command.name == "verify":
        return [] if report.get("passed") is True else ["verify did not report passed: true"]
    if command.name == "cones":
        failures = []
        worst = max(report["exchange"].values())
        if not worst <= CONE_RESIDUAL_LIMIT:
            failures.append(f"cone exchange residual {worst!r} exceeds {CONE_RESIDUAL_LIMIT}")
        if not shell_gap_log(report) > 0.0:
            failures.append("inner and outer shells overlap, so the exchange check is trivial")
        return failures
    if command.name == "distortion":
        failures = []
        value = report["bilip_constant"]
        if command.at_most is not None and not value <= command.at_most:
            failures.append(f"estimate {value!r} exceeds its bound {command.at_most!r}")
        if command.equals is not None and not abs(value - command.equals) <= EQUALS_TOLERANCE:
            failures.append(f"estimate {value!r} is not {command.equals!r} within {EQUALS_TOLERANCE}")
        return failures
    return []


def same_map(got, want) -> list[str]:
    """Bit equality of two SampledMaps: coordinates, shapes and flags."""
    failures = []
    for side in ("domain", "codomain"):
        a = getattr(got, side).points
        b = getattr(want, side).points
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            failures.append(f"{side} differs from the in-process result")
    for flag in ("fixes_origin", "avoids_origin", "unbounded_domain", "ambient"):
        if getattr(got, flag) != getattr(want, flag):
            failures.append(f"{flag} differs from the in-process result")
    return failures


def check_map_output(command, workdir) -> list[str]:
    """The map an invert or compactify wrote reloads bit-equal to the library's own result."""
    from bilip.maps import compactify_map, invert_map
    from bilip.serialize import load_map

    transform = {"invert": invert_map, "compactify": compactify_map}[command.name]
    want = transform(load_map(workdir / command.argv[1]))
    got = load_map(workdir / command.output)
    return same_map(got, want)

