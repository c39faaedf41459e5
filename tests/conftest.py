"""Shared test plumbing: the acceptance suite's pass/fail summary and tracemalloc peaks."""

import tracemalloc

import pytest

_LINES = []


@pytest.fixture
def criterion_report():
    """Record one pass/fail line per acceptance criterion.

    Lines are echoed in a terminal summary section so they appear in
    piped output even when pytest captures stdout.
    """

    def record(number: int, description: str, ok: bool, detail: str = "") -> None:
        tag = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        line = f"{tag} criterion {number}: {description}{suffix}"
        _LINES.append(line)
        print(line)

    return record


@pytest.fixture
def traced_peak():
    """``traced_peak(call)``: the result of ``call()`` and the tracemalloc peak, in bytes, of the call."""

    def measure(call):
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _LINES:
        terminalreporter.section("acceptance criteria")
        for line in _LINES:
            terminalreporter.write_line(line)
