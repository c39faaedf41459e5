"""The exit-code table: every toolkit error class, its base, code and stderr prefix."""

import pytest

import bilip
from bilip import (
    BilipError,
    DegenerateData,
    DegenerateMap,
    DomainError,
    EmptyRestriction,
    HypothesisError,
    InsufficientPoints,
    OriginError,
    ParseError,
    PoleError,
)
from bilip.cli import main

# class, direct base, exit code, stderr prefix: the README "Exit codes" table
TABLE = [
    (BilipError, Exception, 2, "error"),
    (ParseError, BilipError, 2, "parse error"),
    (DomainError, BilipError, 2, "usage error"),
    (HypothesisError, BilipError, 3, "hypothesis violation"),
    (OriginError, HypothesisError, 3, "hypothesis violation"),
    (PoleError, HypothesisError, 3, "hypothesis violation"),
    (DegenerateData, BilipError, 4, "degenerate data"),
    (EmptyRestriction, DegenerateData, 4, "degenerate data"),
    (DegenerateMap, DegenerateData, 4, "degenerate data"),
    (InsufficientPoints, DegenerateData, 4, "degenerate data"),
]


def test_table_covers_every_exported_error():
    exported = {getattr(bilip, name) for name in bilip.__all__}
    errors = {cls for cls in exported if isinstance(cls, type) and issubclass(cls, BilipError)}
    assert errors == {cls for cls, *_ in TABLE}


@pytest.mark.parametrize("cls, base, code, prefix", TABLE, ids=[row[0].__name__ for row in TABLE])
def test_class_states_its_row(cls, base, code, prefix):
    assert cls.__bases__ == (base,)
    assert (cls.exit_code, cls.kind) == (code, prefix)


@pytest.mark.parametrize("cls, base, code, prefix", TABLE, ids=[row[0].__name__ for row in TABLE])
def test_main_reports_the_row(monkeypatch, capsys, cls, base, code, prefix):
    def run_suite(name, **options):
        raise cls(f"raised in {name}")

    monkeypatch.setattr(bilip.verify, "run_suite", run_suite)
    assert main(["verify", "cone-exchange"]) == code
    captured = capsys.readouterr()
    assert captured.err == f"{prefix}: raised in cone-exchange\n"
    assert captured.out == ""
