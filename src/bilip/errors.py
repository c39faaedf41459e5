"""Exception types shared across the toolkit.

The class hierarchy is the command line's exit-code table: each class
states the ``exit_code`` that ``bilip.cli.main`` returns for it and the
``kind`` that prefixes its message on stderr, and a subclass inherits
both from its base.  Exit 2 belongs to ``BilipError``, ``ParseError`` and
``DomainError``; exit 3 to ``HypothesisError`` with ``OriginError`` and
``PoleError``; exit 4 to ``DegenerateData`` with ``EmptyRestriction``,
``DegenerateMap`` and ``InsufficientPoints``.  So ``except
HypothesisError`` and ``except DegenerateData`` each catch a whole row.
"""


class BilipError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2
    kind = "error"


class ParseError(BilipError):
    """A CSV or JSON payload does not match the expected layout."""

    kind = "parse error"


class DomainError(BilipError):
    """Input outside the domain of the requested transform."""

    kind = "usage error"


class HypothesisError(BilipError):
    """A sampled map violates the origin hypothesis required to invert it."""

    exit_code = 3
    kind = "hypothesis violation"


class OriginError(HypothesisError):
    """Inversion requested at (or numerically under) the origin."""


class PoleError(HypothesisError):
    """Stereographic projection requested at the pole."""


class DegenerateData(BilipError):
    """Too little or coincident data for the requested quantity."""

    exit_code = 4
    kind = "degenerate data"


class EmptyRestriction(DegenerateData):
    """A shell restriction left fewer than two sample pairs."""


class DegenerateMap(DegenerateData):
    """Every candidate pair was coincident; no ratio is defined."""


class InsufficientPoints(DegenerateData):
    """Too few usable points to build a direction set."""
