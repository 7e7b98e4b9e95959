"""Exception types shared across the package."""

from __future__ import annotations


class CitemetricError(Exception):
    """Base class for every error this package raises on bad data or bad calls."""


class DomainError(CitemetricError):
    """A bad value or a bad call (out of range, too few, degenerate); the message says which."""


class MalformedCorpus(CitemetricError):
    """A corpus JSON document that does not have the shape corpus_to_json writes,
    or whose data break a corpus invariant."""


class BadCell(CitemetricError):
    """A fault in a CSV input at ``line``; ``column`` is ``"*"`` for the whole row or file."""

    def __init__(self, line: int, column: str, reason: str):
        super().__init__(f"line {line}, column {column!r}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason
