"""Exception types shared across the package."""

from __future__ import annotations


class CitemetricError(Exception):
    """Base class for every error this package raises on bad data or bad calls."""


class DomainError(CitemetricError):
    """A bad value or a bad call (out of range, too few, degenerate); the message says which."""


class MalformedHeader(CitemetricError):
    def __init__(self, expected: str, got: str):
        super().__init__(f"expected header {expected!r}, got {got!r}")
        self.expected = expected
        self.got = got


class MalformedCorpus(CitemetricError):
    """A corpus JSON document that does not have the shape corpus_to_json writes,
    or whose data break a corpus invariant."""


class BadCell(CitemetricError):
    def __init__(self, line: int, column: str, reason: str):
        super().__init__(f"line {line}, column {column!r}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason


class DuplicateId(CitemetricError):
    def __init__(self, line: int, journal_id: str):
        super().__init__(f"line {line}: duplicate journal_id {journal_id!r}")
        self.line = line
        self.journal_id = journal_id
