"""Exception types shared across the package."""

from __future__ import annotations


class CitemetricError(Exception):
    """Base class for every error this package raises on bad data or bad calls."""


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


class MixedJournal(CitemetricError):
    pass


class UnknownJournal(CitemetricError):
    def __init__(self, journal_id: str):
        super().__init__(f"unknown journal_id {journal_id!r}")
        self.journal_id = journal_id


class DomainError(CitemetricError):
    pass


class LengthMismatch(CitemetricError):
    pass


class DegenerateInput(CitemetricError):
    pass


class RankDeficient(CitemetricError):
    pass


class TooFewGroups(CitemetricError):
    pass


class AllTied(CitemetricError):
    pass


class NonConvergence(CitemetricError):
    pass


class ConstantColumn(CitemetricError):
    pass


class EmptyArea(CitemetricError):
    pass


class EmptyGroup(CitemetricError):
    pass


class ZeroAreaMean(CitemetricError):
    pass


class NoGroups(CitemetricError):
    pass


class TooFewJournals(CitemetricError):
    pass


class MissingCpn(CitemetricError):
    def __init__(self, journal_id: str):
        super().__init__(f"journal {journal_id!r} has no normalized citation value")
        self.journal_id = journal_id
