"""Domain model: journals, citation records, and the validated in-memory corpus.

Every type here is immutable after construction and safe to share across
threads. Serialization lives in :mod:`citemetric.ingest`.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple, Optional, Tuple

DEFAULT_WINDOW: Tuple[int, int] = (2003, 2007)


class Area(str, Enum):
    CIENCIAS = "Ciencias"
    CIENCIAS_SOCIALES = "CienciasSociales"


class IbnpCategory(str, Enum):
    A1 = "A1"
    A2 = "A2"
    B = "B"
    C = "C"


class Library(str, Enum):
    WOK = "WoK"
    SCOPUS = "Scopus"
    REDALYC = "Redalyc"
    SCIELO = "Scielo"
    GOOGLE_SCHOLAR = "GoogleScholar"


class ArticleStatus(str, Enum):
    KEPT = "Kept"
    DROPPED_INCOMPLETE = "DroppedIncomplete"
    DROPPED_DUPLICATE = "DroppedDuplicate"
    NEEDS_REVIEW = "NeedsReview"


#: statuses that count as visible production downstream
VISIBLE_STATUSES = frozenset({ArticleStatus.KEPT, ArticleStatus.NEEDS_REVIEW})


class JournalRecord(NamedTuple):
    journal_id: str
    title: str
    area: Area
    category: IbnpCategory
    air_ibnp: int  # articles the registry counts for the journal
    memberships: frozenset = frozenset()  # of Library


class ArticleRecord(NamedTuple):
    journal_id: str
    title: str
    year: Optional[int]  # None means the export row had no year
    cites: int
    authors: str = ""
    publication: str = ""
    publisher: str = ""
    url: str = ""
    status: ArticleStatus = ArticleStatus.KEPT


class JournalCorpus(NamedTuple):
    journals: Tuple[JournalRecord, ...]
    articles: Tuple[ArticleRecord, ...]
    window: Tuple[int, int] = DEFAULT_WINDOW


def _row(index: int, article: ArticleRecord) -> str:
    """Where a faulty article sits; formatted only on a fault, as most rows have none."""
    return f"article row {index} (journal {article.journal_id!r})"


def _visible_fault(index: int, article: ArticleRecord, fault: str) -> str:
    word = "kept" if article.status is ArticleStatus.KEPT else "flagged"
    return f"{_row(index, article)}: {word} record with {fault}"


def validate_corpus(corpus: JournalCorpus) -> list[str]:
    """Check every type invariant; return one description per violation.

    Violations are data, not failures: an empty list means the corpus is valid.
    """
    violations: list[str] = []
    seen: set[str] = set()
    for journal in corpus.journals:
        if journal.journal_id in seen:
            violations.append(f"duplicate journal_id {journal.journal_id!r}")
        seen.add(journal.journal_id)
        if not journal.journal_id:
            violations.append("journal with empty journal_id")
        if not journal.title.strip():
            violations.append(f"journal {journal.journal_id!r} has empty title")
        if journal.air_ibnp < 0:
            violations.append(f"journal {journal.journal_id!r} has negative ibnp total")
    start, end = corpus.window
    for index, article in enumerate(corpus.articles):
        if article.journal_id not in seen:
            violations.append(f"{_row(index, article)}: unknown journal_id {article.journal_id!r}")
        if article.cites < 0:
            violations.append(f"{_row(index, article)}: negative cites")
        if article.status in VISIBLE_STATUSES:
            if not article.title.strip():
                violations.append(_visible_fault(index, article, "empty title"))
            if article.year is None or not (start <= article.year <= end):
                violations.append(_visible_fault(index, article, "year outside window"))
    return violations


def filter_by_area(journals: Iterable[JournalRecord], area: Area) -> Tuple[JournalRecord, ...]:
    """The journals of one knowledge area, in order."""
    return tuple(j for j in journals if j.area is area)


def visible_cites(corpus: JournalCorpus) -> dict[str, list[int]]:
    """Each journal id with a visible article, mapped to the cites of its
    visible articles in article order."""
    cites: dict[str, list[int]] = {}
    for article in corpus.articles:
        if article.status in VISIBLE_STATUSES:
            cites.setdefault(article.journal_id, []).append(article.cites)
    return cites
