"""Registry and citation-export parsing, record cleaning, and corpus assembly.

Cleaning applies three criteria in a fixed order: incomplete rows are dropped
first, then near-identical titles are collapsed keeping the most-cited record,
then same-year same-cites pairs with no shared title words are flagged as
possible cross-language duplicates (dropped only when an alias file confirms
the match).
"""

from __future__ import annotations

import csv
import io
import json
import re
import unicodedata
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping, NamedTuple, Optional, Sequence, Tuple

from .corpus import (
    Area,
    ArticleRecord,
    ArticleStatus,
    DEFAULT_WINDOW,
    IbnpCategory,
    JournalCorpus,
    JournalRecord,
    Library,
    _ArticleRecordBuilder,
    validate_corpus,
)
from .errors import BadCell, DomainError, DuplicateId, MalformedCorpus, MalformedHeader

REGISTRY_HEADER = "journal_id,title,area,ibnp_category,air_ibnp,wok,scopus,redalyc,scielo,gscholar"
EXPORT_HEADER = "cites,authors,title,year,publication,publisher,url"
ALIAS_HEADER = "from_title,to_title"

# registry membership columns in file order
_MEMBERSHIP_COLUMNS = (
    ("wok", Library.WOK),
    ("scopus", Library.SCOPUS),
    ("redalyc", Library.REDALYC),
    ("scielo", Library.SCIELO),
    ("gscholar", Library.GOOGLE_SCHOLAR),
)


class DedupRule(str, Enum):
    SIMILAR_TITLE = "SimilarTitle"
    CROSS_LANGUAGE_SUSPECT = "CrossLanguageSuspect"
    INCOMPLETE_FIELDS = "IncompleteFields"


class DedupDecision(NamedTuple):
    kept_line: int
    dropped_lines: Tuple[int, ...]
    rule: DedupRule
    similarity: Optional[float] = None  # only for SimilarTitle


class IngestReport(NamedTuple):
    rows_read: int
    rows_kept: int
    rows_dropped_incomplete: int
    rows_dropped_duplicate: int
    rows_flagged_review: int
    decisions: Tuple[DedupDecision, ...]


@dataclass(frozen=True)
class DedupConfig:
    window: Tuple[int, int] = DEFAULT_WINDOW
    title_threshold: float = 0.92
    alias_map: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        # also rejects NaN, which would otherwise reach the edit-budget derivation
        if not 0.0 < self.title_threshold <= 1.0:
            raise DomainError(f"title threshold must lie in (0, 1], got {self.title_threshold}")


def _decode(content) -> str:
    if isinstance(content, bytes):
        return content.decode("utf-8-sig")
    return content.lstrip("﻿")


def _read_rows(content, expected_header: str) -> list[Tuple[int, list[str]]]:
    """Parse CSV content into (line number, cells) pairs, enforcing the exact
    header and the cell count of every row; cells are in header order."""
    text = _decode(content)
    reader = csv.reader(io.StringIO(text, newline=""))
    header_cells = next(reader, None)
    if header_cells is None:
        raise MalformedHeader(expected_header, "")
    header = ",".join(cell.strip() for cell in header_cells)
    if header != expected_header:
        raise MalformedHeader(expected_header, header)
    width = len(header_cells)
    out = []
    # a quoted cell may span lines, so a record starts one past the line the
    # reader had reached after the record before it
    line_number = reader.line_num + 1
    for cells in reader:
        start, line_number = line_number, reader.line_num + 1
        if not cells:
            continue  # blank trailing line
        if len(cells) != width:
            raise BadCell(start, "*", f"expected {width} cells, found {len(cells)}")
        out.append((start, cells))
    return out


def _int_cell(line: int, column: str, value: str, minimum: int = 0) -> int:
    try:
        parsed = int(value.strip())
    except ValueError:
        raise BadCell(line, column, f"not an integer: {value!r}") from None
    if parsed < minimum:
        raise BadCell(line, column, f"below {minimum}: {parsed}")
    return parsed


def parse_registry(content) -> list[JournalRecord]:
    """Parse the journal registry CSV into one record per row."""
    journals: list[JournalRecord] = []
    seen: set[str] = set()
    for line, (journal_id, title, area, category, air_ibnp, *flags) in _read_rows(
        content, REGISTRY_HEADER
    ):
        journal_id = journal_id.strip()
        if not journal_id:
            raise BadCell(line, "journal_id", "empty")
        if journal_id in seen:
            raise DuplicateId(line, journal_id)
        seen.add(journal_id)
        title = title.strip()
        if not title:
            raise BadCell(line, "title", "empty")
        try:
            area = Area(area.strip())
        except ValueError:
            raise BadCell(line, "area", f"unknown area {area!r}") from None
        try:
            category = IbnpCategory(category.strip())
        except ValueError:
            raise BadCell(line, "ibnp_category", f"unknown category {category!r}") from None
        memberships = set()
        for (column, tag), flag in zip(_MEMBERSHIP_COLUMNS, flags):
            flag = flag.strip()
            if flag not in ("0", "1"):
                raise BadCell(line, column, f"flag must be 0 or 1, got {flag!r}")
            if flag == "1":
                memberships.add(tag)
        journals.append(
            JournalRecord(
                journal_id=journal_id,
                title=title,
                area=area,
                category=category,
                air_ibnp=_int_cell(line, "air_ibnp", air_ibnp),
                memberships=frozenset(memberships),
            )
        )
    return journals


def parse_citation_export(content, journal_id: str) -> list[ArticleRecord]:
    """Parse one citation-export CSV; all records come back with status Kept."""
    records: list[ArticleRecord] = []
    for line, (cites, authors, title, year, publication, publisher, url) in _read_rows(
        content, EXPORT_HEADER
    ):
        year = year.strip()
        record = ArticleRecord(
            journal_id=journal_id,
            title=title.strip(),
            year=_int_cell(line, "year", year, minimum=-(10**9)) if year else None,
            cites=_int_cell(line, "cites", cites),
            authors=authors.strip(),
            publication=publication.strip(),
            publisher=publisher.strip(),
            url=url.strip(),
            status=ArticleStatus.KEPT,
        )
        object.__setattr__(record, "line_number", line)  # frozen, init=False field
        records.append(record)
    return records


def parse_alias_file(content) -> dict[str, str]:
    """Parse the title-alias CSV; both sides are stored normalized."""
    aliases: dict[str, str] = {}
    for _, (source, target) in _read_rows(content, ALIAS_HEADER):
        aliases[normalize_title(source)] = normalize_title(target)
    return aliases


_PUNCT = re.compile(r"[^0-9a-z\s]+")
_SPACES = re.compile(r"\s+")


def normalize_title(title: str) -> str:
    """Lowercase, strip accents and punctuation, collapse whitespace."""
    text = unicodedata.normalize("NFD", title.lower())
    text = "".join(ch for ch in text if not unicodedata.combining(ch))
    text = _PUNCT.sub(" ", text)
    return _SPACES.sub(" ", text).strip()


def levenshtein(a: str, b: str) -> int:
    # no distance exceeds the longer length, so a band that wide is exact
    return _banded_levenshtein(a, b, max(len(a), len(b)))


def title_similarity(a: str, b: str) -> float:
    """Normalized Levenshtein similarity, 1 - distance / max-length."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / longest


def _edit_budget(length: int, threshold: float) -> int:
    """Largest distance d with ``1.0 - d / length >= threshold``, by that float expression.

    Deriving it from ``(1 - threshold) * length`` alone is off by one where
    rounding lands on the boundary (length 25 at 0.92, for one), so the
    estimate is corrected against the exact test title_similarity applies.
    """
    if length == 0:
        return 0  # two empty titles: similarity 1.0, always similar
    d = int((1.0 - threshold) * length)
    while d < length and 1.0 - (d + 1) / length >= threshold:
        d += 1
    while d > 0 and 1.0 - d / length < threshold:
        d -= 1
    return d


def _banded_levenshtein(a: str, b: str, k: int) -> int:
    """Levenshtein distance when it is at most k, otherwise some value above k.

    Ukkonen's band: a path of cost at most k never leaves the diagonals
    ``|i - j| <= k``, so cells outside them stand at k + 1, and the scan stops
    once a whole row of the band is above k (row minima never decrease).
    """
    if len(a) > len(b):
        a, b = b, a
    m, n = len(a), len(b)
    over = k + 1
    if n - m > k:
        return over
    previous = [j if j <= k else over for j in range(m + 1)]
    for i in range(1, n + 1):
        cb = b[i - 1]
        lo, hi = max(1, i - k), min(m, i + k)
        current = [over] * (m + 1)
        if i <= k:
            current[0] = i
        for j in range(lo, hi + 1):
            # min(substitute, delete, insert) without the cost of calling min()
            value = previous[j - 1] + (a[j - 1] != cb)
            if previous[j] < value:
                value = previous[j] + 1
            if current[j - 1] < value:
                value = current[j - 1] + 1
            current[j] = value
        if min(current[lo - 1 : hi + 1]) > k:
            return over
        previous = current
    return previous[m]


def _exact_similarity(a: str, b: str, budget: Sequence[int]) -> float:
    """title_similarity(a, b), with the banded match standing in when it is exact.

    Group members joined through a chain of pairs can lie further apart than
    the budget; then the full distance is computed, never the band's cap.
    """
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    k = budget[longest]
    distance = _banded_levenshtein(a, b, k)
    if distance > k:
        distance = levenshtein(a, b)
    return 1.0 - distance / longest


def deduplicate(
    records: Sequence[ArticleRecord], config: DedupConfig
) -> tuple[list[ArticleRecord], IngestReport]:
    """Apply the three cleaning criteria and return restatused records plus a report.

    Order matters: incomplete rows leave first, similar-title groups collapse
    second (highest cites wins, earlier row wins ties), and cross-language
    suspects are flagged last. All decisions are deterministic in input order.
    A decision names the export lines of its rows; a record without a
    ``line_number`` counts as line ``index + 2`` (data starts under the header).
    """
    ids = {r.journal_id for r in records}
    if len(ids) > 1:
        raise DomainError(f"records span journals {sorted(ids)}")

    start, end = config.window
    statuses: dict[int, ArticleStatus] = {}
    decisions: list[DedupDecision] = []
    lines = [
        i + 2 if record.line_number is None else record.line_number
        for i, record in enumerate(records)
    ]

    for i, record in enumerate(records):
        incomplete = (
            not record.title.strip()
            or record.year is None
            or not (start <= record.year <= end)
        )
        if incomplete:
            statuses[i] = ArticleStatus.DROPPED_INCOMPLETE
            decisions.append(
                DedupDecision(
                    kept_line=lines[i],
                    dropped_lines=(lines[i],),
                    rule=DedupRule.INCOMPLETE_FIELDS,
                )
            )
        else:
            statuses[i] = ArticleStatus.KEPT

    survivors = [i for i in range(len(records)) if statuses[i] is ArticleStatus.KEPT]
    normalized = {i: normalize_title(records[i].title) for i in survivors}

    # A pair is similar when its distance is within the budget of the longer
    # title's length L. budget[L] is the exact threshold test, so only pairs
    # that pass it join, exactly as a full pairwise scan would decide.
    longest = max((len(t) for t in normalized.values()), default=0)
    budget = [_edit_budget(length, config.title_threshold) for length in range(longest + 1)]
    bags = {i: Counter(normalized[i]) for i in survivors}

    # similar-title groups via union-find over pairs at or above the threshold
    parent = {i: i for i in survivors}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # Sweep in length order: the distance is at least the length gap, and
    # L - budget[L] never decreases with L, so once the gap exceeds the budget
    # no longer title can match. The bag (character multiset) distance is a
    # second lower bound; the banded match decides what both let through.
    by_length = sorted(survivors, key=lambda i: len(normalized[i]))
    for pos, i in enumerate(by_length):
        a = normalized[i]
        for j in by_length[pos + 1 :]:
            b = normalized[j]
            k = budget[len(b)]
            if len(b) - len(a) > k:
                break
            if find(i) == find(j):
                continue
            if a == b or (
                sum((bags[j] - bags[i]).values()) <= k and _banded_levenshtein(a, b, k) <= k
            ):
                parent[find(j)] = find(i)

    # the partition does not depend on which pairs joined it, and groups are
    # read in survivor order, so decisions come out as a pairwise scan's would
    groups: dict[int, list[int]] = {}
    for i in survivors:
        groups.setdefault(find(i), []).append(i)
    for members in groups.values():
        if len(members) < 2:
            continue
        winner = max(members, key=lambda i: (records[i].cites, -i))
        dropped = [i for i in members if i != winner]
        for i in dropped:
            statuses[i] = ArticleStatus.DROPPED_DUPLICATE
        decisions.append(
            DedupDecision(
                kept_line=lines[winner],
                dropped_lines=tuple(lines[i] for i in dropped),
                rule=DedupRule.SIMILAR_TITLE,
                similarity=min(
                    _exact_similarity(normalized[winner], normalized[i], budget) for i in dropped
                ),
            )
        )

    # cross-language suspects: same (year, cites), no shared title words.
    # Only rows of one (year, cites) bucket can pair, so each row is paired
    # with the later rows of its bucket, in the order a scan of all pairs
    # would meet them.
    alias = {normalize_title(k): normalize_title(v) for k, v in config.alias_map.items()}
    kept = [i for i in survivors if statuses[i] is ArticleStatus.KEPT]
    buckets: dict[tuple, list[int]] = {}
    later: dict[int, int] = {}  # row -> position of the next row in its bucket
    for i in kept:
        bucket = buckets.setdefault((records[i].year, records[i].cites), [])
        bucket.append(i)
        later[i] = len(bucket)
    tokens = {i: set(normalized[i].split()) for i in kept}
    for i in kept:
        if statuses[i] is not ArticleStatus.KEPT:
            continue
        for j in buckets[(records[i].year, records[i].cites)][later[i] :]:
            if statuses[j] not in (ArticleStatus.KEPT, ArticleStatus.NEEDS_REVIEW):
                continue
            tokens_a, tokens_b = tokens[i], tokens[j]
            if not tokens_a or not tokens_b or tokens_a & tokens_b:
                continue
            if alias.get(normalized[i]) == normalized[j]:
                statuses[i] = ArticleStatus.DROPPED_DUPLICATE
                decisions.append(
                    DedupDecision(lines[j], (lines[i],), DedupRule.CROSS_LANGUAGE_SUSPECT)
                )
                break  # i is gone; stop pairing it
            if alias.get(normalized[j]) == normalized[i]:
                statuses[j] = ArticleStatus.DROPPED_DUPLICATE
                decisions.append(
                    DedupDecision(lines[i], (lines[j],), DedupRule.CROSS_LANGUAGE_SUSPECT)
                )
                continue
            statuses[i] = ArticleStatus.NEEDS_REVIEW
            statuses[j] = ArticleStatus.NEEDS_REVIEW
            decisions.append(
                DedupDecision(min(lines[i], lines[j]), (), DedupRule.CROSS_LANGUAGE_SUSPECT)
            )

    restatused = [replace(r, status=statuses[i]) for i, r in enumerate(records)]
    counts = {status: 0 for status in ArticleStatus}
    for status in statuses.values():
        counts[status] += 1
    report = IngestReport(
        rows_read=len(records),
        rows_kept=counts[ArticleStatus.KEPT] + counts[ArticleStatus.NEEDS_REVIEW],
        rows_dropped_incomplete=counts[ArticleStatus.DROPPED_INCOMPLETE],
        rows_dropped_duplicate=counts[ArticleStatus.DROPPED_DUPLICATE],
        rows_flagged_review=counts[ArticleStatus.NEEDS_REVIEW],
        decisions=tuple(decisions),
    )
    return restatused, report


def build_corpus(
    journals: Sequence[JournalRecord],
    records_by_journal: Mapping[str, Sequence[ArticleRecord]],
    window: Tuple[int, int],
) -> JournalCorpus:
    """Assemble a corpus from parsed pieces; fails loudly on dangling ids."""
    known = {j.journal_id for j in journals}
    for journal_id in records_by_journal:
        if journal_id not in known:
            raise DomainError(f"unknown journal_id {journal_id!r}")
    articles: list[ArticleRecord] = []
    for journal in journals:
        articles.extend(records_by_journal.get(journal.journal_id, ()))
    corpus = JournalCorpus(
        journals=tuple(journals),
        articles=tuple(articles),
        window=window,
    )
    violations = validate_corpus(corpus)
    if violations:
        raise DomainError("invalid corpus: " + "; ".join(violations))
    return corpus


# --- corpus JSON -----------------------------------------------------------

_LIBRARY_ORDER = list(Library)


class _StatusTable(dict):
    """Status value -> member; a plain lookup is several times cheaper than
    calling ``ArticleStatus(value)`` once per article."""

    def __missing__(self, value):
        raise ValueError(f"{value!r} is not a valid ArticleStatus")


_STATUS_BY_VALUE = _StatusTable((s.value, s) for s in ArticleStatus)


@contextmanager
def _section(name: str):
    """Turn a shape error inside one corpus JSON section into MalformedCorpus."""
    try:
        yield
    except KeyError as error:
        raise MalformedCorpus(f"corpus JSON {name}: missing key {error}") from None
    except (TypeError, ValueError) as error:
        raise MalformedCorpus(f"corpus JSON {name}: {error}") from None


def corpus_to_json(corpus: JournalCorpus) -> str:
    """Serialize to the canonical single-document JSON form (deterministic bytes)."""
    doc = {
        "window": list(corpus.window),
        "journals": [
            {
                "journal_id": j.journal_id,
                "title": j.title,
                "area": j.area.value,
                "category": j.category.value,
                "memberships": [t.value for t in _LIBRARY_ORDER if t in j.memberships],
            }
            for j in corpus.journals
        ],
        "articles": [
            {
                "journal_id": a.journal_id,
                "title": a.title,
                "year": a.year,
                "cites": a.cites,
                "authors": a.authors,
                "publication": a.publication,
                "publisher": a.publisher,
                "url": a.url,
                "status": a.status.value,
            }
            for a in corpus.articles
        ],
        "ibnp_totals": {j.journal_id: j.air_ibnp for j in corpus.journals},
    }
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def _scalar_fault(where: str, name: str, value, expected: str) -> TypeError:
    return TypeError(f"{where}: {name} is {type(value).__name__}, not {expected}")


def _article(a, index) -> ArticleRecord:
    """Build one article record of a corpus JSON document, checking its fields.

    The record is an :class:`_ArticleRecordBuilder` filled with plain slot
    stores and then given its class; see the note above the record classes
    in :mod:`citemetric.corpus`.
    ``type(...) is int`` refuses ``bool``, which is an ``int`` subclass.
    """
    journal_id, year, cites = a["journal_id"], a["year"], a["cites"]
    title = a["title"]
    authors = a.get("authors", "")
    publication = a.get("publication", "")
    publisher = a.get("publisher", "")
    url = a.get("url", "")
    if type(journal_id) is not str:
        raise _scalar_fault(f"article {index}", "journal_id", journal_id, "str")
    if type(cites) is not int:
        raise _scalar_fault(f"article {index}", "cites", cites, "int")
    if year is not None and type(year) is not int:
        raise _scalar_fault(f"article {index}", "year", year, "int or null")
    if type(title) is not str:
        raise _scalar_fault(f"article {index}", "title", title, "str")
    if type(authors) is not str:
        raise _scalar_fault(f"article {index}", "authors", authors, "str")
    if type(publication) is not str:
        raise _scalar_fault(f"article {index}", "publication", publication, "str")
    if type(publisher) is not str:
        raise _scalar_fault(f"article {index}", "publisher", publisher, "str")
    if type(url) is not str:
        raise _scalar_fault(f"article {index}", "url", url, "str")
    record = _ArticleRecordBuilder()
    record.journal_id = journal_id
    record.title = title
    record.year = year
    record.cites = cites
    record.authors = authors
    record.publication = publication
    record.publisher = publisher
    record.url = url
    record.status = _STATUS_BY_VALUE[a["status"]]
    record.line_number = None
    record.__class__ = ArticleRecord
    return record


def _article_or_object(obj: dict):
    """The corpus parser's object_hook: a well-formed article becomes its
    record. Any other object (a journal, ibnp_totals, the document, a faulty
    article) comes back unchanged, and the articles section reports faults."""
    try:
        return _article(obj, None)
    except (KeyError, TypeError, ValueError):
        return obj


def corpus_from_json(content) -> JournalCorpus:
    """Read the document :func:`corpus_to_json` writes.

    A document of another shape (a missing key, a list where an object
    belongs, an unknown area, category, library or status, a journal id,
    title, year, cites, ibnp total or article text field of the wrong type,
    a journal without an ibnp total, or a window that is not two int years
    in order) raises :class:`MalformedCorpus` naming the section it was
    found in. So does a well-formed document that :func:`validate_corpus`
    finds fault with, naming its first violation.

    ``content`` is the document's text or its UTF-8 bytes; given text, the
    caller can free the bytes before the parse. Each article becomes its
    record as soon as the parser has read it, so the parsed objects of a
    large corpus never exist all at once.
    """
    doc = json.loads(_decode(content), object_hook=_article_or_object)
    with _section("journals"):
        rows = [
            (
                j["journal_id"],
                j["title"],
                Area(j["area"]),
                IbnpCategory(j["category"]),
                frozenset(Library(t) for t in j["memberships"]),
            )
            for j in doc["journals"]
        ]
        for index, (journal_id, title, *_) in enumerate(rows):
            if type(journal_id) is not str:
                raise _scalar_fault(f"journal {index}", "journal_id", journal_id, "str")
            if type(title) is not str:
                raise _scalar_fault(f"journal {index}", "title", title, "str")
    with _section("articles"):
        # the hook built the well-formed articles; building any other entry
        # again raises its fault, named by its index
        articles = tuple(
            [
                a if type(a) is ArticleRecord else _article(a, index)
                for index, a in enumerate(doc["articles"])
            ]
        )
    with _section("ibnp_totals"):
        totals = dict(doc["ibnp_totals"])
        journals = []
        for journal_id, title, area, category, memberships in rows:
            if journal_id not in totals:
                raise ValueError(f"no entry for journal {journal_id!r}")
            total = totals[journal_id]
            if type(total) is not int:
                raise _scalar_fault(f"journal {journal_id!r}", "total", total, "int")
            journals.append(JournalRecord(journal_id, title, area, category, total, memberships))
    with _section("window"):
        window = doc["window"]
        if type(window) is not list or len(window) != 2 or any(type(y) is not int for y in window):
            raise ValueError(f"expected two int years, got {window!r}")
        if window[0] > window[1]:
            raise ValueError(f"start {window[0]} is after end {window[1]}")
        window = tuple(window)
    corpus = JournalCorpus(journals=tuple(journals), articles=articles, window=window)
    violations = validate_corpus(corpus)
    if violations:
        more = f" (and {len(violations) - 1} more)" if len(violations) > 1 else ""
        raise MalformedCorpus(f"corpus JSON is invalid: {violations[0]}{more}")
    return corpus
