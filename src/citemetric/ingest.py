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
from enum import Enum
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence, Tuple

from .corpus import (
    Area,
    ArticleRecord,
    ArticleStatus,
    DEFAULT_WINDOW,
    IbnpCategory,
    JournalCorpus,
    JournalRecord,
    Library,
    VISIBLE_STATUSES,
    validate_corpus,
    visible_cites,
)
from .errors import BadCell, DomainError, MalformedCorpus

REGISTRY_HEADER = "journal_id,title,area,ibnp_category,air_ibnp,wok,scopus,redalyc,scielo,gscholar"
EXPORT_HEADER = "cites,authors,title,year,publication,publisher,url"
ALIAS_HEADER = "from_title,to_title"

# registry membership columns in file order, each with its library: Library's order is the file's
_MEMBERSHIP_COLUMNS = tuple(zip(REGISTRY_HEADER.split(",")[5:], Library, strict=True))


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


class AliasMap(Mapping):
    """A read-only title-alias map whose keys and values are normalized.

    Built from any mapping; keys that normalize alike must name titles that
    normalize alike, or :class:`DomainError` names both keys.
    :func:`deduplicate` takes an ``AliasMap`` as it is and builds one from any
    other mapping on each call, so a map built once serves every journal.
    """

    __slots__ = ("_targets",)

    def __init__(self, mapping: Mapping[str, str]):
        targets: dict[str, str] = {}
        for key, target in mapping.items():
            source, target = normalize_title(key), normalize_title(target)
            if targets.setdefault(source, target) != target:
                first = next(k for k in mapping if normalize_title(k) == source)
                raise DomainError(
                    f"alias keys {first!r} and {key!r} normalize alike, targets differ"
                )
        self._targets = targets

    def __getitem__(self, title: str) -> str:
        return self._targets[title]

    def __iter__(self) -> Iterator[str]:
        return iter(self._targets)

    def __len__(self) -> int:
        return len(self._targets)


class DedupConfig(NamedTuple):
    window: Tuple[int, int] = DEFAULT_WINDOW
    title_threshold: float = 0.92  # in (0, 1]; deduplicate checks it
    alias_map: Mapping[str, str] = AliasMap({})


def _decode(content) -> str:
    """The text of ``content`` (text, or UTF-8 bytes) without one leading
    byte-order mark; a decoding error counts bytes from the mark on."""
    if isinstance(content, bytes):
        content = content.decode("utf-8")
    return content.removeprefix("\ufeff")


_LINE_BREAK = re.compile(r"\r\n?|\n")  # the line ends a csv reader counts


def _read_rows(content, expected_header: str) -> list[Tuple[int, list[str]]]:
    """Parse CSV content into (line number, cells) pairs, enforcing the exact
    header and the cell count of every row; cells are in header order.
    Every fault is a :class:`BadCell` naming its line."""
    try:
        text = _decode(content)
    except UnicodeDecodeError as error:
        # the bytes before the first bad one decode, so their lines count
        line = len(_LINE_BREAK.findall(content[: error.start].decode("utf-8"))) + 1
        raise BadCell(line, "*", f"not UTF-8: {error}") from None
    # csv refuses a NUL before Python 3.11 and reads it as text after
    nul = text.find("\0")
    if nul >= 0:
        raise BadCell(len(_LINE_BREAK.findall(text, 0, nul)) + 1, "*", "contains a NUL byte")
    reader = csv.reader(io.StringIO(text, newline=""))
    line_number = 1  # where the record being read starts
    try:
        header_cells = next(reader, [])
        header = ",".join(cell.strip() for cell in header_cells)
        if header != expected_header:
            raise BadCell(1, "*", f"expected header {expected_header!r}, got {header!r}")
        width = len(header_cells)
        out = []
        # a quoted cell may span lines, so a record starts one past the line
        # the reader had reached after the record before it
        line_number = reader.line_num + 1
        for cells in reader:
            start, line_number = line_number, reader.line_num + 1
            if not cells:
                continue  # blank trailing line
            if len(cells) != width:
                raise BadCell(start, "*", f"expected {width} cells, found {len(cells)}")
            out.append((start, cells))
    except csv.Error as error:  # a cell over csv.field_size_limit(), say
        raise BadCell(line_number, "*", str(error)) from None
    return out


# a sign and ASCII digits; int() alone would also read "1_0" and non-ASCII digits
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _int_cell(line: int, column: str, value: str, minimum: int = 0) -> int:
    text = value.strip()
    if not _INTEGER.fullmatch(text):
        raise BadCell(line, column, f"not an integer: {value!r}")
    parsed = int(text)
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
            raise BadCell(line, "journal_id", f"duplicate {journal_id!r}")
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


def parse_citation_export(
    content, journal_id: str
) -> tuple[list[ArticleRecord], list[int]]:
    """Parse one citation-export CSV into its records, all with status Kept,
    and the export line each record starts on (for :func:`deduplicate`)."""
    records: list[ArticleRecord] = []
    lines: list[int] = []
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
        records.append(record)
        lines.append(line)
    return records, lines


def parse_alias_file(content) -> AliasMap:
    """Parse the title-alias CSV into an :class:`AliasMap`. A row whose
    source normalizes like an earlier row's but names another target raises
    :class:`BadCell`."""
    aliases: dict[str, str] = {}
    for line, (source, target) in _read_rows(content, ALIAS_HEADER):
        source, target = normalize_title(source), normalize_title(target)
        if aliases.setdefault(source, target) != target:
            raise BadCell(line, "to_title", f"{source!r} already aliases {aliases[source]!r}")
    return AliasMap(aliases)


_NOT_ALNUM = re.compile(r"[\W_]+")


def normalize_title(title: str) -> str:
    """Lowercase, strip accents, make each run of characters other than
    letters and digits, of any script, one space, and trim."""
    text = title.lower()
    # ASCII text is its own NFD form and holds no combining mark. The marks go
    # before the substitution: a mark is not a letter, so it would split a word
    if not text.isascii():
        text = unicodedata.normalize("NFD", text)
        text = "".join(ch for ch in text if not unicodedata.combining(ch))
    return _NOT_ALNUM.sub(" ", text).strip()


def levenshtein(a: str, b: str) -> int:
    """Levenshtein distance, by Ukkonen's band widened until the distance fits.

    The band starts at the length gap and doubles, so the cost is O(L·d) for
    distance d; once k reaches the longer length no distance exceeds it.
    """
    k = max(1, abs(len(a) - len(b)))
    while True:
        distance = _banded_levenshtein(a, b, k)
        if distance <= k:
            return distance
        k *= 2


def title_similarity(a: str, b: str) -> float:
    """Normalized Levenshtein similarity, 1 - distance / max-length."""
    if a == b:
        return 1.0  # two empty titles too
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))


def _edit_budget(length: int, threshold: float) -> int:
    """Largest distance d with ``1.0 - d / length >= threshold``, by that float
    expression, the test title_similarity applies; 0 for length 0.

    ``int((1 - threshold) * length)`` is one short where rounding lands on the
    boundary (length 25 at 0.92, for one), so d counts up from 0 instead.
    """
    d = 0
    while d < length and 1.0 - (d + 1) / length >= threshold:
        d += 1
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


def _pieces(title: str, k: int) -> tuple:
    """The k + 1 pieces title splits into, each as (piece, lo, hi).

    Pigeonhole (Pass-Join, Li et al., VLDB 2011): an edit breaks at most one
    piece, and the edits before a piece move it at most k places, so a title
    within k edits of this one holds some piece within its ``[lo, hi)``.
    """
    short, extra = divmod(len(title), k + 1)
    pieces = []
    start = 0
    for index in range(k + 1):
        end = start + short + (index > k - extra)  # the last `extra` are one longer
        pieces.append((title[start:end], max(start - k, 0), end + k))
        start = end
    return tuple(pieces)


def _holds_a_piece(title: str, pieces: tuple) -> bool:
    """Whether title holds one of another title's pieces within its window."""
    for piece, lo, hi in pieces:
        if title.find(piece, lo, hi) >= 0:
            return True
    return False


def deduplicate(
    records: Sequence[ArticleRecord],
    config: DedupConfig,
    lines: Optional[Sequence[int]] = None,
) -> tuple[list[ArticleRecord], IngestReport]:
    """Apply the three cleaning criteria and return restatused records plus a report.

    Order matters: incomplete rows leave first, similar-title groups collapse
    second (highest cites wins, earlier row wins ties), and cross-language
    suspects are flagged last. All decisions are deterministic in input order.
    A decision names the export lines of its rows, ``lines[i]`` for
    ``records[i]``, as :func:`parse_citation_export` returns them; without
    ``lines``, record ``i`` counts as line ``i + 2`` (data starts under the
    header). ``config.alias_map`` is read as :class:`AliasMap` builds it.
    """
    # also rejects NaN, which would otherwise reach the edit-budget derivation
    if not 0.0 < config.title_threshold <= 1.0:
        raise DomainError(f"title threshold must lie in (0, 1], got {config.title_threshold}")
    ids = {r.journal_id for r in records}
    if len(ids) > 1:
        raise DomainError(f"records span journals {sorted(ids)}")
    alias = config.alias_map
    if not isinstance(alias, AliasMap):
        alias = AliasMap(alias)

    start, end = config.window
    statuses = [ArticleStatus.KEPT] * len(records)  # statuses[i] for records[i]
    survivors: list[int] = []  # the complete rows
    decisions: list[DedupDecision] = []
    if lines is None:
        lines = range(2, len(records) + 2)
    elif len(lines) != len(records):
        raise DomainError(f"{len(records)} records but {len(lines)} line numbers")

    for i, record in enumerate(records):
        if record.title.strip() and record.year is not None and start <= record.year <= end:
            survivors.append(i)
        else:
            statuses[i] = ArticleStatus.DROPPED_INCOMPLETE
            decisions.append(DedupDecision(lines[i], (lines[i],), DedupRule.INCOMPLETE_FIELDS))

    normalized = {i: normalize_title(records[i].title) for i in survivors}

    # A pair is similar when its distance is within the budget of the longer
    # title's length L. budget[L] is the exact threshold test, so only pairs
    # that pass it join, exactly as a full pairwise scan would decide.
    budget = {
        length: _edit_budget(length, config.title_threshold)
        for length in {len(t) for t in normalized.values()}
    }
    pieces = {i: _pieces(t, budget[len(t)]) for i, t in normalized.items()}

    # similar-title groups via union-find over pairs at or above the threshold
    parent = {i: i for i in survivors}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # Sweep in length order: the distance is at least the length gap, and
    # L - budget[L] never decreases with L, so once the gap exceeds the budget
    # no longer title can match. A pair within budget also finds one of the
    # longer title's pieces in the shorter one (see _pieces), which rejects
    # nearly every other pair with a few str.find calls; the banded match
    # decides what both filters let through.
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
                _holds_a_piece(a, pieces[j]) and _banded_levenshtein(a, b, k) <= k
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
                similarity=min(title_similarity(normalized[winner], normalized[i]) for i in dropped),
            )
        )

    # cross-language suspects: same (year, cites), no shared title words.
    # Only rows of one (year, cites) bucket can pair, so each row is paired
    # with the later rows of its bucket, in the order a scan of all pairs
    # would meet them.
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
            if statuses[j] not in VISIBLE_STATUSES:
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

    restatused = [r._replace(status=status) for r, status in zip(records, statuses)]
    counts = Counter(statuses)
    report = IngestReport(
        rows_read=len(records),
        rows_kept=sum(counts[status] for status in VISIBLE_STATUSES),
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

# a plain lookup is several times cheaper than an enum call such as
# ArticleStatus(value), once per article or journal; an unknown value, or one
# of another JSON type, still goes through the enum for its own ValueError
_STATUS_BY_VALUE, _AREA_BY_VALUE, _CATEGORY_BY_VALUE, _LIBRARY_BY_VALUE = (
    {member.value: member for member in enum}
    for enum in (ArticleStatus, Area, IbnpCategory, Library)
)


@contextmanager
def _section(name: str):
    """Turn a shape error inside one corpus JSON section into MalformedCorpus."""
    try:
        yield
    except KeyError as error:
        raise MalformedCorpus(f"corpus JSON {name}: missing key {error}") from None
    except (TypeError, ValueError) as error:
        raise MalformedCorpus(f"corpus JSON {name}: {error}") from None


def _journal_sections(journals: Sequence[JournalRecord]) -> dict:
    """The corpus JSON's journals and ibnp_totals sections for ``journals``."""
    return {
        "journals": [
            {
                "journal_id": j.journal_id,
                "title": j.title,
                "area": j.area.value,
                "category": j.category.value,
                "memberships": [t.value for t in Library if t in j.memberships],
            }
            for j in journals
        ],
        "ibnp_totals": {j.journal_id: j.air_ibnp for j in journals},
    }


def corpus_to_json(corpus: JournalCorpus) -> str:
    """Serialize to the canonical single-document JSON form (deterministic bytes)."""
    sections = _journal_sections(corpus.journals)
    doc = {
        "window": list(corpus.window),
        "journals": sections["journals"],
        # ArticleStatus is a str enum, so json writes its value
        "articles": [a._asdict() for a in corpus.articles],
        "ibnp_totals": sections["ibnp_totals"],
    }
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def _scalar_fault(where: str, name: str, value, expected: str) -> TypeError:
    return TypeError(f"{where}: {name} is {type(value).__name__}, not {expected}")


def _article(a, index) -> ArticleRecord:
    """Build one article record of a corpus JSON document, checking its fields.

    ``type(...) is int`` refuses ``bool``, which is an ``int`` subclass. The
    record is built by ``tuple.__new__``, skipping the keyword handling of
    ``ArticleRecord``'s own constructor, once per article of a large corpus.
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
    try:
        status = _STATUS_BY_VALUE[a["status"]]
    except (KeyError, TypeError):
        status = ArticleStatus(a["status"])
    return tuple.__new__(
        ArticleRecord, (journal_id, title, year, cites, authors, publication, publisher, url, status)
    )


def _parse(content, object_hook):
    """The JSON document ``content`` holds, each object passed through
    ``object_hook`` as the parser reads it."""
    try:
        return json.loads(_decode(content), object_hook=object_hook)
    except UnicodeDecodeError as error:
        raise MalformedCorpus(f"corpus JSON is not UTF-8: {error}") from None
    except ValueError as error:  # JSONDecodeError, or an integer over the digit limit
        raise MalformedCorpus(f"corpus JSON does not parse: {error}") from None
    except RecursionError:
        raise MalformedCorpus("corpus JSON is nested too deeply") from None


def _entries(doc, section: str, entry: str):
    """``(index, object)`` for each entry of the list ``doc[section]``,
    refusing a section or an entry of another JSON type."""
    entries = doc[section]
    if type(entries) is not list:
        raise TypeError(f"expected a list, got {type(entries).__name__}")
    for index, obj in enumerate(entries):
        if type(obj) is not dict:
            raise TypeError(f"{entry} {index} is {type(obj).__name__}, not dict")
        yield index, obj


def _journal_records(doc) -> Tuple[JournalRecord, ...]:
    """The journal records of the sections :func:`_journal_sections` wrote in ``doc``, checked."""
    if type(doc) is not dict:
        raise MalformedCorpus(f"corpus JSON is {type(doc).__name__}, not dict")
    with _section("journals"):
        rows = []
        for index, j in _entries(doc, "journals", "journal"):
            journal_id, title, memberships = j["journal_id"], j["title"], j["memberships"]
            if type(journal_id) is not str:
                raise _scalar_fault(f"journal {index}", "journal_id", journal_id, "str")
            if type(title) is not str:
                raise _scalar_fault(f"journal {index}", "title", title, "str")
            try:
                area, category = _AREA_BY_VALUE[j["area"]], _CATEGORY_BY_VALUE[j["category"]]
            except (KeyError, TypeError):
                area, category = Area(j["area"]), IbnpCategory(j["category"])
            if type(memberships) is not list:
                raise _scalar_fault(f"journal {index}", "memberships", memberships, "list")
            try:
                libraries = frozenset([_LIBRARY_BY_VALUE[t] for t in memberships])
            except (KeyError, TypeError):
                libraries = frozenset(Library(t) for t in memberships)
            # a repeated name would load merged and be written back once
            if len(libraries) < len(memberships):
                raise ValueError(f"journal {index}: memberships repeat a library: {memberships!r}")
            rows.append((journal_id, title, area, category, libraries))
    with _section("ibnp_totals"):
        totals = doc["ibnp_totals"]
        if type(totals) is not dict:
            raise TypeError(f"expected an object keyed by journal id, got {type(totals).__name__}")
        journals = []
        for journal_id, title, area, category, memberships in rows:
            if journal_id not in totals:
                raise ValueError(f"no entry for journal {journal_id!r}")
            total = totals[journal_id]
            if type(total) is not int:
                raise _scalar_fault(f"journal {journal_id!r}", "total", total, "int")
            journals.append(JournalRecord(journal_id, title, area, category, total, memberships))
        known = {row[0] for row in rows}
        for journal_id in totals:
            if journal_id not in known:
                raise ValueError(f"entry for unknown journal {journal_id!r}")
    return tuple(journals)


def _journals_and_window(doc) -> Tuple[Tuple[JournalRecord, ...], Tuple[int, int]]:
    """The checked journal records of ``doc`` and its window."""
    journals = _journal_records(doc)
    with _section("window"):
        window = doc["window"]
        if type(window) is not list or len(window) != 2 or any(type(y) is not int for y in window):
            raise ValueError(f"expected two int years, got {window!r}")
        if window[0] > window[1]:
            raise ValueError(f"start {window[0]} is after end {window[1]}")
    return journals, tuple(window)


def corpus_from_json(content) -> JournalCorpus:
    """Read the document :func:`corpus_to_json` writes.

    A document of another shape (a missing key, a document, section or entry
    of the wrong JSON type, an unknown area, category, library or status, a
    journal id, title, year, cites, ibnp total or article text field of the
    wrong type, memberships that are not a list of distinct libraries, ibnp
    totals that are not an object keyed by exactly the journals' ids, or a
    window that is not two int years in order) raises :class:`MalformedCorpus`
    naming the section it was found in. So does a well-formed document that
    :func:`validate_corpus` finds fault with, naming its first violation, a
    document nested deeper than the JSON parser can recurse, bytes that are
    not UTF-8 and text that is not JSON.

    ``content`` is the document's text or its UTF-8 bytes; given text, the
    caller can free the bytes before the parse. One leading byte-order mark
    is skipped, from text as from bytes.
    """
    doc = _parse(content, None)
    journals, window = _journals_and_window(doc)
    with _section("articles"):
        articles = tuple(_article(a, index) for index, a in _entries(doc, "articles", "article"))
    corpus = JournalCorpus(journals=journals, articles=articles, window=window)
    violations = validate_corpus(corpus)
    if violations:
        more = f" (and {len(violations) - 1} more)" if len(violations) > 1 else ""
        raise MalformedCorpus(f"corpus JSON is invalid: {violations[0]}{more}")
    return corpus


# what journal_cites_from_json's hook returns for an article it has read; no
# JSON value is this object, so an entry holding it is one the hook read
_READ = object()


def journal_cites_from_json(content) -> Tuple[Tuple[JournalRecord, ...], dict[str, list[int]]]:
    """``(corpus.journals, visible_cites(corpus))`` for the corpus
    :func:`corpus_from_json` loads from ``content``, built without article
    records: each article is built and checked as the parser reads it, its
    cites join the map, and the parser keeps a marker in its place.

    A document this cannot vouch for goes to :func:`corpus_from_json`, which
    raises its exact :class:`MalformedCorpus` or gives the pairs from the
    corpus it loads: a fault in any section, an ``articles`` entry left
    unread (an article that breaks a rule stays unread), an article read
    outside that array, a visible article dated outside the window, an
    article of no journal, or a journal :func:`validate_corpus` refuses.
    """
    cites: dict[str, list[int]] = {}
    journal_ids, visible_years = set(), set()
    read = 0

    def cites_or_object(obj: dict):
        nonlocal read
        try:
            article = _article(obj, None)
        except (KeyError, TypeError, ValueError):
            return obj
        visible = article.status in VISIBLE_STATUSES
        # an article that breaks a rule stays unread: within ``articles`` that
        # hands the document over, and elsewhere both readers ignore it
        if article.cites < 0 or visible and (article.year is None or not article.title.strip()):
            return obj
        read += 1
        journal_ids.add(article.journal_id)
        if visible:
            visible_years.add(article.year)
            cites.setdefault(article.journal_id, []).append(article.cites)
        return _READ

    try:
        doc = _parse(content, cites_or_object)
        journals, window = _journals_and_window(doc)
    except MalformedCorpus:
        pass
    else:
        articles, (start, end) = doc.get("articles"), window
        if (
            type(articles) is list
            and read == len(articles) == articles.count(_READ)
            and all(start <= year <= end for year in visible_years)
            and journal_ids <= {journal.journal_id for journal in journals}
            and not validate_corpus(JournalCorpus(journals, (), window))
        ):
            return journals, cites
    corpus = corpus_from_json(content)
    return corpus.journals, visible_cites(corpus)
