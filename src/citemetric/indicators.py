"""Per-journal, per-area and per-group indicators of size, indexation and citation.

Quotients against registry production are left undefined (None) instead of
dividing by zero; undefined values serialize as empty cells, never NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence, Tuple

from .corpus import (
    VISIBLE_STATUSES,
    Area,
    ArticleRecord,
    IbnpCategory,
    JournalCorpus,
    JournalRecord,
    Library,
)
from .errors import DomainError

INDICATOR_CSV_HEADER = (
    "journal_id,title,area,category,air_ibnp,air_ga,ratio_ba,cr_ga,ca_mean,"
    "h,h_sc,pi_ld,pi_ibnp,cpn"
)

#: library indexation weights, a power-of-ten ladder from free search to
#: subscription libraries (minimum 0, maximum 221)
LIBRARY_WEIGHTS = {
    Library.WOK: 100,
    Library.SCOPUS: 100,
    Library.REDALYC: 10,
    Library.SCIELO: 10,
    Library.GOOGLE_SCHOLAR: 1,
}

CATEGORY_SCORES = {
    IbnpCategory.A1: 4,
    IbnpCategory.A2: 3,
    IbnpCategory.B: 2,
    IbnpCategory.C: 1,
}


@dataclass(frozen=True)
class IndicatorSet:
    journal_id: str
    air_ibnp: int
    air_ga: int
    cr_ga: int
    ca_mean: Optional[float]
    visibility_ratio: Optional[float]
    h: int
    pi_ld: int
    pi_ibnp: int
    h_sc: Optional[int] = None  # no input supplies it; the CSV keeps an empty column
    cpn: Optional[float] = None


class GroupSummary(NamedTuple):
    label: str
    n_journals: int
    total_articles: int  # registry production
    total_articles_ga: int  # visible production
    total_cites: int
    mean_log10_cr: float
    sd_log10_cr: Optional[float]
    mean_ca: Optional[float]
    sd_ca: Optional[float]
    mean_ratio_ba: Optional[float]
    sd_ratio_ba: Optional[float]
    mean_log10_air: Optional[float]
    mean_pi_ld: float


def h_index(cites: Sequence[int]) -> int:
    """Largest k with at least k entries of value k or more."""
    h = 0
    for i, c in enumerate(sorted(cites, reverse=True), start=1):
        if c >= i:
            h = i
        else:
            break
    return h


def pi_ld(memberships) -> int:
    return sum(LIBRARY_WEIGHTS[tag] for tag in memberships)


def pi_ibnp(category: IbnpCategory) -> int:
    return CATEGORY_SCORES[category]


def log10_shifted(x: float, kind: str = "citations") -> float:
    """log10 transform: citation series get a +1 shift, article counts do not."""
    if kind == "citations":
        if x < 0:
            raise DomainError("citation counts cannot be negative")
        return math.log10(x + 1.0)
    if kind == "articles":
        if x <= 0:
            raise DomainError("article counts must be positive for the log transform")
        return math.log10(x)
    raise DomainError(f"unknown transform kind {kind!r}")


def compute_indicator_set(
    journal: JournalRecord, records: Sequence[ArticleRecord]
) -> IndicatorSet:
    """Build the full per-journal indicator set from its visible records."""
    air_ibnp = journal.air_ibnp
    if air_ibnp < 0:
        raise DomainError("registry production cannot be negative")
    air_ga = len(records)
    cr_ga = sum(r.cites for r in records)
    return IndicatorSet(
        journal_id=journal.journal_id,
        air_ibnp=air_ibnp,
        air_ga=air_ga,
        cr_ga=cr_ga,
        ca_mean=cr_ga / air_ibnp if air_ibnp > 0 else None,
        visibility_ratio=air_ga / air_ibnp if air_ibnp > 0 else None,
        h=h_index([r.cites for r in records]),
        pi_ld=pi_ld(journal.memberships),
        pi_ibnp=pi_ibnp(journal.category),
    )


def area_mean_citation(sets: Sequence[IndicatorSet], mode: str = "ratios") -> float:
    """Area-level citations per article.

    "ratios" averages the per-journal rates; "pooled" divides summed cites by
    summed registry articles. Journals without registry production are
    excluded either way.
    """
    qualifying = [s for s in sets if s.ca_mean is not None]
    if not qualifying:
        raise DomainError("no journal with registry production")
    if mode == "ratios":
        return math.fsum(s.ca_mean for s in qualifying) / len(qualifying)
    if mode == "pooled":
        return sum(s.cr_ga for s in qualifying) / sum(s.air_ibnp for s in qualifying)
    raise DomainError(f"unknown area-mean mode {mode!r}")


def cpn(indicator_set: IndicatorSet, area_mean: float) -> float:
    """Observed over expected citation rate against the area average."""
    if indicator_set.ca_mean is None:
        raise DomainError(f"journal {indicator_set.journal_id!r} has no citation rate")
    if area_mean == 0.0:
        raise DomainError("area citation rate is zero")
    return indicator_set.ca_mean / area_mean


def _mean_sd(values: Sequence[float]) -> tuple[Optional[float], Optional[float]]:
    if not values:
        return None, None
    mean = math.fsum(values) / len(values)
    if len(values) < 2:
        return mean, None
    variance = math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(max(variance, 0.0))


def summarize_group(sets: Sequence[IndicatorSet], label: str) -> GroupSummary:
    """Totals and per-journal means for one library or category group."""
    if not sets:
        raise DomainError(f"group {label!r} is empty")
    log_cr = [log10_shifted(s.cr_ga, "citations") for s in sets]
    ca = [s.ca_mean for s in sets if s.ca_mean is not None]
    ratio = [s.visibility_ratio for s in sets if s.visibility_ratio is not None]
    log_air = [log10_shifted(s.air_ibnp, "articles") for s in sets if s.air_ibnp > 0]
    mean_log_cr, sd_log_cr = _mean_sd(log_cr)
    mean_ca, sd_ca = _mean_sd(ca)
    mean_ratio, sd_ratio = _mean_sd(ratio)
    mean_log_air, _ = _mean_sd(log_air)
    return GroupSummary(
        label=label,
        n_journals=len(sets),
        total_articles=sum(s.air_ibnp for s in sets),
        total_articles_ga=sum(s.air_ga for s in sets),
        total_cites=sum(s.cr_ga for s in sets),
        mean_log10_cr=mean_log_cr,
        sd_log10_cr=sd_log_cr,
        mean_ca=mean_ca,
        sd_ca=sd_ca,
        mean_ratio_ba=mean_ratio,
        sd_ratio_ba=sd_ratio,
        mean_log10_air=mean_log_air,
        mean_pi_ld=math.fsum(float(s.pi_ld) for s in sets) / len(sets),
    )


def corpus_indicator_sets(
    corpus: JournalCorpus, mean_mode: str = "ratios"
) -> list[Tuple[JournalRecord, IndicatorSet]]:
    """Indicator sets for every journal, normalized within each journal's area.

    The normalized citation index stays unset for journals without a defined
    rate or for areas where no journal qualifies.
    """
    visible: dict[str, list[ArticleRecord]] = {}
    for article in corpus.articles:
        if article.status in VISIBLE_STATUSES:
            visible.setdefault(article.journal_id, []).append(article)
    pairs = [
        (journal, compute_indicator_set(journal, visible.get(journal.journal_id, ())))
        for journal in corpus.journals
    ]

    by_area: dict[Area, list[IndicatorSet]] = {}
    for journal, indicator in pairs:
        by_area.setdefault(journal.area, []).append(indicator)
    area_means = {
        area: area_mean_citation(sets, mode=mean_mode)
        for area, sets in by_area.items()
        if any(s.ca_mean is not None for s in sets)
    }

    out: list[Tuple[JournalRecord, IndicatorSet]] = []
    for journal, indicator in pairs:
        area_mean = area_means.get(journal.area)
        if area_mean is not None and indicator.ca_mean is not None and area_mean > 0:
            indicator = replace(indicator, cpn=cpn(indicator, area_mean))
        out.append((journal, indicator))
    return out


def _cell(value, decimals: int = 4) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.{decimals}f}"


_CSV_QUOTED = frozenset(',"\r\n')


def _csv_cell(text: str) -> str:
    if _CSV_QUOTED.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def csv_record(cells: Sequence) -> str:
    r"""One CSV record ending in a line feed; a cell holding a comma, a quote or
    a line break (``\r`` or ``\n``) is quoted, with its quotes doubled.

    For records of two or more cells without a ``\r`` that is what
    ``csv.writer(buffer, lineterminator="\n")`` writes. Before Python 3.13
    that writer leaves a lone ``\r`` bare, which splits the record for a
    reader, and 3.10's refuses a NUL; this writes the same bytes on every version.
    """
    return ",".join(_csv_cell(str(cell)) for cell in cells) + "\n"


def indicators_csv(pairs: Sequence[Tuple[JournalRecord, IndicatorSet]]) -> str:
    """Render the per-journal indicator table; reals carry 4 decimals."""
    lines = [INDICATOR_CSV_HEADER + "\n"]
    for journal, s in pairs:
        cells = [
            journal.journal_id,
            journal.title,
            journal.area.value,
            journal.category.value,
            s.air_ibnp,
            s.air_ga,
            _cell(s.visibility_ratio),
            s.cr_ga,
            _cell(s.ca_mean),
            s.h,
            _cell(s.h_sc),
            s.pi_ld,
            s.pi_ibnp,
            _cell(s.cpn),
        ]
        lines.append(csv_record(cells))
    return "".join(lines)
