"""Per-journal, per-area and per-group indicators of size, indexation and citation.

Quotients against registry production are left undefined (None) instead of
dividing by zero; undefined values serialize as empty cells, never NaN.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Tuple

from .corpus import Area, IbnpCategory, JournalRecord, Library
from .errors import DomainError

INDICATOR_CSV_HEADER = (
    "journal_id,title,area,category,air_ibnp,air_ga,ratio_ba,cr_ga,ca_mean,h,pi_ld,pi_ibnp,cpn"
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


class IndicatorSet(NamedTuple):
    journal_id: str
    air_ibnp: int
    air_ga: int
    cr_ga: int
    ca_mean: Optional[float]
    visibility_ratio: Optional[float]
    h: int
    pi_ld: int
    pi_ibnp: int
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


def compute_indicator_set(journal: JournalRecord, cites: Sequence[int]) -> IndicatorSet:
    """Build the full per-journal indicator set from the cites of its visible articles."""
    air_ibnp = journal.air_ibnp
    if air_ibnp < 0:
        raise DomainError("registry production cannot be negative")
    air_ga = len(cites)
    cr_ga = sum(cites)
    return IndicatorSet(
        journal_id=journal.journal_id,
        air_ibnp=air_ibnp,
        air_ga=air_ga,
        cr_ga=cr_ga,
        ca_mean=cr_ga / air_ibnp if air_ibnp > 0 else None,
        visibility_ratio=air_ga / air_ibnp if air_ibnp > 0 else None,
        h=h_index(cites),
        pi_ld=pi_ld(journal.memberships),
        pi_ibnp=pi_ibnp(journal.category),
    )


MEAN_MODES = ("pooled", "ratios")  # of area_mean_citation


def _check_mean_mode(mode: str) -> None:
    if mode not in MEAN_MODES:
        raise DomainError(f"unknown area-mean mode {mode!r}")


def area_mean_citation(sets: Sequence[IndicatorSet], mode: str = "ratios") -> float:
    """Area-level citations per article.

    "ratios" averages the per-journal rates; "pooled" divides summed cites by
    summed registry articles. Journals without registry production are
    excluded either way.
    """
    qualifying = [s for s in sets if s.ca_mean is not None]
    if not qualifying:
        raise DomainError("no journal with registry production")
    _check_mean_mode(mode)
    if mode == "ratios":
        return math.fsum(s.ca_mean for s in qualifying) / len(qualifying)
    return sum(s.cr_ga for s in qualifying) / sum(s.air_ibnp for s in qualifying)


def cpn(indicator_set: IndicatorSet, area_mean: float) -> float:
    """Observed over expected citation rate against the area average."""
    if indicator_set.ca_mean is None:
        raise DomainError(f"journal {indicator_set.journal_id!r} has no citation rate")
    if area_mean == 0.0:
        raise DomainError("area citation rate is zero")
    return indicator_set.ca_mean / area_mean


def _log10_count(n: int) -> Optional[float]:
    return math.log10(n) if n > 0 else None


#: named per-journal variables; extractors return None where undefined. An
#: article count without articles has no log; citations take a +1 shift
VARIABLES: Mapping[str, Callable[[IndicatorSet], Optional[float]]] = {
    "air_ibnp_log10": lambda s: _log10_count(s.air_ibnp),
    "air_ga_log10": lambda s: _log10_count(s.air_ga),
    "pi_ibnp": lambda s: float(s.pi_ibnp),
    "pi_ld": lambda s: float(s.pi_ld),
    "cr_ga_log10": lambda s: math.log10(s.cr_ga + 1.0),
    "ca_mean": lambda s: s.ca_mean,
    "ratio_ba": lambda s: s.visibility_ratio,
    "h": lambda s: float(s.h),
}


def _mean_sd(sets: Sequence[IndicatorSet], name: str) -> tuple[Optional[float], Optional[float]]:
    """Mean and sample SD of one variable over the journals where it is defined."""
    values = [v for v in map(VARIABLES[name], sets) if v is not None]
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
    mean_log_cr, sd_log_cr = _mean_sd(sets, "cr_ga_log10")
    mean_ca, sd_ca = _mean_sd(sets, "ca_mean")
    mean_ratio, sd_ratio = _mean_sd(sets, "ratio_ba")
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
        mean_log10_air=_mean_sd(sets, "air_ibnp_log10")[0],
        mean_pi_ld=_mean_sd(sets, "pi_ld")[0],
    )


def corpus_indicator_sets(
    journals: Sequence[JournalRecord],
    cites: Mapping[str, Sequence[int]],
    mean_mode: str = "ratios",
) -> list[Tuple[JournalRecord, IndicatorSet]]:
    """Indicator sets for ``journals``, normalized within each journal's area.

    ``cites`` maps a journal id to the cites of its visible articles, as
    :func:`citemetric.corpus.visible_cites` and
    :func:`citemetric.ingest.journal_cites_from_json` return them; a journal
    it does not name has none. The normalized citation index stays unset for
    journals without a defined rate or for areas where no journal qualifies,
    and an unknown ``mean_mode`` raises :class:`DomainError` even then.
    """
    _check_mean_mode(mean_mode)
    pairs = []
    rated: dict[Area, list[IndicatorSet]] = {}
    for journal in journals:
        indicator = compute_indicator_set(journal, cites.get(journal.journal_id, ()))
        pairs.append((journal, indicator))
        if indicator.ca_mean is not None:
            rated.setdefault(journal.area, []).append(indicator)
    area_means = {area: area_mean_citation(sets, mean_mode) for area, sets in rated.items()}

    out: list[Tuple[JournalRecord, IndicatorSet]] = []
    for journal, indicator in pairs:
        if indicator.ca_mean is not None and area_means[journal.area] > 0:
            indicator = indicator._replace(cpn=cpn(indicator, area_means[journal.area]))
        out.append((journal, indicator))
    return out


def _cell(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.4f}"


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


def _plain(value):
    """A named tuple as an object of its fields in order, any other tuple or
    list as an array, a dict as an object, and a non-finite float as null."""
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {name: _plain(item) for name, item in zip(value._fields, value)}
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def json_text(doc) -> str:
    """``doc`` as UTF-8 JSON text with a two-space indent and a final line feed."""
    return json.dumps(_plain(doc), ensure_ascii=False, indent=2) + "\n"


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
            s.pi_ld,
            s.pi_ibnp,
            _cell(s.cpn),
        ]
        lines.append(csv_record(cells))
    return "".join(lines)
