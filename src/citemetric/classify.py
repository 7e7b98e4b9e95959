"""Journal ranking by h index, quartile assignment, and report rendering.

Quartile bounds are a plain ``(q1, q2, q3)`` tuple: the least h of quartiles
1, 2 and 3, non-increasing. :data:`FIXED_BOUNDS` holds the conventional
cuts and :func:`empirical_bounds` reads them off a ranking.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple, Optional, Sequence, Tuple

from .corpus import IbnpCategory, JournalRecord
from .errors import DomainError
from .indicators import IndicatorSet, csv_record, json_text


#: conventional integer cutoffs: quartile 1 above 3, then 3, 2, 1 and below. As the
#: least h of each quartile that is (4, 3, 2), the same rule only because h is an int
FIXED_BOUNDS = (4, 3, 2)


class ClassificationRow(NamedTuple):
    rank: int
    title: str
    h: int
    category: IbnpCategory
    cpn: float
    quartile: Optional[int] = None


def rank_journals(
    pairs: Sequence[Tuple[JournalRecord, IndicatorSet]]
) -> list[ClassificationRow]:
    """Order journals by h descending, normalized citation, then title."""
    for journal, indicator in pairs:
        if indicator.cpn is None:
            raise DomainError(f"journal {journal.journal_id!r} has no normalized citation value")
    ordered = sorted(pairs, key=lambda p: (-p[1].h, -p[1].cpn, p[0].title))
    return [
        ClassificationRow(
            rank=position,
            title=journal.title,
            h=indicator.h,
            category=journal.category,
            cpn=indicator.cpn,
        )
        for position, (journal, indicator) in enumerate(ordered, start=1)
    ]


def empirical_bounds(rows: Sequence[ClassificationRow]) -> Tuple[int, int, int]:
    """Cut points read off the ranked h values at the quartile positions."""
    if not rows:
        raise DomainError("cannot derive quartile bounds from an empty ranking")
    n = len(rows)
    hs = [row.h for row in rows]  # already descending
    return tuple(hs[math.ceil(n * f / 4) - 1] for f in (1, 2, 3))


def assign_quartiles(
    rows: Sequence[ClassificationRow], bounds: Tuple[int, int, int]
) -> list[ClassificationRow]:
    """Attach quartiles; ties on h always land in the upper quartile.

    ``bounds`` is the least h of quartiles 1, 2 and 3, and must not increase.
    """
    q1, q2, q3 = bounds
    if not (q1 >= q2 >= q3):
        raise DomainError(f"quartile cuts must be non-increasing, got {bounds}")
    return [row._replace(quartile=1 + sum(row.h < cut for cut in bounds)) for row in rows]


REPORT_COLUMNS = ClassificationRow._fields


def _row_cells(row: ClassificationRow) -> list[str]:
    return [
        str(row.rank),
        row.title,
        str(row.h),
        row.category.value,
        f"{row.cpn:.2f}",
        str(row.quartile),
    ]


def emit_report(
    rows: Sequence[ClassificationRow],
    fmt: str,
    top_quartiles: Optional[int] = None,
) -> str:
    """Render the classification as csv, json, or a pipe table (md).

    Output is deterministic text; top_quartiles keeps only the leading
    quartiles. Normalized citation values carry two decimals everywhere.
    """
    selected = [
        row
        for row in rows
        if top_quartiles is None or (row.quartile is not None and row.quartile <= top_quartiles)
    ]
    if fmt == "csv":
        lines = [csv_record(REPORT_COLUMNS)] + [csv_record(_row_cells(row)) for row in selected]
        return "".join(lines)
    if fmt == "json":
        return json_text([row._replace(cpn=round(row.cpn, 2)) for row in selected])
    if fmt == "md":
        lines = [
            "| " + " | ".join(REPORT_COLUMNS) + " |",
            "| " + " | ".join("---" for _ in REPORT_COLUMNS) + " |",
        ]
        for row in selected:
            # an escaped pipe stays in its cell; a line break would end the row
            cells = (re.sub(r"\r\n?|\n", " ", c.replace("|", r"\|")) for c in _row_cells(row))
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"
    raise DomainError(f"unknown report format {fmt!r}; use 'csv', 'json' or 'md'")
