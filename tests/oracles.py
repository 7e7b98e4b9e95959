"""Independent oracles the tests check the library against.

These deliberately avoid the code paths under test: counting instead of
sorting for the h index, scipy plus numpy for rank correlation, exhaustive
permutation for small-sample p values, and the original all-pairs record
cleaning with a full Levenshtein and a character-by-character title
normalization for title deduplication.
"""

from __future__ import annotations

import itertools
import math
import re
import unicodedata
from typing import Sequence

import numpy as np
from scipy.stats import rankdata

from citemetric.corpus import ArticleRecord, ArticleStatus
from citemetric.errors import DomainError
from citemetric.ingest import (
    DedupConfig,
    DedupDecision,
    DedupRule,
    IngestReport,
)


def normalize_title_reference(title: str) -> str:
    """Title normalization in two passes: NFD, then every character's
    combining class checked, then each character that is neither a letter nor
    a digit of any script (by ``str.isalnum``) nor whitespace made a space,
    then whitespace runs collapsed."""
    text = unicodedata.normalize("NFD", title.lower())
    text = "".join(ch for ch in text if not unicodedata.combining(ch))
    text = "".join(ch if ch.isalnum() or ch.isspace() else " " for ch in text)
    return re.sub(r"\s+", " ", text).strip()


def brute_force_h(cites) -> int:
    """max k such that at least k entries are >= k, by direct counting."""
    values = np.asarray(list(cites), dtype=int)
    best = 0
    for k in range(len(values), -1, -1):
        if int(np.count_nonzero(values >= k)) >= k:
            best = k
            break
    return best


def spearman_r_reference(x, y) -> float:
    """Pearson correlation of midranks via scipy/numpy."""
    rx = rankdata(x, method="average")
    ry = rankdata(y, method="average")
    return float(np.corrcoef(rx, ry)[0, 1])


def exact_permutation_pvalue(x, y) -> float:
    """Two-sided permutation p for the rank correlation: the share of the n!
    orderings of y whose |r| is at least |r_obs| - 1e-12. Each ordering is one
    row of an index array into y's midranks, and r for all of them comes from
    one matrix product; at n = 9 that is 362,880 rows of 9."""
    rx = rankdata(x, method="average")
    ry = rankdata(y, method="average")
    rx -= rx.mean()
    ry -= ry.mean()
    orders = np.array(list(itertools.permutations(range(len(ry)))))
    r = ry[orders] @ rx / math.sqrt((rx @ rx) * (ry @ ry))
    observed = abs(spearman_r_reference(x, y))
    return int(np.count_nonzero(np.abs(r) >= observed - 1e-12)) / len(orders)


def exact_permutation_pvalue_loop(x, y) -> float:
    """:func:`exact_permutation_pvalue` as first written, one scipy correlation
    per ordering of y, kept as its reference. Orderings that repeat a sequence
    (y has ties) reuse that sequence's |r|, the same float."""
    observed = abs(spearman_r_reference(x, y))
    seen = {}
    hits = 0
    total = 0
    for perm in itertools.permutations(y):
        total += 1
        if perm not in seen:
            seen[perm] = abs(spearman_r_reference(x, perm))
        if seen[perm] >= observed - 1e-12:
            hits += 1
    return hits / total


def anova_f_reference(groups) -> float:
    """Hand decomposition of between and within sums of squares."""
    all_values = [v for g in groups for v in g]
    grand = sum(all_values) / len(all_values)
    means = [sum(g) / len(g) for g in groups]
    ssb = sum(len(g) * (m - grand) ** 2 for g, m in zip(groups, means))
    ssw = sum(sum((v - m) ** 2 for v in g) for g, m in zip(groups, means))
    df1 = len(groups) - 1
    df2 = len(all_values) - len(groups)
    return (ssb / df1) / (ssw / df2)


def equicorrelated_columns(rho_num: int = 9, rho_den: int = 10):
    """Three integer columns whose sample correlations are exactly 0.9.

    Built from orthogonal sign patterns: shared component weight 3, private
    weight 1, so every pairwise correlation is 9 / (9 + 1).
    """
    assert (rho_num, rho_den) == (9, 10)
    h0 = [1, 1, 1, 1, -1, -1, -1, -1]
    h1 = [1, -1, 1, -1, 1, -1, 1, -1]
    h2 = [1, 1, -1, -1, 1, 1, -1, -1]
    h3 = [1, -1, -1, 1, 1, -1, -1, 1]
    return [[3 * a + b, 3 * a + c, 3 * a + d] for a, b, c, d in zip(h0, h1, h2, h3)]


# --- record cleaning: the all-pairs scan, kept verbatim as the reference ----

def levenshtein_reference(a: str, b: str) -> int:
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb))
            )
        previous = current
    return previous[-1]


def title_similarity_reference(a: str, b: str) -> float:
    """Normalized Levenshtein similarity, 1 - distance / max-length."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein_reference(a, b) / longest


def _line_of(index: int) -> int:
    # records arrive in file order; the header is line 1, so data starts at 2
    return index + 2


def deduplicate_reference(
    records: Sequence[ArticleRecord], config: DedupConfig
) -> tuple[list[ArticleRecord], IngestReport]:
    """Apply the three cleaning criteria and return restatused records plus a report.

    Order matters: incomplete rows leave first, similar-title groups collapse
    second (highest cites wins, earlier row wins ties), and cross-language
    suspects are flagged last. All decisions are deterministic in input order.
    """
    ids = {r.journal_id for r in records}
    if len(ids) > 1:
        raise DomainError(f"records span journals {sorted(ids)}")

    start, end = config.window
    statuses: dict[int, ArticleStatus] = {}
    decisions: list[DedupDecision] = []

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
                    kept_line=_line_of(i),
                    dropped_lines=(_line_of(i),),
                    rule=DedupRule.INCOMPLETE_FIELDS,
                )
            )
        else:
            statuses[i] = ArticleStatus.KEPT

    survivors = [i for i in range(len(records)) if statuses[i] is ArticleStatus.KEPT]
    normalized = {i: normalize_title_reference(records[i].title) for i in survivors}

    # similar-title groups via union-find over pairs at or above the threshold
    parent = {i: i for i in survivors}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for pos, i in enumerate(survivors):
        for j in survivors[pos + 1 :]:
            if title_similarity_reference(normalized[i], normalized[j]) >= config.title_threshold:
                parent[find(j)] = find(i)

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
                kept_line=_line_of(winner),
                dropped_lines=tuple(_line_of(i) for i in dropped),
                rule=DedupRule.SIMILAR_TITLE,
                similarity=min(
                    title_similarity_reference(normalized[winner], normalized[i]) for i in dropped
                ),
            )
        )

    # cross-language suspects: same (year, cites), no shared title words
    alias = {
        normalize_title_reference(k): normalize_title_reference(v)
        for k, v in config.alias_map.items()
    }
    kept = [i for i in survivors if statuses[i] is ArticleStatus.KEPT]
    for pos, i in enumerate(kept):
        if statuses[i] is not ArticleStatus.KEPT:
            continue
        for j in kept[pos + 1 :]:
            if statuses[j] not in (ArticleStatus.KEPT, ArticleStatus.NEEDS_REVIEW):
                continue
            a, b = records[i], records[j]
            if (a.year, a.cites) != (b.year, b.cites):
                continue
            tokens_a, tokens_b = set(normalized[i].split()), set(normalized[j].split())
            if not tokens_a or not tokens_b or tokens_a & tokens_b:
                continue
            if alias.get(normalized[i]) == normalized[j]:
                statuses[i] = ArticleStatus.DROPPED_DUPLICATE
                decisions.append(
                    DedupDecision(_line_of(j), (_line_of(i),), DedupRule.CROSS_LANGUAGE_SUSPECT)
                )
                break  # i is gone; stop pairing it
            if alias.get(normalized[j]) == normalized[i]:
                statuses[j] = ArticleStatus.DROPPED_DUPLICATE
                decisions.append(
                    DedupDecision(_line_of(i), (_line_of(j),), DedupRule.CROSS_LANGUAGE_SUSPECT)
                )
                continue
            statuses[i] = ArticleStatus.NEEDS_REVIEW
            statuses[j] = ArticleStatus.NEEDS_REVIEW
            decisions.append(
                DedupDecision(min(_line_of(i), _line_of(j)), (), DedupRule.CROSS_LANGUAGE_SUSPECT)
            )

    restatused = [r._replace(status=statuses[i]) for i, r in enumerate(records)]
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
