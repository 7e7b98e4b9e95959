"""Area-level analyses: group comparisons, correlation matrices, the
citation factor analysis, and the two citation regressions.

Each analysis takes one knowledge area's ``(JournalRecord, IndicatorSet)``
pairs, as :func:`citemetric.indicators.corpus_indicator_sets` returns them
for that area's journals, and reads indicator values through the named variables of
:data:`citemetric.indicators.VARIABLES` so callers can pick columns by name.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Tuple

# filter_by_area and corpus_indicator_sets go unused here; bench/spans.py wraps them by name
from .corpus import Area, IbnpCategory, JournalRecord, Library, filter_by_area
from .errors import DomainError
from .indicators import (
    VARIABLES,
    GroupSummary,
    IndicatorSet,
    corpus_indicator_sets,
    json_text,
    summarize_group,
)
from .statkit import (
    FactorResult,
    RegressionResult,
    TestResult,
    anova_oneway,
    kruskal_wallis,
    ols_fit,
    pca_unrotated,
    spearman,
    tukey_groups,
)


class GroupDimension(str, Enum):
    BY_LIBRARY = "library"
    BY_CATEGORY = "category"


#: the size / indexation / citation columns the comparison tables report
DEFAULT_COMPARE_VARIABLES = ("air_ibnp_log10", "ratio_ba", "pi_ld", "cr_ga_log10", "ca_mean")

#: citation indicators entering the factor analysis, in reporting order
FACTOR_VARIABLES = ("h", "cr_ga_log10", "ca_mean")


class Letters(NamedTuple):
    labels: Tuple[str, ...]  # the groups where the variable is defined
    letters: Tuple[str, ...]  # one Tukey letter string per label


class ComparisonTable(NamedTuple):
    dimension: GroupDimension
    area: Area
    method: str
    alpha: float
    variables: Tuple[str, ...]
    rows: Tuple[GroupSummary, ...]
    tests: Mapping[str, TestResult]
    letters: Mapping[str, Letters]
    excluded: Tuple[Tuple[str, str], ...]


class CorrelationMatrix(NamedTuple):
    variables: Tuple[str, ...]
    r: Tuple[Tuple[float, ...], ...]
    significant: Tuple[Tuple[bool, ...], ...]
    n: Tuple[Tuple[int, ...], ...]
    alpha: float


def _extractor(name: str) -> Callable[[IndicatorSet], Optional[float]]:
    try:
        return VARIABLES[name]
    except KeyError:
        raise DomainError(f"unknown variable {name!r}; choose from {sorted(VARIABLES)}") from None


#: one area's journals with their indicators
Pairs = Sequence[Tuple[JournalRecord, IndicatorSet]]


def _distinct(variables: Sequence[str]) -> Tuple[str, ...]:
    names = tuple(variables)
    for name in names:
        if names.count(name) > 1:
            raise DomainError(f"variable {name!r} is listed more than once")
    return names


def _complete_rows(pairs: Pairs, names: Sequence[str]) -> list[list[float]]:
    """The named variables of every journal where all of them are defined."""
    extractors = [_extractor(name) for name in names]
    rows = []
    for _, s in pairs:
        values = [extract(s) for extract in extractors]
        if all(v is not None for v in values):
            rows.append(values)
    return rows


def compare_groups(
    pairs: Pairs,
    dimension: GroupDimension,
    variables: Sequence[str] = DEFAULT_COMPARE_VARIABLES,
    method: str = "anova",
    alpha: float = 0.05,
) -> ComparisonTable:
    """Compare indicator variables across libraries or registry categories.

    Library groups overlap: a journal contributes to every library it belongs
    to. Groups below two journals are excluded and reported as such. Letters
    are always computed on the plain variable values, whichever omnibus test
    runs. The table's area is its journals' area; journals of both areas
    raise :class:`DomainError`.
    """
    dimension = GroupDimension(dimension)
    names = _distinct(variables)
    if not names:
        raise DomainError("need at least one variable")
    if method not in ("anova", "kw"):
        raise DomainError(f"unknown method {method!r}; use 'anova' or 'kw'")

    grouped: list[Tuple[str, list[IndicatorSet]]] = []
    if dimension is GroupDimension.BY_LIBRARY:
        for tag in Library:
            members = [s for j, s in pairs if tag in j.memberships]
            grouped.append((tag.value, members))
    else:
        for category in IbnpCategory:
            members = [s for j, s in pairs if j.category is category]
            grouped.append((category.value, members))

    included = [(label, sets) for label, sets in grouped if len(sets) >= 2]
    excluded = tuple((label, f"n={len(sets)}") for label, sets in grouped if len(sets) < 2)
    if len(included) < 2:
        raise DomainError("fewer than two groups with at least two journals")
    area, *other_areas = {j.area for j, _ in pairs}
    if other_areas:
        raise DomainError("the journals are of both areas; compare one area at a time")

    rows = tuple(summarize_group(sets, label) for label, sets in included)

    tests: dict[str, TestResult] = {}
    letters: dict[str, Letters] = {}
    for name in names:
        extract = _extractor(name)
        labels: list[str] = []
        value_groups: list[list[float]] = []
        for label, sets in included:
            values = [v for v in (extract(s) for s in sets) if v is not None]
            if values:
                labels.append(label)
                value_groups.append(values)
        if len(value_groups) < 2:
            raise DomainError(f"variable {name!r} is defined in fewer than two groups")
        if method == "anova":
            tests[name] = anova_oneway(value_groups)
        else:
            tests[name] = kruskal_wallis(value_groups)
        letters[name] = Letters(tuple(labels), tukey_groups(value_groups, alpha))

    return ComparisonTable(
        dimension=dimension,
        area=area,
        method=method,
        alpha=alpha,
        variables=names,
        rows=rows,
        tests=tests,
        letters=letters,
        excluded=excluded,
    )


def correlation_matrix(
    pairs: Pairs, variables: Sequence[str], alpha: float = 0.05
) -> CorrelationMatrix:
    """Pairwise rank correlations with pairwise deletion of undefined values."""
    names = _distinct(variables)
    if len(names) < 2:
        raise DomainError("need at least two variables")
    columns = {name: [_extractor(name)(s) for _, s in pairs] for name in names}

    size = len(names)
    r = [[1.0] * size for _ in range(size)]
    significant = [[True] * size for _ in range(size)]
    counts = [[0] * size for _ in range(size)]
    for i, name in enumerate(names):
        counts[i][i] = sum(1 for v in columns[name] if v is not None)
    for i in range(size):
        for j in range(i + 1, size):
            xs, ys = [], []
            for a, b in zip(columns[names[i]], columns[names[j]]):
                if a is not None and b is not None:
                    xs.append(a)
                    ys.append(b)
            if len(xs) < 3:
                raise DomainError(f"{names[i]} vs {names[j]}: only {len(xs)} journals")
            try:
                result = spearman(xs, ys)
            except DomainError as error:
                raise DomainError(f"{names[i]} vs {names[j]}: {error}") from error
            r[i][j] = r[j][i] = result.r
            significant[i][j] = significant[j][i] = result.p_value < alpha
            counts[i][j] = counts[j][i] = result.n
    return CorrelationMatrix(
        variables=names,
        r=tuple(tuple(row) for row in r),
        significant=tuple(tuple(row) for row in significant),
        n=tuple(tuple(row) for row in counts),
        alpha=alpha,
    )


def citation_factor_analysis(pairs: Pairs) -> FactorResult:
    """Unrotated principal components over the three citation indicators."""
    rows = _complete_rows(pairs, FACTOR_VARIABLES)
    if len(rows) < 4:
        raise DomainError(f"only {len(rows)} journals with all citation indicators")
    return pca_unrotated(rows)


def contributing_variables(result: FactorResult) -> Tuple[bool, ...]:
    """Flag variables whose |loading| exceeds 0.7 and communality exceeds 0.80."""
    return tuple(
        abs(loading) > 0.7 and communality > 0.80
        for loading, communality in zip(result.loadings, result.communalities)
    )


REGRESSION_PREDICTORS = ("air_ga_log10", "pi_ld")


def citation_regression(pairs: Pairs, response: str = "logcr") -> RegressionResult:
    """Regress citations (log scale) or the h index on visible size and indexation."""
    if response not in ("logcr", "h"):
        raise DomainError(f"unknown response {response!r}; use 'logcr' or 'h'")
    response_name = "cr_ga_log10" if response == "logcr" else "h"
    rows = _complete_rows(pairs, (response_name, *REGRESSION_PREDICTORS))
    if len(rows) < 5:
        raise DomainError(f"only {len(rows)} journals with response and predictors")
    y = [row[0] for row in rows]
    x1 = [row[1] for row in rows]
    x2 = [row[2] for row in rows]
    return ols_fit(y, [x1, x2])


# --- serialization ----------------------------------------------------------


def factor_to_json(result: FactorResult) -> str:
    return json_text(
        {
            "variables": FACTOR_VARIABLES,
            **result._asdict(),
            "contributing": contributing_variables(result),
        }
    )


def regression_to_json(result: RegressionResult, response: str) -> str:
    doc = {"response": response, "predictors": REGRESSION_PREDICTORS, **result._asdict()}
    return json_text(doc)
