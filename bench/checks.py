"""Output checks. Each returns a list of failure descriptions; empty means correct."""

from __future__ import annotations

import csv
import io
import json

from citemetric.corpus import validate_corpus
from citemetric.ingest import corpus_from_json
from workloads import CORRELATE_VARS


def check_corpus(data: bytes, plan) -> list:
    """An ingested corpus: valid, no row lost, every planted duplicate dropped."""
    failures = [f"validate_corpus: {v}" for v in validate_corpus(corpus_from_json(data))]
    statuses: dict = {}
    for article in json.loads(data)["articles"]:
        statuses.setdefault(article["journal_id"], []).append(article["status"])
    for journal_id, rows in plan.rows_by_journal.items():
        found = len(statuses.get(journal_id, ()))
        if found != rows:
            failures.append(f"{journal_id}: {rows} export rows but {found} corpus rows")
    for kind, planted in (("twin", plan.twins), ("alias source", plan.alias_sources)):
        for journal_id, row in planted:
            status = statuses.get(journal_id, [])[row : row + 1]
            if status != ["DroppedDuplicate"]:
                failures.append(f"{journal_id} row {row}: planted {kind} is {status}")
    return failures


def check_reports(reports) -> list:
    """rows_read = kept + dropped_incomplete + dropped_duplicate in every IngestReport."""
    return [
        f"IngestReport does not add up: {r}"
        for r in reports
        if r.rows_read != r.rows_kept + r.rows_dropped_incomplete + r.rows_dropped_duplicate
    ]


def _csv_rows(data: bytes) -> list:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"), newline="")))


def check_indicators(data: bytes, journals: int) -> list:
    ids = [row["journal_id"] for row in _csv_rows(data)]
    if len(ids) != journals or len(set(ids)) != journals:
        return [f"indicators: {len(ids)} rows ({len(set(ids))} distinct) for {journals} journals"]
    return []


def check_classify(data: bytes, journals: int) -> list:
    rows = _csv_rows(data)
    failures = []
    ranks = [int(row["rank"]) for row in rows]
    if ranks != list(range(1, journals + 1)):
        failures.append(f"classify: ranks are not 1..{journals}")
    quartiles = [int(row["quartile"]) for row in rows]
    if any(q not in (1, 2, 3, 4) for q in quartiles) or quartiles != sorted(quartiles):
        failures.append("classify: quartiles out of range or decreasing down the ranking")
    return failures


def check_comparison(data: bytes) -> list:
    doc = json.loads(data)
    failures = []
    if len(doc["rows"]) < 2:
        failures.append("compare: fewer than two groups")
    if sorted(doc["tests"]) != sorted(doc["variables"]) or sorted(doc["letters"]) != sorted(
        doc["variables"]
    ):
        failures.append("compare: a variable lacks its test or letters")
    return failures


def check_correlation(data: bytes) -> list:
    variables = len(CORRELATE_VARS.split(","))
    r = json.loads(data)["r"]
    square = len(r) == variables and all(len(row) == variables for row in r)
    if not square or any(
        r[i][j] != r[j][i] or (i == j and r[i][j] != 1.0)
        for i in range(len(r))
        for j in range(len(r))
    ):
        return [f"correlate: r is not a symmetric {variables}x{variables} unit-diagonal matrix"]
    return []


def check_factor(data: bytes) -> list:
    doc = json.loads(data)
    if len(doc["loadings"]) != 3 or len(doc["communalities"]) != 3:
        return ["factor: expected three loadings and communalities"]
    return []


def check_regression(data: bytes) -> list:
    doc = json.loads(data)
    if doc["n"] < 5 or len(doc["coefficients"]) != 3:
        return ["regress: expected an intercept, two slopes and at least five journals"]
    return []


def check_output(label: str, data: bytes, plan) -> list:
    """Dispatch on the command label of :func:`workloads.analysis_commands`."""
    if label == "ingest":
        return check_corpus(data, plan)
    if label == "indicators":
        return check_indicators(data, plan.area_journals)
    if label.startswith("compare"):
        return check_comparison(data)
    if label == "correlate":
        return check_correlation(data)
    if label == "factor":
        return check_factor(data)
    if label == "regress":
        return check_regression(data)
    if label == "classify":
        return check_classify(data, plan.area_journals)
    raise ValueError(f"no check for command {label!r}")
