"""In-process tracing of citemetric by wrapping module attributes.

The source is not touched: while a :class:`Tracer` is installed, each layer's
public functions are replaced, on the module namespaces the CLI actually
calls them through, by wrappers that record a span (name, start, end, parent,
workload, pass). Spans are kept in memory; :meth:`Tracer.self_times` turns
them into per-pass self times and call counts.

Per-pair helpers (``title_similarity``, ``levenshtein``, ``normalize_title``)
are not wrapped: at millions of calls per run the wrapper would cost more
than the work it times. Their cost lands in ``ingest.deduplicate``, and the
pairs it compared are derived from the ``IngestReport`` it returns.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

# (module the caller looks the name up in, attribute, span name)
WRAPPED = (
    ("citemetric.ingest", "parse_registry", "ingest.parse_registry"),
    ("citemetric.ingest", "parse_citation_export", "ingest.parse_citation_export"),
    ("citemetric.ingest", "deduplicate", "ingest.deduplicate"),
    ("citemetric.ingest", "build_corpus", "ingest.build_corpus"),
    ("citemetric.ingest", "corpus_to_json", "ingest.corpus_to_json"),
    ("citemetric.ingest", "corpus_from_json", "ingest.corpus_from_json"),
    ("citemetric.ingest", "validate_corpus", "corpus.validate_corpus"),
    ("citemetric.cli", "filter_by_area", "corpus.filter_by_area"),
    ("citemetric.analysis", "filter_by_area", "corpus.filter_by_area"),
    ("citemetric.indicators", "corpus_indicator_sets", "indicators.corpus_indicator_sets"),
    ("citemetric.analysis", "corpus_indicator_sets", "indicators.corpus_indicator_sets"),
    ("citemetric.indicators", "indicators_csv", "indicators.indicators_csv"),
    ("citemetric.analysis", "compare_groups", "analysis.compare_groups"),
    ("citemetric.analysis", "correlation_matrix", "analysis.correlation_matrix"),
    ("citemetric.analysis", "citation_factor_analysis", "analysis.citation_factor_analysis"),
    ("citemetric.analysis", "citation_regression", "analysis.citation_regression"),
    ("citemetric.analysis", "anova_oneway", "statkit.anova_oneway"),
    ("citemetric.analysis", "kruskal_wallis", "statkit.kruskal_wallis"),
    ("citemetric.analysis", "tukey_groups", "statkit.tukey_groups"),
    ("citemetric.analysis", "spearman", "statkit.spearman"),
    ("citemetric.analysis", "pca_unrotated", "statkit.pca_unrotated"),
    ("citemetric.analysis", "ols_fit", "statkit.ols_fit"),
    ("citemetric.classify", "rank_journals", "classify.rank_journals"),
    ("citemetric.classify", "assign_quartiles", "classify.assign_quartiles"),
    ("citemetric.classify", "emit_report", "classify.emit_report"),
)
ROOT = "cli.main"

#: span names reported as self time, in reporting order
TIMED = (ROOT,) + tuple(dict.fromkeys(name for _, _, name in WRAPPED))
#: span names whose call count per pass is reported as <name>_calls
COUNTED = (
    "corpus.filter_by_area",
    "indicators.corpus_indicator_sets",
    "statkit.anova_oneway",
    "statkit.kruskal_wallis",
    "statkit.tukey_groups",
    "statkit.spearman",
    "statkit.pca_unrotated",
    "statkit.ols_fit",
)
#: counters read off return values, per pass
COUNTERS = (
    "ingest.rows_read",
    "ingest.dedup_pairs",
    "ingest.dropped_duplicate",
    "ingest.flagged_review",
    "ingest.corpus_json_bytes",
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span, None for a command root
    workload: str
    pass_index: int


class Tracer:
    """Collects spans for one workload; install() and uninstall() patch the modules."""

    def __init__(self, workload: str):
        self.workload = workload
        self.pass_index = 0
        self.spans: list[Optional[Span]] = []
        self.reports: list = []  # IngestReport of every deduplicate call
        self.counters: list[dict] = []  # one dict per pass
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def begin_pass(self) -> None:
        self.pass_index = len(self.counters)
        self.counters.append(dict.fromkeys(COUNTERS, 0))

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.workload, self.pass_index)
            self._count(name, result)
            return result

        return traced

    def _count(self, name: str, result) -> None:
        counters = self.counters[self.pass_index]
        if name == "ingest.deduplicate":
            report = result[1]
            self.reports.append(report)
            survivors = report.rows_read - report.rows_dropped_incomplete
            counters["ingest.rows_read"] += report.rows_read
            counters["ingest.dedup_pairs"] += survivors * (survivors - 1) // 2
            counters["ingest.dropped_duplicate"] += report.rows_dropped_duplicate
            counters["ingest.flagged_review"] += report.rows_flagged_review
        elif name == "ingest.corpus_to_json":
            counters["ingest.corpus_json_bytes"] += len(result.encode("utf-8"))

    def install(self) -> None:
        for module_name, attribute, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            self._saved.append((module, attribute, original))
            setattr(module, attribute, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attribute, original = self._saved.pop()
            setattr(module, attribute, original)

    def self_times(self, pass_index: int) -> dict:
        """Per span name: (summed self time, calls) over one pass."""
        child_time: dict = {}
        for span in self.spans:
            if span.pass_index == pass_index and span.parent is not None:
                child_time[span.parent] = child_time.get(span.parent, 0.0) + span.end - span.start
        totals: dict = {}
        for index, span in enumerate(self.spans):
            if span.pass_index != pass_index:
                continue
            own = span.end - span.start - child_time.get(index, 0.0)
            seconds, calls = totals.get(span.name, (0.0, 0))
            totals[span.name] = (seconds + own, calls + 1)
        return totals


    def self_total(self, first: int, last: int) -> float:
        """Summed self time of spans[first:last]; for one command's spans, its root's wall time."""
        spans = self.spans[first:last]
        inside = sum(s.end - s.start for s in spans if s.parent is not None and s.parent >= first)
        return sum(s.end - s.start for s in spans) - inside
