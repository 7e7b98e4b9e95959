"""Citation indicators and h-index classification for journal registries.

The package loads its modules on first use (PEP 562): ``import citemetric``
runs none of them, and reading one of the names below, or a submodule as an
attribute, imports the module that defines it. So a command pays only for the
modules it runs.
"""

from importlib import import_module

_EXPORTS = {
    "corpus": (
        "Area",
        "ArticleRecord",
        "ArticleStatus",
        "IbnpCategory",
        "JournalCorpus",
        "JournalRecord",
        "Library",
        "filter_by_area",
        "validate_corpus",
    ),
    "indicators": (
        "GroupSummary",
        "IndicatorSet",
        "area_mean_citation",
        "compute_indicator_set",
        "corpus_indicator_sets",
        "cpn",
        "h_index",
        "log10_shifted",
        "pi_ibnp",
        "pi_ld",
        "summarize_group",
    ),
    "ingest": (
        "DedupConfig",
        "DedupDecision",
        "IngestReport",
        "build_corpus",
        "corpus_from_json",
        "corpus_to_json",
        "deduplicate",
        "normalize_title",
        "parse_citation_export",
        "parse_registry",
        "title_similarity",
    ),
    "classify": (
        "ClassificationRow",
        "FIXED_BOUNDS",
        "assign_quartiles",
        "emit_report",
        "empirical_bounds",
        "rank_journals",
    ),
}
#: submodules readable as attributes of the bare package, as in ``citemetric.ingest``
_SUBMODULES = (*_EXPORTS, "errors")
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)  # the import binds the attribute
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
