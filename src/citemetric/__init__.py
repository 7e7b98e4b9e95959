"""Citation indicators and h-index classification for journal registries."""

from .corpus import (
    Area,
    ArticleRecord,
    ArticleStatus,
    IbnpCategory,
    JournalCorpus,
    JournalRecord,
    Library,
    filter_by_area,
    validate_corpus,
)
from .indicators import (
    GroupSummary,
    IndicatorSet,
    area_mean_citation,
    compute_indicator_set,
    corpus_indicator_sets,
    cpn,
    h_index,
    log10_shifted,
    pi_ibnp,
    pi_ld,
    summarize_group,
)
from .ingest import (
    DedupConfig,
    DedupDecision,
    IngestReport,
    build_corpus,
    corpus_from_json,
    corpus_to_json,
    deduplicate,
    normalize_title,
    parse_citation_export,
    parse_registry,
    title_similarity,
)
from .classify import (
    ClassificationRow,
    FIXED_BOUNDS,
    assign_quartiles,
    emit_report,
    empirical_bounds,
    rank_journals,
)

__version__ = "0.1.0"
