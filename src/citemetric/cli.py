"""Command-line front door: ingest, indicators, compare, correlate, factor,
regress, and classify, composed through the corpus JSON file.

Exit codes: 0 success, 1 data error (diagnostic on stderr), 2 usage error.
Outputs are written atomically (temp file plus rename), so a failing run
never leaves a partial file behind.

Each command imports only the modules it runs: ``indicators`` is loaded by
the commands that read a corpus, ``classify`` by ``classify``, and
``analysis`` (with ``statkit``) by ``compare``, ``correlate``, ``factor`` and
``regress``. Every call goes through the module object, where
``bench/spans.py`` finds the functions it wraps.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional, Sequence, Tuple

from . import ingest
from .corpus import Area, filter_by_area
from .errors import CitemetricError, DomainError
from .ingest import DedupConfig

_AREAS = {"ciencias": Area.CIENCIAS, "sociales": Area.CIENCIAS_SOCIALES}
_MEAN_MODES = ("pooled", "ratios")


def _parse_window(text: str) -> Tuple[int, int]:
    try:
        start, end = text.split(":")
        window = (int(start), int(end))
    except ValueError:
        raise DomainError(f"window must look like 2003:2007, got {text!r}") from None
    if window[0] > window[1]:
        raise DomainError(f"window start exceeds end: {text!r}")
    return window


def _number(text: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _title_threshold(text: str) -> float:
    """argparse type for --title-threshold: a number in (0, 1]; NaN is refused."""
    value = _number(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1], got {text!r}")
    return value


def _alpha(text: str) -> float:
    """argparse type for --alpha: a number in (0, 1); NaN is refused."""
    value = _number(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text!r}")
    return value


def _top(text: str) -> int:
    """argparse type for --top: a whole number of leading quartiles, at least 1."""
    value = _number(text, int)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def _write_atomic(path: str, data: bytes) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, temp_name = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        # mkstemp creates 0600; give the mode a plain open() would
        os.chmod(temp_name, 0o666 & ~umask)
        os.replace(temp_name, target)
    except BaseException:
        if os.path.exists(temp_name):
            os.unlink(temp_name)
        raise


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _area_pairs(args, mean_mode: str = "ratios"):
    """Load --corpus, keep --area's journals if one is given, and compute indicators."""
    from . import indicators

    # decoded here, so the file's bytes are freed before the parse starts
    corpus = ingest.corpus_from_json(_read_bytes(args.corpus).decode("utf-8-sig"))
    if args.area:
        corpus = filter_by_area(corpus, _AREAS[args.area])
    return indicators.corpus_indicator_sets(corpus, mean_mode=mean_mode)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citemetric",
        description="Journal size, indexation and citation indicators with h-index classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse registry and citation exports into a corpus JSON")
    p.add_argument("--registry", required=True)
    p.add_argument("--records-dir", required=True)
    p.add_argument("--alias")
    p.add_argument("--window", default="2003:2007")
    p.add_argument("--title-threshold", type=_title_threshold, default=0.92)
    p.add_argument("--out", required=True)

    p = sub.add_parser("indicators", help="per-journal indicator table as CSV")
    p.add_argument("--corpus", required=True)
    p.add_argument("--area", required=True, choices=sorted(_AREAS))
    p.add_argument("--area-mean", default="ratios", choices=_MEAN_MODES)
    p.add_argument("--out", required=True)

    p = sub.add_parser("compare", help="compare indicators across libraries or categories")
    p.add_argument("--corpus", required=True)
    p.add_argument("--area", required=True, choices=sorted(_AREAS))
    p.add_argument("--by", required=True, choices=["library", "category"])
    p.add_argument("--method", default="anova", choices=["anova", "kw"])
    p.add_argument("--alpha", type=_alpha, default=0.05)
    p.add_argument("--vars")  # unset: analysis.DEFAULT_COMPARE_VARIABLES
    p.add_argument("--out", required=True)

    p = sub.add_parser("correlate", help="rank-correlation matrix over chosen variables")
    p.add_argument("--corpus", required=True)
    p.add_argument("--area", required=True, choices=sorted(_AREAS))
    p.add_argument("--vars", required=True)
    p.add_argument("--alpha", type=_alpha, default=0.05)
    p.add_argument("--out", required=True)

    p = sub.add_parser("factor", help="citation indicator factor analysis")
    p.add_argument("--corpus", required=True)
    p.add_argument("--area", required=True, choices=sorted(_AREAS))
    p.add_argument("--out", required=True)

    p = sub.add_parser("regress", help="citation regression on size and indexation")
    p.add_argument("--corpus", required=True)
    p.add_argument("--area", required=True, choices=sorted(_AREAS))
    p.add_argument("--response", default="logcr", choices=["logcr", "h"])
    p.add_argument("--out", required=True)

    p = sub.add_parser("classify", help="h-ranked quartile classification table")
    p.add_argument("--corpus", required=True)
    p.add_argument("--area", choices=sorted(_AREAS))
    p.add_argument("--quartile-mode", default="empirical", choices=["empirical", "fixed"])
    p.add_argument("--area-mean", default="ratios", choices=_MEAN_MODES)
    p.add_argument("--top", type=_top)
    p.add_argument("--format", default="csv", choices=["csv", "json", "md"])
    p.add_argument("--out", required=True)

    return parser


def _run_ingest(args) -> None:
    window = _parse_window(args.window)
    journals = ingest.parse_registry(_read_bytes(args.registry))
    alias_map = ingest.parse_alias_file(_read_bytes(args.alias)) if args.alias else {}
    dedup_config = DedupConfig(
        window=window, title_threshold=args.title_threshold, alias_map=alias_map
    )

    records_dir = Path(args.records_dir)
    if not records_dir.is_dir():
        raise DomainError(f"records directory not found: {records_dir}")
    records_by_journal = {}
    for path in sorted(records_dir.glob("*.csv")):
        journal_id = path.stem
        records = ingest.parse_citation_export(_read_bytes(str(path)), journal_id)
        cleaned, _report = ingest.deduplicate(records, dedup_config)
        records_by_journal[journal_id] = cleaned
    corpus = ingest.build_corpus(journals, records_by_journal, window)
    _write_atomic(args.out, ingest.corpus_to_json(corpus).encode("utf-8"))


def _run_indicators(args) -> None:
    from . import indicators

    pairs = _area_pairs(args, args.area_mean)
    _write_atomic(args.out, indicators.indicators_csv(pairs).encode("utf-8"))


def _variables(text: str) -> list:
    return [v for v in text.split(",") if v]


def _run_compare(args) -> None:
    from . import analysis

    variables = analysis.DEFAULT_COMPARE_VARIABLES if args.vars is None else _variables(args.vars)
    table = analysis.compare_groups(
        _area_pairs(args),
        _AREAS[args.area],
        analysis.GroupDimension(args.by),
        variables=variables,
        method=args.method,
        alpha=args.alpha,
    )
    _write_atomic(args.out, analysis.comparison_to_json(table).encode("utf-8"))


def _run_correlate(args) -> None:
    from . import analysis

    matrix = analysis.correlation_matrix(
        _area_pairs(args),
        variables=_variables(args.vars),
        alpha=args.alpha,
    )
    _write_atomic(args.out, analysis.correlation_to_json(matrix).encode("utf-8"))


def _run_factor(args) -> None:
    from . import analysis

    result = analysis.citation_factor_analysis(_area_pairs(args))
    _write_atomic(args.out, analysis.factor_to_json(result).encode("utf-8"))


def _run_regress(args) -> None:
    from . import analysis

    result = analysis.citation_regression(_area_pairs(args), response=args.response)
    _write_atomic(args.out, analysis.regression_to_json(result, args.response).encode("utf-8"))


def _run_classify(args) -> None:
    from . import classify

    rows = classify.rank_journals(_area_pairs(args, args.area_mean))
    if args.quartile_mode == "fixed":
        bounds = classify.FIXED_BOUNDS
    else:
        bounds = classify.empirical_bounds(rows)
    rows = classify.assign_quartiles(rows, bounds)
    _write_atomic(args.out, classify.emit_report(rows, args.format, top_quartiles=args.top))


_COMMANDS = {
    "ingest": _run_ingest,
    "indicators": _run_indicators,
    "compare": _run_compare,
    "correlate": _run_correlate,
    "factor": _run_factor,
    "regress": _run_regress,
    "classify": _run_classify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except (CitemetricError, ValueError, OSError) as error:
        print(f"citemetric {args.command}: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
