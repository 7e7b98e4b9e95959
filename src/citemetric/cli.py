"""Command-line front door: ingest, indicators, compare, correlate, factor,
regress, and classify, composed through the corpus JSON file.

Exit codes: 0 success, 1 data error (diagnostic on stderr), 2 usage error.
Each command returns its output as text, and ``main`` writes it atomically
(temp file plus rename), so a failing run never leaves a partial file behind.

Each command imports only the modules it runs: ``indicators`` is loaded by
the commands that read a corpus, ``classify`` by ``classify``, and
``analysis`` (with ``statkit``) by ``compare``, ``correlate``, ``factor`` and
``regress``. Every call goes through the module object, where
``bench/spans.py`` finds the functions it wraps.

A well-formed argv never imports argparse. ``_read_argv`` reads the
command's name followed by ``--flag value`` pairs straight from
``_COMMANDS``: each flag of that command at most once and spelled out in
full, each value a separate word that does not start with ``-``, every
required flag present, and every value passing its type and choices.
Anything else (``--help``, ``--flag=value``, an abbreviated, unknown,
repeated or missing flag, a bad value) goes to argparse, which parses it
from the same table and writes every help, usage and error message.

A command that reads a corpus keeps no article record:
``ingest.journal_cites_from_json`` reads the file's text into the journals
and each journal's visible cites, and the text is freed before any analysis
runs, so ``factor`` and ``regress`` load numpy without it.

A data error raised while the registry, the alias file, an export or the
corpus is decoded or parsed starts with that file's path.

``python -m citemetric.cli`` and the ``citemetric`` console script run
``run_and_exit``, which ends the process without interpreter teardown once
``main`` has returned.
"""

from __future__ import annotations

import os
import re
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import Optional, Sequence, Tuple

from . import ingest
# filter_by_area goes unused here; bench/spans.py wraps it by name
from .corpus import Area, filter_by_area
from .errors import CitemetricError, DomainError
from .ingest import _INTEGER, DedupConfig

_AREAS = {"ciencias": Area.CIENCIAS, "sociales": Area.CIENCIAS_SOCIALES}
_MEAN_MODES = ("pooled", "ratios")
_REAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _ascii_number(text: str, kind=int):
    """``kind(text)`` for a number written in ASCII; int() and float() alone
    also read underscores, non-ASCII digits and surrounding whitespace."""
    if not (_INTEGER if kind is int else _REAL).fullmatch(text):
        raise ValueError(text)
    return kind(text)


def _parse_window(text: str) -> Tuple[int, int]:
    try:
        start, end = text.split(":")
        window = (_ascii_number(start), _ascii_number(end))
    except ValueError:
        raise DomainError(f"window must look like 2003:2007, got {text!r}") from None
    if window[0] > window[1]:
        raise DomainError(f"window start exceeds end: {text!r}")
    return window


def _type_error(message: str) -> Exception:
    """The error an argparse type raises; argparse is imported only on this path."""
    import argparse

    return argparse.ArgumentTypeError(message)


def _bounded(kind, rule: str, holds):
    """An argparse type: ``kind`` read by :func:`_ascii_number`, refused with
    ``rule`` unless ``holds(value)``."""

    def parse(text: str):
        try:
            value = _ascii_number(text, kind)
        except ValueError:
            raise _type_error(f"not a number: {text!r}") from None
        if not holds(value):
            raise _type_error(f"{rule}, got {text!r}")
        return value

    return parse


# the types of --title-threshold, --alpha and --top
_title_threshold = _bounded(float, "must lie in (0, 1]", lambda v: 0.0 < v <= 1.0)
_alpha = _bounded(float, "must lie in (0, 1)", lambda v: 0.0 < v < 1.0)
_top = _bounded(int, "must be at least 1", lambda v: v >= 1)


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


@contextmanager
def _reading(path):
    """Put ``path`` first in a data error raised while its contents are decoded
    or parsed; an OSError names its file already."""
    try:
        yield
    except (CitemetricError, ValueError) as error:
        raise DomainError(f"{path}: {error}") from None


def _area_pairs(args, mean_mode: str = "ratios"):
    """Read --corpus's journals and visible cites, keep --area's journals if
    one is given, and compute indicators. An --area without a journal in the
    corpus is a data error."""
    from . import indicators

    with _reading(args.corpus):
        # decoded here, so the file's bytes are freed before the parse starts,
        # and the text is freed when the reader returns; the reader strips a
        # leading byte-order mark, as it does from bytes
        journals, cites = ingest.journal_cites_from_json(
            Path(args.corpus).read_bytes().decode("utf-8")
        )
    if args.area:
        area = _AREAS[args.area]
        journals = tuple(j for j in journals if j.area is area)
        if not journals:
            raise DomainError(f"the corpus holds no journal of area {args.area!r}")
    return indicators.corpus_indicator_sets(journals, cites, mean_mode=mean_mode)


def _run_ingest(args) -> str:
    window = _parse_window(args.window)
    with _reading(args.registry):
        journals = ingest.parse_registry(Path(args.registry).read_bytes())
    dedup_config = DedupConfig(window=window, title_threshold=args.title_threshold)
    if args.alias:
        # an AliasMap, normalized and checked once here rather than per journal
        with _reading(args.alias):
            aliases = ingest.parse_alias_file(Path(args.alias).read_bytes())
        dedup_config = dedup_config._replace(alias_map=aliases)

    records_dir = Path(args.records_dir)
    if not records_dir.is_dir():
        raise DomainError(f"records directory not found: {records_dir}")
    records_by_journal = {}
    for path in sorted(records_dir.glob("*.csv")):
        journal_id = path.stem
        with _reading(path):
            records, lines = ingest.parse_citation_export(path.read_bytes(), journal_id)
        cleaned, _report = ingest.deduplicate(records, dedup_config, lines)
        records_by_journal[journal_id] = cleaned
    return ingest.corpus_to_json(ingest.build_corpus(journals, records_by_journal, window))


def _run_indicators(args) -> str:
    from . import indicators

    return indicators.indicators_csv(_area_pairs(args, args.area_mean))


def _variables(text: str) -> list:
    return [v for v in text.split(",") if v]


def _run_compare(args) -> str:
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
    return analysis.comparison_to_json(table)


def _run_correlate(args) -> str:
    from . import analysis

    matrix = analysis.correlation_matrix(_area_pairs(args), _variables(args.vars), args.alpha)
    return analysis.correlation_to_json(matrix)


def _run_factor(args) -> str:
    from . import analysis

    return analysis.factor_to_json(analysis.citation_factor_analysis(_area_pairs(args)))


def _run_regress(args) -> str:
    from . import analysis

    result = analysis.citation_regression(_area_pairs(args), response=args.response)
    return analysis.regression_to_json(result, args.response)


def _run_classify(args) -> str:
    from . import classify

    rows = classify.rank_journals(_area_pairs(args, args.area_mean))
    if args.quartile_mode == "fixed":
        bounds = classify.FIXED_BOUNDS
    else:
        bounds = classify.empirical_bounds(rows)
    rows = classify.assign_quartiles(rows, bounds)
    return classify.emit_report(rows, args.format, top_quartiles=args.top)


_CORPUS = ("--corpus", {"required": True})
_AREA = ("--area", {"required": True, "choices": sorted(_AREAS)})
_AREA_MEAN = ("--area-mean", {"default": "ratios", "choices": _MEAN_MODES})
_ALPHA = ("--alpha", {"type": _alpha, "default": 0.05})
_OUT = ("--out", {"required": True})

#: command -> (help, runner, its arguments as (flag, add_argument keywords))
_COMMANDS = {
    "ingest": (
        "parse registry and citation exports into a corpus JSON",
        _run_ingest,
        (
            ("--registry", {"required": True}),
            ("--records-dir", {"required": True}),
            ("--alias", {}),
            ("--window", {"default": "2003:2007"}),
            ("--title-threshold", {"type": _title_threshold, "default": 0.92}),
            _OUT,
        ),
    ),
    "indicators": (
        "per-journal indicator table as CSV",
        _run_indicators,
        (_CORPUS, _AREA, _AREA_MEAN, _OUT),
    ),
    "compare": (
        "compare indicators across libraries or categories",
        _run_compare,
        (
            _CORPUS,
            _AREA,
            ("--by", {"required": True, "choices": ["library", "category"]}),
            ("--method", {"default": "anova", "choices": ["anova", "kw"]}),
            _ALPHA,
            ("--vars", {}),  # unset: analysis.DEFAULT_COMPARE_VARIABLES
            _OUT,
        ),
    ),
    "correlate": (
        "rank-correlation matrix over chosen variables",
        _run_correlate,
        (_CORPUS, _AREA, ("--vars", {"required": True}), _ALPHA, _OUT),
    ),
    "factor": (
        "citation indicator factor analysis",
        _run_factor,
        (_CORPUS, _AREA, _OUT),
    ),
    "regress": (
        "citation regression on size and indexation",
        _run_regress,
        (_CORPUS, _AREA, ("--response", {"default": "logcr", "choices": ["logcr", "h"]}), _OUT),
    ),
    "classify": (
        "h-ranked quartile classification table",
        _run_classify,
        (
            _CORPUS,
            ("--area", {"choices": sorted(_AREAS)}),
            ("--quartile-mode", {"default": "empirical", "choices": ["empirical", "fixed"]}),
            _AREA_MEAN,
            ("--top", {"type": _top}),
            ("--format", {"default": "csv", "choices": ["csv", "json", "md"]}),
            _OUT,
        ),
    ),
}


def _read_argv(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse would build for ``<command> --flag value ...``,
    or None for any argv this reader does not take (see the module docstring).
    """
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    arguments = dict(_COMMANDS[argv[0]][2])
    given = dict(zip(argv[1::2], argv[2::2]))
    if len(given) != len(argv) // 2 or not given.keys() <= arguments.keys():
        return None
    values = {"command": argv[0]}
    for flag, keywords in arguments.items():
        dest = flag[2:].replace("-", "_")
        if flag not in given:
            if keywords.get("required"):
                return None
            values[dest] = keywords.get("default")
            continue
        text = given[flag]
        if text.startswith("-"):
            return None
        try:
            value = keywords["type"](text) if "type" in keywords else text
        except Exception:  # argparse runs the type again and reports the failure
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[dest] = value
    return SimpleNamespace(**values)


def _build_parser():
    """Every command with its help and its arguments."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="citemetric",
        description="Journal size, indexation and citation indicators with h-index classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _run, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            command.add_argument(flag, **keywords)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    _help, run, _arguments = _COMMANDS[args.command]
    try:
        _write_atomic(args.out, run(args).encode("utf-8"))
    except (CitemetricError, ValueError, OSError) as error:
        print(f"citemetric {args.command}: {error}", file=sys.stderr)
        return 1
    return 0


def run_and_exit() -> None:
    """Run ``main`` on ``sys.argv``, flush stdout and stderr, and end the
    process with ``os._exit``. That skips interpreter teardown (freeing every
    module, a last garbage collection, ``atexit`` handlers), work on memory
    the kernel reclaims anyway. It is safe because ``main`` has written,
    closed and renamed every output, and the package starts no thread and
    registers no ``atexit`` handler. An exception or ``SystemExit`` out of
    ``main`` (help, a usage error, a bug) takes the normal exit.

    A stream that is None (its descriptor was closed at start-up) is not
    flushed; a flush that fails exits 120, as the interpreter's own exit does.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except (OSError, ValueError):
                code = 120
    os._exit(code)


if __name__ == "__main__":
    run_and_exit()
