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

Those pairs are cached, so commands run one after another on one corpus
parse it once. The cache is one file, ``citemetric/journal_cites`` under
``$XDG_CACHE_HOME`` (``~/.cache`` when that variable is unset, empty or
relative; no cache without an absolute ``HOME``). Its second line, the
payload, holds the last parsed corpus's ``journals`` and ``ibnp_totals``
sections, as the corpus JSON has them, and each journal's visible cites; a
verbatim copy of the corpus file follows, so the file is about as large as
that corpus. Its first line, the tag, is a BLAKE2b digest of the
interpreter's version, of the source of ``ingest``, ``corpus`` and this
module, of the corpus's length and of the payload. A hit needs the tag to
match and the copy to equal the corpus bytes, compared ``_CHUNK`` bytes at a
time, up to the end of the file: only what this code wrote for these very
bytes matches, and the corpus itself is never hashed. A hit reads the
journals back with the reader's journal checks and skips the decode and the
parse. A miss parses as above and replaces the file; a cache that cannot be
read or written is ignored. Only an accepted corpus is stored, so every
diagnostic and output byte is the same on a hit and a miss. The digest comes
from ``_blake2``, which ``hashlib`` wraps: ``hashlib`` itself would load
OpenSSL's libcrypto, 3.6 MiB of resident memory per command.

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
from contextlib import contextmanager, suppress
from itertools import chain
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Optional, Sequence, Tuple

from . import corpus, ingest
from .corpus import DEFAULT_WINDOW, Area, filter_by_area
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


def _window(text: str) -> Tuple[int, int]:
    """The type of --window: ``start:end``, two ASCII years, start not after end."""
    try:
        start, end = map(_ascii_number, text.split(":"))
    except ValueError:
        raise _type_error(f"must look like 2003:2007, got {text!r}") from None
    if start > end:
        raise _type_error(f"start exceeds end, got {text!r}")
    return start, end


def _write_atomic(path: str, parts: Iterable[bytes]) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    temp = target.with_name(f"{target.name}.{os.urandom(6).hex()}")
    # exclusive create: a name already there, a symlink included, is an error,
    # never opened; the file gets the mode a plain open() gives
    handle = open(temp, "xb")
    try:
        with handle:
            handle.writelines(parts)
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


@contextmanager
def _reading(path):
    """Put ``path`` first in a data error raised while its contents are decoded
    or parsed; an OSError names its file already."""
    try:
        yield
    except (CitemetricError, ValueError) as error:
        raise DomainError(f"{path}: {error}") from None


#: bytes of the stored corpus copy read and compared at a time
_CHUNK = 1 << 16


def _cache():
    """The cache's one file and a digest of the interpreter's version and the
    reader's sources; None when there is no absolute cache directory or no
    digest."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative
        home = os.environ.get("HOME", "")
        if not os.path.isabs(home):
            return None
        base = os.path.join(home, ".cache")
    try:
        from _blake2 import blake2b  # not hashlib: see the module docstring

        # the interpreter's version too: its Unicode tables decide what strip() removes
        key = blake2b(sys.version.encode(), digest_size=32)
        for source in (ingest.__file__, corpus.__file__, __file__):
            code = Path(source).read_bytes()
            key.update(len(code).to_bytes(8, "big"))
            key.update(code)
    except (ImportError, OSError):
        return None
    return Path(base, "citemetric", "journal_cites"), key


def _tag(key, size: int, payload: bytes) -> bytes:
    """An entry's first line: the reader's key extended with the corpus's
    length and the entry's payload line."""
    tag = key.copy()
    tag.update(size.to_bytes(8, "big"))
    tag.update(payload)
    return tag.hexdigest().encode("ascii") + b"\n"


def _stored(entry, key, data: bytes):
    """The payload line of ``entry`` when this code wrote it for the corpus
    whose bytes are ``data``, else None: the tag matches, the copy after the
    payload equals ``data`` byte for byte, and nothing follows the copy."""
    try:
        with open(entry, "rb") as handle:
            tag, payload = handle.readline(), handle.readline()
            if tag != _tag(key, len(data), payload):
                return None
            # bytes slices: comparing memoryview slices runs item by item
            for start in range(0, len(data), _CHUNK):
                if handle.read(_CHUNK) != data[start : start + _CHUNK]:
                    return None
            return None if handle.read(1) else payload
    except OSError:  # no entry yet, or one that cannot be read
        return None


def _journal_cites(path):
    """``ingest.journal_cites_from_json``'s pairs for the corpus file at
    ``path``, from the cache when it holds them (see the module docstring)."""
    import json

    data = Path(path).read_bytes()
    cache = _cache()
    if cache is not None:
        entry, key = cache
        payload = _stored(entry, key, data)
        if payload is not None:
            doc = json.loads(payload)
            return ingest._journal_records(doc), doc["cites"]
    size = len(data)
    # decoded here, so the file's bytes are freed before the parse starts;
    # the reader strips a leading byte-order mark, as it does from bytes
    text = data.decode("utf-8")
    del data
    journals, cites = ingest.journal_cites_from_json(text)
    if cache is not None:
        doc = {**ingest._journal_sections(journals), "cites": cites}
        # ASCII, so a title holding a lone surrogate escape is stored as read
        payload = json.dumps(doc, separators=(",", ":")).encode("ascii") + b"\n"
        # a strict decode leaves no lone surrogate, so each chunk encodes back
        # to the file's own bytes
        copy = (text[i : i + _CHUNK].encode("utf-8") for i in range(0, len(text), _CHUNK))
        with suppress(OSError):
            os.makedirs(entry.parent, mode=0o700, exist_ok=True)
            _write_atomic(entry, chain((_tag(key, size, payload), payload), copy))
    return journals, cites


def _area_pairs(args, mean_mode: str = "ratios"):
    """Read --corpus's journals and visible cites, keep --area's journals if
    one is given, and compute indicators. No journal left to read is a data
    error."""
    from . import indicators

    with _reading(args.corpus):
        journals, cites = _journal_cites(args.corpus)
    if args.area:
        journals = filter_by_area(journals, _AREAS[args.area])
    if not journals:
        of_area = f" of area {args.area!r}" if args.area else ""
        raise DomainError(f"the corpus holds no journal{of_area}")
    return indicators.corpus_indicator_sets(journals, cites, mean_mode=mean_mode)


def _run_ingest(args) -> str:
    with _reading(args.registry):
        journals = ingest.parse_registry(Path(args.registry).read_bytes())
    dedup_config = DedupConfig(window=args.window, title_threshold=args.title_threshold)
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
    return ingest.corpus_to_json(ingest.build_corpus(journals, records_by_journal, args.window))


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
            ("--window", {"type": _window, "default": DEFAULT_WINDOW}),
            (
                "--title-threshold",
                {"type": _title_threshold, "default": DedupConfig().title_threshold},
            ),
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
        _write_atomic(args.out, [run(args).encode("utf-8")])
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
