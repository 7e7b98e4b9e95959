"""What importing the package and running a command loads.

Start-up is most of a command's time, so each command imports only the
modules it runs; these checks run in a fresh interpreter, where nothing
another test imported is in ``sys.modules``.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import citemetric
from fixture_corpus import write_fixture_tree

REPO = pathlib.Path(__file__).parent.parent
BUNDLED_CORPUS = str(REPO / "fixtures" / "ciencias_table7.json")

#: the package's public names; each must stay readable as ``citemetric.<name>``
EAGER_NAMES = {
    "Area", "ArticleRecord", "ArticleStatus", "IbnpCategory", "JournalCorpus",
    "JournalRecord", "Library", "filter_by_area", "validate_corpus",
    "GroupSummary", "IndicatorSet", "area_mean_citation", "compute_indicator_set",
    "corpus_indicator_sets", "cpn", "h_index", "log10_shifted", "pi_ibnp", "pi_ld",
    "summarize_group",
    "DedupConfig", "DedupDecision", "IngestReport", "build_corpus", "corpus_from_json",
    "corpus_to_json", "deduplicate", "normalize_title", "parse_citation_export",
    "parse_registry", "title_similarity",
    "ClassificationRow", "FIXED_BOUNDS", "assign_quartiles", "emit_report",
    "empirical_bounds", "rank_journals",
}

_PROBE = """
import json, sys
import citemetric

loaded = [sorted(m for m in sys.modules if m.startswith("citemetric"))]
from citemetric.cli import main

for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded.append(sorted(m for m in sys.modules if m.startswith(("citemetric", "numpy"))))
print(json.dumps(loaded))
"""


def _fresh_python(code, *args, flags=(), stream="stdout") -> str:
    """Run code in a new interpreter that imports the package from src/; its stdout
    (or stderr)."""
    run = subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    return getattr(run, stream)


def _modules_after_each(argvs):
    """citemetric/numpy modules loaded after a bare import, then after each command."""
    return json.loads(_fresh_python(_PROBE, json.dumps(argvs)))


def test_ingest_indicators_and_classify_never_load_the_statistics(tmp_path):
    registry, records = write_fixture_tree(tmp_path)
    corpus = str(tmp_path / "corpus.json")
    commands = [
        ["ingest", "--registry", str(registry), "--records-dir", str(records), "--out", corpus],
        ["indicators", "--corpus", BUNDLED_CORPUS, "--area", "ciencias",
         "--out", str(tmp_path / "indicators.csv")],
        ["classify", "--corpus", BUNDLED_CORPUS, "--quartile-mode", "fixed", "--top", "2",
         "--format", "md", "--out", str(tmp_path / "table.md")],
    ]
    bare, *after = _modules_after_each(commands)
    assert bare == ["citemetric"]
    for modules in after:
        assert not {"citemetric.analysis", "citemetric.statkit", "numpy"} & set(modules)
    # the probe does see a module once a command that needs it runs
    assert "citemetric.classify" not in after[1] and "citemetric.classify" in after[2]
    compare = ["compare", "--corpus", BUNDLED_CORPUS, "--area", "ciencias", "--by", "category",
               "--out", str(tmp_path / "compare.json")]
    _, modules = _modules_after_each([compare])
    assert {"citemetric.analysis", "citemetric.statkit"} <= set(modules)


_PROBE_STDLIB = """
import json, sys
before = set(sys.modules)  # site may have loaded some modules already
from citemetric.cli import main

watched = set(json.loads(sys.argv[2]))
added = []
for argv in json.loads(sys.argv[1]):
    if argv[0] in ("factor", "regress"):
        import numpy  # numpy loads inspect itself
        before |= set(sys.modules)
    assert main(argv) == 0, argv
    added.append(sorted(watched & (set(sys.modules) - before)))
print(json.dumps(added))
"""


def _stdlib_added_by_each_command(tmp_path, watched):
    """Which of the watched modules each of the seven commands adds, in one fresh interpreter."""
    registry, records = write_fixture_tree(tmp_path)
    corpus = ["--corpus", BUNDLED_CORPUS, "--area", "ciencias", "--out", str(tmp_path / "out")]
    commands = [
        ["ingest", "--registry", str(registry), "--records-dir", str(records), *corpus[-2:]],
        ["indicators", *corpus],
        ["compare", *corpus, "--by", "category"],
        ["correlate", *corpus, "--vars", "h,pi_ld"],
        ["classify", *corpus],
        ["factor", *corpus],
        ["regress", *corpus],
    ]
    return json.loads(_fresh_python(_PROBE_STDLIB, json.dumps(commands), json.dumps(watched)))


def test_no_command_loads_dataclasses_or_inspect(tmp_path):
    """``dataclasses``, which loads ``inspect``, ``ast``, ``dis`` and
    ``tokenize``, cost a command more start-up than anything else the
    package imported."""
    assert _stdlib_added_by_each_command(tmp_path, ["dataclasses", "inspect"]) == [[]] * 7


def test_no_well_formed_command_loads_argparse(tmp_path):
    """argparse, and the ``gettext`` and ``locale`` it loads for its first
    translated string, cost a command more start-up than the package's own
    modules; it runs only for help and usage errors."""
    watched = ["argparse", "gettext", "locale"]
    assert _stdlib_added_by_each_command(tmp_path, watched) == [[]] * 7


def test_importtime_logs_the_package_modules():
    """``-X importtime`` logs only imports made by an import statement's own
    path, so a submodule the package ``__getattr__`` loads must go through
    ``__import__`` to be seen (``importlib.import_module`` is not logged)."""
    stderr = _fresh_python("import citemetric.cli", flags=["-X", "importtime"], stream="stderr")
    assert any(line.endswith(" citemetric.ingest") for line in stderr.splitlines()), stderr


def test_every_exported_name_resolves_to_its_module():
    assert set(citemetric.__all__) == EAGER_NAMES
    assert len(citemetric.__all__) == len(EAGER_NAMES)
    for name in citemetric.__all__:
        value = getattr(citemetric, name)
        assert value is getattr(sys.modules[f"citemetric.{citemetric._MODULE_OF[name]}"], name)
    assert EAGER_NAMES <= set(dir(citemetric))
    namespace = {}
    exec("from citemetric import *", namespace)
    assert EAGER_NAMES <= set(namespace)


def test_submodules_are_attributes_and_unknown_names_are_not():
    _fresh_python("import citemetric, sys; assert citemetric.ingest is sys.modules['citemetric.ingest']")
    with pytest.raises(AttributeError, match="not_a_name"):
        citemetric.not_a_name
