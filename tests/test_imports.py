"""What importing the package and running a command loads.

Start-up is most of a command's time, so each command imports only the
modules it runs; these checks run in a fresh interpreter, where nothing
another test imported is in ``sys.modules``.
"""

import json
import os
import pathlib
import re
import subprocess
import sys

from fixture_corpus import write_fixture_tree

REPO = pathlib.Path(__file__).parent.parent
BUNDLED_CORPUS = str(REPO / "fixtures" / "ciencias_table7.json")

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
    """Run code from the repository root in a new interpreter that imports the
    package from src/; its stdout (or stderr)."""
    run = subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        cwd=REPO,
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


def test_no_command_loads_hashlib_and_ingest_loads_no_hash(tmp_path):
    """``hashlib`` loads OpenSSL's libcrypto, 3.6 MiB of resident memory, so
    the corpus cache keys with ``_blake2`` alone; ``ingest`` reads no corpus
    and so loads neither."""
    added = _stdlib_added_by_each_command(tmp_path, ["_blake2", "_hashlib", "hashlib"])
    assert added[0] == []
    assert all(modules in ([], ["_blake2"]) for modules in added)
    # the probe does see _blake2 once a command keys a corpus
    assert added[1] == ["_blake2"]


def test_importtime_logs_the_package_modules():
    """``-X importtime`` logs only imports made by an import statement's own
    path; cli's ``from . import ingest`` is one, so ingest's cost shows as its
    own line and not as ``citemetric.cli`` self time."""
    stderr = _fresh_python("import citemetric.cli", flags=["-X", "importtime"], stream="stderr")
    assert any(line.endswith(" citemetric.ingest") for line in stderr.splitlines()), stderr


def test_readme_library_example_runs():
    """The README's first ``python`` block, so the import paths it documents
    stay the ones the package has."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    example = re.search(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)[1]
    _fresh_python(example)
