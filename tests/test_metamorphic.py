"""Metamorphic properties of the pipeline, end to end.

Each property changes the ingest inputs in a way that must not matter to an
output and checks that output against the bundled corpus's; the last one
re-ingests ingest's own output, on registries the benchmark generates. Draws
are derandomized and few, since each example ingests a whole tree.
"""

import csv
import io
import pathlib
import shutil

import pytest
from hypothesis import Phase, given, settings, strategies as st

from citemetric.cli import main
from citemetric.corpus import VISIBLE_STATUSES
from citemetric.ingest import EXPORT_HEADER, corpus_from_json, corpus_to_json
from fixture_corpus import WINDOW, article_title, bench_module, write_fixture_tree

BUNDLED_CORPUS = pathlib.Path(__file__).parent.parent / "fixtures" / "ciencias_table7.json"
# no shrinking: a failing draw is already small enough to read, and shrinking
# one took minutes
_EXAMPLES = settings(max_examples=10, derandomize=True, deadline=None, phases=[Phase.generate])

#: (output name, argv after --corpus) of every output a property compares
CLASSIFY = [
    (f"classify_{mode}.csv", ["classify", "--quartile-mode", mode])
    for mode in ("empirical", "fixed")
]
CIENCIAS = [
    ("ciencias_indicators.csv", ["indicators", "--area", "ciencias"]),
    ("ciencias_compare_category.json", ["compare", "--area", "ciencias", "--by", "category"]),
] + [(f"ciencias_{name}", argv + ["--area", "ciencias"]) for name, argv in CLASSIFY]


def _outputs(corpus, out_dir, commands):
    outputs = {}
    for name, argv in commands:
        out = out_dir / name
        assert main([argv[0], "--corpus", str(corpus), *argv[1:], "--out", str(out)]) == 0
        outputs[name] = out.read_bytes()
    return outputs


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """The fixture tree, written once; each example edits a copy."""
    root = tmp_path_factory.mktemp("tree")
    write_fixture_tree(root)
    return root


def _copy(tree, tmp_path_factory, name):
    root = tmp_path_factory.mktemp(name)
    shutil.copytree(tree, root, dirs_exist_ok=True)
    return root


@pytest.fixture(scope="module")
def bundled(tmp_path_factory):
    """Every compared output of the bundled corpus, which the fixture tree ingests to."""
    return _outputs(BUNDLED_CORPUS, tmp_path_factory.mktemp("bundled"), CLASSIFY + CIENCIAS)


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def _write_csv(path, rows):
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    path.write_text(buffer.getvalue(), encoding="utf-8")


def _ingest(root, records="records", alias=None, out="corpus.json"):
    out = root / out
    argv = ["ingest", "--registry", str(root / "registry.csv"),
            "--records-dir", str(root / records), "--out", str(out)]
    if alias is not None:
        argv += ["--alias", str(alias)]
    assert main(argv) == 0
    return out


@_EXAMPLES
@given(order=st.permutations(range(83)))
def test_registry_row_order_changes_no_ranking_and_only_the_indicator_row_order(
    tmp_path_factory, tree, bundled, order
):
    root = _copy(tree, tmp_path_factory, "permuted")
    registry = root / "registry.csv"
    header, *rows = _read_csv(registry)
    assert len(rows) == len(order)
    _write_csv(registry, [header] + [rows[i] for i in order])
    corpus = _ingest(root)

    outputs = _outputs(corpus, root, CLASSIFY + CIENCIAS[:1])
    for name, _ in CLASSIFY:
        assert outputs[name] == bundled[name], name
    header_line, *lines = outputs["ciencias_indicators.csv"].decode("utf-8").splitlines()
    bundled_header, *bundled_lines = bundled["ciencias_indicators.csv"].decode("utf-8").splitlines()
    assert header_line == bundled_header
    assert lines == [bundled_lines[i] for i in order]


_OUTSIDE_WINDOW = st.one_of(st.integers(1900, WINDOW[0] - 1), st.integers(WINDOW[1] + 1, 2100))


@st.composite
def _dated_outside(draw):
    """(journal index, position, export row) of one row dated outside the window."""
    cites, title = draw(st.integers(0, 500)), article_title(draw(st.integers(0, 500)))
    row = [str(cites), "", title, str(draw(_OUTSIDE_WINDOW)), "", "", ""]
    return draw(st.integers(0, 82)), draw(st.integers(0, 12)), row


@st.composite
def _sociales_journal(draw):
    """(registry position, registry row, export rows) of one Sociales journal."""
    category = draw(st.sampled_from(["A1", "A2", "B", "C"]))
    libraries = [str(draw(st.integers(0, 1))) for _ in range(5)]
    registry_row = ["soc001", "REVISTA SOCIAL", "CienciasSociales", category,
                    str(draw(st.integers(0, 300))), *libraries]
    cites = draw(st.lists(st.integers(0, 80), max_size=12))
    years = st.integers(WINDOW[0], WINDOW[1])
    export = [
        [str(c), "", article_title(k), str(draw(years)), "", "", ""] for k, c in enumerate(cites)
    ]
    return draw(st.integers(0, 83)), registry_row, export


@_EXAMPLES
@given(sociales=_sociales_journal(), dated_outside=st.lists(_dated_outside(), max_size=8))
def test_another_area_and_rows_outside_the_window_change_no_ciencias_output(
    tmp_path_factory, tree, bundled, sociales, dated_outside
):
    root = _copy(tree, tmp_path_factory, "extended")
    registry, records = root / "registry.csv", root / "records"
    position, registry_row, export = sociales
    header, *rows = _read_csv(registry)
    rows.insert(position, registry_row)
    _write_csv(registry, [header] + rows)
    _write_csv(records / "soc001.csv", [_read_csv(records / "sci001.csv")[0]] + export)
    for index, at, row in dated_outside:
        path = records / f"sci{index + 1:03d}.csv"
        header, *exported = _read_csv(path)
        exported.insert(at, row)
        _write_csv(path, [header] + exported)
    corpus = _ingest(root)

    outputs = _outputs(corpus, root, CIENCIAS)
    assert outputs == {name: bundled[name] for name, _ in CIENCIAS}


@_EXAMPLES
@given(order=st.permutations(range(83)), prefix=st.sampled_from(["", "x", "revista-"]))
def test_renaming_journal_ids_changes_only_the_id_column(
    tmp_path_factory, tree, bundled, order, prefix
):
    """Journal i takes the id of journal order[i], with a prefix, in its
    registry row and in its export's file name: ids may swap between
    journals, so the cites must follow each journal by its new id."""
    root = tmp_path_factory.mktemp("renamed")
    header, *rows = _read_csv(tree / "registry.csv")
    renamed = {row[0]: prefix + rows[i][0] for row, i in zip(rows, order)}
    _write_csv(root / "registry.csv", [header] + [[renamed[row[0]], *row[1:]] for row in rows])
    (root / "records").mkdir()
    for old, new in renamed.items():
        shutil.copyfile(tree / "records" / f"{old}.csv", root / "records" / f"{new}.csv")
    corpus = _ingest(root)

    outputs = _outputs(corpus, root, CLASSIFY + CIENCIAS[:1])
    for name, _ in CLASSIFY:
        assert outputs[name] == bundled[name], name
    got = _read_csv(root / "ciencias_indicators.csv")
    want = list(csv.reader(io.StringIO(bundled["ciencias_indicators.csv"].decode("utf-8"))))
    assert got[0] == want[0]
    assert [row[1:] for row in got[1:]] == [row[1:] for row in want[1:]]
    assert [row[0] for row in got[1:]] == [renamed[row[0]] for row in want[1:]]


_EXPORT_HEADER = EXPORT_HEADER.split(",")
#: (output name, argv after --corpus) of both areas' indicators and classification
BOTH_AREAS = [
    (f"{area}_{command}.csv", [command, "--area", area])
    for area in ("ciencias", "sociales")
    for command in ("indicators", "classify")
]


@_EXAMPLES
@given(seed=st.integers(0, 2**32 - 1))
def test_reingesting_the_visible_rows_changes_nothing(tmp_path_factory, seed):
    """Each journal's visible articles, written back as its export and
    ingested again with the same registry and alias file, load as the first
    corpus without its dropped rows, and every output keeps its bytes.

    This holds on these inputs, not on every export: a row flagged beside an
    alias source that the same pass then drops is kept when ingested again."""
    for aliases in (0, 8):
        root = tmp_path_factory.mktemp("reingest")
        bench_module("workloads").write_registry_inputs(
            seed, root, journals=30, rows=(3, 25), lengths=(20, 60), aliases=aliases
        )
        alias = root / "alias.csv" if aliases else None
        first_path = _ingest(root, "exports", alias, out="first.json")
        first = corpus_from_json(first_path.read_text(encoding="utf-8"))
        visible = [a for a in first.articles if a.status in VISIBLE_STATUSES]
        (root / "visible").mkdir()
        for journal in first.journals:
            rows = [
                [a.cites, a.authors, a.title, a.year, a.publication, a.publisher, a.url]
                for a in visible
                if a.journal_id == journal.journal_id
            ]
            _write_csv(root / "visible" / f"{journal.journal_id}.csv", [_EXPORT_HEADER] + rows)
        second_path = _ingest(root, "visible", alias, out="second.json")

        assert second_path.read_text(encoding="utf-8") == corpus_to_json(
            first._replace(articles=tuple(visible))
        )
        assert _outputs(second_path, root, BOTH_AREAS) == _outputs(first_path, root, BOTH_AREAS)
