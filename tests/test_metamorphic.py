"""Metamorphic properties of the pipeline on the bundled fixture tree.

Each property changes the ingest inputs in a way that must not matter to an
output and checks that output against the bundled corpus's. Draws are
derandomized and few, since each example ingests the whole fixture tree.
"""

import csv
import io
import pathlib
import shutil

import pytest
from hypothesis import Phase, given, settings, strategies as st

from citemetric.cli import main
from fixture_corpus import WINDOW, article_title, write_fixture_tree

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


def _ingest(root):
    out = root / "corpus.json"
    argv = ["ingest", "--registry", str(root / "registry.csv"),
            "--records-dir", str(root / "records"), "--out", str(out)]
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
