import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import pathlib
import re
import subprocess
import stat
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from citemetric import analysis, classify, indicators, ingest
from citemetric.cli import (
    _CHUNK,
    _COMMANDS,
    _journal_cites,
    _alpha,
    _build_parser,
    _read_argv,
    _title_threshold,
    _top,
    _window,
    main,
)
from citemetric.errors import MalformedCorpus
from fixture_corpus import bench_module, write_fixture_tree

REPO = pathlib.Path(__file__).parent.parent
BUNDLED_CORPUS = REPO / "fixtures" / "ciencias_table7.json"
GOLDEN_MD = pathlib.Path(__file__).parent / "data" / "table7_top2.md"
GOLDEN_JSON = GOLDEN_MD.with_suffix(".json")


def _cache_dir() -> pathlib.Path:
    """The test's own cache directory, set by the repository's conftest.py."""
    return pathlib.Path(os.environ["XDG_CACHE_HOME"])


def _entry() -> pathlib.Path:
    """The cache's one file."""
    return _cache_dir() / "citemetric" / "journal_cites"


def _ingest(tmp_path, out_name="corpus.json"):
    registry, records = write_fixture_tree(tmp_path)
    out = tmp_path / out_name
    code = main(
        [
            "ingest",
            "--registry",
            str(registry),
            "--records-dir",
            str(records),
            "--window",
            "2003:2007",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return out


def test_ingest_reproduces_bundled_corpus(tmp_path):
    out = _ingest(tmp_path)
    assert out.read_bytes() == BUNDLED_CORPUS.read_bytes()


def test_classify_fixed_top_two_matches_golden(tmp_path):
    out = tmp_path / "table.md"
    code = main(
        [
            "classify",
            "--corpus",
            str(BUNDLED_CORPUS),
            "--quartile-mode",
            "fixed",
            "--top",
            "2",
            "--format",
            "md",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.read_bytes() == GOLDEN_MD.read_bytes()


def test_classify_fixed_top_two_json_matches_golden(tmp_path):
    out = tmp_path / "table.json"
    argv = ["classify", "--corpus", str(BUNDLED_CORPUS), "--quartile-mode", "fixed", "--top", "2"]
    assert main([*argv, "--format", "json", "--out", str(out)]) == 0
    assert out.read_bytes() == GOLDEN_JSON.read_bytes()


def test_record_documents_keep_their_key_order(tmp_path):
    """These documents are written from their records' fields, so a renamed or
    reordered field fails here instead of silently changing a file format."""
    corpus = ingest.corpus_from_json(BUNDLED_CORPUS.read_bytes())
    article = json.loads(ingest.corpus_to_json(corpus))["articles"][0]
    fields = "journal_id title year cites authors publication publisher url status"
    assert list(article) == fields.split()
    documents = {}
    for command, *flags in (
        ("correlate", "--area", "ciencias", "--vars", "h,cr_ga_log10,pi_ld"),
        ("factor", "--area", "ciencias"),
        ("classify", "--format", "json"),
    ):
        out = tmp_path / f"{command}.json"
        assert main([command, "--corpus", str(BUNDLED_CORPUS), *flags, "--out", str(out)]) == 0
        documents[command] = json.loads(out.read_text(encoding="utf-8"))
    assert list(documents["correlate"]) == "variables r significant n alpha".split()
    assert list(documents["factor"]) == (
        "variables eigenvalues retained loadings communalities variance_explained contributing"
    ).split()
    assert list(documents["classify"][0]) == "rank title h category cpn quartile".split()


def test_indicators_command_writes_expected_header(tmp_path):
    out = tmp_path / "indicators.csv"
    code = main(
        [
            "indicators",
            "--corpus",
            str(BUNDLED_CORPUS),
            "--area",
            "ciencias",
            "--area-mean",
            "ratios",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("journal_id,title,area,category,air_ibnp")
    assert len(lines) == 1 + 83


def test_compare_correlate_factor_regress_commands(tmp_path):
    jobs = [
        (["compare", "--by", "category", "--method", "anova"], {"rows", "tests", "letters"}),
        (["correlate", "--vars", "h,cr_ga_log10,pi_ld"], {"variables", "r", "significant"}),
        (["factor"], {"eigenvalues", "loadings", "communalities"}),
        (["regress", "--response", "logcr"], {"coefficients", "r2_adjusted", "vif"}),
    ]
    for extra, keys in jobs:
        out = tmp_path / (extra[0] + ".json")
        code = main(
            [extra[0], "--corpus", str(BUNDLED_CORPUS), "--area", "ciencias"]
            + extra[1:]
            + ["--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert keys <= set(doc)


def test_compare_kw_on_an_all_tied_variable_exits_zero(tmp_path):
    # every bundled journal has air_ibnp 100, so air_ibnp_log10 is constant
    out = tmp_path / "compare.json"
    argv = ["compare", "--corpus", str(BUNDLED_CORPUS), "--area", "ciencias",
            "--by", "library", "--method", "kw", "--out", str(out)]
    assert main(argv) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    test = doc["tests"]["air_ibnp_log10"]
    assert (test["method"], test["statistic"], test["p_value"]) == ("KruskalWallisH", 0.0, 1.0)
    assert doc["letters"]["air_ibnp_log10"]["letters"] == ["a", "a", "a", "a"]
    assert doc["variables"] == list(analysis.DEFAULT_COMPARE_VARIABLES)


def _refuse_constant(token):
    raise ValueError(f"{token} is not a JSON number")


def test_compare_writes_an_infinite_statistic_as_null(tmp_path):
    # pi_ibnp is the category's score, constant within every category, so its F is infinite
    out = tmp_path / "compare.json"
    argv = ["compare", "--corpus", str(BUNDLED_CORPUS), "--area", "ciencias",
            "--by", "category", "--vars", "pi_ibnp,h", "--out", str(out)]
    assert main(argv) == 0
    doc = json.loads(out.read_text(encoding="utf-8"), parse_constant=_refuse_constant)
    assert doc["tests"]["pi_ibnp"] == {
        "method": "AnovaF", "statistic": None, "df1": 3, "df2": 79, "p_value": 0.0, "n": 83
    }


def test_end_to_end_runs_are_byte_identical(tmp_path):
    first = tmp_path / "one"
    second = tmp_path / "two"
    outputs = {}
    for label, root in (("one", first), ("two", second)):
        root.mkdir()
        corpus = _ingest(root)
        csv_out = root / "indicators.csv"
        md_out = root / "table.md"
        assert main(
            ["indicators", "--corpus", str(corpus), "--area", "ciencias", "--out", str(csv_out)]
        ) == 0
        assert main(
            [
                "classify",
                "--corpus",
                str(corpus),
                "--quartile-mode",
                "fixed",
                "--top",
                "2",
                "--format",
                "md",
                "--out",
                str(md_out),
            ]
        ) == 0
        outputs[label] = (corpus.read_bytes(), csv_out.read_bytes(), md_out.read_bytes())
    assert outputs["one"] == outputs["two"]


def test_unknown_subcommand_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err


def test_missing_required_flag_exits_with_usage_error(capsys):
    for argv, missing in (
        (["classify"], "--corpus, --out"),
        (["indicators", "--corpus", "c.json", "--area", "ciencias"], "--out"),
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(f"the following arguments are required: {missing}\n")


COMMAND_HELP = {
    "ingest": "parse registry and citation exports into a corpus JSON",
    "indicators": "per-journal indicator table as CSV",
    "compare": "compare indicators across libraries or categories",
    "correlate": "rank-correlation matrix over chosen variables",
    "factor": "citation indicator factor analysis",
    "regress": "citation regression on size and indexation",
    "classify": "h-ranked quartile classification table",
}
COMMAND_OPTIONS = {
    "ingest": {"--registry", "--records-dir", "--alias", "--window", "--title-threshold", "--out"},
    "indicators": {"--corpus", "--area", "--area-mean", "--out"},
    "compare": {"--corpus", "--area", "--by", "--method", "--alpha", "--vars", "--out"},
    "correlate": {"--corpus", "--area", "--vars", "--alpha", "--out"},
    "factor": {"--corpus", "--area", "--out"},
    "regress": {"--corpus", "--area", "--response", "--out"},
    "classify": {
        "--corpus", "--area", "--quartile-mode", "--area-mean", "--top", "--format", "--out",
    },
}


def _help(argv, capsys) -> str:
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    return capsys.readouterr().out


def test_help_names_every_command_and_each_command_its_own_options(capsys):
    """The top-level help lists each command, and each command's help its
    own options and no other command's."""
    top = _help(["--help"], capsys)
    for command, help_text in COMMAND_HELP.items():
        assert re.search(rf"^ +{command} +{re.escape(help_text)}$", top, re.MULTILINE), command
    for command, options in COMMAND_OPTIONS.items():
        text = _help([command, "--help"], capsys)
        assert text.startswith(f"usage: citemetric {command} [-h]")
        assert set(re.findall(r"--[a-z][a-z-]*", text)) - {"--help"} == options, command


def test_bad_registry_header_is_a_data_error(tmp_path, capsys):
    registry = tmp_path / "registry.csv"
    registry.write_text("journal,title\nj1,Revista\n", encoding="utf-8")
    records = tmp_path / "records"
    records.mkdir()
    out = tmp_path / "corpus.json"
    code = main(
        ["ingest", "--registry", str(registry), "--records-dir", str(records), "--out", str(out)]
    )
    assert code == 1
    assert "header" in capsys.readouterr().err
    assert not out.exists()  # no partial output


def test_missing_corpus_file_is_a_data_error(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(["classify", "--corpus", str(tmp_path / "nope.json"), "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_classify_on_an_area_without_journals_is_a_one_line_data_error(tmp_path, capsys):
    # the bundled fixture holds only ciencias journals, so the sociales ranking is empty
    out = tmp_path / "table.csv"
    argv = ["classify", "--corpus", str(BUNDLED_CORPUS), "--area", "sociales", "--out", str(out)]
    assert main(argv) == 1
    says = "the corpus holds no journal of area 'sociales'"
    assert capsys.readouterr().err == f"citemetric classify: {says}\n"
    assert not out.exists()


@pytest.mark.parametrize("mode", ["empirical", "fixed"])
def test_classify_on_a_corpus_without_journals_is_a_one_line_data_error(tmp_path, capsys, mode):
    # ingest reads a registry of no journal into a corpus of none
    registry = tmp_path / "registry.csv"
    registry.write_text(ingest.REGISTRY_HEADER + "\n", encoding="utf-8")
    (tmp_path / "records").mkdir()
    corpus = tmp_path / "corpus.json"
    argv = ["ingest", "--registry", str(registry), "--records-dir", str(tmp_path / "records")]
    assert main([*argv, "--out", str(corpus)]) == 0
    out = tmp_path / "table.csv"
    argv = ["classify", "--corpus", str(corpus), "--quartile-mode", mode, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "citemetric classify: the corpus holds no journal\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, extra",
    [
        ("indicators", []),
        ("compare", ["--by", "category"]),
        ("correlate", ["--vars", "h,ca_mean"]),
        ("factor", []),
        ("regress", []),
        ("classify", ["--quartile-mode", "fixed"]),
    ],
)
def test_an_area_the_corpus_does_not_hold_is_a_one_line_data_error(
    tmp_path, capsys, command, extra
):
    out = tmp_path / "out"
    argv = [command, "--corpus", str(BUNDLED_CORPUS), "--area", "sociales", *extra]
    assert main([*argv, "--out", str(out)]) == 1
    says = "the corpus holds no journal of area 'sociales'"
    assert capsys.readouterr().err == f"citemetric {command}: {says}\n"
    assert not out.exists()


def test_bad_window_is_a_usage_error(tmp_path, capsys):
    registry, records = write_fixture_tree(tmp_path)
    out = tmp_path / "c.json"
    inputs = ["--registry", str(registry), "--records-dir", str(records)]
    for value in ("2007:2003", "2003-2007"):
        for spelling in ([f"--window={value}"], ["--window", value]):
            argv = ["ingest", *inputs, *spelling, "--out", str(out)]
            assert _read_argv(argv) is None, argv
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2, argv
            assert "argument --window: " in capsys.readouterr().err
    assert not out.exists()


def test_alpha_and_top_out_of_range_exit_with_usage_error(tmp_path, capsys):
    corpus = ["--corpus", str(BUNDLED_CORPUS), "--area", "ciencias"]
    correlate = ["correlate", *corpus, "--vars", "h,pi_ld"]
    # float() and int() alone would read the underscored, padded and non-ASCII forms
    alphas = ("1.5", "0", "1", "-0.1", "nan", "inf", "x", "0.0_5", " 0.05 ", "٠.٠٥", "０.05")
    cases = [(correlate, "--alpha", v) for v in alphas]
    cases += [(["compare", *corpus, "--by", "category"], "--alpha", v) for v in ("1.5", "2")]
    tops = ("-1", "0", "2.5", "x", "1_0", " 2", "２", "١")
    cases += [(["classify", *corpus], "--top", v) for v in tops]
    out = tmp_path / "out"
    for command, flag, value in cases:
        # the fast argv reader refuses "--flag=value" outright and "--flag value"
        # at its type or leading-dash check; argparse then reports the failure
        for spelling in ([f"{flag}={value}"], [flag, value]):
            argv = command + spelling + ["--out", str(out)]
            assert _read_argv(argv) is None, argv
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2, argv
            assert flag in capsys.readouterr().err
    assert not out.exists()
    assert main(correlate + ["--alpha", "0.01", "--out", str(out)]) == 0
    assert main(["classify", *corpus, "--top", "1", "--out", str(out)]) == 0


@pytest.mark.parametrize(
    "command, variables, says",
    [
        ("compare", "", "need at least one variable"),
        ("compare", ",", "need at least one variable"),
        ("compare", "h,cr_ga_log10,h", "variable 'h' is listed more than once"),
        ("correlate", "h,h", "variable 'h' is listed more than once"),
        ("correlate", "h", "need at least two variables"),
        # every fixture journal has air_ibnp 100
        (
            "correlate",
            "air_ibnp_log10,h",
            "air_ibnp_log10 vs h: constant input leaves the correlation undefined",
        ),
    ],
)
def test_empty_or_repeated_vars_is_a_one_line_data_error(
    tmp_path, capsys, command, variables, says
):
    out = tmp_path / "out.json"
    by = ["--by", "category"] if command == "compare" else []
    argv = [command, "--corpus", str(BUNDLED_CORPUS), "--area", "ciencias", *by]
    assert main(argv + ["--vars", variables, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"citemetric {command}: {says}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, variables, unknown",
    [("correlate", "h,h_sc", "h_sc"), ("compare", "cpn", "cpn")],
)
def test_variables_without_information_of_their_own_are_unknown(
    tmp_path, capsys, command, variables, unknown
):
    """No input fills h_sc, and within an area cpn ranks and tests exactly
    like ca_mean, so neither is a variable an analysis takes."""
    out = tmp_path / "out.json"
    by = ["--by", "category"] if command == "compare" else []
    argv = [command, "--corpus", str(BUNDLED_CORPUS), "--area", "ciencias", *by]
    assert main(argv + ["--vars", variables, "--out", str(out)]) == 1
    names = "air_ga_log10 air_ibnp_log10 ca_mean cr_ga_log10 h pi_ibnp pi_ld ratio_ba".split()
    says = f"unknown variable {unknown!r}; choose from {names}"
    assert capsys.readouterr().err == f"citemetric {command}: {says}\n"
    assert not out.exists()


def test_compare_without_vars_compares_the_table_five(tmp_path, capsys):
    common = ["compare", "--corpus", str(BUNDLED_CORPUS), "--area", "ciencias", "--by", "library"]
    assert main(common + ["--out", str(tmp_path / "default.json")]) == 0
    named = "air_ibnp_log10,ratio_ba,pi_ld,cr_ga_log10,ca_mean"
    assert main(common + ["--vars", named, "--out", str(tmp_path / "named.json")]) == 0
    assert (tmp_path / "default.json").read_bytes() == (tmp_path / "named.json").read_bytes()
    # an explicit empty list is still refused, not read as "no --vars"
    assert main(common + ["--vars", "", "--out", str(tmp_path / "empty.json")]) == 1
    assert capsys.readouterr().err == "citemetric compare: need at least one variable\n"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_get_the_mode_a_plain_open_would_give(tmp_path, umask, mode):
    out = tmp_path / "table.csv"
    previous = os.umask(umask)
    try:
        assert main(["classify", "--corpus", str(BUNDLED_CORPUS), "--out", str(out)]) == 0
    finally:
        os.umask(previous)
    assert out.stat().st_mode & 0o777 == mode


def test_outputs_are_written_without_touching_the_umask(tmp_path):
    """The umask is process-wide: setting it, even to read it back, changes
    the mode of any file another thread creates meanwhile."""
    out = tmp_path / "table.csv"
    with mock.patch.object(os, "umask", side_effect=AssertionError("umask called")):
        assert main(["classify", "--corpus", str(BUNDLED_CORPUS), "--out", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]


@pytest.mark.parametrize("threshold", ["1.5", "0", "-0.1", "nan", "inf", "high", "0.9_2", "٠.٩"])
def test_bad_title_threshold_exits_with_usage_error(tmp_path, threshold, capsys):
    out = tmp_path / "corpus.json"
    inputs = ["--registry", str(tmp_path / "registry.csv"), "--records-dir", str(tmp_path)]
    for spelling in ([f"--title-threshold={threshold}"], ["--title-threshold", threshold]):
        argv = ["ingest", *inputs, *spelling, "--out", str(out)]
        assert _read_argv(argv) is None
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "--title-threshold" in capsys.readouterr().err
    assert not out.exists()


def _nul_in_registry_title(registry, records, alias):
    lines = registry.read_text(encoding="utf-8").split("\n")
    lines[2] = lines[2].replace(",", "\0,", 2)
    registry.write_text("\n".join(lines), encoding="utf-8")
    return registry


def _first_journal_row(registry, edit):
    # line 2 of the registry; no fixture title holds a comma or a quote
    lines = registry.read_text(encoding="utf-8").split("\n")
    lines[1] = ",".join(edit(lines[1].split(",")))
    registry.write_text("\n".join(lines), encoding="utf-8")
    return registry


def _registry_row_of_nine_cells(registry, records, alias):
    return _first_journal_row(registry, lambda cells: cells[:9])


def _blank_registry_journal_id(registry, records, alias):
    return _first_journal_row(registry, lambda cells: [" ", *cells[1:]])


def _blank_registry_title(registry, records, alias):
    return _first_journal_row(registry, lambda cells: [cells[0], "", *cells[2:]])


def _unknown_registry_area(registry, records, alias):
    return _first_journal_row(registry, lambda cells: [*cells[:2], "Biologia", *cells[3:]])


def _nul_in_export_authors(registry, records, alias):
    export = sorted(records.glob("*.csv"))[0]
    lines = export.read_text(encoding="utf-8").split("\n")
    lines[3] = lines[3].replace(",", ",A\0,", 1)
    export.write_text("\n".join(lines), encoding="utf-8")
    return export


def _nul_in_alias(registry, records, alias):
    # CRLF line ends and a quoted cell over two lines put the NUL on line 4
    text = 'from_title,to_title\r\n"Clima\r\ny suelo",Climate\r\nSuelo\0,Soil\r\n'
    alias.write_bytes(text.encode("utf-8"))
    return alias


def _alias_rows_that_disagree(registry, records, alias):
    rows = "from_title,to_title\nTitulo uno,Title one\ntitulo UNO,Title two\n"
    alias.write_text(rows, encoding="utf-8")
    return alias


def _export_cell_over_the_csv_field_limit(registry, records, alias):
    export = sorted(records.glob("*.csv"))[0]
    lines = export.read_text(encoding="utf-8").split("\n")
    lines[3] = lines[3].replace(",", "," + "A" * 200_000, 1)
    export.write_text("\n".join(lines), encoding="utf-8")
    return export


@pytest.mark.parametrize(
    "damage, says",
    [
        (_nul_in_registry_title, "line 3, column '*': contains a NUL byte"),
        (_registry_row_of_nine_cells, "line 2, column '*': expected 10 cells, found 9"),
        (_blank_registry_journal_id, "line 2, column 'journal_id': empty"),
        (_blank_registry_title, "line 2, column 'title': empty"),
        (_unknown_registry_area, "line 2, column 'area': unknown area 'Biologia'"),
        (_nul_in_export_authors, "line 4, column '*': contains a NUL byte"),
        (_nul_in_alias, "line 4, column '*': contains a NUL byte"),
        (_export_cell_over_the_csv_field_limit, "line 4, column '*': field larger than"),
        (_alias_rows_that_disagree, "line 3, column 'to_title': 'titulo uno' already aliases"),
    ],
)
def test_unreadable_csv_input_is_a_one_line_data_error(tmp_path, capsys, damage, says):
    registry, records = write_fixture_tree(tmp_path)
    alias = tmp_path / "alias.csv"
    alias.write_text("from_title,to_title\n", encoding="utf-8")
    damaged = damage(registry, records, alias)
    out = tmp_path / "corpus.json"
    args = ["ingest", "--registry", str(registry), "--records-dir", str(records)]
    assert main(args + ["--alias", str(alias), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"citemetric ingest: {damaged}: ") and says in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_a_bad_export_cell_names_its_export(tmp_path, capsys):
    registry, records = write_fixture_tree(tmp_path)
    exports = sorted(records.glob("*.csv"))
    for export in exports[3:]:
        export.unlink()
    lines = exports[1].read_text(encoding="utf-8").split("\n")
    lines[5] = "x" + lines[5][lines[5].index(","):]
    exports[1].write_text("\n".join(lines), encoding="utf-8")
    out = tmp_path / "corpus.json"
    args = ["ingest", "--registry", str(registry), "--records-dir", str(records), "--out", str(out)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == f"citemetric ingest: {exports[1]}: line 6, column 'cites': not an integer: 'x'\n"
    assert not out.exists()


@pytest.mark.parametrize("marks", [0, 1, 2])
def test_the_command_skips_the_byte_order_mark_the_loader_skips(tmp_path, capsys, marks):
    corpus = tmp_path / "corpus.json"
    corpus.write_bytes("\ufeff".encode("utf-8") * marks + BUNDLED_CORPUS.read_bytes())
    try:
        ingest.corpus_from_json(corpus.read_bytes())
        loads = True
    except MalformedCorpus:
        loads = False
    assert loads == (marks < 2)
    out = tmp_path / "table.md"
    argv = ["classify", "--corpus", str(corpus), "--quartile-mode", "fixed", "--top", "2"]
    assert main(argv + ["--format", "md", "--out", str(out)]) == (0 if loads else 1)
    if loads:
        assert out.read_bytes() == GOLDEN_MD.read_bytes()
    else:
        assert capsys.readouterr().err == (
            f"citemetric classify: {corpus}: corpus JSON does not parse: "
            "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)\n"
        )


def test_deeply_nested_corpus_json_is_a_one_line_data_error(tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    corpus.write_text("[" * 200_000, encoding="utf-8")
    out = tmp_path / "table.csv"
    assert main(["classify", "--corpus", str(corpus), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"citemetric classify: {corpus}: corpus JSON is nested too deeply\n"
    assert not out.exists()


def test_missing_records_dir_is_a_one_line_data_error(tmp_path, capsys):
    registry, _records = write_fixture_tree(tmp_path)
    missing = tmp_path / "no-records"
    out = tmp_path / "corpus.json"
    args = ["ingest", "--registry", str(registry), "--records-dir", str(missing)]
    assert main(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"citemetric ingest: records directory not found: {missing}\n"
    assert not out.exists()


def test_out_naming_a_directory_leaves_it_and_no_temp_file(tmp_path, capsys):
    out = tmp_path / "table.csv"
    out.mkdir()
    (out / "inside.txt").write_text("kept", encoding="utf-8")
    assert main(["classify", "--corpus", str(BUNDLED_CORPUS), "--out", str(out)]) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]
    assert [p.name for p in out.iterdir()] == ["inside.txt"]
    assert (out / "inside.txt").read_text(encoding="utf-8") == "kept"


def test_title_threshold_of_one_is_accepted(tmp_path):
    registry, records = write_fixture_tree(tmp_path)
    out = tmp_path / "corpus.json"
    args = ["ingest", "--registry", str(registry), "--records-dir", str(records)]
    assert main(args + ["--title-threshold", "1", "--out", str(out)]) == 0


def _without_journals(doc):
    del doc["journals"]


def _without_cites(doc):
    del doc["articles"][3]["cites"]


def _articles_not_a_list(doc):
    doc["articles"] = 5


def _unknown_status(doc):
    doc["articles"][0]["status"] = "Bogus"


def _list_status(doc):
    doc["articles"][3]["status"] = ["Kept"]


def _object_status(doc):
    doc["articles"][3]["status"] = {"Kept": 1}


def _unknown_area(doc):
    doc["journals"][0]["area"] = "Artes"


def _unknown_library(doc):
    doc["journals"][0]["memberships"] = ["Dialnet"]


def _without_ibnp_total(doc):
    del doc["ibnp_totals"]["sci001"]


def _string_ibnp_total(doc):
    doc["ibnp_totals"]["sci001"] = "12"


def _ibnp_totals_as_pairs(doc):
    doc["ibnp_totals"] = list(doc["ibnp_totals"].items())


def _ibnp_total_of_no_journal(doc):
    doc["ibnp_totals"]["sci999"] = 5


def _memberships_as_object(doc):
    journal = doc["journals"][0]
    journal["memberships"] = dict.fromkeys(journal["memberships"], 1)


def _repeated_membership(doc):
    memberships = doc["journals"][0]["memberships"]
    memberships.append(memberships[0])


def _string_cites(doc):
    doc["articles"][3]["cites"] = "5"


def _boolean_cites(doc):
    doc["articles"][3]["cites"] = True


def _list_journal_id(doc):
    doc["articles"][3]["journal_id"] = []


def _number_journal_id(doc):
    doc["journals"][0]["journal_id"] = 1


def _string_year(doc):
    doc["articles"][3]["year"] = "2004"


def _string_window(doc):
    doc["window"] = ["2003", "2007"]


def _three_year_window(doc):
    doc["window"] = [2003, 2005, 2007]


def _reversed_window(doc):
    doc["window"] = [2007, 2003]


def _string_cites_and_reversed_window(doc):
    # both readers check the journal sections before any article
    _string_cites(doc)
    _reversed_window(doc)


def _null_kept_title(doc):
    article = next(a for a in doc["articles"] if a["status"] == "Kept")
    article["title"] = None


def _number_journal_title(doc):
    doc["journals"][0]["title"] = 5


def _number_url(doc):
    doc["articles"][3]["url"] = 3


def _negative_cites(doc):
    doc["articles"][3]["cites"] = -50


def _article_of_no_journal(doc):
    doc["articles"][3]["journal_id"] = "sci999"


def _kept_row_dated_1900(doc):
    doc["articles"][3]["year"] = 1900


def _flagged_row_dated_1990(doc):
    doc["articles"][0].update(status="NeedsReview", year=1990)


def _flagged_row_without_year(doc):
    doc["articles"][0].update(status="NeedsReview", year=None)


def _flagged_row_without_title(doc):
    doc["articles"][0].update(status="NeedsReview", title="")


def _negative_ibnp_total(doc):
    doc["ibnp_totals"]["sci001"] = -5


def _blank_journal_title(doc):
    doc["journals"][0]["title"] = "   "


def _object_authors(doc):
    doc["articles"][3]["authors"] = {}


def _empty_journal_id(doc):
    # renamed everywhere, so the load itself succeeds and the invariant check refuses it
    old = doc["journals"][0]["journal_id"]
    doc["journals"][0]["journal_id"] = ""
    doc["ibnp_totals"][""] = doc["ibnp_totals"].pop(old)
    for article in doc["articles"]:
        if article["journal_id"] == old:
            article["journal_id"] = ""


def _article_among_journals(doc):
    doc["journals"][0] = dict(doc["articles"][0])


def _bare_article_document(doc):
    article = doc["articles"][0]
    doc.clear()
    doc.update(article)


def _article_as_ibnp_total(doc):
    doc["ibnp_totals"]["sci001"] = dict(doc["articles"][0])


def _article_in_window(doc):
    doc["window"][0] = dict(doc["articles"][0])


def _journals_as_object(doc):
    doc["journals"] = {journal["journal_id"]: journal for journal in doc["journals"]}


def _journal_as_string(doc):
    doc["journals"][1] = "sci002"


def _article_as_list(doc):
    doc["articles"][3] = list(doc["articles"][3].values())


# these write bytes of their own in place of the damaged document
def _document_as_list(doc):
    return json.dumps([doc]).encode("utf-8")


def _not_json(doc):
    return b'{"window": [2003, 2007],'


def _not_utf8(doc):
    return b"\xff" + json.dumps(doc).encode("utf-8")


@pytest.mark.parametrize(
    "damage, says",
    [
        (_without_journals, "missing key 'journals'"),
        (_without_cites, "missing key 'cites'"),
        (_articles_not_a_list, "articles: expected a list, got int"),
        (_unknown_status, "'Bogus' is not a valid ArticleStatus"),
        (_list_status, "['Kept'] is not a valid ArticleStatus"),
        (_object_status, "{'Kept': 1} is not a valid ArticleStatus"),
        (_unknown_area, "'Artes' is not a valid Area"),
        (_unknown_library, "'Dialnet' is not a valid Library"),
        (_without_ibnp_total, "ibnp_totals: no entry for journal 'sci001'"),
        (_string_ibnp_total, "ibnp_totals: journal 'sci001': total is str, not int"),
        (_ibnp_totals_as_pairs, "ibnp_totals: expected an object keyed by journal id, got list"),
        (_ibnp_total_of_no_journal, "ibnp_totals: entry for unknown journal 'sci999'"),
        (_memberships_as_object, "journals: journal 0: memberships is dict, not list"),
        (_repeated_membership, "journals: journal 0: memberships repeat a library: "),
        (_string_cites, "articles: article 3: cites is str, not int"),
        (_boolean_cites, "articles: article 3: cites is bool, not int"),
        (_list_journal_id, "articles: article 3: journal_id is list, not str"),
        (_number_journal_id, "journals: journal 0: journal_id is int, not str"),
        (_string_year, "articles: article 3: year is str, not int or null"),
        (_string_window, "window: expected two int years, got ['2003', '2007']"),
        (_three_year_window, "window: expected two int years, got [2003, 2005, 2007]"),
        (_reversed_window, "window: start 2007 is after end 2003"),
        (_string_cites_and_reversed_window, "corpus JSON window: start 2007 is after end 2003"),
        (_null_kept_title, "articles: article 0: title is NoneType, not str"),
        (_number_journal_title, "journals: journal 0: title is int, not str"),
        (_number_url, "articles: article 3: url is int, not str"),
        (_negative_cites, "is invalid: article row 3 (journal 'sci001'): negative cites"),
        (_article_of_no_journal, "article row 3 (journal 'sci999'): unknown journal_id 'sci999'"),
        (_kept_row_dated_1900, "article row 3 (journal 'sci001'): kept record with year outside"),
        (_flagged_row_dated_1990, "row 0 (journal 'sci001'): flagged record with year outside"),
        (_flagged_row_without_year, "row 0 (journal 'sci001'): flagged record with year outside"),
        (_flagged_row_without_title, "row 0 (journal 'sci001'): flagged record with empty title"),
        (_negative_ibnp_total, "is invalid: journal 'sci001' has negative ibnp total"),
        (_blank_journal_title, "corpus JSON is invalid: journal 'sci001' has empty title"),
        (_object_authors, "articles: article 3: authors is dict, not str"),
        (_empty_journal_id, "is invalid: journal with empty journal_id"),
        # an article-shaped object where something else belongs is refused
        # as what belongs there
        (_article_among_journals, "journals: missing key 'memberships'"),
        (_bare_article_document, "journals: missing key 'journals'"),
        (_article_as_ibnp_total, "ibnp_totals: journal 'sci001': total is dict, not int"),
        (_article_in_window, "window: expected two int years, got [{'journal_id': 'sci001', "),
        (_journals_as_object, "corpus JSON journals: expected a list, got dict"),
        (_journal_as_string, "corpus JSON journals: journal 1 is str, not dict"),
        (_article_as_list, "corpus JSON articles: article 3 is list, not dict"),
        (_document_as_list, "corpus JSON is list, not dict"),
        (_not_json, "does not parse: Expecting property name enclosed in double quotes: line 1"),
        # the command decodes the file itself, so the codec names the fault
        (_not_utf8, "'utf-8' codec can't decode byte 0xff in position 0"),
    ],
)
def test_malformed_corpus_json_is_a_one_line_data_error(tmp_path, capsys, damage, says):
    doc = json.loads(BUNDLED_CORPUS.read_text(encoding="utf-8"))
    content = damage(doc)
    corpus = tmp_path / "corpus.json"
    corpus.write_bytes(json.dumps(doc).encode("utf-8") if content is None else content)
    out = tmp_path / "table.csv"
    assert main(["classify", "--corpus", str(corpus), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"citemetric classify: {corpus}: ")
    assert err.startswith(f"citemetric classify: {corpus}: corpus JSON ") or damage is _not_utf8
    assert says in err
    assert len(err.splitlines()) == 1
    assert not out.exists()
    # a refused corpus is never cached, so a second run refuses it again alike
    assert not any(_cache_dir().iterdir())
    assert main(["classify", "--corpus", str(corpus), "--out", str(out)]) == 1
    assert capsys.readouterr().err == err


def test_journal_ids_named_like_article_keys_load(tmp_path):
    """ibnp_totals is keyed by journal id, so these ids make it look like an
    article object; it must load as totals all the same."""
    doc = json.loads(BUNDLED_CORPUS.read_text(encoding="utf-8"))
    renamed = dict(zip(doc["ibnp_totals"], ["journal_id", "title", "year", "cites", "status"]))
    for journal in doc["journals"]:
        journal["journal_id"] = renamed.get(journal["journal_id"], journal["journal_id"])
    for article in doc["articles"]:
        article["journal_id"] = renamed.get(article["journal_id"], article["journal_id"])
    doc["ibnp_totals"] = {renamed.get(k, k): v for k, v in doc["ibnp_totals"].items()}
    assert set(renamed.values()) <= doc["ibnp_totals"].keys()
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(doc), encoding="utf-8")
    outputs = []
    for source in (BUNDLED_CORPUS, corpus):
        out = tmp_path / f"{len(outputs)}.csv"
        assert main(["classify", "--corpus", str(source), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def _scalar_paths(node, path=()):
    """Key paths to every scalar (not list, not object) of a JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        yield path
        return
    for key, child in children:
        yield from _scalar_paths(child, path + (key,))


_BUNDLED_TEXT = BUNDLED_CORPUS.read_text(encoding="utf-8")
_BUNDLED_SCALARS = list(_scalar_paths(json.loads(_BUNDLED_TEXT)))


@settings(max_examples=100, deadline=None)
@given(
    path=st.sampled_from(_BUNDLED_SCALARS),
    value=st.sampled_from([None, -1, 1900, "", "x", True, [], {}]),
)
def test_any_one_damaged_corpus_scalar_is_a_clean_exit(tmp_path_factory, path, value):
    doc = json.loads(_BUNDLED_TEXT)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    root = tmp_path_factory.mktemp("fuzz")
    corpus = root / "corpus.json"
    corpus.write_text(json.dumps(doc), encoding="utf-8")
    for command in (["classify"], ["indicators", "--area", "ciencias"]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*command, "--corpus", str(corpus), "--out", str(root / "out")])
        assert code in (0, 1)
        if code == 1:
            assert len(err.getvalue().splitlines()) == 1


_NUMPY_PROBE = """
import json, sys
from citemetric.cli import main

assert "numpy" not in sys.modules, "importing the CLI loaded numpy"
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    if "numpy" in sys.modules:
        print(argv[0])
        break
"""


def test_only_factor_and_regress_load_numpy(tmp_path):
    registry, records = write_fixture_tree(tmp_path)
    corpus = str(tmp_path / "corpus.json")
    area = ["--corpus", corpus, "--area", "ciencias", "--out", str(tmp_path / "out")]
    commands = [
        ["ingest", "--registry", str(registry), "--records-dir", str(records), "--out", corpus],
        ["indicators", *area],
        ["compare", "--by", "category", *area],
        ["correlate", "--vars", "h,cr_ga_log10,pi_ld", *area],
        ["classify", "--corpus", corpus, "--format", "md", "--out", str(tmp_path / "table.md")],
    ]
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))

    def first_to_load_numpy(argvs):
        run = subprocess.run(
            [sys.executable, "-c", _NUMPY_PROBE, json.dumps(argvs)],
            env=env, capture_output=True, text=True,
        )
        assert run.returncode == 0, run.stderr
        return run.stdout.strip()

    assert first_to_load_numpy(commands) == ""
    # the probe does see numpy once a linear-algebra command runs
    assert first_to_load_numpy(commands + [["factor", *area]]) == "factor"
    assert first_to_load_numpy([["regress", *area]]) == "regress"


def _spawn(argv, before=()):
    """Run ``python -m citemetric.cli argv`` from the repository root in a new
    interpreter that imports the package from src/, after ``before``."""
    return subprocess.run(
        [*before, sys.executable, "-m", "citemetric.cli", *argv],
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        capture_output=True,
    )


_GOLDEN_MD_ARGV = [
    "classify", "--corpus", str(BUNDLED_CORPUS), "--quartile-mode", "fixed", "--top", "2",
    "--format", "md",
]


def test_a_module_run_writes_what_main_writes(tmp_path):
    fixture = ["--corpus", str(BUNDLED_CORPUS), "--area", "ciencias"]
    table, factor = tmp_path / "table.md", tmp_path / "factor.json"
    for argv in ([*_GOLDEN_MD_ARGV, "--out", str(table)], ["factor", *fixture, "--out", str(factor)]):
        run = _spawn(argv)
        assert (run.returncode, run.stdout, run.stderr) == (0, b"", b""), argv
    assert table.read_bytes() == GOLDEN_MD.read_bytes()
    in_process = tmp_path / "in_process.json"
    assert main(["factor", *fixture, "--out", str(in_process)]) == 0
    assert factor.read_bytes() == in_process.read_bytes()


def test_a_module_run_exits_with_the_code_of_each_outcome(tmp_path):
    not_json = tmp_path / "corpus.json"
    not_json.write_text("{", encoding="utf-8")
    run = _spawn(["classify", "--corpus", str(not_json), "--out", str(tmp_path / "t.csv")])
    assert run.returncode == 1
    assert run.stderr.startswith(b"citemetric classify: ") and run.stderr.count(b"\n") == 1
    run = _spawn(["classify", "--out"])
    assert run.returncode == 2 and run.stderr.startswith(b"usage: citemetric")
    run = _spawn(["--help"])
    assert run.returncode == 0 and run.stdout.startswith(b"usage: citemetric")


def test_a_module_run_succeeds_with_its_stdout_closed(tmp_path):
    out = tmp_path / "table.md"
    run = _spawn([*_GOLDEN_MD_ARGV, "--out", str(out)], before=["sh", "-c", 'exec "$@" >&-', "sh"])
    assert (run.returncode, run.stderr) == (0, b"")
    assert out.read_bytes() == GOLDEN_MD.read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_stdout_that_cannot_be_flushed_exits_120():
    code = "import citemetric.cli as cli; cli.main = lambda: print('x') or 0; cli.run_and_exit()"
    # buffered, so print succeeds and the flush is the first write to fail
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    with open("/dev/full", "wb") as full:
        run = subprocess.run(
            [sys.executable, "-c", code], env=dict(env, PYTHONPATH=str(REPO / "src")), stdout=full
        )
    assert run.returncode == 120


def test_parse_window():
    assert _window("2003:2007") == (2003, 2007)
    # int() alone would read each of the last four
    bad = ("2003-2007", "2003:2005:2007", "2_003:2007", "2003:２００７", " 2003:2007", "٢٠٠٣:2007")
    for text in bad:
        with pytest.raises(argparse.ArgumentTypeError, match="must look like 2003:2007"):
            _window(text)
    with pytest.raises(argparse.ArgumentTypeError, match="start exceeds end, got '2007:2003'"):
        _window("2007:2003")


#: command -> {flag: add_argument keywords}, the table both parsers read
_ARGUMENTS = {name: dict(arguments) for name, (_help, _run, arguments) in _COMMANDS.items()}


def test_the_command_table_restates_the_library_defaults_and_choices():
    """Each command loads only the modules it runs, so ``_COMMANDS`` repeats
    the defaults and choices of analysis, indicators and classify rather than
    reading them; this fails as soon as either side drifts."""

    def default(function, parameter):
        return inspect.signature(function).parameters[parameter].default

    compare, regress = _ARGUMENTS["compare"], _ARGUMENTS["regress"]
    assert compare["--alpha"]["default"] == default(analysis.compare_groups, "alpha")
    assert _ARGUMENTS["correlate"]["--alpha"]["default"] == default(
        analysis.correlation_matrix, "alpha"
    )
    assert compare["--method"]["default"] == default(analysis.compare_groups, "method")
    assert regress["--response"]["default"] == default(analysis.citation_regression, "response")
    for command in ("indicators", "classify"):
        area_mean = _ARGUMENTS[command]["--area-mean"]
        assert area_mean["default"] == default(indicators.corpus_indicator_sets, "mean_mode")
        assert tuple(area_mean["choices"]) == indicators.MEAN_MODES
    assert list(compare["--by"]["choices"]) == [d.value for d in analysis.GroupDimension]
    # every choice the table offers is one the library takes
    journals, cites = ingest.journal_cites_from_json(BUNDLED_CORPUS.read_text(encoding="utf-8"))
    pairs = indicators.corpus_indicator_sets(journals, cites)
    for method in compare["--method"]["choices"]:
        analysis.compare_groups(pairs, analysis.GroupDimension.BY_CATEGORY, method=method)
    for response in regress["--response"]["choices"]:
        analysis.citation_regression(pairs, response=response)
    rows = classify.assign_quartiles(classify.rank_journals(pairs), classify.FIXED_BOUNDS)
    for fmt in _ARGUMENTS["classify"]["--format"]["choices"]:
        classify.emit_report(rows, fmt)


_ALL_FLAGS = sorted({flag for arguments in _ARGUMENTS.values() for flag in arguments})
_ANY_VALUE = st.one_of(
    st.sampled_from(sorted({
        choice
        for arguments in _ARGUMENTS.values()
        for keywords in arguments.values()
        for choice in keywords.get("choices", ())
    })),
    st.sampled_from(["", "-", "--", "-x", "-1", "-0.5", "0", "1", "2", "0.05", "1.5", "2.5",
                     "nan", "inf", "1e-3", "x", "2003:2007", "a=b"]),
    st.text(max_size=6),
    st.text(max_size=5).map("-".__add__),
)
_VALID_TYPED = {
    _alpha: st.floats(0.001, 0.999).map(repr),
    _title_threshold: st.floats(0.001, 1.0).map(repr),
    _top: st.integers(1, 99).map(str),
    _window: st.tuples(st.integers(1900, 2100), st.integers(0, 20)).map(
        lambda start_span: f"{start_span[0]}:{sum(start_span)}"
    ),
}


def _argparse_vars(argv):
    """vars() of what argparse parses argv to, or None where it exits (help, usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_build_parser().parse_args(argv))
        except SystemExit:
            return None


def _valid_value(keywords):
    if "choices" in keywords:
        return st.sampled_from(keywords["choices"])
    if "type" in keywords:
        return _VALID_TYPED[keywords["type"]]
    return st.text(max_size=8).filter(lambda text: not text.startswith("-"))


@st.composite
def _well_formed_argv(draw):
    """A command, then every required flag and some optional ones, each once
    with a value it accepts, in any order."""
    command = draw(st.sampled_from(sorted(_ARGUMENTS)))
    pairs = [
        (flag, draw(_valid_value(keywords)))
        for flag, keywords in _ARGUMENTS[command].items()
        if keywords.get("required") or draw(st.booleans())
    ]
    return [command, *(word for pair in draw(st.permutations(pairs)) for word in pair)]


_DAMAGE = ("value", "drop", "repeat", "join", "abbreviate", "insert", "command")


@st.composite
def _near_miss_argv(draw):
    """A well-formed argv with one to three words damaged: any value (bad,
    empty or dash-led) in any place, a dropped word, a repeated flag,
    --flag=value, a prefix, an unknown, help or stray word, another command."""
    argv = draw(_well_formed_argv())
    for damage in draw(st.lists(st.sampled_from(_DAMAGE), min_size=1, max_size=3)):
        at = draw(st.integers(1, max(1, len(argv) - 1)))
        if damage == "value" and at < len(argv):
            argv[at] = draw(_ANY_VALUE)
        elif damage == "drop" and at < len(argv):
            del argv[at]
        elif damage == "repeat":
            flag = draw(st.sampled_from(sorted(_ARGUMENTS.get(argv[0], _ALL_FLAGS))))
            argv[at:at] = [flag, draw(_ANY_VALUE)]
        elif damage == "join" and at < len(argv) - 1:
            argv[at : at + 2] = [f"{argv[at]}={argv[at + 1]}"]
        elif damage == "abbreviate" and at < len(argv):
            argv[at] = argv[at][: draw(st.integers(1, 9))]
        elif damage == "insert":
            extra = st.sampled_from([*_ALL_FLAGS, "--bogus", "-h", "--help", "--"])
            argv.insert(at, draw(extra | _ANY_VALUE))
        elif damage == "command":
            argv[0] = draw(st.sampled_from([*_ARGUMENTS, "frob", "classif", "-h", "--help"]))
    return argv


@settings(max_examples=500, deadline=None)
@given(argv=_near_miss_argv())
def test_argv_reader_agrees_with_argparse_wherever_it_reads(argv):
    """``_read_argv`` answers only for argv argparse would parse, and then
    with argparse's namespace; for the rest argparse runs and speaks."""
    namespace = _read_argv(argv)
    if namespace is not None:
        assert vars(namespace) == _argparse_vars(argv)


@settings(max_examples=200, deadline=None)
@given(argv=_well_formed_argv())
def test_argv_reader_reads_every_well_formed_argv(argv):
    namespace = _read_argv(argv)
    assert namespace is not None
    assert vars(namespace) == _argparse_vars(argv)


@pytest.mark.parametrize("value", ["-x", "--", "-", "-1", "-a b"])
def test_a_dash_led_value_is_left_to_argparse(value):
    """argparse refuses some of these ("-x") and takes others ("-1") as the
    value; the reader reads none of them, so argparse decides each."""
    argv = ["factor", "--corpus", "c.json", "--area", "ciencias", "--out", value]
    assert _read_argv(argv) is None


def test_every_benchmark_command_skips_argparse():
    workloads = bench_module("workloads")
    commands = [
        *workloads.analysis_commands("in/corpus.json", "out"),
        workloads.ingest_command("in", "out", alias=False),
        workloads.ingest_command("in", "out", alias=True),
    ]
    for label, argv in commands:
        namespace = _read_argv(argv)
        assert namespace is not None, label
        assert vars(namespace) == _argparse_vars(argv), label


def test_inputs_are_never_mutated(tmp_path):
    registry, records = write_fixture_tree(tmp_path)
    before = registry.read_bytes()
    record_file = sorted(records.glob("*.csv"))[0]
    record_before = record_file.read_bytes()
    _ingest(tmp_path)
    assert registry.read_bytes() == before
    assert record_file.read_bytes() == record_before


def _two_area_commands(corpus, out):
    """(output name, argv) for every analysis run the digest table covers."""
    correlate_vars = bench_module("workloads").CORRELATE_VARS
    for area in ("ciencias", "sociales"):
        common = ["--corpus", corpus, "--area", area]
        for mean in ("ratios", "pooled"):
            name = f"{area}_indicators_{mean}.csv"
            yield name, ["indicators", *common, "--area-mean", mean, "--out", f"{out}/{name}"]
        name = f"{area}_compare_category.json"
        yield name, ["compare", *common, "--by", "category", "--method", "anova",
                     "--out", f"{out}/{name}"]
        name = f"{area}_compare_library.json"
        yield name, ["compare", *common, "--by", "library", "--method", "kw",
                     "--out", f"{out}/{name}"]
        name = f"{area}_correlate.json"
        yield name, ["correlate", *common, "--vars", correlate_vars, "--out", f"{out}/{name}"]
        for mode in ("empirical", "fixed"):
            name = f"{area}_classify_{mode}.csv"
            yield name, ["classify", *common, "--quartile-mode", mode, "--out", f"{out}/{name}"]
    for mode in ("empirical", "fixed"):
        name = f"all_classify_{mode}.csv"
        yield name, ["classify", "--corpus", corpus, "--quartile-mode", mode,
                     "--out", f"{out}/{name}"]


def test_benchmark_tracer_still_finds_the_area_pass(tmp_path):
    """``bench/run.py --trace 1`` wraps library functions by module attribute
    (``bench/spans.py``); renaming one away breaks it at install, so install
    them and check the indicator pass's call count, which it reports for every
    analysis command."""
    tracer = bench_module("spans").Tracer("tier1")
    tracer.begin_pass()
    common = ["--corpus", str(BUNDLED_CORPUS), "--area", "ciencias"]
    try:
        tracer.install()
        assert main(["classify", *common, "--out", str(tmp_path / "table.csv")]) == 0
        assert main(["compare", *common, "--by", "category", "--out", str(tmp_path / "c.json")]) == 0
    finally:
        tracer.uninstall()
    calls = {name: count for name, (_, count) in tracer.self_times(0).items()}
    assert calls["indicators.corpus_indicator_sets"] == 2
    assert calls["analysis.compare_groups"] == 1


#: sha256 of each output of ``_two_area_commands`` on the seed-3 two-area
#: corpus below, recorded before analyses took indicator pairs instead of a
#: corpus; the four ``indicators`` entries were recorded again when the CSV
#: lost its always-empty ``h_sc`` column. ``factor`` and ``regress`` are left
#: out: their trailing digits depend on the numpy/BLAS build.
TWO_AREA_DIGESTS = {
    "ciencias_indicators_ratios.csv": "c1e1b14c3023f297a5b3429d60ab984e965b283a14dd8d456ac7f5c2fc2bfb84",
    "ciencias_indicators_pooled.csv": "4d5edc4f680a7184d571eb05c62ed01aed33cc65cae62f396640e39c37309486",
    "ciencias_compare_category.json": "8a5b0275774c93292b7a98e737ce94ff63d141507ad6891042d6c72bee7dc4d0",
    "ciencias_compare_library.json": "eaeaea34cfcb05dbbbdcf1c90b368211abd3ae3c9c06bcba28624a7015ae6aad",
    "ciencias_correlate.json": "d9cb08006c5eb7387d38007d28f4bfe8264a0f2dbe7eb189d6ad1152c579afe4",
    "ciencias_classify_empirical.csv": "be795e93cc78e35d2f36156970d9fc31c252078c906f61eef8c77df6a3d876c6",
    "ciencias_classify_fixed.csv": "2d637f98c3850f8d0dfeb4eebe2d7162c60d58050907a6e938f156400b1f3ea2",
    "sociales_indicators_ratios.csv": "1611ec53254a6ebcdc0b086b09b8cc84722a28adcb16cdda3ad917a1dbaf60d0",
    "sociales_indicators_pooled.csv": "d3a2e68ef771bced547351d9675692e8782fff2de5a984d3ab5a776e47b15861",
    "sociales_compare_category.json": "9f42df4c4464309cbb994af00b8a6ee3f006967872e3836b5b55eaadeaf1dcb4",
    "sociales_compare_library.json": "3a2cf08cfe903a626982f7691cd4d2d176f1f35babe6e75f7e40ea43fb466d27",
    "sociales_correlate.json": "16e5d2d6bf9e61621ff4cf65935b4ef568a287493fa6df372390bf6465fbd7f4",
    "sociales_classify_empirical.csv": "efdc408e9ebbf8c2de706b87600a916c5385a3d0def4aa30dca9b8ed4d0cffae",
    "sociales_classify_fixed.csv": "2f8d2b4d3a4e7b0e5f45e18e378eb67a89007d4cf00f62118921dd64c9766192",
    "all_classify_empirical.csv": "b193545b40691b555b42ad87189a490a5f0ed4b7634197fb0126157a8adc5ce5",
    "all_classify_fixed.csv": "5458f06d591423c3bb57aa84637e91587db0fee788dca4ae3c13018e5b1107c2",
}


def test_two_area_outputs_keep_their_bytes(tmp_path):
    bench_module("workloads").write_corpus_input(3, tmp_path, journals=60, articles=(5, 20))
    digests = {}
    for name, argv in _two_area_commands(str(tmp_path / "corpus.json"), str(tmp_path)):
        assert main(argv) == 0, argv
        digests[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digests == TWO_AREA_DIGESTS


#: sha256 of the corpus ``ingest`` writes from the seed-3 inputs of the
#: benchmark's two ingesting workloads, recorded before the similar-title pass
#: filtered pairs by pieces instead of character bags. Their journals hold
#: 36-44 titles of 50-110 characters, or 3-25 titles with planted aliases,
#: well past the short titles the all-pairs property test draws.
INGEST_DIGESTS = {
    "ingest_dense": "1aba781fc56847006edd8026dcd09be7106a853233b5a4937c5459b718442d46",
    "paper_scale": "85a09b70ec7463fa50a303bbbc467bd2f59f7f4780976a47795cb94816cb48fe",
}


@pytest.mark.parametrize(
    "profile, inputs, alias",
    [
        ("ingest_dense", dict(journals=3, rows=(36, 44), lengths=(50, 110), aliases=0), False),
        ("paper_scale", dict(journals=80, rows=(3, 25), lengths=(20, 60), aliases=6), True),
    ],
)
def test_ingest_keeps_its_bytes_on_the_benchmark_inputs(tmp_path, profile, inputs, alias):
    workloads = bench_module("workloads")
    workloads.write_registry_inputs(3, tmp_path, **inputs)
    _, argv = workloads.ingest_command(str(tmp_path), str(tmp_path), alias=alias)
    assert main(argv) == 0
    corpus = (tmp_path / "corpus.json").read_bytes()
    assert hashlib.sha256(corpus).hexdigest() == INGEST_DIGESTS[profile]


def test_analysis_command_holds_one_copy_of_the_corpus(tmp_path, monkeypatch):
    """The file's bytes are freed before the parse, and the parsed articles
    never all exist beside their records; holding both took the peak to
    ~4.6x the file's size. The measured call gets an empty cache, so it
    parses the file. The whole call's peak is the decode, bytes and text
    together; the reader's own peak holds the text and its parse, ~1.1x the
    file, and would be ~2.1x with the bytes still held."""
    bench_module("workloads").write_corpus_input(3, tmp_path, journals=60, articles=(20, 60))
    corpus = tmp_path / "corpus.json"
    argv = ["classify", "--corpus", str(corpus), "--out", str(tmp_path / "table.csv")]
    assert main(argv) == 0  # first-call costs (caches, lazy imports) are not the load's
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty_cache"))
    read, peaks = ingest.journal_cites_from_json, []

    def reader(text):
        # the peak so far is the decode's; a reset shows the reader's own
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        try:
            return read(text)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])

    monkeypatch.setattr(ingest, "journal_cites_from_json", reader)
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        assert main(argv) == 0
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    decode, reading, rest = peaks
    size = corpus.stat().st_size
    assert reading - baseline < 1.6 * size
    assert max(decode, rest) - baseline < 3.5 * size


def _no_parse():
    """Fail any corpus parse: a command run under it must be a cache hit."""
    return mock.patch.object(
        ingest, "journal_cites_from_json", side_effect=AssertionError("parsed on a hit")
    )


def test_a_cache_hit_holds_the_file_and_little_else(tmp_path):
    """A hit reads the file's bytes to key them and a small entry, and parses neither."""
    bench_module("workloads").write_corpus_input(3, tmp_path, journals=60, articles=(20, 60))
    corpus = tmp_path / "corpus.json"
    argv = ["classify", "--corpus", str(corpus), "--out", str(tmp_path / "table.csv")]
    assert main(argv) == 0  # a miss, which writes the entry
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        with _no_parse():
            assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - baseline < 1.5 * corpus.stat().st_size


def _outcome(argv, capsys):
    """Exit code, stderr and output bytes (None for none) of one command."""
    out = pathlib.Path(argv[-1])
    out.unlink(missing_ok=True)
    code = main(argv)
    return code, capsys.readouterr().err, out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("source", ["bundled", "generated"])
def test_a_cache_hit_writes_the_bytes_of_a_miss(tmp_path, monkeypatch, capsys, source):
    """On the bundled fixture ``correlate`` exits 1 (its air_ibnp_log10 is
    constant), on a hit as on a miss."""
    corpus = BUNDLED_CORPUS
    if source == "generated":
        bench_module("workloads").write_corpus_input(3, tmp_path, journals=60, articles=(20, 60))
        corpus = tmp_path / "corpus.json"
    codes = []
    for label, argv in bench_module("workloads").analysis_commands(str(corpus), str(tmp_path)):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache" / label))
        missed = _outcome(argv, capsys)
        with _no_parse():
            assert _outcome(argv, capsys) == missed, label
        codes.append(missed[0])
    assert codes == ([0, 0, 0, 1, 0, 0, 0] if source == "bundled" else [0] * 7)
    assert stat.S_IMODE((_cache_dir() / "citemetric").stat().st_mode) == 0o700
    assert re.fullmatch(rb"[0-9a-f]{64}", _entry().read_bytes().split(b"\n")[0])
    with _no_parse():
        hit = _journal_cites(corpus)
    assert hit == ingest.journal_cites_from_json(corpus.read_text(encoding="utf-8"))


@pytest.mark.parametrize("source", ["bundled", "generated"])
def test_a_cache_entry_holds_the_corpus_journal_sections(tmp_path, source):
    """The entry keeps the corpus document's own journals and ibnp_totals
    sections, as ``corpus_to_json`` writes them, beside the visible cites,
    and then a copy of the corpus file's bytes."""
    corpus = BUNDLED_CORPUS
    if source == "generated":
        bench_module("workloads").write_corpus_input(3, tmp_path, journals=60, articles=(20, 60))
        corpus = tmp_path / "corpus.json"
    _, cites = _journal_cites(corpus)
    _, payload, copy = _entry().read_bytes().split(b"\n", 2)
    doc = json.loads(corpus.read_text(encoding="utf-8"))
    assert json.loads(payload) == {
        "journals": doc["journals"], "ibnp_totals": doc["ibnp_totals"], "cites": cites
    }
    assert copy == corpus.read_bytes()


def test_a_title_with_a_lone_surrogate_is_cached_as_read(tmp_path):
    """A JSON escape can put a lone surrogate in a title, which UTF-8 cannot
    encode; the entry is ASCII, so it holds the title all the same."""
    doc = json.loads(BUNDLED_CORPUS.read_text(encoding="utf-8"))
    doc["journals"][0]["title"] = "REVISTA \ud800"
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(doc), encoding="utf-8")
    missed = _journal_cites(corpus)
    assert missed[0][0].title == "REVISTA \ud800" and _entry().is_file()
    with _no_parse():
        assert _journal_cites(corpus) == missed


def _in_payload(edit):
    """A damage to a cache entry's payload line: ``edit`` rewrites it."""
    return lambda payload, copy: (edit(payload), copy)


def _in_copy(edit):
    """A damage to a cache entry's copy of the corpus: ``edit`` rewrites it."""
    return lambda payload, copy: (payload, edit(copy))


def _entry_of(transform):
    """A damage to a cache entry's payload: ``transform`` edits its first
    journal and its cites."""

    def damage(payload: bytes) -> bytes:
        doc = json.loads(payload)
        transform(doc["journals"][0], doc["cites"])
        return json.dumps(doc).encode("ascii")

    return _in_payload(damage)


def _set_cite(value):
    return _entry_of(lambda journal, cites: next(iter(cites.values())).__setitem__(0, value))


def _flip_middle_byte(data: bytes) -> bytes:
    middle = len(data) // 2
    return data[:middle] + bytes([data[middle] ^ 1]) + data[middle + 1 :]


@pytest.mark.parametrize(
    "damage",
    [
        _in_payload(lambda payload: b"{"),
        _in_payload(lambda payload: b"[]"),
        _entry_of(lambda journal, cites: journal.__setitem__("area", "Artes")),
        _set_cite(True),
        _set_cite("5"),
        _set_cite(-1),
        _entry_of(lambda journal, cites: journal.__setitem__("memberships", "WoK")),
        _in_payload(lambda payload: b"[" * 100_000),
        _in_payload(lambda payload: payload + b" "),
        _in_copy(_flip_middle_byte),
        _in_copy(lambda copy: copy[:-1]),
        _in_copy(lambda copy: copy + b" "),
    ],
    ids=["truncated", "empty_list", "unknown_area", "true_cite", "string_cite", "negative_cite",
         "memberships_as_string", "nested", "trailing_space",
         "copy_byte_flipped", "copy_last_byte_dropped", "copy_byte_appended"],
)
@pytest.mark.parametrize("tag", ["kept", "dropped"])
def test_a_damaged_cache_entry_is_a_miss_and_is_rewritten(tmp_path, capsys, damage, tag):
    """The entry's tag covers its payload, so a payload this code did not
    write is a miss under the tag of the one it did; a copy that is not the
    corpus byte for byte, up to the end of the file, is a miss too."""
    argv = ["classify", "--corpus", str(BUNDLED_CORPUS), "--out", str(tmp_path / "table.csv")]
    assert main(argv) == 0
    expected = (tmp_path / "table.csv").read_bytes()
    entry = _entry()
    written = entry.read_bytes()
    digest, payload, copy = written.split(b"\n", 2)
    payload, copy = damage(payload, copy)
    entry.write_bytes((digest + b"\n" if tag == "kept" else b"") + payload + b"\n" + copy)
    assert main(argv) == 0
    assert (tmp_path / "table.csv").read_bytes() == expected
    assert capsys.readouterr().err == ""
    assert entry.read_bytes() == written


@pytest.mark.parametrize("end", [-1, 0, 1])
def test_a_corpus_ending_at_a_chunk_boundary_is_compared_to_its_last_byte(tmp_path, end):
    """The copy is compared in chunks of ``_CHUNK`` bytes. Padded with
    trailing whitespace to end one byte before, at or after a chunk boundary,
    the corpus is a miss, then a hit. A byte appended to the entry is a miss
    that restores it, and so is a change to the corpus's last byte alone."""
    text = BUNDLED_CORPUS.read_bytes()
    padded = text.ljust(((len(text) + 1) // _CHUNK + 1) * _CHUNK + end)
    corpus = tmp_path / "corpus.json"
    argv = ["classify", "--corpus", str(corpus), "--out", str(tmp_path / "table.csv")]

    def parses(content: bytes) -> int:
        corpus.write_bytes(content)
        with mock.patch.object(
            ingest, "journal_cites_from_json", wraps=ingest.journal_cites_from_json
        ) as parse:
            assert main(argv) == 0
        return parse.call_count

    assert len(padded) % _CHUNK == end % _CHUNK
    assert parses(padded) == 1
    with _no_parse():
        assert main(argv) == 0
    written = _entry().read_bytes()
    _entry().write_bytes(written + b" ")
    assert parses(padded) == 1
    assert _entry().read_bytes() == written
    assert parses(padded[:-1] + b"\n") == 1


def _relative_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", "cache")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    return tmp_path / "home" / ".cache"


def _relative_cache_and_home(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", "cache")
    monkeypatch.setenv("HOME", "home")
    return None


def _cache_under_a_file(tmp_path, monkeypatch):
    (tmp_path / "file").write_bytes(b"")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file" / "cache"))
    return None


@pytest.mark.parametrize(
    "place", [_relative_cache, _relative_cache_and_home, _cache_under_a_file]
)
def test_a_cache_that_cannot_be_used_changes_nothing(tmp_path, monkeypatch, capsys, place):
    """A relative XDG_CACHE_HOME is ignored, as the XDG spec says, for
    ``$HOME/.cache``; with no absolute home there is no cache. A cache
    directory that cannot be made is no error."""
    cache = place(tmp_path, monkeypatch)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    out = tmp_path / "table.md"
    for _ in range(2):
        assert main([*_GOLDEN_MD_ARGV, "--out", str(out)]) == 0
        assert out.read_bytes() == GOLDEN_MD.read_bytes()
        assert capsys.readouterr().err == ""
    assert not any(cwd.iterdir())
    if cache is not None:
        assert (cache / "citemetric" / "journal_cites").is_file()


def test_one_changed_byte_of_the_corpus_is_a_miss(tmp_path):
    """The cache holds the last corpus parsed, so going back to the first
    bytes is a miss again."""
    text = BUNDLED_CORPUS.read_bytes()
    corpus = tmp_path / "corpus.json"
    argv = ["classify", "--corpus", str(corpus), "--out", str(tmp_path / "table.csv")]
    parses = []
    # the third ends in a space, not a line break
    for content in (text, text, text[:-1] + b" ", text, text):
        corpus.write_bytes(content)
        with mock.patch.object(
            ingest, "journal_cites_from_json", wraps=ingest.journal_cites_from_json
        ) as parse:
            assert main(argv) == 0
        parses.append(parse.call_count)
    assert parses == [1, 0, 1, 1, 0]


def test_an_edit_to_the_reader_is_a_miss(tmp_path, monkeypatch):
    """The key covers the reader's source, so an entry written before an edit
    is not read after it, whatever the package version says."""
    _journal_cites(BUNDLED_CORPUS)
    edited = tmp_path / "ingest.py"
    edited.write_bytes(pathlib.Path(ingest.__file__).read_bytes() + b"# edited\n")
    monkeypatch.setattr(ingest, "__file__", str(edited))
    with mock.patch.object(
        ingest, "journal_cites_from_json", wraps=ingest.journal_cites_from_json
    ) as parse:
        _journal_cites(BUNDLED_CORPUS)
    assert parse.call_count == 1
