import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from citemetric import analysis
from citemetric.cli import _parse_window, main
from citemetric.errors import DomainError
from fixture_corpus import bench_module, write_fixture_tree

REPO = pathlib.Path(__file__).parent.parent
BUNDLED_CORPUS = REPO / "fixtures" / "ciencias_table7.json"
GOLDEN_MD = pathlib.Path(__file__).parent / "data" / "table7_top2.md"


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


def test_unknown_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_missing_required_flag_exits_with_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["classify"])
    assert info.value.code == 2


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


def test_bad_window_is_a_data_error(tmp_path, capsys):
    registry, records = write_fixture_tree(tmp_path)
    code = main(
        [
            "ingest",
            "--registry",
            str(registry),
            "--records-dir",
            str(records),
            "--window",
            "2007:2003",
            "--out",
            str(tmp_path / "c.json"),
        ]
    )
    assert code == 1
    assert "window" in capsys.readouterr().err


def test_alpha_and_top_out_of_range_exit_with_usage_error(tmp_path, capsys):
    corpus = ["--corpus", str(BUNDLED_CORPUS), "--area", "ciencias"]
    correlate = ["correlate", *corpus, "--vars", "h,pi_ld"]
    cases = [(correlate, "--alpha", v) for v in ("1.5", "0", "1", "-0.1", "nan", "inf", "x")]
    cases += [(["compare", *corpus, "--by", "category"], "--alpha", "1.5")]
    cases += [(["classify", *corpus], "--top", v) for v in ("-1", "0", "2.5", "x")]
    out = tmp_path / "out"
    for command, flag, value in cases:
        with pytest.raises(SystemExit) as info:
            main(command + [f"{flag}={value}", "--out", str(out)])
        assert info.value.code == 2, (command[0], flag, value)
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


@pytest.mark.parametrize("threshold", ["1.5", "0", "-0.1", "nan", "inf", "high"])
def test_bad_title_threshold_exits_with_usage_error(tmp_path, threshold, capsys):
    out = tmp_path / "corpus.json"
    with pytest.raises(SystemExit) as info:
        main(
            [
                "ingest",
                "--registry",
                str(tmp_path / "registry.csv"),
                "--records-dir",
                str(tmp_path),
                f"--title-threshold={threshold}",
                "--out",
                str(out),
            ]
        )
    assert info.value.code == 2
    assert "--title-threshold" in capsys.readouterr().err
    assert not out.exists()


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


def _unknown_area(doc):
    doc["journals"][0]["area"] = "Artes"


def _unknown_library(doc):
    doc["journals"][0]["memberships"] = ["Dialnet"]


def _without_ibnp_total(doc):
    del doc["ibnp_totals"]["sci001"]


def _string_ibnp_total(doc):
    doc["ibnp_totals"]["sci001"] = "12"


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


def _negative_ibnp_total(doc):
    doc["ibnp_totals"]["sci001"] = -5


def _object_authors(doc):
    doc["articles"][3]["authors"] = {}


def _article_among_journals(doc):
    doc["journals"][0] = dict(doc["articles"][0])


def _bare_article_document(doc):
    article = doc["articles"][0]
    doc.clear()
    doc.update(article)


@pytest.mark.parametrize(
    "damage, says",
    [
        (_without_journals, "missing key 'journals'"),
        (_without_cites, "missing key 'cites'"),
        (_articles_not_a_list, "'int' object is not iterable"),
        (_unknown_status, "'Bogus' is not a valid ArticleStatus"),
        (_unknown_area, "'Artes' is not a valid Area"),
        (_unknown_library, "'Dialnet' is not a valid Library"),
        (_without_ibnp_total, "ibnp_totals: no entry for journal 'sci001'"),
        (_string_ibnp_total, "ibnp_totals: journal 'sci001': total is str, not int"),
        (_string_cites, "articles: article 3: cites is str, not int"),
        (_boolean_cites, "articles: article 3: cites is bool, not int"),
        (_list_journal_id, "articles: article 3: journal_id is list, not str"),
        (_number_journal_id, "journals: journal 0: journal_id is int, not str"),
        (_string_year, "articles: article 3: year is str, not int or null"),
        (_string_window, "window: expected two int years, got ['2003', '2007']"),
        (_three_year_window, "window: expected two int years, got [2003, 2005, 2007]"),
        (_reversed_window, "window: start 2007 is after end 2003"),
        (_null_kept_title, "articles: article 0: title is NoneType, not str"),
        (_number_journal_title, "journals: journal 0: title is int, not str"),
        (_number_url, "articles: article 3: url is int, not str"),
        (_negative_cites, "is invalid: article row 3 (journal 'sci001'): negative cites"),
        (_article_of_no_journal, "article row 3 (journal 'sci999'): unknown journal_id 'sci999'"),
        (_kept_row_dated_1900, "article row 3 (journal 'sci001'): kept record with year outside"),
        (_negative_ibnp_total, "is invalid: journal 'sci001' has negative ibnp total"),
        (_object_authors, "articles: article 3: authors is dict, not str"),
        # the loader builds article records while it parses, so an article
        # where a journal or the document belongs is refused as one
        (_article_among_journals, "journals: "),
        (_bare_article_document, "journals: "),
    ],
)
def test_malformed_corpus_json_is_a_one_line_data_error(tmp_path, capsys, damage, says):
    doc = json.loads(BUNDLED_CORPUS.read_text(encoding="utf-8"))
    damage(doc)
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "table.csv"
    assert main(["classify", "--corpus", str(corpus), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("citemetric classify: corpus JSON ")
    assert says in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


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


def test_parse_window():
    assert _parse_window("2003:2007") == (2003, 2007)
    with pytest.raises(DomainError):
        _parse_window("2003-2007")


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
    (``bench/spans.py``); renaming one away breaks it, so check the two whose
    call counts it reports for every analysis command."""
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
    assert calls["corpus.filter_by_area"] == 2
    assert calls["indicators.corpus_indicator_sets"] == 2
    assert calls["analysis.compare_groups"] == 1


#: sha256 of each output of ``_two_area_commands`` on the seed-3 two-area
#: corpus below, recorded before analyses took indicator pairs instead of a
#: corpus. ``factor`` and ``regress`` are left out: their trailing digits
#: depend on the numpy/BLAS build.
TWO_AREA_DIGESTS = {
    "ciencias_indicators_ratios.csv": "fbdf580f9dd910f0984338e8e3b944469aed4ab350df4bd3ed8728ff85c591c8",
    "ciencias_indicators_pooled.csv": "42f0313d1b435b4b048b4281cd1c988f4298b62ca5f0d910f761c91595a3a7f8",
    "ciencias_compare_category.json": "8a5b0275774c93292b7a98e737ce94ff63d141507ad6891042d6c72bee7dc4d0",
    "ciencias_compare_library.json": "eaeaea34cfcb05dbbbdcf1c90b368211abd3ae3c9c06bcba28624a7015ae6aad",
    "ciencias_correlate.json": "d9cb08006c5eb7387d38007d28f4bfe8264a0f2dbe7eb189d6ad1152c579afe4",
    "ciencias_classify_empirical.csv": "be795e93cc78e35d2f36156970d9fc31c252078c906f61eef8c77df6a3d876c6",
    "ciencias_classify_fixed.csv": "2d637f98c3850f8d0dfeb4eebe2d7162c60d58050907a6e938f156400b1f3ea2",
    "sociales_indicators_ratios.csv": "a865d928e0ebade6133f5cc813dbd1759de94622ac624dca28ef80eee427063b",
    "sociales_indicators_pooled.csv": "f0aab1edb0f4275fe13ae64ec103dc5c27e0207913a4af56ee59193ac283786c",
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


def test_analysis_command_holds_one_copy_of_the_corpus(tmp_path):
    """The file's bytes are freed before the parse, and the parsed articles
    never all exist beside their records; holding both took the peak to
    ~4.6x the file's size."""
    bench_module("workloads").write_corpus_input(3, tmp_path, journals=60, articles=(20, 60))
    corpus = tmp_path / "corpus.json"
    argv = ["classify", "--corpus", str(corpus), "--out", str(tmp_path / "table.csv")]
    assert main(argv) == 0  # first-call costs (caches, lazy imports) are not the load's
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - baseline < 3.5 * corpus.stat().st_size
