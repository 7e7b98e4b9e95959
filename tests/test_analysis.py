import math
import random

import numpy as np
import pytest

from citemetric import statkit
from citemetric.analysis import (
    DEFAULT_COMPARE_VARIABLES,
    FACTOR_VARIABLES,
    ComparisonTable,
    CorrelationMatrix,
    GroupDimension,
    Letters,
    citation_factor_analysis,
    citation_regression,
    compare_groups,
    comparison_to_json,
    contributing_variables,
    correlation_matrix,
    correlation_to_json,
    factor_to_json,
    regression_to_json,
)
from citemetric.corpus import (
    Area,
    ArticleRecord,
    IbnpCategory,
    JournalCorpus,
    JournalRecord,
    Library,
    filter_by_area,
    visible_cites,
)
from citemetric.errors import DomainError
from citemetric.indicators import VARIABLES, GroupSummary, corpus_indicator_sets, summarize_group
from citemetric.ingest import corpus_from_json
from citemetric.statkit import (
    FactorResult,
    RegressionResult,
    mid_ranks,
    ols_fit,
    pca_unrotated,
)
from fixture_corpus import bench_module, build_fixture_corpus
from oracles import spearman_r_reference


def make_pairs(specs):
    """Indicator pairs of a valid Ciencias corpus built from
    (journal_id, category, memberships, air, cites)."""
    journals, articles = [], []
    for journal_id, category, memberships, air, cites in specs:
        journals.append(
            JournalRecord(
                journal_id=journal_id,
                title=f"REVISTA {journal_id.upper()}",
                area=Area.CIENCIAS,
                category=category,
                air_ibnp=air,
                memberships=frozenset(memberships),
            )
        )
        for i, c in enumerate(cites):
            articles.append(
                ArticleRecord(
                    journal_id=journal_id, title=f"{journal_id} articulo {i}", year=2005, cites=c
                )
            )
    corpus = JournalCorpus(journals=tuple(journals), articles=tuple(articles))
    return corpus_indicator_sets(corpus.journals, visible_cites(corpus))


# --- group comparison --------------------------------------------------------


def test_compare_excludes_single_journal_library():
    corpus = build_fixture_corpus()
    table = compare_groups(
        corpus_indicator_sets(corpus.journals, visible_cites(corpus)),
        GroupDimension.BY_LIBRARY,
        method="anova",
    )
    assert ("WoK", "n=1") in table.excluded
    included = {row.label for row in table.rows}
    assert "WoK" not in included
    assert {"Scopus", "Redalyc", "Scielo", "GoogleScholar"} <= included


def test_compare_single_category_corpus_has_no_groups():
    specs = [
        (f"j{i}", IbnpCategory.B, {Library.GOOGLE_SCHOLAR}, 50, [3, 1]) for i in range(6)
    ]
    with pytest.raises(DomainError, match="fewer than two groups with at least two journals"):
        compare_groups(make_pairs(specs), GroupDimension.BY_CATEGORY)


def test_compare_refuses_an_unknown_method():
    corpus = build_fixture_corpus()
    pairs = corpus_indicator_sets(corpus.journals, visible_cites(corpus))
    with pytest.raises(DomainError, match="unknown method 'x'; use 'anova' or 'kw'"):
        compare_groups(pairs, GroupDimension.BY_CATEGORY, method="x")


def test_compare_refuses_a_variable_defined_in_one_group():
    # no registry production leaves ca_mean undefined for every C journal
    specs = [
        (f"{category.value.lower()}{i}", category, {Library.GOOGLE_SCHOLAR}, air, [i + 1])
        for category, air in ((IbnpCategory.B, 100), (IbnpCategory.C, 0))
        for i in range(3)
    ]
    pairs = make_pairs(specs)
    with pytest.raises(DomainError, match="'ca_mean' is defined in fewer than two groups"):
        compare_groups(pairs, GroupDimension.BY_CATEGORY, variables=["ca_mean"])


def _category_separation_pairs():
    # log10 citation levels around 5.0, 4.99, 3.0, 2.99 with a +-0.045 spread
    specs = []
    levels = {
        IbnpCategory.A1: 5.00,
        IbnpCategory.A2: 4.99,
        IbnpCategory.B: 3.00,
        IbnpCategory.C: 2.99,
    }
    for category, level in levels.items():
        for i in range(10):
            target = level + (-4.5 + i) / 100
            cites = round(10**target) - 1
            specs.append(
                (f"{category.value.lower()}{i}", category, {Library.GOOGLE_SCHOLAR}, 100, [cites])
            )
    return make_pairs(specs)


def test_compare_category_letters_split_high_and_low():
    table = compare_groups(
        _category_separation_pairs(),
        GroupDimension.BY_CATEGORY,
        variables=["cr_ga_log10"],
        method="anova",
    )
    labels, letters = table.letters["cr_ga_log10"]
    assert labels == ("A1", "A2", "B", "C")
    assert letters == ("a", "a", "b", "b")
    assert table.tests["cr_ga_log10"].p_value < 0.05


def test_compare_rank_based_method_reports_h_statistic():
    table = compare_groups(
        _category_separation_pairs(),
        GroupDimension.BY_CATEGORY,
        variables=["cr_ga_log10"],
        method="kw",
    )
    test = table.tests["cr_ga_log10"]
    assert test.method.value == "KruskalWallisH"
    assert test.df1 == 3
    assert test.n == 40


def test_compare_rows_match_standalone_summaries():
    corpus = build_fixture_corpus()
    pairs = corpus_indicator_sets(corpus.journals, visible_cites(corpus))
    table = compare_groups(pairs, GroupDimension.BY_CATEGORY)
    for row in table.rows:
        members = [s for j, s in pairs if j.category.value == row.label]
        standalone = summarize_group(members, row.label)
        assert standalone == row


def test_compare_library_groups_overlap():
    corpus = build_fixture_corpus()
    pairs = corpus_indicator_sets(corpus.journals, visible_cites(corpus))
    table = compare_groups(pairs, GroupDimension.BY_LIBRARY)
    total = sum(row.n_journals for row in table.rows)
    assert total > len(pairs)  # journals count once per library


def test_compare_reads_its_area_off_its_journals():
    pairs = [
        (journal._replace(area=Area.CIENCIAS_SOCIALES), indicators)
        for journal, indicators in _category_separation_pairs()
    ]
    table = compare_groups(pairs, GroupDimension.BY_CATEGORY, variables=["cr_ga_log10"])
    assert table.area is Area.CIENCIAS_SOCIALES
    pairs[0] = (pairs[0][0]._replace(area=Area.CIENCIAS), pairs[0][1])
    with pytest.raises(DomainError) as info:
        compare_groups(pairs, GroupDimension.BY_CATEGORY, variables=["cr_ga_log10"])
    assert str(info.value) == "the journals are of both areas; compare one area at a time"


# --- correlation matrix ------------------------------------------------------


def test_correlation_matrix_is_exactly_symmetric_with_unit_diagonal():
    corpus = build_fixture_corpus()
    matrix = correlation_matrix(
        corpus_indicator_sets(corpus.journals, visible_cites(corpus)),
        ["h", "cr_ga_log10", "ca_mean", "pi_ld"],
    )
    size = len(matrix.variables)
    for i in range(size):
        assert matrix.r[i][i] == 1.0
        assert matrix.significant[i][i] is True
        for j in range(size):
            assert matrix.r[i][j] == matrix.r[j][i]
            assert matrix.significant[i][j] == matrix.significant[j][i]
            assert matrix.n[i][j] == matrix.n[j][i]


def test_correlation_of_monotone_transforms_is_one():
    specs = [
        (f"j{i}", IbnpCategory.B, {Library.GOOGLE_SCHOLAR}, 100, [2**i] * (i + 1))
        for i in range(8)
    ]
    matrix = correlation_matrix(make_pairs(specs), ["air_ga_log10", "cr_ga_log10"])
    assert matrix.r[0][1] == pytest.approx(1.0, abs=1e-12)
    assert matrix.significant[0][1] is True


def test_correlation_matches_reference_on_random_corpus():
    rng = random.Random(10)
    specs = []
    for i in range(10):
        memberships = {Library.GOOGLE_SCHOLAR}
        if rng.random() < 0.5:
            memberships.add(Library.SCIELO)
        if rng.random() < 0.3:
            memberships.add(Library.SCOPUS)
        cites = [rng.randint(0, 9) for _ in range(rng.randint(1, 6))]
        specs.append((f"j{i}", IbnpCategory.B, memberships, rng.randint(10, 90), cites))
    pairs = make_pairs(specs)
    matrix = correlation_matrix(pairs, ["h", "pi_ld", "cr_ga_log10"])
    h = [float(s.h) for _, s in pairs]
    pi = [float(s.pi_ld) for _, s in pairs]
    assert matrix.r[0][1] == pytest.approx(spearman_r_reference(h, pi), abs=1e-12)


def test_correlation_requires_three_defined_pairs():
    # no registry production leaves ca_mean undefined for all but two journals
    specs = [
        (f"j{i}", IbnpCategory.B, {Library.GOOGLE_SCHOLAR}, 100 if i < 2 else 0, [i + 1])
        for i in range(5)
    ]
    with pytest.raises(DomainError, match="h vs ca_mean: only 2 journals"):
        correlation_matrix(make_pairs(specs), ["h", "ca_mean"])


def test_every_variable_is_defined_and_ranks_journals_its_own_way(tmp_path):
    """Within each area of the seed-3 two-area corpus, every named variable is
    defined for at least three journals, and no two rank the journals alike. A
    variable that no input fills, or one that is another divided by a constant
    per area, would give every analysis nothing of its own to report."""
    bench_module("workloads").write_corpus_input(3, tmp_path, journals=60, articles=(5, 20))
    corpus = corpus_from_json((tmp_path / "corpus.json").read_text(encoding="utf-8"))
    for area in Area:
        pairs = corpus_indicator_sets(filter_by_area(corpus.journals, area), visible_cites(corpus))
        first_with_ranks = {}
        for name, extract in VARIABLES.items():
            values = [extract(s) for _, s in pairs]
            defined = [i for i, v in enumerate(values) if v is not None]
            assert len(defined) >= 3, (area, name)
            ranks = tuple(zip(defined, mid_ranks([values[i] for i in defined])))
            assert first_with_ranks.setdefault(ranks, name) == name, (area, name)


# --- factor analysis ----------------------------------------------------------


def _collinear_pairs():
    # h, log10 of cites, and the per-article rate all line up affinely:
    # h in (0,1,2,3), cites 10^h - 1, registry size tuned so the rate is h/10
    specs = [
        ("j0", IbnpCategory.C, {Library.GOOGLE_SCHOLAR}, 50, [0, 0]),
        ("j1", IbnpCategory.B, {Library.GOOGLE_SCHOLAR}, 90, [9]),
        ("j2", IbnpCategory.A2, {Library.GOOGLE_SCHOLAR}, 495, [97, 2, 0, 0]),
        ("j3", IbnpCategory.A1, {Library.GOOGLE_SCHOLAR}, 3330, [993, 3, 3, 0, 0]),
    ]
    return make_pairs(specs)


def test_factor_analysis_on_collinear_indicators():
    result = citation_factor_analysis(_collinear_pairs())
    assert result.retained == 1
    assert result.variance_explained == pytest.approx(1.0, abs=1e-9)
    assert all(c == pytest.approx(1.0, abs=1e-9) for c in result.communalities)


def test_factor_analysis_matches_direct_pca():
    corpus = build_fixture_corpus()
    pairs = corpus_indicator_sets(corpus.journals, visible_cites(corpus))
    result = citation_factor_analysis(pairs)
    rows = [
        [float(s.h), math.log10(s.cr_ga + 1), s.ca_mean]
        for _, s in pairs
        if s.ca_mean is not None
    ]
    direct = pca_unrotated(rows)
    assert result == direct
    assert len(result.loadings) == len(FACTOR_VARIABLES)


def test_factor_analysis_needs_four_journals():
    specs = [
        (f"j{i}", IbnpCategory.B, {Library.GOOGLE_SCHOLAR}, 50, [i + 1, 1]) for i in range(3)
    ]
    with pytest.raises(DomainError, match="only 3 journals with all citation indicators"):
        citation_factor_analysis(make_pairs(specs))


def test_contributing_variables_thresholds():
    strong = FactorResult(
        eigenvalues=(2.8, 0.1, 0.1),
        retained=1,
        loadings=(0.9661, 0.9661, 0.9661),
        communalities=(0.9333, 0.9333, 0.9333),
        variance_explained=0.9333,
    )
    assert contributing_variables(strong) == (True, True, True)
    weak = FactorResult(
        eigenvalues=(1.5, 1.0, 0.5),
        retained=1,
        loadings=(0.95, 0.69, 0.75),
        communalities=(0.9025, 0.4761, 0.5625),
        variance_explained=0.5,
    )
    assert contributing_variables(weak) == (True, False, False)


# --- regression ----------------------------------------------------------------


def test_citation_regression_matches_direct_fit():
    corpus = build_fixture_corpus()
    pairs = corpus_indicator_sets(corpus.journals, visible_cites(corpus))
    for response in ("logcr", "h"):
        result = citation_regression(pairs, response=response)
        rows = [
            (
                math.log10(s.cr_ga + 1) if response == "logcr" else float(s.h),
                math.log10(s.air_ga),
                float(s.pi_ld),
            )
            for _, s in pairs
            if s.air_ga > 0
        ]
        direct = ols_fit([r[0] for r in rows], [[r[1] for r in rows], [r[2] for r in rows]])
        assert result == direct
        assert result.n == len(rows)


def test_citation_regression_constant_response_has_zero_slopes():
    rng = random.Random(4)
    specs = []
    for i in range(8):
        memberships = {Library.GOOGLE_SCHOLAR}
        if i % 2:
            memberships.add(Library.SCIELO)
        if i % 3 == 0:
            memberships.add(Library.REDALYC)
        # a single article with one cite keeps h at exactly one everywhere
        specs.append((f"j{i}", IbnpCategory.B, memberships, 30 + i, [1] + [0] * i))
    result = citation_regression(make_pairs(specs), response="h")
    assert result.coefficients[1] == pytest.approx(0.0, abs=1e-9)
    assert result.coefficients[2] == pytest.approx(0.0, abs=1e-9)


def test_citation_regression_refuses_an_unknown_response():
    corpus = build_fixture_corpus()
    pairs = corpus_indicator_sets(corpus.journals, visible_cites(corpus))
    with pytest.raises(DomainError, match="unknown response 'x'; use 'logcr' or 'h'"):
        citation_regression(pairs, "x")


def test_citation_regression_needs_five_journals():
    specs = [
        (f"j{i}", IbnpCategory.B, {Library.GOOGLE_SCHOLAR}, 50, [i + 1]) for i in range(4)
    ]
    with pytest.raises(DomainError, match="only 4 journals with response and predictors"):
        citation_regression(make_pairs(specs))


def test_regression_permuting_corpus_predictors_keeps_the_fit():
    rng = random.Random(31)
    for _ in range(5):
        specs = []
        for i in range(12):
            memberships = {Library.GOOGLE_SCHOLAR}
            if rng.random() < 0.5:
                memberships.add(Library.SCIELO)
            if rng.random() < 0.3:
                memberships.add(Library.SCOPUS)
            cites = [rng.randint(0, 30) for _ in range(rng.randint(1, 9))]
            specs.append((f"j{i}", IbnpCategory.B, memberships, rng.randint(20, 200), cites))
        pairs = make_pairs(specs)
        y = [math.log10(s.cr_ga + 1) for _, s in pairs]
        x1 = [math.log10(s.air_ga) for _, s in pairs]
        x2 = [float(s.pi_ld) for _, s in pairs]
        forward = ols_fit(y, [x1, x2])
        swapped = ols_fit(y, [x2, x1])
        assert swapped.coefficients[0] == pytest.approx(forward.coefficients[0], abs=1e-9)
        assert swapped.coefficients[1] == pytest.approx(forward.coefficients[2], abs=1e-9)
        assert swapped.coefficients[2] == pytest.approx(forward.coefficients[1], abs=1e-9)
        assert swapped.r2 == pytest.approx(forward.r2, abs=1e-12)
        assert swapped.sequential_ss != forward.sequential_ss


# --- serialization ---------------------------------------------------------------


def test_analysis_outputs_are_deterministic_json():
    corpus = build_fixture_corpus()
    pairs = corpus_indicator_sets(corpus.journals, visible_cites(corpus))
    table = compare_groups(pairs, GroupDimension.BY_CATEGORY)
    matrix = correlation_matrix(pairs, ["h", "cr_ga_log10", "pi_ld"])
    factor = citation_factor_analysis(pairs)
    regression = citation_regression(pairs)
    assert comparison_to_json(table) == comparison_to_json(table)
    assert correlation_to_json(matrix) == correlation_to_json(matrix)
    assert factor_to_json(factor) == factor_to_json(factor)
    assert regression_to_json(regression, "logcr") == regression_to_json(regression, "logcr")


def test_serialized_documents_carry_required_keys():
    import json

    corpus = build_fixture_corpus()
    pairs = corpus_indicator_sets(corpus.journals, visible_cites(corpus))
    table = compare_groups(pairs, GroupDimension.BY_CATEGORY)
    doc = json.loads(comparison_to_json(table))
    assert {"dimension", "variables", "rows", "tests", "letters"} <= set(doc)
    assert set(DEFAULT_COMPARE_VARIABLES) == set(doc["tests"])
    # every document's keys are its result's fields, in order
    assert tuple(doc) == ComparisonTable._fields
    # read through the module: pytest would try to collect a bare TestResult
    assert all(tuple(test) == statkit.TestResult._fields for test in doc["tests"].values())
    assert all(tuple(entry) == Letters._fields for entry in doc["letters"].values())
    assert all(tuple(row) == GroupSummary._fields for row in doc["rows"])

    matrix = correlation_matrix(pairs, ["h", "cr_ga_log10"])
    doc = json.loads(correlation_to_json(matrix))
    assert {"variables", "r", "significant"} <= set(doc)
    assert tuple(doc) == CorrelationMatrix._fields

    doc = json.loads(factor_to_json(citation_factor_analysis(pairs)))
    assert {"eigenvalues", "loadings", "communalities"} <= set(doc)
    assert tuple(doc) == ("variables", *FactorResult._fields, "contributing")

    doc = json.loads(regression_to_json(citation_regression(pairs), "logcr"))
    assert {"coefficients", "r2_adjusted", "f", "sequential_ss", "vif"} <= set(doc)
    assert tuple(doc) == ("response", "predictors", *RegressionResult._fields)
