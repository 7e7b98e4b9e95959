import csv
import io
import math
import random

import pytest
from hypothesis import given, strategies as st

from citemetric.corpus import (
    VISIBLE_STATUSES,
    Area,
    ArticleStatus,
    IbnpCategory,
    JournalRecord,
    Library,
    filter_by_area,
    visible_cites,
)
from citemetric.errors import DomainError
from citemetric.indicators import (
    INDICATOR_CSV_HEADER,
    VARIABLES,
    IndicatorSet,
    area_mean_citation,
    compute_indicator_set,
    corpus_indicator_sets,
    cpn,
    csv_record,
    h_index,
    indicators_csv,
    pi_ibnp,
    pi_ld,
    summarize_group,
)
from fixture_corpus import build_fixture_corpus
from oracles import brute_force_h


def _journal(**kwargs):
    base = dict(
        journal_id="j1",
        title="Revista Uno",
        area=Area.CIENCIAS,
        category=IbnpCategory.A2,
        air_ibnp=10,
        memberships=frozenset({Library.GOOGLE_SCHOLAR}),
    )
    base.update(kwargs)
    return JournalRecord(**base)


def _set(**kwargs) -> IndicatorSet:
    base = dict(
        journal_id="j1",
        air_ibnp=10,
        air_ga=5,
        cr_ga=5,
        ca_mean=0.5,
        visibility_ratio=0.5,
        h=2,
        pi_ld=1,
        pi_ibnp=3,
    )
    base.update(kwargs)
    return IndicatorSet(**base)


# --- h index -----------------------------------------------------------------


def test_h_index_empty_is_zero():
    assert h_index([]) == 0


def test_h_index_known_vector():
    assert h_index([10, 8, 5, 4, 3]) == 4


def test_h_index_matches_brute_force_on_random_vectors():
    rng = random.Random(11)
    for _ in range(300):
        cites = [rng.randint(0, 60) for _ in range(rng.randint(0, 80))]
        assert h_index(cites) == brute_force_h(cites)


@given(st.lists(st.integers(min_value=0, max_value=200), max_size=60))
def test_h_index_properties(cites):
    h = h_index(cites)
    assert h == brute_force_h(cites)
    assert h <= len(cites)
    if cites:
        bumped = list(cites)
        bumped[0] += 1
        assert h_index(bumped) >= h


# --- indexation scores ---------------------------------------------------------


def test_pi_ld_extremes_and_mixture():
    assert pi_ld(frozenset()) == 0
    assert pi_ld(frozenset(Library)) == 221
    assert pi_ld(frozenset({Library.SCOPUS, Library.SCIELO, Library.GOOGLE_SCHOLAR})) == 111


@given(st.sets(st.sampled_from(list(Library))))
def test_pi_ld_last_digit_marks_google_scholar(memberships):
    score = pi_ld(frozenset(memberships))
    assert 0 <= score <= 221
    assert (score % 10 == 1) == (Library.GOOGLE_SCHOLAR in memberships)


def test_pi_ibnp_scores():
    assert pi_ibnp(IbnpCategory.A1) == 4
    assert pi_ibnp(IbnpCategory.A2) == 3
    assert pi_ibnp(IbnpCategory.B) == 2
    assert pi_ibnp(IbnpCategory.C) == 1


# --- log transform -------------------------------------------------------------


def test_cr_ga_log10_shifts_citations_by_one():
    assert VARIABLES["cr_ga_log10"](_set(cr_ga=0)) == 0.0
    assert VARIABLES["cr_ga_log10"](_set(cr_ga=99)) == pytest.approx(2.0, abs=1e-15)


def test_air_ibnp_log10_is_undefined_without_registry_articles():
    assert VARIABLES["air_ibnp_log10"](_set(air_ibnp=100)) == pytest.approx(2.0, abs=1e-15)
    assert VARIABLES["air_ibnp_log10"](_set(air_ibnp=0)) is None


def test_cr_ga_log10_is_monotone_from_zero():
    values = [VARIABLES["cr_ga_log10"](_set(cr_ga=x)) for x in range(0, 50)]
    assert values[0] == 0.0
    assert all(b >= a for a, b in zip(values, values[1:]))


# --- per-journal set -----------------------------------------------------------


def test_compute_indicator_set_quotients():
    indicator = compute_indicator_set(_journal(air_ibnp=50), [25])
    assert indicator.ca_mean == pytest.approx(0.5)
    assert indicator.air_ga == 1
    assert indicator.cr_ga == 25


def test_compute_indicator_set_visibility_ratio():
    indicator = compute_indicator_set(_journal(air_ibnp=1157), [0] * 480)
    assert indicator.visibility_ratio == pytest.approx(480 / 1157)
    assert f"{indicator.visibility_ratio:.4f}" == "0.4149"


def test_compute_indicator_set_zero_records():
    indicator = compute_indicator_set(_journal(air_ibnp=10), [])
    assert indicator.air_ga == 0
    assert indicator.cr_ga == 0
    assert indicator.h == 0
    assert indicator.ca_mean == 0.0


def test_compute_indicator_set_zero_production_leaves_quotients_undefined():
    indicator = compute_indicator_set(_journal(air_ibnp=0), [3])
    assert indicator.ca_mean is None
    assert indicator.visibility_ratio is None


def test_compute_indicator_set_refuses_negative_production():
    with pytest.raises(DomainError, match="registry production cannot be negative"):
        compute_indicator_set(_journal(air_ibnp=-1), [])


@given(st.lists(st.integers(min_value=0, max_value=40), max_size=30))
def test_indicator_set_h_bounds(cites):
    indicator = compute_indicator_set(_journal(air_ibnp=100), cites)
    assert indicator.h <= indicator.air_ga
    assert indicator.h <= max(cites, default=0)


# --- area means and normalization ----------------------------------------------


def test_area_mean_of_ratios():
    sets = [_set(ca_mean=0.2), _set(journal_id="j2", ca_mean=0.6)]
    assert area_mean_citation(sets, mode="ratios") == pytest.approx(0.4)


def test_area_mean_pooled():
    sets = [
        _set(cr_ga=2, air_ibnp=10, ca_mean=0.2),
        _set(journal_id="j2", cr_ga=6, air_ibnp=10, ca_mean=0.6),
    ]
    assert area_mean_citation(sets, mode="pooled") == pytest.approx(8 / 20)


def test_area_mean_single_journal_is_identity():
    assert area_mean_citation([_set(ca_mean=0.37)], mode="ratios") == pytest.approx(0.37)


def test_area_mean_requires_a_qualifying_journal():
    with pytest.raises(DomainError, match="no journal with registry production"):
        area_mean_citation([_set(ca_mean=None, air_ibnp=0)])


@pytest.mark.parametrize("air_ibnp", [None, 0, 10])
def test_an_unknown_mean_mode_is_refused_with_or_without_a_rate(air_ibnp):
    """None stands for no journal at all; air_ibnp 0 leaves the journal without a rate."""
    journals = [] if air_ibnp is None else [_journal(air_ibnp=air_ibnp)]
    with pytest.raises(DomainError, match="^unknown area-mean mode 'bogus'$"):
        corpus_indicator_sets(journals, {"j1": [3, 1]}, "bogus")
    with pytest.raises(DomainError, match="^unknown area-mean mode 'bogus'$"):
        area_mean_citation([_set()], mode="bogus")


def test_area_mean_is_independent_of_input_order():
    rng = random.Random(19)
    sets = [
        _set(journal_id=f"j{i}", ca_mean=rng.uniform(0, 3), air_ibnp=rng.randint(1, 50))
        for i in range(200)
    ]
    baseline = area_mean_citation(sets, mode="ratios")
    for _ in range(5):
        rng.shuffle(sets)
        assert abs(area_mean_citation(sets, mode="ratios") - baseline) < 1e-12


def test_cpn_identity_and_two_journal_case():
    area = area_mean_citation([_set(ca_mean=0.2), _set(ca_mean=0.6)])
    assert cpn(_set(ca_mean=0.4), area) == pytest.approx(1.0)
    values = [cpn(_set(ca_mean=0.2), area), cpn(_set(ca_mean=0.6), area)]
    assert values == [pytest.approx(0.5), pytest.approx(1.5)]
    assert sum(values) / 2 == pytest.approx(1.0, abs=1e-12)


def test_cpn_zero_area_mean_is_an_error():
    area = area_mean_citation([_set(ca_mean=0.0)])
    with pytest.raises(DomainError, match="area citation rate is zero"):
        cpn(_set(ca_mean=0.0), area)


def test_cpn_of_a_journal_without_a_rate_is_an_error():
    indicator = compute_indicator_set(_journal(air_ibnp=0), [3])
    with pytest.raises(DomainError, match="journal 'j1' has no citation rate"):
        cpn(indicator, 1.0)


def test_mean_cpn_is_one_and_scale_invariant():
    rng = random.Random(3)
    sets = [
        _set(journal_id=f"j{i}", cr_ga=rng.randint(0, 400), air_ibnp=rng.randint(1, 300))
        for i in range(40)
    ]
    sets = [
        _set(journal_id=s.journal_id, cr_ga=s.cr_ga, air_ibnp=s.air_ibnp, ca_mean=s.cr_ga / s.air_ibnp)
        for s in sets
    ]
    area = area_mean_citation(sets, mode="ratios")
    values = [cpn(s, area) for s in sets]
    assert sum(values) / len(values) == pytest.approx(1.0, abs=1e-12)
    for gamma in (2, 10):
        scaled = [
            _set(
                journal_id=s.journal_id,
                cr_ga=s.cr_ga * gamma,
                air_ibnp=s.air_ibnp,
                ca_mean=s.cr_ga * gamma / s.air_ibnp,
            )
            for s in sets
        ]
        scaled_area = area_mean_citation(scaled, mode="ratios")
        scaled_values = [cpn(s, scaled_area) for s in scaled]
        assert all(abs(a - b) < 1e-12 for a, b in zip(values, scaled_values))


# --- group summary --------------------------------------------------------------


def test_summarize_group_totals_and_log_mean():
    sets = [
        _set(journal_id="j1", cr_ga=9, air_ibnp=100, air_ga=40),
        _set(journal_id="j2", cr_ga=99, air_ibnp=200, air_ga=60),
    ]
    summary = summarize_group(sets, "A2")
    assert summary.total_articles == 300
    assert summary.total_articles_ga == 100
    assert summary.total_cites == 108
    assert summary.mean_log10_cr == pytest.approx(1.5, abs=1e-12)
    assert summary.sd_log10_cr is not None


def test_summarize_group_four_journal_totals():
    sets = [
        _set(journal_id=f"j{i}", air_ibnp=air, air_ga=ga)
        for i, (air, ga) in enumerate([(300, 120), (300, 120), (300, 120), (257, 120)])
    ]
    summary = summarize_group(sets, "A1")
    assert summary.n_journals == 4
    assert summary.total_articles == 1157
    assert summary.total_articles_ga == 480


def test_summarize_group_single_journal_has_undefined_sds():
    summary = summarize_group([_set()], "B")
    assert summary.sd_log10_cr is None
    assert summary.sd_ca is None
    assert summary.mean_ca == pytest.approx(0.5)


def test_summarize_group_empty_is_an_error():
    with pytest.raises(DomainError, match="group 'C' is empty"):
        summarize_group([], "C")


def test_summarize_group_is_bit_identical_under_shuffled_input():
    rng = random.Random(23)
    sets = [
        _set(
            journal_id=f"j{i}",
            cr_ga=rng.randint(0, 10**6),
            ca_mean=rng.uniform(0, 1e4) * 10.0 ** rng.randint(-8, 0),
            visibility_ratio=rng.uniform(0, 1) * 10.0 ** rng.randint(-8, 0),
            air_ibnp=rng.randint(1, 10**5),
            pi_ld=rng.randint(0, 221),
        )
        for i in range(300)
    ]
    summary = summarize_group(sets, "A1")
    for _ in range(5):
        rng.shuffle(sets)
        assert summarize_group(sets, "A1") == summary


# the literals are the summaries' reprs: each category of the bundled fixture,
# where every journal has registry production 100
PINNED_SUMMARIES = {
    "A1": "GroupSummary(label='A1', n_journals=3, total_articles=300, total_articles_ga=22, total_cites=793, mean_log10_cr=2.4007934522233834, sd_log10_cr=0.1797842175676994, mean_ca=2.643333333333333, sd_ca=0.9767462993701759, mean_ratio_ba=0.07333333333333333, sd_ratio_ba=0.015275252316519465, mean_log10_air=2.0, mean_pi_ld=44.333333333333336)",
    "A2": "GroupSummary(label='A2', n_journals=17, total_articles=1700, total_articles_ga=102, total_cites=4783, mean_log10_cr=2.2698532942194114, sd_log10_cr=0.39677013115155557, mean_ca=2.813529411764706, sd_ca=2.9239676408445225, mean_ratio_ba=0.06, sd_ratio_ba=0.018371173070873836, mean_log10_air=2.0, mean_pi_ld=33.35294117647059)",
    "B": "GroupSummary(label='B', n_journals=32, total_articles=3200, total_articles_ga=127, total_cites=1627, mean_log10_cr=1.3948883991792138, sd_log10_cr=0.38681902492348674, mean_ca=0.5084375, sd_ca=1.1083294880279322, mean_ratio_ba=0.0396875, sd_ratio_ba=0.012568361455552566, mean_log10_air=2.0, mean_pi_ld=4.75)",
    "C": "GroupSummary(label='C', n_journals=31, total_articles=3100, total_articles_ga=122, total_cites=1097, mean_log10_cr=1.3530612942204758, sd_log10_cr=0.3089955011862954, mean_ca=0.3538709677419355, sd_ca=0.6580561142200303, mean_ratio_ba=0.03935483870967742, sd_ratio_ba=0.009978471449732082, mean_log10_air=2.0, mean_pi_ld=9.709677419354838)",
}


@pytest.mark.parametrize("label", sorted(PINNED_SUMMARIES))
def test_summarize_group_keeps_its_bits_on_each_fixture_category(label):
    corpus = build_fixture_corpus()
    pairs = corpus_indicator_sets(corpus.journals, visible_cites(corpus))
    sets = [s for j, s in pairs if j.category.value == label]
    assert repr(summarize_group(sets, label)) == PINNED_SUMMARIES[label]


def test_summarize_group_keeps_its_bits_with_a_journal_of_no_production():
    # the fixture's A2 journals with registry production 0, 37, 74, ..., so one
    # has no registry articles and the others' logs differ
    corpus = build_fixture_corpus()
    a2 = [j.journal_id for j in corpus.journals if j.category is IbnpCategory.A2]
    production = {journal_id: 37 * k for k, journal_id in enumerate(a2)}
    journals = tuple(
        j._replace(air_ibnp=production.get(j.journal_id, j.air_ibnp)) for j in corpus.journals
    )
    pairs = corpus_indicator_sets(journals, visible_cites(corpus))
    sets = [s for j, s in pairs if j.journal_id in production]
    assert sets[0].air_ibnp == 0
    assert repr(summarize_group(sets, "A2")) == (
        "GroupSummary(label='A2', n_journals=17, total_articles=5032, total_articles_ga=102, total_cites=4783, mean_log10_cr=2.2698532942194114, sd_log10_cr=0.39677013115155557, mean_ca=2.366791595697846, sd_ca=4.980371235507124, mean_ratio_ba=0.03775953541578542, sd_ratio_ba=0.05395648893589582, mean_log10_air=2.400740448678203, mean_pi_ld=33.35294117647059)"
    )


# --- corpus pass -----------------------------------------------------------------


def test_corpus_indicator_sets_match_a_per_journal_scan():
    corpus = build_fixture_corpus()
    articles = [
        a._replace(status=ArticleStatus.NEEDS_REVIEW) if i % 7 == 0 else a
        for i, a in enumerate(corpus.articles)
    ]
    random.Random(11).shuffle(articles)
    corpus = corpus._replace(articles=tuple(articles))

    expected = []
    for journal in corpus.journals:
        cites = [
            a.cites
            for a in corpus.articles
            if a.journal_id == journal.journal_id and a.status in VISIBLE_STATUSES
        ]
        expected.append((journal, compute_indicator_set(journal, cites)))
    areas = {journal.area for journal, _ in expected}
    stats = {a: area_mean_citation([s for j, s in expected if j.area is a]) for a in areas}
    expected = [(j, s._replace(cpn=cpn(s, stats[j.area]))) for j, s in expected]
    assert corpus_indicator_sets(corpus.journals, visible_cites(corpus)) == expected


def _with_sociales_copies(corpus, journal_fields, article_fields):
    """The fixture plus a Sociales copy of every fifth journal and of its
    articles, with the given fields replaced on each copy."""
    copies = {
        j.journal_id: j._replace(
            journal_id="soc" + j.journal_id, area=Area.CIENCIAS_SOCIALES, **journal_fields
        )
        for j in corpus.journals[::5]
    }
    articles = [
        a._replace(journal_id=copies[a.journal_id].journal_id, **article_fields)
        for a in corpus.articles
        if a.journal_id in copies
    ]
    return corpus._replace(
        journals=corpus.journals + tuple(copies.values()),
        articles=corpus.articles + tuple(articles),
    )


def _ciencias_pairs_are_the_ciencias_only_pass(corpus, pairs):
    ciencias = [(j, s) for j, s in pairs if j.area is Area.CIENCIAS]
    ciencias_only = filter_by_area(corpus.journals, Area.CIENCIAS)
    assert ciencias == corpus_indicator_sets(ciencias_only, visible_cites(corpus))
    assert all(s.cpn is not None for _, s in ciencias)


def test_an_area_without_registry_production_gets_no_cpn():
    corpus = _with_sociales_copies(build_fixture_corpus(), {"air_ibnp": 0}, {})
    pairs = corpus_indicator_sets(corpus.journals, visible_cites(corpus))
    sociales = [s for j, s in pairs if j.area is Area.CIENCIAS_SOCIALES]
    assert len(sociales) == 17
    assert all(s.ca_mean is None and s.cpn is None for s in sociales)
    assert all(s.air_ga > 0 for s in sociales)
    _ciencias_pairs_are_the_ciencias_only_pass(corpus, pairs)


def test_an_area_without_citations_keeps_cpn_unset():
    corpus = _with_sociales_copies(build_fixture_corpus(), {}, {"cites": 0})
    pairs = corpus_indicator_sets(corpus.journals, visible_cites(corpus))
    sociales = [s for j, s in pairs if j.area is Area.CIENCIAS_SOCIALES]
    assert len(sociales) == 17
    assert all(s.ca_mean == 0.0 and s.cpn is None for s in sociales)
    for mode in ("ratios", "pooled"):
        assert area_mean_citation(sociales, mode=mode) == 0.0
        assert all(
            s.cpn is None
            for j, s in corpus_indicator_sets(corpus.journals, visible_cites(corpus), mode)
            if j.area is Area.CIENCIAS_SOCIALES
        )
    _ciencias_pairs_are_the_ciencias_only_pass(corpus, pairs)


# --- CSV rendering ---------------------------------------------------------------


def test_indicators_csv_header_and_rendering():
    journal = _journal(air_ibnp=50)
    indicator = compute_indicator_set(journal, [25])
    text = indicators_csv([(journal, indicator)])
    lines = text.splitlines()
    assert lines[0] == INDICATOR_CSV_HEADER
    cells = lines[1].split(",")
    assert cells[0] == "j1"
    assert cells[6] == "0.0200"  # visibility ratio, 4 decimals
    assert cells[8] == "0.5000"
    assert cells[12] == ""  # cpn unset renders empty


def test_indicators_csv_undefined_quotients_render_empty():
    journal = _journal(air_ibnp=0)
    indicator = compute_indicator_set(journal, [3])
    lines = indicators_csv([(journal, indicator)]).splitlines()
    cells = lines[1].split(",")
    assert cells[6] == "" and cells[8] == ""


_AWKWARD_TITLES = ["Uno\rDos", "Tres\nCuatro", "Cinco\r\nSeis", 'Siete, "Ocho"', "Nueve\r"]


def test_indicators_csv_round_trips_titles_with_line_breaks():
    """A lone carriage return is quoted like any line break on every Python
    version, so a csv reader gets each row back whole."""
    pairs = []
    for n, title in enumerate(_AWKWARD_TITLES):
        journal = _journal(journal_id=f"j{n}", title=title)
        pairs.append((journal, compute_indicator_set(journal, [2, 1])))
    rows = list(csv.reader(io.StringIO(indicators_csv(pairs), newline="")))
    assert rows[0] == INDICATOR_CSV_HEADER.split(",")
    assert [row[:2] for row in rows[1:]] == [[f"j{n}", t] for n, t in enumerate(_AWKWARD_TITLES)]
    assert {len(row) for row in rows} == {len(INDICATOR_CSV_HEADER.split(","))}


# NUL is left out: csv.writer refuses it on 3.10
_CSV_TEXT = st.text(st.characters(blacklist_characters="\r\x00"), max_size=8)


@given(st.lists(st.one_of(_CSV_TEXT, st.integers()), min_size=2, max_size=6))
def test_csv_record_writes_what_csv_writer_writes_without_carriage_returns(cells):
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(cells)
    assert csv_record(cells) == buffer.getvalue()
