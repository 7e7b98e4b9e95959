import pytest

from citemetric.corpus import (
    Area,
    ArticleRecord,
    ArticleStatus,
    IbnpCategory,
    JournalCorpus,
    JournalRecord,
    Library,
    filter_by_area,
    validate_corpus,
)


def _journal(
    journal_id="j1", title="Revista Uno", area=Area.CIENCIAS, category=IbnpCategory.A2, air_ibnp=10
):
    return JournalRecord(
        journal_id=journal_id,
        title=title,
        area=area,
        category=category,
        air_ibnp=air_ibnp,
        memberships=frozenset({Library.GOOGLE_SCHOLAR}),
    )


def _article(journal_id="j1", title="Nota", year=2005, cites=1, status=ArticleStatus.KEPT):
    return ArticleRecord(journal_id=journal_id, title=title, year=year, cites=cites, status=status)


def test_single_journal_no_articles_is_valid():
    corpus = JournalCorpus(journals=(_journal(),), articles=())
    assert validate_corpus(corpus) == []


def test_empty_corpus_is_valid():
    corpus = JournalCorpus(journals=(), articles=())
    assert validate_corpus(corpus) == []


def test_unknown_journal_reference_is_reported():
    corpus = JournalCorpus(
        journals=(_journal(),),
        articles=(_article(journal_id="X9"),),
    )
    violations = validate_corpus(corpus)
    assert len(violations) == 1
    assert "X9" in violations[0]


def test_duplicate_journal_id_is_reported():
    corpus = JournalCorpus(
        journals=(_journal(), _journal(title="Revista Dos")),
        articles=(),
    )
    violations = validate_corpus(corpus)
    assert len(violations) == 1
    assert "j1" in violations[0]


def test_kept_article_needs_title_and_year_in_window():
    corpus = JournalCorpus(
        journals=(_journal(),),
        articles=(
            _article(title="  ", year=2005),
            _article(year=None),
            _article(year=1999),
            _article(year=2008, status=ArticleStatus.DROPPED_INCOMPLETE),
        ),
    )
    violations = validate_corpus(corpus)
    assert len(violations) == 3  # the dropped record is exempt


def test_negative_ibnp_total_is_reported():
    corpus = JournalCorpus(journals=(_journal(air_ibnp=-1),), articles=())
    assert validate_corpus(corpus) == ["journal 'j1' has negative ibnp total"]


def _two_area_journals():
    return (
        _journal("a1", "Ciencias Uno"),
        _journal("b1", "Sociales Uno", area=Area.CIENCIAS_SOCIALES),
        _journal("a2", "Ciencias Dos"),
    )


def test_filter_by_area_keeps_matching_journals_in_order():
    ciencias = filter_by_area(_two_area_journals(), Area.CIENCIAS)
    assert [j.journal_id for j in ciencias] == ["a1", "a2"]


def test_filter_by_area_empty_result():
    assert filter_by_area((_journal(),), Area.CIENCIAS_SOCIALES) == ()


def test_area_filters_partition_the_corpus():
    journals = _two_area_journals()
    ciencias = filter_by_area(journals, Area.CIENCIAS)
    sociales = filter_by_area(journals, Area.CIENCIAS_SOCIALES)
    assert set(ciencias) | set(sociales) == set(journals)
    assert set(ciencias) & set(sociales) == set()


def test_filter_by_area_is_idempotent():
    once = filter_by_area(_two_area_journals(), Area.CIENCIAS)
    twice = filter_by_area(once, Area.CIENCIAS)
    assert once == twice


def test_records_are_frozen_and_slotted():
    for record, name in ((_journal(), "title"), (_article(), "cites")):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        assert not hasattr(record, "__dict__")
