import json
import pathlib
import tempfile
import tracemalloc
from unittest import mock

import pytest
from hypothesis import Phase, given, settings, strategies as st

from citemetric.corpus import (
    Area,
    ArticleRecord,
    ArticleStatus,
    IbnpCategory,
    JournalCorpus,
    Library,
    validate_corpus,
    visible_cites,
)
from citemetric import ingest
from citemetric.errors import BadCell, DomainError, MalformedCorpus
from citemetric.ingest import (
    REGISTRY_HEADER,
    DedupConfig,
    build_corpus,
    corpus_from_json,
    corpus_to_json,
    deduplicate,
    journal_cites_from_json,
    parse_alias_file,
    parse_citation_export,
    parse_registry,
)
from fixture_corpus import bench_module, build_fixture_corpus, registry_csv
from test_cli import test_malformed_corpus_json_is_a_one_line_data_error as _cli_damage_test

EXPORT_HEADER = "cites,authors,title,year,publication,publisher,url"
BUNDLED_CORPUS = pathlib.Path(__file__).parent.parent / "fixtures" / "ciencias_table7.json"


def test_parse_registry_maps_fields_directly():
    content = REGISTRY_HEADER + "\nj1,Colombia Médica,Ciencias,A2,1000,0,1,0,1,1\n"
    journals = parse_registry(content)
    assert len(journals) == 1
    journal = journals[0]
    assert journal.journal_id == "j1"
    assert journal.title == "Colombia Médica"
    assert journal.area is Area.CIENCIAS
    assert journal.category is IbnpCategory.A2
    assert journal.air_ibnp == 1000
    assert journal.memberships == frozenset({Library.SCOPUS, Library.SCIELO, Library.GOOGLE_SCHOLAR})


def test_parse_registry_rejects_unknown_category():
    content = REGISTRY_HEADER + "\nj1,Revista,Ciencias,D,10,0,0,0,0,1\n"
    with pytest.raises(BadCell) as info:
        parse_registry(content)
    assert info.value.line == 2
    assert info.value.column == "ibnp_category"


def test_parse_registry_rejects_bad_header():
    with pytest.raises(BadCell) as info:
        parse_registry("journal_id,title\nj1,Revista\n")
    assert (info.value.line, info.value.column) == (1, "*")


def test_parse_registry_rejects_duplicate_id():
    rows = [REGISTRY_HEADER]
    rows.append("j1,Revista Uno,Ciencias,B,10,0,0,0,0,1")
    rows.append("j1,Revista Dos,Ciencias,C,10,0,0,0,0,1")
    with pytest.raises(BadCell) as info:
        parse_registry("\n".join(rows) + "\n")
    assert (info.value.line, info.value.column) == (3, "journal_id")


@pytest.mark.parametrize(
    "row, column, reason",
    [
        ("j1,Revista,Ciencias,B,10,0,0,0,0", "*", "expected 10 cells, found 9"),
        (" ,Revista,Ciencias,B,10,0,0,0,0,1", "journal_id", "empty"),
        ("j1, ,Ciencias,B,10,0,0,0,0,1", "title", "empty"),
        ("j1,Revista,Biologia,B,10,0,0,0,0,1", "area", "unknown area 'Biologia'"),
    ],
)
def test_a_bad_registry_row_is_a_bad_cell_on_its_line(row, column, reason):
    with pytest.raises(BadCell) as info:
        parse_registry(f"{REGISTRY_HEADER}\n{row}\n")
    assert (info.value.line, info.value.column, info.value.reason) == (2, column, reason)
    assert str(info.value) == f"line 2, column {column!r}: {reason}"


@pytest.mark.parametrize(
    "parse",
    [parse_registry, lambda content: parse_citation_export(content, "j1"), parse_alias_file],
    ids=["registry", "export", "alias"],
)
@pytest.mark.parametrize("line", [1, 3])
def test_bytes_that_are_not_utf8_are_a_bad_cell_on_their_line(parse, line):
    content = b"header\r\n" * (line - 1) + b"caf\xe9\n"
    with pytest.raises(BadCell) as info:
        parse(content)
    assert (info.value.line, info.value.column) == (line, "*")
    assert info.value.reason.startswith("not UTF-8: 'utf-8' codec can't decode byte 0xe9")


def test_parse_registry_rejects_bad_flag_and_negative_total():
    bad_flag = REGISTRY_HEADER + "\nj1,Revista,Ciencias,B,10,2,0,0,0,1\n"
    with pytest.raises(BadCell):
        parse_registry(bad_flag)
    negative = REGISTRY_HEADER + "\nj1,Revista,Ciencias,B,-4,0,0,0,0,1\n"
    with pytest.raises(BadCell):
        parse_registry(negative)


def _two_area_registry() -> str:
    # 209 journals: 111 ciencias (4 of them A1) and 98 sociales
    rows = [REGISTRY_HEADER]
    for i in range(111):
        category = "A1" if i < 4 else ("A2", "B", "C")[i % 3]
        rows.append(f"c{i:03d},Revista Ciencias {i:03d},Ciencias,{category},50,0,0,0,0,1")
    for i in range(98):
        category = ("A1", "A2", "B", "C")[i % 4]
        rows.append(f"s{i:03d},Revista Sociales {i:03d},CienciasSociales,{category},50,0,0,0,0,1")
    return "\n".join(rows) + "\n"


def test_registry_area_and_category_counts():
    journals = parse_registry(_two_area_registry())
    assert len(journals) == 209
    ciencias = [j for j in journals if j.area is Area.CIENCIAS]
    assert len(ciencias) == 111
    assert sum(1 for j in ciencias if j.category is IbnpCategory.A1) == 4


def test_parse_citation_export_maps_fields():
    content = (
        EXPORT_HEADER
        + "\n12,Smith J,Ecology of X,2005,Colombia Médica,Univalle,http://example.org\n"
    )
    records, lines = parse_citation_export(content, "j1")
    assert (len(records), lines) == (1, [2])
    record = records[0]
    assert record.journal_id == "j1"
    assert record.cites == 12
    assert record.year == 2005
    assert record.title == "Ecology of X"
    assert record.status is ArticleStatus.KEPT


def test_parse_citation_export_missing_year_becomes_none():
    content = EXPORT_HEADER + "\n0,,Untitled note,,,,\n"
    records, _ = parse_citation_export(content, "j1")
    assert records[0].year is None


def test_parse_citation_export_header_only_gives_empty_list():
    assert parse_citation_export(EXPORT_HEADER + "\n", "j1") == ([], [])


def test_parse_citation_export_rejects_bad_cites():
    content = EXPORT_HEADER + "\nmany,,Nota,2004,,,\n"
    with pytest.raises(BadCell) as info:
        parse_citation_export(content, "j1")
    assert info.value.column == "cites"


def _parse_one_row(**cells):
    """Parse a one-row registry (given air_ibnp) or export (cites, year) holding cells."""
    if "air_ibnp" in cells:
        return parse_registry(REGISTRY_HEADER + f"\nj1,Revista,Ciencias,B,{cells['air_ibnp']},0,0,0,0,1\n")
    cells = {"cites": "3", "year": "2005", **cells}
    return parse_citation_export(EXPORT_HEADER + f"\n{cells['cites']},,Nota,{cells['year']},,,\n", "j1")


@pytest.mark.parametrize("cell", ["1_0", "2_005", "２００６", "٣", "+-1", "1 0", "0x10", "1.0"])
@pytest.mark.parametrize("column", ["cites", "year", "air_ibnp"])
def test_integer_cells_take_only_a_sign_and_ascii_digits(column, cell):
    """int() alone reads "1_0" as 10 and full-width digits as their number,
    which would give a silently different table."""
    with pytest.raises(BadCell) as info:
        _parse_one_row(**{column: cell})
    assert (info.value.line, info.value.column) == (2, column)
    assert str(info.value).endswith(f"not an integer: {cell!r}")


def test_integer_cells_keep_surrounding_space_a_sign_and_leading_zeros():
    records, _ = _parse_one_row(cites=" +07 ", year=" 2005 ")
    assert (records[0].cites, records[0].year) == (7, 2005)
    assert _parse_one_row(air_ibnp="0012")[0].air_ibnp == 12


def test_parse_citation_export_accepts_crlf_and_quoting():
    content = EXPORT_HEADER + '\r\n3,,"Clima, suelo y fauna",2004,,,\r\n'
    records, _ = parse_citation_export(content, "j1")
    assert records[0].title == "Clima, suelo y fauna"


def test_parse_alias_file_normalizes_both_sides():
    aliases = parse_alias_file("from_title,to_title\nClimate Effect,Efecto del Clima.\n")
    assert aliases == {"climate effect": "efecto del clima"}


def test_alias_rows_that_disagree_are_refused():
    """Two rows whose sources normalize alike must name the same target; the
    later one is reported, not silently kept."""
    records, lines = parse_citation_export(
        EXPORT_HEADER + "\n3,,Titulo uno,2005,,,\n3,,Title one,2005,,,\n", "j1"
    )

    def statuses(alias_rows):
        aliases = parse_alias_file("from_title,to_title\n" + alias_rows)
        cleaned, _ = deduplicate(records, DedupConfig(alias_map=aliases), lines)
        return [r.status for r in cleaned]

    confirmed = [ArticleStatus.DROPPED_DUPLICATE, ArticleStatus.KEPT]
    assert statuses("Titulo uno,Title one\n") == confirmed
    assert statuses("Titulo uno,Title one\nTÍTULO uno,Title one.\n") == confirmed
    assert statuses("Title one,Titulo uno\n") == confirmed[::-1]
    with pytest.raises(BadCell, match="line 3, column 'to_title': 'titulo uno' already aliases"):
        statuses("Titulo uno,Title one\ntitulo UNO,Title two\n")


def test_alias_map_keys_that_disagree_are_refused():
    """A library caller's alias map obeys the alias file's rule, in either
    key order: keys that normalize alike must name the same title."""
    records, lines = parse_citation_export(
        EXPORT_HEADER + "\n3,,Titulo uno,2005,,,\n3,,Title one,2005,,,\n", "j1"
    )

    def statuses(*alias_items):
        cleaned, _ = deduplicate(records, DedupConfig(alias_map=dict(alias_items)), lines)
        return [r.status for r in cleaned]

    one, two = ("Titulo uno", "Title one"), ("titulo UNO", "Title two")
    agreeing = ("TÍTULO uno", "title ONE.")
    assert statuses(one, agreeing) == [ArticleStatus.DROPPED_DUPLICATE, ArticleStatus.KEPT]
    for first, later in ((one, two), (two, one)):
        message = f"alias keys '{first[0]}' and '{later[0]}' normalize alike"
        with pytest.raises(DomainError, match=message):
            statuses(first, later)


def test_bad_cell_after_a_multi_line_cell_names_its_physical_line():
    content = EXPORT_HEADER + '\n3,"Smith,\nJ",Efecto,2005,,,\nmany,,Suelos,2005,,,\n'
    with pytest.raises(BadCell) as info:
        parse_citation_export(content, "j1")
    assert info.value.line == 4


def test_build_corpus_rejects_unknown_journal():
    journals = parse_registry(REGISTRY_HEADER + "\nj1,Revista,Ciencias,B,10,0,0,0,0,1\n")
    records, _ = parse_citation_export(EXPORT_HEADER + "\n1,,Nota,2004,,,\n", "zz")
    with pytest.raises(DomainError, match="unknown journal_id 'zz'"):
        build_corpus(journals, {"zz": records}, (2003, 2007))


def test_build_corpus_empty_records_is_valid():
    journals = parse_registry(REGISTRY_HEADER + "\nj1,Revista,Ciencias,B,10,0,0,0,0,1\n")
    corpus = build_corpus(journals, {}, (2003, 2007))
    assert validate_corpus(corpus) == []


def _every_status_corpus():
    """The fixture's journals with one article per status, a missing year and
    blank optional fields (the bundled fixture holds only Kept rows)."""
    fixture = build_fixture_corpus()
    first, second = (j.journal_id for j in fixture.journals[:2])
    articles = (
        ArticleRecord(first, "Suelos andinos", 2004, 3, "Ruiz, A", "Rev", "UN", "http://x/1"),
        ArticleRecord(first, "Sin fecha", None, 0, status=ArticleStatus.DROPPED_INCOMPLETE),
        ArticleRecord(first, "Suelos andinos.", 2004, 1, status=ArticleStatus.DROPPED_DUPLICATE),
        ArticleRecord(second, "Clima tropical", 2006, 2, "", "", "", "", ArticleStatus.NEEDS_REVIEW),
        ArticleRecord(second, "Tropical weather", 2006, 2, status=ArticleStatus.NEEDS_REVIEW),
    )
    return JournalCorpus(fixture.journals, articles, fixture.window)


def test_corpus_json_round_trip():
    mixed = _every_status_corpus()
    assert validate_corpus(mixed) == []
    assert {a.status for a in mixed.articles} == set(ArticleStatus)
    for corpus in (build_fixture_corpus(), mixed):
        text = corpus_to_json(corpus)
        loaded = corpus_from_json(text)
        assert loaded == corpus
        # members, not their str values (a str Enum member equals its value)
        assert all(a.status is b.status for a, b in zip(loaded.articles, corpus.articles))
        assert corpus_to_json(loaded) == text


def _constructed(record):
    """The same article built by ArticleRecord's own constructor, by keyword."""
    return ArticleRecord(**{name: getattr(record, name) for name in ArticleRecord._fields})


def test_corpus_json_records_equal_constructed_records():
    for corpus in (build_fixture_corpus(), _every_status_corpus()):
        loaded = corpus_from_json(corpus_to_json(corpus))
        for got, original in zip(loaded.articles, corpus.articles, strict=True):
            want = _constructed(original)
            assert type(got) is ArticleRecord
            assert (got, hash(got), repr(got)) == (want, hash(want), repr(want))
            with pytest.raises(AttributeError):
                got.cites = 0
            assert got._replace(cites=got.cites + 1) == want._replace(cites=want.cites + 1)


def test_corpus_json_absent_optional_strings_load_empty():
    doc = json.loads(corpus_to_json(_every_status_corpus()))
    for name in ("authors", "publication", "publisher", "url"):
        del doc["articles"][0][name]
    got = corpus_from_json(json.dumps(doc)).articles[0]
    assert (got.authors, got.publication, got.publisher, got.url) == ("", "", "", "")
    assert got == ArticleRecord(got.journal_id, "Suelos andinos", 2004, 3)


def test_parse_citation_export_records_line_numbers():
    content = EXPORT_HEADER + "\n3,,Efecto del clima,2005,,,\n\n1,,Suelos,2004,,,\n"
    records, lines = parse_citation_export(content, "j1")
    assert lines == [2, 4]
    assert records[0] == ArticleRecord("j1", "Efecto del clima", 2005, 3)


def test_corpus_json_is_deterministic():
    corpus = build_fixture_corpus()
    assert corpus_to_json(corpus) == corpus_to_json(corpus)


def test_fixture_corpus_matches_bundled_file():
    assert corpus_to_json(build_fixture_corpus()) == BUNDLED_CORPUS.read_text(encoding="utf-8")


def test_corpus_json_round_trip_is_the_canonical_form():
    """JSON objects carry no key order and memberships are a set, so a document
    that lists them in another order loads to the same corpus, which writes
    the canonical bytes back."""
    text = BUNDLED_CORPUS.read_text(encoding="utf-8")
    corpus = corpus_from_json(text)
    assert corpus_to_json(corpus) == text
    doc = json.loads(text)
    doc["journals"][0]["memberships"].reverse()
    doc["ibnp_totals"] = dict(reversed(doc["ibnp_totals"].items()))
    reordered = json.dumps(doc, ensure_ascii=False, indent=2) + "\n"
    assert reordered != text
    loaded = corpus_from_json(reordered)
    assert loaded == corpus
    assert corpus_to_json(loaded) == text


def _traced_load(tmp_path):
    """Load a 2,400-article bench corpus under tracemalloc: (text, corpus,
    memory retained after the load, peak memory during it)."""
    bench_module("workloads").write_corpus_input(3, tmp_path, journals=60, articles=(20, 60))
    text = (tmp_path / "corpus.json").read_text(encoding="utf-8")
    tracemalloc.start()
    try:
        corpus = corpus_from_json(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(corpus.articles) == 2400
    return text, corpus, retained, peak


@pytest.mark.parametrize(
    "content, says",
    [
        ("{", "corpus JSON does not parse: Expecting property name"),
        (b"\xff", "corpus JSON is not UTF-8: 'utf-8' codec can't decode byte 0xff"),
        # over the interpreter's digit limit where it has one, else not an object
        ("[" + "1" * 5000 + "]", "corpus JSON "),
    ],
)
def test_a_corpus_that_is_not_utf8_json_is_malformed(content, says):
    with pytest.raises(MalformedCorpus) as info:
        corpus_from_json(content)
    assert str(info.value).startswith(says)


def _outcome(load, content):
    """What ``load(content)`` returns, or its error's class name and message."""
    try:
        return load(content)
    except (MalformedCorpus, BadCell) as error:
        return f"{type(error).__name__}: {error}"


@pytest.mark.parametrize("marks", [0, 1, 2])
@pytest.mark.parametrize(
    "load, text",
    [(corpus_from_json, BUNDLED_CORPUS.read_text(encoding="utf-8")), (parse_registry, registry_csv())],
)
def test_one_byte_order_mark_is_skipped_from_bytes_and_from_text(load, text, marks):
    text = "\ufeff" * marks + text
    outcome = _outcome(load, text)
    assert outcome == _outcome(load, text.encode("utf-8"))
    assert isinstance(outcome, str) == (marks == 2)


def test_loading_corpus_text_holds_no_parsed_copy(tmp_path):
    """Each article becomes its record as the parser reads it, so the load
    needs little memory beyond its text and the corpus it returns; parsing
    whole and then building records held every article twice, ~1.1x the
    text's length on top of the corpus."""
    text, _corpus, retained, peak = _traced_load(tmp_path)
    assert peak - retained < 0.25 * len(text)


def test_loaded_corpus_shares_its_journal_ids_and_years(tmp_path):
    """The records share one object per journal id and year, so the corpus a
    load returns stays below 1.69x its text's length: 1.49-1.67x on CPython
    3.10-3.13, against 1.71-1.91x with one object per cell."""
    text, _corpus, retained, _peak = _traced_load(tmp_path)
    assert retained < 1.69 * len(text)


SHARED_FIELDS = ("journal_id", "year")


def test_corpus_load_keeps_one_object_per_journal_id_and_year():
    """All articles of a journal hold one journal_id object, and equal years
    are one object."""
    corpus = corpus_from_json(BUNDLED_CORPUS.read_text(encoding="utf-8"))
    assert len({a.journal_id for a in corpus.articles}) > 1
    for field in SHARED_FIELDS:
        first = {}
        for article in corpus.articles:
            value = getattr(article, field)
            assert first.setdefault(value, value) is value, field
    # titles are unique by nature and not shared: each article holds its own
    titles = [a.title for a in corpus.articles]
    assert len({id(t) for t in titles}) == len(titles)


def test_corpus_loads_share_no_field_value_object():
    """The sharing table lives for one call: a second load of the same text
    builds its own objects. A missing year is None, a singleton, so it is
    skipped."""
    text = BUNDLED_CORPUS.read_text(encoding="utf-8")
    first, second = corpus_from_json(text), corpus_from_json(text)
    checked = 0
    for a, b in zip(first.articles, second.articles, strict=True):
        for field in SHARED_FIELDS:
            value = getattr(a, field)
            if value is not None:
                assert value is not getattr(b, field), field
                checked += 1
    assert checked > len(first.articles)


# --- the analysis commands' reader ------------------------------------------------


def _forms(text):
    """A corpus document as text, as bytes, and each with a byte-order mark."""
    data = text.encode("utf-8")
    return [text, data, "\ufeff" + text, b"\xef\xbb\xbf" + data]


@settings(max_examples=25, derandomize=True, deadline=None, phases=[Phase.generate])
@given(seed=st.integers(0, 2**32 - 1), journals=st.integers(6, 30))
def test_journal_cites_are_the_loaded_corpus_journals_and_visible_cites(seed, journals):
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        bench_module("workloads").write_corpus_input(seed, root, journals=journals, articles=(1, 12))
        text = (root / "corpus.json").read_text(encoding="utf-8")
    corpus = corpus_from_json(text)
    expected = (corpus.journals, visible_cites(corpus))
    # a document corpus_from_json accepts is read without it
    with mock.patch.object(ingest, "corpus_from_json", side_effect=AssertionError("handed over")):
        for content in _forms(text):
            assert journal_cites_from_json(content) == expected


def test_journal_cites_hold_no_article_record(tmp_path):
    """Only the journals and their cites outlive the read: on a 2,400-article
    bench corpus they take 0.07x the text's length, where corpus_from_json's
    records take 1.66x, and the read's peak stays below a quarter of it."""
    bench_module("workloads").write_corpus_input(3, tmp_path, journals=60, articles=(20, 60))
    text = (tmp_path / "corpus.json").read_text(encoding="utf-8")
    tracemalloc.start()
    try:
        journals, cites = journal_cites_from_json(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(journals) == 60 and sum(map(len, cites.values())) > 2000
    assert retained < 0.1 * len(text)
    assert peak < 0.25 * len(text)


_DAMAGE = [damage for damage, _says in _cli_damage_test.pytestmark[0].args[1]]


@pytest.mark.parametrize("damage", _DAMAGE, ids=[damage.__name__ for damage in _DAMAGE])
def test_journal_cites_refuse_a_damaged_corpus_as_the_corpus_load_does(damage):
    doc = json.loads(BUNDLED_CORPUS.read_text(encoding="utf-8"))
    content = damage(doc)
    content = json.dumps(doc).encode("utf-8") if content is None else content
    with pytest.raises(MalformedCorpus) as expected:
        corpus_from_json(content)
    with pytest.raises(MalformedCorpus) as got:
        journal_cites_from_json(content)
    assert str(got.value) == str(expected.value)


def _with_extra_article(doc):
    doc["extra"] = dict(doc["articles"][3], cites=1000)


def _with_article_inside_an_article(doc):
    doc["articles"][3]["extra"] = dict(doc["articles"][4], cites=1000)


def _with_null_entry_and_extra_article(doc):
    # as many articles read as the array has entries, but one entry is null
    _with_extra_article(doc)
    doc["articles"][0] = None


@pytest.mark.parametrize(
    "damage, loads",
    [
        (_with_extra_article, True),
        (_with_article_inside_an_article, True),
        (_with_null_entry_and_extra_article, False),
    ],
)
def test_an_article_outside_the_articles_array_reads_as_the_corpus_load_does(damage, loads):
    """corpus_from_json ignores keys it does not know, so an article-shaped
    object under one loads without its cites joining any journal."""
    doc = json.loads(BUNDLED_CORPUS.read_text(encoding="utf-8"))
    damage(doc)
    text = json.dumps(doc)
    if loads:
        corpus = corpus_from_json(text)
        assert 1000 not in [c for cites in visible_cites(corpus).values() for c in cites]
        assert journal_cites_from_json(text) == (corpus.journals, visible_cites(corpus))
    else:
        with pytest.raises(MalformedCorpus) as expected:
            corpus_from_json(text)
        with pytest.raises(MalformedCorpus) as got:
            journal_cites_from_json(text)
        assert str(got.value) == str(expected.value)
