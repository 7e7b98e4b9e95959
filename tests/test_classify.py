import csv
import io
import json
import pathlib
import random

import pytest

from citemetric.classify import (
    FIXED_BOUNDS,
    ClassificationRow,
    assign_quartiles,
    emit_report,
    empirical_bounds,
    rank_journals,
)
from citemetric.corpus import IbnpCategory, visible_cites
from citemetric.errors import DomainError
from citemetric.indicators import corpus_indicator_sets
from fixture_corpus import build_fixture_corpus

GOLDEN = pathlib.Path(__file__).parent / "data" / "table7_top2.md"


def _fixture_rows():
    corpus = build_fixture_corpus()
    pairs = corpus_indicator_sets(corpus.journals, visible_cites(corpus))
    return rank_journals(pairs)


def _row(rank, h, cpn, title="REVISTA", category=IbnpCategory.B, quartile=None):
    return ClassificationRow(
        rank=rank, title=title, h=h, category=category, cpn=cpn, quartile=quartile
    )


# --- ranking -------------------------------------------------------------------


def test_rank_single_journal():
    corpus = build_fixture_corpus()
    pairs = corpus_indicator_sets(corpus.journals, visible_cites(corpus))
    rows = rank_journals(pairs[:1])
    assert rows[0].rank == 1


def test_fixture_ranking_leaders():
    rows = _fixture_rows()
    assert rows[0].title == "COLOMBIA MÉDICA" and rows[0].h == 10
    assert rows[1].title == "LIVESTOCK RESEARCH FOR RURAL DEVELOPMENT" and rows[1].h == 8
    assert [r.rank for r in rows] == list(range(1, len(rows) + 1))


def test_equal_h_breaks_ties_by_normalized_citation():
    rows = _fixture_rows()
    aquichan = next(r for r in rows if r.title == "AQUICHAN")
    iatreia = next(r for r in rows if r.title == "IATREIA")
    assert aquichan.h == iatreia.h == 4
    assert aquichan.cpn > iatreia.cpn
    assert aquichan.rank < iatreia.rank


def test_missing_cpn_is_an_error():
    corpus = build_fixture_corpus()
    pairs = corpus_indicator_sets(corpus.journals, visible_cites(corpus))
    journal, indicator = pairs[0]
    broken = [(journal, indicator._replace(cpn=None))]
    with pytest.raises(DomainError, match="has no normalized citation value"):
        rank_journals(broken)


# --- quartiles -----------------------------------------------------------------


def test_fixed_mode_thresholds():
    rows = [_row(i + 1, h, 1.0) for i, h in enumerate([10, 4, 3, 2, 1, 0])]
    quartiles = [r.quartile for r in assign_quartiles(rows, FIXED_BOUNDS)]
    assert quartiles == [1, 1, 2, 3, 4, 4]


def test_fixed_mode_h_three_included_in_top_two():
    rows = assign_quartiles([_row(1, 3, 1.0)], FIXED_BOUNDS)
    report = emit_report(rows, "csv", top_quartiles=2)
    assert "REVISTA" in report


def test_fixed_mode_top_two_equals_h_at_least_three():
    rows = assign_quartiles(_fixture_rows(), FIXED_BOUNDS)
    top = {r.title for r in rows if r.quartile <= 2}
    assert top == {r.title for r in rows if r.h >= 3}
    assert len(top) == 27


def test_empirical_all_tied_goes_to_first_quartile():
    rows = [_row(i + 1, 5, 1.0) for i in range(6)]
    bounds = empirical_bounds(rows)
    assert bounds == (5, 5, 5)
    assert all(r.quartile == 1 for r in assign_quartiles(rows, bounds))


def test_empirical_distinct_values_split_evenly():
    rows = [_row(i + 1, h, 1.0) for i, h in enumerate([8, 7, 6, 5, 4, 3, 2, 1])]
    quartered = assign_quartiles(rows, empirical_bounds(rows))
    assert [r.quartile for r in quartered] == [1, 1, 2, 2, 3, 3, 4, 4]


def test_quartile_assignment_is_monotone_in_both_modes():
    rng = random.Random(13)
    for _ in range(30):
        hs = sorted((rng.randint(0, 12) for _ in range(rng.randint(1, 25))), reverse=True)
        rows = [_row(i + 1, h, 1.0) for i, h in enumerate(hs)]
        for bounds in (FIXED_BOUNDS, empirical_bounds(rows)):
            quartiles = [r.quartile for r in assign_quartiles(rows, bounds)]
            assert all(b >= a for a, b in zip(quartiles, quartiles[1:]))
            # equal h never straddles a boundary
            for a, b in zip(rows, rows[1:]):
                if a.h == b.h:
                    qa = quartiles[a.rank - 1]
                    qb = quartiles[b.rank - 1]
                    assert qa == qb


def test_bounds_must_not_increase():
    with pytest.raises(DomainError):
        assign_quartiles([_row(1, 3, 1.0)], (1, 2, 3))


# --- reports -------------------------------------------------------------------


def test_empty_rows_give_header_only_output():
    assert emit_report([], "csv") == "rank,title,h,category,cpn,quartile\n"
    md = emit_report([], "md")
    assert md.splitlines() == [
        "| rank | title | h | category | cpn | quartile |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    assert json.loads(emit_report([], "json")) == []


def test_markdown_report_matches_golden_file():
    rows = assign_quartiles(_fixture_rows(), FIXED_BOUNDS)
    assert emit_report(rows, "md", top_quartiles=2) == GOLDEN.read_bytes().decode("utf-8")


def test_markdown_first_row_layout():
    rows = assign_quartiles(_fixture_rows(), FIXED_BOUNDS)
    lines = emit_report(rows, "md", top_quartiles=2).splitlines()
    assert lines[2] == "| 1 | COLOMBIA MÉDICA | 10 | A2 | 10.35 | 1 |"
    assert len(lines) == 2 + 27


def test_markdown_escapes_pipes_and_line_breaks_in_titles():
    titles = ["Revista A | B", "Uno\nDos", "Tres\r\nCuatro", "Cinco\rSeis"]
    rows = assign_quartiles(
        [_row(rank, 5 - rank, 1.0, title=title) for rank, title in enumerate(titles, 1)],
        FIXED_BOUNDS,
    )
    lines = emit_report(rows, "md").split("\n")
    assert lines[2:] == [
        "| 1 | Revista A \\| B | 4 | B | 1.00 | 1 |",
        "| 2 | Uno Dos | 3 | B | 1.00 | 2 |",
        "| 3 | Tres Cuatro | 2 | B | 1.00 | 3 |",
        "| 4 | Cinco Seis | 1 | B | 1.00 | 4 |",
        "",
    ]
    # csv and json keep the raw title
    assert [row["title"] for row in json.loads(emit_report(rows, "json"))] == titles
    csv_rows = csv.reader(io.StringIO(emit_report(rows, "csv"), newline=""))
    assert list(csv_rows)[1][1] == "Revista A | B"


def test_report_emission_is_deterministic():
    rows = assign_quartiles(_fixture_rows(), FIXED_BOUNDS)
    for fmt in ("csv", "json", "md"):
        assert emit_report(rows, fmt) == emit_report(rows, fmt)


def test_csv_and_json_round_two_decimals():
    rows = assign_quartiles([_row(1, 4, 3.98765)], FIXED_BOUNDS)
    csv_text = emit_report(rows, "csv")
    assert "3.99" in csv_text
    doc = json.loads(emit_report(rows, "json"))
    assert doc[0]["cpn"] == 3.99
    assert set(doc[0]) == {"rank", "title", "h", "category", "cpn", "quartile"}


def test_unknown_format_is_rejected():
    with pytest.raises(DomainError):
        emit_report([], "xml")


def test_csv_report_round_trips_titles_with_line_breaks():
    """A lone carriage return is quoted like any line break on every Python
    version, so a csv reader gets each row back whole."""
    titles = ["Uno\rDos", "Tres\nCuatro", "Cinco\r\nSeis", 'Siete, "Ocho"', "Nueve\r"]
    rows = assign_quartiles(
        [_row(rank, 6 - rank, 1.0, title=title) for rank, title in enumerate(titles, 1)],
        FIXED_BOUNDS,
    )
    read = list(csv.reader(io.StringIO(emit_report(rows, "csv"), newline="")))
    assert read[0] == ["rank", "title", "h", "category", "cpn", "quartile"]
    assert [row[1] for row in read[1:]] == titles
    assert {len(row) for row in read} == {6}
