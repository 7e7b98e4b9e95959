import math
import random
import unicodedata

import pytest
from hypothesis import example, given, settings, strategies as st

from citemetric.corpus import ArticleRecord, ArticleStatus
from citemetric.errors import DomainError
from citemetric.ingest import (
    EXPORT_HEADER,
    DedupConfig,
    DedupDecision,
    DedupRule,
    _banded_levenshtein,
    _edit_budget,
    _holds_a_piece,
    _pieces,
    deduplicate,
    levenshtein,
    normalize_title,
    parse_citation_export,
    title_similarity,
)
from oracles import (
    deduplicate_reference,
    levenshtein_reference,
    normalize_title_reference,
    title_similarity_reference,
)

CONFIG = DedupConfig(window=(2003, 2007))


def _record(title, cites=0, year=2005, journal_id="j1"):
    return ArticleRecord(journal_id=journal_id, title=title, year=year, cites=cites)


def test_punctuation_variant_collapses_keeping_higher_cites():
    records = [_record("Efecto del clima", cites=5), _record("Efecto del clima.", cites=3)]
    cleaned, report = deduplicate(records, CONFIG)
    assert cleaned[0].status is ArticleStatus.KEPT
    assert cleaned[1].status is ArticleStatus.DROPPED_DUPLICATE
    decision = [d for d in report.decisions if d.rule is DedupRule.SIMILAR_TITLE][0]
    assert decision.kept_line == 2
    assert decision.dropped_lines == (3,)
    assert decision.similarity == 1.0


def test_tied_cites_keep_the_earlier_row():
    records = [_record("Efecto del clima", cites=3), _record("Efecto del clima.", cites=3)]
    cleaned, _ = deduplicate(records, CONFIG)
    assert cleaned[0].status is ArticleStatus.KEPT
    assert cleaned[1].status is ArticleStatus.DROPPED_DUPLICATE


def test_titles_in_other_scripts_are_kept_apart():
    titles = ["Физика твёрдого тела", "Биология клетки", "Ελληνική γλώσσα"]
    records = [_record(title, cites=c) for c, title in enumerate(titles, start=1)]
    cleaned, report = deduplicate(records, CONFIG)
    assert [r.status for r in cleaned] == [ArticleStatus.KEPT] * 3
    assert report.decisions == ()


def test_cyrillic_titles_one_letter_apart_collapse():
    title = "физика твердого тела"
    twin = title[:-2] + "п" + title[-1:]
    assert levenshtein(title, twin) == 1
    records = [_record(title, cites=5), _record(twin, cites=1)]
    cleaned, report = deduplicate(records, CONFIG)
    assert [r.status for r in cleaned] == [ArticleStatus.KEPT, ArticleStatus.DROPPED_DUPLICATE]
    (decision,) = report.decisions
    assert decision.similarity == 1.0 - 1 / 20
    assert decision.similarity >= CONFIG.title_threshold


def test_empty_title_missing_year_and_out_of_window_are_incomplete():
    records = [
        _record("", cites=2),
        _record("Sin fecha", year=None),
        _record("Muy viejo", year=1998),
        _record("Valido", year=2003),
    ]
    cleaned, report = deduplicate(records, CONFIG)
    statuses = [r.status for r in cleaned]
    assert statuses[:3] == [ArticleStatus.DROPPED_INCOMPLETE] * 3
    assert statuses[3] is ArticleStatus.KEPT
    assert report.rows_dropped_incomplete == 3
    assert report.rows_kept == 1


def test_cross_language_pair_is_flagged_but_kept():
    records = [
        _record("Efecto del clima en café", cites=4, year=2005),
        _record("Climate effect on coffee", cites=4, year=2005),
    ]
    cleaned, report = deduplicate(records, CONFIG)
    assert cleaned[0].status is ArticleStatus.NEEDS_REVIEW
    assert cleaned[1].status is ArticleStatus.NEEDS_REVIEW
    assert report.rows_kept == 2  # flagged rows still count as kept
    assert report.rows_flagged_review == 2
    flag = [d for d in report.decisions if d.rule is DedupRule.CROSS_LANGUAGE_SUSPECT][0]
    assert flag.dropped_lines == ()


def test_alias_confirms_cross_language_duplicate():
    config = DedupConfig(
        window=(2003, 2007),
        alias_map={"Climate effect on coffee": "Efecto del clima en café"},
    )
    records = [
        _record("Efecto del clima en café", cites=4, year=2005),
        _record("Climate effect on coffee", cites=4, year=2005),
    ]
    cleaned, report = deduplicate(records, config)
    assert cleaned[0].status is ArticleStatus.KEPT
    assert cleaned[1].status is ArticleStatus.DROPPED_DUPLICATE
    assert report.rows_dropped_duplicate == 1


def test_cross_language_pass_skips_a_row_an_alias_dropped():
    """The alias drops row 3 against row 1, so row 2 is never paired with it."""
    config = DedupConfig(window=(2003, 2007), alias_map={"Climate effect": "Efecto del clima"})
    records = [
        _record("Efecto del clima", cites=4),
        _record("Efecto de la lluvia", cites=4),
        _record("Climate effect", cites=4),
    ]
    cleaned, report = deduplicate(records, config)
    assert [r.status for r in cleaned] == [
        ArticleStatus.KEPT,
        ArticleStatus.KEPT,
        ArticleStatus.DROPPED_DUPLICATE,
    ]
    assert report.decisions == (DedupDecision(2, (4,), DedupRule.CROSS_LANGUAGE_SUSPECT),)
    assert (cleaned, report) == deduplicate_reference(records, config)


def test_shared_token_prevents_cross_language_flag():
    records = [
        _record("Estudio del clima andino", cites=2, year=2004),
        _record("Clima de la sabana", cites=2, year=2004),
    ]
    cleaned, _ = deduplicate(records, CONFIG)
    assert all(r.status is ArticleStatus.KEPT for r in cleaned)


def test_mixed_journal_batch_is_rejected():
    records = [_record("Uno"), _record("Dos", journal_id="j2")]
    with pytest.raises(DomainError, match="records span journals"):
        deduplicate(records, CONFIG)


def test_report_arithmetic_reconciles():
    records = [
        _record("Efecto del clima", cites=5),
        _record("Efecto del clima.", cites=3),
        _record("", cites=1),
        _record("Otro asunto distinto por completo", cites=2),
    ]
    _, report = deduplicate(records, CONFIG)
    assert report.rows_read == 4
    assert (
        report.rows_read
        == report.rows_kept + report.rows_dropped_incomplete + report.rows_dropped_duplicate
    )


WORDS = (
    "clima suelo fauna flora cuenca paramo manglar sabana bosque rio mar costa "
    "anden valle sierra llanura selva arrecife caverna nevado"
).split()


def _random_records(rng: random.Random) -> list[ArticleRecord]:
    records = []
    for _ in range(rng.randint(0, 25)):
        style = rng.random()
        if style < 0.15:
            title = ""  # incomplete
        else:
            title = " ".join(rng.sample(WORDS, rng.randint(1, 4)))
            if rng.random() < 0.3:
                title += rng.choice([".", ",", "!", "  "])
            if rng.random() < 0.2:
                title = title.upper()
        year = rng.choice([None, 1999, 2003, 2004, 2005, 2006, 2007, 2009])
        records.append(_record(title, cites=rng.randint(0, 20), year=year))
    return records


def test_dedup_idempotent_and_reconciled_on_random_inputs():
    rng = random.Random(20080801)
    for _ in range(200):
        records = _random_records(rng)
        cleaned, report = deduplicate(records, CONFIG)
        assert (
            report.rows_read
            == report.rows_kept + report.rows_dropped_incomplete + report.rows_dropped_duplicate
        )
        assert report.rows_flagged_review <= report.rows_kept
        survivors = [r for r in cleaned if r.status in (ArticleStatus.KEPT, ArticleStatus.NEEDS_REVIEW)]
        again, second_report = deduplicate(survivors, CONFIG)
        assert [r.status for r in again] == [r.status for r in survivors]
        assert second_report.rows_dropped_incomplete == 0
        assert second_report.rows_dropped_duplicate == 0


def test_dedup_is_deterministic():
    rng = random.Random(7)
    records = _random_records(rng)
    first = deduplicate(records, CONFIG)
    second = deduplicate(records, CONFIG)
    assert first == second


def test_levenshtein_basics():
    assert levenshtein("", "abc") == 3
    assert levenshtein("kitten", "sitting") == 3
    assert title_similarity("abcd", "abcd") == 1.0
    assert title_similarity("", "") == 1.0


def test_normalize_title_strips_accents_and_punctuation():
    assert normalize_title("  Efecto del CLIMA, en el páramo!  ") == "efecto del clima en el paramo"
    assert normalize_title("\u212bngstr\u00f6m") == "angstrom"


@pytest.mark.parametrize(
    "title, normalized",
    [
        ("Физика твёрдого тела", "физика твердого тела"),
        ("Ελληνική γλώσσα", "ελληνικη γλωσσα"),
        ("한국어 논문", unicodedata.normalize("NFD", "한국어 논문")),  # Hangul splits into jamo
        ("日本語の論文タイトル", "日本語の論文タイトル"),  # unspaced: one word
        ("हिन्दी पत्रिका", "ह नद पतर क"),  # a spacing vowel sign separates words
        ("Straße_und Weg", "straße und weg"),  # lower(), not casefold(): ß stays
    ],
    ids=["cyrillic", "greek", "hangul", "japanese", "devanagari", "eszett"],
)
def test_normalize_title_keeps_letters_of_every_script(title, normalized):
    assert normalize_title(title) == normalized


@given(st.text(max_size=60))
def test_normalize_title_is_idempotent(text):
    once = normalize_title(text)
    assert normalize_title(once) == once


@given(st.text(alphabet="aáeéiíoóuúnÑ .,;", max_size=40))
def test_normalize_title_is_case_and_accent_insensitive(text):
    assert normalize_title(text.upper()) == normalize_title(text.lower())


# combining marks, the Angstrom and Kelvin signs (U+212B lowers to a
# precomposed letter, U+212A to ASCII "k") and Hangul syllables (NFD splits
# each into jamo), mixed with ASCII and any other character
NORMALIZE_ALPHABET = st.one_of(
    st.sampled_from("aAkK .,-\t\u212b\u212aåÅñÑ한국어"),
    st.characters(min_codepoint=0x0300, max_codepoint=0x036F),
    st.characters(min_codepoint=0xAC00, max_codepoint=0xD7A3),
    st.characters(),
)


@given(st.text(alphabet=NORMALIZE_ALPHABET, max_size=40))
@example("A\u030angstrom \u212b")
@example("Kelvin \u212a")
@example("한국어 논문")
@example("e\u0301\u1ab0")
def test_normalize_title_matches_the_reference(text):
    assert normalize_title(text) == normalize_title_reference(text)


# --- equivalence with the all-pairs reference --------------------------------

# normalized lengths 25, 50, 75 and 100 sit where a budget of floor((1 - 0.92) * L)
# is one edit too strict; the last three bases share no words with each other
# or with the first, so cross-language suspects arise
BASE_TITLES = (
    "efecto del clima en cafes",
    "estudio de la fauna de los paramos andinos del sur",
    "analisis de la produccion cientifica nacional en revistas indexadas de ayer",
    "evaluacion del cultivo de arroz en la cuenca alta del rio magdalena durante "
    "la temporadas seca anual",
    "climate change and coffee yields",
    "soil microbes under drought",
    "urban heat islands",
)
EDIT_ALPHABET = "abcdeilmnorsz áéíñ.,-"
# the same roles in Cyrillic and Greek: two boundary lengths (25 and 50) and
# bases that share no words
OTHER_SCRIPT_TITLES = (
    "физика твердого тела 1990",
    "история науки и техники в странах восточной европы",
    "ελληνική γλώσσα",
    "βιολογία των κυττάρων",
)
OTHER_SCRIPT_EDIT_ALPHABET = "абвгдеёийклнорст ΑαβγλοσςώΣ.,-"
PUNCTUATION_ONLY = ("...", "¡!", " - ", "¿?", "")


def test_base_titles_have_the_boundary_lengths():
    lengths = [len(normalize_title(t)) for t in BASE_TITLES[:4]]
    assert lengths == [25, 50, 75, 100]


def test_other_script_titles_have_the_boundary_lengths():
    assert [len(normalize_title(t)) for t in OTHER_SCRIPT_TITLES[:2]] == [25, 50]


def _substituted(title, positions):
    chars = list(title)
    for pos in positions:
        chars[pos] = "x" if chars[pos] != "x" else "y"
    return "".join(chars)


@st.composite
def _variant(draw, source, alphabet=EDIT_ALPHABET):
    """source with 0-4 single-character edits, sometimes as a case, accent or punctuation twin."""
    chars = list(source)
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(["substitute", "substitute", "insert", "delete"]))
        pos = draw(st.integers(0, max(len(chars) - 1, 0)))
        if edit == "insert" or not chars:
            chars.insert(pos, draw(st.sampled_from(alphabet)))
        elif edit == "delete":
            del chars[pos]
        else:
            chars[pos] = draw(st.sampled_from(alphabet))
    title = "".join(chars)
    twin = draw(st.sampled_from(["none", "none", "upper", "accent", "punctuation"]))
    if twin == "upper":
        title = title.upper()
    elif twin == "accent":
        title = title.replace("e", "é").replace("a", "á")
    elif twin == "punctuation":
        title = title.replace(" ", ", ", 1) + "."
    return title


def _budget(length, threshold):
    """Largest distance the threshold allows, straight from its definition."""
    return max(d for d in range(length + 1) if 1.0 - d / length >= threshold)


@pytest.mark.parametrize("threshold", [0.3, 0.5, 0.8, 0.9, 0.92, 0.96, 1.0])
def test_edit_budget_is_the_largest_distance_the_threshold_allows(threshold):
    assert _edit_budget(0, threshold) == 0
    for length in range(1, 301):
        assert _edit_budget(length, threshold) == _budget(length, threshold)


@given(st.text(alphabet="abc ", max_size=14), st.text(alphabet="abc ", max_size=14), st.integers(0, 6))
def test_banded_levenshtein_is_exact_within_its_band(a, b, k):
    distance = levenshtein_reference(a, b)
    banded = _banded_levenshtein(a, b, k)
    if distance <= k:
        assert banded == distance
    else:
        assert banded > k


@given(st.text(alphabet="abc ", max_size=20), st.text(alphabet="abc ", max_size=20))
def test_levenshtein_matches_the_reference(a, b):
    assert levenshtein(a, b) == levenshtein_reference(a, b)


@given(
    st.one_of(
        st.tuples(st.text(alphabet="abc ", max_size=20), st.text(alphabet="abc ", max_size=20)),
        # disjoint alphabets: the distance is the longer length, so the band
        # widens until k reaches it
        st.tuples(st.text(alphabet="abc", max_size=60), st.text(alphabet="xyz", max_size=60)),
    )
)
@example(("", ""))
@example(("", "abc"))
@example(("a" * 60, "x" * 60))
@example(("a" * 37, "x" * 60))
def test_title_similarity_matches_the_reference(pair):
    a, b = pair
    assert title_similarity(a, b) == title_similarity_reference(a, b)


@st.composite
def _pair_within_edits(draw, alphabet="ab c"):
    """(a, b, k): b a title, k below its length, a b with at most k edits;
    the longer of the two comes second, as the sweep compares them."""
    b = draw(st.text(alphabet=alphabet, min_size=1, max_size=16))
    k = draw(st.integers(0, len(b) - 1))
    chars = list(b)
    for _ in range(draw(st.integers(0, k))):
        edit = draw(st.sampled_from(["substitute", "insert", "delete"]))
        pos = draw(st.integers(0, len(chars)))
        if edit == "insert":
            chars.insert(pos, draw(st.sampled_from(alphabet + "x")))
        elif pos < len(chars):
            if edit == "delete":
                del chars[pos]
            else:
                chars[pos] = draw(st.sampled_from(alphabet + "x"))
    a = "".join(chars)
    return (b, a, k) if len(a) > len(b) else (a, b, k)


@settings(max_examples=500)
@given(_pair_within_edits())
@example(("abcefgh", "abcdefgh", 1))  # deletion on the boundary of "abcd" and "efgh"
@example(("abxyefghi", "abcdefghi", 2))  # substitutions either side of a boundary
@example(("abcdefgh", "xabcdefgh", 1))  # insertion at the start
@example(("abcdefgh", "abcdefghx", 1))  # insertion at the end
@example(("abcdefgh", "abcdefgh", 0))  # k = 0: the one piece is the whole title
@example(("xxxd", "abcd", 3))  # one-character pieces, k + 1 = len(b)
@example(("dabc", "abcd", 2))  # a rotation, distance 2
def test_piece_filter_keeps_every_pair_within_the_budget(case):
    a, b, k = case
    assert len(_pieces(b, k)) == k + 1
    assert "".join(piece for piece, _, _ in _pieces(b, k)) == b
    if levenshtein_reference(a, b) <= k:
        assert _holds_a_piece(a, _pieces(b, k))


@settings(max_examples=200)
@given(_pair_within_edits("бвёλσ "))
def test_piece_filter_keeps_every_pair_within_the_budget_in_cyrillic_and_greek(case):
    a, b, k = case
    if levenshtein_reference(a, b) <= k:
        assert _holds_a_piece(a, _pieces(b, k))


def test_piece_filter_drops_pairs_with_no_piece_in_place():
    # k = 0 keeps only an equal title; a piece found outside its window is no match
    assert not _holds_a_piece("abcdefgx", _pieces("abcdefgh", 0))
    assert not _holds_a_piece("efghabcd", _pieces("abcdefgh", 1))
    assert _holds_a_piece("efghabcd", _pieces("abcdefgh", 4))


@st.composite
def _boundary_twin(draw, base, threshold):
    """base with budget - 1, budget or budget + 1 substitutions at distinct positions."""
    count = _budget(len(base), threshold) + draw(st.sampled_from([-1, 0, 0, 1]))
    count = min(max(count, 0), len(base))
    positions = st.integers(0, len(base) - 1)
    return _substituted(base, draw(st.lists(positions, min_size=count, max_size=count, unique=True)))


@st.composite
def _dedup_cases(draw, base_titles=BASE_TITLES, alphabet=EDIT_ALPHABET):
    # a few bases per case, and variants of earlier variants, so near-duplicate
    # groups, chains of pairs and shared (year, cites) buckets are common
    threshold = draw(st.sampled_from([0.5, 0.8, 0.9, 0.92, 0.96, 1.0]))
    bases = draw(st.lists(st.sampled_from(base_titles), min_size=1, max_size=3, unique=True))
    titles = list(bases)  # the bases are rows too, so boundary twins meet their base
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["punctuation", "boundary", "boundary", "variant", "variant"]))
        if kind == "punctuation":
            titles.append(draw(st.sampled_from(PUNCTUATION_ONLY)))
        elif kind == "boundary":
            titles.append(draw(_boundary_twin(draw(st.sampled_from(bases)), threshold)))
        else:
            titles.append(draw(_variant(draw(st.sampled_from(titles)), alphabet)))
    titles = draw(st.permutations(titles))
    records = [
        _record(
            title,
            cites=draw(st.sampled_from([0, 0, 0, 1])),
            year=draw(st.sampled_from([2005, 2005, 2005, 2005, 2006, None, 2009])),
        )
        for title in titles
    ]
    alias_map = {}
    if records and draw(st.booleans()):
        titles = [r.title for r in records]
        pairs = draw(st.lists(st.tuples(st.sampled_from(titles), st.sampled_from(titles)), max_size=3))
        # deduplicate refuses keys that normalize alike but name different
        # titles, so a later key that would disagree with an earlier one is left out
        targets = {}
        for key, target in pairs:
            if targets.setdefault(normalize_title(key), normalize_title(target)) == normalize_title(target):
                alias_map[key] = target
    return records, DedupConfig(window=(2003, 2007), title_threshold=threshold, alias_map=alias_map)


@settings(deadline=None, max_examples=200)
@given(_dedup_cases())
def test_dedup_matches_the_all_pairs_reference(case):
    records, config = case
    cleaned, report = deduplicate(records, config)
    expected_cleaned, expected_report = deduplicate_reference(records, config)
    assert [r.status for r in cleaned] == [r.status for r in expected_cleaned]
    assert report == expected_report  # counts, decision order and similarity floats


@settings(deadline=None, max_examples=100)
@given(_dedup_cases(OTHER_SCRIPT_TITLES, OTHER_SCRIPT_EDIT_ALPHABET))
def test_dedup_matches_the_all_pairs_reference_in_cyrillic_and_greek(case):
    records, config = case
    cleaned, report = deduplicate(records, config)
    expected_cleaned, expected_report = deduplicate_reference(records, config)
    assert [r.status for r in cleaned] == [r.status for r in expected_cleaned]
    assert report == expected_report


@pytest.mark.parametrize("title, budget", [(BASE_TITLES[0], 2), (BASE_TITLES[3], 8)])
def test_similarity_boundary_collapses_at_the_exact_budget(title, budget):
    # 1 - 2/25 and 1 - 8/100 reach 0.92, where floor((1 - 0.92) * L) allows one edit less
    for distance, collapses in ((budget, True), (budget + 1, False)):
        twin = _substituted(title, range(0, 2 * distance, 2))
        assert levenshtein(title, twin) == distance
        records = [_record(title, cites=5), _record(twin, cites=1)]
        cleaned, report = deduplicate(records, CONFIG)
        dropped = cleaned[1].status is ArticleStatus.DROPPED_DUPLICATE
        assert dropped is collapses
        assert report == deduplicate_reference(records, CONFIG)[1]


def test_chained_group_reports_the_full_winner_distance():
    a = BASE_TITLES[0]
    b = _substituted(a, (0, 4))
    c = _substituted(b, (8, 12))
    assert title_similarity(a, b) >= 0.92 and title_similarity(b, c) >= 0.92
    assert title_similarity(a, c) < 0.92
    records = [_record(a, cites=9), _record(b, cites=1), _record(c, cites=2)]
    cleaned, report = deduplicate(records, CONFIG)
    assert [r.status for r in cleaned] == [
        ArticleStatus.KEPT,
        ArticleStatus.DROPPED_DUPLICATE,
        ArticleStatus.DROPPED_DUPLICATE,
    ]
    (decision,) = report.decisions
    assert decision.similarity == 1.0 - 4 / 25
    assert decision.similarity == deduplicate_reference(records, CONFIG)[1].decisions[0].similarity


def test_decision_lines_follow_the_export_past_blank_lines():
    content = (
        EXPORT_HEADER
        + "\n3,,Efecto del clima,2005,,,"
        + "\n"  # blank line 3
        + "\n5,,Suelos del paramo,2005,,,"
        + "\n2,,Suelos del páramo.,2005,,,"
        + "\n1,,Sin fecha,,,,\n"
    )
    records, lines = parse_citation_export(content, "j1")
    assert lines == [2, 4, 5, 6]
    assert records[0] == _record("Efecto del clima", cites=3)
    _, report = deduplicate(records, CONFIG, lines)
    incomplete, similar = report.decisions
    assert incomplete.dropped_lines == (6,)
    assert (similar.kept_line, similar.dropped_lines) == (4, (5,))


def test_decision_lines_follow_the_export_past_a_multi_line_cell():
    content = (
        EXPORT_HEADER
        + '\n3,"Smith,\nJ",Efecto del clima,2005,,,'  # one record on lines 2-3
        + "\n5,,Suelos del paramo,2005,,,"
        + "\n2,,Suelos del páramo.,2005,,,\n"
    )
    records, lines = parse_citation_export(content, "j1")
    assert lines == [2, 4, 5]
    assert records[0].authors == "Smith,\nJ"
    _, report = deduplicate(records, CONFIG, lines)
    (similar,) = report.decisions
    assert (similar.kept_line, similar.dropped_lines) == (4, (5,))


@pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, math.nan, math.inf])
def test_dedup_config_rejects_threshold_outside_unit_interval(threshold):
    with pytest.raises(DomainError, match="title threshold must lie in"):
        deduplicate([_record("Nota")], DedupConfig(title_threshold=threshold))


def test_deduplicate_refuses_line_numbers_of_another_length():
    with pytest.raises(DomainError, match="2 records but 1 line numbers"):
        deduplicate([_record("Nota"), _record("Otra nota")], CONFIG, [2])
