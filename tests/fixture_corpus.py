"""Deterministic test corpus for the ciencias classification table.

27 ranked journals carry engineered citation vectors that pin their h values
and per-article rates, and 56 filler journals (h at most 2) pull the area
average rate to exactly one, so every normalized citation value equals the
target to two decimals. The builders are pure functions, so the registry CSV,
the per-journal exports, and the assembled corpus are byte-reproducible.
"""

from __future__ import annotations

import csv
import importlib
import io
import sys
from pathlib import Path

from citemetric.corpus import JournalCorpus
from citemetric.ingest import (
    DedupConfig,
    build_corpus,
    deduplicate,
    parse_citation_export,
    parse_registry,
    title_similarity,
    normalize_title,
)

WINDOW = (2003, 2007)
AIR_IBNP = 100  # same registry production everywhere keeps rates exact

# (title, h, category, target rate in hundredths)
RANKED_JOURNALS = (
    ("COLOMBIA MÉDICA", 10, "A2", 1035),
    ("LIVESTOCK RESEARCH FOR RURAL DEVELOPMENT", 8, "B", 528),
    ("BIOMÉDICA", 7, "A1", 348),
    ("CALDASIA", 6, "A2", 663),
    ("INFECTIO", 6, "A2", 841),
    ("MEDUNAB", 6, "C", 338),
    ("REVISTA DE SALUD PÚBLICA", 5, "A1", 288),
    ("REVISTA COLOMBIANA DE ENTOMOLOGÍA", 4, "A1", 157),
    ("AGRONOMÍA COLOMBIANA", 4, "A2", 166),
    ("AQUICHAN", 4, "A2", 398),
    ("IATREIA", 4, "A2", 141),
    ("REVISTA COLOMBIANA DE OBSTETRICIA Y GINECOLOGÍA", 4, "A2", 80),
    ("AVANCES EN ENFERMERÍA", 4, "C", 199),
    ("BOLETÍN DE INVESTIGACIONES MARINAS Y COSTERAS", 3, "A2", 59),
    ("DYNA", 3, "A2", 44),
    ("INGENIERÍA E INVESTIGACIÓN", 3, "A2", 95),
    ("INVESTIGACIÓN Y EDUCACIÓN EN ENFERMERÍA", 3, "A2", 90),
    ("REVISTA COLOMBIANA DE CARDIOLOGÍA", 3, "A2", 167),
    ("REVISTA COLOMBIANA DE ESTADÍSTICA", 3, "A2", 166),
    ("REVISTA COLOMBIANA DE QUÍMICA", 3, "A2", 236),
    ("REVISTA GERENCIA Y POLÍTICAS DE SALUD", 3, "A2", 182),
    ("SALUD UNINORTE", 3, "A2", 329),
    ("VITAE", 3, "A2", 91),
    ("EARTH SCIENCES RESEARCH JOURNAL", 3, "B", 147),
    ("INGENIERÍA Y UNIVERSIDAD", 3, "B", 383),
    ("REVISTA EIA", 3, "B", 91),
    ("REVISTA COLOMBIANA DE BIOTECNOLOGÍA", 3, "C", 82),
)

FILLER_COUNT = 56

_LEXA = ("andes", "bosque", "cafeto", "delta", "estuario", "frailejon", "guadua")
_LEXB = ("verde", "austral", "tropical", "andino", "costero", "insular", "fluvial", "paramuno")
_LEXC = ("semilla", "clima", "suelo", "fauna", "flora", "cuenca", "paramo", "manglar", "sabana")


def _filler_plan() -> list[tuple[str, int, str, int]]:
    ranked_total = sum(cents for *_, cents in RANKED_JOURNALS)
    filler_total = 100 * (len(RANKED_JOURNALS) + FILLER_COUNT) - ranked_total
    fillers = []
    remaining = filler_total
    for i in range(FILLER_COUNT):
        cites = 17 if i < 52 else 18
        h = 1 if i % 3 == 0 else 2
        category = "B" if i % 2 == 0 else "C"
        fillers.append((f"REVISTA DEL GRUPO {i + 1:03d}", h, category, cites))
        remaining -= cites
    assert remaining == 0, f"filler cites off by {remaining}"
    return fillers


def all_journals() -> list[tuple[str, str, int, str, int]]:
    """(journal_id, title, h, category, total cites) for the full fixture."""
    rows = []
    for i, (title, h, category, cites) in enumerate(tuple(RANKED_JOURNALS) + tuple(_filler_plan())):
        rows.append((f"sci{i + 1:03d}", title, h, category, cites))
    return rows


def cites_vector(h: int, total: int) -> list[int]:
    """A citation vector with the given h index and total, plus uncited tail."""
    if h == 0:
        assert total == 0
        return [0, 0, 0]
    assert total >= h * h
    return [h + (total - h * h)] + [h] * (h - 1) + [0, 0]


def article_title(i: int) -> str:
    return f"{_LEXA[i % 7]} {_LEXB[(i // 7) % 8]} {_LEXC[(i // 56) % 9]} {i + 1:03d}"


def _export_rows(index: int, journal_title: str, h: int, total: int) -> list[list[str]]:
    rows = []
    titles = []
    for i, cites in enumerate(cites_vector(h, total)):
        title = article_title(i)
        titles.append(title)
        rows.append(
            [str(cites), f"autor {i + 1}", title, str(2003 + i % 5), journal_title, "", ""]
        )
    # distinct titles must stay clear of the similarity threshold
    normalized = [normalize_title(t) for t in titles]
    for a in range(len(normalized)):
        for b in range(a + 1, len(normalized)):
            assert title_similarity(normalized[a], normalized[b]) < 0.9
    if index % 5 == 0:
        # punctuation twin of the first article; cleaning must drop it
        rows.append(["0", "", titles[0] + ".", "2003", journal_title, "", ""])
    rows.append(["0", "", "nota editorial sin fecha", "", journal_title, "", ""])
    return rows


def registry_csv() -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        "journal_id,title,area,ibnp_category,air_ibnp,wok,scopus,redalyc,scielo,gscholar".split(",")
    )
    for index, (journal_id, title, h, category, _total) in enumerate(all_journals()):
        ranked = index < len(RANKED_JOURNALS)
        wok = 1 if title == "COLOMBIA MÉDICA" else 0
        scopus = 1 if ranked and h >= 6 else 0
        redalyc = 1 if ranked and index % 3 == 0 else 0
        scielo = 1 if (ranked and index % 2 == 0) or (not ranked and index % 4 == 0) else 0
        writer.writerow(
            [journal_id, title, "Ciencias", category, AIR_IBNP, wok, scopus, redalyc, scielo, 1]
        )
    return buffer.getvalue()


def export_csv(index: int) -> str:
    journal_id, title, h, category, total = all_journals()[index]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow("cites,authors,title,year,publication,publisher,url".split(","))
    for row in _export_rows(index, title, h, total):
        writer.writerow(row)
    return buffer.getvalue()


def write_fixture_tree(root: Path) -> tuple[Path, Path]:
    """Write registry.csv and records/<journal_id>.csv under root."""
    registry_path = root / "registry.csv"
    registry_path.write_text(registry_csv(), encoding="utf-8")
    records_dir = root / "records"
    records_dir.mkdir(exist_ok=True)
    for index, (journal_id, *_rest) in enumerate(all_journals()):
        (records_dir / f"{journal_id}.csv").write_text(export_csv(index), encoding="utf-8")
    return registry_path, records_dir


def build_fixture_corpus() -> JournalCorpus:
    """Assemble the corpus exactly as the ingest pipeline would."""
    journals = parse_registry(registry_csv())
    config = DedupConfig(window=WINDOW)
    records = {}
    for index, (journal_id, *_rest) in enumerate(all_journals()):
        parsed, lines = parse_citation_export(export_csv(index), journal_id)
        records[journal_id], _report = deduplicate(parsed, config, lines)
    return build_corpus(journals, records, WINDOW)


def bench_module(name: str):
    """Import one of the benchmark's modules from ``bench/`` at the repo root."""
    bench = str(Path(__file__).parent.parent / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    return importlib.import_module(name)
