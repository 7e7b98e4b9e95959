"""Seeded input generator and the three benchmark workloads.

Every input is a pure function of the seed: the same seed writes the same
bytes. The seed decides titles, cites, years, memberships and which rows are
planted; the size profile (rows per journal, title lengths, how many rows of
each kind) is a fixed multiset that the seed only shuffles, so one seed costs
the program the same work as another and timings compare across seeds.

The program under test receives only the registry CSV, the per-journal
exports, the alias CSV or the corpus JSON. The plan of planted rows stays in
the benchmark (and in ``manifest.json`` beside the inputs, for inspection).
"""

from __future__ import annotations

import csv
import io
import json
import random
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

WINDOW = (2003, 2007)
AREA = "ciencias"  # every analysis command runs on this area
CIENCIAS, SOCIALES = "Ciencias", "CienciasSociales"
CATEGORIES = ("A1", "A2", "B", "C")
LIBRARIES = ("WoK", "Scopus", "Redalyc", "Scielo", "GoogleScholar")
LIBRARY_SHARE = (0.15, 0.2, 0.4, 0.5, 0.9)
CORRELATE_VARS = "air_ibnp_log10,air_ga_log10,pi_ld,cr_ga_log10,ca_mean,h"

REGISTRY_HEADER = (
    "journal_id", "title", "area", "ibnp_category", "air_ibnp",
    "wok", "scopus", "redalyc", "scielo", "gscholar",
)
EXPORT_HEADER = ("cites", "authors", "title", "year", "publication", "publisher", "url")

SPANISH = (
    "análisis", "producción", "científica", "evaluación", "estudio", "efecto",
    "población", "comunidad", "región", "atlántica", "andina", "caribe",
    "colombiana", "nacional", "rural", "urbana", "agrícola", "bovina",
    "porcina", "calidad", "agua", "suelo", "cultivo", "café", "maíz", "arroz",
    "plátano", "yuca", "niños", "mujeres", "adultos", "pacientes", "hospital",
    "salud", "pública", "enfermería", "cuidado", "atención", "diagnóstico",
    "tratamiento", "infección", "parásitos", "bacterias", "hongos", "plantas",
    "especies", "diversidad", "bosque", "páramo", "río", "cuenca", "costera",
    "marina", "peces", "aves", "insectos", "química", "síntesis", "compuestos",
    "ingeniería", "diseño", "modelo", "método", "sistema", "redes", "control",
    "energía", "materiales", "concreto", "acero", "estructuras", "resistencia",
    "estadística", "regresión", "muestra", "encuesta", "factores", "riesgo",
    "prevalencia", "incidencia", "mortalidad", "nutrición", "alimentos",
    "leche", "carne", "sangre", "genética", "molecular", "celular", "tejido",
    "crecimiento", "desarrollo", "variación", "temporal", "espacial", "del",
    "de", "la", "en", "los", "las", "para", "con", "entre", "sobre", "y",
)
ENGLISH = (
    "analysis", "assessment", "study", "effect", "effects", "population",
    "community", "area", "water", "soil", "crop", "coffee", "corn", "rice",
    "children", "women", "adults", "patients", "health", "nursing", "care",
    "diagnosis", "treatment", "infection", "bacteria", "fungi", "plants",
    "species", "forest", "river", "basin", "coastal", "fish", "birds",
    "insects", "chemistry", "synthesis", "compounds", "engineering", "design",
    "method", "networks", "energy", "steel", "structures", "strength",
    "statistics", "sample", "survey", "risk", "prevalence", "mortality",
    "nutrition", "food", "milk", "meat", "blood", "genetics", "cellular",
    "growth", "seasonal", "spatial", "of", "the", "in", "for", "with", "and",
    "among", "on", "from", "toward", "under",
)


def _spread(low: int, high: int, count: int) -> list[int]:
    """``count`` integers evenly spread over [low, high], ends included."""
    if count == 1:
        return [(low + high) // 2]
    return [low + round((high - low) * k / (count - 1)) for k in range(count)]


def _title(rng: random.Random, length: int, words=SPANISH) -> str:
    parts: list[str] = []
    while sum(len(p) + 1 for p in parts) <= length:
        parts.append(rng.choice(words))
    text = " ".join(parts)[:length].rstrip()
    return text[0].upper() + text[1:]


def _twin_title(rng: random.Random, title: str) -> str:
    """A variant that normalizes to the same text: accents, case or punctuation."""
    folded = "".join(
        ch for ch in unicodedata.normalize("NFD", title) if not unicodedata.combining(ch)
    )
    kind = rng.randrange(3)
    if kind == 0 and folded != title:
        return folded
    if kind == 1:
        return title.upper()
    words = title.split(" ")
    cut = rng.randrange(1, len(words)) if len(words) > 1 else 1
    return " ".join(words[:cut]) + ": " + " ".join(words[cut:]) + "."


def _cites(rng: random.Random) -> int:
    if rng.random() < 0.5:
        return 0
    return min(45, 1 + int(rng.expovariate(1 / 6)))


@dataclass(eq=False)
class Row:
    title: str
    year: Optional[int]
    cites: int
    twin: bool = False
    alias_source: bool = False

    def cells(self, rng: random.Random, serial: int) -> list:
        author = rng.choice(("Gómez", "Pérez", "Rodríguez", "Martínez", "López", "Díaz"))
        return [
            self.cites,
            f"{author} A; {rng.choice(('Ruiz', 'Mora', 'Castro', 'Vargas'))} B",
            self.title,
            "" if self.year is None else self.year,
            "Revista",
            "Universidad Nacional",
            f"http://journal.invalid/a/{serial}",
        ]


@dataclass
class Journal:
    journal_id: str
    title: str
    area: str
    category: str
    memberships: tuple
    air_ibnp: int
    rows: list = field(default_factory=list)


@dataclass
class Plan:
    """What the benchmark knows about its inputs; the program never sees it."""

    rows: int
    area_journals: int
    rows_by_journal: dict = field(default_factory=dict)
    twins: list = field(default_factory=list)  # (journal_id, 0-based export row)
    alias_sources: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=1, sort_keys=True) + "\n"


def _registry(rng: random.Random, sizes: list, sociales_share: float) -> list:
    """Journals with a category and library mix that keeps every group at two or more."""
    n_soc = round(len(sizes) * sociales_share)
    areas = [SOCIALES] * n_soc + [CIENCIAS] * (len(sizes) - n_soc)
    journals = []
    for index, (size, area) in enumerate(zip(sizes, areas)):
        journals.append(
            Journal(
                journal_id=f"J{index + 1:04d}",
                title=f"REVISTA {_title(rng, 18).upper()} {index + 1}",
                area=area,
                category="",
                memberships=(),
                air_ibnp=rng.randint(max(1, size // 2), 2 * size + 5),
            )
        )
    for area in (CIENCIAS, SOCIALES):
        members = [j for j in journals if j.area == area]
        categories = [CATEGORIES[k % 4] for k in range(len(members))]
        rng.shuffle(categories)
        forced = {
            lib: set(rng.sample(range(len(members)), min(2, len(members)))) for lib in LIBRARIES
        }
        for k, journal in enumerate(members):
            journal.category = categories[k]
            journal.memberships = tuple(
                lib
                for lib, share in zip(LIBRARIES, LIBRARY_SHARE)
                if k in forced[lib] or rng.random() < share
            )
    return journals


def _export_rows(rng: random.Random, size: int, lengths: tuple) -> list:
    """``size`` rows: about 5% planted twins and 3% without a year."""
    n_twins = round(size * 0.05)
    n_no_year = round(size * 0.03)
    originals = [
        Row(
            title=_title(rng, length, ENGLISH if rng.random() < 0.25 else SPANISH),
            year=rng.randint(*WINDOW),
            cites=_cites(rng),
        )
        for length in rng.sample(_spread(*lengths, size - n_twins), size - n_twins)
    ]
    order = list(range(len(originals)))
    rng.shuffle(order)
    for k in order[n_twins : n_twins + n_no_year]:
        originals[k].year = None
    rows = list(originals)
    for k in order[:n_twins]:
        source = originals[k]
        twin = Row(_twin_title(rng, source.title), source.year, rng.randint(0, source.cites), True)
        rows.insert(rng.randint(rows.index(source) + 1, len(rows)), twin)
    return rows


def _plant_alias(rng: random.Random, journal: Journal, serial: int) -> tuple:
    """A Spanish row and its English translation with a (year, cites) no other row has."""
    year, cites = rng.randint(*WINDOW), 60 + serial
    source = Row(_title(rng, 40, SPANISH), year, cites, alias_source=True)
    target = Row(_title(rng, 40, ENGLISH), year, cites)
    for row in (source, target):
        journal.rows.insert(rng.randint(0, len(journal.rows)), row)
    return source.title, target.title


def _csv_bytes(header, rows) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def write_registry_inputs(
    seed: int, root: Path, journals: int, rows: tuple, lengths: tuple, aliases: int
) -> Plan:
    """Write registry.csv, exports/<id>.csv and (with aliases) alias.csv under root."""
    rng = random.Random(seed)
    sizes = _spread(*rows, journals)
    rng.shuffle(sizes)
    registry = _registry(rng, sizes, sociales_share=1 / 3)
    for journal, size in zip(registry, sizes):
        journal.rows = _export_rows(rng, size, lengths)
    alias_pairs = [
        _plant_alias(rng, journal, serial)
        for serial, journal in enumerate(rng.sample(registry, aliases))
    ]

    exports = root / "exports"
    exports.mkdir(parents=True, exist_ok=True)
    plan = Plan(rows=0, area_journals=sum(j.area == CIENCIAS for j in registry))
    serial = 0
    for journal in registry:
        cells = []
        for index, row in enumerate(journal.rows):
            cells.append(row.cells(rng, serial))
            serial += 1
            if row.twin:
                plan.twins.append((journal.journal_id, index))
            if row.alias_source:
                plan.alias_sources.append((journal.journal_id, index))
        (exports / f"{journal.journal_id}.csv").write_bytes(_csv_bytes(EXPORT_HEADER, cells))
        plan.rows_by_journal[journal.journal_id] = len(journal.rows)
    plan.rows = serial
    (root / "registry.csv").write_bytes(
        _csv_bytes(
            REGISTRY_HEADER,
            [
                [j.journal_id, j.title, j.area, j.category, j.air_ibnp]
                + [int(lib in j.memberships) for lib in LIBRARIES]
                for j in registry
            ],
        )
    )
    if aliases:
        (root / "alias.csv").write_bytes(_csv_bytes(("from_title", "to_title"), alias_pairs))
    (root / "manifest.json").write_text(plan.to_json(), encoding="utf-8")
    return plan


_WIDE_STATUSES = ("DroppedIncomplete", "DroppedDuplicate", "NeedsReview")


def write_corpus_input(seed: int, root: Path, journals: int, articles: tuple) -> Plan:
    """Write corpus.json directly: no ingest, so no dedup, runs on this input."""
    rng = random.Random(seed)
    sizes = _spread(*articles, journals)
    rng.shuffle(sizes)
    registry = _registry(rng, sizes, sociales_share=1 / 3)
    docs = []
    for journal, size in zip(registry, sizes):
        for length in rng.sample(_spread(20, 60, size), size):
            status = "Kept" if rng.random() < 0.85 else rng.choice(_WIDE_STATUSES)
            year = rng.randint(*WINDOW)
            if status == "DroppedIncomplete":
                year = None
            row = Row(_title(rng, length), year, _cites(rng))
            cites, authors, title, _, publication, publisher, url = row.cells(rng, len(docs))
            docs.append(
                {
                    "journal_id": journal.journal_id,
                    "title": title,
                    "year": year,
                    "cites": cites,
                    "authors": authors,
                    "publication": publication,
                    "publisher": publisher,
                    "url": url,
                    "status": status,
                }
            )
    corpus = {
        "window": list(WINDOW),
        "journals": [
            {
                "journal_id": j.journal_id,
                "title": j.title,
                "area": j.area,
                "category": j.category,
                "memberships": list(j.memberships),
            }
            for j in registry
        ],
        "articles": docs,
        "ibnp_totals": {j.journal_id: j.air_ibnp for j in registry},
    }
    root.mkdir(parents=True, exist_ok=True)
    text = json.dumps(corpus, ensure_ascii=False, indent=2) + "\n"
    (root / "corpus.json").write_bytes(text.encode("utf-8"))
    plan = Plan(rows=len(docs), area_journals=sum(j.area == CIENCIAS for j in registry))
    (root / "manifest.json").write_text(plan.to_json(), encoding="utf-8")
    return plan


def analysis_commands(corpus: str, out: str) -> list:
    """(label, argv) of the six commands downstream of ingest, compare twice."""
    area = ["--corpus", corpus, "--area", AREA]
    return [
        ("indicators", ["indicators", *area, "--out", f"{out}/indicators.csv"]),
        ("compare_category", ["compare", *area, "--by", "category", "--method", "anova",
                              "--out", f"{out}/compare_category.json"]),
        ("compare_library", ["compare", *area, "--by", "library", "--method", "kw",
                             "--out", f"{out}/compare_library.json"]),
        ("correlate", ["correlate", *area, "--vars", CORRELATE_VARS,
                       "--out", f"{out}/correlate.json"]),
        ("factor", ["factor", *area, "--out", f"{out}/factor.json"]),
        ("regress", ["regress", *area, "--out", f"{out}/regress.json"]),
        ("classify", ["classify", *area, "--out", f"{out}/classify.csv"]),
    ]


def ingest_command(root: str, out: str, alias: bool) -> tuple:
    argv = ["ingest", "--registry", f"{root}/registry.csv", "--records-dir", f"{root}/exports"]
    if alias:
        argv += ["--alias", f"{root}/alias.csv"]
    return ("ingest", argv + ["--out", f"{out}/corpus.json"])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str

    def prepare(self, seed: int, root: Path) -> tuple:
        """Write the inputs under root/in; return (plan, [(label, argv)])."""
        inputs, out = root / "in", root / "out"
        out.mkdir(parents=True, exist_ok=True)
        if self.name == "ingest_dense":
            plan = write_registry_inputs(seed, inputs, journals=3, rows=(36, 44),
                                         lengths=(50, 110), aliases=0)
            return plan, [ingest_command(str(inputs), str(out), alias=False)]
        if self.name == "analyze_wide":
            plan = write_corpus_input(seed, inputs, journals=600, articles=(20, 60))
            return plan, analysis_commands(str(inputs / "corpus.json"), str(out))
        plan = write_registry_inputs(seed, inputs, journals=80, rows=(3, 25),
                                     lengths=(20, 60), aliases=6)
        return plan, [ingest_command(str(inputs), str(out), alias=True)] + analysis_commands(
            str(out / "corpus.json"), str(out)
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ingest_dense",
            "ingest alone on journals with long exports: isolates the quadratic similar-title pass",
        ),
        Workload(
            "analyze_wide",
            "six analysis commands on a ready corpus: no dedup runs, so corpus read, "
            "per-journal scan and indicator pass dominate",
        ),
        Workload(
            "paper_scale",
            "the full pipeline a user of the paper's registry runs: every layer executes",
        ),
    )
}
