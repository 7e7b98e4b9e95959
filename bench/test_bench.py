"""Tests of the benchmark itself: its generator, its checks, its tracer and its metric names."""

from __future__ import annotations

import json
import unicodedata
from pathlib import Path

import pytest

from checks import check_classify, check_corpus
from citemetric.cli import main as cli_main
from run import END_TO_END, per_layer_units
from spans import Tracer
from workloads import ENGLISH, SPANISH, WORKLOADS, write_registry_inputs

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_writes_same_bytes(tmp_path, name):
    WORKLOADS[name].prepare(7, tmp_path / "a")
    WORKLOADS[name].prepare(7, tmp_path / "b")
    WORKLOADS[name].prepare(8, tmp_path / "c")
    first = _tree(tmp_path / "a" / "in")
    assert first == _tree(tmp_path / "b" / "in")
    assert first != _tree(tmp_path / "c" / "in")


def test_cross_language_vocabularies_share_no_word():
    def fold(word):
        text = unicodedata.normalize("NFD", word)
        return "".join(ch for ch in text if not unicodedata.combining(ch))

    assert not {fold(w) for w in SPANISH} & {fold(w) for w in ENGLISH}


def _ingest_small(tmp_path):
    plan = write_registry_inputs(
        3, tmp_path / "in", journals=4, rows=(8, 12), lengths=(20, 40), aliases=2
    )
    out = tmp_path / "corpus.json"
    code = cli_main(
        ["ingest", "--registry", str(tmp_path / "in" / "registry.csv"),
         "--records-dir", str(tmp_path / "in" / "exports"),
         "--alias", str(tmp_path / "in" / "alias.csv"), "--out", str(out)]
    )
    assert code == 0
    return plan, out.read_bytes()


def test_corpus_check_passes_on_ingested_corpus(tmp_path):
    plan, data = _ingest_small(tmp_path)
    assert plan.twins and plan.alias_sources
    assert check_corpus(data, plan) == []


@pytest.mark.parametrize("planted", ["twins", "alias_sources"])
def test_corpus_check_fails_when_a_planted_duplicate_is_kept(tmp_path, planted):
    plan, data = _ingest_small(tmp_path)
    doc = json.loads(data)
    journal_id, row = getattr(plan, planted)[0]
    rows = [a for a in doc["articles"] if a["journal_id"] == journal_id]
    rows[row]["status"] = "Kept"
    failures = check_corpus(json.dumps(doc).encode("utf-8"), plan)
    assert any("planted" in f for f in failures)


def test_classify_check_fails_on_a_rank_gap():
    rows = ["rank,title,h,category,cpn,quartile"] + [
        f"{rank},T{rank},{9 - rank},A1,1.00,{1 + rank // 3}" for rank in range(1, 7)
    ]
    table = ("\n".join(rows) + "\n").encode("utf-8")
    assert check_classify(table, 6) == []
    gap = ("\n".join(rows[:3] + rows[4:]) + "\n").encode("utf-8")
    assert check_classify(gap, 5)
    shuffled = ("\n".join([rows[0], rows[6]] + rows[1:6]) + "\n").encode("utf-8")
    assert check_classify(shuffled, 6)


def test_self_times_add_up_to_the_root_span():
    tracer = Tracer("toy")
    tracer.begin_pass()
    inner = tracer.wrap("inner", lambda: sum(range(10_000)))
    outer = tracer.wrap("cli.main", lambda: [inner() for _ in range(3)])
    outer()
    root = tracer.spans[0]
    totals = tracer.self_times(0)
    assert totals["inner"][1] == 3
    assert sum(seconds for seconds, _ in totals.values()) == pytest.approx(root.end - root.start)
    assert tracer.self_total(0, len(tracer.spans)) == pytest.approx(root.end - root.start)


def test_printed_metric_names_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
