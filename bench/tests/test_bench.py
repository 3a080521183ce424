"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


@pytest.fixture(autouse=True)
def repo_root(monkeypatch):
    monkeypatch.setattr(run, "ROOT", REPO)


def test_generators_are_deterministic_under_a_seed():
    assert inputs.fact_set(5, 20).text == inputs.fact_set(5, 20).text
    assert inputs.fact_set(5, 20).text != inputs.fact_set(6, 20).text
    assert inputs.doc_set(5, 50).text == inputs.doc_set(5, 50).text
    assert inputs.doc_set(5, 50).text != inputs.doc_set(6, 50).text
    questions = [{"id": f"q{i}", "answers": [f"Royal Council P39 {i} 0"], "negatives": ["City Club P39 0 1"]}
                 for i in range(200)]
    first, second = inputs.prediction_mix(5, questions, "l2"), inputs.prediction_mix(5, questions, "l2")
    assert first.text == second.text and first.labels == second.labels
    assert inputs.prediction_mix(6, questions, "l2").text != first.text


def test_fact_set_reports_its_injected_defects():
    facts = inputs.fact_set(1, 50)
    props = facts.properties
    assert props["rows"] == len(facts.text.splitlines())
    assert facts.malformed == round(props["rows"] * sum(props["share_malformed_rows"].values()))
    assert props["subjects_below_3_facts"] == sum(len(f) < 3 for f in facts.facts.values())
    assert 0.2 < props["share_overlapping_facts"] < 0.4


def test_self_time_is_span_time_minus_child_time():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("a", 5.0, 6.0, 0),
    ]
    assert tracer.self_times(spans) == {"root": 6.0, "a": 3.0, "leaf": 1.0}


def test_traced_launcher_reports_consistent_spans(tmp_path):
    summary_path = tmp_path / "summary.json"
    subprocess.run([sys.executable, str(BENCH / "tracer.py"), str(summary_path),
                    "gen-l1", "--out-dir", "out", "--count", "50", "--seed", "1"],
                   cwd=tmp_path, env=run.child_env(), check=True, capture_output=True)
    summary = json.loads(summary_path.read_text())
    assert summary["exit_code"] == 0
    names = summary["span_names"]
    spans = [(names[n], s, e, p) for n, s, e, p in summary["spans"]]
    recomputed = tracer.self_times(spans)
    for name, value in summary["self_s"].items():
        assert value == pytest.approx(recomputed[name], abs=1e-5)
    assert summary["calls"]["questions.Question.to_record"] == 50
    assert summary["counts"]["questions.gen_l1.questions"] == 50
    assert summary["counts"]["jsonl.write_jsonl.records"] == 50
    assert "facts.load_fact_file" not in summary["calls"]


def test_l1_oracle_answers_every_wording():
    assert checks.l1_answer("What is the year before 1905?") == "1904"
    assert checks.l1_answer("What is the year 3 years after 1905?") == "1908"
    assert checks.l1_answer("What is the time 1 year and 2 months before Jan 2000?") == "Nov 1998"
    assert checks.l1_answer("What is the time 5 months after Sep 2019?") == "Feb 2020"
    assert checks.l1_answer("What is the time 2 years before Mar 1950?") == "Mar 1948"


@pytest.mark.parametrize("corrupt", [False, True])
def test_corrupted_predictions_raise_failed_ops_share(tmp_path, corrupt):
    workload = run.KbScore(7, tmp_path, subjects_per_relation=12, max_subjects=10, train=60, test=20)
    ledger = run.Ledger()
    workload.prepare(ledger)
    if corrupt:
        path = tmp_path / "preds_l2.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for record in records:
            if workload.mixes["l2"].labels[record["id"]] == "gold":
                record["prediction"] = "no such office"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
    run.measure(workload, 0, False, ledger, {})
    share = len(ledger.failures) / ledger.attempted
    if corrupt:
        assert share > 0
        assert any("eval l2: EM equals the labelled gold share" in f for f in ledger.failures)
        assert any("reward l2: reward matches the label" in f for f in ledger.failures)
    else:
        assert ledger.failures == []


def test_exits_nonzero_without_sources(tmp_path):
    result = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "l1-time", "--seed", "1",
                             "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True)
    assert result.returncode != 0
    assert result.stdout == ""
