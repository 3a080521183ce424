"""Generator invariants on adversarial fact files: every question
``gen-l2`` and ``gen-l3`` write can be scored with no prediction at all,
the solver answers every one of them (EM 100), and ``reward`` gives each
of the solver's answers +1.

The fact files mix ``synth_rows`` output with the rows that have broken a
generator before: objects with no scoring tokens, objects equal under
``normalize`` (``Mayor`` and ``mayor.``), an object repeated in one group,
bare years beside months, facts still ongoing at the snapshot, and
one-fact subjects.
"""

import json
import random

import pytest

from chronoqa.cli import main
from chronoqa.scoring import normalized_key
from chronoqa.timeline import format_time

from conftest import synth_rows, time_from_month_index, write_facts

# Objects that collide under normalize, repeat, or have no scoring tokens.
EDGE_OBJECTS = ["Mayor", "mayor.", "MAYOR", "Governor", "the Governor", "Senator", "...", "The", "a"]


def point(rng: random.Random, month: int) -> str:
    """The month as text, or, one time in three, its bare year, which reads
    as January for a start and December for an end: never inside the fact."""
    if rng.random() < 1 / 3:
        return str(month // 12)
    return format_time(time_from_month_index(month))


def edge_subject(rng: random.Random, subject_id: str, relation: str) -> list[dict]:
    rows = []
    start = rng.randint(1950 * 12, 2015 * 12)
    for j in range(rng.randint(1, 7)):
        end = start + rng.randint(0, 40)
        ongoing = end >= 2022 * 12 + 10 or rng.random() < 0.1  # closed at the Nov 2022 snapshot
        rows.append({"subject": f"Edge {subject_id}", "subject_id": subject_id, "relation": relation,
                     "object": rng.choice(EDGE_OBJECTS), "object_id": f"O-{subject_id}-{j}",
                     "start": point(rng, start), "end": None if ongoing else point(rng, end)})
        if ongoing:
            break
        start = rng.choice([end, end + 1, start + rng.randint(1, 30)])  # shared, adjacent or overlapping
    return rows


def adversarial_rows(seed: int) -> list[dict]:
    rng = random.Random(f"invariants|{seed}")
    rows = synth_rows(10, relation="P39", facts_per_subject=(2, 6), seed=seed, allow_overlap=True)
    rows += synth_rows(5, relation="P54", facts_per_subject=(1, 1), seed=seed, subject_prefix="one-")
    for row in rng.sample(rows, 6):  # tokenless objects beside valid ones
        rows.append(dict(row, object=rng.choice(["...", "The", "a", "!?"]), object_id=f"{row['object_id']}-x"))
    for s in range(40):
        rows += edge_subject(rng, f"E{seed}-{s}", rng.choice(["P39", "P54"]))
    rng.shuffle(rows)
    return rows


@pytest.fixture(scope="module", params=[1, 2, 3], ids=lambda seed: f"seed-{seed}")
def adversarial_facts(request, tmp_path_factory):
    work = tmp_path_factory.mktemp(f"invariants-{request.param}")
    rows = adversarial_rows(request.param)
    write_facts(work / "facts.jsonl", rows)
    return work, rows


def test_the_fact_files_hold_every_adversarial_case(adversarial_facts):
    _, rows = adversarial_facts
    objects = {row["object"] for row in rows}
    assert {"Mayor", "mayor."} <= objects and normalized_key("Mayor") == normalized_key("mayor.")
    assert objects & {"...", "The", "a", "!?"}
    assert any(row["end"] is None for row in rows)
    assert any(len(row["start"]) == 4 for row in rows) and any(len(row["start"]) > 4 for row in rows)
    per_group: dict = {}
    for row in rows:
        per_group.setdefault((row["subject_id"], row["relation"]), []).append(row["object"])
    assert any(len(objs) == 1 for objs in per_group.values())
    assert any(len(objs) > len(set(objs)) for objs in per_group.values())


@pytest.mark.parametrize("level", ["l2", "l3"])
def test_every_generated_question_is_scored_solved_and_rewarded(adversarial_facts, monkeypatch, capsys, level):
    work, _ = adversarial_facts
    monkeypatch.chdir(work)
    assert main([f"gen-{level}", "--facts", "facts.jsonl", "--min-facts", "1", "--out-dir", level]) == 0
    questions = f"{level}/{level}_train.jsonl"
    with open(questions, encoding="utf-8") as handle:
        assert sum(1 for _ in handle) > 20
    (work / "empty.jsonl").write_text("", encoding="utf-8")
    assert main(["eval", "--questions", questions, "--predictions", "empty.jsonl"]) == 0
    assert main(["solve", "--facts", "facts.jsonl", "--questions", questions, "--out", f"{level}/preds.jsonl"]) == 0
    assert main(["eval", "--questions", questions, "--predictions", f"{level}/preds.jsonl",
                 "--out", f"{level}/report.json"]) == 0
    with open(f"{level}/report.json", encoding="utf-8") as handle:
        overall = json.load(handle)["report"]["overall"]
    assert overall["em"] == 100.0 and overall["count"] > 20
    assert main(["reward", "--questions", questions, "--predictions", f"{level}/preds.jsonl",
                 "--out", f"{level}/rewards.jsonl"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("level", ["l2", "l3"])
def test_the_solvers_answer_to_every_generated_question_gets_reward_one(adversarial_facts, monkeypatch, capsys,
                                                                        level):
    """``reward`` agrees with ``eval`` on what is correct: the solver answers
    every question right, so every reward is +1. Scoring only the first
    gold gave 0 where the solver's answer was another gold of an L2 question."""
    work, _ = adversarial_facts
    monkeypatch.chdir(work)
    out = f"{level}-reward"
    assert main([f"gen-{level}", "--facts", "facts.jsonl", "--min-facts", "1", "--out-dir", out]) == 0
    questions = f"{out}/{level}_train.jsonl"
    assert main(["solve", "--facts", "facts.jsonl", "--questions", questions, "--out", f"{out}/preds.jsonl"]) == 0
    assert main(["reward", "--questions", questions, "--predictions", f"{out}/preds.jsonl",
                 "--out", f"{out}/rewards.jsonl"]) == 0
    capsys.readouterr()
    with open(f"{out}/rewards.jsonl", encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle][1:]
    assert len(records) > 20 and {record["reward"] for record in records} == {1.0}
