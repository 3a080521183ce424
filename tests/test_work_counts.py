"""Work counts: each answer string is normalized at most once per fact
group or per scoring call, and each distinct time text is parsed at most
once, however many facts or questions repeat it."""

import pytest

from chronoqa import Prediction, build_groups, ingest, scoring, timeline
from chronoqa.oracle import index_groups, solve, solve_l2, solve_l3
from chronoqa.questions import Question, gen_l1, gen_l2, gen_l3
from chronoqa.scoring import evaluate, reward_records

from conftest import l2_question_at, make_group, month_range, synth_rows, time_from_month_index


@pytest.fixture
def normalize_calls(monkeypatch):
    calls = []
    original = scoring.normalize

    def counting(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr(scoring, "normalize", counting)
    return calls


def _rows():
    rows = synth_rows(6, facts_per_subject=(5, 8), seed=77, allow_overlap=True)
    rows[4]["object"] = rows[2]["object"].upper()
    return rows


def test_gen_l2_normalizes_each_object_once(normalize_calls):
    group = make_group(synth_rows(1, facts_per_subject=(8, 8), seed=5, allow_overlap=True))
    assert len(normalize_calls) == len(group.facts)  # ingest checks each object; grouping normalizes nothing
    normalize_calls.clear()
    questions = gen_l2(group, seed=1) + gen_l2(group, seed=2) + gen_l3(group)
    questions += [l2_question_at(group, time_from_month_index(fact.start)) for fact in group.facts]
    assert len(questions) > 3 * len(group.facts)
    assert len(normalize_calls) == len(group.facts)


def test_solver_normalizes_group_objects_once(normalize_calls):
    group = make_group(synth_rows(1, facts_per_subject=(8, 8), seed=6, allow_overlap=True))
    normalize_calls.clear()  # ingest's checks
    n = len(group.facts)
    for fact in group.facts:
        for month in (fact.start, fact.end):
            solve_l2(group, month)
    assert len(normalize_calls) == n
    pivots = 0
    for fact in group.facts:
        for direction in ("before", "after"):
            solve_l3(group, fact.object, direction)
            pivots += 1
    assert len(normalize_calls) == n + pivots  # one call per pivot text, none per group object


def test_solve_dispatch_normalizes_each_group_once(normalize_calls):
    questions = [q for group in build_groups(ingest(_rows())) for q in gen_l2(group, 3) + gen_l3(group)]
    groups = build_groups(ingest(_rows()))  # fresh groups: no keys computed yet
    index = index_groups(groups)
    normalize_calls.clear()
    for question in questions:
        solve(question, index)
    l3_questions = sum(q.level == "L3" for q in questions)
    assert len(normalize_calls) == sum(len(g.facts) for g in groups) + l3_questions


def test_ingest_normalizes_each_distinct_object_once(normalize_calls):
    rows = _rows()
    for row in rows[1::3]:
        row["object"] = rows[0]["object"]
    store = ingest(rows + [dict(rows[0], start="Jull 2019")])
    assert len(store.facts) + len(store.diagnostics) == len(rows) + 1
    assert sorted(normalize_calls) == sorted({row["object"] for row in rows})


def test_scoring_normalizes_each_distinct_text_once(normalize_calls):
    questions = [q for group in build_groups(ingest(_rows())) for q in gen_l2(group, 4) + gen_l3(group)]
    predictions = [Prediction(q.id, q.answers[0] if i % 3 else q.answers[0].upper())
                   for i, q in enumerate(questions) if i % 7]
    texts = {p.prediction for p in predictions} | {""}
    for question in questions:
        texts.update(question.answers)
        texts.update(question.negatives)
    for score in (reward_records, evaluate):
        normalize_calls.clear()
        score(questions, predictions)
        assert len(normalize_calls) == len(set(normalize_calls)) <= len(texts)


@pytest.fixture
def parse_calls(monkeypatch):
    """Every ``(text, bare_year_month)`` that reaches the parser itself,
    starting from an empty memo."""
    calls = []
    original = timeline.parse_time

    def counting(text, bare_year_month=1):
        calls.append((text, bare_year_month))
        return original(text, bare_year_month)

    monkeypatch.setattr(timeline, "parse_time", counting)
    timeline.parse_month.cache_clear()
    yield calls
    timeline.parse_month.cache_clear()


def test_ingest_parses_each_distinct_time_text_once(parse_calls):
    rows = _rows()
    year = rows[1]["start"].split()[1]
    rows[1]["start"] = rows[1]["end"] = year  # one bare year: Jan as a start, Dec as an end
    rows[2]["start"] = rows[0]["start"]  # an earlier start of the same subject, repeated
    bad = [dict(rows[3], start="Jull 2019"), dict(rows[4], start="Jull 2019")]
    expected = {(row["start"], 1) for row in rows} | {(row["end"], 12) for row in rows}
    assert len(expected) < 2 * len(rows)  # texts repeat, so the memo has work to save

    store = ingest(rows + bad)
    assert len(store.facts) == len(rows)
    assert [d.message for d in store.diagnostics] == ["unrecognized month token 'Jull' in 'Jull 2019'"] * 2
    failed = [("Jull 2019", 1)] * 2  # a failure is not remembered: each bad row is parsed again
    assert sorted(parse_calls) == sorted([*expected, *failed])

    parse_calls.clear()
    assert ingest(rows + bad) == store
    assert parse_calls == failed


def test_question_records_and_l1_solver_share_the_memo(parse_calls):
    questions = gen_l1(month_range((1990, 1), (1990, 6)), 300, seed=3)
    parse_calls.clear()
    loaded = [Question.from_record(q.to_record()) for q in questions]
    assert loaded == questions
    texts = {q.to_record()["t_ref"] for q in questions}
    assert sorted(parse_calls) == sorted((text, 1) for text in texts)
    parse_calls.clear()
    for question in loaded:
        solve(question)
    # the solver re-reads each month text from the question, through the memo, and parses a bare year once
    assert parse_calls == [("1990", 1)]
