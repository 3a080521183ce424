"""The fixed-order line encoders write exactly the bytes ``jsonl.dumps``
writes for the same record, on generated questions, rendered examples and
masked documents, and on hand-built records that touch every JSON escape
rule."""

import json
import random
from itertools import product

import pytest

from chronoqa.cli import main
from chronoqa.contexts import AnnotatedDocument, RenderedExample, mask_corpus, masked_line, render, rendered_line
from chronoqa.jsonl import dumps
from chronoqa.questions import _l1_renderer, gen_l1, gen_l1_future, gen_l2, gen_l3, l1_questions
from chronoqa.records import record_line
from chronoqa.scoring import Prediction, RewardRecord, prediction_line, reward_line, reward_records, score_f1
from chronoqa.templates import RelativeTimeTemplate, TemplateTable, load_templates
from chronoqa.timeline import DIRECTIONS

from conftest import ESCAPES, make_group, month_range, random_doc, synth_rows


def _generated_records():
    templates = load_templates()
    questions = l1_questions(gen_l1(month_range((1890, 1), (2030, 12)), 300, 3, templates=templates), "train")
    questions += l1_questions(gen_l1(month_range((1, 1), (5, 12)), 300, 4, split="dev", templates=templates), "dev")
    for seed in (11, 12, 13):
        group = make_group(seed)
        questions += gen_l2(group, seed, templates=templates) + gen_l3(group, split="test", templates=templates)
    return [question.to_record() for question in questions]


def test_generated_questions_encode_as_dumps():
    records = _generated_records()
    template_ids = {record["template_id"] for record in records}
    assert {"l1_year_before", "l1_time_ym_after", "P39_l2"} <= template_ids  # year, month and L2 templates
    assert {record["level"] for record in records} == {"L1", "L2", "L3"}
    assert any(record["t_ref"] == "1" or record["t_ref"].endswith(" 1") for record in records
               if record["level"] == "L1")  # near year 1
    for record in records:
        assert record_line(record) == dumps(record)


def every_l1_draw(templates, time_range):
    """Every draw of ``time_range`` whose answer falls in year 1 or later, in
    the ``(position, direction, t_index, x, y)`` form ``gen_l1`` returns."""
    first, last = time_range
    for position, template in enumerate(templates.l1):
        slots = range(first - first % 12, last + 1, 12) if template.granularity == "year" else range(first, last + 1)
        xs = range(1, 11) if template.uses_years() else (0,)
        ys = range(1, 12) if template.uses_months() else (0,)
        for draw in product([position], DIRECTIONS, slots, xs, ys):
            if draw[1] == "after" or draw[2] - 12 * draw[3] - draw[4] >= 12:
                yield draw


# The packaged wordings, and wordings with every escape rule at each end of <t>.
_ESCAPED_L1 = TemplateTable(1, [
    RelativeTimeTemplate(f"{ESCAPES} year", "year", f"{ESCAPES}<x> year(s) before <t>", f"<t>{ESCAPES}<x> year(s)",
                         f"<t> {ESCAPES}", f"{ESCAPES}<t>"),
    RelativeTimeTemplate('m"\\', "month", f"<x> year(s) <y> month(s) {ESCAPES}<t>{ESCAPES}", "<x> <y> <t>"),
], {})


@pytest.mark.parametrize("templates", [load_templates(), _ESCAPED_L1], ids=["packaged", "escaped"])
@pytest.mark.parametrize("time_range, split", [(month_range((1, 1), (5, 12)), "dev"),
                                               (month_range((1998, 11), (2001, 2)), ESCAPES)],
                         ids=["years-1-5", "four-digit-years"])
def test_l1_lines_are_the_lines_of_their_questions(templates, time_range, split):
    """The renderer's line view writes, for every draw of an enumerated
    space (the one-year wordings among them: each x = 1 year draw), the
    bytes ``dumps`` writes for its question view's record."""
    views = _l1_renderer(templates, split)
    template_ids = set()
    for i, draw in enumerate(every_l1_draw(templates, time_range)):
        n = 97 * i  # ids of one to seven digits
        question = views.question(draw, n)
        assert views.line(draw, n) == dumps(question.to_record())
        template_ids.add(question.template_id)
    assert len(template_ids) == len(DIRECTIONS) * len(templates.l1)


def test_gen_l1_future_writes_the_lines_of_its_questions(tmp_path, monkeypatch, capsys):
    """The future set, written from the line view, has the bytes of the
    records of its questions, under template texts that need escapes."""
    monkeypatch.chdir(tmp_path)
    texts = '"quoted" \\ back\tslash Zürich 東京 \U0001F600'
    table = {"l1": [{"id": f'l1 "{texts}"', "granularity": "year", "before": f"<x> year(s) {texts} <t>?",
                     "after": f"{texts}<t>, <x> year(s)", "before_one": f"{texts}<t>", "after_one": f"<t>{texts}"},
                    {"id": "l1_m", "granularity": "month", "before": f"<t>{texts}<y> month(s)",
                     "after": f"<y> month(s)\t{texts}<t>"}],
             "relations": {"P39": {"name": "position", "l2": "<subject> <t>", "l3_before": "<subject> <o_j>",
                                   "l3_after": "<subject> <o_j>", "phrase": "holds"}}}
    (tmp_path / "t.json").write_text(json.dumps(table, ensure_ascii=False), encoding="utf-8")
    assert main(["gen-l1-future", "--out-dir", "out", "--count", "2000", "--seed", "3", "--templates", "t.json"]) == 0
    templates = load_templates("t.json")
    lines = (tmp_path / "out" / "l1_future.jsonl").read_text(encoding="utf-8").splitlines()[1:]
    questions = l1_questions(gen_l1_future(2000, 3, templates=templates), "future", templates)
    assert lines == [dumps(question.to_record()) for question in questions]
    assert all(texts in json.loads(line)["question"] for line in lines)


HAND_BUILT = pytest.mark.parametrize("text", [ESCAPES, "", "plain", '"', "\\", " ", "\x00"],
                                     ids=["every-escape", "empty", "plain", "quote", "backslash", "u2028", "nul"])


@HAND_BUILT
def test_hand_built_questions_encode_as_dumps(text):
    full = {"id": text, "level": text, "relation": text, "subject": text, "subject_id": text,
            "template_id": text, "question": text, "answers": [text, text + "x"], "negatives": [text],
            "t_ref": text, "neighbor_object": text, "split": text}
    empty = dict(full, relation=None, subject=None, subject_id=None, t_ref=None, neighbor_object=None,
                 answers=[text], negatives=[])
    for record in (full, empty):
        assert record_line(record) == dumps(record)


@pytest.mark.parametrize("question_id, prediction", [
    ("l1-train-000000", "Mar 1931"), ("q1", ""), (ESCAPES, ESCAPES), ('"', "\\"),
], ids=["plain", "empty-prediction", "every-escape", "quote-backslash"])
def test_prediction_lines_encode_as_dumps(question_id, prediction):
    prediction = Prediction(question_id, prediction)
    assert prediction_line(prediction) == dumps(prediction._asdict())


def _reward_mix(questions):
    """Per question a gold, a negative, a token prefix of the gold, or no prediction."""
    predictions = []
    for i, question in enumerate(questions):
        gold = question.answers[0]
        choice = (gold, question.negatives[0] if question.negatives else "", gold.split()[0], None)[i % 4]
        if choice is not None:
            predictions.append(Prediction(question.id, choice))
    return predictions


def test_reward_lines_encode_as_dumps():
    templates = load_templates()
    exact, graded = [], []
    for group in (make_group(11), make_group(12), _escaped_group()):  # each group's ids are unique
        questions = gen_l2(group, 3, templates=templates) + gen_l3(group, templates=templates)
        predictions = _reward_mix(questions)
        exact += reward_records(questions, predictions)
        graded += reward_records(questions, predictions, scorer=lambda pred, ref: score_f1(pred, [ref]))
    assert {record.reward for record in exact} == {-1.0, 0.0, 1.0}
    assert any(0 < abs(record.reward) < 1 for record in graded)  # F1 floats, both signs
    assert any(record.reward < 0 for record in graded)
    for record in exact + graded:
        assert reward_line(record) == dumps(record._asdict())


@HAND_BUILT
def test_hand_built_reward_lines_encode_as_dumps(text):
    scores = [(1.0, 0.0, 1.0), (0.0, 1.0, -1.0), (0.0, 0.0, 0.0), (0.1 + 0.2, 1e-7, 0.1 + 0.2),
              (1e-7, 2 / 3, -2 / 3), (-0.0, 0.0, -0.0), (4 / 7, 1e22, -1e22)]
    for p, n, value in scores:
        record = RewardRecord(text, p, n, value)
        assert reward_line(record) == dumps(record._asdict())


def test_fact_text_with_escapes_encodes_as_dumps():
    rows = synth_rows(1, relation="P54", facts_per_subject=(4, 6), seed=5)
    for i, row in enumerate(rows):
        row["subject"] = f"{ESCAPES[:-2]} {row['subject']}"
        row["object"] = f"{row['object']} {ESCAPES[8 * i:]}"
    group = make_group(rows, relation="P54")
    for question in gen_l2(group, 1) + gen_l3(group):
        record = question.to_record()
        assert record_line(record) == dumps(record)


def _escaped_group():
    rows = synth_rows(1, relation="P54", facts_per_subject=(4, 6), seed=5)
    for i, row in enumerate(rows):
        row["subject"] = f"{ESCAPES[:-2]} {row['subject']}"
        row["object"] = f"{row['object']} {ESCAPES[8 * i:]}"
    return make_group(rows, relation="P54")


def test_rendered_examples_encode_as_dumps():
    templates = load_templates()
    examples = []
    for group in (_escaped_group(), make_group(14)):
        for question in gen_l2(group, 2, templates=templates) + gen_l3(group, templates=templates):
            examples.append(render(question, group, setting="reasonqa", seed=4, templates=templates))
            examples.append(render(question, article=ESCAPES, setting="obqa"))
            examples.append(render(question, setting="cbqa"))
    assert {example.setting for example in examples} == {"CBQA", "OBQA", "ReasonQA"}
    for example in examples:
        assert rendered_line(example) == dumps(example._asdict())


@HAND_BUILT
def test_hand_built_rendered_examples_encode_as_dumps(text):
    example = RenderedExample(text, text, text, text)
    assert rendered_line(example) == dumps(example._asdict())


def test_masked_documents_encode_as_dumps():
    rng = random.Random(9)
    docs = [random_doc(rng, f"d{i}", min_spans=1) for i in range(200)]
    # The id seeds the document's draws, so it holds no lone surrogate (which has no UTF-8 form).
    spans = ((0, 5, "entity"), (33, 40, "temporal"), (45, 50, "entity"))
    docs.append(AnnotatedDocument(ESCAPES[:-2], ESCAPES, spans))
    records, diagnostics = mask_corpus(docs, 0.5, seed=3)
    assert len(records) == len(docs) and not diagnostics
    for record in records:
        assert masked_line(record) == dumps(record)


@HAND_BUILT
def test_hand_built_masked_documents_encode_as_dumps(text):
    record = {"doc_id": text, "input": text, "target": text}
    assert masked_line(record) == dumps(record)
