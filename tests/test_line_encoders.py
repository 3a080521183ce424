"""The fixed-order line encoders write exactly the bytes ``jsonl.dumps``
writes for the same record, on generated questions, rendered examples and
masked documents, and on hand-built records that touch every JSON escape
rule."""

import random

import pytest

from chronoqa.contexts import AnnotatedDocument, RenderedExample, mask_corpus, masked_line, render, rendered_line
from chronoqa.jsonl import dumps
from chronoqa.questions import gen_l1, gen_l2, gen_l3
from chronoqa.records import record_line
from chronoqa.scoring import Prediction, RewardRecord, prediction_line, reward_line, reward_records, score_f1
from chronoqa.templates import load_templates

from conftest import ESCAPES, make_group, month_range, random_doc, synth_rows


def _generated_records():
    templates = load_templates()
    questions = gen_l1(month_range((1890, 1), (2030, 12)), 300, 3, templates=templates)
    questions += gen_l1(month_range((1, 1), (5, 12)), 300, 4, split="dev", templates=templates)
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
