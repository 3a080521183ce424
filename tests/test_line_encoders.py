"""The fixed-order line encoders write exactly the bytes ``jsonl.dumps``
writes for the same record, on generated questions, rendered examples and
masked documents, and on hand-built records that touch every JSON escape
rule."""

import random

import pytest

from chronoqa.contexts import AnnotatedDocument, RenderedExample, mask_corpus, masked_line, render, rendered_line
from chronoqa.jsonl import dumps
from chronoqa.questions import gen_l1, gen_l2, gen_l3, record_line
from chronoqa.scoring import Prediction, prediction_line
from chronoqa.templates import load_templates
from chronoqa.timeline import TimePoint

from conftest import make_group, random_doc, synth_rows

# Every character class the escaper treats differently: quote, backslash,
# the C0 controls, DEL, the JavaScript line separators, non-ASCII, astral,
# and a lone surrogate (a str that cannot be written as UTF-8).
ESCAPES = "".join(map(chr, range(0x20))) + '"\\/\x7f   Zürich 東京 \U0001F600 \ud800'


def _generated_records():
    templates = load_templates()
    questions = gen_l1((TimePoint(1890, 1), TimePoint(2030, 12)), 300, 3, templates=templates)
    questions += gen_l1((TimePoint(1, 1), TimePoint(5, 12)), 300, 4, split="dev", templates=templates)
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
