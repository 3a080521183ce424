"""The fixed-order line encoders write exactly the bytes ``jsonl.dumps``
writes for the same record, on generated questions and on hand-built
records that touch every JSON escape rule."""

import pytest

from chronoqa.jsonl import dumps
from chronoqa.questions import gen_l1, gen_l2, gen_l3, record_line
from chronoqa.scoring import Prediction, prediction_line
from chronoqa.templates import load_templates
from chronoqa.timeline import TimePoint

from conftest import make_group, synth_rows

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


@pytest.mark.parametrize("text", [ESCAPES, "", "plain", '"', "\\", " ", "\x00"],
                         ids=["every-escape", "empty", "plain", "quote", "backslash", "u2028", "nul"])
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
