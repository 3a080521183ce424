"""Each input-cache codec's bytes, pinned beside its format name. For a fixed
tiny input, the cache a codec writes must be the one pinned under its name:
a change to those bytes fails here until the number in the name is raised,
so that no cache written before the change can match a load after it."""

import json
import re
from pathlib import Path

import pytest

from chronoqa.facts import FACT_COLUMNS, load_fact_file
from chronoqa.jsonl import load_jsonl
from chronoqa.records import QUESTION_COLUMNS, Question
from chronoqa.scoring import PREDICTION_COLUMNS, Prediction

FACT = {"subject": "Ada Park", "subject_id": "Q1", "relation": "P39", "object": "Mayor", "object_id": "O1",
        "start": "Jul 2004", "end": "2008"}
FACTS = [
    {"_meta": {"source": "pins"}},
    FACT,
    dict(FACT, object="Senator", object_id="O2", start="2009", end=None),
    FACT,  # a duplicate
    dict(FACT, relation="P999"),
]
QUESTION = {"id": "q1", "level": "L2", "relation": "P39", "subject": "Ada Park", "subject_id": "Q1",
            "template_id": "P39_l2", "question": "Which position did Ada Park hold in Jan 2005?",
            "answers": ["Mayor"], "negatives": ["Senator"], "t_ref": "Jan 2005", "neighbor_object": None,
            "split": "train"}
QUESTIONS = [
    {"_meta": {"render_version": "1.t1", "seed": 3}},
    QUESTION,
    {"id": "q2", "level": "L1", "question": "What is the time 1 year after Mar 2001?", "answers": ["Mar 2002"],
     "t_ref": None},
]
PREDICTIONS = [{"id": "q1", "prediction": "Mayor"}, {"id": "q2", "prediction": "Mar 2002"}]

# The cache each codec writes for its input above, with its key, a digest, as KEY.
PINNED = {
    "facts 4":
        '{"key":"KEY","meta":{"diagnostics":[[5,"unsupported relation \'P999\'"]],"duplicates_dropped":1},'
        '"records":2}\n'
        '[["Ada Park","Ada Park"],["Q1","Q1"],["P39","P39"],["Mayor","Senator"],["O1","O2"],[24054,24108],'
        '[24107,24274]]\n',
    "questions 1":
        '{"key":"KEY","meta":{"render_version":"1.t1","seed":3},"records":2}\n'
        '[["q1","q2"],["L2","L1"],["P39",null],["Ada Park",null],["Q1",null],["P39_l2",""],'
        '["Which position did Ada Park hold in Jan 2005?","What is the time 1 year after Mar 2001?"],'
        '[["Mayor"],["Mar 2002"]],[["Senator"],[]],[24060,null],[null,null],["train","train"]]\n',
    "predictions 1":
        '{"key":"KEY","meta":null,"records":2}\n'
        '[["q1","q2"],["Mayor","Mar 2002"]]\n',
}


def cache_text(tmp_path, records, load) -> str:
    path = tmp_path / "input.jsonl"
    path.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
    load(str(path))
    text = Path(f"{path}.chronoqa-cache").read_text(encoding="ascii")
    return re.sub(r'^\{"key":"[0-9a-f]{40}",', '{"key":"KEY",', text)


LOADS = {
    "facts": (FACT_COLUMNS, FACTS, load_fact_file),
    "questions": (QUESTION_COLUMNS, QUESTIONS, lambda path: load_jsonl(path, Question.from_record, QUESTION_COLUMNS)),
    "predictions": (PREDICTION_COLUMNS, PREDICTIONS,
                    lambda path: load_jsonl(path, Prediction.from_record, PREDICTION_COLUMNS)),
}


@pytest.mark.parametrize("kind", LOADS)
def test_each_codec_writes_the_bytes_pinned_under_its_name(tmp_path, kind):
    codec, records, load = LOADS[kind]
    assert codec.name in PINNED, f"pin the cache of codec {codec.name!r}"
    assert cache_text(tmp_path, records, load) == PINNED[codec.name]
