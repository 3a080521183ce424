"""Seeded input generators for the benchmark.

Everything the benchmark feeds to chronoqa is made here from a seed: the
fact file, the annotated-document corpus and the labelled prediction mix.
The same seed gives byte-identical files. Each generator also returns the
properties of what it made (sizes and the share of every injected defect
or label), which the benchmark records next to its results, and the ground
truth the benchmark's own checks compare the program's outputs against.

This module does not import chronoqa, so the ground truth it carries is
independent of the code under test.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass, field

RELATIONS = ("P54", "P39", "P108", "P102", "P286", "P69", "P488", "P6", "P35", "P127")
MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
SNAPSHOT_INDEX = 2022 * 12 + 10  # Nov 2022, the program's default snapshot month

_FIRST = ("Aiko", "Bruno", "Chiara", "Dmitri", "Elena", "Farid", "Greta", "Hiro", "Ines", "Jonas")
_LAST = ("Abe", "Bauer", "Costa", "Dubois", "Eriksen", "Fischer", "Garcia", "Hansen", "Ito", "Jensen")
_ADJ = ("Royal", "National", "Northern", "Federal", "City", "Grand", "United", "Central")
_NOUN = ("Council", "Academy", "Harbour", "Assembly", "Club", "Institute", "Company", "Party")
_DOC_WORDS = ("alpha", "beta", "gamma", "delta", "osaka", "governor", "july", "1999", "of", "term")
_UNRELATED = ("lorem", "ipsum", "dolor", "sit", "amet", "consectetur", "adipiscing", "elit")

# Injected defects, as shares of the clean fact rows.
MALFORMED_KINDS = ("bad_json", "missing_field", "bad_relation", "bad_time", "end_before_start")
MALFORMED_SHARE_EACH = 0.002
DUPLICATE_SHARE = 0.015
SMALL_SUBJECT_SHARE = 0.04   # subjects with 1-2 facts, below the program's 3-fact minimum
OVERLAP_SHARE = 0.37         # facts (with a successor) whose validity runs past the next start
ONGOING_SHARE = 0.2          # subjects whose last fact is open-ended (end: null)

# The labelled prediction mix for kb-score, as shares of the questions.
PREDICTION_LABELS = (
    ("gold", 0.40),
    ("negative", 0.15),
    ("partial", 0.15),
    ("unrelated", 0.10),
    ("empty", 0.10),
    ("missing", 0.10),
)
REWARD_BY_LABEL = {"gold": 1.0, "negative": -1.0}  # every other label earns 0

ZERO_SPAN_DOC_SHARE = 0.02


def month_text(index: int) -> str:
    return f"{MONTHS[index % 12]} {index // 12}"


@dataclass
class FactSet:
    """A generated fact file plus the ground truth behind it.

    ``facts`` maps each subject id to its clean facts as
    ``(start_index, end_index, object)`` tuples in chronological order,
    with open-ended facts closed at the snapshot month.
    """

    text: str
    facts: dict[str, list[tuple[int, int, str]]]
    subjects: dict[str, tuple[str, str]]  # subject id -> (name, relation)
    malformed: int
    properties: dict = field(default_factory=dict)


def fact_set(seed: int, subjects_per_relation: int) -> FactSet:
    """Ten relations x ``subjects_per_relation`` subjects with 3-8 facts each
    (a small share with 1-2), about 30% overlapping facts, plus a stated
    share of malformed and exactly duplicated rows, in shuffled order."""
    rng = random.Random(f"bench|facts|{seed}")
    lines: list[str] = []
    facts: dict[str, list[tuple[int, int, str]]] = {}
    subjects: dict[str, tuple[str, str]] = {}
    small = overlapping = ongoing = 0
    for relation in RELATIONS:
        for s in range(subjects_per_relation):
            sid = f"Q{relation}-{s}"
            name = f"{rng.choice(_FIRST)} {rng.choice(_LAST)} {relation}-{s}"
            subjects[sid] = (name, relation)
            if rng.random() < SMALL_SUBJECT_SHARE:
                count = rng.randint(1, 2)
                small += 1
            else:
                count = rng.randint(3, 8)
            cursor = rng.randint(1850 * 12, 1980 * 12)
            entries = []
            for j in range(count):
                start = cursor
                end = start + rng.randint(0, 48)
                cursor = end + rng.randint(1, 24)
                if j < count - 1 and rng.random() < OVERLAP_SHARE:
                    end = cursor + rng.randint(0, 24)
                    overlapping += 1
                obj = f"{rng.choice(_ADJ)} {rng.choice(_NOUN)} {relation} {s} {j}"
                open_end = j == count - 1 and start <= SNAPSHOT_INDEX and rng.random() < ONGOING_SHARE
                ongoing += open_end
                lines.append(json.dumps({
                    "subject": name, "subject_id": sid, "relation": relation,
                    "object": obj, "object_id": f"O{relation}-{s}-{j}",
                    "start": month_text(start), "end": None if open_end else month_text(end),
                }))
                entries.append((start, SNAPSHOT_INDEX if open_end else end, obj))
            facts[sid] = entries

    clean = len(lines)
    duplicates = [rng.choice(lines[:clean]) for _ in range(round(clean * DUPLICATE_SHARE))]
    malformed_counts = {}
    sids = list(subjects)
    for kind in MALFORMED_KINDS:
        n = round(clean * MALFORMED_SHARE_EACH)
        malformed_counts[kind] = n
        for _ in range(n):
            lines.append(_malformed_row(rng, kind, rng.choice(sids), subjects))
    lines.extend(duplicates)
    rng.shuffle(lines)
    text = "".join(line + "\n" for line in lines)
    malformed = sum(malformed_counts.values())
    properties = {
        "rows": len(lines),
        "bytes": len(text.encode("utf-8")),
        "clean_rows": clean,
        "subjects": len(subjects),
        "subjects_below_3_facts": small,
        "share_duplicate_rows": round(len(duplicates) / len(lines), 6),
        "share_malformed_rows": {k: round(v / len(lines), 6) for k, v in malformed_counts.items()},
        "share_overlapping_facts": round(overlapping / clean, 6),
        "share_ongoing_subjects": round(ongoing / len(subjects), 6),
    }
    return FactSet(text, facts, subjects, malformed, properties)


def _malformed_row(rng: random.Random, kind: str, sid: str, subjects) -> str:
    name, relation = subjects[sid]
    row = {"subject": name, "subject_id": sid, "relation": relation,
           "object": "Broken Row", "object_id": "OX", "start": "Jan 1990", "end": "Dec 1991"}
    if kind == "bad_json":
        return json.dumps(row)[: rng.randint(10, 40)]
    if kind == "missing_field":
        del row["object_id"]
    elif kind == "bad_relation":
        row["relation"] = "P999"
    elif kind == "bad_time":
        row["start"] = "Smarch 1990"
    else:  # end_before_start
        row["start"], row["end"] = "Dec 1991", "Jan 1990"
    return json.dumps(row)


@dataclass
class DocSet:
    """Annotated documents (JSONL text) plus the originals by id."""

    text: str
    originals: dict[str, tuple[str, int]]  # doc id -> (text, span count)
    properties: dict = field(default_factory=dict)


def doc_set(seed: int, count: int) -> DocSet:
    """Documents with word-aligned, non-overlapping entity/temporal spans;
    a small stated share has no spans, which ``mask`` must skip."""
    rng = random.Random(f"bench|docs|{seed}")
    lines = []
    originals = {}
    zero = spans_total = 0
    for d in range(count):
        words = [rng.choice(_DOC_WORDS) for _ in range(rng.randint(8, 60))]
        text = " ".join(words)
        spans = []
        if rng.random() < ZERO_SPAN_DOC_SHARE:
            zero += 1
        else:
            cursor = 0
            offsets = []
            for word in words:
                offsets.append((cursor, cursor + len(word)))
                cursor += len(word) + 1
            chosen = sorted(rng.sample(range(len(words)), rng.randint(1, min(8, len(words)))))
            for index in chosen:
                if spans and spans[-1][1] + 1 == offsets[index][0] and rng.random() < 0.5:
                    spans[-1] = (spans[-1][0], offsets[index][1], spans[-1][2])  # merge a run
                else:
                    spans.append((offsets[index][0], offsets[index][1], rng.choice(("entity", "temporal"))))
        spans_total += len(spans)
        doc_id = f"doc-{d:06d}"
        originals[doc_id] = (text, len(spans))
        lines.append(json.dumps({"doc_id": doc_id, "text": text, "spans": [list(s) for s in spans]}))
    text = "".join(line + "\n" for line in lines)
    properties = {
        "docs": count,
        "bytes": len(text.encode("utf-8")),
        "spans": spans_total,
        "share_zero_span_docs": round(zero / count, 6),
    }
    return DocSet(text, originals, properties)


@dataclass
class PredictionMix:
    """A model-like prediction file with a known label per question id."""

    text: str
    labels: dict[str, str]  # question id -> label
    properties: dict = field(default_factory=dict)


def prediction_mix(seed: int, questions: list[dict], tag: str) -> PredictionMix:
    """Label every question by the stated shares and write the matching
    prediction: the primary gold, a temporally wrong negative, a strict
    token prefix of the gold, unrelated words, an empty string, or nothing.
    A question with no negatives cannot take the negative label and falls
    back to unrelated."""
    rng = random.Random(f"bench|predictions|{seed}|{tag}")
    names = [name for name, _ in PREDICTION_LABELS]
    weights = [share for _, share in PREDICTION_LABELS]
    labels = {}
    lines = []
    for question in questions:
        label = rng.choices(names, weights)[0]
        if label == "negative" and not question["negatives"]:
            label = "unrelated"
        labels[question["id"]] = label
        gold = question["answers"][0]
        if label == "missing":
            continue
        if label == "gold":
            text = gold
        elif label == "negative":
            text = rng.choice(question["negatives"])
        elif label == "partial":
            tokens = gold.split()
            text = " ".join(tokens[: rng.randint(1, len(tokens) - 1)])
        elif label == "unrelated":
            text = " ".join(rng.sample(_UNRELATED, 3)) + " " + "".join(rng.choices(string.digits, k=4))
        else:
            text = ""
        lines.append(json.dumps({"id": question["id"], "prediction": text}))
    text = "".join(line + "\n" for line in lines)
    counts = {name: 0 for name in names}
    for label in labels.values():
        counts[label] += 1
    total = len(labels)
    properties = {
        "predictions": len(lines),
        "bytes": len(text.encode("utf-8")),
        "share_by_label": {name: round(n / total, 6) for name, n in counts.items()},
        "em_share": round(counts["gold"] / total, 6),
    }
    return PredictionMix(text, labels, properties)
