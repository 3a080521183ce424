"""The benchmark's own oracle for chronoqa outputs.

Every check compares a file the program wrote against ground truth the
benchmark derived itself (from ``inputs``), never against the program's
own functions. A check is one operation: it passes or fails as a whole and
names the first offending record when it fails.
"""

from __future__ import annotations

import json
import math
import re

from inputs import REWARD_BY_LABEL, month_text

MONTH_NUMBERS = {text: i for i, text in enumerate(
    ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"))}


def read_records(path) -> list[dict]:
    """Records of a JSONL artifact, without its ``_meta`` header line."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle):
            obj = json.loads(line)
            if line_no == 0 and set(obj) == {"_meta"}:
                continue
            records.append(obj)
    return records


def month_index(text: str) -> int:
    month, year = text.split()
    return int(year) * 12 + MONTH_NUMBERS[month]


class Checks:
    """Named pass/fail results."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), "" if ok else detail))
        return ok

    def all(self, name: str, items, predicate) -> bool:
        """One check over many items; reports the first that fails."""
        for item in items:
            if not predicate(item):
                return self.expect(name, False, f"first failure: {str(item)[:200]}")
        return self.expect(name, True)

    @property
    def failed(self) -> list[tuple[str, bool, str]]:
        return [r for r in self.results if not r[1]]


# ---------------------------------------------------------------------------
# fact-based questions (L2/L3) and their solver predictions

def valid_objects(facts, t: int) -> list[str]:
    return [obj for start, end, obj in facts if start <= t <= end]


def check_l2_split(checks: Checks, label: str, records, facts, subject_count: int, min_facts: int) -> set[str]:
    subjects = {q["subject_id"] for q in records}
    checks.expect(f"{label}: subject count", len(subjects) == subject_count,
                  f"{len(subjects)} subjects, expected {subject_count}")
    checks.expect(f"{label}: groups below the fact minimum are dropped",
                  all(len(facts[sid]) >= min_facts for sid in subjects))
    expected = sum(len(facts[sid]) for sid in subjects)
    checks.expect(f"{label}: one question per fact", len(records) == expected,
                  f"{len(records)} records, expected {expected}")

    def answers_match(q):
        group = facts[q["subject_id"]]
        j = int(q["id"].rsplit("-", 1)[1])
        t = month_index(q["t_ref"])
        start, end, obj = group[j]
        valid = valid_objects(group, t)
        others = {o for _, _, o in group} - set(valid)
        return (start <= t <= end and q["answers"][0] == obj and sorted(q["answers"]) == sorted(valid)
                and sorted(q["negatives"]) == sorted(others))

    checks.all(f"{label}: answers and negatives match the facts", records, answers_match)
    return subjects


def check_l3_split(checks: Checks, label: str, records, facts, subjects: set[str]) -> None:
    checks.expect(f"{label}: same subjects as the L2 split", {q["subject_id"] for q in records} == subjects)
    expected = sum(2 * (len(facts[sid]) - 1) for sid in subjects)
    checks.expect(f"{label}: two questions per adjacent pair", len(records) == expected,
                  f"{len(records)} records, expected {expected}")

    def neighbour_match(q):
        objects = [o for _, _, o in facts[q["subject_id"]]]
        _, i, direction = q["id"].rsplit("-", 2)
        i = int(i)
        pivot, gold = (objects[i], objects[i + 1]) if direction == "after" else (objects[i + 1], objects[i])
        return (q["neighbor_object"] == pivot and q["answers"] == [gold]
                and sorted(q["negatives"]) == sorted(set(objects) - {gold}))

    checks.all(f"{label}: gold is the chronological neighbour", records, neighbour_match)


def solver_answer(q, facts) -> str:
    """What the symbolic solver must answer: the earliest valid object for
    L2, the chronological neighbour for L3."""
    group = facts[q["subject_id"]]
    if q["level"] == "L2":
        return valid_objects(group, month_index(q["t_ref"]))[0]
    objects = [o for _, _, o in group]
    i = objects.index(q["neighbor_object"])
    return objects[i + 1] if q["template_id"].endswith("_after") else objects[i - 1]


def check_predictions(checks: Checks, label: str, questions, predictions, expected_answer) -> None:
    checks.expect(f"{label}: one prediction per question, in order",
                  [p["id"] for p in predictions] == [q["id"] for q in questions])
    checks.all(f"{label}: solver matches the oracle (EM 100)", zip(questions, predictions),
               lambda pair: pair[1]["prediction"] == expected_answer(pair[0]))


# ---------------------------------------------------------------------------
# scoring outputs

def check_eval_report(checks: Checks, label: str, path, count: int, em_share: float,
                      partial_credit: bool) -> None:
    with open(path, encoding="utf-8") as handle:
        overall = json.load(handle)["report"]["overall"]
    checks.expect(f"{label}: question count", overall["count"] == count, f"count {overall['count']}")
    expected = round(100.0 * em_share, 4)
    checks.expect(f"{label}: EM equals the labelled gold share", abs(overall["em"] - expected) < 1e-3,
                  f"em {overall['em']}, expected {expected}")
    if partial_credit:
        checks.expect(f"{label}: partial predictions earn F1 above EM", overall["f1"] > overall["em"],
                      f"f1 {overall['f1']} em {overall['em']}")


def check_rewards(checks: Checks, label: str, records, questions, labels) -> None:
    checks.expect(f"{label}: one reward per question", [r["id"] for r in records] == [q["id"] for q in questions])
    checks.all(f"{label}: reward matches the label", records,
               lambda r: r["reward"] == REWARD_BY_LABEL.get(labels[r["id"]], 0.0))


# ---------------------------------------------------------------------------
# rendering and masking

def check_render(checks: Checks, label: str, records, questions, facts, names) -> None:
    checks.expect(f"{label}: one example per question", [r["id"] for r in records] == [q["id"] for q in questions])

    def prompt_match(pair):
        record, q = pair
        lines = record["prompt"].split("\n")
        expected = sorted(f"{o} from {month_text(s)} to {month_text(e)}." for s, e, o in facts[q["subject_id"]])
        return (lines[0] == q["question"] and lines[1].startswith(names[q["subject_id"]])
                and sorted(lines[2:]) == expected and record["target"] == q["answers"][0])

    checks.all(f"{label}: prompt holds the question and every fact of the group", zip(records, questions),
               prompt_match)


_SENTINEL = re.compile(r"<mask_(\d+)>")


def unmask(masked: str, target: str) -> str:
    parts = _SENTINEL.split(target)
    spans = dict(zip(parts[1::2], parts[2::2]))
    return _SENTINEL.sub(lambda m: spans[m.group(1)], masked)


def check_masked(checks: Checks, label: str, records, originals, ratio: float) -> None:
    with_spans = [doc_id for doc_id, (_, spans) in originals.items() if spans]
    checks.expect(f"{label}: zero-span documents are skipped", [r["doc_id"] for r in records] == with_spans)

    def rebuilt(record):
        text, spans = originals[record["doc_id"]]
        return (unmask(record["input"], record["target"]) == text
                and len(_SENTINEL.findall(record["input"])) == math.ceil(ratio * spans))

    checks.all(f"{label}: unmask rebuilds every document", records, rebuilt)


# ---------------------------------------------------------------------------
# L1 (time-time) questions

_L1_YEAR = re.compile(r"^What is the year (?:(\d+) years )?(before|after) (\d+)\?$")
_L1_TIME = re.compile(r"^What is the time (?:(\d+) years? )?(?:and )?(?:(\d+) months? )?"
                      r"(before|after) ([A-Z][a-z]{2} \d+)\?$")


def l1_answer(question: str) -> str | None:
    """Independent answer to a relative-time question, from its wording."""
    match = _L1_YEAR.match(question)
    if match:
        years, direction, year = match.groups()
        delta = int(years or 1)
        return str(int(year) + delta if direction == "after" else int(year) - delta)
    match = _L1_TIME.match(question)
    if match:
        years, months, direction, t = match.groups()
        delta = 12 * int(years or 0) + int(months or 0)
        index = month_index(t)
        return month_text(index + delta if direction == "after" else index - delta)
    return None


def check_l1_file(checks: Checks, label: str, records, count: int) -> None:
    checks.expect(f"{label}: record count", len(records) == count, f"{len(records)} records, expected {count}")
    checks.all(f"{label}: gold matches the calendar oracle", records,
               lambda q: q["answers"] == [l1_answer(q["question"])])
