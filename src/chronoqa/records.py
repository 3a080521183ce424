"""The question record, as every subcommand that reads or writes a question
file sees it. Generation lives in ``questions``: a subcommand that only
reads questions compiles none of it."""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .jsonl import Columns, quote
from .timeline import MIN_YEAR, format_month, parse_month

LEVELS = ("L1", "L2", "L3")
_TEXT_FIELDS = ("id", "question", "template_id", "split")
_OPTIONAL_TEXT_FIELDS = ("relation", "subject", "subject_id", "neighbor_object")


class Question(NamedTuple):
    """One generated QA record.

    ``answers`` holds every currently correct object (the primary gold
    first); ``negatives`` holds the temporally wrong objects of the same
    group. The two sets are disjoint under scoring normalization.
    ``t_ref``, the reference month, is a :func:`timeline.month_index`.
    """

    id: str
    level: str
    relation: str | None
    subject: str | None
    subject_id: str | None
    template_id: str
    question: str
    answers: tuple[str, ...]
    negatives: tuple[str, ...]
    t_ref: int | None
    neighbor_object: str | None
    split: str

    def to_record(self) -> dict:
        # One unpack: a NamedTuple field read is a generic attribute load on 3.11.
        (question_id, level, relation, subject, subject_id, template_id, question, answers, negatives, t_ref,
         neighbor_object, split) = self
        return {
            "id": question_id,
            "level": level,
            "relation": relation,
            "subject": subject,
            "subject_id": subject_id,
            "template_id": template_id,
            "question": question,
            "answers": list(answers),
            "negatives": list(negatives),
            "t_ref": None if t_ref is None else format_month(t_ref),
            "neighbor_object": neighbor_object,
            "split": split,
        }

    @classmethod
    def from_record(cls, record: Mapping) -> "Question":
        """The question ``record`` holds, with the defaults of its optional
        keys; a ValueError or KeyError names the first bad field."""
        t_ref = record.get("t_ref")
        if t_ref is not None:
            if not isinstance(t_ref, str):
                raise ValueError("t_ref must be a time string or null")
            t_ref = parse_month(t_ref, 1)
        return _question((record["id"], record["level"], record.get("relation"), record.get("subject"),
                          record.get("subject_id"), record.get("template_id", ""), record["question"],
                          record["answers"], record.get("negatives", []), t_ref, record.get("neighbor_object"),
                          record.get("split", "train")))


def record_line(record: dict) -> str:
    """``jsonl.dumps(record)`` for a ``Question.to_record()`` dict: its keys in
    sorted order, each string through ``dumps``'s own escaper."""
    neighbor, relation, subject = record["neighbor_object"], record["relation"], record["subject"]
    subject_id, t_ref = record["subject_id"], record["t_ref"]
    return (f'{{"answers": [{", ".join(map(quote, record["answers"]))}], "id": {quote(record["id"])}, '
            f'"level": {quote(record["level"])}, "negatives": [{", ".join(map(quote, record["negatives"]))}], '
            f'"neighbor_object": {"null" if neighbor is None else quote(neighbor)}, '
            f'"question": {quote(record["question"])}, '
            f'"relation": {"null" if relation is None else quote(relation)}, "split": {quote(record["split"])}, '
            f'"subject": {"null" if subject is None else quote(subject)}, '
            f'"subject_id": {"null" if subject_id is None else quote(subject_id)}, '
            f'"t_ref": {"null" if t_ref is None else quote(t_ref)}, "template_id": {quote(record["template_id"])}}}')


def _question(values: tuple) -> Question:
    """The question of a record's field values in field order, ``t_ref`` a
    month index or None, as a line and a cached block both give them; a
    ValueError names the first bad field."""
    (question_id, level, relation, subject, subject_id, template_id, question, answers, negatives, t_ref,
     neighbor_object, split) = values
    if level not in LEVELS:
        raise ValueError(f"unknown question level {level!r}")
    if not (isinstance(question_id, str) and isinstance(question, str) and isinstance(template_id, str)
            and isinstance(split, str)):
        name = next(name for name, value in zip(_TEXT_FIELDS, (question_id, question, template_id, split))
                    if not isinstance(value, str))
        raise ValueError(f"{name} must be a string")
    if not (isinstance(answers, list) and answers and isinstance(negatives, list)
            and _all_strings(answers) and _all_strings(negatives)):
        raise ValueError("answers must be a non-empty list of strings and negatives a list of strings")
    if t_ref is not None and (type(t_ref) is not int or t_ref < 12 * MIN_YEAR):
        raise ValueError("t_ref must be a month index of year 1 on or null")
    if not ((relation is None or isinstance(relation, str)) and (subject is None or isinstance(subject, str))
            and (subject_id is None or isinstance(subject_id, str))
            and (neighbor_object is None or isinstance(neighbor_object, str))):
        optional = (relation, subject, subject_id, neighbor_object)
        name = next(name for name, value in zip(_OPTIONAL_TEXT_FIELDS, optional)
                    if value is not None and not isinstance(value, str))
        raise ValueError(f"{name} must be a string or null")
    # tuple.__new__: Question's generated __new__ only packs the fields, in one more call per record.
    return tuple.__new__(Question, (question_id, level, relation, subject, subject_id, template_id, question,
                                    tuple(answers), tuple(negatives), t_ref, neighbor_object, split))


# The question codec of the input cache (jsonl.load_cached): each cached
# record goes through the check its line goes through. Raise the number
# whenever the columns or the records the check accepts change.
QUESTION_COLUMNS = Columns("questions 1", lambda columns: list(map(_question, zip(*columns, strict=True))))


def _all_strings(items: list) -> bool:
    # A plain loop: about three times cheaper than all() over a generator.
    for item in items:
        if not isinstance(item, str):
            return False
    return True
