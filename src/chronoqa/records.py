"""The question record, as every subcommand that reads or writes a question
file sees it. Generation lives in ``questions``: a subcommand that only
reads questions compiles none of it."""

from __future__ import annotations

from itertools import chain, repeat
from typing import Mapping, NamedTuple

from .jsonl import Columns, quote
from .timeline import MIN_YEAR, format_month, parse_month

LEVELS = ("L1", "L2", "L3")
_TEXT_OR_NULL = (str, type(None))
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
        level = record["level"]
        if level not in LEVELS:
            raise ValueError(f"unknown question level {level!r}")
        texts = (record["id"], record["question"], record.get("template_id", ""), record.get("split", "train"))
        question_id, question, template_id, split = texts
        if not (isinstance(question_id, str) and isinstance(question, str) and isinstance(template_id, str)
                and isinstance(split, str)):
            name = next(name for name, value in zip(_TEXT_FIELDS, texts) if not isinstance(value, str))
            raise ValueError(f"{name} must be a string")
        answers, negatives = record["answers"], record.get("negatives", [])
        if not (isinstance(answers, list) and answers and isinstance(negatives, list)
                and _all_strings(answers) and _all_strings(negatives)):
            raise ValueError("answers must be a non-empty list of strings and negatives a list of strings")
        t_ref = record.get("t_ref")
        if t_ref is not None and not isinstance(t_ref, str):
            raise ValueError("t_ref must be a time string or null")
        relation, subject = record.get("relation"), record.get("subject")
        subject_id, neighbor_object = record.get("subject_id"), record.get("neighbor_object")
        if not (isinstance(relation, _TEXT_OR_NULL) and isinstance(subject, _TEXT_OR_NULL)
                and isinstance(subject_id, _TEXT_OR_NULL) and isinstance(neighbor_object, _TEXT_OR_NULL)):
            name = next(name for name in _OPTIONAL_TEXT_FIELDS
                        if not isinstance(record.get(name), _TEXT_OR_NULL))
            raise ValueError(f"{name} must be a string or null")
        # tuple.__new__: Question's generated __new__ only packs the fields, in one more call per record.
        return tuple.__new__(cls, (question_id, level, relation, subject, subject_id, template_id, question,
                                   tuple(answers), tuple(negatives),
                                   None if t_ref is None else parse_month(t_ref, 1), neighbor_object, split))


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


def _questions(columns: list[list]) -> list[Question] | None:
    """A cached block's questions, if every column has the types
    ``Question.from_record`` accepts and every month is of year 1 on."""
    (ids, levels, relations, subjects, subject_ids, template_ids, texts, answers, negatives, t_refs, neighbors,
     splits) = columns
    # raises TypeError, a miss, unless every item is a str
    "".join(chain(ids, template_ids, texts, splits, chain.from_iterable(chain(answers, negatives))))
    if (not {*levels} <= _LEVEL_SET or {*map(type, chain(answers, negatives))} - {list} or not all(answers)
            or {*map(type, chain(relations, subjects, subject_ids, neighbors))} - _TEXT_OR_NULL_SET
            or {*map(type, t_refs)} - _MONTH_OR_NULL
            or min({*t_refs} - {None}, default=12 * MIN_YEAR) < 12 * MIN_YEAR):
        return None
    return list(map(tuple.__new__, repeat(Question),
                    zip(ids, levels, relations, subjects, subject_ids, template_ids, texts, map(tuple, answers),
                        map(tuple, negatives), t_refs, neighbors, splits, strict=True)))


_LEVEL_SET = frozenset(LEVELS)
_TEXT_OR_NULL_SET = frozenset(_TEXT_OR_NULL)
_MONTH_OR_NULL = frozenset((int, type(None)))
# The question codec of the input cache (jsonl.load_cached). Raise the
# number whenever the columns or their checks change.
QUESTION_COLUMNS = Columns("questions 1", _questions)


def _all_strings(items: list) -> bool:
    # A plain loop: about three times cheaper than all() over a generator.
    for item in items:
        if not isinstance(item, str):
            return False
    return True
