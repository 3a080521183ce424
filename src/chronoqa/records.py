"""The question record, as every subcommand that reads or writes a question
file sees it. Generation lives in ``questions``: a subcommand that only
reads questions compiles none of it."""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import chain
from operator import itemgetter
from typing import Mapping, NamedTuple

from .jsonl import Columns, quote
from .timeline import TimePoint, format_time, parse_time_cached, time_from_month_index

LEVELS = ("L1", "L2", "L3")
_TEXT_OR_NULL = (str, type(None))
# A record's values in Question's field order.
_RECORD_FIELDS = itemgetter("id", "level", "relation", "subject", "subject_id", "template_id", "question", "answers",
                            "negatives", "t_ref", "neighbor_object", "split")


class Question(NamedTuple):
    """One generated QA record.

    ``answers`` holds every currently correct object (the primary gold
    first); ``negatives`` holds the temporally wrong objects of the same
    group. The two sets are disjoint under scoring normalization.
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
    t_ref: TimePoint | None
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
            "t_ref": format_time(t_ref) if t_ref else None,
            "neighbor_object": neighbor_object,
            "split": split,
        }

    @classmethod
    def from_record(cls, record: Mapping) -> "Question":
        # A record as this tool writes it: every key, each value of the type
        # JSON decodes, checked in one expression. Anything else, a missing
        # key or a str subclass say, takes the per-field checks.
        try:
            fields = _RECORD_FIELDS(record)
        except KeyError:
            return cls._from_other_record(record)
        (question_id, level, relation, subject, subject_id, template_id, question, answers, negatives, t_ref,
         neighbor_object, split) = fields
        if (level in LEVELS and type(question_id) is str and type(question) is str and type(template_id) is str
                and type(split) is str and type(answers) is list and answers and type(negatives) is list
                and type(t_ref) in _TEXT_OR_NULL and type(relation) in _TEXT_OR_NULL
                and type(subject) in _TEXT_OR_NULL and type(subject_id) in _TEXT_OR_NULL
                and type(neighbor_object) in _TEXT_OR_NULL and _all_strings(answers) and _all_strings(negatives)):
            return tuple.__new__(cls, (question_id, level, relation, subject, subject_id, template_id, question,
                                       tuple(answers), tuple(negatives),
                                       None if t_ref is None else parse_time_cached(t_ref, 1), neighbor_object,
                                       split))
        return cls._from_other_record(record)

    @classmethod
    def _from_other_record(cls, record: Mapping) -> "Question":
        """:meth:`from_record` field by field, naming the first bad field.
        Its code loads only for a record the one expression refuses."""
        from .checks import question_by_field

        return question_by_field(cls, record)


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


def _question_columns(questions: list[Question]) -> list:
    """A block of questions as columns in field order, months as month indices."""
    columns = [*zip(*questions)]
    columns[9] = [t_ref and t_ref[0] * 12 + t_ref[1] - 1 for t_ref in columns[9]]  # timeline.month_index
    return columns


def _questions(columns: list[list]) -> list[Question] | None:
    """A cached block's questions, if every column has the types
    ``Question.from_record`` accepts in one expression."""
    (ids, levels, relations, subjects, subject_ids, template_ids, texts, answers, negatives, t_refs, neighbors,
     splits) = columns
    # raises TypeError, a miss, unless every item is a str
    "".join(chain(ids, template_ids, texts, splits, chain.from_iterable(chain(answers, negatives))))
    if (not {*levels} <= _LEVEL_SET or {*map(type, chain(answers, negatives))} - {list} or not all(answers)
            or {*map(type, chain(relations, subjects, subject_ids, neighbors))} - _TEXT_OR_NULL_SET
            or {*map(type, t_refs)} - _MONTH_OR_NULL):
        return None
    months = {index: _month(index) for index in {*t_refs} - {None}}  # validating
    months[None] = None
    return list(map(partial(tuple.__new__, Question),
                    zip(ids, levels, relations, subjects, subject_ids, template_ids, texts, map(tuple, answers),
                        map(tuple, negatives), map(months.__getitem__, t_refs), neighbors, splits, strict=True)))


_month = lru_cache(maxsize=1 << 14)(time_from_month_index)
_LEVEL_SET = frozenset(LEVELS)
_TEXT_OR_NULL_SET = frozenset(_TEXT_OR_NULL)
_MONTH_OR_NULL = frozenset((int, type(None)))
# The question codec of the input cache (jsonl.load_cached). Raise the
# number whenever the columns or their checks change.
QUESTION_COLUMNS = Columns("questions 1", _question_columns, _questions)


def _all_strings(items: list) -> bool:
    # A plain loop: about three times cheaper than all() over a generator.
    for item in items:
        if not isinstance(item, str):
            return False
    return True
