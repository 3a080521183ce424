"""Symbolic solver for generated questions.

The solver works from structured facts only: L1 questions are parsed back
into (reference time, offset) and answered by calendar arithmetic, L2 by an
interval containment scan, and L3 by chronological adjacency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generic, Iterable, NamedTuple, TypeVar

from .scoring import normalized_key
from .templates import TemplateTable, load_templates
from .timeline import (
    AFTER,
    BEFORE,
    MIN_YEAR,
    MONTH_ABBREVS,
    TimePoint,
    TimeParseError,
    TimeRangeError,
    is_year_text,
    parse_time_cached,
)

if TYPE_CHECKING:
    from .facts import FactGroup
    from .records import Question


T = TypeVar("T")


class OracleError(ValueError):
    """The solver could not interpret a question or locate its facts."""


class OracleAnswer(NamedTuple):
    """Ranked answer texts.

    ``answers`` is empty when no fact satisfies the question ("no valid
    answer" is an explicit result, never a crash).
    """

    answers: tuple[str, ...]

    @property
    def no_valid_answer(self) -> bool:
        return not self.answers


def solve_l1(question: Question, templates: TemplateTable | None = None) -> OracleAnswer:
    """Answer a relative-time question from its surface form.

    The answer is the reference month's index, ``12 * year + month - 1``,
    moved by the offset. A zero offset and an answer before year 1 are
    errors."""
    templates = templates or load_templates()
    for _, granularity, direction, pattern, fixed_x in templates.l1_candidates(question.template_id):
        match = pattern.match(question.question)
        if match is None:
            continue
        groups = match.groupdict()
        years = int(groups["x"]) if "x" in groups else (fixed_x or 0)
        months = int(groups["y"]) if "y" in groups else 0
        t_text = groups["t"]
        try:
            if granularity == "year":
                if not is_year_text(t_text):
                    raise OracleError(f"expected a bare year, got {t_text!r}")
                year, month = TimePoint(int(t_text), 1)
            else:
                if len(t_text.split()) != 2:
                    raise OracleError(f"expected 'Mon YYYY', got {t_text!r}")
                year, month = parse_time_cached(t_text, 1)
            shifted = 12 * years + months
            if not shifted:
                raise ValueError("offset must move by at least one month")
            index = 12 * year + month - 1
            index = index - shifted if direction == BEFORE else index + shifted
            if index < 12 * MIN_YEAR:
                raise TimeRangeError(f"month index {index} falls before year {MIN_YEAR}")
        except (TimeParseError, TimeRangeError, ValueError) as exc:
            raise OracleError(f"malformed question {question.id!r}: {exc}") from exc
        year, month0 = divmod(index, 12)
        return OracleAnswer((str(year) if granularity == "year" else f"{MONTH_ABBREVS[month0]} {year}",))
    raise OracleError(f"question {question.id!r} matches no relative-time template: {question.question!r}")


def solve_l2(group: FactGroup, t_r: TimePoint) -> OracleAnswer:
    """All objects valid at the reference month, ordered by interval start.

    The result does not depend on the order the group's facts arrive in:
    a :class:`FactGroup` sorts them on construction.
    """
    answers: list[str] = []
    seen: set[str] = set()
    for fact, key in zip(group.facts, group.keys):
        if fact.interval.contains(t_r) and key not in seen:
            seen.add(key)
            answers.append(fact.object)
    return OracleAnswer(tuple(answers))


def solve_l3(group: FactGroup, neighbor_object: str, direction: str) -> OracleAnswer:
    """The chronologically adjacent object next to the pivot.

    When the pivot text occurs more than once, its earliest occurrence is
    used. A pivot at the group boundary yields "no valid answer".
    """
    if direction not in (BEFORE, AFTER):
        raise OracleError(f"direction must be 'before' or 'after', got {direction!r}")
    try:
        position = group.keys.index(normalized_key(neighbor_object))
    except ValueError:
        raise OracleError(f"pivot object {neighbor_object!r} does not occur in the group") from None
    answer_position = position + 1 if direction == AFTER else position - 1
    if 0 <= answer_position < len(group.facts):
        return OracleAnswer((group.facts[answer_position].object,))
    return OracleAnswer(())


class SubjectIndex(Generic[T]):
    """Values keyed by subject id, and separately by subject name, each
    optionally narrowed by a relation. ``entries`` holds
    ``(subject_id, subject, value, relation)`` tuples; ids and names may be None."""

    def __init__(self, kind: str, entries: Iterable[tuple[str | None, str | None, T, str | None]]) -> None:
        self.kind = kind
        self.by_id: dict[tuple[str, str | None], T] = {}
        self.by_name: dict[tuple[str, str | None], T] = {}
        self.ids_by_name: dict[str, set[str | None]] = {}
        for subject_id, subject, value, relation in entries:
            if subject_id is not None:
                self.by_id[(subject_id, relation)] = value
            if subject is not None:
                self.by_name.setdefault((subject, relation), value)
                self.ids_by_name.setdefault(subject, set()).add(subject_id)

    def resolve(self, question: Question, relation: str | None = None) -> T:
        """The value for the question's subject: by ``subject_id`` when the
        question has one, otherwise by a name that only one subject holds."""
        subject_id, subject = question.subject_id, question.subject
        if subject_id is not None:
            value = self.by_id.get((subject_id, relation))
        else:
            subjects = len(self.ids_by_name.get(subject, ()))
            if subjects > 1:
                raise OracleError(f"question {question.id!r}: subject name {subject!r} is shared by "
                                  f"{subjects} subjects; give a subject_id")
            value = self.by_name.get((subject, relation))
        if value is None:
            key = f"subject_id {subject_id!r}" if subject_id is not None else f"subject {subject!r}"
            at = f" relation {relation!r}" if relation is not None else ""
            raise OracleError(f"question {question.id!r}: no {self.kind} for {key}{at}")
        return value


def index_groups(groups: Iterable[FactGroup]) -> SubjectIndex[FactGroup]:
    """Index groups by subject and relation for :func:`solve` and rendering."""
    return SubjectIndex("fact group", ((g.subject_id, g.subject, g, g.relation) for g in groups))


def _l3_direction(question: Question) -> str:
    if question.template_id.endswith("_before"):
        return BEFORE
    if question.template_id.endswith("_after"):
        return AFTER
    raise OracleError(f"cannot determine before/after direction of question {question.id!r}")


def solve(question: Question, groups: SubjectIndex[FactGroup] | None = None,
          templates: TemplateTable | None = None) -> OracleAnswer:
    """Dispatch a question of any level to its solver."""
    if question.level == "L1":
        return solve_l1(question, templates)
    if question.level not in ("L2", "L3"):
        raise OracleError(f"unknown question level {question.level!r}")
    if groups is None:
        raise OracleError("structured facts are required to solve L2/L3 questions")
    group = groups.resolve(question, question.relation)
    if question.level == "L2":
        if question.t_ref is None:
            raise OracleError(f"L2 question {question.id!r} has no reference time")
        return solve_l2(group, question.t_ref)
    if not question.neighbor_object:
        raise OracleError(f"L3 question {question.id!r} has no pivot object")
    return solve_l3(group, question.neighbor_object, _l3_direction(question))
