"""Question generation for the three reasoning levels.

L1 questions relate two times (shift a reference time by a year/month
offset), L2 questions ask which object was valid at a sampled reference
month, and L3 questions ask for the chronological neighbor of a pivot object
inside a fact group. Gold answers are computed symbolically from the facts;
the temporally wrong objects of the same group become the negative answer
set.

All generation is deterministic: L1 draws from a seeded stream, while L2
derives a per-group RNG from (seed, group key) so results do not depend on
worker scheduling or group order.
"""

from __future__ import annotations

import random
from itertools import product
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .jsonl import quote
from .timeline import (
    BEFORE,
    DIRECTIONS,
    MIN_YEAR,
    MONTH_ABBREVS,
    SAME,
    TimePoint,
    compare,
    format_time,
    month_index,
    parse_time_cached,
    time_from_month_index,
)

if TYPE_CHECKING:
    from .facts import FactGroup
    from .templates import TemplateTable

LEVELS = ("L1", "L2", "L3")
FUTURE_RANGE = (TimePoint(2022, 1), TimePoint(2040, 12))
MAX_YEAR_OFFSET = 10
MAX_MONTH_OFFSET = 11
_FIRST_MONTH_INDEX = 12 * MIN_YEAR  # the month index of Jan of year 1
_TEXT_FIELDS = ("id", "question", "template_id", "split")
_OPTIONAL_TEXT_FIELDS = ("relation", "subject", "subject_id", "neighbor_object")
_TEXT_OR_NULL = (str, type(None))


class CapacityError(ValueError):
    """More unique questions were requested than the range can yield."""


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
        # By position: a keyword call costs more, once per record.
        return cls(question_id, level, relation, subject, subject_id, template_id, question, tuple(answers),
                   tuple(negatives), None if t_ref is None else parse_time_cached(t_ref, 1), neighbor_object, split)


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


def _default_templates() -> TemplateTable:
    # Imported here: reading a question file (eval, reward) needs no templates.
    from .templates import load_templates

    return load_templates()


def _all_strings(items: list) -> bool:
    # A plain loop: about three times cheaper than all() over a generator.
    for item in items:
        if not isinstance(item, str):
            return False
    return True


def below(n: int, getrandbits) -> int:
    """A draw in ``range(n)``, ``n > 0``, from a ``Random``'s ``getrandbits``:
    the draws CPython 3.10-3.13 makes for ``randrange(n)``, so ``choice``,
    ``randint`` and ``shuffle`` go through it too, under more calls."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _shuffle(items: list, rng: random.Random) -> None:
    """``rng.shuffle(items)``: the same draws and swaps."""
    getrandbits = rng.getrandbits
    for i in range(len(items) - 1, 0, -1):
        j = below(i + 1, getrandbits)
        items[i], items[j] = items[j], items[i]


def _l1_families(templates: TemplateTable) -> list[tuple]:
    """Per L1 template: (position, template, id, year granularity, uses
    years, uses months)."""
    return [(i, template, template.id, template.granularity == "year", template.uses_years(),
             template.uses_months()) for i, template in enumerate(templates.l1)]


def _l1_combination_space(families: list[tuple], months: int, years: int) -> int:
    space = 0
    for _, _, _, by_year, uses_years, uses_months in families:
        per_direction = (MAX_YEAR_OFFSET if uses_years else 1) * (MAX_MONTH_OFFSET if uses_months else 1)
        space += len(DIRECTIONS) * per_direction * (years if by_year else months)
    return space


def _l1_renderer(templates: TemplateTable, split: str):
    """A function ``(family, direction, t_index, x, y, sequence)`` that
    returns the question, or None when the answer falls before year 1.

    Times are month indices. Each (template, direction, x, y) is rendered
    once, up to its ``<t>`` (which a loaded template holds exactly once);
    every question then only fills in its reference time. Each month is
    rendered once too, as (time point, year text, "Mon YYYY" text).
    """
    texts: dict[tuple, tuple[str, str, str]] = {}
    months: dict[int, tuple[TimePoint, str, str]] = {}
    prefix = f"l1-{split}-"  # ids are prefix + str(n).zfill(6): f"{n:06d}"'s text, built for less

    def month(index: int) -> tuple[TimePoint, str, str]:
        year, month0 = divmod(index, 12)
        months[index] = entry = (TimePoint(year, month0 + 1), str(year), f"{MONTH_ABBREVS[month0]} {year}")
        return entry

    def render(family: tuple, direction: str, t_index: int, x: int, y: int, sequence: int) -> Question | None:
        shifted = 12 * x + y
        answer_index = t_index - shifted if direction == BEFORE else t_index + shifted
        if answer_index < _FIRST_MONTH_INDEX:
            return None
        position, template, template_id, by_year, _, _ = family
        key = (position, direction, x, y)
        parts = texts.get(key)
        if parts is None:
            head, tail = templates.render_l1(template, direction, x, y, "<t>").split("<t>")
            parts = texts[key] = (f"{template_id}_{direction}", head, tail)
        t_ref, t_year, t_month = months.get(t_index) or month(t_index)
        _, answer_year, answer_month = months.get(answer_index) or month(answer_index)
        template_direction_id, head, tail = parts
        if by_year:
            text, answer = head + t_year + tail, answer_year
        else:
            text, answer = head + t_month + tail, answer_month
        return Question(prefix + str(sequence).zfill(6), "L1", None, None, None, template_direction_id, text,
                        (answer,), (), t_ref, None, split)

    return render


def gen_l1(time_range: tuple[TimePoint, TimePoint], count: int, seed: int, *,
           split: str = "train", templates: TemplateTable | None = None) -> list[Question]:
    """Generate ``count`` unique relative-time questions.

    Uniqueness is over (template, direction, reference time, offset). Year
    templates draw a bare reference year from the range's years; the other
    templates draw a reference month. Offsets whose result would fall before
    year 1 are never emitted.
    """
    templates = templates or _default_templates()
    start, end = time_range
    if end < start:
        raise ValueError(f"empty time range: {format_time(start)}..{format_time(end)}")
    index_lo, index_hi = month_index(start), month_index(end)
    months = index_hi - index_lo + 1
    years = end.year - start.year + 1
    families = _l1_families(templates)
    space = _l1_combination_space(families, months, years)
    if count > space:
        raise CapacityError(f"requested {count} questions but the range holds only {space} unique combinations")

    rng = random.Random(f"{seed}|l1|{split}")
    render = _l1_renderer(templates, split)
    if count > space // 2:
        return _gen_l1_enumerated(families, render, rng, index_lo, index_hi, start.year, end.year, count)

    # The draws of rng.choice(families), rng.choice(DIRECTIONS), then
    # rng.randint over the years or months, and over each offset used.
    getrandbits, family_count, direction_count = rng.getrandbits, len(families), len(DIRECTIONS)
    seen: set[tuple] = set()
    out: list[Question] = []
    attempts = 0
    budget = max(200_000, 50 * count)
    while len(out) < count:
        attempts += 1
        if attempts > budget:
            raise CapacityError("unique-question sampling stalled; too few valid combinations in range")
        family = families[below(family_count, getrandbits)]
        _, _, template_id, by_year, uses_years, uses_months = family
        direction = DIRECTIONS[below(direction_count, getrandbits)]
        t_index = 12 * (start.year + below(years, getrandbits)) if by_year else index_lo + below(months, getrandbits)
        x = 1 + below(MAX_YEAR_OFFSET, getrandbits) if uses_years else 0
        y = 1 + below(MAX_MONTH_OFFSET, getrandbits) if uses_months else 0
        key = (template_id, direction, t_index, x, y)
        if key in seen:
            continue
        seen.add(key)
        question = render(family, direction, t_index, x, y, len(out))
        if question is not None:  # else the answer fell before year 1; the key stays burned
            out.append(question)
    return out


def _gen_l1_enumerated(families: list[tuple], render, rng: random.Random, index_lo: int, index_hi: int,
                       year_lo: int, year_hi: int, count: int) -> list[Question]:
    # Dense requests enumerate the whole space instead of rejection sampling.
    combos: list[tuple] = []
    for position, _, _, by_year, uses_years, uses_months in families:
        xs = range(1, MAX_YEAR_OFFSET + 1) if uses_years else (0,)
        ys = range(1, MAX_MONTH_OFFSET + 1) if uses_months else (0,)
        slots = range(12 * year_lo, 12 * year_hi + 1, 12) if by_year else range(index_lo, index_hi + 1)
        combos.extend(product((position,), DIRECTIONS, slots, xs, ys))
    _shuffle(combos, rng)
    out: list[Question] = []
    for position, direction, t_index, x, y in combos:
        if len(out) == count:
            break
        question = render(families[position], direction, t_index, x, y, len(out))
        if question is not None:
            out.append(question)
    if len(out) < count:
        raise CapacityError(f"only {len(out)} of {count} requested questions are representable in range")
    return out


def gen_l1_future(count: int, seed: int, *, templates: TemplateTable | None = None) -> list[Question]:
    """The out-of-domain set: reference times drawn from 2022 to 2040."""
    return gen_l1(FUTURE_RANGE, count, seed, split="future", templates=templates)


def partition_l1(questions: list[Question], counts: Mapping[str, int], seed: int) -> dict[str, list[Question]]:
    """Randomly assign a unique question pool to splits and renumber ids."""
    total = sum(counts.values())
    if total != len(questions):
        raise ValueError(f"split counts sum to {total} but the pool has {len(questions)} questions")
    pool = list(questions)
    _shuffle(pool, random.Random(f"{seed}|l1-partition"))
    partitions: dict[str, list[Question]] = {}
    cursor = 0
    for name, size in counts.items():
        chunk = pool[cursor:cursor + size]
        cursor += size
        prefix = f"l1-{name}-"
        # By position: every field but the first (id) and the last (split) is kept.
        partitions[name] = [Question(prefix + str(i).zfill(6), *question[1:-1], name)
                            for i, question in enumerate(chunk)]
    return partitions


def _objects_at(group: FactGroup, t_r: TimePoint) -> tuple[list[tuple[str, str]], list[str]]:
    """(valid (object, key) pairs in chronological order, invalid objects),
    deduplicated by the group's scoring keys. An object text valid anywhere
    at ``t_r`` is never listed as invalid."""
    valid: list[tuple[str, str]] = []
    seen: set[str] = set()
    for fact, key in zip(group.facts, group.keys):
        if key not in seen and fact.interval.contains(t_r):
            seen.add(key)
            valid.append((fact.object, key))
    negatives: list[str] = []
    for fact, key in zip(group.facts, group.keys):
        if key not in seen:
            seen.add(key)
            negatives.append(fact.object)
    return valid, negatives


def _l2_question(group: FactGroup, t_r: TimePoint, primary: str, primary_key: str, question_id: str,
                 split: str, templates: TemplateTable) -> Question:
    valid, negatives = _objects_at(group, t_r)
    answers = [primary] + [obj for obj, key in valid if key != primary_key]
    return Question(id=question_id, level="L2", relation=group.relation, subject=group.subject,
                    subject_id=group.subject_id, template_id=f"{group.relation}_l2",
                    question=templates.render_l2(group.relation, group.subject, format_time(t_r)),
                    answers=tuple(answers), negatives=tuple(negatives), t_ref=t_r, neighbor_object=None,
                    split=split)


def gen_l2(group: FactGroup, seed: int, *, split: str = "train",
           templates: TemplateTable | None = None) -> list[Question]:
    """One question per fact: sample a reference month inside the fact's
    validity range and ask which object held then.

    Answers list every object valid at the sampled month (the sampled fact's
    object first); negatives are the group's objects not valid then.
    """
    templates = templates or _default_templates()
    rng = random.Random(f"{seed}|l2|{group.subject_id}|{group.relation}")
    questions = []
    for j, (fact, key) in enumerate(zip(group.facts, group.keys)):
        t_r = time_from_month_index(
            rng.randint(month_index(fact.interval.start), month_index(fact.interval.end)))
        questions.append(_l2_question(
            group, t_r, fact.object, key,
            f"l2-{split}-{group.subject_id}-{group.relation}-{j}", split, templates))
    return questions


def l2_question_at(group: FactGroup, t_r: TimePoint, *, split: str = "train",
                   templates: TemplateTable | None = None) -> Question:
    """Build the question asking for the group's object at an explicit month.

    The primary gold is the earliest-starting object valid at ``t_r``; there
    must be at least one.
    """
    templates = templates or _default_templates()
    valid, _ = _objects_at(group, t_r)
    if not valid:
        raise ValueError(f"no object in the group is valid at {format_time(t_r)}")
    question_id = f"l2-{split}-{group.subject_id}-{group.relation}-at-{month_index(t_r)}"
    return _l2_question(group, t_r, *valid[0], question_id, split, templates)


def gen_l3(group: FactGroup, *, split: str = "train",
           templates: TemplateTable | None = None) -> list[Question]:
    """Before/after questions for chronologically adjacent fact pairs.

    Extraction is deterministic, so it takes no seed. A pair is skipped when
    its two objects normalize to the same string or start in the same month,
    and a direction is skipped when its pivot text also occurs earlier in the
    group, so every emitted question has exactly one defensible answer.
    """
    templates = templates or _default_templates()
    facts, keys = group.facts, group.keys
    first_occurrence: dict[str, int] = {}
    for i, key in enumerate(keys):
        first_occurrence.setdefault(key, i)

    def build(i: int, direction: str, pivot: str, gold_index: int) -> Question:
        gold_key = keys[gold_index]
        negatives: list[str] = []
        seen: set[str] = set()
        for fact, key in zip(facts, keys):
            if key == gold_key or key in seen:
                continue
            seen.add(key)
            negatives.append(fact.object)
        return Question(id=f"l3-{split}-{group.subject_id}-{group.relation}-{i}-{direction}", level="L3",
                        relation=group.relation, subject=group.subject, subject_id=group.subject_id,
                        template_id=f"{group.relation}_l3_{direction}",
                        question=templates.render_l3(group.relation, direction, group.subject, pivot),
                        answers=(facts[gold_index].object,), negatives=tuple(negatives), t_ref=None,
                        neighbor_object=pivot, split=split)

    questions = []
    for i in range(len(facts) - 1):
        if keys[i] == keys[i + 1]:
            continue
        if compare(facts[i].interval.start, facts[i + 1].interval.start) == SAME:
            continue
        if first_occurrence[keys[i]] == i:
            questions.append(build(i, "after", facts[i].object, i + 1))
        if first_occurrence[keys[i + 1]] == i + 1:
            questions.append(build(i, "before", facts[i + 1].object, i))
    return questions
