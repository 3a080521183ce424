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
from typing import TYPE_CHECKING, Mapping

from .records import Question
from .templates import load_templates
from .timeline import (
    BEFORE,
    DIRECTIONS,
    MIN_YEAR,
    MONTH_ABBREVS,
    TimePoint,
    _shuffle,
    below,
    format_time,
    month_index,
    time_from_month_index,
)

if TYPE_CHECKING:
    from .facts import FactGroup
    from .templates import TemplateTable

FUTURE_RANGE = (TimePoint(2022, 1), TimePoint(2040, 12))
MAX_YEAR_OFFSET = 10
MAX_MONTH_OFFSET = 11
_FIRST_MONTH_INDEX = 12 * MIN_YEAR  # the month index of Jan of year 1


class CapacityError(ValueError):
    """More unique questions were requested than the range can yield."""


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
    every question then only fills in its reference time. Each reference
    month is rendered once too, as (time point, year text, "Mon YYYY" text);
    an answer month not among them is formatted directly, not memoized: in a
    wide range most answer months never come again.
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
        template_direction_id, head, tail = parts
        known = months.get(answer_index)
        if by_year:
            text, answer = head + t_year + tail, known[1] if known else str(answer_index // 12)
        elif known:
            text, answer = head + t_month + tail, known[2]
        else:
            answer_year, answer_month0 = divmod(answer_index, 12)
            text, answer = head + t_month + tail, f"{MONTH_ABBREVS[answer_month0]} {answer_year}"
        return tuple.__new__(Question, (prefix + str(sequence).zfill(6), "L1", None, None, None,
                                        template_direction_id, text, (answer,), (), t_ref, None, split))

    return render


def gen_l1(time_range: tuple[TimePoint, TimePoint], count: int, seed: int, *,
           split: str = "train", templates: TemplateTable | None = None) -> list[Question]:
    """Generate ``count`` unique relative-time questions.

    Uniqueness is over (template, direction, reference time, offset). Year
    templates draw a bare reference year from the range's years; the other
    templates draw a reference month. Offsets whose result would fall before
    year 1 are never emitted.
    """
    templates = templates or load_templates()
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
        # Every field but the first (id) and the last (split) is kept.
        partitions[name] = [tuple.__new__(Question, (prefix + str(i).zfill(6), *question[1:-1], name))
                            for i, question in enumerate(chunk)]
    return partitions


def _objects_at(rows: list[tuple[str, str, int, int]], t_index: int) -> tuple[list[tuple[str, str]], list[str]]:
    """(valid (object, key) pairs in chronological order, invalid objects) at
    month index ``t_index``, over a group's :func:`_l2_builder` rows,
    deduplicated by scoring key. An object text valid anywhere then is never
    listed as invalid."""
    valid: list[tuple[str, str]] = []
    seen: set[str] = set()
    for obj, key, first, last in rows:
        if key not in seen and first <= t_index <= last:
            seen.add(key)
            valid.append((obj, key))
    negatives: list[str] = []
    for obj, key, _, _ in rows:
        if key not in seen:
            seen.add(key)
            negatives.append(obj)
    return valid, negatives


def _l2_builder(group: FactGroup, split: str, templates: TemplateTable):
    """The group's rows, (object, scoring key, first month index, last month
    index) per fact in group order, and a function ``(t_index, primary,
    primary_key, question_id)`` that builds its question at month index
    ``t_index``. The rows and the template id and text are made once per
    group."""
    rows = [(fact.object, key, month_index(fact.interval.start), month_index(fact.interval.end))
            for fact, key in zip(group.facts, group.keys)]
    relation, subject, subject_id = group.relation, group.subject, group.subject_id
    template_id = f"{relation}_l2"
    # render_l2 fills <t> last, by replace, so filling "<t>" for it fills in
    # the subject alone; each question then fills in its month.
    text = templates.render_l2(relation, subject, "<t>")

    def build(t_index: int, primary: str, primary_key: str, question_id: str) -> Question:
        valid, negatives = _objects_at(rows, t_index)
        answers = [primary] + [obj for obj, key in valid if key != primary_key]
        t_r = time_from_month_index(t_index)
        return Question(question_id, "L2", relation, subject, subject_id, template_id,
                        text.replace("<t>", format_time(t_r)), tuple(answers), tuple(negatives), t_r, None, split)

    return rows, build


def gen_l2(group: FactGroup, seed: int, *, split: str = "train",
           templates: TemplateTable | None = None) -> list[Question]:
    """One question per fact: sample a reference month inside the fact's
    validity range and ask which object held then.

    Answers list every object valid at the sampled month (the sampled fact's
    object first); negatives are the group's objects not valid then.
    """
    templates = templates or load_templates()
    getrandbits = random.Random(f"{seed}|l2|{group.subject_id}|{group.relation}").getrandbits
    rows, build = _l2_builder(group, split, templates)
    prefix = f"l2-{split}-{group.subject_id}-{group.relation}-"
    # The draws of rng.randint(first, last), one per fact in group order.
    return [build(first + below(last - first + 1, getrandbits), obj, key, prefix + str(j))
            for j, (obj, key, first, last) in enumerate(rows)]


def l2_question_at(group: FactGroup, t_r: TimePoint, *, split: str = "train",
                   templates: TemplateTable | None = None) -> Question:
    """Build the question asking for the group's object at an explicit month.

    The primary gold is the earliest-starting object valid at ``t_r``; there
    must be at least one.
    """
    templates = templates or load_templates()
    rows, build = _l2_builder(group, split, templates)
    t_index = month_index(t_r)
    valid, _ = _objects_at(rows, t_index)
    if not valid:
        raise ValueError(f"no object in the group is valid at {format_time(t_r)}")
    return build(t_index, *valid[0], f"l2-{split}-{group.subject_id}-{group.relation}-at-{t_index}")


def gen_l3(group: FactGroup, *, split: str = "train",
           templates: TemplateTable | None = None) -> list[Question]:
    """Before/after questions for chronologically adjacent fact pairs.

    Extraction is deterministic, so it takes no seed. A pair is skipped when
    its two objects normalize to the same string or start in the same month,
    and a direction is skipped when its pivot text also occurs earlier in the
    group, so every emitted question has exactly one defensible answer.
    """
    templates = templates or load_templates()
    facts, keys = group.facts, group.keys
    relation, subject, subject_id = group.relation, group.subject, group.subject_id
    objects = [fact.object for fact in facts]
    starts = [fact.interval.start for fact in facts]
    first_occurrence: dict[str, int] = {}
    for i, key in enumerate(keys):
        first_occurrence.setdefault(key, i)
    # Each key with its first object, in order of first occurrence: a
    # question's negatives are these, less its gold's key.
    firsts = [(key, objects[i]) for key, i in first_occurrence.items()]
    prefix = f"l3-{split}-{subject_id}-{relation}-"
    # render_l3 fills <o_j> last, by replace, so filling "<o_j>" for it fills
    # in the subject alone; each question then fills in its pivot.
    texts = {direction: (f"{relation}_l3_{direction}",
                         templates.render_l3(relation, direction, subject, "<o_j>"))
             for direction in DIRECTIONS}

    def build(i: int, direction: str, pivot: str, gold_index: int) -> Question:
        gold_key = keys[gold_index]
        template_id, text = texts[direction]
        return Question(f"{prefix}{i}-{direction}", "L3", relation, subject, subject_id, template_id,
                        text.replace("<o_j>", pivot), (objects[gold_index],),
                        tuple([obj for key, obj in firsts if key != gold_key]), None, pivot, split)

    questions = []
    for i in range(len(facts) - 1):
        if keys[i] == keys[i + 1]:
            continue
        if starts[i] == starts[i + 1]:
            continue
        if first_occurrence[keys[i]] == i:
            questions.append(build(i, "after", objects[i], i + 1))
        if first_occurrence[keys[i + 1]] == i + 1:
            questions.append(build(i, "before", objects[i + 1], i))
    return questions
