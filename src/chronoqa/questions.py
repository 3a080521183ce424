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
from itertools import accumulate, product
from types import SimpleNamespace
from typing import TYPE_CHECKING, Mapping

from .jsonl import quote
from .records import Question
from .templates import load_templates
from .timeline import (
    BEFORE,
    DIRECTIONS,
    MIN_YEAR,
    TimeRangeError,
    _shuffle,
    below,
    format_month,
)

if TYPE_CHECKING:
    from .facts import FactGroup
    from .templates import TemplateTable

FUTURE_RANGE = (12 * 2022, 12 * 2040 + 11)  # Jan 2022 to Dec 2040, as month indices
MAX_YEAR_OFFSET = 10
MAX_MONTH_OFFSET = 11
_FIRST_MONTH_INDEX = 12 * MIN_YEAR  # the month index of Jan of year 1


class CapacityError(ValueError):
    """More unique questions were requested than the range can yield."""


def _l1_renderer(templates: TemplateTable, split: str) -> SimpleNamespace:
    """The two views of an L1 draw ``(position, direction, t_index, x, y)``
    numbered ``n`` in ``split``: ``question(draw, n)``, its Question, and
    ``line(draw, n)``, the line ``record_line`` writes for that question,
    built without it.

    Times are month indices. Each (template, direction, x, y) is rendered
    once, up to its ``<t>`` (which a loaded template holds exactly once),
    and the line's text around its times is quoted once; a draw then only
    fills in its id and months, which need no escape.
    """
    pieces: dict[tuple, tuple] = {}
    prefix = f"l1-{split}-"  # ids are prefix + str(n).zfill(6): f"{n:06d}"'s text, built for less
    id_open, split_text = quote(prefix)[:-1], quote(split)

    def cached(key: tuple) -> tuple:
        position, direction, x, y = key
        template = templates.l1[position]
        head, tail = templates.render_l1(template, direction, x, y, "<t>").split("<t>")
        template_id = f"{template.id}_{direction}"
        pieces[key] = parts = (
            template.granularity == "year", -12 * x - y if direction == BEFORE else 12 * x + y, template_id, head,
            tail, f'", "level": "L1", "negatives": [], "neighbor_object": null, "question": {quote(head)[:-1]}',
            f'{quote(tail)[1:]}, "relation": null, "split": {split_text}, "subject": null, "subject_id": null, '
            '"t_ref": "', f'", "template_id": {quote(template_id)}}}')
        return parts

    def question(draw: tuple, n: int) -> Question:
        position, direction, t_index, x, y = draw
        key = (position, direction, x, y)
        by_year, shift, template_id, head, tail, _, _, _ = pieces.get(key) or cached(key)
        if by_year:
            text, answer = head + str(t_index // 12) + tail, str((t_index + shift) // 12)
        else:
            text, answer = head + format_month(t_index) + tail, format_month(t_index + shift)
        return tuple.__new__(Question, (prefix + str(n).zfill(6), "L1", None, None, None, template_id, text,
                                        (answer,), (), t_index, None, split))

    def line(draw: tuple, n: int) -> str:
        position, direction, t_index, x, y = draw
        key = (position, direction, x, y)
        by_year, shift, _, _, _, before_text, after_text, end = pieces.get(key) or cached(key)
        t_ref = format_month(t_index)
        if by_year:
            t_text, answer = str(t_index // 12), str((t_index + shift) // 12)
        else:
            t_text, answer = t_ref, format_month(t_index + shift)
        return (f'{{"answers": ["{answer}"], "id": {id_open}{str(n).zfill(6)}{before_text}{t_text}{after_text}'
                f'{t_ref}{end}')

    return SimpleNamespace(question=question, line=line)


def l1_questions(draws: list[tuple], split: str, templates: TemplateTable | None = None) -> list[Question]:
    """The questions of :func:`gen_l1`'s draws in ``split``, numbered from 0."""
    return list(map(_l1_renderer(templates or load_templates(), split).question, draws, range(len(draws))))


def gen_l1(time_range: tuple[int, int], count: int, seed: int, *,
           split: str = "train", templates: TemplateTable | None = None) -> list[tuple]:
    """Draw ``count`` unique relative-time questions in ``time_range``, two
    month indices, each as ``(template position, direction, t_index, x, y)``;
    :func:`l1_questions` builds them.

    Uniqueness is over (template, direction, reference time, offset). Year
    templates draw a bare reference year from the range's years; the other
    templates draw a reference month. Offsets whose result would fall before
    year 1 are never emitted. ``split`` seeds the draws.
    """
    templates = templates or load_templates()
    index_lo, index_hi = time_range
    if index_lo < _FIRST_MONTH_INDEX:
        raise TimeRangeError(f"month index {index_lo} falls before year {MIN_YEAR}")
    if index_hi < index_lo:
        raise ValueError(f"empty time range: {format_month(index_lo)}..{format_month(index_hi)}")
    months, year_lo = index_hi - index_lo + 1, index_lo // 12
    years = index_hi // 12 - year_lo + 1
    # per L1 template, by position: (year granularity, uses years, uses months)
    families = [(template.granularity == "year", template.uses_years(), template.uses_months())
                for template in templates.l1]
    space = sum(len(DIRECTIONS) * (MAX_YEAR_OFFSET if uses_years else 1) * (MAX_MONTH_OFFSET if uses_months else 1)
                * (years if by_year else months) for by_year, uses_years, uses_months in families)
    if count > space:
        raise CapacityError(f"requested {count} questions but the range holds only {space} unique combinations")

    rng = random.Random(f"{seed}|l1|{split}")
    if count > space // 2:
        return _gen_l1_enumerated(families, rng, index_lo, index_hi, year_lo, index_hi // 12, count)

    # The draws of rng.choice(families), rng.choice(DIRECTIONS), then
    # rng.randint over the years or months, and over each offset used.
    # No stall guard: every after draw is valid, and they are half the space.
    getrandbits, family_count, direction_count = rng.getrandbits, len(families), len(DIRECTIONS)
    seen: set[tuple] = set()
    draws: list[tuple] = []
    while len(draws) < count:
        position = below(family_count, getrandbits)
        by_year, uses_years, uses_months = families[position]
        direction = DIRECTIONS[below(direction_count, getrandbits)]
        t_index = 12 * (year_lo + below(years, getrandbits)) if by_year else index_lo + below(months, getrandbits)
        x = 1 + below(MAX_YEAR_OFFSET, getrandbits) if uses_years else 0
        y = 1 + below(MAX_MONTH_OFFSET, getrandbits) if uses_months else 0
        draw = (position, direction, t_index, x, y)
        if draw not in seen:
            seen.add(draw)
            if direction != BEFORE or t_index - 12 * x - y >= _FIRST_MONTH_INDEX:  # else the draw stays burned
                draws.append(draw)
    return draws


def _gen_l1_enumerated(families: list[tuple], rng: random.Random, index_lo: int, index_hi: int,
                       year_lo: int, year_hi: int, count: int) -> list[tuple]:
    # Dense requests enumerate the whole space instead of rejection sampling.
    draws: list[tuple] = []
    for position, (by_year, uses_years, uses_months) in enumerate(families):
        xs = range(1, MAX_YEAR_OFFSET + 1) if uses_years else (0,)
        ys = range(1, MAX_MONTH_OFFSET + 1) if uses_months else (0,)
        slots = range(12 * year_lo, 12 * year_hi + 1, 12) if by_year else range(index_lo, index_hi + 1)
        draws.extend(product((position,), DIRECTIONS, slots, xs, ys))
    _shuffle(draws, rng)
    if 12 * (year_lo - MAX_YEAR_OFFSET) - MAX_MONTH_OFFSET < _FIRST_MONTH_INDEX:  # some answers fall before year 1
        draws = [draw for draw in draws if draw[1] != BEFORE or draw[2] - 12 * draw[3] - draw[4] >= _FIRST_MONTH_INDEX]
    if len(draws) < count:
        raise CapacityError(f"only {len(draws)} of {count} requested questions are representable in range")
    return draws[:count]


def gen_l1_future(count: int, seed: int, *, templates: TemplateTable | None = None) -> list[tuple]:
    """The out-of-domain set's draws: reference times from 2022 to 2040."""
    return gen_l1(FUTURE_RANGE, count, seed, split="future", templates=templates)


def partition_l1(draws: list[tuple], counts: Mapping[str, int], seed: int) -> dict[str, list[tuple]]:
    """Randomly assign a unique pool of draws to splits, each numbered from 0 when it is built."""
    total = sum(counts.values())
    if total != len(draws):
        raise ValueError(f"split counts sum to {total} but the pool has {len(draws)} questions")
    pool = list(draws)
    _shuffle(pool, random.Random(f"{seed}|l1-partition"))
    return {name: pool[end - size:end] for (name, size), end in zip(counts.items(), accumulate(counts.values()))}


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
    rows = [(fact.object, key, fact.start, fact.end) for fact, key in zip(group.facts, group.keys)]
    relation, subject, subject_id = group.relation, group.subject, group.subject_id
    template_id = f"{relation}_l2"
    # render_l2 fills <t> last, by replace, so filling "<t>" for it fills in
    # the subject alone; each question then fills in its month.
    text = templates.render_l2(relation, subject, "<t>")

    def build(t_index: int, primary: str, primary_key: str, question_id: str) -> Question:
        valid, negatives = _objects_at(rows, t_index)
        answers = [primary] + [obj for obj, key in valid if key != primary_key]
        return Question(question_id, "L2", relation, subject, subject_id, template_id,
                        text.replace("<t>", format_month(t_index)), tuple(answers), tuple(negatives), t_index, None,
                        split)

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
        if keys[i] == keys[i + 1] or facts[i].start == facts[i + 1].start:
            continue
        if first_occurrence[keys[i]] == i:
            questions.append(build(i, "after", objects[i], i + 1))
        if first_occurrence[keys[i + 1]] == i + 1:
            questions.append(build(i, "before", objects[i + 1], i))
    return questions
