"""Shared builders for synthetic fact data, plus the independent
relative-time oracles used to re-verify generated and solved answers."""

from __future__ import annotations

import json
import random
import re
from typing import NamedTuple

import pytest

from chronoqa import TimePoint, build_groups, ingest, load_templates
from chronoqa.timeline import MIN_YEAR, TimeRangeError, format_time, month_index

# Every character class the escaper treats differently: quote, backslash,
# the C0 controls, DEL, the JavaScript line separators, non-ASCII, astral,
# and a lone surrogate (a str that cannot be written as UTF-8).
ESCAPES = "".join(map(chr, range(0x20))) + '"\\/\x7f   Zürich 東京 \U0001F600 \ud800'

# Lines the JSON decoder refuses with an error other than a JSONDecodeError,
# each with the start of that error's message.
UNDECODABLE = {
    "deep": ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
    "long-int": ('{"id": ' + "9" * 5000 + "}", "Exceeds the limit (4300 digits) for integer string conversion"),
}

MONTHS = ["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]
MONTH_NUM = {name: i + 1 for i, name in enumerate(MONTHS)}

L1_PATTERNS = [
    ("year", re.compile(r"^What is the year (\d+) years (before|after) (\d+)\?$")),
    ("year_one", re.compile(r"^What is the year (before|after) (\d+)\?$")),
    ("ym", re.compile(r"^What is the time (\d+) years? and (\d+) months? (before|after) ([A-Z][a-z]{2}) (\d+)\?$")),
    ("y", re.compile(r"^What is the time (\d+) years? (before|after) ([A-Z][a-z]{2}) (\d+)\?$")),
    ("m", re.compile(r"^What is the time (\d+) months? (before|after) ([A-Z][a-z]{2}) (\d+)\?$")),
]


def l1_oracle(question_text: str):
    """Independent answer computation: parse the surface form, convert to an
    absolute month index, add or subtract, convert back. Returns the answer
    text and a (x, y, direction, reference-index) key."""
    for kind, pattern in L1_PATTERNS:
        match = pattern.match(question_text)
        if not match:
            continue
        g = match.groups()
        if kind == "year":
            x, direction, year = int(g[0]), g[1], int(g[2])
            return str(year + x if direction == "after" else year - x), (x, 0, direction, year * 12)
        if kind == "year_one":
            direction, year = g[0], int(g[1])
            return str(year + 1 if direction == "after" else year - 1), (1, 0, direction, year * 12)
        if kind == "ym":
            x, y, direction, mon, year = int(g[0]), int(g[1]), g[2], g[3], int(g[4])
        elif kind == "y":
            x, y, direction, mon, year = int(g[0]), 0, g[1], g[2], int(g[3])
        else:
            x, y, direction, mon, year = 0, int(g[0]), g[1], g[2], int(g[3])
        index = year * 12 + MONTH_NUM[mon] - 1
        delta = 12 * x + y
        index = index + delta if direction == "after" else index - delta
        return f"{MONTHS[index % 12]} {index // 12}", (x, y, direction, year * 12 + MONTH_NUM[mon] - 1)
    raise AssertionError(f"unrecognized question: {question_text!r}")


class Offset(NamedTuple):
    """A displacement of whole years and months in one direction.

    At least one of (years, months) must be nonzero; both are non-negative,
    with the sign carried by ``direction``. With :func:`shift` it is the
    reference for ``oracle.solve_l1``'s month-index arithmetic, down to its
    error messages.
    """

    years: int
    months: int
    direction: str

    @property
    def total_months(self) -> int:
        return self.years * 12 + self.months


def _offset(cls, years: int, months: int, direction: str) -> Offset:
    # The validating constructor; typing.NamedTuple refuses one in the class body.
    if years < 0 or months < 0:
        raise ValueError("offset years and months must be non-negative")
    if years == 0 and months == 0:
        raise ValueError("offset must move by at least one month")
    if direction not in ("before", "after"):
        raise ValueError(f"direction must be 'before' or 'after', got {direction!r}")
    return tuple.__new__(cls, (years, months, direction))


Offset.__new__ = _offset


def time_from_month_index(index: int) -> TimePoint:
    """The month ``index`` months after Jan of year 0, the inverse of
    ``timeline.month_index``; a TimeRangeError before year 1."""
    year, month0 = divmod(index, 12)
    if year < MIN_YEAR:
        raise TimeRangeError(f"month index {index} falls before year {MIN_YEAR}")
    return TimePoint(year, month0 + 1)


def month_range(first: tuple[int, int], last: tuple[int, int]) -> tuple[int, int]:
    """The month indices of two (year, month) pairs: a ``gen_l1`` time range."""
    return month_index(TimePoint(*first)), month_index(TimePoint(*last))


def shift(t: TimePoint, offset: Offset) -> TimePoint:
    """The calendar month exactly ``offset`` away from ``t``."""
    delta = offset.total_months
    if offset.direction == "before":
        delta = -delta
    return time_from_month_index(month_index(t) + delta)


def month_text(index: int) -> str:
    return format_time(time_from_month_index(index))


def synth_rows(n_subjects: int, relation: str = "P39", facts_per_subject=(3, 8), seed: int = 0,
               start_year_range=(1900, 2010), allow_overlap: bool = False,
               subject_prefix: str = "") -> list[dict]:
    """Quintuplet rows with strictly increasing start months per subject and
    distinct object texts. With ``allow_overlap`` a fact may extend past the
    next fact's start, producing months with several valid objects."""
    rng = random.Random(f"synth|{relation}|{seed}")
    lo, hi = facts_per_subject
    rows = []
    for s in range(n_subjects):
        sid = f"{subject_prefix}Q-{relation}-{s:05d}"
        name = f"Subject {relation} {s:05d}"
        count = rng.randint(lo, hi)
        cursor = rng.randint(start_year_range[0] * 12, start_year_range[1] * 12)
        for j in range(count):
            start = cursor
            length = rng.randint(0, 48)
            end = start + length
            if allow_overlap and rng.random() < 0.3:
                end += rng.randint(6, 36)
            rows.append({
                "subject": name,
                "subject_id": sid,
                "relation": relation,
                "object": f"Role {relation}-{s}-{j}",
                "object_id": f"O-{relation}-{s}-{j}",
                "start": month_text(start),
                "end": month_text(end),
            })
            cursor = start + rng.randint(1, length + 24) if allow_overlap else end + rng.randint(1, 24)
        # keep starts strictly increasing even with overlap
    return rows


_DOC_WORDS = ["alpha", "beta", "gamma", "delta", "osaka", "governor", "july", "1999", "of", "term"]


def random_doc(rng: random.Random, doc_id: str, min_spans: int = 0):
    """Annotated document with word-aligned, non-overlapping spans (runs of
    consecutive chosen words merge into multi-word spans)."""
    from chronoqa import AnnotatedDocument

    words = [rng.choice(_DOC_WORDS) for _ in range(rng.randint(4, 60))]
    text = " ".join(words)
    offsets = []
    cursor = 0
    for word in words:
        offsets.append((cursor, cursor + len(word)))
        cursor += len(word) + 1
    max_spans = max(min_spans, min(8, len(words)))
    chosen = sorted(rng.sample(range(len(words)), rng.randint(min_spans, max_spans)))
    spans = []
    run_start = None
    previous = None
    for index in chosen + [None]:
        if run_start is None:
            run_start = index
        elif index is None or index != previous + 1:
            spans.append((offsets[run_start][0], offsets[previous][1],
                          rng.choice(["entity", "temporal"])))
            run_start = index
        previous = index
    return AnnotatedDocument(doc_id, text, tuple(spans))


def write_facts(path, rows) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    return str(path)


def make_group(rows_or_seed, relation: str = "P39"):
    """A single FactGroup, either from explicit rows or a seeded synthesis."""
    if isinstance(rows_or_seed, int):
        rows = synth_rows(1, relation=relation, seed=rows_or_seed)
    else:
        rows = rows_or_seed
    groups = build_groups(ingest(rows), seed=0)
    assert len(groups) == 1
    return groups[0]


def fact_sort_key(fact) -> tuple[int, int, int, int, str]:
    """The chronological order of a group's facts: start month, then end
    month, then object, compared as calendar (year, month) pairs."""
    start, end = time_from_month_index(fact.start), time_from_month_index(fact.end)
    return (start.year, start.month, end.year, end.month, fact.object)


def l2_question_at(group, t_r: TimePoint, *, split: str = "train", templates=None):
    """The L2 question asking for the group's object at an explicit month,
    built as ``gen_l2`` builds the one it samples there.

    The primary gold is the earliest-starting object valid at ``t_r``; there
    must be at least one.
    """
    from chronoqa.questions import _l2_builder, _objects_at

    rows, build = _l2_builder(group, split, templates or load_templates())
    t_index = month_index(t_r)
    valid, _ = _objects_at(rows, t_index)
    if not valid:
        raise ValueError(f"no object in the group is valid at {format_time(t_r)}")
    return build(t_index, *valid[0], f"l2-{split}-{group.subject_id}-{group.relation}-at-{t_index}")


YOSHIMURA_ROWS = [
    {"subject": "Hirofumi Yoshimura", "subject_id": "QY1", "relation": "P39",
     "object": "Governor of Osaka Prefecture", "object_id": "OY1",
     "start": "Apr 2019", "end": "Dec 2022"},
    {"subject": "Hirofumi Yoshimura", "subject_id": "QY1", "relation": "P39",
     "object": "Member of the House of Representatives of Japan", "object_id": "OY2",
     "start": "Dec 2014", "end": "Oct 2015"},
    {"subject": "Hirofumi Yoshimura", "subject_id": "QY1", "relation": "P39",
     "object": "Mayor of Osaka", "object_id": "OY3",
     "start": "Dec 2015", "end": "Mar 2019"},
]


@pytest.fixture
def yoshimura_group():
    return make_group(YOSHIMURA_ROWS)


@pytest.fixture
def jul_2019():
    return TimePoint(2019, 7)
