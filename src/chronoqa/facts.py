"""Temporal fact ingestion, grouping, filtering, and splitting.

Facts arrive as JSONL quintuplet rows (subject, relation, object plus a
validity range) and are validated against the closed relation set of the
template table. Groups share (subject_id, relation), are chronologically
sorted, and only survive with three or more facts; each relation keeps at
most a fixed number of subjects, subsampled by seeded shuffle.
"""

from __future__ import annotations

import json
import random
import sys
from collections import defaultdict
from functools import partial
from itertools import chain, repeat
from operator import itemgetter, le
from typing import Iterable, Mapping, NamedTuple

from .jsonl import Columns, load_cached
from .scoring import _Memo, normalized_key
from .templates import load_templates
from .timeline import DEFAULT_SNAPSHOT, MIN_YEAR, format_month, parse_month

MAX_SUBJECTS_PER_RELATION = 2000
MIN_FACTS_PER_GROUP = 3

_REQUIRED_FIELDS = ("subject", "subject_id", "relation", "object", "object_id", "start")
_required_fields = itemgetter(*_REQUIRED_FIELDS)


class Diagnostic(NamedTuple):
    """One rejected input row."""

    line: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}"


class Fact(NamedTuple):
    """One time-scoped KB statement: subject held `object` from month `start`
    through month `end`, both inclusive :func:`timeline.month_index` values.
    An ongoing fact ends at the KB snapshot month."""

    subject: str
    subject_id: str
    relation: str
    object: str
    object_id: str
    start: int
    end: int


# Chronological order, read in C: start month, then end month, then object.
_CHRONOLOGICAL = itemgetter(5, 6, 3)


class FactGroup:
    """All facts sharing (subject_id, relation), sorted on construction by
    start month, then end month, then object, whatever order they arrive in.

    Groups compare and hash by their four fields, so do not change a group
    once it is in use."""

    __slots__ = ("subject", "subject_id", "relation", "facts", "_keys", "_lines")

    def __init__(self, subject: str, subject_id: str, relation: str, facts: Iterable[Fact]) -> None:
        self.subject, self.subject_id, self.relation = subject, subject_id, relation
        self.facts: tuple[Fact, ...] = tuple(sorted(facts, key=_CHRONOLOGICAL))
        self._keys: tuple[str, ...] | None = None
        self._lines: tuple[str, ...] | None = None

    def _fields(self) -> tuple:
        return (self.subject, self.subject_id, self.relation, self.facts)

    def __eq__(self, other: object) -> bool:
        return type(other) is FactGroup and self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return "FactGroup(subject=%r, subject_id=%r, relation=%r, facts=%r)" % self._fields()

    @property
    def key(self) -> tuple[str, str]:
        return (self.subject_id, self.relation)

    @property
    def keys(self) -> tuple[str, ...]:
        """The scoring key of each fact's object, aligned with ``facts``;
        computed on first use, so grouping itself normalizes nothing."""
        if self._keys is None:
            self._keys = tuple(normalized_key(fact.object) for fact in self.facts)
        return self._keys

    @property
    def lines(self) -> tuple[str, ...]:
        """Each fact as a line of the structured-facts prompt, ``"<object>
        from <start> to <end>."``, aligned with ``facts``; formatted on first
        use, so a group's months are formatted once however many prompts
        show it."""
        if self._lines is None:
            self._lines = tuple(f"{obj} from {format_month(start)} to {format_month(end)}."
                                for _, _, _, obj, _, start, end in self.facts)
        return self._lines


class FactStore(NamedTuple):
    """Validated facts plus the diagnostics produced while ingesting."""

    facts: tuple[Fact, ...]
    diagnostics: tuple[Diagnostic, ...]
    duplicates_dropped: int = 0


def _validate_row(row: object, relation_codes: frozenset[str], snapshot: int,
                  object_keys: Mapping[str, str]) -> Fact:
    """The fact ``row`` holds; a ValueError names the first bad field.
    ``snapshot`` is a month index; ``object_keys[text]`` is ``normalized_key(text)``."""
    if isinstance(row, ValueError):  # a line the JSONL reader could not use
        raise row
    if not isinstance(row, dict):
        raise ValueError(f"expected a JSON object, got {type(row).__name__}")
    for field in _REQUIRED_FIELDS:  # a str subclass is fine
        value = row.get(field)
        if not isinstance(value, str) or not value.strip():
            raise ValueError(f"missing or empty field {field!r}")
    subject, subject_id, relation, obj, object_id, start_text = _required_fields(row)
    if relation not in relation_codes:
        raise ValueError(f"unsupported relation {relation!r}")
    if not object_keys[obj]:  # a gold or negative that an empty prediction would match
        raise ValueError("object has no scoring tokens")
    start = parse_month(start_text, 1)
    raw_end = row.get("end")
    if raw_end is None:
        end = snapshot
        if end < start:
            raise ValueError(f"ongoing fact starts {start_text!r}, after the snapshot month")
    elif isinstance(raw_end, str) and raw_end.strip():
        end = parse_month(raw_end, 12)
        if end < start:
            raise ValueError(f"start {start_text!r} is after end {raw_end!r}")
    else:
        raise ValueError("field 'end' must be a time string or null")
    # tuple.__new__: Fact's generated __new__ only packs the fields
    return tuple.__new__(Fact, (subject, subject_id, relation, obj, object_id, start, end))


def ingest(rows: Iterable, *, snapshot: int = DEFAULT_SNAPSHOT,
           relation_codes: frozenset[str] | None = None) -> FactStore:
    """Validate quintuplet rows into a store, ending ongoing facts at month index ``snapshot``.

    ``rows`` yields dicts, or (line_number, row) pairs from
    :func:`jsonl.read_rows` after its header. Bad rows (a line the reader
    gives as a ValueError too) are skipped and reported in line order. Rows
    identical in (subject_id, relation, object, start, end) are deduplicated.
    """
    if relation_codes is None:
        relation_codes = load_templates().relation_codes
    facts: list[Fact] = []
    diagnostics: list[Diagnostic] = []
    seen: set[tuple] = set()
    duplicates = 0
    object_keys = _Memo(normalized_key)  # once per distinct object
    for position, item in enumerate(rows, start=1):
        line, row = item if isinstance(item, tuple) else (position, item)
        try:
            fact = _validate_row(row, relation_codes, snapshot, object_keys)
        except ValueError as exc:
            diagnostics.append(Diagnostic(line, str(exc)))
            continue
        _, subject_id, relation, obj, _, start, end = fact
        key = (subject_id, relation, start, end, obj)  # the same object over the same months
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        facts.append(fact)
    return FactStore(tuple(facts), tuple(diagnostics), duplicates)


def load_fact_file(path: str, *, snapshot: int = DEFAULT_SNAPSHOT,
                   relation_codes: frozenset[str] | None = None, strict: bool = False) -> FactStore:
    """Ingest a JSONL fact file, reporting bad lines by number.

    The file is read once. For a regular file the result is also kept in
    ``<path>.chronoqa-cache``, keyed by the file's bytes, ``snapshot`` and
    ``relation_codes``: a later load with the same key rebuilds the store
    from it without decoding or validating a row, and any other cache is
    ignored and replaced. The store, and so every message, is the same
    either way. With ``strict``, a file with a bad row raises a ValueError
    naming ``path:line`` of the first, in line order, once the store, and
    its cache, are made.
    """
    if relation_codes is None:
        relation_codes = load_templates().relation_codes
    # Everything ingest's result depends on besides the file's bytes; the
    # Python minor version too, as the JSON decoder's messages reach the diagnostics.
    salt = json.dumps([FACT_COLUMNS.name, sys.version_info[:2], snapshot, sorted(relation_codes)])
    decode = partial(_ingest_rows, snapshot=snapshot, relation_codes=relation_codes)
    report, facts = load_cached(path, salt, decode, FACT_COLUMNS)
    if strict and report["diagnostics"]:
        raise ValueError("%s:%s: %s" % (path, *report["diagnostics"][0]))
    return FactStore(tuple(facts), tuple(map(tuple.__new__, repeat(Diagnostic), report["diagnostics"])),
                     report["duplicates_dropped"])


def _ingest_rows(rows: Iterable, **settings) -> tuple[dict, tuple[Fact, ...]]:
    store = ingest(filter(itemgetter(0), rows), **settings)  # a header comes as line 0
    return {"diagnostics": store.diagnostics, "duplicates_dropped": store.duplicates_dropped}, store.facts


def _facts(columns: list[list]) -> list[Fact] | None:
    """A cached block's facts, if its texts are strings and its months
    integer month indices of year 1 on, no fact ending before it starts."""
    subjects, subject_ids, relations, objects, object_ids, starts, ends = columns
    # raises TypeError, a miss, unless every item is a str
    "".join(chain(subjects, subject_ids, relations, objects, object_ids))
    if {*map(type, chain(starts, ends))} - {int} or min(starts) < 12 * MIN_YEAR or not all(map(le, starts, ends)):
        return None
    return list(map(tuple.__new__, repeat(Fact), zip(*columns, strict=True)))


def _ingest_report(report: dict) -> bool:
    """Whether a cached header's meta is ingest's report: ``[line, message]`` pairs and a count."""
    diagnostics = report["diagnostics"]
    return (type(report["duplicates_dropped"]) is int and type(diagnostics) is list
            and all(type(line) is int and type(message) is str for line, message in diagnostics))


# The fact-file codec of the input cache (jsonl.load_cached): Fact's fields
# are its columns, and the header's meta is ingest's report. Raise the number
# whenever ingest's rules or messages, Fact's fields, or the checks change.
FACT_COLUMNS = Columns("facts 3", _facts, _ingest_report)


def build_groups(store: FactStore, seed: int = 0, *,
                 max_subjects_per_relation: int = MAX_SUBJECTS_PER_RELATION,
                 min_facts: int = MIN_FACTS_PER_GROUP) -> list[FactGroup]:
    """Group, sort, filter small groups, and cap subjects per relation.

    Deterministic under ``seed`` and insensitive to input row order.
    """
    by_key: defaultdict[tuple[str, str], list[Fact]] = defaultdict(list)
    for fact in store.facts:
        by_key[fact.subject_id, fact.relation].append(fact)

    surviving: dict[tuple[str, str], FactGroup] = {}
    for (subject_id, relation), group_facts in by_key.items():
        if len(group_facts) < min_facts:
            continue
        group = surviving[(subject_id, relation)] = FactGroup(group_facts[0].subject, subject_id, relation,
                                                              group_facts)
        group.subject = group.facts[0].subject  # the name comes from the earliest fact

    subjects_by_relation: defaultdict[str, list[str]] = defaultdict(list)  # one pass over the groups
    for subject_id, relation in surviving:
        subjects_by_relation[relation].append(subject_id)
    for relation, subjects in subjects_by_relation.items():
        if len(subjects) > max_subjects_per_relation:  # drop all but a seeded sample of the sorted subjects
            subjects.sort()
            random.Random(f"{seed}|cap|{relation}").shuffle(subjects)
            for subject_id in subjects[max_subjects_per_relation:]:
                del surviving[subject_id, relation]
    return [surviving[key] for key in sorted(surviving, key=itemgetter(1, 0))]  # by relation, then subject


def split_subjects(groups: Iterable[FactGroup], *, counts: Mapping[str, int] | None = None,
                   ratios: Mapping[str, float] | None = None, seed: int = 0) -> dict[str, list[FactGroup]]:
    """Partition groups into subject-disjoint splits.

    Exactly one of ``counts`` (absolute subjects per split) or ``ratios``
    (fractions of the available subjects; leftovers go to the first split)
    must be given. A subject lands in exactly one split; with ``counts``,
    subjects beyond the requested totals are dropped.
    """
    if (counts is None) == (ratios is None):
        raise ValueError("give exactly one of counts or ratios")
    groups = list(groups)
    subjects = sorted({g.subject_id for g in groups})
    rng = random.Random(f"{seed}|split")
    rng.shuffle(subjects)

    if counts is not None:
        sizes = dict(counts)
        total = sum(sizes.values())
        if total > len(subjects):
            raise ValueError(f"requested {total} subjects but only {len(subjects)} available")
    else:
        assert ratios is not None
        if any(r < 0 for r in ratios.values()) or sum(ratios.values()) > 1.0 + 1e-9:
            raise ValueError("ratios must be non-negative and sum to at most 1")
        sizes = {name: int(len(subjects) * r) for name, r in ratios.items()}
        first = next(iter(sizes))
        sizes[first] += len(subjects) - sum(sizes.values())

    assignment: dict[str, str] = {}
    cursor = 0
    for name, size in sizes.items():
        for subject_id in subjects[cursor:cursor + size]:
            assignment[subject_id] = name
        cursor += size

    partitions: dict[str, list[FactGroup]] = {name: [] for name in sizes}
    for group in groups:
        name = assignment.get(group.subject_id)
        if name is not None:
            partitions[name].append(group)
    for part in partitions.values():
        part.sort(key=lambda g: (g.relation, g.subject_id))
    return partitions


def group_stats(groups: Iterable[FactGroup]) -> dict:
    """Table-style structural counts for a set of groups."""
    groups = list(groups)
    subjects = {g.subject_id for g in groups}
    facts = sum(len(g.facts) for g in groups)
    per_relation: dict[str, dict[str, int]] = {}
    for group in groups:
        entry = per_relation.setdefault(group.relation, {"groups": 0, "facts": 0})
        entry["groups"] += 1
        entry["facts"] += len(group.facts)
    return {
        "groups": len(groups),
        "subjects": len(subjects),
        "facts": facts,
        "facts_per_subject": round(facts / len(subjects), 2) if subjects else None,
        "per_relation": dict(sorted(per_relation.items())),
    }
