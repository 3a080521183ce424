"""Ingestion, grouping, the subject cap, and subject-disjoint splits."""

import itertools
import json
import random

import pytest

from chronoqa import TimePoint, build_groups, ingest, load_fact_file, split_subjects
from chronoqa.facts import Fact, FactGroup, group_stats
from chronoqa.scoring import normalized_key
from chronoqa.timeline import TimeInterval, parse_time

from conftest import fact_sort_key, make_group, synth_rows

MESSI_ROW = {
    "subject": "Lionel Messi", "subject_id": "QM1", "relation": "P54",
    "object": "FC Barcelona", "object_id": "OM1", "start": "2004", "end": "2021",
}


class TestIngest:
    def test_year_only_defaults(self):
        store = ingest([MESSI_ROW])
        assert len(store.facts) == 1
        interval = store.facts[0].interval
        assert interval.start == TimePoint(2004, 1)
        assert interval.end == TimePoint(2021, 12)

    def test_unsupported_relation_rejected(self):
        row = dict(MESSI_ROW, relation="P999")
        store = ingest([row])
        assert not store.facts
        assert len(store.diagnostics) == 1
        assert "unsupported relation" in store.diagnostics[0].message

    def test_empty_stream(self):
        store = ingest([])
        assert store.facts == ()
        assert build_groups(store) == []

    def test_missing_field_reported_with_line(self):
        row = {k: v for k, v in MESSI_ROW.items() if k != "object"}
        store = ingest([MESSI_ROW, row])
        assert len(store.facts) == 1
        assert store.diagnostics[0].line == 2
        assert "object" in store.diagnostics[0].message

    def test_unparseable_time_reported(self):
        store = ingest([dict(MESSI_ROW, start="xyz 2004")])
        assert not store.facts
        assert "xyz" in store.diagnostics[0].message

    def test_strict_mode_raises(self, tmp_path):
        path = tmp_path / "facts.jsonl"
        path.write_text(json.dumps(dict(MESSI_ROW, relation="P999")) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{path}:1: unsupported relation 'P999'$"):
            load_fact_file(str(path), strict=True)

    def test_open_end_closed_at_snapshot(self):
        row = dict(MESSI_ROW, end=None)
        store = ingest([row], snapshot=TimePoint(2022, 11))
        assert store.facts[0].interval.end == TimePoint(2022, 11)

    def test_ongoing_fact_after_snapshot_rejected(self):
        row = dict(MESSI_ROW, start="Jan 2023", end=None)
        store = ingest([row], snapshot=TimePoint(2022, 11))
        assert not store.facts
        assert "snapshot" in store.diagnostics[0].message

    def test_start_after_end_rejected(self):
        store = ingest([dict(MESSI_ROW, start="Jul 2021", end="Jan 2021")])
        assert not store.facts

    def test_duplicates_dropped(self):
        store = ingest([MESSI_ROW, dict(MESSI_ROW)])
        assert len(store.facts) == 1
        assert store.duplicates_dropped == 1

    def test_load_fact_file_reports_bad_json_lines(self, tmp_path):
        path = tmp_path / "facts.jsonl"
        path.write_text(json.dumps(MESSI_ROW) + "\nnot json\n", encoding="utf-8")
        store = load_fact_file(str(path))
        assert len(store.facts) == 1
        assert store.diagnostics[0].line == 2
        assert "invalid JSON" in store.diagnostics[0].message


def _pin_row(object_id, start, end, **fields):
    return dict({"subject": "Ada Park", "subject_id": "Q1", "relation": "P39", "object": f"Office {object_id}",
                 "object_id": object_id, "start": start, "end": end}, **fields)


PIN_LINES = [
    json.dumps({"_meta": {"source": "pin"}}),
    json.dumps(_pin_row("O1", "2019", "2019")),  # bare start -> Jan, bare end -> Dec
    json.dumps(_pin_row("O2", "Jull 2019", "Mar 2020")),
    json.dumps(_pin_row("O3", "Feb 2018", "Jull 2019")),  # the same bad text, now as an end
    json.dumps(_pin_row("O1", "Jan 2019", "Dec 2019")),  # line 2 again, written out in full
    json.dumps(_pin_row("O4", "Mar 2023", None)),  # ongoing, but starts after the snapshot
    json.dumps(_pin_row("O5", "May 2021", None)),
    "",
    json.dumps(_pin_row("O6", "Jun 2020", "Jan 2020")),
    json.dumps(_pin_row("O7", "Jan 0", "Dec 2000")),
    json.dumps(_pin_row("O8", "Jan 2000", "")),
    json.dumps(_pin_row("O9", "Jan 2000", 2001)),
    json.dumps(_pin_row("O10", "12 Jan 2000", "2001")),
    json.dumps(_pin_row("O11", "jan 2000", "DEC 2000")),
    json.dumps(_pin_row("O12", "Jan 2000", "Dec 2000", relation="P999")),
    json.dumps({k: v for k, v in _pin_row("O13", "Jan 2000", "Dec 2000").items() if k != "object_id"}),
    json.dumps(_pin_row("O14", "Jan 2000", "Dec 2000", subject="  ")),
    '{"subject": "Ada Park", "subject_id": "Q1"',
    '{"a": 1} {"b": 2}',
    "\ufeff" + json.dumps(_pin_row("O15", "Jan 2000", "Dec 2000")),
    "[1, 2]",
    json.dumps({"_meta": {"source": "late"}}),
    json.dumps(_pin_row("O16", "Jull 2019", "Mar 2020")),
    json.dumps(_pin_row("O11", "Jan 2000", "2000")),  # line 14 again, other spellings
    json.dumps(_pin_row("O17", "2000", "Jan 2000")),
]

PIN_DIAGNOSTICS = [
    (3, "unrecognized month token 'Jull' in 'Jull 2019'"),
    (4, "unrecognized month token 'Jull' in 'Jull 2019'"),
    (6, "ongoing fact starts 'Mar 2023', after the snapshot month"),
    (9, "start 'Jun 2020' is after end 'Jan 2020'"),
    (10, "year 0 is before the minimum supported year 1"),
    (11, "field 'end' must be a time string or null"),
    (12, "field 'end' must be a time string or null"),
    (13, "expected 'Mon YYYY' or 'YYYY', got '12 Jan 2000'"),
    (15, "unsupported relation 'P999'"),
    (16, "missing or empty field 'object_id'"),
    (17, "missing or empty field 'subject'"),
    (18, "invalid JSON: Expecting ',' delimiter"),
    (19, "invalid JSON: Extra data"),
    (20, "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    (21, "expected a JSON object, got list"),
    (22, "a _meta header is only allowed on line 1"),
    (23, "unrecognized month token 'Jull' in 'Jull 2019'"),
]


class TestIngestPin:
    """Exact diagnostics, duplicates and facts of a defect-laden fact file,
    recorded before the fact-load path was optimized."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "facts.jsonl"
        path.write_text("\n".join(PIN_LINES) + "\n", encoding="utf-8")
        return str(path)

    def test_diagnostics_duplicates_and_facts(self, path):
        store = load_fact_file(path)
        assert [(d.line, d.message) for d in store.diagnostics] == PIN_DIAGNOSTICS
        assert store.duplicates_dropped == 2
        assert [(f.object_id, str(f.interval.start), str(f.interval.end)) for f in store.facts] == [
            ("O1", "Jan 2019", "Dec 2019"),
            ("O5", "May 2021", "Nov 2022"),
            ("O11", "Jan 2000", "Dec 2000"),
            ("O17", "Jan 2000", "Jan 2000"),
        ]
        assert all(f.subject == "Ada Park" and f.relation == "P39" and f.object == f"Office {f.object_id}"
                   for f in store.facts)

    def test_strict_stops_at_the_first_bad_line(self, path):
        with pytest.raises(ValueError) as excinfo:
            load_fact_file(path, strict=True)
        assert str(excinfo.value) == f"{path}:3: unrecognized month token 'Jull' in 'Jull 2019'"


FIELD_ORDER = ("subject", "subject_id", "relation", "object", "object_id", "start")
BAD_VALUES = [None, 7, 0, True, False, ["x"], {"a": "b"}, 2.5, "", " ", "\t\n", "\u3000"]
MISSING = object()


def _first_bad_field(row):
    for field in FIELD_ORDER:
        value = row.get(field)
        if not isinstance(value, str) or not value.strip():
            return field
    return None


class Text(str):
    """A str subclass, as a caller that builds rows in code may pass."""


class TestRowChecks:
    """The message names the first bad field in the order above, whatever
    else is wrong with the row; str subclasses are accepted."""

    @pytest.mark.parametrize("changes, field", [
        ({"subject_id": 7, "object": None}, "subject_id"),
        ({"object_id": "   ", "start": []}, "object_id"),
        ({"relation": True}, "relation"),
        ({"start": "\t\n"}, "start"),
        ({"subject": ["x"], "subject_id": ""}, "subject"),
        ({"object": MISSING, "start": 5}, "object"),
        ({"relation": MISSING, "subject": "P54"}, "relation"),
    ], ids=["int-then-none", "blank-then-list", "bool", "whitespace", "list-then-empty", "missing-then-int",
            "missing"])
    def test_first_bad_field_is_named(self, changes, field):
        row = {k: v for k, v in dict(MESSI_ROW, **changes).items() if v is not MISSING}
        store = ingest([row])
        assert not store.facts
        assert store.diagnostics[0].message == f"missing or empty field {field!r}"

    def test_first_bad_field_is_named_on_random_rows(self):
        rng = random.Random(17)
        for _ in range(2000):
            row = dict(MESSI_ROW)
            for field in rng.sample(FIELD_ORDER, rng.randint(1, 4)):
                value = rng.choice(BAD_VALUES + [MISSING])
                if value is MISSING:
                    del row[field]
                else:
                    row[field] = value
            store = ingest([row])
            assert [d.message for d in store.diagnostics] == [f"missing or empty field {_first_bad_field(row)!r}"]

    def test_str_subclass_fields_are_accepted(self):
        row = {key: Text(value) for key, value in MESSI_ROW.items()}
        store = ingest([row, dict(row, end=None)])
        assert not store.diagnostics
        assert [fact[:5] for fact in store.facts] == [tuple(MESSI_ROW[f] for f in FIELD_ORDER[:5])] * 2

    def test_ingested_facts_are_the_validating_constructors_values(self):
        rows = synth_rows(40, facts_per_subject=(3, 8), seed=23, allow_overlap=True)
        rows += [dict(row, end=None) for row in rows[::7]]
        rows += [dict(MESSI_ROW, start=month, end=month) for month in ("2004", "Jan 2004", "Dec 2004")]
        store = ingest(rows, snapshot=TimePoint(2030, 1))
        assert len(store.facts) + store.duplicates_dropped == len(rows) and not store.diagnostics
        for fact in store.facts:
            start, end = fact.interval
            assert start <= end
            assert type(fact) is Fact and type(fact.interval) is TimeInterval
            assert fact == Fact(*fact[:5], TimeInterval(start, end))


class TestBuildGroups:
    def test_small_groups_dropped(self):
        rows = synth_rows(1, facts_per_subject=(2, 2), seed=1)
        assert build_groups(ingest(rows)) == []

    def test_groups_sorted_chronologically(self):
        rows = synth_rows(1, facts_per_subject=(5, 5), seed=2)
        random.Random(0).shuffle(rows)
        groups = build_groups(ingest(rows))
        starts = [f.interval.start for f in groups[0].facts]
        assert starts == sorted(starts)

    def test_subject_cap_exact_and_deterministic(self):
        rows = synth_rows(2500, facts_per_subject=(3, 3), seed=3)
        store = ingest(rows)
        first = build_groups(store, seed=42)
        assert len({g.subject_id for g in first}) == 2000
        again = build_groups(store, seed=42)
        assert [g.key for g in first] == [g.key for g in again]
        other_seed = build_groups(store, seed=43)
        assert {g.subject_id for g in other_seed} != {g.subject_id for g in first}

    def test_subject_cap_keeps_a_seeded_sample_of_each_relations_sorted_subjects(self):
        """The rule, per relation: its subject ids sorted, shuffled by
        ``Random(f"{seed}|cap|{relation}")``, the first ones kept; a
        relation within the cap keeps every subject."""
        rows = synth_rows(30, relation="P39", facts_per_subject=(3, 3), seed=5)
        rows += synth_rows(12, relation="P54", facts_per_subject=(3, 3), seed=6)
        expected = []
        for relation in ("P39", "P54"):
            subjects = sorted({row["subject_id"] for row in rows if row["relation"] == relation})
            random.Random(f"9|cap|{relation}").shuffle(subjects)
            expected += sorted((relation, subject_id) for subject_id in subjects[:20])
        groups = build_groups(ingest(reversed(rows)), seed=9, max_subjects_per_relation=20)
        assert [(group.relation, group.subject_id) for group in groups] == expected
        assert len(expected) == 32

    def test_order_insensitive_to_input_rows(self):
        rows = synth_rows(40, seed=4)
        shuffled = list(rows)
        random.Random(9).shuffle(shuffled)
        a = build_groups(ingest(rows), seed=7)
        b = build_groups(ingest(shuffled), seed=7)
        assert a == b

    def test_no_group_below_minimum(self):
        rows = synth_rows(30, facts_per_subject=(3, 8), seed=5)
        rows += synth_rows(10, facts_per_subject=(3, 8), seed=6, subject_prefix="extra-")
        # drop one fact from some subjects to create undersized groups
        trimmed = [r for r in rows if not (r["subject_id"].startswith("extra-") and r["object_id"].endswith("-0"))]
        groups = build_groups(ingest(trimmed))
        assert all(len(g.facts) >= 3 for g in groups)


class TestSplits:
    def test_exact_counts_and_disjointness(self):
        rows = []
        for relation in ("P39", "P54"):
            rows += synth_rows(300, relation=relation, seed=8)
        groups = build_groups(ingest(rows), seed=1)
        parts = split_subjects(groups, counts={"train": 300, "dev": 100, "test": 100}, seed=1)
        subject_sets = {name: {g.subject_id for g in part} for name, part in parts.items()}
        assert len(subject_sets["train"]) == 300
        assert len(subject_sets["dev"]) == 100
        assert len(subject_sets["test"]) == 100
        assert not subject_sets["train"] & subject_sets["dev"]
        assert not subject_sets["train"] & subject_sets["test"]
        assert not subject_sets["dev"] & subject_sets["test"]

    def test_deterministic_under_seed(self):
        groups = build_groups(ingest(synth_rows(50, seed=9)), seed=0)
        a = split_subjects(groups, ratios={"train": 0.6, "dev": 0.2, "test": 0.2}, seed=5)
        b = split_subjects(groups, ratios={"train": 0.6, "dev": 0.2, "test": 0.2}, seed=5)
        assert a == b

    def test_ratios_cover_all_subjects(self):
        groups = build_groups(ingest(synth_rows(53, seed=10)), seed=0)
        parts = split_subjects(groups, ratios={"train": 0.6, "dev": 0.2, "test": 0.2}, seed=5)
        total = sum(len({g.subject_id for g in part}) for part in parts.values())
        assert total == len({g.subject_id for g in groups})

    def test_counts_exceeding_available_raise(self):
        groups = build_groups(ingest(synth_rows(10, seed=11)), seed=0)
        with pytest.raises(ValueError, match="available"):
            split_subjects(groups, counts={"train": 11}, seed=0)

    def test_exactly_one_spec_required(self):
        with pytest.raises(ValueError):
            split_subjects([], seed=0)
        with pytest.raises(ValueError):
            split_subjects([], counts={"train": 1}, ratios={"train": 1.0}, seed=0)


class TestStats:
    def test_facts_per_subject_matches_recount(self):
        rows = synth_rows(120, facts_per_subject=(3, 8), seed=12)
        groups = build_groups(ingest(rows), seed=0)
        stats = group_stats(groups)
        facts = sum(len(g.facts) for g in groups)
        subjects = len({g.subject_id for g in groups})
        assert stats["facts"] == facts
        assert stats["subjects"] == subjects
        assert stats["facts_per_subject"] == round(facts / subjects, 2)


class TestFactGroup:
    def test_sorted_on_construction_with_aligned_keys(self):
        rows = synth_rows(1, facts_per_subject=(8, 8), seed=12, allow_overlap=True)
        rows[5]["object"] = rows[1]["object"].upper() + "!"
        group = make_group(rows)
        for seed in range(5):
            facts = list(group.facts)
            random.Random(seed).shuffle(facts)
            shuffled = FactGroup(group.subject, group.subject_id, group.relation, tuple(facts))
            assert shuffled.facts == tuple(sorted(facts, key=fact_sort_key))
            assert shuffled.keys == tuple(normalized_key(fact.object) for fact in shuffled.facts)
            assert shuffled == group

    def test_ties_sort_and_deduplicate_as_sort_key(self):
        # Bare years resolve to Jan (start) and Dec (end), so "2000" ties
        # "Jan 2000" and "2001" ties "Dec 2001": the same start with different
        # ends, and the same interval with different objects, many times over.
        rows = [dict(MESSI_ROW, subject_id=subject_id, object=obj, object_id=f"O{i}", start=start, end=end)
                for i, (subject_id, obj, start, end) in enumerate(itertools.product(
                    ("QM1", "QM2"), ("B", "C", "c", "B!"), ("2000", "Feb 2000", "Jan 2000"),
                    ("Dec 2001", "Jun 2000", "2001")))]
        distinct = {(row["subject_id"], row["object"], parse_time(row["start"], 1), parse_time(row["end"], 12))
                    for row in rows}
        for seed in range(4):
            shuffled = list(rows)
            random.Random(seed).shuffle(shuffled)
            store = ingest(shuffled)
            assert store.duplicates_dropped == len(rows) - len(distinct) == 40
            groups = build_groups(store, seed=0)
            assert [group.subject_id for group in groups] == ["QM1", "QM2"]
            for group in groups:
                kept = [fact for fact in store.facts if fact.subject_id == group.subject_id]
                assert group.facts == tuple(sorted(kept, key=fact_sort_key))
        # Facts equal in sort key (here, apart from object_id) keep their input order.
        facts = list(ingest(rows[:12]).facts)
        twins = [fact._replace(object_id=f"{fact.object_id}-twin") for fact in facts]
        mixed = [fact for pair in zip(twins, facts) for fact in pair]
        random.Random(5).shuffle(mixed)
        assert FactGroup("Lionel Messi", "QM1", "P54", mixed).facts == tuple(sorted(mixed, key=fact_sort_key))

    def test_subject_name_comes_from_the_earliest_fact(self):
        rows = synth_rows(1, facts_per_subject=(4, 4), seed=13)
        for i, row in enumerate(rows):
            row["subject"] = f"Name {i}"
        for seed in range(4):
            shuffled = list(rows)
            random.Random(seed).shuffle(shuffled)
            assert make_group(shuffled).subject == "Name 0"
