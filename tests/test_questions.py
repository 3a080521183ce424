"""Question generation: uniqueness, gold/negative correctness, determinism.

Answers are re-verified with test-local oracles (an independent month-index
parser for L1, brute-force validity scans for L2, sort-and-index adjacency
for L3) rather than the package's own arithmetic.
"""

import json
import random

import pytest

from chronoqa import TimePoint, build_groups, gen_l1, gen_l1_future, gen_l2, gen_l3, ingest
from chronoqa.jsonl import load_jsonl
from chronoqa.questions import CapacityError, Question, _shuffle, below, partition_l1
from chronoqa.records import QUESTION_COLUMNS
from chronoqa.templates import load_templates
from chronoqa.timeline import TimeParseError, TimeRangeError, month_index

from conftest import (YOSHIMURA_ROWS, l1_oracle, l2_question_at, make_group, month_range, month_text, synth_rows,
                      time_from_month_index)


class TestGenL1:
    def test_table_year_forms(self):
        # exhaustive pool over one year so specific wordings must appear
        pool = gen_l1(month_range((1905, 1), (1905, 12)), 3164, seed=0)
        by_text = {q.question: q for q in pool}
        assert by_text["What is the year after 1905?"].answers == ("1906",)
        assert by_text["What is the year 3 years before 1905?"].answers == ("1902",)
        assert by_text["What is the time 2 months after Dec 1905?"].answers == ("Feb 1906",)

    def test_month_rollover_answer(self):
        pool = gen_l1(month_range((2010, 12), (2010, 12)), 282, seed=0)
        by_text = {q.question: q for q in pool}
        assert by_text["What is the time 2 months after Dec 2010?"].answers == ("Feb 2011",)

    def test_unique_and_oracle_verified(self):
        questions = gen_l1(month_range((1900, 1), (2000, 12)), 4000, seed=7)
        assert len(questions) == 4000
        assert len({q.id for q in questions}) == 4000
        assert len({q.question for q in questions}) == 4000
        keys = set()
        for q in questions:
            answer, key = l1_oracle(q.question)
            assert q.answers == (answer,)
            assert (q.template_id, key) not in keys
            keys.add((q.template_id, key))
            assert q.negatives == ()
            assert q.level == "L1"

    def test_deterministic_under_seed(self):
        a = gen_l1(month_range((1950, 1), (1960, 12)), 500, seed=3)
        b = gen_l1(month_range((1950, 1), (1960, 12)), 500, seed=3)
        assert a == b
        c = gen_l1(month_range((1950, 1), (1960, 12)), 500, seed=4)
        assert a != c

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            gen_l1(month_range((2000, 1), (2000, 1)), 283, seed=0)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            gen_l1(month_range((2000, 1), (1999, 1)), 1, seed=0)

    def test_range_messages(self):
        with pytest.raises(ValueError, match=r"^empty time range: Jan 2000\.\.Dec 1999$"):
            gen_l1(month_range((2000, 1), (1999, 12)), 1, seed=0)
        with pytest.raises(TimeRangeError, match="^month index 11 falls before year 1$"):
            gen_l1((11, 24), 1, seed=0)

    def test_record_round_trip(self):
        questions = gen_l1(month_range((1990, 1), (1999, 12)), 50, seed=1)
        for q in questions:
            assert Question.from_record(q.to_record()) == q

    @pytest.mark.parametrize("field, value", [
        ("answers", "FC Barcelona"),  # once split into characters, so "F" scored EM 100
        ("answers", []),
        ("answers", [1906]),
        ("negatives", "Paris Saint-Germain"),
    ])
    def test_from_record_rejects_bad_answer_lists(self, field, value):
        record = gen_l1(month_range((1990, 1), (1999, 12)), 1, seed=1)[0].to_record()
        with pytest.raises(ValueError, match="must be a non-empty list of strings"):
            Question.from_record(dict(record, **{field: value}))

    @pytest.mark.parametrize("field, value", [
        ("id", None), ("id", 7), ("question", 7), ("template_id", None), ("split", ["train"]),
    ])
    def test_from_record_requires_text_fields_to_be_strings(self, field, value):
        record = gen_l1(month_range((1990, 1), (1999, 12)), 1, seed=1)[0].to_record()
        with pytest.raises(ValueError, match=f"^{field} must be a string$"):
            Question.from_record(dict(record, **{field: value}))

    @pytest.mark.parametrize("value", [2019, ["Jul 2019"], False])
    def test_from_record_rejects_a_t_ref_that_is_not_text(self, value):
        record = gen_l1(month_range((1990, 1), (1999, 12)), 1, seed=1)[0].to_record()
        with pytest.raises(ValueError, match="t_ref must be a time string or null"):
            Question.from_record(dict(record, t_ref=value))


class Text(str):
    """A str subclass: accepted wherever a string is."""


_MISSING = object()
_MUTATIONS = [None, 7, True, 1.5, ["x"], [Text("x")], [7], {"x": "y"}, "", Text("x"), Text("Jul 2019"), "L2",
              _MISSING]


class TestFromRecordMutations:
    """Generated L1, L2 and L3 records with every field mutated, one at a
    time and several at once: ``Question.from_record`` gives a question or
    names the bad field, and every record it accepts, a missing optional key
    or a ``str`` subclass among them, is read back from the input cache
    unchanged."""

    @pytest.fixture(scope="class")
    def records(self):
        group_rows = synth_rows(12, relation="P39", seed=4, allow_overlap=True)
        groups = build_groups(ingest(group_rows), seed=4)
        questions = (gen_l1(month_range((1990, 1), (1999, 12)), 60, seed=4)
                     + gen_l1_future(20, seed=4)
                     + [q for group in groups for q in gen_l2(group, seed=4)][:60]
                     + [q for group in groups for q in gen_l3(group)][:60])
        assert {q.level for q in questions} == {"L1", "L2", "L3"}
        return [q.to_record() for q in questions]

    @staticmethod
    def each_field_mutated(records):
        for record in records:
            for field in record:
                for value in _MUTATIONS:
                    mutated = dict(record)
                    if value is _MISSING:
                        del mutated[field]
                    else:
                        mutated[field] = value
                    yield mutated

    @staticmethod
    def several_fields_mutated(records):
        rng = random.Random(15)
        for _ in range(3000):
            mutated = dict(rng.choice(records))
            for field in rng.sample(sorted(mutated), rng.randint(1, 3)):
                value = rng.choice(_MUTATIONS)
                if value is _MISSING:
                    del mutated[field]
                else:
                    mutated[field] = value
            yield mutated

    @pytest.mark.parametrize("mutations", ["each_field_mutated", "several_fields_mutated"])
    def test_accepted_records_survive_the_cache(self, records, tmp_path, mutations):
        accepted, lines, seen = [], [], set()
        for mutated in getattr(self, mutations)(records):
            try:
                accepted.append(Question.from_record(mutated))
            except (KeyError, TypeError, ValueError) as exc:
                seen.add(type(exc))
            else:
                seen.add(Question)
                lines.append(json.dumps(mutated))
        assert seen == {Question, KeyError, ValueError, TimeParseError}
        path = tmp_path / "mutated.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        calls = []

        def counted(record):
            calls.append(record)
            return Question.from_record(record)

        assert load_jsonl(str(path), counted, QUESTION_COLUMNS) == (None, accepted)
        assert len(calls) == len(accepted)
        warm = load_jsonl(str(path), counted, QUESTION_COLUMNS)
        assert len(calls) == len(accepted)  # a cache hit: no from_record call
        assert warm == (None, accepted) and {*map(type, warm[1])} == {Question}


class TestGenL1Future:
    def test_range_and_split(self):
        questions = gen_l1_future(400, seed=5)
        assert len(questions) == 400
        for q in questions:
            assert q.split == "future"
            assert type(q.t_ref) is int and 2022 <= q.t_ref // 12 <= 2040

    def test_disjoint_from_in_domain_ids(self):
        future = {q.id for q in gen_l1_future(200, seed=6)}
        in_domain = {q.id for q in gen_l1(month_range((1900, 1), (2000, 12)), 200, seed=6)}
        assert not future & in_domain

    def test_deterministic(self):
        assert gen_l1_future(400, seed=9) == gen_l1_future(400, seed=9)


class TestDrawStream:
    """``below`` and ``_shuffle`` draw what the ``random`` module of the
    running interpreter draws, in the same order: the L1 files depend on it."""

    # 1..300, and the widths the l1-time benchmark draws from.
    WIDTHS = [*range(1, 301), 1023, 12276]

    @pytest.mark.parametrize("seed", [0, 7, "3|l1|train"])
    def test_below_is_randrange(self, seed):
        ours, library = random.Random(seed), random.Random(seed)
        getrandbits = ours.getrandbits
        for n in self.WIDTHS:
            assert [below(n, getrandbits) for _ in range(20)] == [library.randrange(n) for _ in range(20)], n
        assert ours.getstate() == library.getstate()

    @pytest.mark.parametrize("length", [0, 1, 2, 3, 60_116])
    def test_shuffle_is_random_shuffle(self, length):
        ours, library = list(range(length)), list(range(length))
        ours_rng, library_rng = random.Random(f"{length}|shuffle"), random.Random(f"{length}|shuffle")
        _shuffle(ours, ours_rng)
        library_rng.shuffle(library)
        assert ours == library
        assert ours_rng.getstate() == library_rng.getstate()


class TestPartitionL1:
    def test_partition_sizes_and_relabel(self):
        pool = gen_l1(month_range((1900, 1), (1999, 12)), 100, seed=2)
        parts = partition_l1(pool, {"train": 70, "dev": 20, "test": 10}, seed=2)
        assert [len(parts[k]) for k in ("train", "dev", "test")] == [70, 20, 10]
        assert all(q.split == "dev" for q in parts["dev"])
        assert parts["test"][0].id == "l1-test-000000"
        texts = sorted(q.question for part in parts.values() for q in part)
        assert texts == sorted(q.question for q in pool)

    def test_count_mismatch_rejected(self):
        pool = gen_l1(month_range((1900, 1), (1999, 12)), 10, seed=2)
        with pytest.raises(ValueError):
            partition_l1(pool, {"train": 5}, seed=0)


def scan_valid(group, t_ref):
    # brute force: every fact whose first and last months, as time points, bound the month
    valid = []
    for fact in group.facts:
        if time_from_month_index(fact.start) <= t_ref <= time_from_month_index(fact.end):
            if fact.object not in valid:
                valid.append(fact.object)
    return valid


class TestGenL2:
    def test_yoshimura_question_at_reference(self, yoshimura_group, jul_2019):
        q = l2_question_at(yoshimura_group, jul_2019)
        assert q.question == "Which position did Hirofumi Yoshimura hold in Jul 2019?"
        assert q.answers == ("Governor of Osaka Prefecture",)
        assert set(q.negatives) == {"Member of the House of Representatives of Japan", "Mayor of Osaka"}
        assert q.t_ref == month_index(jul_2019)

    def test_start_month_is_inclusive(self, yoshimura_group):
        q = l2_question_at(yoshimura_group, TimePoint(2019, 4))
        assert q.answers[0] == "Governor of Osaka Prefecture"
        q = l2_question_at(yoshimura_group, TimePoint(2022, 12))
        assert q.answers[0] == "Governor of Osaka Prefecture"

    def test_no_valid_object_raises(self, yoshimura_group):
        with pytest.raises(ValueError, match="valid"):
            l2_question_at(yoshimura_group, TimePoint(1990, 1))

    def test_one_question_per_fact_and_disjoint_negatives(self):
        group = make_group(synth_rows(1, facts_per_subject=(5, 5), seed=21))
        questions = gen_l2(group, seed=1)
        assert len(questions) == 5
        for q in questions:
            # disjoint facts: every other object is a negative
            assert len(q.negatives) == 4
            assert set(q.answers) | set(q.negatives) == {f.object for f in group.facts}

    def test_gold_valid_and_negatives_invalid_brute_force(self):
        for seed in range(25):
            group = make_group(synth_rows(1, facts_per_subject=(3, 8), seed=100 + seed,
                                          allow_overlap=True))
            for q in gen_l2(group, seed=9):
                assert type(q.t_ref) is int
                valid = scan_valid(group, time_from_month_index(q.t_ref))
                assert set(q.answers) == set(valid)
                assert q.answers[0] in valid
                for negative in q.negatives:
                    assert negative not in valid

    def test_per_group_rng_independent_of_order(self):
        rows = synth_rows(6, seed=22)
        groups = build_groups(ingest(rows), seed=0)
        forward = [gen_l2(g, seed=5) for g in groups]
        backward = [gen_l2(g, seed=5) for g in reversed(groups)]
        assert forward == list(reversed(backward))


BUDGEN_ROWS = [
    {"subject": "Nicholas Budgen", "subject_id": "QB1", "relation": "P39",
     "object": f"Member of the {n}th Parliament of the United Kingdom", "object_id": f"OB{n}",
     "start": start, "end": end}
    for n, start, end in (
        ("45", "Mar 1974", "Sep 1974"),
        ("46", "Oct 1974", "Apr 1979"),
        ("47", "May 1979", "May 1983"),
    )
]


class TestGenL3:
    def test_texts_with_placeholders_match_the_template_table(self):
        # gen_l2 and gen_l3 fill the subject in once per group; a subject or
        # object that holds a placeholder still gets what the table writes.
        rows = synth_rows(1, facts_per_subject=(5, 5), seed=23, allow_overlap=True)
        for row in rows:
            row["subject"] = "<t> <o_j> <subject>"
            row["object"] = f"{row['object']} <t> <o_j>"
        group = make_group(rows)
        templates = load_templates()
        for q in gen_l2(group, seed=3):
            assert q.question == templates.render_l2(group.relation, group.subject, month_text(q.t_ref))
        questions = gen_l3(group)
        assert len(questions) == 8
        for q in questions:
            direction = q.template_id.rsplit("_", 1)[1]
            assert q.question == templates.render_l3(group.relation, direction, group.subject, q.neighbor_object)

    def test_budgen_before_question(self):
        group = make_group(BUDGEN_ROWS)
        questions = {q.question: q for q in gen_l3(group)}
        text = ("Which position did Nicholas Budgen hold before "
                "Member of the 46th Parliament of the United Kingdom?")
        assert questions[text].answers == ("Member of the 45th Parliament of the United Kingdom",)
        assert questions[text].neighbor_object == "Member of the 46th Parliament of the United Kingdom"

    def test_three_facts_give_four_questions(self):
        group = make_group(synth_rows(1, facts_per_subject=(3, 3), seed=30))
        questions = gen_l3(group)
        assert len(questions) == 4
        directions = [q.template_id.rsplit("_", 1)[1] for q in questions]
        assert directions.count("before") == 2
        assert directions.count("after") == 2

    def test_adjacency_matches_sort_oracle(self):
        for seed in range(20):
            group = make_group(synth_rows(1, facts_per_subject=(5, 5), seed=40 + seed))
            ordered = sorted(group.facts, key=lambda f: time_from_month_index(f.start))
            successor = {ordered[i].object: ordered[i + 1].object for i in range(len(ordered) - 1)}
            predecessor = {ordered[i + 1].object: ordered[i].object for i in range(len(ordered) - 1)}
            for q in gen_l3(group):
                if q.template_id.endswith("after"):
                    assert q.answers == (successor[q.neighbor_object],)
                else:
                    assert q.answers == (predecessor[q.neighbor_object],)

    def test_direction_word_matches_start_order(self):
        group = make_group(synth_rows(1, facts_per_subject=(6, 6), seed=60))
        start_of = {f.object: time_from_month_index(f.start) for f in group.facts}
        for q in gen_l3(group):
            gold_start = start_of[q.answers[0]]
            pivot_start = start_of[q.neighbor_object]
            if q.template_id.endswith("after"):
                assert gold_start > pivot_start
            else:
                assert gold_start < pivot_start

    def test_identical_adjacent_objects_skipped(self):
        rows = [dict(YOSHIMURA_ROWS[0])]
        rows[0]["object"] = "Mayor of Osaka"
        rows.append(dict(YOSHIMURA_ROWS[1]))
        rows.append(dict(YOSHIMURA_ROWS[2]))  # Mayor of Osaka again, adjacent to the first
        group = make_group(rows)
        objects = [f.object for f in group.facts]
        assert objects[1] == objects[2] == "Mayor of Osaka"
        questions = gen_l3(group)
        for q in questions:
            assert q.answers[0] != q.neighbor_object
        # the pair of identical neighbors contributes nothing
        assert len(questions) == 2

    def test_pair_starting_in_the_same_month_skipped(self):
        starts = ("Jan 2000", "Jan 2002", "Jan 2002", "Jan 2004")
        ends = ("Dec 2001", "Jun 2002", "Dec 2003", "Dec 2005")
        rows = [{"subject": "Aiko Abe", "subject_id": "Q1", "relation": "P39", "object": obj,
                 "object_id": f"O{i}", "start": start, "end": end}
                for i, (obj, start, end) in enumerate(zip(("Mayor", "Senator", "Governor", "Minister"),
                                                          starts, ends))]
        group = make_group(rows)
        assert [f.object for f in group.facts] == ["Mayor", "Senator", "Governor", "Minister"]
        # Senator and Governor both start in Jan 2002: neither is before the other.
        assert [q.id.split("-", 4)[4] for q in gen_l3(group)] == ["0-after", "0-before", "2-after", "2-before"]

    def test_repeated_pivot_only_uses_first_occurrence(self):
        rows = synth_rows(1, facts_per_subject=(4, 4), seed=70)
        rows[2]["object"] = rows[0]["object"]  # objects: A B A C
        group = make_group(rows)
        for q in gen_l3(group):
            if q.neighbor_object == rows[0]["object"]:
                # only the occurrence at index 0 may serve as a pivot
                assert q.template_id.endswith("after")
                assert q.answers == (group.facts[1].object,)

    def test_negatives_are_all_other_objects(self):
        group = make_group(synth_rows(1, facts_per_subject=(5, 5), seed=80))
        for q in gen_l3(group):
            expected = {f.object for f in group.facts} - set(q.answers)
            assert set(q.negatives) == expected
