"""Symbolic solver: fixture answers, brute-force equivalence and permutation
invariance."""

import random

import pytest

from chronoqa import (TimePoint, build_groups, gen_l1, gen_l2, gen_l3, ingest, l1_questions, solve, solve_l1, solve_l2,
                      solve_l3)
from chronoqa.facts import FactGroup
from chronoqa.oracle import OracleError, index_groups
from chronoqa.questions import Question
from chronoqa.templates import load_templates
from chronoqa.timeline import TimeParseError, TimeRangeError, format_time, is_year_text, month_index, parse_time

from conftest import Offset, fact_sort_key, make_group, month_range, shift, synth_rows, time_from_month_index


def l1_question(text: str, template_id: str = "") -> Question:
    return Question(id="q", level="L1", relation=None, subject=None, subject_id=None,
                    template_id=template_id, question=text, answers=("?",), negatives=(),
                    t_ref=None, neighbor_object=None, split="test")


class TestSolveL1:
    def test_bare_year_forms(self):
        assert solve_l1(l1_question("What is the year after 1905?")).answers == ("1906",)
        assert solve_l1(l1_question("What is the year before 2010?")).answers == ("2009",)

    def test_explicit_year_offset(self):
        for x in (1, 4, 10):
            answer = solve_l1(l1_question(f"What is the year {x} years before 2011?"))
            assert answer.answers == (str(2011 - x),)
            answer = solve_l1(l1_question(f"What is the year {x} years after 1949?"))
            assert answer.answers == (str(1949 + x),)

    def test_month_level_delegates_to_shift(self):
        answer = solve_l1(l1_question("What is the time 3 years and 5 months after Mar 1950?"))
        expected = shift(TimePoint(1950, 3), Offset(3, 5, "after"))
        assert (expected.year, expected.month) == (1953, 8)
        assert answer.answers == ("Aug 1953",)

    def test_solves_generated_questions(self):
        for q in l1_questions(gen_l1(month_range((1900, 1), (2020, 12)), 300, seed=17), "train"):
            assert solve_l1(q).answers == q.answers

    def test_unmatched_text_raises(self):
        with pytest.raises(OracleError, match="template"):
            solve_l1(l1_question("Who was president in 1950?"))

    @pytest.mark.parametrize("year", ["２０１１", "٢٠١١"], ids=["full-width", "arabic-indic"])
    def test_non_ascii_year_is_an_error(self, year):
        with pytest.raises(OracleError, match="bare year"):
            solve_l1(l1_question(f"What is the year 2 years before {year}?"))

    @pytest.mark.parametrize("text", [
        "What is the time ٥ months before Jun 1990?",
        "What is the time ５ years before Jun 1990?",
        "What is the time 1 year and ٣ months after Jun 1990?",
        "What is the year ٢ years before 2011?",
    ], ids=["arabic-indic-months", "full-width-years", "arabic-indic-months-after-years",
            "arabic-indic-year-offset"])
    def test_non_ascii_offset_is_an_error(self, text):
        # re's \d takes any decimal digit; an offset, like a year, is ASCII digits.
        with pytest.raises(OracleError, match="template"):
            solve_l1(l1_question(text))

    def test_underflow_is_an_error(self):
        with pytest.raises(OracleError):
            solve_l1(l1_question("What is the year 10 years before 5?"))


def shift_solve_l1(question: Question, templates) -> tuple[str, ...]:
    """``solve_l1``'s answers by ``Offset``, ``shift`` and ``format_time``:
    the reference for its month-index arithmetic."""
    for matcher in templates.l1_candidates(question.template_id):
        match = matcher.pattern.match(question.question)
        if match is None:
            continue
        groups = match.groupdict()
        years = int(groups["x"]) if "x" in groups else (matcher.fixed_x or 0)
        months = int(groups["y"]) if "y" in groups else 0
        t_text = groups["t"]
        try:
            if matcher.granularity == "year":
                if not is_year_text(t_text):
                    raise OracleError(f"expected a bare year, got {t_text!r}")
                t = TimePoint(int(t_text), 1)
            else:
                if len(t_text.split()) != 2:
                    raise OracleError(f"expected 'Mon YYYY', got {t_text!r}")
                t = parse_time(t_text, 1)
            result = shift(t, Offset(years, months, matcher.direction))
        except (TimeParseError, TimeRangeError, ValueError) as exc:
            raise OracleError(f"malformed question {question.id!r}: {exc}") from exc
        return (str(result.year) if matcher.granularity == "year" else format_time(result),)
    raise OracleError(f"question {question.id!r} matches no relative-time template: {question.question!r}")


def outcome(solver, *args):
    try:
        return solver(*args)
    except OracleError as exc:
        return f"OracleError: {exc}"


class TestSolveL1AgainstShift:
    """Every L1 wording, both directions, x in 0..10 and y in 0..11, at Jan
    and Dec of years 0, 1, 2, 10, 2022 and 9999, each reference time as a
    month and as a bare year: the same answer or the same error message."""

    def test_same_answer_or_message(self):
        templates = load_templates()
        texts = set()
        for template in templates.l1:
            for direction in ("before", "after"):
                template_id = f"{template.id}_{direction}"
                for year in (0, 1, 2, 10, 2022, 9999):
                    for t_text in (f"Jan {year}", f"Dec {year}", str(year)):
                        for x in range(11):
                            for y in range(12):
                                text = templates.render_l1(template, direction, x, y, t_text)
                                texts.add((template_id, text))
        outcomes = {"answer": 0, "error": 0}
        for i, (template_id, text) in enumerate(sorted(texts)):
            question = l1_question(text, template_id)._replace(id=f"q{i}")
            expected = outcome(shift_solve_l1, question, templates)
            assert outcome(lambda q: solve_l1(q, templates).answers, question) == expected, text
            outcomes["error" if isinstance(expected, str) else "answer"] += 1
        assert outcomes == {"answer": 2565, "error": 3447}
        messages = {outcome(shift_solve_l1, l1_question(text), templates).split(": ", 2)[-1]
                    for text in ("What is the time 0 years before Jan 2022?", "What is the year 2 years before 1?",
                                 "What is the year before 0?", "What is the time 3 months before Feb 1?")}
        assert messages == {"offset must move by at least one month", "month index -12 falls before year 1",
                            "year 0 is before the minimum supported year 1", "month index 10 falls before year 1"}


class TestSolveL2:
    def test_yoshimura_reference_month(self, yoshimura_group, jul_2019):
        assert solve_l2(yoshimura_group, month_index(jul_2019)).answers == ("Governor of Osaka Prefecture",)

    def test_before_earliest_fact_is_no_valid_answer(self, yoshimura_group):
        answer = solve_l2(yoshimura_group, month_index(TimePoint(1990, 1)))
        assert answer.answers == ()
        assert answer.no_valid_answer

    @pytest.mark.parametrize("month, answers", [
        (TimePoint(2015, 11), ()),
        (TimePoint(2015, 12), ("Mayor of Osaka",)),
        (TimePoint(2019, 3), ("Mayor of Osaka",)),
        (TimePoint(2019, 4), ("Governor of Osaka Prefecture",)),
    ], ids=["month-before-first", "first-month", "last-month", "month-after-last"])
    def test_a_fact_holds_from_its_first_through_its_last_month(self, yoshimura_group, month, answers):
        # Mayor of Osaka holds Dec 2015 through Mar 2019; nothing holds in Nov 2015
        assert solve_l2(yoshimura_group, month_index(month)).answers == answers

    def test_matches_brute_force_scan(self):
        rng = random.Random(55)
        group = make_group(synth_rows(1, facts_per_subject=(6, 6), seed=90, allow_overlap=True))
        # (first month, last month, object) as time points, in chronological order
        spans = [(time_from_month_index(f.start), time_from_month_index(f.end), f.object)
                 for f in sorted(group.facts, key=fact_sort_key)]
        lo = min(start.year for start, _, _ in spans) - 2
        hi = max(end.year for _, end, _ in spans) + 2
        for _ in range(1000):
            t_r = TimePoint(rng.randint(lo, hi), rng.randint(1, 12))
            expected = []
            for start, end, obj in spans:
                if start <= t_r <= end and obj not in expected:
                    expected.append(obj)
            assert list(solve_l2(group, month_index(t_r)).answers) == expected

    def test_permutation_invariant(self, jul_2019):
        group = make_group(synth_rows(1, facts_per_subject=(6, 6), seed=91, allow_overlap=True))
        t_index = group.facts[2].start
        baseline = solve_l2(group, t_index)
        for seed in range(5):
            facts = list(group.facts)
            random.Random(seed).shuffle(facts)
            shuffled = FactGroup(group.subject, group.subject_id, group.relation, tuple(facts))
            assert solve_l2(shuffled, t_index).answers == baseline.answers


class TestSolveL3:
    def test_parliament_shortcut_pair(self):
        rows = [
            {"subject": "Nicholas Budgen", "subject_id": "QB1", "relation": "P39",
             "object": f"Member of the {n}th Parliament of the United Kingdom",
             "object_id": f"OB{n}", "start": start, "end": end}
            for n, start, end in (("45", "Mar 1974", "Sep 1974"),
                                  ("46", "Oct 1974", "Apr 1979"),
                                  ("47", "May 1979", "May 1983"))
        ]
        group = make_group(rows)
        answer = solve_l3(group, "Member of the 46th Parliament of the United Kingdom", "before")
        assert answer.answers == ("Member of the 45th Parliament of the United Kingdom",)

    def test_boundary_pivot_no_valid_answer(self, yoshimura_group):
        earliest = yoshimura_group.facts[0].object
        answer = solve_l3(yoshimura_group, earliest, "before")
        assert answer.answers == ()
        assert answer.no_valid_answer

    def test_unknown_pivot_raises(self, yoshimura_group):
        with pytest.raises(OracleError, match="pivot"):
            solve_l3(yoshimura_group, "Prime Minister of Japan", "after")

    def test_exhaustive_adjacency_matches_sort_oracle(self):
        group = make_group(synth_rows(1, facts_per_subject=(6, 6), seed=92))
        ordered = sorted(group.facts, key=fact_sort_key)
        for position, fact in enumerate(ordered):
            for direction, delta in (("before", -1), ("after", 1)):
                expected_position = position + delta
                answer = solve_l3(group, fact.object, direction)
                if 0 <= expected_position < len(ordered):
                    assert answer.answers == (ordered[expected_position].object,)
                else:
                    assert answer.no_valid_answer

    def test_repeated_pivot_uses_earliest_occurrence(self):
        rows = synth_rows(1, facts_per_subject=(4, 4), seed=93)
        rows[2]["object"] = rows[0]["object"]  # A B A C
        group = make_group(rows)
        answer = solve_l3(group, rows[0]["object"], "after")
        assert answer.answers == (group.facts[1].object,)


class TestDispatch:
    def test_solves_all_levels_from_generated_sets(self):
        rows = synth_rows(4, facts_per_subject=(4, 6), seed=95, allow_overlap=True)
        groups = build_groups(ingest(rows), seed=0)
        index = index_groups(groups)
        questions = []
        for group in groups:
            questions += gen_l2(group, seed=3)
            questions += gen_l3(group)
        questions += l1_questions(gen_l1(month_range((1900, 1), (2000, 12)), 50, seed=3), "train")
        for q in questions:
            answer = solve(q, index)
            assert answer.answers, f"no answer for {q.id}"
            assert answer.answers[0] in q.answers

    def test_l2_requires_reference_time(self, yoshimura_group):
        q = gen_l2(yoshimura_group, seed=1)[0]
        with pytest.raises(OracleError, match="reference time"):
            solve(q._replace(t_ref=None), index_groups([yoshimura_group]))

    def test_unknown_subject_raises(self, yoshimura_group):
        q = gen_l2(yoshimura_group, seed=1)[0]
        broken = q._replace(subject="Nobody", subject_id="QX")
        with pytest.raises(OracleError, match="no fact group"):
            solve(broken, index_groups([yoshimura_group]))

    def test_name_fallback_lookup(self, yoshimura_group):
        q = gen_l2(yoshimura_group, seed=1)[0]
        nameless = q._replace(subject_id=None)
        answer = solve(nameless, index_groups([yoshimura_group]))
        assert answer.answers[0] in q.answers
