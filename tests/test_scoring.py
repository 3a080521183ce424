"""Metric fixtures (hand-computed), reward branch semantics against a
brute-force reimplementation, and report aggregation properties."""

import random
import re
import string
from collections import Counter

import pytest

from chronoqa import (
    Prediction,
    RewardRecord,
    TimePoint,
    build_groups,
    evaluate,
    gen_l1,
    gen_l2,
    gen_l3,
    ingest,
    l1_questions,
    normalize,
    reward,
    score_em,
    score_f1,
    score_numeric,
)
from chronoqa.questions import Question
from chronoqa.scoring import (EvalReport, MetricBlock, _strip_punctuation, _token_f1, extract_year, period_label,
                              reward_records)

from chronoqa.timeline import month_index

from conftest import ESCAPES, l2_question_at, month_range, synth_rows, time_from_month_index

# The normalization rule written with a str.translate deletion table; the
# package must give the same tokens for any text.
_PUNCT = str.maketrans("", "", string.punctuation)


def translate_normalize(text):
    return [t for t in text.lower().translate(_PUNCT).split() if t not in ("a", "an", "the")]


def counter_f1(pred_tokens, gold_tokens):
    """Token F1 with the overlap counted by ``Counter`` intersection."""
    if not pred_tokens or not gold_tokens:
        return float(pred_tokens == gold_tokens)
    overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    if overlap == 0:
        return 0.0
    precision, recall = overlap / len(pred_tokens), overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


class TestNormalize:
    def test_article_removal(self):
        assert normalize("The Governor of Osaka Prefecture") == ["governor", "of", "osaka", "prefecture"]

    def test_punctuation_removal(self):
        assert normalize("FC Barcelona.") == ["fc", "barcelona"]

    def test_empty(self):
        assert normalize("") == []

    def test_whitespace_collapse(self):
        assert normalize("  a  An THE  x ") == ["x"]

    def test_punctuation_class_is_string_punctuation(self):
        """``scoring`` writes the marks out rather than import ``string``; its
        class must delete exactly ``string.punctuation``, on every code point."""
        reference = re.compile("[" + re.escape(string.punctuation) + "]").sub
        every = "".join(map(chr, range(0x110000)))
        assert _strip_punctuation("", every) == reference("", every)
        assert len(every) - len(_strip_punctuation("", every)) == len(string.punctuation) == 32

    def test_matches_the_translate_rule_on_every_ascii_code_point(self):
        for code in range(0x80):
            for text in (chr(code), f"The{chr(code)}a x{chr(code)}Y", chr(code) * 3 + " an"):
                assert normalize(text) == translate_normalize(text)
        every = "".join(map(chr, range(0x80)))
        assert normalize(every) == translate_normalize(every)

    @pytest.mark.parametrize("text", [
        ESCAPES, "İstanbul İ", "STRAẞE Straße ß", "ﬁnance ﬁ", "ΣΑΣ ς", "x\u0130.y", "word—dash «quote» ¡hola!",
    ], ids=["escapes", "dotted-capital-i", "sharp-s", "ligature", "sigma", "i-in-word", "non-ascii-punctuation"])
    def test_matches_the_translate_rule(self, text):
        assert normalize(text) == translate_normalize(text)

    def test_matches_the_translate_rule_on_random_texts(self):
        rng = random.Random(21)
        pieces = [*string.printable, "a", "An", "THE", "the.", "İ", "ß", "ﬁ", "Σ", "\u2028", "\xa0", "東京", "\U0001F600",
                  "\ud800", "Osaka", "2019"]
        for _ in range(3000):
            text = "".join(rng.choices(pieces, k=rng.randint(0, 30)))
            assert normalize(text) == translate_normalize(text)


class TestEm:
    def test_normalization_identity(self):
        assert score_em("governor of osaka prefecture", ["Governor of Osaka Prefecture"]) == 1

    def test_symmetric_normalization(self):
        assert score_em("The Mayor of Osaka!", ["mayor of osaka"]) == 1
        assert score_em("mayor of osaka", ["The Mayor of Osaka!"]) == 1

    def test_mismatch(self):
        assert score_em("Mayor of Osaka", ["Governor of Osaka Prefecture"]) == 0

    def test_multiple_golds(self):
        assert score_em("FC Barcelona", ["Paris Saint-Germain", "FC Barcelona"]) == 1

    def test_empty_golds_rejected(self):
        with pytest.raises(ValueError):
            score_em("x", [])


class TestF1:
    def test_hand_counted_fraction(self):
        # pred tokens {mayor, of, osaka}, gold {governor, of, osaka, prefecture}
        # overlap 2 -> P=2/3, R=2/4, F1 = 4/7
        value = score_f1("Mayor of Osaka", ["Governor of Osaka Prefecture"])
        assert abs(value - 4 / 7) < 1e-9

    def test_exact_match_is_one(self):
        assert score_f1("governor of osaka prefecture", ["Governor of Osaka Prefecture"]) == 1.0

    def test_disjoint_tokens_zero(self):
        assert score_f1("Paris", ["FC Barcelona"]) == 0.0

    def test_max_over_golds(self):
        value = score_f1("Mayor of Osaka", ["Governor of Osaka Prefecture", "Mayor of Osaka"])
        assert value == 1.0

    def test_f1_at_least_em_randomized(self):
        rng = random.Random(77)
        vocabulary = ["osaka", "mayor", "governor", "tokyo", "prefecture", "of", "japan"]
        for _ in range(500):
            pred = " ".join(rng.choices(vocabulary, k=rng.randint(1, 5)))
            golds = [" ".join(rng.choices(vocabulary, k=rng.randint(1, 5)))
                     for _ in range(rng.randint(1, 3))]
            em, f1 = score_em(pred, golds), score_f1(pred, golds)
            assert 0 <= em <= f1 <= 1

    def test_token_f1_equals_the_counter_rule_exactly(self):
        rng = random.Random(5)
        vocabulary = ["osaka", "mayor", "of", "2019", "x"]
        cases = [([], []), ([], ["x"]), (["x"], [])]
        for _ in range(5000):
            cases.append(tuple(rng.choices(vocabulary[:rng.randint(1, 5)], k=rng.randint(0, 8)) for _ in "pg"))
        for pred, gold in cases:
            before = (list(pred), list(gold))
            assert _token_f1(pred, gold) == counter_f1(pred, gold)
            assert (pred, gold) == before  # the inputs are memoized token lists: never changed


class TestNumeric:
    def test_exact_year(self):
        result = score_numeric("2009", gold_year=2009, ref_year=2010)
        assert result.abs_err == 0 and result.trend_correct and result.parsed

    def test_same_side_error(self):
        result = score_numeric("2005", gold_year=2009, ref_year=2010)
        assert result.abs_err == 4 and result.trend_correct

    def test_wrong_side(self):
        result = score_numeric("2012", gold_year=2009, ref_year=2010)
        assert result.abs_err == 3 and not result.trend_correct

    def test_unparseable_policy(self):
        result = score_numeric("around the nineties", gold_year=2009, ref_year=2010)
        assert result.abs_err is None and not result.trend_correct and not result.parsed

    def test_prediction_equal_to_reference_is_trend_incorrect(self):
        assert not score_numeric("2010", gold_year=2009, ref_year=2010).trend_correct

    def test_gold_equal_ref_rejected(self):
        with pytest.raises(ValueError):
            score_numeric("2010", gold_year=2010, ref_year=2010)

    def test_year_extraction_from_text(self):
        assert extract_year("the year 1906") == 1906
        assert extract_year("no digits") is None

    @pytest.mark.parametrize("text", ["\u0662\u0660\u0661\u0669", "\uff12\uff10\uff11\uff19"],
                             ids=["arabic-indic", "fullwidth"])
    def test_non_ascii_digits_are_not_a_year(self, text):
        # re's \d took these for 2019: MAE 0 and trend-correct against gold 2019.
        assert extract_year(text) is None
        result = score_numeric(text, gold_year=2019, ref_year=2000)
        assert result.abs_err is None and not result.trend_correct and not result.parsed
        assert extract_year(f"{text} or 1999") == 1999


# brute-force reimplementation of the reward semantics, with its own
# normalizer, used to cross-check the package implementation
def bf_norm(text):
    return " ".join(translate_normalize(text))


def bf_reward(pred, gold, negatives):
    p = 1.0 if bf_norm(pred) == bf_norm(gold) else 0.0
    n = max((1.0 if bf_norm(pred) == bf_norm(neg) else 0.0 for neg in negatives), default=0.0)
    return p if p >= n else -n


class TestReward:
    GOLD = "Governor of Osaka Prefecture"
    NEGATIVES = ["Mayor of Osaka", "Member of the House of Representatives of Japan"]

    def test_gold_prediction_positive(self):
        record = reward(self.GOLD, self.GOLD, self.NEGATIVES)
        assert (record.p, record.n, record.reward) == (1.0, 0.0, 1.0)

    def test_negative_prediction_penalized(self):
        record = reward("Mayor of Osaka", self.GOLD, self.NEGATIVES)
        assert (record.p, record.n, record.reward) == (0.0, 1.0, -1.0)

    def test_unrelated_prediction_zero(self):
        record = reward("Tokyo Governor", self.GOLD, self.NEGATIVES)
        assert (record.p, record.n, record.reward) == (0.0, 0.0, 0.0)

    def test_empty_negatives(self):
        assert reward("anything", self.GOLD, []).reward == 0.0
        assert reward(self.GOLD, self.GOLD, []).reward == 1.0

    def test_gold_in_negatives_is_a_data_error(self):
        with pytest.raises(ValueError, match="negative set"):
            reward("x", self.GOLD, ["the governor of osaka prefecture!"])

    def test_custom_scorer(self):
        record = reward("Governor of Osaka", self.GOLD, self.NEGATIVES,
                        scorer=lambda pred, ref: score_f1(pred, [ref]))
        assert 0 < record.p < 1
        assert record.reward == record.p  # p >= n branch

    def test_matches_brute_force_on_randomized_cases(self):
        rng = random.Random(99)
        pool = [f"Candidate {letter}{i}" for i in range(30) for letter in "AB"]
        for _ in range(1000):
            gold = rng.choice(pool)
            negatives = rng.sample([c for c in pool if c != gold], rng.randint(0, 5))
            kind = rng.random()
            if kind < 0.4:
                pred = gold
            elif kind < 0.7 and negatives:
                pred = rng.choice(negatives)
            else:
                pred = rng.choice(pool + ["something else entirely"])
            record = reward(pred, gold, negatives)
            assert record.reward == bf_reward(pred, gold, negatives)
            assert record.reward in (-1.0, 0.0, 1.0)


def _question(qid, answers, negatives=(), t_ref=None, relation=None, level="L2"):
    return Question(id=qid, level=level, relation=relation, subject="S", subject_id="QS",
                    template_id="t", question="q?", answers=tuple(answers),
                    negatives=tuple(negatives), t_ref=t_ref, neighbor_object=None, split="test")


class TestPredictionRecord:
    @pytest.mark.parametrize("value", [None, 7, ["X"]])
    def test_prediction_must_be_a_string(self, value):
        with pytest.raises(ValueError, match="prediction must be a string"):
            Prediction.from_record({"id": "a", "prediction": value})

    @pytest.mark.parametrize("value", [None, 7, ["a"]])
    def test_id_must_be_a_string(self, value):
        with pytest.raises(ValueError, match="id must be a string"):
            Prediction.from_record({"id": value, "prediction": "Mayor"})


class TestEvaluate:
    def test_all_correct_is_100(self):
        questions = [_question(f"q{i}", [f"Answer {i}"]) for i in range(5)]
        predictions = [Prediction(q.id, q.answers[0]) for q in questions]
        report = evaluate(questions, predictions)
        assert report.overall.em == 100.0
        assert report.overall.f1 == 100.0
        assert report.count == 5

    def test_two_of_three_em(self):
        questions = [_question("a", ["X Y"]), _question("b", ["Z W"]), _question("c", ["Q R"])]
        predictions = [Prediction("a", "X Y"), Prediction("b", "nope"), Prediction("c", "Q R")]
        report = evaluate(questions, predictions)
        assert abs(report.overall.em - 200 / 3) < 1e-9

    def test_missing_prediction_scores_zero(self):
        questions = [_question("a", ["X"]), _question("b", ["Y"])]
        report = evaluate(questions, [Prediction("a", "X")])
        assert abs(report.overall.em - 50.0) < 1e-9

    def test_missing_policy_error(self):
        with pytest.raises(ValueError, match="no prediction"):
            evaluate([_question("a", ["X"])], [], missing_policy="error")

    def test_duplicate_prediction_ids_rejected(self):
        questions = [_question("a", ["X"])]
        with pytest.raises(ValueError, match="duplicate"):
            evaluate(questions, [Prediction("a", "X"), Prediction("a", "Y")])

    def test_unknown_prediction_id_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            evaluate([_question("a", ["X"])], [Prediction("zz", "X")])

    def test_numeric_metrics_for_year_answers(self):
        questions = [
            _question("a", ["2009"], t_ref=month_index(TimePoint(2010, 1)), level="L1"),
            _question("b", ["1955"], t_ref=month_index(TimePoint(1950, 1)), level="L1"),
        ]
        predictions = [Prediction("a", "2005"), Prediction("b", "1960")]
        report = evaluate(questions, predictions)
        assert report.overall.mae == (4 + 5) / 2
        assert report.overall.trend_acc == 100.0
        assert report.overall.numeric_count == 2

    def test_unparseable_numeric_excluded_from_mae_but_trend_incorrect(self):
        questions = [_question("a", ["2009"], t_ref=month_index(TimePoint(2010, 1)), level="L1")]
        report = evaluate(questions, [Prediction("a", "no idea")])
        assert report.overall.mae is None
        assert report.overall.trend_acc == 0.0
        assert report.overall.unparseable_count == 1

    def test_period_buckets_and_weighted_average(self):
        rng = random.Random(5)
        questions = l1_questions(gen_l1(month_range((1880, 1), (2030, 12)), 300, seed=6), "train")
        predictions = [
            Prediction(q.id, q.answers[0] if rng.random() < 0.7 else "wrong")
            for q in questions
        ]
        report = evaluate(questions, predictions)
        total = sum(block.count for block in report.per_period.values())
        assert total == report.count
        weighted_em = sum(block.em * block.count for block in report.per_period.values()) / total
        assert abs(weighted_em - report.overall.em) < 1e-9
        weighted_f1 = sum(block.f1 * block.count for block in report.per_period.values()) / total
        assert abs(weighted_f1 - report.overall.f1) < 1e-9
        for block in report.per_period.values():
            assert 0 <= block.em <= block.f1 <= 100

    def test_period_labels(self):
        edges = (1900, 1920, 1940)
        assert period_label(1895, edges) == "before 1900"
        assert period_label(1900, edges) == "1900-1920"
        assert period_label(1919, edges) == "1900-1920"
        assert period_label(1920, edges) == "1920-1940"
        assert period_label(1940, edges) == "1940+"

    def test_per_relation_buckets(self):
        questions = [_question("a", ["X"], relation="P39"), _question("b", ["Y"], relation="P54")]
        report = evaluate(questions, [Prediction("a", "X"), Prediction("b", "nope")])
        assert report.per_relation["P39"].em == 100.0
        assert report.per_relation["P54"].em == 0.0

    def test_input_order_invariance(self):
        questions = [_question(f"q{i}", [f"A{i}"]) for i in range(20)]
        predictions = [Prediction(q.id, q.answers[0] if i % 3 else "x") for i, q in enumerate(questions)]
        a = evaluate(questions, predictions)
        shuffled_q = list(questions)
        shuffled_p = list(predictions)
        random.Random(1).shuffle(shuffled_q)
        random.Random(2).shuffle(shuffled_p)
        b = evaluate(shuffled_q, shuffled_p)
        assert a.overall == b.overall


class TestRewardRecords:
    def test_batch_matches_single(self, yoshimura_group, jul_2019):
        question = l2_question_at(yoshimura_group, jul_2019)
        records = reward_records([question], [Prediction(question.id, "Mayor of Osaka")])
        assert records[0].reward == -1.0
        assert records[0].id == question.id

    def test_missing_prediction_scored_as_empty(self, yoshimura_group, jul_2019):
        question = l2_question_at(yoshimura_group, jul_2019)
        records = reward_records([question], [])
        assert records[0].reward == 0.0

    def test_any_gold_is_correct_as_in_evaluate(self):
        # Only the first gold scored: a later one got p = 0 while evaluate counted it correct.
        questions = [_question("q1", ["Mayor", "Governor"], ["Senator"]), _question("q2", ["Mayor", "Governor"])]
        predictions = [Prediction("q1", "the governor."), Prediction("q2", "Senator")]
        assert reward_records(questions, predictions) == [RewardRecord("q1", 1.0, 0.0, 1.0),
                                                          RewardRecord("q2", 0.0, 0.0, 0.0)]
        assert evaluate(questions, predictions).overall.em == 50.0
        records = reward_records(questions, predictions, scorer=lambda pred, ref: float(ref == "Governor"))
        assert [record.p for record in records] == [1.0, 1.0]

    def test_a_later_gold_among_the_negatives_is_refused(self):
        questions = [_question("q1", ["Mayor", "Governor"], ["Senator", "governor"])]
        with pytest.raises(ValueError, match="question 'q1': gold answer 'Governor' also appears in the negative set"):
            reward_records(questions, [])

    @pytest.mark.parametrize("questions, predictions, message", [
        ([_question("a", ["X"])], [Prediction("zz", "X")], "unknown question ids"),
        ([_question("a", ["X"])], [Prediction("a", "X"), Prediction("a", "Y")], "duplicate prediction id"),
        ([_question("a", ["X"]), _question("a", ["Y"])], [], "duplicate question ids"),
    ], ids=["unknown-prediction-id", "duplicate-prediction-id", "duplicate-question-id"])
    def test_ids_are_checked_as_in_evaluate(self, questions, predictions, message):
        with pytest.raises(ValueError, match=message):
            reward_records(questions, predictions)
        with pytest.raises(ValueError, match=message):
            evaluate(questions, predictions)


class TestAnswersWithoutScoringTokens:
    """A gold or negative that normalizes to no tokens would match an empty
    or missing prediction, so it is a data error that names the question."""

    EMPTY = ["...", "The", " a, an! ", "?"]

    @pytest.mark.parametrize("empty", EMPTY)
    def test_evaluate_refuses_a_gold(self, empty):
        questions = [_question("q1", ["Mayor"]), _question("q2", ["Governor", empty])]
        with pytest.raises(ValueError, match=f"question 'q2': gold {re.escape(repr(empty))} has no scoring tokens"):
            evaluate(questions, [Prediction("q1", "Mayor")])

    @pytest.mark.parametrize("empty", EMPTY)
    def test_reward_records_refuse_a_gold(self, empty):
        questions = [_question("q1", ["Mayor"], ["Senator"]), _question("q2", [empty], ["Senator"])]
        with pytest.raises(ValueError, match=f"question 'q2': gold {re.escape(repr(empty))} has no scoring tokens"):
            reward_records(questions, [])

    @pytest.mark.parametrize("empty", EMPTY)
    def test_reward_records_refuse_a_later_gold(self, empty):
        questions = [_question("q1", ["Mayor", empty], ["Senator"])]
        with pytest.raises(ValueError, match=f"question 'q1': gold {re.escape(repr(empty))} has no scoring tokens"):
            reward_records(questions, [Prediction("q1", "Mayor")])

    @pytest.mark.parametrize("empty", EMPTY)
    def test_reward_records_refuse_a_negative(self, empty):
        questions = [_question("q1", ["Mayor"], ["Senator", empty])]
        with pytest.raises(ValueError, match=f"question 'q1': negative {re.escape(repr(empty))} has no scoring tokens"):
            reward_records(questions, [Prediction("q1", "Mayor")])
        with pytest.raises(ValueError, match="has no scoring tokens"):
            reward("Mayor", "Mayor", ["Senator", empty])


def _labelled_mix(seed: int):
    """L1, L2 (often multi-gold) and L3 questions with gold, case,
    punctuation and article variants, negatives, token prefixes, unrelated,
    empty and missing predictions."""
    rng = random.Random(seed)
    rows = synth_rows(12, facts_per_subject=(3, 7), seed=40, allow_overlap=True)
    rows += synth_rows(6, relation="P54", facts_per_subject=(3, 6), seed=41, allow_overlap=True)
    for index in (3, 20, 33):
        rows[index]["object"] = "the " + rows[index - 1]["object"].lower() + "."
    questions = [q for group in build_groups(ingest(rows)) for q in gen_l2(group, seed) + gen_l3(group)]
    questions += l1_questions(gen_l1(month_range((1890, 1), (2030, 12)), 150, seed=seed), "train")
    predictions = []
    for question in questions:
        gold = rng.choice(question.answers)
        variants = [gold, gold.upper() + "!", "The " + gold.lower(), gold.split()[0], "", "an unrelated answer",
                    rng.choice(question.negatives) if question.negatives else "1777"]
        if rng.random() < 0.1:
            continue  # missing
        predictions.append(Prediction(question.id, rng.choice(variants)))
    rng.shuffle(predictions)
    return questions, predictions


def _expected_block(items) -> MetricBlock:
    numeric = [n for _, _, n in items if n is not None]
    parsed = [n for n in numeric if n.parsed]
    f1_sum = 0.0
    for _, f1, _ in items:  # in question order: sum() compensates float additions from Python 3.12 on
        f1_sum += f1
    return MetricBlock(
        em=100.0 * sum(em for em, _, _ in items) / len(items),
        f1=100.0 * f1_sum / len(items),
        mae=sum(n.abs_err for n in parsed) / len(parsed) if parsed else None,
        trend_acc=100.0 * sum(n.trend_correct for n in numeric) / len(numeric) if numeric else None,
        count=len(items),
        numeric_count=len(numeric),
        unparseable_count=len(numeric) - len(parsed),
    )


class TestSinglePassEquivalence:
    """evaluate and reward_records against per-item score_em, score_f1 and
    reward with an explicit exact-match scorer."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_evaluate_matches_per_item_scores(self, seed):
        questions, predictions = _labelled_mix(seed)
        assert any(len(q.answers) > 1 for q in questions)
        texts = {p.id: p.prediction for p in predictions}
        buckets: dict[tuple[str, str], list] = {}
        for q in questions:
            text = texts.get(q.id, "")
            numeric = None
            t_ref = None if q.t_ref is None else time_from_month_index(q.t_ref)
            if (t_ref is not None and len(q.answers) == 1 and q.answers[0].isdigit()
                    and int(q.answers[0]) != t_ref.year):
                numeric = score_numeric(text, int(q.answers[0]), t_ref.year)
            item = (score_em(text, q.answers), score_f1(text, q.answers), numeric)
            period = period_label(t_ref.year, (1900, 1950, 2000)) if t_ref else "undated"
            for bucket in (("overall", ""), ("period", period), ("relation", q.relation or "none")):
                buckets.setdefault(bucket, []).append(item)
        expected = EvalReport(
            overall=_expected_block(buckets[("overall", "")]),
            per_period={label: _expected_block(items)
                        for (kind, label), items in sorted(buckets.items()) if kind == "period"},
            per_relation={label: _expected_block(items)
                          for (kind, label), items in sorted(buckets.items()) if kind == "relation"},
            count=len(questions),
        )
        report = evaluate(questions, predictions, period_edges=(1900, 1950, 2000))
        assert report == expected
        assert list(report.per_period) == list(expected.per_period)
        assert 0 < report.overall.em < report.overall.f1 < 100
        assert report.overall.numeric_count > report.overall.unparseable_count > 0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_reward_records_match_per_item_reward(self, seed):
        questions, predictions = _labelled_mix(seed)
        texts = {p.id: p.prediction for p in predictions}
        # per gold: the record of the best-scoring gold, as n does not depend on the gold
        expected = [max((reward(texts.get(q.id, ""), gold, q.negatives, id=q.id,
                                scorer=lambda pred, ref: float(score_em(pred, [ref]))) for gold in q.answers),
                        key=lambda record: record.p)
                    for q in questions]
        records = reward_records(questions, predictions)
        assert records == expected
        assert {r.reward for r in records} == {-1.0, 0.0, 1.0}
        # the mix holds predictions of a gold that is not the first
        assert any(r.p > reward(texts.get(q.id, ""), q.answers[0], q.negatives).p for q, r in zip(questions, records))

    def test_custom_scorer_is_still_called(self):
        questions, predictions = _labelled_mix(3)
        calls = []

        def scorer(pred, ref):
            calls.append((pred, ref))
            return 0.5

        records = reward_records(questions, predictions, scorer=scorer)
        assert len(calls) == sum(len(q.answers) + len(q.negatives) for q in questions)
        assert {(r.p, r.reward) for r in records} == {(0.5, 0.5)}
