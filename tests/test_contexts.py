"""Prompt rendering per setting, and span masking round trips."""

import random
from collections import Counter

import pytest

from chronoqa import AnnotatedDocument, gen_l2, mask_spans, render, unmask
from chronoqa.contexts import RenderError, mask_corpus
from chronoqa.facts import build_groups, ingest
from chronoqa.questions import l2_question_at
from chronoqa.timeline import TimePoint

from conftest import YOSHIMURA_ROWS, make_group, random_doc, synth_rows


class TestRender:
    def test_cbqa_prompt_is_question_only(self, yoshimura_group, jul_2019):
        q = l2_question_at(yoshimura_group, jul_2019)
        example = render(q, setting="cbqa")
        assert example.prompt == q.question
        assert example.target == "Governor of Osaka Prefecture"
        assert example.setting == "CBQA"

    def test_obqa_appends_article(self, yoshimura_group, jul_2019):
        q = l2_question_at(yoshimura_group, jul_2019)
        example = render(q, article="He is a Japanese politician.", setting="obqa")
        assert example.prompt == q.question + "\nHe is a Japanese politician."

    def test_obqa_requires_article(self, yoshimura_group, jul_2019):
        with pytest.raises(RenderError, match="article"):
            render(l2_question_at(yoshimura_group, jul_2019), setting="obqa")

    def test_reasonqa_prompt_format(self, yoshimura_group, jul_2019):
        q = l2_question_at(yoshimura_group, jul_2019)
        example = render(q, yoshimura_group, setting="reasonqa", seed=0)
        lines = example.prompt.split("\n")
        assert lines[0] == q.question
        assert lines[1] == "Hirofumi Yoshimura holds the position of:"
        assert "Governor of Osaka Prefecture from Apr 2019 to Dec 2022." in lines[2:]
        assert "Member of the House of Representatives of Japan from Dec 2014 to Oct 2015." in lines[2:]
        assert "Mayor of Osaka from Dec 2015 to Mar 2019." in lines[2:]
        assert len(lines) == 2 + len(yoshimura_group.facts)

    def test_reasonqa_requires_group(self, yoshimura_group, jul_2019):
        with pytest.raises(RenderError, match="fact group"):
            render(l2_question_at(yoshimura_group, jul_2019), setting="reasonqa")

    def test_reasonqa_contains_gold_and_negatives_once(self):
        group = make_group(synth_rows(1, facts_per_subject=(6, 6), seed=200))
        for q in gen_l2(group, seed=4):
            prompt = render(q, group, setting="reasonqa", seed=9).prompt
            for text in list(q.answers) + list(q.negatives):
                assert prompt.count(text) == 1

    def test_seed_changes_order_but_not_multiset(self):
        group = make_group(synth_rows(1, facts_per_subject=(6, 6), seed=201))
        q = gen_l2(group, seed=4)[0]
        a = render(q, group, setting="reasonqa", seed=1).prompt.split("\n")[2:]
        b = render(q, group, setting="reasonqa", seed=2).prompt.split("\n")[2:]
        assert Counter(a) == Counter(b)
        assert a != b  # frozen by the chosen seeds

    def test_render_deterministic_under_seed(self, yoshimura_group, jul_2019):
        q = l2_question_at(yoshimura_group, jul_2019)
        assert render(q, yoshimura_group, setting="reasonqa", seed=7) == \
            render(q, yoshimura_group, setting="reasonqa", seed=7)

    def test_open_ended_fact_renders_snapshot(self):
        rows = [dict(r) for r in YOSHIMURA_ROWS]
        rows[0]["end"] = None
        store = ingest(rows, snapshot=TimePoint(2022, 11))
        group = build_groups(store, seed=0)[0]
        q = l2_question_at(group, TimePoint(2019, 7))
        prompt = render(q, group, setting="reasonqa", seed=0).prompt
        assert "Governor of Osaka Prefecture from Apr 2019 to Nov 2022." in prompt

    def test_unknown_setting_rejected(self, yoshimura_group, jul_2019):
        with pytest.raises(RenderError, match="unknown setting"):
            render(l2_question_at(yoshimura_group, jul_2019), setting="openbook")


class TestMaskSpans:
    def test_half_ratio_masks_exact_ceiling(self):
        rng = random.Random(1)
        doc = random_doc(rng, "d1", min_spans=4)
        span_count = len(doc.spans)
        masked, target = mask_spans(doc, 0.5, seed=3)
        expected = -(-span_count // 2)  # ceil
        assert masked.count("<mask_") == expected
        assert target.count("<mask_") == expected

    def test_full_ratio_masks_all_and_reconstructs(self):
        rng = random.Random(2)
        doc = random_doc(rng, "d2", min_spans=3)
        masked, target = mask_spans(doc, 1.0, seed=3)
        assert masked.count("<mask_") == len(doc.spans)
        assert unmask(masked, target, "<mask_{k}>") == doc.text

    def test_reconstruction_identity_many_docs(self):
        rng = random.Random(3)
        for i in range(500):
            doc = random_doc(rng, f"doc-{i}", min_spans=1)
            ratio = rng.choice([0.25, 0.5, 0.75, 1.0])
            masked, target = mask_spans(doc, ratio, seed=11)
            assert unmask(masked, target) == doc.text

    def test_sentinels_sequential_in_document_order(self):
        doc = AnnotatedDocument("d", "aa bb cc dd", ((0, 2, "entity"), (3, 5, "temporal"),
                                                     (6, 8, "entity"), (9, 11, "entity")))
        masked, target = mask_spans(doc, 1.0, seed=0)
        assert masked == "<mask_0> <mask_1> <mask_2> <mask_3>"
        assert target == "<mask_0>aa<mask_1>bb<mask_2>cc<mask_3>dd"

    def test_custom_sentinel_pattern(self):
        doc = AnnotatedDocument("d", "aa bb", ((0, 2, "entity"), (3, 5, "entity")))
        masked, target = mask_spans(doc, 1.0, seed=0, sentinel_pattern="[[S{k}]]")
        assert masked == "[[S0]] [[S1]]"
        assert unmask(masked, target, "[[S{k}]]") == "aa bb"

    def test_non_ascii_digits_are_not_a_sentinel(self):
        # re's \d took <mask_\u0661> for <mask_1>.
        assert unmask("x <mask_\u0661> y <mask_1>", "<mask_1>AA") == "x <mask_\u0661> y AA"

    @pytest.mark.parametrize("pattern, first", [("<m{{x}}_{k}>", "<m{{x}}_0>"), ("<{k}|{x}>", "<0|{x}>")],
                             ids=["doubled-braces", "other-field"])
    def test_text_around_k_is_literal(self, pattern, first):
        # str.format turned '{{x}}' into '{x}', which unmask then rejected,
        # and raised KeyError on '{x}'.
        doc = AnnotatedDocument("d", "aa bb", ((0, 2, "entity"), (3, 5, "entity")))
        masked, target = mask_spans(doc, 1.0, seed=0, sentinel_pattern=pattern)
        assert masked.startswith(first) and target.startswith(first)
        assert unmask(masked, target, pattern) == "aa bb"

    def test_masked_count_is_the_exact_ceiling(self):
        # 0.28 * 25 is 7.000000000000001 in floats, which masked 8 spans.
        for n in range(1, 41):
            doc = AnnotatedDocument("d", "a " * n, tuple((2 * i, 2 * i + 1, "entity") for i in range(n)))
            for r in range(1, 101):
                masked, _ = mask_spans(doc, r / 100, seed=r)
                assert masked.count("<mask_") == -(-r * n // 100), (r, n)

    def test_bad_sentinel_pattern_rejected(self):
        doc = AnnotatedDocument("d", "aa", ((0, 2, "entity"),))
        with pytest.raises(ValueError, match="sentinel"):
            mask_spans(doc, 0.5, sentinel_pattern="<mask>")

    def test_zero_spans_is_an_error(self):
        doc = AnnotatedDocument("d", "plain text", ())
        with pytest.raises(ValueError, match="no spans"):
            mask_spans(doc, 0.5)

    def test_invalid_ratio_rejected(self):
        doc = AnnotatedDocument("d", "aa", ((0, 2, "entity"),))
        for ratio in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="ratio"):
                mask_spans(doc, ratio)

    def test_deterministic_under_seed(self):
        rng = random.Random(4)
        doc = random_doc(rng, "d3", min_spans=5)
        assert mask_spans(doc, 0.5, seed=8) == mask_spans(doc, 0.5, seed=8)
        assert mask_spans(doc, 0.5, seed=8) != mask_spans(doc, 0.5, seed=9)

    def test_corpus_skips_spanless_docs(self):
        docs = [AnnotatedDocument("empty", "no spans here", ()),
                AnnotatedDocument("ok", "aa bb", ((0, 2, "entity"),))]
        records, diagnostics = mask_corpus(docs, 0.5, seed=0)
        assert [r["doc_id"] for r in records] == ["ok"]
        assert "empty" in diagnostics[0]


class TestAnnotatedDocument:
    @pytest.mark.parametrize("changes, message", [
        ({"doc_id": 5}, "doc_id and text must be strings"),
        ({"text": None}, "doc_id and text must be strings"),
        ({"spans": [[0, 5.9, "entity"]]}, "span offsets must be integers, got (0, 5.9)"),
        ({"spans": [[True, 5, "entity"]]}, "span offsets must be integers, got (True, 5)"),
        ({"spans": [["0", 5, "entity"]]}, "span offsets must be integers, got ('0', 5)"),
    ], ids=["number-doc_id", "null-text", "float-end", "bool-start", "string-start"])
    def test_from_record_checks_types_instead_of_coercing(self, changes, message):
        record = dict({"doc_id": "d1", "text": "Osaka in July 2019", "spans": [[0, 5, "entity"]]}, **changes)
        with pytest.raises(ValueError) as info:
            AnnotatedDocument.from_record(record)
        assert message in str(info.value)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            AnnotatedDocument("d", "abcdef", ((0, 3, "entity"), (2, 5, "entity")))

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError, match="bounds"):
            AnnotatedDocument("d", "abc", ((0, 9, "entity"),))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            AnnotatedDocument("d", "abc", ((0, 2, "date"),))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="overlap or are unsorted"):
            AnnotatedDocument("d", "aa bb cc", ((6, 8, "entity"), (0, 2, "entity")))
