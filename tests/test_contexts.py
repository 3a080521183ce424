"""Prompt rendering per setting, and span masking round trips."""

import random
from collections import Counter

import pytest

from chronoqa import AnnotatedDocument, gen_l2, mask_spans, render, unmask
from chronoqa.cli import main
from chronoqa.contexts import RenderError, mask_corpus
from chronoqa.facts import build_groups, ingest
from chronoqa.templates import load_templates
from chronoqa.timeline import TimePoint, format_time, month_index

from conftest import YOSHIMURA_ROWS, l2_question_at, make_group, random_doc, synth_rows, time_from_month_index


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

    def test_group_lines_are_formatted_once_and_shuffled_per_question(self):
        group = make_group(synth_rows(1, facts_per_subject=(7, 7), seed=202, allow_overlap=True))
        templates = load_templates()
        fresh = [f"{fact.object} from {format_time(time_from_month_index(fact.start))} to "
                 f"{format_time(time_from_month_index(fact.end))}." for fact in group.facts]
        header = f"{group.subject} {templates.relation(group.relation).phrase}:"
        questions = gen_l2(group, seed=5)
        assert len(questions) == 7
        for q in questions + questions[:2]:  # the first two again, after the rest
            lines = list(fresh)
            random.Random(f"3|render|{q.id}").shuffle(lines)
            expected = "\n".join([q.question, header, *lines])
            assert render(q, group, setting="reasonqa", seed=3, templates=templates).prompt == expected
            assert render(q, group, setting="reasonqa", seed=3, templates=templates).prompt == expected
        assert group.lines == tuple(fresh)  # never shuffled in place

    def test_open_ended_fact_renders_snapshot(self):
        rows = [dict(r) for r in YOSHIMURA_ROWS]
        rows[0]["end"] = None
        store = ingest(rows, snapshot=month_index(TimePoint(2022, 11)))
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

    def test_target_must_start_with_a_sentinel(self):
        with pytest.raises(ValueError, match="^target does not start with a sentinel$"):
            unmask("x", "no sentinel")

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


def sentinel_heavy_doc(rng: random.Random, doc_id: str, pattern: str) -> AnnotatedDocument:
    """A short document over ``ab<>[]_m``, digits and spaces, with pieces of
    ``pattern`` and whole sentinels mixed in, and random non-overlapping spans."""
    pieces = [*"ab<>[]_m0123456789 ", *pattern.split("{k}"), pattern.replace("{k}", str(rng.randint(0, 12)))]
    text = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 16)))
    cuts = sorted(rng.sample(range(len(text) + 1), min(len(text) + 1, 2 * rng.randint(1, 3))))
    spans = tuple((start, end, "entity") for start, end in zip(cuts[::2], cuts[1::2]) if start < end)
    return AnnotatedDocument(doc_id, text, spans)


class TestMaskRoundTrip:
    """``mask`` wrote pairs ``unmask`` could not rebuild: a document that
    already held a sentinel had it replaced too, and a pattern such as
    ``{k}`` read the digits beside a sentinel as part of it."""

    @pytest.mark.parametrize("pattern", ["<mask_{k}>", "[[S{k}]]", "<m{k}_>", "_m{k}]", "[{k}]", "m{k}<"])
    def test_every_pair_written_unmasks_to_its_document(self, pattern):
        rng = random.Random(f"round-trip|{pattern}")
        docs = [sentinel_heavy_doc(rng, f"d{i}", pattern) for i in range(3000)]
        records, diagnostics = mask_corpus(docs, 0.5, seed=5, sentinel_pattern=pattern)
        texts = {doc.doc_id: doc.text for doc in docs}
        for record in records:
            assert unmask(record["input"], record["target"], pattern) == texts[record["doc_id"]], record
        assert len(records) + len(diagnostics) == len(docs) and len(records) > 1000
        assert sum("shaped like a sentinel" in message for message in diagnostics) > 100

    def test_a_document_holding_a_sentinel_is_skipped(self):
        doc = AnnotatedDocument("d", "See <mask_0> in Osaka", ((16, 21, "entity"),))
        with pytest.raises(ValueError, match="shaped like a sentinel"):
            mask_spans(doc, 1.0)
        records, diagnostics = mask_corpus([doc, AnnotatedDocument("e", "in Osaka", ((3, 8, "entity"),))], 1.0)
        assert [record["doc_id"] for record in records] == ["e"]
        assert diagnostics == ["document 'd' already holds text shaped like a sentinel; skipped"]
        doc = AnnotatedDocument("d", "See <mask_> <mask_x> in Osaka", ((24, 29, "entity"),))
        assert unmask(*mask_spans(doc, 1.0)) == doc.text  # no digits: not a sentinel

    @pytest.mark.parametrize("pattern", ["{k}", "{k}>", "<{k}", "<{k}0>", "0<{k}>", "<{k}<", "a{k}a", "__{k}__"])
    def test_a_pattern_whose_sentinels_run_into_their_text_is_refused(self, tmp_path, monkeypatch, capsys,
                                                                      pattern):
        doc = AnnotatedDocument("d", "Born in 1990 in Osaka", ((16, 21, "entity"),))
        with pytest.raises(ValueError, match="sentinel pattern"):
            mask_spans(doc, 1.0, sentinel_pattern=pattern)
        monkeypatch.chdir(tmp_path)
        assert main(["mask", "--docs", "absent.jsonl", "--sentinel-pattern", pattern, "--out", "x.jsonl"]) == 1
        assert "E_USAGE" in capsys.readouterr().err


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


class TestNoDrawShortcuts:
    """Masking every span and rendering a one-line group seed no generator;
    the output is what the seeded path gives."""

    @staticmethod
    def seeded_mask(doc, ratio, seed):
        span_count = len(doc.spans)
        masked_count = -(-int(round(ratio * 100)) * span_count // 100)
        chosen = sorted(random.Random(f"{seed}|mask|{doc.doc_id}").sample(range(span_count), masked_count))
        masked, target, cursor = [], [], 0
        for rank, index in enumerate(chosen):
            start, end, _ = doc.spans[index]
            masked += (doc.text[cursor:start], f"<mask_{rank}>")
            target += (f"<mask_{rank}>", doc.text[start:end])
            cursor = end
        return "".join(masked) + doc.text[cursor:], "".join(target)

    @pytest.mark.parametrize("span_count", range(1, 9))
    @pytest.mark.parametrize("ratio", [0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
    def test_mask_matches_the_seeded_path(self, span_count, ratio):
        doc = AnnotatedDocument(f"d{span_count}", "ab " * span_count,
                                tuple((3 * i, 3 * i + 2, "entity") for i in range(span_count)))
        for seed in range(4):
            assert mask_spans(doc, ratio, seed=seed) == self.seeded_mask(doc, ratio, seed)

    @pytest.mark.parametrize("fact_count", range(1, 9))
    def test_render_matches_the_seeded_path(self, fact_count):
        rows = synth_rows(1, facts_per_subject=(fact_count, fact_count), seed=300 + fact_count)
        group = build_groups(ingest(rows), seed=0, min_facts=1)[0]
        templates = load_templates()
        header = f"{group.subject} {templates.relation(group.relation).phrase}:"
        for q in gen_l2(group, seed=1):
            for seed in range(3):
                lines = list(group.lines)
                random.Random(f"{seed}|render|{q.id}").shuffle(lines)
                expected = "\n".join([q.question, header, *lines])
                assert render(q, group, setting="reasonqa", seed=seed).prompt == expected
