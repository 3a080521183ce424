"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria:
  1. solver EM is exactly 100.0 on 5,000 generated L2 and 5,000 L3
     questions, end to end through the CLI, in under 30 s
  2. 400,000 unique L1 questions, every answer re-verified by an
     independent month-index oracle, zero duplicates, under 120 s
  3. reward branch semantics match a brute-force reimplementation on
     10,000 randomized cases of one to three golds, where any gold is correct
  4. hand-computed metric fixtures hold exactly
  5. construction rules: minimum group size, per-relation subject cap,
     subject-disjoint splits, facts/subjects density
  6. generation and rendering are byte-deterministic under a fixed seed;
     reseeding reorders structured-fact prompts but preserves their lines
  7. masking is exact: ceil(ratio * spans) per document and lossless
     reconstruction on 1,000 documents
  8. the three-fact intra-year fixture yields the expected gold,
     negatives, solver answer, and -1 reward for the temporally wrong
     prediction
"""

import json
import math
import os
import random
import string
import time

from chronoqa import (
    Prediction,
    Question,
    TimePoint,
    build_groups,
    evaluate,
    gen_l1,
    ingest,
    mask_spans,
    reward,
    score_em,
    score_f1,
    score_numeric,
    solve_l2,
    split_subjects,
    unmask,
)
from chronoqa.cli import main
from chronoqa.facts import group_stats, load_fact_file
from chronoqa.jsonl import read_jsonl
from chronoqa.rewards import reward_records
from chronoqa.timeline import month_index

from conftest import YOSHIMURA_ROWS, l1_oracle, l2_question_at, month_range, random_doc, synth_rows, write_facts


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def run_cli(*argv) -> int:
    return main(list(argv))


def test_criterion_1_oracle_em_100(tmp_path):
    started = time.perf_counter()
    l2_facts = write_facts(tmp_path / "facts_l2.jsonl",
                           synth_rows(1000, facts_per_subject=(5, 5), seed=500, allow_overlap=True))
    l3_facts = write_facts(tmp_path / "facts_l3.jsonl",
                           synth_rows(625, facts_per_subject=(5, 5), seed=501, subject_prefix="x"))
    ems = {}
    counts = {}
    for level, facts in (("l2", l2_facts), ("l3", l3_facts)):
        assert run_cli(f"gen-{level}", "--facts", facts, "--out-dir", str(tmp_path / level),
                       "--seed", "1") == 0
        questions = str(tmp_path / level / f"{level}_train.jsonl")
        predictions = str(tmp_path / level / "predictions.jsonl")
        report_path = str(tmp_path / level / "report.json")
        assert run_cli("solve", "--questions", questions, "--facts", facts,
                       "--out", predictions) == 0
        assert run_cli("eval", "--questions", questions, "--predictions", predictions,
                       "--out", report_path) == 0
        result = json.loads((tmp_path / level / "report.json").read_text())["report"]
        ems[level] = result["overall"]["em"]
        counts[level] = result["count"]
    elapsed = time.perf_counter() - started
    ok = (ems == {"l2": 100.0, "l3": 100.0}
          and counts == {"l2": 5000, "l3": 5000}
          and elapsed < 30.0)
    report(1, ok, f"EM l2={ems['l2']} l3={ems['l3']} on {counts['l2']}+{counts['l3']} "
                  f"questions in {elapsed:.1f}s (budget 30s)")


def test_criterion_2_l1_scale_and_correctness():
    started = time.perf_counter()
    questions = gen_l1(month_range((1000, 1), (2022, 12)), 400_000, seed=2024)
    seen_keys = set()
    mismatches = 0
    for q in questions:
        answer, key = l1_oracle(q.question)
        if q.answers != (answer,):
            mismatches += 1
        seen_keys.add((q.template_id, key))
    unique_texts = len({q.question for q in questions})
    elapsed = time.perf_counter() - started
    ok = (len(questions) == 400_000 and mismatches == 0
          and unique_texts == 400_000 and len(seen_keys) == 400_000
          and elapsed < 120.0)
    report(2, ok, f"{len(questions)} questions, {mismatches} oracle mismatches, "
                  f"{400_000 - unique_texts} duplicate texts, {elapsed:.1f}s (budget 120s)")


def test_criterion_3_reward_truth_table():
    punct_table = str.maketrans("", "", string.punctuation)

    def bf_norm(text):
        return " ".join(t for t in text.lower().translate(punct_table).split()
                        if t not in ("a", "an", "the"))

    def bf_reward(pred, golds, negatives):
        p = max(1 if bf_norm(pred) == bf_norm(gold) else 0 for gold in golds)
        n = max((1 if bf_norm(pred) == bf_norm(neg) else 0 for neg in negatives), default=0)
        return p if p >= n else -n

    rng = random.Random(31337)
    pool = [f"Office of {a}{i}" for i in range(40) for a in ("North", "South")]
    cases = []
    for i in range(10_000):
        golds = rng.sample(pool, rng.randint(1, 3))
        negatives = rng.sample([c for c in pool if c not in golds], rng.randint(0, 6))
        draw = rng.random()
        if draw < 0.35:
            pred, expected = rng.choice(golds), 1
        elif draw < 0.65 and negatives:
            pred, expected = rng.choice(negatives), -1
        else:
            pred, expected = "entirely unrelated answer", 0
        cases.append((f"q{i}", pred, golds, negatives, expected))
    records = reward_records(
        [Question(qid, "L2", None, None, None, "t", "q?", tuple(golds), tuple(negatives), None, None, "test")
         for qid, _, golds, negatives, _ in cases],
        [Prediction(qid, pred) for qid, pred, _, _, _ in cases])
    disagreements = 0
    branch_failures = 0
    for (_, pred, golds, negatives, expected), record in zip(cases, records):
        single = reward(pred, golds[0], negatives)  # the one-gold form
        if record.reward != bf_reward(pred, golds, negatives) or single.reward != bf_reward(pred, golds[:1], negatives):
            disagreements += 1
        if record.reward not in (-1.0, 0.0, 1.0) or record.reward != expected:
            branch_failures += 1
    ok = disagreements == 0 and branch_failures == 0 and any(len(golds) > 1 for _, _, golds, _, _ in cases)
    report(3, ok, f"10000 randomized cases, {disagreements} brute-force disagreements, "
                  f"{branch_failures} branch-semantics failures")


def test_criterion_4_metric_fixtures():
    failures = []
    f1 = score_f1("Mayor of Osaka", ["Governor of Osaka Prefecture"])
    if abs(f1 - 4 / 7) > 1e-9:
        failures.append(f"F1 fixture {f1} != 4/7")
    if score_em("the governor of osaka prefecture!", ["Governor of Osaka Prefecture"]) != 1:
        failures.append("EM normalization (articles/punctuation/case) failed")
    if score_em("Governor of Osaka Prefecture", ["the governor of osaka prefecture!"]) != 1:
        failures.append("EM normalization is not symmetric")
    if score_em("Mayor of Osaka", ["Governor of Osaka Prefecture"]) != 0:
        failures.append("EM accepted a wrong answer")
    exact = score_numeric("2009", gold_year=2009, ref_year=2010)
    if exact.abs_err != 0 or not exact.trend_correct:
        failures.append("numeric fixture pred=gold=2009 ref=2010 failed")
    same_side = score_numeric("2005", gold_year=2009, ref_year=2010)
    if same_side.abs_err != 4 or not same_side.trend_correct:
        failures.append("numeric fixture pred=2005 failed")
    wrong_side = score_numeric("2012", gold_year=2009, ref_year=2010)
    if wrong_side.abs_err != 3 or wrong_side.trend_correct:
        failures.append("numeric fixture pred=2012 failed")
    report(4, not failures, "; ".join(failures) or "F1=4/7 exact, EM symmetric, MAE/trend fixtures hold")


def test_criterion_5_construction_rules(tmp_path):
    rows = synth_rows(2500, relation="P39", facts_per_subject=(3, 8), seed=600)
    rows += synth_rows(300, relation="P54", facts_per_subject=(3, 8), seed=601, subject_prefix="b")
    rows += synth_rows(60, relation="P108", facts_per_subject=(2, 2), seed=602, subject_prefix="c")
    path = write_facts(tmp_path / "facts.jsonl", rows)
    store = load_fact_file(path)
    groups = build_groups(store, seed=9)

    failures = []
    if any(len(g.facts) < 3 for g in groups):
        failures.append("a surviving group has fewer than 3 facts")
    per_relation_subjects = {}
    for group in groups:
        per_relation_subjects.setdefault(group.relation, set()).add(group.subject_id)
    if any(len(s) > 2000 for s in per_relation_subjects.values()):
        failures.append("a relation exceeds 2000 subjects")
    if len(per_relation_subjects.get("P39", ())) != 2000:
        failures.append("the oversized relation was not capped at exactly 2000")
    if per_relation_subjects.get("P108"):
        failures.append("undersized groups survived filtering")

    parts = split_subjects(groups, counts={"train": 1300, "dev": 500, "test": 500}, seed=9)
    subject_sets = [frozenset(g.subject_id for g in part) for part in parts.values()]
    for i, a in enumerate(subject_sets):
        for b in subject_sets[i + 1:]:
            if a & b:
                failures.append("splits share a subject")

    stats = group_stats(groups)
    recount = sum(len(g.facts) for g in groups) / len({g.subject_id for g in groups})
    if stats["facts_per_subject"] != round(recount, 2):
        failures.append("facts/subjects statistic disagrees with a recount")
    density_note = f"synthetic facts/subjects={stats['facts_per_subject']}"
    if not 5.2 <= stats["facts_per_subject"] <= 5.6:
        failures.append(f"synthetic paper-density store out of band: {stats['facts_per_subject']}")

    released = os.environ.get("CHRONOQA_RELEASED_FACTS")
    if released:
        released_stats = group_stats(build_groups(load_fact_file(released), seed=9))
        density_note += f", released facts/subjects={released_stats['facts_per_subject']}"
        if not 5.2 <= released_stats["facts_per_subject"] <= 5.6:
            failures.append(f"released data out of 5.2-5.6 band: {released_stats['facts_per_subject']}")
    else:
        density_note += ", released-data check skipped (CHRONOQA_RELEASED_FACTS not set)"

    report(5, not failures, "; ".join(failures) or
           f"group size >= 3, cap 2000 enforced, splits disjoint, {density_note}")


def test_criterion_6_determinism(tmp_path):
    facts = write_facts(tmp_path / "facts.jsonl",
                        synth_rows(20, facts_per_subject=(4, 6), seed=700, allow_overlap=True))
    failures = []

    for command, filename in ((["gen-l1", "--count", "500", "--range", "Jan 1900:Dec 2000"],
                               "l1_train.jsonl"),
                              (["gen-l1-future", "--count", "200"], "l1_future.jsonl"),
                              (["gen-l2", "--facts", facts], "l2_train.jsonl"),
                              (["gen-l3", "--facts", facts], "l3_train.jsonl")):
        outputs = []
        for attempt in ("first", "second"):
            out_dir = tmp_path / f"{filename}.{attempt}"
            assert run_cli(*command, "--out-dir", str(out_dir), "--seed", "12") == 0
            outputs.append((out_dir / filename).read_bytes())
        if outputs[0] != outputs[1]:
            failures.append(f"{command[0]} is not byte-deterministic")

    assert run_cli("gen-l2", "--facts", facts, "--out-dir", str(tmp_path / "q"), "--seed", "12") == 0
    questions = str(tmp_path / "q" / "l2_train.jsonl")
    rendered = {}
    for seed in ("21", "21b", "22"):
        out = str(tmp_path / f"rendered_{seed}.jsonl")
        assert run_cli("render", "--questions", questions, "--facts", facts,
                       "--setting", "reasonqa", "--seed", seed.rstrip("b"), "--out", out) == 0
        rendered[seed] = read_jsonl(out)[1]
    if [r["prompt"] for r in rendered["21"]] != [r["prompt"] for r in rendered["21b"]]:
        failures.append("render is not deterministic under a fixed seed")
    lines = lambda record: sorted(record["prompt"].split("\n")[2:])
    if any(lines(a) != lines(b) for a, b in zip(rendered["21"], rendered["22"])):
        failures.append("reseeding changed the fact-line multiset")
    if all(a["prompt"] == b["prompt"] for a, b in zip(rendered["21"], rendered["22"])):
        failures.append("reseeding never changed the fact order")

    report(6, not failures, "; ".join(failures) or
           "gen-l1/gen-l1-future/gen-l2/gen-l3 byte-identical; reseeded render reorders, multiset kept")


def test_criterion_7_masking_exactness():
    rng = random.Random(4096)
    docs = [random_doc(rng, f"doc-{i}", min_spans=1) for i in range(1000)]
    count_failures = 0
    reconstruction_failures = 0
    for doc in docs:
        masked, target = mask_spans(doc, 0.5, seed=77)
        expected = math.ceil(0.5 * len(doc.spans))
        if masked.count("<mask_") != expected or target.count("<mask_") != expected:
            count_failures += 1
        if unmask(masked, target) != doc.text:
            reconstruction_failures += 1
    ok = count_failures == 0 and reconstruction_failures == 0
    report(7, ok, f"1000 documents at ratio 0.5: {count_failures} count deviations, "
                  f"{reconstruction_failures} reconstruction failures")


def test_criterion_8_intra_year_fixture():
    store = ingest(YOSHIMURA_ROWS)
    group = build_groups(store, seed=0)[0]
    t_ref = TimePoint(2019, 7)
    question = l2_question_at(group, t_ref)
    failures = []
    if question.answers[0] != "Governor of Osaka Prefecture":
        failures.append(f"gold is {question.answers[0]!r}")
    if "Mayor of Osaka" not in question.negatives:
        failures.append("negatives do not contain the intra-year distractor")
    solver_answer = solve_l2(group, month_index(t_ref))
    if solver_answer.answers != ("Governor of Osaka Prefecture",):
        failures.append(f"solver answered {solver_answer.answers!r}")
    record = reward("Mayor of Osaka", question.answers[0], list(question.negatives))
    if record.reward != -1.0:
        failures.append(f"reward for the wrong intra-year answer is {record.reward}")
    em_report = evaluate([question], [Prediction(question.id, solver_answer.answers[0])])
    if em_report.overall.em != 100.0:
        failures.append("solver prediction does not evaluate to EM 100")
    report(8, not failures, "; ".join(failures) or
           "gold, negatives, solver answer, and -1 reward all match the fixture")
