"""CLI behavior: exit codes, provenance metadata, determinism, pipelines."""

import argparse
import json
from pathlib import Path

import pytest

from chronoqa.cli import SUBCOMMANDS, build_parser, main
from chronoqa.facts import build_groups, group_stats, load_fact_file
from chronoqa.jsonl import read_jsonl
from chronoqa.templates import load_templates

from conftest import MONTHS, UNDECODABLE, YOSHIMURA_ROWS, synth_rows, write_facts


def run(*argv) -> int:
    return main(list(argv))


def write_lines(path, lines) -> str:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


# One subject's offices; "..." normalizes to no scoring tokens.
TOKENLESS_OBJECT_ROWS = [dict(YOSHIMURA_ROWS[0], object=obj, object_id=f"O{i}", start=f"Jan {2000 + 4 * i}",
                              end=f"Dec {2003 + 4 * i}")
                         for i, obj in enumerate(["Mayor", "...", "Governor", "Senator"])]


def l2_record(subject_id, qid="q1") -> dict:
    return {"id": qid, "level": "L2", "relation": "P39", "subject": "Aiko Abe", "subject_id": subject_id,
            "template_id": "P39_l2", "question": "Which position did Aiko Abe hold in Jul 2019?",
            "answers": ["Mayor"], "negatives": [], "t_ref": "Jul 2019", "neighbor_object": None,
            "split": "train"}


@pytest.fixture
def facts_file(tmp_path):
    rows = synth_rows(8, relation="P39", facts_per_subject=(3, 6), seed=300)
    rows += synth_rows(5, relation="P54", facts_per_subject=(3, 6), seed=301)
    return write_facts(tmp_path / "facts.jsonl", rows)


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert run() == 1
        assert "E_USAGE" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run("frobnicate") == 1
        assert "E_USAGE" in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self):
        assert run("gen-l1", "--count", "5") == 1

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        assert run("gen-l2", "--facts", str(tmp_path / "absent.jsonl"),
                   "--out-dir", str(tmp_path)) == 2
        assert "E_DATA" in capsys.readouterr().err

    def test_strict_ingest_failure_is_data_error(self, tmp_path):
        path = write_facts(tmp_path / "facts.jsonl",
                           [dict(YOSHIMURA_ROWS[0], relation="P999")])
        assert run("gen-l2", "--facts", path, "--out-dir", str(tmp_path), "--strict") == 2

    def test_strict_names_the_fact_file_and_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_facts("bad.jsonl", [{k: v for k, v in YOSHIMURA_ROWS[0].items() if k != "object_id"}])
        assert run("stats", "--facts", "bad.jsonl", "--strict") == 2
        assert capsys.readouterr().err == \
            "chronoqa: error [E_DATA] bad.jsonl:1: missing or empty field 'object_id'\n"

    @pytest.mark.parametrize("argv", [
        ["gen-l1", "--count", "10", "--dev-count", "-1"],
        ["gen-l1", "--count", "10", "--test-count", "-2"],
        ["gen-l1", "--count", "-10"],
        ["gen-l1", "--count", "10", "--range", "Foo 1000:Dec 2022"],
        ["gen-l1", "--count", "10", "--range", "Jan 1000"],
        ["gen-l1", "--count", "10", "--range", "Dec 2022:Jan 1000"],
        ["gen-l2", "--facts", "absent.jsonl", "--max-subjects", "-1"],
        ["gen-l3", "--facts", "absent.jsonl", "--min-facts", "-1"],
        ["gen-l2", "--facts", "absent.jsonl", "--split-counts", "train:3,train:4"],
        ["gen-l2", "--facts", "absent.jsonl", "--split-counts", "train:-3,test:5"],
        ["gen-l2", "--facts", "absent.jsonl", "--split-counts", "train:abc"],
        ["gen-l3", "--facts", "absent.jsonl", "--split-ratios", "train:0.8,test:0.4"],
        ["gen-l3", "--facts", "absent.jsonl", "--split-ratios", "train:nan"],
        ["gen-l2", "--facts", "absent.jsonl", "--snapshot", "Nov"],
        ["gen-l2", "--facts", "absent.jsonl", "--split-counts", "train:5", "--split-ratios", "train:1.0"],
        ["render", "--questions", "absent.jsonl", "--setting", "closedbook", "--out", "x.jsonl"],
        ["render", "--questions", "absent.jsonl", "--setting", "reasonqa", "--out", "x.jsonl"],
        ["mask", "--docs", "absent.jsonl", "--ratio", "0", "--out", "x.jsonl"],
        ["mask", "--docs", "absent.jsonl", "--sentinel-pattern", "<mask>", "--out", "x.jsonl"],
        ["gen-l2", "--facts", "absent.jsonl", "--split-counts", "train"],
        ["eval", "--questions", "absent.jsonl", "--predictions", "absent.jsonl", "--period-edges", "2000,1990"],
        ["eval", "--questions", "absent.jsonl", "--predictions", "absent.jsonl", "--period-edges", "1900,abc"],
    ], ids=["negative-dev-count", "negative-test-count", "negative-count", "unparseable-range", "one-ended-range",
            "inverted-range",
            "negative-max-subjects", "negative-min-facts", "repeated-split", "negative-split", "non-numeric-split",
            "ratios-above-one", "nan-ratio", "unparseable-snapshot", "both-split-specs", "unknown-setting",
            "reasonqa-without-facts", "zero-mask-ratio", "sentinel-without-k", "split-without-count",
            "decreasing-period-edges", "non-integer-period-edges"])
    def test_bad_flag_value_is_usage_error_before_any_read(self, tmp_path, monkeypatch, capsys, argv):
        # Every input named here is absent, so reading any of them would be E_DATA.
        monkeypatch.chdir(tmp_path)
        if argv[0].startswith("gen-"):
            argv = [*argv, "--out-dir", "out", "--templates", "absent.json"]
        assert run(*argv) == 1
        assert "E_USAGE" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--seed", "3", "gen-l1", "--count", "5"], ["--seed=3", "gen-l1"],
                                      ["--seed", "3"]], ids=["before-subcommand", "joined-value", "no-subcommand"])
    def test_flag_before_the_subcommand_says_where_it_goes(self, capsys, argv):
        assert run(*argv) == 1
        assert "E_USAGE] --seed goes after the subcommand: chronoqa SUBCOMMAND --seed" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run("--version")
        assert excinfo.value.code == 0
        assert "chronoqa" in capsys.readouterr().out

    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run("--help")
        assert excinfo.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        listed = [line.split()[0] for line in lines if line.startswith("    ") and line[4] != " "]
        assert listed == list(SUBCOMMANDS)

    @pytest.mark.parametrize("argv, alone", [
        (["eval", "--help"], True), (["gen-l2", "--facts", "f.jsonl"], True), (["--help", "eval"], False),
        (["--seed", "3", "eval"], False), (["frobnicate"], False), ([], False),
    ])
    def test_a_subcommand_named_first_gets_a_parser_of_its_own(self, argv, alone):
        (subparsers,) = [a for a in build_parser(argv)._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(subparsers.choices) == ([argv[0]] if alone else list(SUBCOMMANDS))

    @pytest.mark.parametrize("command, defaults", [
        ("gen-l1", ["Jan 1000:Dec 2022"]),
        ("gen-l1-future", []),
        ("gen-l2", ["Nov 2022", "2000", "3"]),
        ("gen-l3", ["Nov 2022", "2000", "3"]),
        ("render", ["Nov 2022"]),
        ("mask", ["0.5", "<mask_{k}>"]),
        ("solve", ["Nov 2022"]),
        ("eval", ["1900,1920,1940,1960,1980,2000,2020,2040", "zero"]),
        ("reward", []),
        ("stats", ["Nov 2022", "2000", "3"]),
    ])
    def test_subcommand_help_shows_resolved_defaults(self, capsys, command, defaults):
        with pytest.raises(SystemExit) as excinfo:
            run(command, "--help")
        assert excinfo.value.code == 0
        out = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
        assert out.startswith(f"usage: chronoqa {command} [-h] [--seed SEED]")
        assert [default for default in defaults if f"(default: {default})" not in out] == []


class TestGenL1Cli:
    def test_writes_partitions_with_meta(self, tmp_path):
        out = tmp_path / "out"
        assert run("gen-l1", "--out-dir", str(out), "--count", "80", "--dev-count", "10",
                   "--test-count", "10", "--range", "Jan 1900:Dec 1999", "--seed", "5") == 0
        meta, records = read_jsonl(str(out / "l1_train.jsonl"))
        assert len(records) == 80
        assert meta["tool"] == "chronoqa"
        assert meta["seed"] == 5
        assert meta["config_hash"]
        assert meta["render_version"]
        _, dev = read_jsonl(str(out / "l1_dev.jsonl"))
        _, test = read_jsonl(str(out / "l1_test.jsonl"))
        assert len(dev) == 10 and len(test) == 10
        texts = {r["question"] for r in records} | {r["question"] for r in dev} | {r["question"] for r in test}
        assert len(texts) == 100  # unique across splits

    def test_byte_identical_under_same_seed(self, tmp_path):
        for name in ("a", "b"):
            assert run("gen-l1", "--out-dir", str(tmp_path / name), "--count", "50",
                       "--range", "Jan 1950:Dec 1960", "--seed", "9") == 0
        a = (tmp_path / "a" / "l1_train.jsonl").read_bytes()
        b = (tmp_path / "b" / "l1_train.jsonl").read_bytes()
        assert a == b

    def test_a_bare_year_range_end_is_its_december(self, tmp_path):
        # month templates draw every month of the years that year templates draw
        assert run("gen-l1", "--out-dir", str(tmp_path), "--count", "300", "--range", "2000:2001") == 0
        _, records = read_jsonl(str(tmp_path / "l1_train.jsonl"))
        months = {r["t_ref"] for r in records if not r["template_id"].startswith("l1_year")}
        assert months == {f"{month} {year}" for month in MONTHS for year in (2000, 2001)}

    def test_future_set(self, tmp_path):
        assert run("gen-l1-future", "--out-dir", str(tmp_path), "--count", "40", "--seed", "1") == 0
        _, records = read_jsonl(str(tmp_path / "l1_future.jsonl"))
        assert len(records) == 40
        assert all(r["split"] == "future" for r in records)
        years = [int(r["t_ref"].split()[1]) for r in records]
        assert all(2022 <= year <= 2040 for year in years)

    def test_env_var_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHRONOQA_SEED", "9")
        assert run("gen-l1", "--out-dir", str(tmp_path / "env"), "--count", "50",
                   "--range", "Jan 1950:Dec 1960") == 0
        assert run("gen-l1", "--out-dir", str(tmp_path / "flag"), "--count", "50",
                   "--range", "Jan 1950:Dec 1960", "--seed", "9") == 0
        assert (tmp_path / "env" / "l1_train.jsonl").read_bytes() == \
            (tmp_path / "flag" / "l1_train.jsonl").read_bytes()

    def test_env_var_seed_that_is_not_an_integer_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CHRONOQA_SEED", "x")
        assert run("gen-l1", "--out-dir", str(tmp_path / "out"), "--count", "5") == 1
        assert capsys.readouterr().err == "chronoqa: error [E_USAGE] CHRONOQA_SEED must be an integer, got 'x'\n"
        assert not (tmp_path / "out").exists()


class TestGenGroupedCli:
    def test_gen_l2_deterministic_bytes(self, tmp_path, facts_file):
        for name in ("a", "b"):
            assert run("gen-l2", "--facts", facts_file, "--out-dir", str(tmp_path / name),
                       "--seed", "3") == 0
        assert (tmp_path / "a" / "l2_train.jsonl").read_bytes() == \
            (tmp_path / "b" / "l2_train.jsonl").read_bytes()

    def test_split_counts_are_subject_disjoint(self, tmp_path, facts_file):
        assert run("gen-l3", "--facts", facts_file, "--out-dir", str(tmp_path),
                   "--split-counts", "train:6,dev:3,test:3", "--seed", "2") == 0
        subjects = {}
        for name in ("train", "dev", "test"):
            _, records = read_jsonl(str(tmp_path / f"l3_{name}.jsonl"))
            subjects[name] = {r["subject_id"] for r in records}
        assert not subjects["train"] & subjects["dev"]
        assert not subjects["train"] & subjects["test"]
        assert not subjects["dev"] & subjects["test"]

    def test_both_split_specs_rejected(self, tmp_path, facts_file):
        assert run("gen-l2", "--facts", facts_file, "--out-dir", str(tmp_path),
                   "--split-counts", "train:5", "--split-ratios", "train:1.0") == 1


class TestSolveEvalPipeline:
    def test_oracle_round_trip_is_em_100(self, tmp_path, facts_file):
        out = tmp_path
        assert run("gen-l2", "--facts", facts_file, "--out-dir", str(out), "--seed", "4") == 0
        assert run("gen-l3", "--facts", facts_file, "--out-dir", str(out), "--seed", "4") == 0
        for level in ("l2", "l3"):
            questions = str(out / f"{level}_train.jsonl")
            predictions = str(out / f"{level}_preds.jsonl")
            report_path = str(out / f"{level}_report.json")
            assert run("solve", "--questions", questions, "--facts", facts_file,
                       "--out", predictions) == 0
            assert run("eval", "--questions", questions, "--predictions", predictions,
                       "--out", report_path) == 0
            report = json.loads((out / f"{level}_report.json").read_text())["report"]
            assert report["overall"]["em"] == 100.0

    @pytest.mark.parametrize("changes, facts, message", [
        ({}, False, "structured facts are required to solve L2/L3 questions"),
        ({"level": "L3", "template_id": "P39_l3_before", "t_ref": None}, True,
         "L3 question 'q1' has no pivot object"),
        ({"level": "L3", "template_id": "P39_l3", "t_ref": None, "neighbor_object": "Mayor of Osaka"}, True,
         "cannot determine before/after direction of question 'q1'"),
    ], ids=["l2-without-facts", "l3-without-pivot", "l3-without-direction"])
    def test_unsolvable_question_is_a_data_error(self, tmp_path, capsys, changes, facts, message):
        questions = write_lines(tmp_path / "q.jsonl", [json.dumps(dict(l2_record("QY1"), **changes))])
        argv = ["--facts", write_facts(tmp_path / "facts.jsonl", YOSHIMURA_ROWS)] if facts else []
        assert run("solve", "--questions", questions, *argv, "--out", str(tmp_path / "p.jsonl")) == 2
        assert capsys.readouterr().err == f"chronoqa: error [E_DATA] {message}\n"
        assert not (tmp_path / "p.jsonl").exists()

    def test_solve_l1_without_facts(self, tmp_path):
        assert run("gen-l1", "--out-dir", str(tmp_path), "--count", "30",
                   "--range", "Jan 1980:Dec 1990", "--seed", "2") == 0
        questions = str(tmp_path / "l1_train.jsonl")
        predictions = str(tmp_path / "preds.jsonl")
        assert run("solve", "--questions", questions, "--out", predictions) == 0
        _, q_records = read_jsonl(questions)
        _, p_records = read_jsonl(predictions)
        answers = {r["id"]: r["answers"][0] for r in q_records}
        assert all(answers[r["id"]] == r["prediction"] for r in p_records)

    def test_non_ascii_digit_gold_is_scored_as_text(self, tmp_path):
        # '²'.isdigit() is True, so eval took it for a year and int() raised.
        questions = write_lines(tmp_path / "q.jsonl", [json.dumps(dict(l2_record("Q1"), answers=["²"]))])
        predictions = write_lines(tmp_path / "p.jsonl", [json.dumps({"id": "q1", "prediction": "²"})])
        report_path = tmp_path / "report.json"
        assert run("eval", "--questions", questions, "--predictions", predictions,
                   "--out", str(report_path)) == 0
        overall = json.loads(report_path.read_text())["report"]["overall"]
        assert overall["em"] == 100.0 and overall["mae"] is None and overall["numeric_count"] == 0

    def test_eval_refuses_render_version_mismatch(self, tmp_path, facts_file):
        assert run("gen-l2", "--facts", facts_file, "--out-dir", str(tmp_path), "--seed", "4") == 0
        questions = str(tmp_path / "l2_train.jsonl")
        predictions = str(tmp_path / "preds.jsonl")
        assert run("solve", "--questions", questions, "--facts", facts_file,
                   "--out", predictions) == 0
        # tamper with the predictions' recorded render version
        meta, records = read_jsonl(predictions)
        meta["render_version"] = "0.t0"
        with open(predictions, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"_meta": meta}) + "\n")
            for record in records:
                handle.write(json.dumps(record) + "\n")
        assert run("eval", "--questions", questions, "--predictions", predictions) == 2
        assert run("eval", "--questions", questions, "--predictions", predictions, "--force") == 0


    @pytest.mark.parametrize("command", ["eval", "reward"])
    def test_answer_without_scoring_tokens_is_a_data_error(self, tmp_path, capsys, command):
        # "..." normalizes to no tokens, so a missing prediction used to match it: eval reported
        # EM 25.00 for no predictions, and reward gave +1 to that question and -1 to the others.
        # Ingest rejects such an object, so here it reaches a generated question file by hand.
        facts = write_facts(tmp_path / "facts.jsonl", TOKENLESS_OBJECT_ROWS)
        assert run("gen-l2", "--facts", facts, "--out-dir", str(tmp_path), "--seed", "1") == 0
        questions = tmp_path / "l2_train.jsonl"
        lines = questions.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        record["answers"][0] = "..."
        lines[1] = json.dumps(record)
        write_lines(questions, lines)
        predictions = write_lines(tmp_path / "p.jsonl", [])
        out = tmp_path / "out.jsonl"
        assert run(command, "--questions", str(questions), "--predictions", predictions,
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "E_DATA" in err and "question 'l2-train-QY1-P39-" in err and "'...' has no scoring tokens" in err
        assert not out.exists()

    @pytest.mark.parametrize("level", ["l2", "l3"])
    def test_an_object_without_scoring_tokens_is_rejected_at_ingest(self, tmp_path, monkeypatch, capsys, level):
        monkeypatch.chdir(tmp_path)
        write_facts("facts.jsonl", TOKENLESS_OBJECT_ROWS)
        assert run(f"gen-{level}", "--facts", "facts.jsonl", "--out-dir", ".", "--seed", "1") == 0
        assert capsys.readouterr().err == "warning: facts.jsonl: line 2: object has no scoring tokens\n"
        predictions = write_lines(tmp_path / "p.jsonl", [])
        assert run("eval", "--questions", f"{level}_train.jsonl", "--predictions", predictions) == 0


class TestRenderCli:
    def test_reasonqa_render_and_multiset_across_seeds(self, tmp_path, facts_file):
        assert run("gen-l2", "--facts", facts_file, "--out-dir", str(tmp_path), "--seed", "4") == 0
        questions = str(tmp_path / "l2_train.jsonl")
        outputs = {}
        for seed in ("1", "2"):
            out = str(tmp_path / f"rendered_{seed}.jsonl")
            assert run("render", "--questions", questions, "--facts", facts_file,
                       "--setting", "reasonqa", "--seed", seed, "--out", out) == 0
            _, records = read_jsonl(out)
            outputs[seed] = records
        fact_lines = lambda record: sorted(record["prompt"].split("\n")[2:])
        for a, b in zip(outputs["1"], outputs["2"]):
            assert fact_lines(a) == fact_lines(b)
        assert any(a["prompt"] != b["prompt"] for a, b in zip(outputs["1"], outputs["2"]))

    def test_cbqa_prompt_is_question(self, tmp_path, facts_file):
        assert run("gen-l2", "--facts", facts_file, "--out-dir", str(tmp_path), "--seed", "4") == 0
        questions = str(tmp_path / "l2_train.jsonl")
        out = str(tmp_path / "cbqa.jsonl")
        assert run("render", "--questions", questions, "--setting", "cbqa", "--out", out) == 0
        _, q_records = read_jsonl(questions)
        _, rendered = read_jsonl(out)
        for q, r in zip(q_records, rendered):
            assert r["prompt"] == q["question"]
            assert r["target"] == q["answers"][0]

    def test_obqa_requires_articles(self, tmp_path, facts_file):
        assert run("gen-l2", "--facts", facts_file, "--out-dir", str(tmp_path), "--seed", "4") == 0
        questions = str(tmp_path / "l2_train.jsonl")
        assert run("render", "--questions", questions, "--setting", "obqa",
                   "--out", str(tmp_path / "x.jsonl")) == 1
        _, q_records = read_jsonl(questions)
        articles = tmp_path / "articles.jsonl"
        with open(articles, "w", encoding="utf-8") as handle:
            for sid in {r["subject_id"] for r in q_records}:
                handle.write(json.dumps({"subject_id": sid, "text": f"About {sid}."}) + "\n")
        out = str(tmp_path / "obqa.jsonl")
        assert run("render", "--questions", questions, "--setting", "obqa",
                   "--articles", str(articles), "--out", out) == 0
        _, rendered = read_jsonl(out)
        assert all("About " in r["prompt"] for r in rendered)


class TestMaskCli:
    def test_masks_and_reports_skips(self, tmp_path, capsys):
        docs = tmp_path / "docs.jsonl"
        with open(docs, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"doc_id": "d1", "text": "Osaka in July 2019",
                                     "spans": [[0, 5, "entity"], [9, 18, "temporal"]]}) + "\n")
            handle.write(json.dumps({"doc_id": "d2", "text": "nothing", "spans": []}) + "\n")
        out = str(tmp_path / "masked.jsonl")
        assert run("mask", "--docs", str(docs), "--ratio", "0.5", "--seed", "3", "--out", out) == 0
        err = capsys.readouterr().err
        assert "d2" in err
        _, records = read_jsonl(out)
        assert len(records) == 1
        assert records[0]["input"].count("<mask_") == 1


class TestStatsCli:
    def test_fact_and_question_stats(self, tmp_path, facts_file, capsys):
        assert run("gen-l2", "--facts", facts_file, "--out-dir", str(tmp_path), "--seed", "4") == 0
        out = str(tmp_path / "stats.json")
        assert run("stats", "--facts", facts_file, "--questions",
                   str(tmp_path / "l2_train.jsonl"), "--out", out) == 0
        payload = json.loads((tmp_path / "stats.json").read_text())
        facts_stats = payload["facts_file"]
        l2_stats = payload["questions"]["L2/train"]
        # one L2 question per fact, so the two ratios agree
        assert l2_stats["questions"] == facts_stats["facts"]
        assert l2_stats["subjects"] == facts_stats["subjects"]
        assert l2_stats["facts_per_subject"] == facts_stats["facts_per_subject"]

    def test_fact_stats_follow_subject_cap_and_min_facts(self, tmp_path, facts_file):
        out = tmp_path / "stats.json"
        assert run("stats", "--facts", facts_file, "--max-subjects", "3", "--min-facts", "4", "--seed", "2",
                   "--out", str(out)) == 0
        expected = group_stats(build_groups(load_fact_file(facts_file), 2, max_subjects_per_relation=3,
                                            min_facts=4))
        assert json.loads(out.read_text())["facts_file"] == expected
        assert expected["groups"] < group_stats(build_groups(load_fact_file(facts_file)))["groups"]


class TestFileBoundary:
    @pytest.fixture
    def namesake_facts(self, tmp_path):
        """Two subjects, Q1 and Q2, that share the name Aiko Abe."""
        rows = [{"subject": "Aiko Abe", "subject_id": sid, "relation": "P39", "object": obj,
                 "object_id": f"O{sid}{i}", "start": start, "end": end}
                for sid, objects in (("Q1", ("Mayor", "Governor")), ("Q2", ("Senator", "Minister")))
                for i, (obj, start, end) in enumerate(zip(objects, ("Jan 2015", "Jan 2020"),
                                                          ("Dec 2019", "Dec 2021")))]
        return write_facts(tmp_path / "facts.jsonl", rows)

    @pytest.mark.parametrize("subject_id, message", [
        (None, "subject name 'Aiko Abe' is shared by 2 subjects"),
        ("Q999", "no fact group for subject_id 'Q999'"),
    ], ids=["shared-name", "unknown-id"])
    def test_solve_and_render_refuse_unresolved_subjects(self, tmp_path, namesake_facts, capsys,
                                                        subject_id, message):
        questions = write_lines(tmp_path / "q.jsonl", [json.dumps(l2_record(subject_id))])
        out = str(tmp_path / "out.jsonl")
        assert run("solve", "--questions", questions, "--facts", namesake_facts, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert run("render", "--questions", questions, "--facts", namesake_facts,
                   "--setting", "reasonqa", "--out", out) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("subject_id, subject, message", [
        ("Q1", "Aiko Abe", "more than one article for subject_id 'Q1'"),
        (None, "Aiko Abe", "more than one article for subject 'Aiko Abe'"),
    ], ids=["one-id", "one-name-without-id"])
    def test_render_refuses_a_second_article_for_a_subject(self, tmp_path, capsys, subject_id, subject, message):
        questions = write_lines(tmp_path / "q.jsonl", [json.dumps(l2_record(subject_id))])
        articles = write_lines(tmp_path / "a.jsonl", [json.dumps({"subject_id": subject_id, "subject": subject,
                                                                  "text": text}) for text in ("First.", "Second.")])
        out = tmp_path / "out.jsonl"
        assert run("render", "--questions", questions, "--setting", "obqa", "--articles", articles,
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == f"chronoqa: error [E_DATA] {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["solve"], ["render", "--setting", "reasonqa"]], ids=["solve", "render"])
    def test_failure_while_writing_keeps_the_previous_out_file(self, tmp_path, facts_file, capsys, command):
        # Output is written as each record is made, so the unknown subject on
        # the last line fails after earlier records went to the temp file.
        assert run("gen-l2", "--facts", facts_file, "--out-dir", str(tmp_path)) == 0
        questions = tmp_path / "l2_train.jsonl"
        with open(questions, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(l2_record("Q999", "q-last")) + "\n")
        out = tmp_path / "out.jsonl"
        out.write_bytes(b"previous bytes\n")
        assert run(*command, "--questions", str(questions), "--facts", facts_file, "--out", str(out)) == 2
        assert "no fact group for subject_id 'Q999'" in capsys.readouterr().err
        assert out.read_bytes() == b"previous bytes\n"
        assert not list(tmp_path.glob("*.tmp"))

    def test_mid_file_meta_in_fact_file_is_one_warning(self, tmp_path, capsys):
        lines = [json.dumps(row) for row in YOSHIMURA_ROWS]
        lines.insert(2, json.dumps({"_meta": {"seed": 1}}))
        facts = write_lines(tmp_path / "facts.jsonl", lines)
        assert run("stats", "--facts", facts) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
        assert warnings == [f"warning: {facts}: line 3: a _meta header is only allowed on line 1"]

    @pytest.mark.parametrize("bad_line, message", [
        (json.dumps({"_meta": {"seed": 2}}), "a _meta header is only allowed on line 1"),
        (json.dumps(dict(l2_record("Q1", "q2"), answers="Mayor")), "answers must be a non-empty list of strings"),
        (json.dumps(dict(l2_record("Q1", "q2"), t_ref=2019)), "t_ref must be a time string or null"),
        (json.dumps(dict(l2_record("Q1", "q2"), t_ref="")), "expected 'Mon YYYY' or 'YYYY', got ''"),
        (json.dumps(dict(l2_record("Q1", "q2"), neighbor_object=7)), "neighbor_object must be a string or null"),
        (json.dumps(l2_record(["Q1"], "q2")), "subject_id must be a string or null"),
        (json.dumps(dict(l2_record("Q1", "q2"), relation=["P39"])), "relation must be a string or null"),
        (json.dumps(dict(l2_record("Q1", "q2"), subject={"name": "Aiko Abe"})), "subject must be a string or null"),
    ], ids=["mid-file-meta", "string-answers", "number-t_ref", "blank-t_ref", "number-neighbor_object",
            "list-subject_id", "list-relation", "object-subject"])
    def test_bad_question_line_is_named_by_path_and_line(self, tmp_path, capsys, bad_line, message):
        lines = [json.dumps({"_meta": {"seed": 1}}), json.dumps(l2_record("Q1")), "", bad_line]
        questions = write_lines(tmp_path / "q.jsonl", lines)
        assert run("solve", "--questions", questions, "--out", str(tmp_path / "out.jsonl")) == 2
        assert f"{questions}:4: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", UNDECODABLE)
    def test_undecodable_question_line_is_named_by_path_and_line(self, tmp_path, capsys, kind):
        # A deep nest exited 3 with a bare RecursionError; an over-long
        # integer exited 2 with the interpreter's message, naming no line.
        line, message = UNDECODABLE[kind]
        questions = write_lines(tmp_path / "q.jsonl", [json.dumps(l2_record("Q1")), line])
        assert run("solve", "--questions", questions, "--out", str(tmp_path / "out.jsonl")) == 2
        assert capsys.readouterr().err.startswith(f"chronoqa: error [E_DATA] {questions}:2: invalid JSON: {message}")
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("command, bad_file", [("solve", "q"), ("eval", "q"), ("eval", "p")])
    @pytest.mark.parametrize("meta, message", [
        (5, "the _meta header must be an object, got int"),
        (["x"], "the _meta header must be an object, got list"),
        ({"render_version": ["x"]}, "_meta.render_version must be a string"),
        ({"render_version": None}, "_meta.render_version must be a string"),
    ], ids=["number", "list", "list-render_version", "null-render_version"])
    def test_bad_meta_header_is_named_by_path_and_line(self, tmp_path, capsys, command, bad_file, meta, message):
        # A non-object header stopped solve and eval with E_INTERNAL; a list
        # render_version was copied into solve's own header.
        l1_record = {"id": "q1", "level": "L1", "template_id": "l1_year_before",
                     "question": "What is the year 2 years before 2000?", "answers": ["1998"], "t_ref": "2000"}
        questions = [json.dumps(l1_record)]
        predictions = [json.dumps({"id": "q1", "prediction": "1998"})]
        (questions if bad_file == "q" else predictions).insert(0, json.dumps({"_meta": meta}))
        questions = write_lines(tmp_path / "q.jsonl", questions)
        predictions = write_lines(tmp_path / "p.jsonl", predictions)
        out = str(tmp_path / "out.jsonl")
        argv = ["--out", out] if command == "solve" else ["--predictions", predictions]
        assert run(command, "--questions", questions, *argv) == 2
        path = questions if bad_file == "q" else predictions
        assert f"[E_DATA] {path}:1: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()

    def test_non_object_meta_in_fact_file_is_a_malformed_row(self, tmp_path, capsys):
        lines = [json.dumps({"_meta": 5})] + [json.dumps(row) for row in YOSHIMURA_ROWS]
        facts = write_lines(tmp_path / "facts.jsonl", lines)
        assert run("stats", "--facts", facts) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
        assert warnings == [f"warning: {facts}: line 1: the _meta header must be an object, got int"]

    @pytest.mark.parametrize("command, code, named", [
        ("eval", 2, "[E_DATA] {path}:3: "),
        ("stats", 0, "warning: {path}: line 3: "),  # a fact file skips the line, as any other bad line
    ], ids=["eval", "stats"])
    def test_invalid_utf8_is_named_by_path_and_line(self, tmp_path, capsys, command, code, named):
        # The message was the codec's alone: "'utf-8' codec can't decode
        # byte 0xff in position 850", with neither file nor line.
        lines = [json.dumps(row).encode() for row in YOSHIMURA_ROWS] if command == "stats" else [
            json.dumps({"_meta": {"seed": 1}}).encode(), json.dumps(l2_record("Q1")).encode()]
        lines.insert(2, b'{"subject": "Z\xfcrich \xff"}')
        path = tmp_path / "in.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        predictions = write_lines(tmp_path / "p.jsonl", [json.dumps({"id": "q1", "prediction": "Mayor"})])
        argv = (["--facts", str(path)] if command == "stats"
                else ["--questions", str(path), "--predictions", predictions])
        assert run(command, *argv) == code
        assert (named.format(path=path) + "invalid UTF-8: invalid start byte (byte 0xfc at byte 15 of the line)"
                in capsys.readouterr().err)

    def test_unwritable_question_text_leaves_no_file(self, tmp_path, capsys):
        # A lone surrogate is a valid JSON string escape but cannot be
        # written as UTF-8: the write fails after some lines went out.
        rows = synth_rows(3, relation="P39", facts_per_subject=(3, 4), seed=5)
        rows[-1]["object"] = "Mayor \ud800"
        facts = write_facts(tmp_path / "facts.jsonl", rows)
        out = tmp_path / "out"
        assert run("gen-l2", "--facts", facts, "--out-dir", str(out)) == 2
        assert "[E_DATA]" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_mistyped_template_file_is_a_data_error_naming_the_file(self, tmp_path, capsys):
        table = load_templates()
        table = {"l1": [dict(tpl._asdict(), granularity="week") for tpl in table.l1],
                 "relations": {code: rel._asdict() for code, rel in table.relations.items()}}
        templates = write_lines(tmp_path / "t.json", [json.dumps(table)])
        assert run("gen-l1", "--count", "5", "--out-dir", str(tmp_path / "out"), "--templates", templates) == 2
        err = capsys.readouterr().err
        assert f"E_DATA] template file {templates}: 'granularity' in l1 entry 1 must be 'year' or 'month'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("count", [61, 110])
    def test_repeated_l1_template_id_is_a_data_error_naming_the_file(self, tmp_path, capsys, count):
        # With the year entry listed twice, sampling (61) stalled after 200,000
        # draws and enumeration (110) wrote 51 duplicate question texts.
        table = load_templates()
        table = {"l1": [tpl._asdict() for tpl in table.l1 + table.l1[:1]],
                 "relations": {code: rel._asdict() for code, rel in table.relations.items()}}
        templates = write_lines(tmp_path / "t.json", [json.dumps(table)])
        assert run("gen-l1", "--count", str(count), "--range", "Jan 1:Dec 5", "--out-dir", str(tmp_path / "out"),
                   "--templates", templates) == 2
        assert capsys.readouterr().err == (f"chronoqa: error [E_DATA] template file {templates}: 'id' in l1 entry 5 "
                                           "repeats that of l1 entry 1, 'l1_year'\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", UNDECODABLE)
    def test_undecodable_template_file_is_a_data_error_naming_the_file(self, tmp_path, capsys, kind):
        line, message = UNDECODABLE[kind]
        message = "maximum recursion depth exceeded" if kind == "deep" else message  # the decoder's own
        templates = write_lines(tmp_path / "t.json", [line])
        assert run("gen-l1", "--count", "5", "--out-dir", str(tmp_path / "out"), "--templates", templates) == 2
        assert capsys.readouterr().err.startswith(
            f"chronoqa: error [E_DATA] template file {templates} is not valid JSON: {message}")
        assert not (tmp_path / "out").exists()

    def test_l1_text_without_t_is_a_data_error_naming_the_file(self, tmp_path, capsys):
        # Such questions ("What year is 6 years before?") were written, and
        # solve then failed on them with a bare KeyError message.
        table = load_templates()
        table = {"l1": [tpl._asdict() for tpl in table.l1],
                 "relations": {code: rel._asdict() for code, rel in table.relations.items()}}
        table["l1"][0].update(before="What year is <x> years before?", after="What year is <x> years after?")
        templates = write_lines(tmp_path / "t.json", [json.dumps(table)])
        assert run("gen-l1", "--count", "5", "--out-dir", str(tmp_path / "out"), "--templates", templates) == 2
        err = capsys.readouterr().err
        assert f"E_DATA] template file {templates}: 'before' in l1 entry 1 must hold <t> exactly once" in err
        assert not (tmp_path / "out").exists()

    def test_list_article_subject_id_is_named_by_path_and_line(self, tmp_path, capsys):
        questions = write_lines(tmp_path / "q.jsonl", [json.dumps(l2_record("Q1"))])
        articles = write_lines(tmp_path / "a.jsonl", [json.dumps({"subject_id": ["Q1"], "text": "About Q1."})])
        assert run("render", "--questions", questions, "--setting", "obqa", "--articles", articles,
                   "--out", str(tmp_path / "out.jsonl")) == 2
        assert f"{articles}:1: article subject_id must be a string or null" in capsys.readouterr().err

    def test_non_string_article_text_is_named_by_path_and_line(self, tmp_path, capsys):
        questions = write_lines(tmp_path / "q.jsonl", [json.dumps(l2_record("Q1"))])
        articles = write_lines(tmp_path / "art.jsonl", [json.dumps({"subject_id": "Q1", "text": 5})])
        assert run("render", "--questions", questions, "--setting", "obqa", "--articles", articles,
                   "--out", str(tmp_path / "out.jsonl")) == 2
        assert capsys.readouterr().err == \
            f"chronoqa: error [E_DATA] {articles}:1: article text must be a string, got int\n"

    def test_reward_names_the_question_whose_gold_is_a_negative(self, tmp_path, capsys):
        record = dict(l2_record("Q1", "q9"), answers=["Mayor"], negatives=["the mayor"])
        questions = write_lines(tmp_path / "q.jsonl", [json.dumps(record)])
        predictions = write_lines(tmp_path / "p.jsonl", [json.dumps({"id": "q9", "prediction": "Mayor"})])
        out = tmp_path / "out.jsonl"
        assert run("reward", "--questions", questions, "--predictions", predictions, "--out", str(out)) == 2
        assert capsys.readouterr().err == \
            "chronoqa: error [E_DATA] question 'q9': gold answer 'Mayor' also appears in the negative set\n"
        assert not out.exists()

    def test_non_object_prediction_line_is_data_error(self, tmp_path, capsys):
        questions = write_lines(tmp_path / "q.jsonl", [json.dumps(l2_record("Q1"))])
        predictions = write_lines(tmp_path / "p.jsonl", ['["q1", "Mayor"]'])
        assert run("eval", "--questions", questions, "--predictions", predictions) == 2
        assert f"{predictions}:1: expected a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "reward"])
    @pytest.mark.parametrize("question_id, prediction_id, bad_file, message", [
        (None, None, "q", "id must be a string"),
        (7, "7", "q", "id must be a string"),
        ("q1", None, "p", "id must be a string, got NoneType"),
    ], ids=["null-ids", "number-question-id", "null-prediction-id"])
    def test_ids_are_checked_not_coerced(self, tmp_path, capsys, command, question_id, prediction_id,
                                         bad_file, message):
        questions = write_lines(tmp_path / "q.jsonl", [json.dumps(l2_record("Q1", question_id))])
        predictions = write_lines(tmp_path / "p.jsonl", [json.dumps({"id": prediction_id, "prediction": "Mayor"})])
        out = str(tmp_path / "out.jsonl")
        assert run(command, "--questions", questions, "--predictions", predictions, "--out", out) == 2
        path = questions if bad_file == "q" else predictions
        assert f"{path}:1: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("doc, message", [
        ({"doc_id": "d1", "text": "Osaka 2019", "spans": [[0, 5.9, "entity"]]}, "span offsets must be integers"),
        ({"doc_id": 5, "text": "Osaka 2019", "spans": [[0, 5, "entity"]]}, "doc_id and text must be strings"),
    ], ids=["float-span-end", "number-doc_id"])
    def test_mask_checks_document_types(self, tmp_path, capsys, doc, message):
        docs = write_lines(tmp_path / "docs.jsonl", [json.dumps({"doc_id": "d0", "text": "Kyoto", "spans": []}),
                                                    json.dumps(doc)])
        assert run("mask", "--docs", docs, "--out", str(tmp_path / "out.jsonl")) == 2
        err = capsys.readouterr().err
        assert f"{docs}:2: " in err and message in err
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("command", ["eval", "reward"])
    def test_prediction_ids_must_resolve_against_questions(self, tmp_path, capsys, command):
        questions = write_lines(tmp_path / "q.jsonl", [json.dumps(l2_record("Q1"))])
        predictions = write_lines(tmp_path / "p.jsonl", [json.dumps({"id": "renamed", "prediction": "Mayor"})])
        out = ["--out", str(tmp_path / "out.jsonl")] if command == "reward" else []
        assert run(command, "--questions", questions, "--predictions", predictions, *out) == 2
        assert "E_DATA" in capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()


class ReadRecorder(argparse.Namespace):
    """A namespace that records the names of the attributes read from it. The
    record is a slot, not an entry of ``vars()``: ``vars()`` neither holds it
    nor counts as reading a flag."""

    __slots__ = ("_reads",)

    def __init__(self):
        super().__init__()
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def output_meta(argv: list[str]) -> dict:
    """The ``_meta`` of the file a run wrote: its ``--out``, or the first file
    in its ``--out-dir``."""
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1])
    else:
        path = min(Path(argv[argv.index("--out-dir") + 1]).glob("*.jsonl"))
    if path.suffix == ".json":
        return json.loads(path.read_text(encoding="utf-8"))["_meta"]
    return read_jsonl(str(path))[0]


class TestDeclaredFlags:
    @pytest.fixture
    def inputs(self, tmp_path, facts_file, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("gen-l2", "--facts", facts_file, "--out-dir", ".", "--seed", "4") == 0
        assert run("solve", "--questions", "l2_train.jsonl", "--facts", facts_file, "--out", "preds.jsonl") == 0
        meta, records = read_jsonl("preds.jsonl")
        write_lines(tmp_path / "stale_preds.jsonl", [json.dumps({"_meta": dict(meta, render_version="0.t0")}),
                                                     *map(json.dumps, records)])
        write_lines(tmp_path / "docs.jsonl", [json.dumps({"doc_id": "d1", "text": "Osaka in July 2019",
                                                          "spans": [[0, 5, "entity"], [9, 18, "temporal"]]})])
        subject_ids = sorted({record["subject_id"] for record in read_jsonl("l2_train.jsonl")[1]})
        write_lines(tmp_path / "articles.jsonl", [json.dumps({"subject_id": subject_id, "text": "An article."})
                                                  for subject_id in subject_ids])
        return facts_file

    def test_every_subcommand_reads_every_flag_it_declares(self, inputs):
        """Each declared flag is read by some run of its subcommand, and each
        run's ``_meta.config`` holds every declared flag but the output paths
        and the seed."""
        facts = ["--facts", inputs]
        argvs = [
            ["gen-l1", "--out-dir", "l1", "--count", "20", "--dev-count", "3", "--test-count", "2",
             "--range", "Jan 1950:Dec 1960"],
            ["gen-l1-future", "--out-dir", "future", "--count", "10"],
            ["gen-l2", *facts, "--out-dir", "l2", "--split-counts", "train:6,test:3"],
            ["gen-l3", *facts, "--out-dir", "l3", "--split-ratios", "train:0.6,test:0.4"],
            ["render", *facts, "--questions", "l2_train.jsonl", "--setting", "reasonqa", "--out", "r.jsonl"],
            # the one setting that reads --articles
            ["render", "--questions", "l2_train.jsonl", "--setting", "obqa", "--articles", "articles.jsonl",
             "--out", "o.jsonl"],
            ["mask", "--docs", "docs.jsonl", "--out", "m.jsonl"],
            ["solve", *facts, "--questions", "l2_train.jsonl", "--out", "p.jsonl"],
            # mismatched render versions, so that --force is read
            ["eval", "--questions", "l2_train.jsonl", "--predictions", "stale_preds.jsonl", "--force",
             "--out", "e.json"],
            ["reward", "--questions", "l2_train.jsonl", "--predictions", "preds.jsonl", "--out", "w.jsonl"],
            ["stats", *facts, "--questions", "l2_train.jsonl", "--out", "s.json"],
        ]
        assert {argv[0] for argv in argvs} == set(SUBCOMMANDS)
        declared, reads = {}, {}
        for command, *rest in argvs:
            argv = [command, "--seed", "1", *rest]
            args = build_parser(argv).parse_args(argv, namespace=ReadRecorder())
            declared[command] = set(vars(args)) - {"command", "func"}
            args._reads.clear()
            assert args.func(args) == 0, argv
            reads.setdefault(command, set()).update(args._reads)
            assert set(output_meta(argv)["config"]) == declared[command] - {"out", "out_dir", "seed"}, argv
        unread = {command: sorted(declared[command] - reads[command]) for command in declared
                  if declared[command] - reads[command]}
        assert unread == {}

    @pytest.mark.parametrize("argv", [
        ["solve", "--questions", "l2_train.jsonl", "--out", "p.jsonl", "--max-subjects", "5"],
        ["eval", "--questions", "l2_train.jsonl", "--predictions", "preds.jsonl", "--templates", "x"],
    ], ids=["solve-max-subjects", "eval-templates"])
    def test_flags_a_subcommand_does_not_read_are_usage_errors(self, inputs, capsys, argv):
        assert run(*argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


class TestConfigHash:
    """Two runs on the same input files and seed that write different records
    write different config hashes."""

    def test_stats_records_its_group_limits(self, tmp_path, facts_file):
        reports = []
        for name, limits in (("a", []), ("b", ["--max-subjects", "5"])):
            out = tmp_path / f"{name}.json"
            assert run("stats", "--facts", facts_file, *limits, "--out", str(out)) == 0
            reports.append(json.loads(out.read_text(encoding="utf-8")))
        default, capped = reports
        assert default["facts_file"]["groups"] != capped["facts_file"]["groups"]
        assert default["_meta"]["config_hash"] != capped["_meta"]["config_hash"]

    @pytest.mark.parametrize("command", [["solve"], ["render", "--setting", "reasonqa"]], ids=["solve", "render"])
    def test_snapshot_is_recorded(self, tmp_path, command):
        # the subject's last office is ongoing, so the snapshot closes it
        rows = [dict(YOSHIMURA_ROWS[0], subject="Aiko Abe", subject_id="Q1", object=obj, object_id=f"O{i}",
                     start=start, end=end)
                for i, (obj, start, end) in enumerate([("Deputy", "Jan 2000", "Dec 2009"),
                                                       ("Mayor", "Jan 2010", None)])]
        facts = write_facts(tmp_path / "facts.jsonl", rows)
        questions = write_lines(tmp_path / "q.jsonl", [json.dumps(l2_record("Q1"))])
        outputs = []
        for name, snapshot in (("a", []), ("b", ["--snapshot", "Dec 2015"])):
            out = str(tmp_path / f"{name}.jsonl")
            assert run(*command, "--facts", facts, "--questions", questions, *snapshot, "--out", out) == 0
            outputs.append(read_jsonl(out))
        (default_meta, default_records), (snapshot_meta, snapshot_records) = outputs
        assert default_records != snapshot_records
        assert default_meta["config_hash"] != snapshot_meta["config_hash"]
