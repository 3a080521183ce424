"""Golden digests: the sha256 of every artifact of a small seeded pipeline.

The criterion-6 test compares two runs of the same code; this one pins the
bytes themselves, so a change that claims to keep outputs identical (a
speed-up, a refactor) can prove it against the digests recorded before it.
Update a digest only for an intended output change, and say which in the
change's notes.
"""

import hashlib
import json
import random

from chronoqa.cli import main
from chronoqa.jsonl import read_jsonl

from conftest import synth_rows, write_facts

GOLDEN = {
    "eval_l1.json": "010bb16d3209adbd2b13002a778eaff265effd3e8eb71a25332e10596b3683f5",
    "eval_l1_table.txt": "ef16eca75a30e9583bb13a50dd27cc80580cd2351f2ab94501615e4b2a49283e",
    "eval_l2.json": "99a53e66012965d38c43600976914c3b850c96f5508077046501a8bcee15c681",
    "eval_l2_table.txt": "2c2917c3c4c65bbdaf0db7146edda3116df9818380ac90c3c76621248914facf",
    "eval_l3.json": "e0c4f94526738da1c119f57ed81fd396eb3a6c7c1bff7618dd15e792e9dcbccf",
    "eval_l3_table.txt": "551570c17a6d73c97c2b62c2b94a4bfabaf01e9c894b4758df8bcca94f51216c",
    "l1_train.jsonl": "4c58aed77b0c4369653bd5d21b206e5105af253681723d15a4fb3adf8bd03215",
    "l2_test.jsonl": "2f5209fd849cabdbbf7d5e98a50a1b523090f4f342d035801af16768198c0227",
    "l2_train.jsonl": "05bff0d3c0163739f5d65c77ddc191998eec6d5ab7c58dee09296967ec5b2833",
    "l3_test.jsonl": "b266de0a70c2fd2125515a8a8d1705856e3b4ebdc31b7eab673ea427834fea8b",
    "l3_train.jsonl": "c0465128a6613757b6b0fe09d2fd56e7e52229c42a9d9ee19c0b791030d2a28e",
    "render_l2.jsonl": "12b1d295cd20fe9bde4bd846f66398f254aeda61fdf58da2adad00774941e861",
    "reward_l2.jsonl": "7c043c69be20a54fcf114b8eb43cfb34be43e3bdebf0f1e89c61080227835e55",
    "reward_l3.jsonl": "4e6a5ed82d1e626da8a06ea2608b9362ccf75c1fecb882357c93abaa9121819b",
    "solve_l2.jsonl": "cc4adbd6557570d2575526593fe9f8f1e72b9a2cad2da318f897a6289174840e",
    "solve_l3.jsonl": "4b1605d6995bde3ef94d13bda9a3d1d5771b3c54625e8fdcdb4a57cd9857c33c",
    # gen-l1 dev/test, the future set, mask and stats --out
    "l1_splits/l1_dev.jsonl": "ee11ee67c266c17ccd93b5f5eab5565f8f1924648a706f939c082d0a88cc0db9",
    "l1_splits/l1_test.jsonl": "18739fbbbae60dd20aee2f80c655f467ac1a907a4fac6b7f7dac972be04d119f",
    "l1_splits/l1_train.jsonl": "75a69cf9bd7324405d6b3e4dd3d5c8a339c04e1bf6474cf6d518533f06e9e4c6",
    "l1_future.jsonl": "5e8c3092dd64169ce68fefb9575e106bea98a54917fc0888a84adb932a1b38ec",
    "mask.jsonl": "0bd8a7d7bd1443cf2c6ea01900fc6b450a3f43cd8fdfe805040536d7877b9306",
    "stats.json": "1efb83bd3784193174dab631fe7efba43811858d394c2b6783ed7ad05fbcb149",
    # gen-l1 near year 1: enumeration, and sampling into three splits
    "l1_enumerated/l1_train.jsonl": "23388d12cd329afd7383bdfc2d3bdf69ac2df4dac493ed66b19af3471593d537",
    "l1_early/l1_dev.jsonl": "21584d89c418cb2d9482b53df091320c12d69d2ce88d39757ef04b6113f80c8c",
    "l1_early/l1_test.jsonl": "2a2d747fd44033c59e6b082d65e7d39f965b131b12f1a5067f4456ca5c0b55f2",
    "l1_early/l1_train.jsonl": "6932303a6da480a962c8679300e9f84d677e8a0c500c81744a4aaef50963247d",
}


def _facts():
    rows = synth_rows(10, relation="P39", facts_per_subject=(3, 7), seed=700, allow_overlap=True)
    rows += synth_rows(8, relation="P54", facts_per_subject=(3, 6), seed=701, allow_overlap=True)
    # Object texts that only differ by case and punctuation share a key:
    # the L2 answer/negative dedup and the L3 pair and pivot rules see them.
    for index in (2, 30, 45):
        rows[index]["object"] = rows[index - 2]["object"].upper() + "!"
    return rows


def _docs():
    """Annotated documents for ``mask``, one per fact sentence, plus one
    without spans, which ``mask`` skips."""
    docs = []
    for i, row in enumerate(_facts()[:12]):
        pieces = [(row["subject"], "entity"), (" held ", None), (row["object"], "entity"),
                  (" from ", None), (row["start"], "temporal"), (" to ", None), (row["end"], "temporal")]
        text, spans = "", []
        for piece, kind in pieces:
            if kind:
                spans.append([len(text), len(text) + len(piece), kind])
            text += piece
        docs.append({"doc_id": f"d{i}", "text": text + ".", "spans": spans})
    docs.append({"doc_id": "plain", "text": "No spans here.", "spans": []})
    return docs


def _prediction_mix(questions_path, out_path, seed):
    """A labelled mix: gold, its variants, a non-primary gold, a negative,
    a token prefix, unrelated, empty, and missing predictions."""
    rng = random.Random(seed)
    _, questions = read_jsonl(questions_path)
    lines = []
    for question in questions:
        gold = question["answers"][rng.randrange(len(question["answers"]))]
        kind = rng.choice(["gold", "upper", "article", "negative", "prefix", "unrelated", "empty",
                           "missing"])
        if kind == "missing":
            continue
        text = {
            "gold": gold,
            "upper": gold.upper() + ".",
            "article": "The " + gold,
            "negative": rng.choice(question["negatives"]) if question["negatives"] else gold,
            "prefix": gold.split()[0],
            "unrelated": "Something else entirely",
            "empty": "",
        }[kind]
        lines.append(json.dumps({"id": question["id"], "prediction": text}))
    rng.shuffle(lines)
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write("".join(line + "\n" for line in lines))


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _artifact_digests(out) -> dict[str, str]:
    """The digest of every artifact under ``out``; the input caches beside
    the files read are not artifacts."""
    return {path.relative_to(out).as_posix(): _digest(path) for path in out.rglob("*")
            if path.is_file() and not path.name.endswith(".chronoqa-cache")}


def _rerun_over_warm_caches(tmp_path, run) -> dict[str, str]:
    """Delete the artifacts, keep the input caches the first run wrote, and
    run again: the artifacts must come out the same."""
    caches = sorted(path.name for path in tmp_path.rglob("*.chronoqa-cache"))
    assert {"facts.jsonl.chronoqa-cache", "l2_train.jsonl.chronoqa-cache"} <= set(caches)
    for path in (tmp_path / "out").rglob("*"):
        if path.is_file() and not path.name.endswith(".chronoqa-cache"):
            path.unlink()
    run()
    assert sorted(path.name for path in tmp_path.rglob("*.chronoqa-cache")) == caches
    return _artifact_digests(tmp_path / "out")


def test_pipeline_artifacts_match_golden_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # relative paths keep the _meta config stable
    write_facts(tmp_path / "facts.jsonl", _facts())
    (tmp_path / "docs.jsonl").write_text("".join(json.dumps(doc) + "\n" for doc in _docs()))
    fact_flags = ["--facts", "facts.jsonl", "--seed", "11"]
    commands = [
        ["gen-l2", *fact_flags, "--out-dir", "out", "--split-counts", "train:12,test:5"],
        ["gen-l3", *fact_flags, "--out-dir", "out", "--split-counts", "train:12,test:5"],
        ["gen-l1", "--out-dir", "out", "--count", "80", "--seed", "11", "--range", "Jan 1890:Dec 2030"],
        ["render", *fact_flags, "--questions", "out/l2_train.jsonl", "--setting", "reasonqa",
         "--out", "out/render_l2.jsonl"],
        ["gen-l1", "--out-dir", "out/l1_splits", "--count", "40", "--dev-count", "7", "--test-count", "5",
         "--seed", "11", "--range", "Jan 1890:Dec 2030"],
        ["gen-l1-future", "--out-dir", "out", "--count", "30", "--seed", "11"],
        # Enumeration (1,583 of a 3,164 space) and sampling, both skipping
        # results that fall before year 1.
        ["gen-l1", "--out-dir", "out/l1_enumerated", "--count", "1583", "--seed", "11",
         "--range", "Jan 1:Dec 1"],
        ["gen-l1", "--out-dir", "out/l1_early", "--count", "300", "--dev-count", "30", "--test-count", "30",
         "--seed", "11", "--range", "Jan 1:Dec 5"],
        ["mask", "--docs", "docs.jsonl", "--ratio", "0.5", "--seed", "11", "--out", "out/mask.jsonl"],
        ["stats", *fact_flags, "--max-subjects", "7", "--min-facts", "4",
         "--questions", "out/l2_train.jsonl", "out/l3_train.jsonl", "--out", "out/stats.json"],
    ]
    for level in ("l2", "l3"):
        commands.append(["solve", *fact_flags, "--questions", f"out/{level}_train.jsonl",
                         "--out", f"out/solve_{level}.jsonl"])

    def run():
        for command in commands:
            assert main(command) == 0, command
        capsys.readouterr()
        for seed, level in enumerate(("l1", "l2", "l3")):
            _prediction_mix(f"out/{level}_train.jsonl", tmp_path / f"mix_{level}.jsonl", seed)
            questions, predictions = f"out/{level}_train.jsonl", f"mix_{level}.jsonl"
            assert main(["eval", "--questions", questions, "--predictions", predictions,
                         "--out", f"out/eval_{level}.json"]) == 0
            capsys.readouterr()
            assert main(["eval", "--questions", questions, "--predictions", predictions,
                         "--breakdown", "relation"]) == 0
            (tmp_path / "out" / f"eval_{level}_table.txt").write_text(capsys.readouterr().out)
            if level != "l1":
                assert main(["reward", "--questions", questions, "--predictions", predictions,
                             "--out", f"out/reward_{level}.jsonl"]) == 0
        capsys.readouterr()

    run()
    assert _artifact_digests(tmp_path / "out") == GOLDEN
    assert _rerun_over_warm_caches(tmp_path, run) == GOLDEN


# Fact names that every JSON escape rule touches: quotes, backslashes,
# control characters, U+007F, U+2028/2029, non-ASCII and astral text.
_ESCAPED_NAMES = ['Ada "the Count" Lovelace', "C:\\Users\\admin", "Tab\there", "Zürich", "Line\u2028Sep",
                  "Para\u2029Sep \x7f", "Bell\x07 and \x1f", "Emoji \U0001F600 Ω", "Back\\\"slash"]

ESCAPED_GOLDEN = {
    "l2_train.jsonl": "70904c2c273a95092d91834d69023b66b3b46e3e949233f223ac8cf3001bd94c",
    "l3_train.jsonl": "bac0c3e49e29c5973f193ca98c9e05af951b4e9c6c0ee6b7a9950928651d6224",
    "solve_l2.jsonl": "3fa31cdf516f518fa03797a3459e05b98ab97fcccf685fa4ca525d2dc1027a30",
    "solve_l3.jsonl": "6b9b465648ae289fdb06637380fe21e2ceca6dcdb99baee8169fd01ed4748691",
}


def _escaped_facts():
    rows = synth_rows(len(_ESCAPED_NAMES), relation="P39", facts_per_subject=(3, 5), seed=900,
                      allow_overlap=True)
    for row in rows:
        index = int(row["subject_id"].rsplit("-", 1)[1])
        name = _ESCAPED_NAMES[index]
        row["subject"] = name
        row["object"] = f"{row['object']} of {name}"
    return rows


def test_escape_heavy_artifacts_match_golden_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_facts(tmp_path / "facts.jsonl", _escaped_facts())
    fact_flags = ["--facts", "facts.jsonl", "--seed", "13"]

    def run():
        for level in ("l2", "l3"):
            assert main([f"gen-{level}", *fact_flags, "--out-dir", "out"]) == 0
            assert main(["solve", *fact_flags, "--questions", f"out/{level}_train.jsonl",
                         "--out", f"out/solve_{level}.jsonl"]) == 0
        capsys.readouterr()

    run()
    assert _artifact_digests(tmp_path / "out") == ESCAPED_GOLDEN
    assert _rerun_over_warm_caches(tmp_path, run) == ESCAPED_GOLDEN
