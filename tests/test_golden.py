"""Golden digests: the sha256 of every artifact of a small seeded pipeline.

The criterion-6 test compares two runs of the same code; this one pins the
bytes themselves, so a change that claims to keep outputs identical (a
speed-up, a refactor) can prove it against the digests recorded before it.
Update a digest only for an intended output change, and say which in the
change's notes.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from chronoqa.cli import main
from chronoqa.jsonl import read_jsonl

from conftest import synth_rows, write_facts

GOLDEN = {
    "eval_l1.json": "1988338cbd832b06b7e1998a91dd35379a7f77bad51e013978d376cde77c2fa5",
    "eval_l1_table.txt": "ef16eca75a30e9583bb13a50dd27cc80580cd2351f2ab94501615e4b2a49283e",
    "eval_l2.json": "a54d903192b601c7fc55ddf0ba0bedcafc2870283c5cbf6343851ca0e1dc0b39",
    "eval_l2_table.txt": "2c2917c3c4c65bbdaf0db7146edda3116df9818380ac90c3c76621248914facf",
    "eval_l3.json": "1a33ec1bda72ea940fcc509248609ffda876c95e8656686e88f42e30c06499fc",
    "eval_l3_table.txt": "551570c17a6d73c97c2b62c2b94a4bfabaf01e9c894b4758df8bcca94f51216c",
    "l1_train.jsonl": "17c363212d08402540c7affc54cca202e87e6b16ec3456bf98e0b1e0d2cc6187",
    "l2_test.jsonl": "ab33d356c88030cfae533e18f65eea3fcf95c1651272aced6efd50eda5bb2a82",
    "l2_train.jsonl": "f846aa6c626cdfb2644a8d5b0a519c1d4d09086fa77bf775b4515763245a18ce",
    "l3_test.jsonl": "648421ab7ded3406691b9efd02c68c9df644aaac5b94019c2191d05a1fc41040",
    "l3_train.jsonl": "9e60f31efe7d3757900f1500df62fb8efa9029f72f3055f4e1c0e678d1400f10",
    "render_l2.jsonl": "435172455514e265c00dea8bbfba5223614ef1160adb513d4b3d7b8d027b9693",
    "reward_l2.jsonl": "0fc2ae473e283d5a48fbd445e531d6ed7be9002f84d2da43937bdcfcc44ee620",
    "reward_l3.jsonl": "99be4200fa45098e6c04d3c53e78ed96a8c8627a2c9cf533dee7aa6a327f24d4",
    "solve_l2.jsonl": "fd2ec870d555858e42b5a1c7adac0e7c5a801c2d5a5586734725c816fc16b7eb",
    "solve_l3.jsonl": "df7c53fa13f1ee813a63ff7b625b268d56faf833da2167e98a65efffd9e78bca",
    # gen-l1 dev/test, the future set, mask and stats --out
    "l1_splits/l1_dev.jsonl": "b01c954ea38dce19e865555f44c4e3bf73e5ee64614e62b62dd94f0371a06ab6",
    "l1_splits/l1_test.jsonl": "2f053b3aa660514d7b4fa3e255136f474ae47475a6fb17db8d5e00ed4a241787",
    "l1_splits/l1_train.jsonl": "2d1825a32790bb48b113200e65b92ca55e3f85eb52a80dae22b2793ac985cfe4",
    "l1_future.jsonl": "f69c3404344843774fdd2b35b9d37d9f4e3cb42282e1de2374fbb6a28e885c1b",
    "mask.jsonl": "7fd386c6bce166699cc39c56a792a2ab3714bbecd868ddd7a43e9c63a9ab3fb2",
    "stats.json": "c3e3f5699688c04b751b300f4a9fc902ee5d548909f50f38dfda9e1976095c01",
    # gen-l1 near year 1: enumeration, and sampling into three splits
    "l1_enumerated/l1_train.jsonl": "fe018290d59b9d0b64f11fef95d94976555ad440178486cd090084bb7d409d06",
    "l1_early/l1_dev.jsonl": "609e5a454f36503cc937487c7e26242e91d9229847ede4fb62438aa83b7d32e0",
    "l1_early/l1_test.jsonl": "73a963e42450aac7940ce77e76ebb4c55b686dd07a4748534e9b1c2bb05bf08b",
    "l1_early/l1_train.jsonl": "b2e6e28ba7b58fd51ea10eed3f93bdfc07203eb8b18eed3d95610b592cda5dd2",
}


# The chain's L1 generators, which read no file, so any process can run them alone.
L1_COMMANDS = [
    ["gen-l1", "--out-dir", "out", "--count", "80", "--seed", "11", "--range", "Jan 1890:Dec 2030"],
    ["gen-l1", "--out-dir", "out/l1_splits", "--count", "40", "--dev-count", "7", "--test-count", "5",
     "--seed", "11", "--range", "Jan 1890:Dec 2030"],
    ["gen-l1-future", "--out-dir", "out", "--count", "30", "--seed", "11"],
    # Enumeration (1,583 of a 3,164 space) and sampling, both skipping
    # results that fall before year 1.
    ["gen-l1", "--out-dir", "out/l1_enumerated", "--count", "1583", "--seed", "11", "--range", "Jan 1:Dec 1"],
    ["gen-l1", "--out-dir", "out/l1_early", "--count", "300", "--dev-count", "30", "--test-count", "30",
     "--seed", "11", "--range", "Jan 1:Dec 5"],
]


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
        ["render", *fact_flags, "--questions", "out/l2_train.jsonl", "--setting", "reasonqa",
         "--out", "out/render_l2.jsonl"],
        *L1_COMMANDS,
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


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_l1_generators_write_the_golden_bytes_from_their_own_process(tmp_path, hash_seed):
    """Each L1 generator of the chain, run as a ``python -m chronoqa`` child
    under a fixed string-hash seed, writes the golden bytes."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for argv in L1_COMMANDS:
        subprocess.run([sys.executable, "-m", "chronoqa", *argv], cwd=tmp_path, env=env, check=True,
                       capture_output=True, timeout=120)
    assert _artifact_digests(tmp_path / "out") == {name: digest for name, digest in GOLDEN.items()
                                                   if name.startswith("l1_")}


# Fact names that every JSON escape rule touches: quotes, backslashes,
# control characters, U+007F, U+2028/2029, non-ASCII and astral text.
_ESCAPED_NAMES = ['Ada "the Count" Lovelace', "C:\\Users\\admin", "Tab\there", "Zürich", "Line\u2028Sep",
                  "Para\u2029Sep \x7f", "Bell\x07 and \x1f", "Emoji \U0001F600 Ω", "Back\\\"slash"]

ESCAPED_GOLDEN = {
    "l2_train.jsonl": "b1e2195a7ca5684fb3f0aedaaf789372b96a17d231e90d6a4aae46b45341680e",
    "l3_train.jsonl": "cf19acd850e13ea06436a9b1b079fdbd3ae9e8a00bb8f138f54a645f58679583",
    "solve_l2.jsonl": "07b1c9dde4f95129934e4a23bf334233bad59e39aecae841476617cb18f72d0b",
    "solve_l3.jsonl": "0241c2b91530ff880813b36fc0d78e9081e3572e516e78a5ffd67aec3293c9dc",
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
