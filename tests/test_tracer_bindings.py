"""The benchmark's traced launcher still finds every name it wraps.

``bench/tracer.py`` rebinds module functions (``questions.gen_l1``,
``jsonl.write_jsonl``, ``Question.to_record``, ...) to time them. If one
of them is renamed or folded away, traced benchmark runs fail. This runs
the launcher on small L1 and L2 chains in a fresh interpreter and checks
that the spans of the layers those chains pass through are recorded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import synth_rows, write_facts

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


def traced(tmp_path, *argv) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    summary = tmp_path / "summary.json"
    done = subprocess.run([sys.executable, str(TRACER), str(summary), *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(summary.read_text(encoding="utf-8"))


def test_traced_runs_record_every_layer_they_pass_through(tmp_path):
    write_facts(tmp_path / "facts.jsonl", synth_rows(4, relation="P39", facts_per_subject=(3, 4), seed=5))
    chain = [
        (["gen-l1", "--count", "20", "--dev-count", "4", "--out-dir", "."],
         {"questions.gen_l1", "questions.partition_l1", "questions.Question.to_record", "jsonl.write_jsonl",
          "templates.load_templates"}),
        (["solve", "--questions", "l1_train.jsonl", "--out", "p1.jsonl"],
         {"oracle.solve", "questions.Question.from_record", "jsonl.write_jsonl"}),
        (["gen-l2", "--facts", "facts.jsonl", "--out-dir", "."],
         {"questions.gen_l2", "facts.load_fact_file", "facts.build_groups"}),
        (["solve", "--facts", "facts.jsonl", "--questions", "l2_train.jsonl", "--out", "p2.jsonl"],
         {"oracle.solve", "oracle.index_groups"}),
        (["eval", "--questions", "l2_train.jsonl", "--predictions", "p2.jsonl"],
         {"scoring.evaluate", "scoring.Prediction.from_record"}),
    ]
    for argv, spans in chain:
        summary = traced(tmp_path, *argv)
        assert summary["exit_code"] == 0
        assert spans - set(summary["calls"]) == set(), argv
    assert summary["counts"]["scoring.normalize.calls"] > 0
    summary = traced(tmp_path, "solve", "--questions", "l1_train.jsonl", "--out", "p1.jsonl")
    assert summary["counts"]["templates.l1_matchers.calls"] > 0
    assert summary["counts"]["timeline.parse_time.calls"] > 0
