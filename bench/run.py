"""chronoqa benchmark: batch workloads run as chains of subcommands.

Run from the root of a chronoqa checkout:

    python3 bench/run.py --workload kb-build --seed 1 --seconds 30 --trace 0

Each subcommand runs in its own ``python -m chronoqa`` process, one at a
time, the way users run the tool. A run generates its inputs from
``--seed``, runs the chain once to check every output against the
benchmark's own oracle and to fix reference sha256 digests, then repeats
the chain for ``--seconds`` seconds. Every repetition must reproduce the
reference digests byte for byte.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the per-layer metrics, from repetitions
run through ``bench/tracer.py``. A full record of the run (input
properties, digests, per-step times, checks, Python version, CPU count)
goes to ``.bench_results/``. Exit code 2 means the checkout has no
chronoqa sources to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks as oracle
import inputs

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
MIN_SETUP_SAMPLES = 9

# Times are reported in calibrated seconds: each measured interval is
# scaled by CALIBRATION_REFERENCE_S over the time the calibration loop took
# right before and after it. A shared machine can change speed by half under
# other tenants' load, for seconds to minutes at a time; the calibration
# runs in this process and never changes with the program, so the scaling
# cancels the machine's speed and keeps the program's.
CALIBRATION_REFERENCE_S = 0.02
_CALIBRATION_RECORD = json.dumps({
    "id": "l2-train-QP39-1-P39-3", "level": "L2", "t_ref": "Jul 2019",
    "question": "Which position did Aiko Abe P39-1 hold in Jul 2019?",
    "answers": ["Royal Council P39 1 3", "City Club P39 1 4"], "negatives": ["Grand Party P39 1 0"],
})

KB_SETUP = """
import sys, time
from chronoqa.facts import build_groups, load_fact_file
from chronoqa.oracle import index_groups
from chronoqa.templates import load_templates
start = time.perf_counter()
templates = load_templates()
store = load_fact_file(sys.argv[1], relation_codes=templates.relation_codes)
index_groups(build_groups(store, int(sys.argv[2]), max_subjects_per_relation=1 << 60, min_facts=1))
print(time.perf_counter() - start)
"""

L1_SETUP = """
import time
from chronoqa.templates import load_templates
start = time.perf_counter()
load_templates().l1_matchers()
print(time.perf_counter() - start)
"""


@dataclass
class Step:
    name: str
    kind: str  # gen | render | mask | solve | eval | reward
    argv: list[str]
    outputs: list[str]


@dataclass
class StepRun:
    wall: float
    rss_kb: int
    code: int
    stderr: str
    trace: dict | None = None
    scale: float = 1.0  # calibration factor, see CALIBRATION_REFERENCE_S

    @property
    def seconds(self) -> float:
        return self.wall * self.scale


@dataclass
class Ledger:
    """Operations attempted and failed: subcommand runs and output checks."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CHRONOQA_SEED", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def calibrate() -> float:
    """Time a fixed slice of work like the program's own: JSON decode and
    encode, and string normalization."""
    start = time.perf_counter()
    for _ in range(1500):
        record = json.loads(_CALIBRATION_RECORD)
        " ".join(token for token in record["question"].lower().split() if token not in ("a", "an", "the"))
        json.dumps(record, sort_keys=True)
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    return CALIBRATION_REFERENCE_S / ((before + after) / 2)


def run_process(argv: list[str], work: Path) -> StepRun:
    """Run one child to completion; time it and read its peak RSS."""
    with open(work / "stdout.log", "wb") as out, open(work / "stderr.log", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=child_env(), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return StepRun(wall, usage.ru_maxrss, proc.returncode, stderr)


def run_step(step: Step, work: Path, traced: bool) -> StepRun:
    if not traced:
        return run_process([sys.executable, "-m", "chronoqa", *step.argv], work)
    summary = work / f"{step.name}.trace.json"
    result = run_process([sys.executable, str(BENCH_DIR / "tracer.py"), str(summary), *step.argv], work)
    if summary.exists():
        with open(summary, encoding="utf-8") as handle:
            result.trace = json.load(handle)
    return result


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """A chain of subcommands over seeded inputs in a work directory."""

    name = ""
    sizes: dict = {}
    setup_script = ""

    def __init__(self, seed: int, work: Path, **sizes):
        self.seed = seed
        self.work = work
        self.sizes = {**type(self).sizes, **sizes}
        self.properties: dict = {}
        self.em_share = 0.0

    def prepare(self, ledger: Ledger) -> None:
        """Write the inputs; runs before any timing."""

    def steps(self) -> list[Step]:
        raise NotImplementedError

    def setup_args(self) -> list[str]:
        return []

    def check(self, runs: dict[str, StepRun]) -> oracle.Checks:
        raise NotImplementedError

    def items(self, step: Step) -> int:
        """Records a step handled, for its throughput."""
        return sum(len(oracle.read_records(self.work / path)) for path in step.outputs)


class KbWorkload(Workload):
    sizes = {"subjects_per_relation": 150, "max_subjects": 140, "train": 1000, "test": 300, "docs": 12000}
    setup_script = KB_SETUP

    def prepare(self, ledger: Ledger) -> None:
        size = self.sizes
        self.facts = inputs.fact_set(self.seed, size["subjects_per_relation"])
        write_text(self.work / "facts.jsonl", self.facts.text)
        self.properties["facts"] = self.facts.properties
        self.properties["facts"]["max_subjects"] = size["max_subjects"]
        self.properties["facts"]["split_counts"] = {"train": size["train"], "test": size["test"]}

    def gen_argv(self, level: str) -> list[str]:
        size = self.sizes
        return [f"gen-{level}", "--facts", "facts.jsonl", "--out-dir", "out",
                "--split-counts", f"train:{size['train']},test:{size['test']}",
                "--max-subjects", str(size["max_subjects"]), "--seed", str(self.seed)]

    def setup_args(self) -> list[str]:
        return [str(self.work / "facts.jsonl"), str(self.seed)]

    def check_generated(self, checks: oracle.Checks) -> dict[str, list[dict]]:
        """Check the L2/L3 splits; returns their records by file stem."""
        facts, size = self.facts.facts, self.sizes
        files = {}
        subjects_by_split = {}
        for split in ("train", "test"):
            files[f"l2_{split}"] = records = oracle.read_records(self.work / f"out/l2_{split}.jsonl")
            subjects_by_split[split] = oracle.check_l2_split(checks, f"gen-l2 {split}", records, facts,
                                                             size[split], 3)
            files[f"l3_{split}"] = records = oracle.read_records(self.work / f"out/l3_{split}.jsonl")
            oracle.check_l3_split(checks, f"gen-l3 {split}", records, facts, subjects_by_split[split])
        train, test = subjects_by_split["train"], subjects_by_split["test"]
        checks.expect("gen-l2: splits are subject-disjoint", not train & test)
        per_relation: dict[str, int] = {}
        for sid in train | test:
            relation = self.facts.subjects[sid][1]
            per_relation[relation] = per_relation.get(relation, 0) + 1
        checks.expect("gen-l2: subject cap per relation holds",
                      max(per_relation.values()) <= size["max_subjects"], str(per_relation))
        return files


class KbBuild(KbWorkload):
    name = "kb-build"

    def prepare(self, ledger: Ledger) -> None:
        super().prepare(ledger)
        self.docs = inputs.doc_set(self.seed, self.sizes["docs"])
        write_text(self.work / "docs.jsonl", self.docs.text)
        self.properties["docs"] = self.docs.properties

    def steps(self) -> list[Step]:
        seed = str(self.seed)
        return [
            Step("gen-l2", "gen", self.gen_argv("l2"), ["out/l2_train.jsonl", "out/l2_test.jsonl"]),
            Step("gen-l3", "gen", self.gen_argv("l3"), ["out/l3_train.jsonl", "out/l3_test.jsonl"]),
            Step("render", "render", ["render", "--questions", "out/l2_train.jsonl", "--setting", "reasonqa",
                                      "--facts", "facts.jsonl", "--seed", seed,
                                      "--out", "out/reasonqa_train.jsonl"], ["out/reasonqa_train.jsonl"]),
            Step("mask", "mask", ["mask", "--docs", "docs.jsonl", "--ratio", "0.5", "--seed", seed,
                                  "--out", "out/masked.jsonl"], ["out/masked.jsonl"]),
        ]

    def items(self, step: Step) -> int:
        return self.sizes["docs"] if step.kind == "mask" else super().items(step)

    def check(self, runs: dict[str, StepRun]) -> oracle.Checks:
        checks = oracle.Checks()
        warnings = sum(line.startswith("warning:") for line in runs["gen-l2"].stderr.splitlines())
        checks.expect("gen-l2: every malformed row is reported", warnings == self.facts.malformed,
                      f"{warnings} warnings, {self.facts.malformed} malformed rows")
        files = self.check_generated(checks)
        rendered = oracle.read_records(self.work / "out/reasonqa_train.jsonl")
        oracle.check_render(checks, "render reasonqa", rendered, files["l2_train"], self.facts.facts,
                            {sid: name for sid, (name, _) in self.facts.subjects.items()})
        masked = oracle.read_records(self.work / "out/masked.jsonl")
        oracle.check_masked(checks, "mask", masked, self.docs.originals, 0.5)
        return checks


class KbScore(KbWorkload):
    name = "kb-score"
    sizes = {**KbWorkload.sizes, "train": 700}

    def prepare(self, ledger: Ledger) -> None:
        super().prepare(ledger)
        (self.work / "out").mkdir()
        for level in ("l2", "l3"):
            run = run_step(Step(f"prepare-gen-{level}", "gen", self.gen_argv(level), []), self.work, False)
            ledger.record(f"prepare gen-{level} exit code", run.code == 0, run.stderr[-500:])
        self.questions = {}
        self.mixes = {}
        gold = total = 0
        for level in ("l2", "l3"):
            questions = oracle.read_records(self.work / f"out/{level}_train.jsonl")
            mix = inputs.prediction_mix(self.seed, questions, level)
            write_text(self.work / f"preds_{level}.jsonl", mix.text)
            self.questions[level], self.mixes[level] = questions, mix
            self.properties[f"predictions_{level}"] = mix.properties
            gold += sum(label == "gold" for label in mix.labels.values())
            total += len(mix.labels)
        self.em_share = gold / total

    def steps(self) -> list[Step]:
        steps = []
        for level in ("l2", "l3"):
            steps.append(Step(f"solve-{level}", "solve",
                              ["solve", "--questions", f"out/{level}_train.jsonl", "--facts", "facts.jsonl",
                               "--seed", str(self.seed), "--out", f"out/solve_{level}.jsonl"],
                              [f"out/solve_{level}.jsonl"]))
        for level in ("l2", "l3"):
            steps.append(Step(f"eval-{level}", "eval",
                              ["eval", "--questions", f"out/{level}_train.jsonl",
                               "--predictions", f"preds_{level}.jsonl", "--out", f"out/eval_{level}.json"],
                              [f"out/eval_{level}.json"]))
        for level in ("l2", "l3"):
            steps.append(Step(f"reward-{level}", "reward",
                              ["reward", "--questions", f"out/{level}_train.jsonl",
                               "--predictions", f"preds_{level}.jsonl", "--out", f"out/reward_{level}.jsonl"],
                              [f"out/reward_{level}.jsonl"]))
        return steps

    def items(self, step: Step) -> int:
        return len(self.questions[step.name.rsplit("-", 1)[1]])

    def check(self, runs: dict[str, StepRun]) -> oracle.Checks:
        checks = oracle.Checks()
        facts = self.facts.facts
        for level in ("l2", "l3"):
            questions, mix = self.questions[level], self.mixes[level]
            solved = oracle.read_records(self.work / f"out/solve_{level}.jsonl")
            oracle.check_predictions(checks, f"solve {level}", questions, solved,
                                     lambda q: oracle.solver_answer(q, facts))
            gold = sum(label == "gold" for label in mix.labels.values())
            oracle.check_eval_report(checks, f"eval {level}", self.work / f"out/eval_{level}.json",
                                     len(questions), gold / len(questions), partial_credit=True)
            rewards = oracle.read_records(self.work / f"out/reward_{level}.jsonl")
            oracle.check_rewards(checks, f"reward {level}", rewards, questions, mix.labels)
        return checks


class L1Time(Workload):
    name = "l1-time"
    sizes = {"train": 12000, "dev": 1000, "test": 1000, "future": 31000}
    setup_script = L1_SETUP

    def prepare(self, ledger: Ledger) -> None:
        self.em_share = 1.0
        self.properties["l1"] = dict(self.sizes, future_space=60116,
                                     future_path="enumeration" if self.sizes["future"] > 30058 else "sampling")

    def steps(self) -> list[Step]:
        size, seed = self.sizes, str(self.seed)
        return [
            Step("gen-l1", "gen", ["gen-l1", "--out-dir", "out", "--count", str(size["train"]),
                                   "--dev-count", str(size["dev"]), "--test-count", str(size["test"]),
                                   "--seed", seed],
                 ["out/l1_train.jsonl", "out/l1_dev.jsonl", "out/l1_test.jsonl"]),
            Step("gen-l1-future", "gen", ["gen-l1-future", "--out-dir", "out", "--count", str(size["future"]),
                                          "--seed", seed], ["out/l1_future.jsonl"]),
            Step("solve-l1", "solve", ["solve", "--questions", "out/l1_train.jsonl", "--seed", seed,
                                       "--out", "out/solve_l1.jsonl"], ["out/solve_l1.jsonl"]),
            Step("eval-l1", "eval", ["eval", "--questions", "out/l1_train.jsonl",
                                     "--predictions", "out/solve_l1.jsonl", "--out", "out/eval_l1.json"],
                 ["out/eval_l1.json"]),
        ]

    def items(self, step: Step) -> int:
        return self.sizes["train"] if step.kind == "eval" else super().items(step)

    def check(self, runs: dict[str, StepRun]) -> oracle.Checks:
        checks = oracle.Checks()
        pool = []
        for split in ("train", "dev", "test"):
            records = oracle.read_records(self.work / f"out/l1_{split}.jsonl")
            oracle.check_l1_file(checks, f"gen-l1 {split}", records, self.sizes[split])
            pool.extend(records)
        checks.expect("gen-l1: question texts are unique", len({q["question"] for q in pool}) == len(pool))
        future = oracle.read_records(self.work / "out/l1_future.jsonl")
        oracle.check_l1_file(checks, "gen-l1-future", future, self.sizes["future"])
        checks.expect("gen-l1-future: question texts are unique",
                      len({q["question"] for q in future}) == len(future))
        checks.all("gen-l1-future: reference times fall in 2022-2040", future,
                   lambda q: 2022 <= int(q["t_ref"].split()[1]) <= 2040)
        train = pool[: self.sizes["train"]]
        solved = oracle.read_records(self.work / "out/solve_l1.jsonl")
        oracle.check_predictions(checks, "solve l1", train, solved, lambda q: q["answers"][0])
        oracle.check_eval_report(checks, "eval l1", self.work / "out/eval_l1.json", len(train), 1.0,
                                 partial_credit=False)
        return checks


WORKLOADS = {cls.name: cls for cls in (KbBuild, KbScore, L1Time)}


# ---------------------------------------------------------------------------
# measurement

@dataclass
class ChainRun:
    runs: dict[str, StepRun]

    @property
    def peak_rss_mb(self) -> float:
        return max(run.rss_kb for run in self.runs.values()) / 1024


def run_chain(workload: Workload, traced: bool, ledger: Ledger, reference: dict | None) -> ChainRun:
    """Run every step once; count exit codes and, against ``reference``,
    the digest of every artifact."""
    runs = {}
    before = calibrate()
    for step in workload.steps():
        run = run_step(step, workload.work, traced)
        after = calibrate()
        run.scale, before = scale(before, after), after
        runs[step.name] = run
        ledger.record(f"{step.name} exit code", run.code == 0, run.stderr[-500:])
        if reference is not None:
            for path in step.outputs:
                target = workload.work / path
                digest = sha256(target) if target.exists() else "missing"
                ledger.record(f"{path} digest", digest == reference[path], f"{digest} != {reference[path]}")
    return ChainRun(runs)


def setup_sample(workload: Workload) -> tuple[float, float]:
    """The program's fixed cost, timed inside a fresh process, and its
    calibration factor."""
    before = calibrate()
    result = subprocess.run([sys.executable, "-c", workload.setup_script, *workload.setup_args()],
                            cwd=workload.work, env=child_env(), capture_output=True, text=True, check=True)
    return float(result.stdout.strip()), scale(before, calibrate())


def repeat_until(deadline: float, run_round) -> None:
    """Run rounds while the next one, if as long as the last, still ends
    by the deadline; always at least one."""
    while True:
        begin = time.perf_counter()
        run_round()
        end = time.perf_counter()
        if end + (end - begin) > deadline:
            return


def step_seconds(chains: list[ChainRun]) -> dict[str, float]:
    """Median calibrated seconds of each step over the chains."""
    return {name: statistics.median(chain.runs[name].seconds for chain in chains) for name in chains[0].runs}


def kind_rates(steps: list[Step], seconds: dict[str, float], items: dict[str, int]) -> dict[str, float]:
    """Items per calibrated second by step kind."""
    done: dict[str, int] = {}
    spent: dict[str, float] = {}
    for step in steps:
        done[step.kind] = done.get(step.kind, 0) + items[step.name]
        spent[step.kind] = spent.get(step.kind, 0.0) + seconds[step.name]
    return {kind: done[kind] / spent[kind] for kind in done}


RATE_METRICS = {"gen": "gen_qps", "render": "render_qps", "mask": "mask_docs_per_s",
                "solve": "solve_qps", "eval": "eval_qps", "reward": "reward_qps"}
SPANNED = ("jsonl.read_jsonl", "jsonl.write_jsonl", "questions.Question.from_record",
           "questions.Question.to_record", "scoring.Prediction.from_record", "facts.load_fact_file",
           "facts.build_groups", "facts.split_subjects", "oracle.index_groups", "oracle.solve",
           "questions.gen_l1", "questions.gen_l2", "questions.gen_l3", "questions.partition_l1",
           "scoring.evaluate", "scoring.reward_records", "contexts.render", "contexts.mask_corpus",
           "templates.load_templates")
COUNTED = ("jsonl.read_jsonl.records", "jsonl.write_jsonl.records", "jsonl.bytes_written",
           "facts.rows_rejected", "facts.duplicates_dropped", "facts.groups", "scoring.normalize.calls",
           "timeline.parse_time.calls", "timeline.format_time.calls", "templates.l1_matchers.calls",
           "oracle.no_valid_answer", "contexts.prompt_bytes")


def layer_metrics(workload: Workload, chain: ChainRun) -> dict[str, float]:
    """Per-layer self time and counts of one traced chain."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    gen_l2_normalize = gen_l2_questions = 0
    for run in chain.runs.values():
        trace = run.trace or {}
        for key, value in trace.get("self_s", {}).items():
            self_s[key] = self_s.get(key, 0.0) + value * run.scale
        for key, value in trace.get("calls", {}).items():
            calls[key] = calls.get(key, 0) + value
        for key, value in trace.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value
        if trace.get("counts", {}).get("questions.gen_l2.questions"):
            gen_l2_normalize += trace["counts"]["scoring.normalize.calls"]
            gen_l2_questions += trace["counts"]["questions.gen_l2.questions"]
    metrics = {f"{name}.s": self_s.get(name, 0.0) for name in SPANNED}
    metrics.update({name: counts.get(name, 0) for name in COUNTED})
    metrics["oracle.solve.calls"] = calls.get("oracle.solve", 0)
    metrics["contexts.render.calls"] = calls.get("contexts.render", 0)
    metrics["scoring.normalize.calls_per_question"] = (
        gen_l2_normalize / gen_l2_questions if gen_l2_questions else 0.0)
    metrics["cli.self_s"] = self_s.get("cli.main", 0.0)
    metrics["scoring.em_share"] = workload.em_share
    return metrics


def median_of(dicts: list[dict]) -> dict:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def measure(workload: Workload, seconds: float, trace: bool, ledger: Ledger, record: dict) -> dict[str, float]:
    steps = workload.steps()
    first = run_chain(workload, False, ledger, None)
    for name, ok, detail in workload.check(first.runs).results:
        ledger.record(name, ok, detail)
    reference = {}
    for step in steps:
        for path in step.outputs:
            target = workload.work / path
            reference[path] = sha256(target) if target.exists() else "missing"
    record["digests"] = reference
    items = {step.name: workload.items(step) if first.runs[step.name].code == 0 else 0 for step in steps}
    record["items"] = items

    # Set-up samples alternate with plain chains, so that both see the same
    # spread of machine load over the measured time.
    setup: list[tuple[float, float]] = []
    plain: list[ChainRun] = []
    traced: list[ChainRun] = []

    def plain_round():
        setup.append(setup_sample(workload))
        plain.append(run_chain(workload, False, ledger, reference))

    start = time.perf_counter()
    repeat_until(start + (seconds / 2 if trace else seconds), plain_round)
    if trace:
        repeat_until(start + seconds, lambda: traced.append(run_chain(workload, True, ledger, reference)))
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(setup_sample(workload))
    record["setup_s_samples"] = setup
    record["iterations"] = {"plain": len(plain), "traced": len(traced)}
    record["step_wall_s"] = {step.name: [c.runs[step.name].wall for c in plain] for step in steps}
    record["step_scale"] = {step.name: [c.runs[step.name].scale for c in plain] for step in steps}
    if ledger.failures:
        return {}

    # Whole-chain figures add up per-step medians, which a single slow step
    # in one chain does not move.
    per_step = step_seconds(plain)
    record["step_seconds"] = per_step
    wall = sum(per_step.values())
    if not trace:
        return {
            "wall_s": wall,
            "setup_s": statistics.median(raw * factor for raw, factor in setup),
            "peak_rss_mb": statistics.median(chain.peak_rss_mb for chain in plain),
            "step_rate_geomean": statistics.geometric_mean(items[name] / per_step[name] for name in per_step),
        }
    metrics = median_of([layer_metrics(workload, chain) for chain in traced])
    rates = kind_rates(steps, per_step, items)
    for kind, name in RATE_METRICS.items():
        metrics[name] = rates.get(kind, 0.0)
    metrics["tracing_overhead_s"] = sum(step_seconds(traced).values()) - wall
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chronoqa" / "__init__.py").is_file():
        print(f"bench: no chronoqa sources under {ROOT / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work)
    ledger = Ledger()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "python": platform.python_version(), "cpu_count": os.cpu_count()}
    try:
        workload.prepare(ledger)
        record["inputs"] = workload.properties
        record["em_share"] = workload.em_share
        metrics = measure(workload, args.seconds, bool(args.trace), ledger, record)
        metrics["failed_ops_share"] = len(ledger.failures) / ledger.attempted
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there

    record["attempted"], record["failed"] = ledger.attempted, len(ledger.failures)
    record["failures"] = ledger.failures
    record["metrics"] = metrics
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    for failure in ledger.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: python {record['python']}, {record['cpu_count']} CPUs, "
          f"{record['iterations']['plain']} plain + {record['iterations']['traced']} traced chains, "
          f"{ledger.attempted} ops, {len(ledger.failures)} failed")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and not ledger.failures:
        raise RuntimeError(f"metrics not produced: {missing}")
    out = {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not ledger.failures, "attempted": ledger.attempted,
                      "failed": len(ledger.failures), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
