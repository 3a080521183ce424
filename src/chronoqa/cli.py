"""Command-line entry point.

Subcommands compose through JSONL files only; there is no hidden state.
Every output file starts with a metadata line recording the tool version,
seed, and a hash of the effective config, so artifacts are traceable and
runs are reproducible byte for byte.

Exit codes: 0 success, 1 usage, 2 data validation, 3 internal.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from . import __version__
from .contexts import (
    DEFAULT_SENTINEL_PATTERN,
    RENDER_FORMAT,
    AnnotatedDocument,
    canonical_setting,
    mask_corpus,
    render,
)
from .facts import (
    DEFAULT_SNAPSHOT,
    MAX_SUBJECTS_PER_RELATION,
    MIN_FACTS_PER_GROUP,
    FactGroup,
    build_groups,
    group_stats,
    load_fact_file,
    split_subjects,
)
from .jsonl import load_jsonl, write_json, write_jsonl
from .oracle import SubjectIndex, index_groups, solve
from .questions import Question, gen_l1, gen_l1_future, gen_l2, gen_l3, partition_l1
from .scoring import (
    DEFAULT_PERIOD_EDGES,
    Prediction,
    evaluate,
    reward_records,
)
from .templates import load_templates
from .timeline import TimePoint, format_time, parse_time

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

SEED_ENV_VAR = "CHRONOQA_SEED"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to our exit codes
        raise UsageError(message)


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _parse_point(text: str) -> TimePoint:
    return parse_time(text.strip())


def _parse_range(text: str) -> tuple[TimePoint, TimePoint]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"range must look like 'Jan 1000:Dec 2022', got {text!r}")
    return _parse_point(parts[0]), _parse_point(parts[1])


def _parse_split_spec(text: str, kind: str) -> dict:
    spec = {}
    for chunk in text.split(","):
        name, _, value = chunk.partition(":")
        name = name.strip()
        if not name or not value:
            raise UsageError(f"split spec must look like 'train:3000,dev:1000', got {text!r}")
        spec[name] = int(value) if kind == "counts" else float(value)
    return spec


def _parse_edges(text: str) -> tuple[int, ...]:
    try:
        edges = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"period edges must be comma-separated integers, got {text!r}") from None
    if len(edges) < 2 or list(edges) != sorted(set(edges)):
        raise UsageError("period edges must be at least two strictly increasing integers")
    return edges


def _config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def _meta(command: str, seed: int, render_version: str, config: dict) -> dict:
    return {
        "tool": "chronoqa",
        "tool_version": __version__,
        "command": command,
        "seed": seed,
        "render_version": render_version,
        "config": config,
        "config_hash": _config_hash(config),
    }


def _render_version(templates) -> str:
    return f"{RENDER_FORMAT}.t{templates.version}"


def _load_groups(args, templates, max_subjects: int, min_facts: int) -> list[FactGroup]:
    store = load_fact_file(
        args.facts,
        snapshot=_parse_point(args.snapshot),
        relation_codes=templates.relation_codes,
        strict=args.strict,
    )
    for diagnostic in store.diagnostics:
        print(f"warning: {args.facts}: {diagnostic}", file=sys.stderr)
    return build_groups(store, args.seed, max_subjects_per_relation=max_subjects, min_facts=min_facts)


def _group_index(args, templates) -> SubjectIndex[FactGroup]:
    # Solving and rendering must see every group a question may reference.
    return index_groups(_load_groups(args, templates, 1 << 60, 1))


def _write_records(path, records, meta: dict, noun: str) -> None:
    count = write_jsonl(str(path), records, meta)
    print(f"wrote {count} {noun} to {path}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_l1(args) -> int:
    templates = load_templates(args.templates)
    time_range = _parse_range(args.range)
    counts = {"train": args.count}
    if args.dev_count:
        counts["dev"] = args.dev_count
    if args.test_count:
        counts["test"] = args.test_count
    total = sum(counts.values())
    pool = gen_l1(time_range, total, args.seed, templates=templates)
    partitions = partition_l1(pool, counts, args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = {"range": args.range, "counts": counts, "templates": args.templates}
    for name, questions in partitions.items():
        meta = _meta("gen-l1", args.seed, _render_version(templates), config)
        _write_records(out_dir / f"l1_{name}.jsonl", (q.to_record() for q in questions), meta, "questions")
    return EXIT_OK


def cmd_gen_l1_future(args) -> int:
    templates = load_templates(args.templates)
    questions = gen_l1_future(args.count, args.seed, templates=templates)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = {"count": args.count, "templates": args.templates}
    meta = _meta("gen-l1-future", args.seed, _render_version(templates), config)
    _write_records(out_dir / "l1_future.jsonl", (q.to_record() for q in questions), meta, "questions")
    return EXIT_OK


def _split_groups(args, groups):
    if args.split_counts and args.split_ratios:
        raise UsageError("give at most one of --split-counts and --split-ratios")
    if args.split_counts:
        return split_subjects(groups, counts=_parse_split_spec(args.split_counts, "counts"), seed=args.seed)
    if args.split_ratios:
        return split_subjects(groups, ratios=_parse_split_spec(args.split_ratios, "ratios"), seed=args.seed)
    return {"train": list(groups)}


def _cmd_gen_grouped(args, level: str, generator) -> int:
    templates = load_templates(args.templates)
    groups = _load_groups(args, templates, args.max_subjects, args.min_facts)
    partitions = _split_groups(args, groups)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = {
        "facts": args.facts,
        "snapshot": args.snapshot,
        "max_subjects": args.max_subjects,
        "min_facts": args.min_facts,
        "split_counts": args.split_counts,
        "split_ratios": args.split_ratios,
        "templates": args.templates,
    }
    for name, part_groups in partitions.items():
        questions = [
            question
            for group in part_groups
            for question in generator(group, args.seed, split=name, templates=templates)
        ]
        meta = _meta(f"gen-{level}", args.seed, _render_version(templates), config)
        _write_records(out_dir / f"{level}_{name}.jsonl", (q.to_record() for q in questions), meta,
                       "questions")
    return EXIT_OK


def cmd_gen_l2(args) -> int:
    return _cmd_gen_grouped(args, "l2", gen_l2)


def cmd_gen_l3(args) -> int:
    return _cmd_gen_grouped(args, "l3", gen_l3)


def _article(record: dict) -> tuple[str | None, str | None, str, None]:
    text = record["text"]
    if not isinstance(text, str):
        raise ValueError(f"article text must be a string, got {type(text).__name__}")
    return record.get("subject_id"), record.get("subject"), text, None


def cmd_render(args) -> int:
    templates = load_templates(args.templates)
    setting = canonical_setting(args.setting)
    meta_in, questions = load_jsonl(args.questions, Question.from_record)

    groups = articles = None
    if setting == "ReasonQA":
        if not args.facts:
            raise UsageError("--facts is required for the ReasonQA setting")
        groups = _group_index(args, templates)
    if setting == "OBQA":
        if not args.articles:
            raise UsageError("--articles is required for the OBQA setting")
        articles = SubjectIndex("article", load_jsonl(args.articles, _article)[1])

    records = []
    for question in questions:
        group = groups.resolve(question, question.relation) if groups is not None else None
        article = articles.resolve(question) if articles is not None else None
        example = render(question, group, article, setting=setting, seed=args.seed, templates=templates)
        records.append(example.to_record())

    render_version = (meta_in or {}).get("render_version", _render_version(templates))
    config = {"questions": args.questions, "setting": setting, "facts": args.facts,
              "articles": args.articles, "templates": args.templates}
    _write_records(args.out, records, _meta("render", args.seed, render_version, config), "rendered examples")
    return EXIT_OK


def cmd_mask(args) -> int:
    _, docs = load_jsonl(args.docs, AnnotatedDocument.from_record)
    masked, diagnostics = mask_corpus(docs, args.ratio, args.seed, args.sentinel_pattern)
    for message in diagnostics:
        print(f"warning: {args.docs}: {message}", file=sys.stderr)
    config = {"docs": args.docs, "ratio": args.ratio, "sentinel_pattern": args.sentinel_pattern}
    count = write_jsonl(args.out, masked, _meta("mask", args.seed, f"{RENDER_FORMAT}", config))
    print(f"wrote {count} masked documents to {args.out} ({len(diagnostics)} skipped)")
    return EXIT_OK


def cmd_solve(args) -> int:
    templates = load_templates(args.templates)
    meta_in, questions = load_jsonl(args.questions, Question.from_record)
    groups = _group_index(args, templates) if args.facts else None
    records = []
    for question in questions:
        answer = solve(question, groups, templates)
        records.append({"id": question.id, "prediction": answer.answers[0] if answer.answers else ""})
    render_version = (meta_in or {}).get("render_version", _render_version(templates))
    config = {"questions": args.questions, "facts": args.facts, "templates": args.templates}
    _write_records(args.out, records, _meta("solve", args.seed, render_version, config), "predictions")
    return EXIT_OK


def _format_metric(value) -> str:
    return "-" if value is None else f"{value:.2f}"


def _print_block(label: str, block) -> None:
    print(f"  {label:<16} {_format_metric(block.em):>7} {_format_metric(block.f1):>7} "
          f"{_format_metric(block.mae):>7} {_format_metric(block.trend_acc):>7} {block.count:>8}")


def cmd_eval(args) -> int:
    meta_q, questions = load_jsonl(args.questions, Question.from_record)
    meta_p, predictions = load_jsonl(args.predictions, Prediction.from_record)
    version_q = (meta_q or {}).get("render_version")
    version_p = (meta_p or {}).get("render_version")
    if version_q and version_p and version_q != version_p and not args.force:
        raise ValueError(f"render version mismatch: questions {version_q!r} vs predictions "
                         f"{version_p!r} (use --force to evaluate anyway)")
    report = evaluate(questions, predictions, period_edges=_parse_edges(args.period_edges),
                      missing_policy=args.missing)

    print(f"  {'bucket':<16} {'EM':>7} {'F1':>7} {'MAE':>7} {'Trend':>7} {'count':>8}")
    _print_block("overall", report.overall)
    breakdown = report.per_period if args.breakdown == "period" else report.per_relation
    for label, block in breakdown.items():
        _print_block(label, block)
    if args.out:
        config = {"questions": args.questions, "predictions": args.predictions,
                  "breakdown": args.breakdown, "period_edges": args.period_edges,
                  "missing": args.missing}
        write_json(args.out, {"_meta": _meta("eval", args.seed, version_q or "", config),
                              "report": report.to_record()})
        print(f"wrote report to {args.out}")
    return EXIT_OK


def cmd_reward(args) -> int:
    meta_q, questions = load_jsonl(args.questions, Question.from_record)
    _, predictions = load_jsonl(args.predictions, Prediction.from_record)
    records = reward_records(questions, predictions)
    config = {"questions": args.questions, "predictions": args.predictions}
    render_version = (meta_q or {}).get("render_version", "")
    count = write_jsonl(args.out, (r.to_record() for r in records),
                        _meta("reward", args.seed, render_version, config))
    values = [r.reward for r in records]
    mean = sum(values) / len(values) if values else 0.0
    positive = sum(1 for v in values if v > 0)
    negative = sum(1 for v in values if v < 0)
    print(f"wrote {count} reward records to {args.out} "
          f"(mean {mean:.3f}, +1s {positive}, -1s {negative}, 0s {count - positive - negative})")
    return EXIT_OK


def cmd_stats(args) -> int:
    payload: dict = {}
    if args.facts:
        templates = load_templates(args.templates)
        groups = _load_groups(args, templates, args.max_subjects, args.min_facts)
        stats = group_stats(groups)
        payload["facts_file"] = stats
        print(f"fact groups: {stats['groups']}  subjects: {stats['subjects']}  "
              f"facts: {stats['facts']}  facts/subjects: {stats['facts_per_subject']}")
        for relation, entry in stats["per_relation"].items():
            print(f"  {relation:<6} groups {entry['groups']:>6}  facts {entry['facts']:>7}")
    question_stats: dict = {}
    for path in args.questions or []:
        _, questions = load_jsonl(path, Question.from_record)
        for question in questions:
            bucket = question_stats.setdefault((question.level, question.split),
                                               {"questions": 0, "subjects": set()})
            bucket["questions"] += 1
            if question.subject_id:
                bucket["subjects"].add(question.subject_id)
    if question_stats:
        print(f"  {'level':<6} {'split':<7} {'questions':>10} {'subjects':>9} {'facts/subjects':>15}")
        payload["questions"] = {}
        for (level, split), bucket in sorted(question_stats.items()):
            subjects = len(bucket["subjects"])
            ratio = round(bucket["questions"] / subjects, 2) if level == "L2" and subjects else None
            print(f"  {level:<6} {split:<7} {bucket['questions']:>10} "
                  f"{subjects if subjects else '-':>9} {ratio if ratio is not None else '-':>15}")
            payload["questions"][f"{level}/{split}"] = {
                "questions": bucket["questions"],
                "subjects": subjects,
                "facts_per_subject": ratio,
            }
    if args.out:
        config = {"facts": args.facts, "questions": args.questions}
        payload["_meta"] = _meta("stats", args.seed, "", config)
        write_json(args.out, payload)
        print(f"wrote stats to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None,
                        help=f"master seed (default: ${SEED_ENV_VAR} or 0)")
    parser.add_argument("--templates", default=None, help="path to a custom template JSON file")


def _add_fact_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--snapshot", default=format_time(DEFAULT_SNAPSHOT),
                        help="KB snapshot month closing ongoing facts (default: %(default)s)")
    parser.add_argument("--strict", action="store_true", help="fail on the first malformed fact row")
    parser.add_argument("--max-subjects", type=int, default=MAX_SUBJECTS_PER_RELATION,
                        help="subject cap per relation (default: %(default)s)")
    parser.add_argument("--min-facts", type=int, default=MIN_FACTS_PER_GROUP,
                        help="minimum facts per surviving group (default: %(default)s)")


def build_parser() -> _Parser:
    parser = _Parser(prog="chronoqa", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"chronoqa {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    p = sub.add_parser("gen-l1", help="generate relative-time questions")
    _add_common(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--count", type=int, required=True, help="train questions")
    p.add_argument("--dev-count", type=int, default=0)
    p.add_argument("--test-count", type=int, default=0)
    p.add_argument("--range", default="Jan 1000:Dec 2022",
                   help="sampling range for the reference time (default: %(default)s)")
    p.set_defaults(func=cmd_gen_l1)

    p = sub.add_parser("gen-l1-future", help="generate the 2022-2040 future test set")
    _add_common(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=cmd_gen_l1_future)

    for level, func in (("l2", cmd_gen_l2), ("l3", cmd_gen_l3)):
        p = sub.add_parser(f"gen-{level}", help=f"generate {level.upper()} questions from a fact file")
        _add_common(p)
        _add_fact_flags(p)
        p.add_argument("--facts", required=True)
        p.add_argument("--out-dir", required=True)
        p.add_argument("--split-counts", default=None, help="e.g. 'train:3000,dev:1000,test:1000'")
        p.add_argument("--split-ratios", default=None, help="e.g. 'train:0.6,dev:0.2,test:0.2'")
        p.set_defaults(func=func)

    p = sub.add_parser("render", help="render prompts for a setting")
    _add_common(p)
    _add_fact_flags(p)
    p.add_argument("--questions", required=True)
    p.add_argument("--setting", required=True, help="cbqa | obqa | reasonqa")
    p.add_argument("--facts", default=None)
    p.add_argument("--articles", default=None, help="JSONL of {subject_id, text} for OBQA")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("mask", help="mask entity/temporal spans in annotated documents")
    _add_common(p)
    p.add_argument("--docs", required=True)
    p.add_argument("--ratio", type=float, default=0.5, help="fraction of spans to mask (default: %(default)s)")
    p.add_argument("--sentinel-pattern", default=DEFAULT_SENTINEL_PATTERN,
                   help="sentinel format containing {k} (default: %(default)s)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("solve", help="answer questions with the symbolic solver")
    _add_common(p)
    _add_fact_flags(p)
    p.add_argument("--questions", required=True)
    p.add_argument("--facts", default=None, help="fact file (required for L2/L3 questions)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eval", help="score predictions against questions")
    _add_common(p)
    p.add_argument("--questions", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--breakdown", choices=("period", "relation"), default="period")
    p.add_argument("--period-edges", default=",".join(str(e) for e in DEFAULT_PERIOD_EDGES),
                   help="bucket edges for the period breakdown (default: %(default)s)")
    p.add_argument("--missing", choices=("zero", "error"), default="zero",
                   help="policy for questions without a prediction (default: %(default)s)")
    p.add_argument("--force", action="store_true", help="evaluate despite a render version mismatch")
    p.add_argument("--out", default=None, help="write the full report as JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("reward", help="compute per-prediction rewards")
    _add_common(p)
    p.add_argument("--questions", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reward)

    p = sub.add_parser("stats", help="dataset statistics for fact and question files")
    _add_common(p)
    _add_fact_flags(p)
    p.add_argument("--facts", default=None)
    p.add_argument("--questions", nargs="*", default=None)
    p.add_argument("--out", default=None, help="write stats as JSON")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError("a subcommand is required (see --help)")
        if args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except UsageError as exc:
        print(f"chronoqa: error [E_USAGE] {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"chronoqa: error [E_DATA] {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # anything unplanned is an internal error
        print(f"chronoqa: error [E_INTERNAL] {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
