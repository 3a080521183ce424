"""Command-line entry point.

Subcommands compose through JSONL files only; there is no hidden state.
Every output file starts with a metadata line recording the tool version,
seed, and a hash of the effective config, so artifacts are traceable and
runs are reproducible byte for byte.

Exit codes: 0 success, 1 usage, 2 data validation, 3 internal.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import sys
from functools import partial
from typing import TYPE_CHECKING

from . import __version__
from .jsonl import dumps, load_jsonl, write_json, write_jsonl

if TYPE_CHECKING:  # each handler imports the modules it runs
    from .facts import FactGroup
    from .timeline import TimePoint

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
    from .timeline import parse_time
    return parse_time(text.strip())


def _parse_range(text: str) -> tuple[TimePoint, TimePoint]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"range must look like 'Jan 1000:Dec 2022', got {text!r}")
    return _parse_point(parts[0]), _parse_point(parts[1])


def _parse_split_spec(text: str, number: type = int) -> dict:
    spec: dict = {}
    for chunk in text.split(","):
        name, _, raw = chunk.partition(":")
        name = name.strip()
        if not name or not raw:
            raise ValueError(f"split spec must look like 'train:3000,dev:1000', got {text!r}")
        if name in spec:
            raise ValueError(f"split {name!r} is given twice in {text!r}")
        try:
            spec[name] = number(raw)
        except ValueError:
            spec[name] = -1
        if not spec[name] >= 0:  # also rejects nan
            raise ValueError(f"split {name!r} needs a non-negative number, got {raw!r}")
    if number is float and sum(spec.values()) > 1.0 + 1e-9:
        raise ValueError(f"split ratios must sum to at most 1, got {text!r}")
    return spec


def _parse_edges(text: str) -> tuple[int, ...]:
    try:
        edges = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"period edges must be comma-separated integers, got {text!r}") from None
    if len(edges) < 2 or list(edges) != sorted(set(edges)):
        raise ValueError("period edges must be at least two strictly increasing integers")
    return edges


def _parse_count(text: str) -> int:
    if int(text) < 0:
        raise ValueError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _parse_ratio(text: str) -> float:
    if not 0 < float(text) <= 1:  # also rejects nan
        raise ValueError(f"expected a number in (0, 1], got {text!r}")
    return float(text)


def _flag_type(parse, keep_text: bool = False):
    """An argparse type from ``parse``: its ValueError is a usage error raised
    while parsing, before any file is read. With ``keep_text`` the flag holds
    the text as typed, which ``_meta.config`` records; the command parses it
    again."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return text if keep_text else value
    return convert


def _config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def _meta(args, render_version: str, config: dict) -> dict:
    return {
        "tool": "chronoqa",
        "tool_version": __version__,
        "command": args.command,
        "seed": args.seed,
        "render_version": render_version,
        "config": config,
        "config_hash": _config_hash(config),
    }


def _load_groups(args, templates, max_subjects: int = 1 << 60, min_facts: int = 1) -> list[FactGroup]:
    """The fact file's groups. The defaults keep every group: solving and
    rendering must see every group a question may reference."""
    from .facts import build_groups, load_fact_file
    store = load_fact_file(args.facts, snapshot=_parse_point(args.snapshot),
                           relation_codes=templates.relation_codes, strict=args.strict)
    for diagnostic in store.diagnostics:
        print(f"warning: {args.facts}: {diagnostic}", file=sys.stderr)
    return build_groups(store, args.seed, max_subjects_per_relation=max_subjects, min_facts=min_facts)


def _write_records(path, records, meta: dict, noun: str, encode=dumps) -> None:
    count = write_jsonl(str(path), records, meta, encode=encode)
    print(f"wrote {count} {noun} to {path}")


def _write_questions(args, templates, config: dict, level: str, partitions: dict) -> None:
    """Write each split's questions to ``{out_dir}/{level}_{split}.jsonl``."""
    from pathlib import Path

    from .questions import record_line
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = _meta(args, templates.render_version, config)
    for split, questions in partitions.items():
        _write_records(out_dir / f"{level}_{split}.jsonl", (q.to_record() for q in questions), meta,
                       "questions", record_line)


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_l1(args) -> int:
    from .questions import gen_l1, partition_l1
    from .templates import load_templates
    templates = load_templates(args.templates)
    counts = {"train": args.count, "dev": args.dev_count, "test": args.test_count}
    counts = {name: count for name, count in counts.items() if count or name == "train"}
    pool = gen_l1(_parse_range(args.range), sum(counts.values()), args.seed, templates=templates)
    config = {"range": args.range, "counts": counts, "templates": args.templates}
    _write_questions(args, templates, config, "l1", partition_l1(pool, counts, args.seed))
    return EXIT_OK


def cmd_gen_l1_future(args) -> int:
    from .questions import gen_l1_future
    from .templates import load_templates
    templates = load_templates(args.templates)
    questions = gen_l1_future(args.count, args.seed, templates=templates)
    _write_questions(args, templates, {"count": args.count, "templates": args.templates}, "l1",
                     {"future": questions})
    return EXIT_OK


def cmd_gen_grouped(args) -> int:
    """gen-l2 and gen-l3: questions from each fact group, split by subject."""
    if args.split_counts and args.split_ratios:
        raise UsageError("give at most one of --split-counts and --split-ratios")
    from .facts import split_subjects
    from .questions import gen_l2, gen_l3
    from .templates import load_templates
    level = args.command[len("gen-"):]
    generator = partial(gen_l2, seed=args.seed) if level == "l2" else gen_l3
    templates = load_templates(args.templates)
    groups = _load_groups(args, templates, args.max_subjects, args.min_facts)
    if args.split_counts:
        partitions = split_subjects(groups, counts=_parse_split_spec(args.split_counts), seed=args.seed)
    elif args.split_ratios:
        partitions = split_subjects(groups, ratios=_parse_split_spec(args.split_ratios, float), seed=args.seed)
    else:
        partitions = {"train": groups}

    def questions(split: str, part_groups: list[FactGroup]):
        for group in part_groups:
            yield from generator(group, split=split, templates=templates)

    config = {"facts": args.facts, "snapshot": args.snapshot, "max_subjects": args.max_subjects,
              "min_facts": args.min_facts, "split_counts": args.split_counts,
              "split_ratios": args.split_ratios, "templates": args.templates}
    _write_questions(args, templates, config, level,
                     {name: questions(name, part_groups) for name, part_groups in partitions.items()})
    return EXIT_OK


def _article(record: dict) -> tuple[str | None, str | None, str, None]:
    text, subject_id, subject = record["text"], record.get("subject_id"), record.get("subject")
    if not isinstance(text, str):
        raise ValueError(f"article text must be a string, got {type(text).__name__}")
    for name, value in (("subject_id", subject_id), ("subject", subject)):
        if not isinstance(value, (str, type(None))):
            raise ValueError(f"article {name} must be a string or null")
    return subject_id, subject, text, None


def cmd_render(args) -> int:
    setting = args.setting
    if setting == "ReasonQA" and not args.facts:
        raise UsageError("--facts is required for the ReasonQA setting")
    if setting == "OBQA" and not args.articles:
        raise UsageError("--articles is required for the OBQA setting")
    from .contexts import render, rendered_line
    from .oracle import SubjectIndex, index_groups
    from .questions import Question
    from .templates import load_templates
    templates = load_templates(args.templates)
    meta_in, questions = load_jsonl(args.questions, Question.from_record)
    groups = index_groups(_load_groups(args, templates)) if setting == "ReasonQA" else None
    articles = SubjectIndex("article", load_jsonl(args.articles, _article)[1]) if setting == "OBQA" else None

    def examples():
        for question in questions:
            group = groups.resolve(question, question.relation) if groups is not None else None
            article = articles.resolve(question) if articles is not None else None
            yield render(question, group, article, setting=setting, seed=args.seed, templates=templates)

    render_version = (meta_in or {}).get("render_version", templates.render_version)
    config = {"questions": args.questions, "setting": setting, "facts": args.facts,
              "articles": args.articles, "templates": args.templates}
    _write_records(args.out, examples(), _meta(args, render_version, config), "rendered examples", rendered_line)
    return EXIT_OK


def cmd_mask(args) -> int:
    from .contexts import AnnotatedDocument, mask_corpus, masked_line
    from .templates import RENDER_FORMAT
    _, docs = load_jsonl(args.docs, AnnotatedDocument.from_record)
    masked, diagnostics = mask_corpus(docs, args.ratio, args.seed, args.sentinel_pattern)
    for message in diagnostics:
        print(f"warning: {args.docs}: {message}", file=sys.stderr)
    config = {"docs": args.docs, "ratio": args.ratio, "sentinel_pattern": args.sentinel_pattern}
    count = write_jsonl(args.out, masked, _meta(args, str(RENDER_FORMAT), config), masked_line)
    print(f"wrote {count} masked documents to {args.out} ({len(diagnostics)} skipped)")
    return EXIT_OK


def cmd_solve(args) -> int:
    from .oracle import index_groups, solve
    from .questions import Question
    from .scoring import Prediction, prediction_line
    from .templates import load_templates
    templates = load_templates(args.templates)
    meta_in, questions = load_jsonl(args.questions, Question.from_record)
    groups = index_groups(_load_groups(args, templates)) if args.facts else None
    predictions = (Prediction(question.id, (solve(question, groups, templates).answers or ("",))[0])
                   for question in questions)  # the first answer, or "" when there is none
    render_version = (meta_in or {}).get("render_version", templates.render_version)
    config = {"questions": args.questions, "facts": args.facts, "templates": args.templates}
    _write_records(args.out, predictions, _meta(args, render_version, config), "predictions", prediction_line)
    return EXIT_OK


def _format_metric(value) -> str:
    return "-" if value is None else f"{value:.2f}"


def _print_block(label: str, block) -> None:
    print(f"  {label:<16} {_format_metric(block.em):>7} {_format_metric(block.f1):>7} "
          f"{_format_metric(block.mae):>7} {_format_metric(block.trend_acc):>7} {block.count:>8}")


def cmd_eval(args) -> int:
    from .questions import Question
    from .scoring import Prediction, evaluate
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
        write_json(args.out, {"_meta": _meta(args, version_q or "", config), "report": report.to_record()})
        print(f"wrote report to {args.out}")
    return EXIT_OK


def cmd_reward(args) -> int:
    from .questions import Question
    from .scoring import Prediction, reward_line, reward_records
    meta_q, questions = load_jsonl(args.questions, Question.from_record)
    _, predictions = load_jsonl(args.predictions, Prediction.from_record)
    records = reward_records(questions, predictions)
    config = {"questions": args.questions, "predictions": args.predictions}
    render_version = (meta_q or {}).get("render_version", "")
    count = write_jsonl(args.out, records, _meta(args, render_version, config), reward_line)
    values = [r.reward for r in records]
    mean = sum(values) / len(values) if values else 0.0
    positive = sum(1 for v in values if v > 0)
    negative = sum(1 for v in values if v < 0)
    print(f"wrote {count} reward records to {args.out} "
          f"(mean {mean:.3f}, +1s {positive}, -1s {negative}, 0s {count - positive - negative})")
    return EXIT_OK


def cmd_stats(args) -> int:
    from .facts import group_stats
    from .questions import Question
    from .templates import load_templates
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
        payload["_meta"] = _meta(args, "", config)
        write_json(args.out, payload)
        print(f"wrote stats to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser: one declaration per subcommand, listing only the flags it reads

def _flag(*names: str, **kwargs) -> tuple:
    return names, kwargs


_COUNT = _flag_type(_parse_count)
_TEMPLATES = _flag("--templates", help="path to a custom template JSON file")
_QUESTIONS = _flag("--questions", required=True)
_PREDICTIONS = _flag("--predictions", required=True)
_OUT = _flag("--out", required=True)
_OUT_DIR = _flag("--out-dir", required=True)


def _fact_flags(required: bool = False) -> list:
    from .timeline import DEFAULT_SNAPSHOT
    return [
        _flag("--facts", required=required, help="fact file (JSONL quintuplets)"),
        _flag("--snapshot", type=_flag_type(_parse_point, keep_text=True), default=str(DEFAULT_SNAPSHOT),
              help="KB snapshot month closing ongoing facts (default: %(default)s)"),
        _flag("--strict", action="store_true", help="fail on the first malformed fact row"),
    ]


def _group_limits() -> list:
    from .facts import MAX_SUBJECTS_PER_RELATION, MIN_FACTS_PER_GROUP
    return [
        _flag("--max-subjects", type=_COUNT, default=MAX_SUBJECTS_PER_RELATION,
              help="subject cap per relation (default: %(default)s)"),
        _flag("--min-facts", type=_COUNT, default=MIN_FACTS_PER_GROUP,
              help="minimum facts per surviving group (default: %(default)s)"),
    ]


def _gen_grouped_flags() -> list:
    return [
        _TEMPLATES, *_fact_flags(required=True), *_group_limits(), _OUT_DIR,
        _flag("--split-counts", type=_flag_type(_parse_split_spec, keep_text=True),
              help="e.g. 'train:3000,dev:1000,test:1000'"),
        _flag("--split-ratios", type=_flag_type(partial(_parse_split_spec, number=float), keep_text=True),
              help="e.g. 'train:0.6,dev:0.2,test:0.2'"),
    ]


def _render_flags() -> list:
    from .contexts import canonical_setting
    return [
        _TEMPLATES, *_fact_flags(), _QUESTIONS, _OUT,
        _flag("--setting", type=_flag_type(canonical_setting), required=True, help="cbqa | obqa | reasonqa"),
        _flag("--articles", help="JSONL of {subject_id, text} for OBQA"),
    ]


def _mask_flags() -> list:
    from .contexts import DEFAULT_SENTINEL_PATTERN, sentinel_parts
    return [
        _flag("--docs", required=True), _OUT,
        _flag("--ratio", type=_flag_type(_parse_ratio), default=0.5,
              help="fraction of spans to mask (default: %(default)s)"),
        _flag("--sentinel-pattern", type=_flag_type(sentinel_parts, keep_text=True),
              default=DEFAULT_SENTINEL_PATTERN, help="sentinel text containing {k} once (default: %(default)s)"),
    ]


def _eval_flags() -> list:
    from .scoring import DEFAULT_PERIOD_EDGES
    return [
        _QUESTIONS, _PREDICTIONS,
        _flag("--breakdown", choices=("period", "relation"), default="period"),
        _flag("--period-edges", type=_flag_type(_parse_edges, keep_text=True),
              default=",".join(map(str, DEFAULT_PERIOD_EDGES)),
              help="bucket edges for the period breakdown (default: %(default)s)"),
        _flag("--missing", choices=("zero", "error"), default="zero",
              help="policy for questions without a prediction (default: %(default)s)"),
        _flag("--force", action="store_true", help="evaluate despite a render version mismatch"),
        _flag("--out", help="write the full report as JSON"),
    ]


# name: (handler, help, a callable returning the flags); every subcommand also
# takes --seed. A callable imports the modules whose constants its flags take
# as defaults, so build_parser calls only the chosen subcommand's.
SUBCOMMANDS = {
    "gen-l1": (cmd_gen_l1, "generate relative-time questions", lambda: [
        _TEMPLATES, _OUT_DIR,
        _flag("--count", type=_COUNT, required=True, help="train questions"),
        _flag("--dev-count", type=_COUNT, default=0),
        _flag("--test-count", type=_COUNT, default=0),
        _flag("--range", type=_flag_type(_parse_range, keep_text=True), default="Jan 1000:Dec 2022",
              help="sampling range for the reference time (default: %(default)s)"),
    ]),
    "gen-l1-future": (cmd_gen_l1_future, "generate the 2022-2040 future test set",
                      lambda: [_TEMPLATES, _OUT_DIR, _flag("--count", type=_COUNT, required=True)]),
    "gen-l2": (cmd_gen_grouped, "generate L2 questions from a fact file", _gen_grouped_flags),
    "gen-l3": (cmd_gen_grouped, "generate L3 questions from a fact file", _gen_grouped_flags),
    "render": (cmd_render, "render prompts for a setting", _render_flags),
    "mask": (cmd_mask, "mask entity/temporal spans in annotated documents", _mask_flags),
    "solve": (cmd_solve, "answer questions with the symbolic solver",
              lambda: [_TEMPLATES, *_fact_flags(), _QUESTIONS, _OUT]),
    "eval": (cmd_eval, "score predictions against questions", _eval_flags),
    "reward": (cmd_reward, "compute per-prediction rewards", lambda: [_QUESTIONS, _PREDICTIONS, _OUT]),
    "stats": (cmd_stats, "dataset statistics for fact and question files", lambda: [
        _TEMPLATES, *_fact_flags(), *_group_limits(),
        _flag("--questions", nargs="*"),
        _flag("--out", help="write stats as JSON"),
    ]),
}


def build_parser(argv: list[str]) -> _Parser:
    """A parser that lists every subcommand but declares the flags of only
    the one ``argv`` names: its first word not starting with ``-``."""
    chosen = next((word for word in argv if not word.startswith("-")), None)
    parser = _Parser(prog="chronoqa", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"chronoqa {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")
    for name, (func, help_text, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == chosen:
            p.add_argument("--seed", type=int, default=None, help=f"master seed (default: ${SEED_ENV_VAR} or 0)")
            for names, kwargs in flags():
                p.add_argument(*names, **kwargs)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    try:
        try:
            args = parser.parse_args(argv)
        except UsageError:
            if argv[0].startswith("-"):  # e.g. 'chronoqa --seed 3 gen-l1'
                flag = argv[0].partition("=")[0]
                raise UsageError(f"{flag} goes after the subcommand: chronoqa SUBCOMMAND {flag} ...") from None
            raise
        if not getattr(args, "command", None):
            raise UsageError("a subcommand is required (see --help)")
        if args.seed is None:
            args.seed = _default_seed()
        collecting = gc.isenabled()
        gc.disable()  # every record a run builds is acyclic; the collector would only re-scan them
        try:
            return args.func(args)
        finally:
            if collecting:
                gc.enable()
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
