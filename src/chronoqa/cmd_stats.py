"""``chronoqa stats``: dataset statistics for fact and question files."""

from .cli import _TEMPLATES, EXIT_OK, _fact_flags, _flag, _group_limits, _load_groups, _meta

FLAGS = [
    _TEMPLATES, *_fact_flags(), *_group_limits(),
    _flag("--questions", nargs="*"),
    _flag("--out", help="write stats as JSON"),
]


def run(args) -> int:
    from .jsonl import load_jsonl, write_json
    from .records import Question
    payload: dict = {}
    lines: list[str] = []  # printed once --out is written, so a failed print cannot lose it
    if args.facts:
        from .facts import group_stats
        from .templates import load_templates
        templates = load_templates(args.templates)
        groups = _load_groups(args, templates, args.max_subjects, args.min_facts)
        stats = group_stats(groups)
        payload["facts_file"] = stats
        lines.append(f"fact groups: {stats['groups']}  subjects: {stats['subjects']}  "
                     f"facts: {stats['facts']}  facts/subjects: {stats['facts_per_subject']}")
        for relation, entry in stats["per_relation"].items():
            lines.append(f"  {relation:<6} groups {entry['groups']:>6}  facts {entry['facts']:>7}")
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
        lines.append(f"  {'level':<6} {'split':<7} {'questions':>10} {'subjects':>9} {'facts/subjects':>15}")
        payload["questions"] = {}
        for (level, split), bucket in sorted(question_stats.items()):
            subjects = len(bucket["subjects"])
            ratio = round(bucket["questions"] / subjects, 2) if level == "L2" and subjects else None
            lines.append(f"  {level:<6} {split:<7} {bucket['questions']:>10} "
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
        lines.append(f"wrote stats to {args.out}")
    for line in lines:
        print(line)
    return EXIT_OK
